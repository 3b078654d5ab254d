"""Import boundaries: the package and each command load only the modules
they use.  Every check runs in a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from tests.test_golden import CASES, INPUT, ROOT


def modules_after(code: str) -> set[str]:
    """The names in sys.modules after code runs in a fresh interpreter."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    script = textwrap.dedent(code) + "\nimport sys\nprint(*sys.modules, sep='\\n')\n"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_package_loads_no_submodule():
    assert {m for m in modules_after("import gectools") if m.startswith("gectools.")} == set()


def test_cli_loads_neither_lm_nor_synth():
    loaded = modules_after("import gectools.cli")
    assert "gectools.cli" in loaded
    assert loaded.isdisjoint({"gectools.lm", "gectools.synth", "multiprocessing"})


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["synth", str(INPUT / "corpus.txt"), "--lexicon", str(INPUT / "lexicon.txt"), "--seed", "1",
          "--jobs", "1"], {"multiprocessing", "gectools.lm"}),
        (["lm-train", str(INPUT / "train.txt"), "--order", "2"],
         {"gectools.synth", "gectools.lexicon", "multiprocessing"}),
        (["extract", str(INPUT / "wrong.txt"), str(INPUT / "hyp.txt")],
         {"gectools.lm", "gectools.synth", "multiprocessing"}),
        (CASES["lm_score"], {"gectools.synth", "gectools.lexicon", "multiprocessing"}),
        (CASES["rerank"], {"gectools.synth", "gectools.lexicon", "multiprocessing"}),
        (CASES["score"], {"gectools.lm", "gectools.synth", "gectools.lexicon"}),
        (CASES["stats"], {"gectools.lm", "gectools.synth", "gectools.lexicon"}),
        (CASES["filter"], {"gectools.lm", "multiprocessing"}),
        (CASES["extract_conllu"], {"gectools.lm", "gectools.synth"}),
    ],
    ids=["synth-jobs-1", "lm-train", "extract", "lm-score", "rerank", "score", "stats", "filter", "extract-conllu"],
)
def test_command_loads_only_what_it_uses(tmp_path, argv, unused):
    # score and stats print to stdout; they have no -o.
    output = [] if argv[0] in ("score", "stats") else ["-o", str(tmp_path / "out")]
    loaded = modules_after(f"""
        import contextlib, io
        from gectools.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({[*argv, *output]!r}) == 0
    """)
    assert loaded.isdisjoint(unused), loaded & unused


@pytest.mark.parametrize("first", ["", "import gectools.cli"], ids=["fresh", "after-cli"])
def test_public_names_are_their_modules_objects(first):
    # After gectools.cli every submodule is loaded, gectools.align too:
    # the package name align still means the function.
    modules_after(f"""
        {first}
        import importlib
        import gectools
        for name in gectools.__all__:
            module = importlib.import_module("gectools." + gectools._MODULE_OF[name])
            assert getattr(gectools, name) is getattr(module, name), name
        assert set(gectools.__all__) <= set(dir(gectools))
        assert callable(gectools.align)
        from gectools import align
        assert align is gectools.align
        try:
            gectools.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("no AttributeError")
    """)


def test_every_error_and_warning_class_is_public():
    # Warning subclasses Exception, so this takes DegenerateCounts too.
    modules_after("""
        import gectools
        from gectools import errors
        defined = {name for name, value in vars(errors).items()
                   if isinstance(value, type) and issubclass(value, Exception)}
        assert defined <= set(gectools.__all__), defined - set(gectools.__all__)
    """)
