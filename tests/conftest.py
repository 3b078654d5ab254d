"""Shared fixtures and deterministic data builders for the test suite."""

from __future__ import annotations

import itertools
import os
import random
from pathlib import Path

import pytest

from gectools.lexicon import Lexicon
from gectools.text import parse_conllu

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra: str) -> dict[str, str]:
    """The environment for a child interpreter: this one's, with extra set
    and src/ first on PYTHONPATH, then any inherited PYTHONPATH."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": pythonpath}


# Syllables with and without diacritics; products of these make a
# deterministic pseudo-Romanian word list of any size.
_SYLLABLES = (
    "ba be bi bo bu că ce ci co cu da de di do du fa fe fi fo fu "
    "ga ge gi go gu la le li lo lu ma me mi mo mu na ne ni no nu "
    "pa pe pi po pu ra re ri ro ru sa se si so su ta te ti to tu "
    "ță șe și șo șu vă ve vi vo vu ză ze zi zo zu"
).split()


def make_words(n: int) -> list[str]:
    """First n distinct words from the deterministic syllable product."""
    words: list[str] = []
    seen: set[str] = set()
    for repeat in (2, 3):
        for parts in itertools.product(_SYLLABLES, repeat=repeat):
            word = "".join(parts)
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == n:
                    return words
    raise ValueError(f"cannot build {n} distinct words")


def make_clean_lines(n_lines: int, words: list[str], seed: int) -> list[str]:
    """Sentences that all pass the default corpus filter.

    Capitalized first word, 9-16 words total, at least one word with a
    diacritic, terminal period.
    """
    rng = random.Random(seed)
    with_diacritic = [w for w in words if any(ch in "ăâîșț" for ch in w)]
    lines = []
    for _ in range(n_lines):
        length = rng.randint(9, 16)
        chosen = [words[rng.randrange(len(words))] for _ in range(length)]
        chosen[rng.randrange(length)] = with_diacritic[rng.randrange(len(with_diacritic))]
        chosen[0] = chosen[0].capitalize()
        lines.append(" ".join(chosen) + " .")
    return lines


@pytest.fixture(scope="session")
def fixture_lexicon() -> Lexicon:
    return Lexicon.from_file(DATA / "lexicon_ro.txt")


@pytest.fixture(scope="session")
def classify_fixture():
    """(orig sentences, corr sentences, expected labels) for the 19 examples."""
    with open(DATA / "classify_orig.conllu", encoding="utf-8") as fh:
        orig = parse_conllu(fh)
    with open(DATA / "classify_corr.conllu", encoding="utf-8") as fh:
        corr = parse_conllu(fh)
    labels = (DATA / "classify_labels.txt").read_text(encoding="utf-8").split()
    assert len(orig) == len(corr) == len(labels) == 19
    return orig, corr, labels


@pytest.fixture(scope="session")
def synth_lexicon() -> Lexicon:
    """10k-word deterministic lexicon for synthesis tests."""
    return Lexicon.from_words(make_words(10_000))
