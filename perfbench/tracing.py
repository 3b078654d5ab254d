"""In-memory span tracing of gectools from outside the package.

Tracing works by replacing a public name with a timing wrapper at the
place where its caller looks it up (for example gectools.align.dl_distance,
which align.sub_cost reads from its module globals), and putting the
original back afterwards.  Three kinds of wrapper exist:

* span: one record (name, start, end, parent) per call; used for calls
  that are few per sentence or that have traced children.
* leaf: hot calls with no traced children.  They keep no record of their
  own; their call count and time are added to the nearest enclosing
  span, so a sentence with 6,000 kernel calls costs 6,000 additions,
  not 6,000 records.
* count: calls that are only counted, never timed, because timing them
  would cost more than the call; their time stays in the self time of
  the span that makes them.

A layer's self time is its time minus the time of the traced calls made
inside it.
"""

from __future__ import annotations

import importlib
import json
import time
import weakref
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.leaf_totals: dict[tuple[int, str], list] = {}  # (span, leaf) -> [calls, seconds]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # Frames of the open spans: [span index, start, time in children].
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -------------------------------------------------------------- wrappers

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        start = _clock()
        index = len(self.spans)
        self.spans.append([name, start, None, self._stack[-1][0] if self._stack else None])
        frame = [index, start, 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            self.spans[index][2] = end
            duration = end - start
            self.self_s[name] += duration - frame[2]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += duration

    def span(self, name, fn, on_call=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_call is not None:
                on_call(self.counts, args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name, fn, on_call=None):
        stack = self._stack
        totals = self.leaf_totals

        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                self.self_s[name] += duration
                self.calls[name] += 1
                if stack:
                    frame = stack[-1]
                    frame[2] += duration
                    slot = totals.get((frame[0], name))
                    if slot is None:
                        totals[(frame[0], name)] = [1, duration]
                    else:
                        slot[0] += 1
                        slot[1] += duration
            if on_call is not None:
                on_call(self.counts, args, kwargs, result)
            return result

        return wrapper

    def count(self, name, fn, on_call=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(self.counts, args, kwargs, result)
            return result

        return wrapper

    # -------------------------------------------------------------- patching

    def patch(self, owner, attr: str, kind: str, name: str, on_call=None) -> None:
        """Replace owner.attr with a wrapper of the given kind.

        A name the code no longer has is recorded in self.missing and
        skipped, so the layers that still exist are traced.
        """
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        factory = getattr(self, kind)
        if isinstance(original, classmethod):
            wrapped = classmethod(factory(name, original.__func__, on_call))
        else:
            wrapped = factory(name, original, on_call)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner).get(attr) is not original:
                raise RuntimeError(f"could not restore {owner}.{attr}")

    # ---------------------------------------------------------------- output

    def write(self, path) -> None:
        """Write every span and the per-span leaf totals as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(record) + "\n")
            for (parent, name), (calls, seconds) in sorted(self.leaf_totals.items()):
                record = {"parent": parent, "leaf": name, "calls": calls, "seconds": seconds}
                fh.write(json.dumps(record) + "\n")


# ------------------------------------------------------------- gectools hooks


def _scan_counts(counts, args, kwargs, result):
    counts["kernels.scan_candidates"] += len(args[1])
    counts["kernels.scan_within"] += len(result)


def _filter_counts(counts, args, kwargs, result):
    if result is not None:
        counts["synth.filter_rejected"] += 1


def _confusion_counter():
    # A lookup misses when its provider has not been asked this key
    # before; tracked per provider, since each synth run builds its own.
    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def on_call(counts, args, kwargs, result):
        provider, word = args[0], args[1]
        k = args[2] if len(args) > 2 else kwargs.get("k", 20)
        keys = seen.setdefault(provider, set())
        key = (word.lower(), k)
        if key not in keys:
            keys.add(key)
            counts["synth.confusion_misses"] += 1
        if not result:
            counts["synth.confusion_empty"] += 1

    return on_call


def _align_counts(counts, args, kwargs, result):
    counts["align.dp_cells"] += len(args[0]) * len(args[1])


def _merge_counts(counts, args, kwargs, result):
    counts["align.edits"] += len(result)


def _ngram_counts(counts, args, kwargs, result):
    counts["lm.ngrams"] += sum(len(table) for table in args[0].tables)


def _oov_counts(counts, args, kwargs, result):
    if args[1] == "<unk>":
        counts["lm.oov_queries"] += 1


def install(tracer: Tracer) -> None:
    """Wrap the public gectools names each layer is reached through."""
    # Through sys.modules: the package re-exports a function named align,
    # which shadows the gectools.align attribute.
    align, classify, cli, lexicon, lm, synth = (
        importlib.import_module(f"gectools.{name}")
        for name in ("align", "classify", "cli", "lexicon", "lm", "synth")
    )
    t = tracer
    t.patch(lexicon.Lexicon, "from_file", "span", "lexicon.from_file")
    t.patch(cli, "tokenize", "leaf", "text.tokenize")
    t.patch(synth, "tokenize", "leaf", "text.tokenize")
    t.patch(cli, "parse_conllu", "span", "text.parse_conllu")

    t.patch(synth.ConfusionProvider, "__init__", "span", "synth.provider_init")
    t.patch(synth, "filter_sentence", "leaf", "synth.filter", _filter_counts)
    t.patch(synth, "corrupt_sentence", "span", "synth.corrupt")
    t.patch(synth.ConfusionProvider, "confusion_set", "span", "synth.confusion", _confusion_counter())
    t.patch(synth, "scan_distances", "leaf", "kernels.scan", _scan_counts)

    t.patch(cli, "extract_edits", "span", "align.extract_edits")
    t.patch(classify, "extract_edits", "span", "align.extract_edits")
    t.patch(align, "align", "span", "align.align", _align_counts)
    t.patch(align, "sub_cost", "count", "align.sub_cost")
    t.patch(align, "dl_distance", "leaf", "kernels.dl")
    t.patch(align, "merge_ops", "span", "align.merge", _merge_counts)

    t.patch(cli, "classify_all", "span", "classify.classify_all")
    t.patch(classify, "classify_edit", "span", "classify.classify")
    t.patch(classify, "lcs_length", "leaf", "kernels.lcs")

    t.patch(cli, "write_m2", "leaf", "m2.write")
    t.patch(cli, "read_m2", "span", "m2.read")
    t.patch(cli, "score_corpus", "span", "score.score")
    t.patch(cli, "corpus_stats", "span", "score.stats")
    t.patch(cli, "format_stats", "span", "score.stats")

    t.patch(lm, "count_ngrams", "span", "lm.count")
    t.patch(lm, "train_kneser_ney", "span", "lm.train")
    t.patch(lm, "write_arpa", "span", "lm.write_arpa", _ngram_counts)
    t.patch(lm, "read_arpa", "span", "lm.read_arpa")
    t.patch(lm, "logprob", "span", "lm.logprob")
    t.patch(lm.ArpaModel, "word_logprob", "count", "lm.word_logprob", _oov_counts)
    t.patch(lm, "read_nbest", "span", "lm.read_nbest")
    t.patch(lm, "rerank", "span", "lm.rerank")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, file_bytes: dict[str, float]) -> dict[str, float]:
    """Per-pass layer metrics from a tracer that ran `passes` passes.

    file_bytes holds output sizes, measured outside the tracer.
    """
    s, c, n = tracer.self_s, tracer.calls, tracer.counts
    per = 1.0 / passes
    confusion_calls = c["synth.confusion"]
    m = {
        "text.tokenize_s": s["text.tokenize"] * per,
        "text.tokenize_calls": c["text.tokenize"] * per,
        "text.parse_conllu_s": s["text.parse_conllu"] * per,
        "lexicon.from_file_s": s["lexicon.from_file"] * per,
        "synth.provider_init_s": s["synth.provider_init"] * per,
        "synth.filter_s": s["synth.filter"] * per,
        "synth.filter_rejected": n["synth.filter_rejected"] * per,
        "synth.corrupt_self_s": s["synth.corrupt"] * per,
        "synth.confusion_s": s["synth.confusion"] * per,
        "synth.confusion_calls": confusion_calls * per,
        "synth.confusion_misses": n["synth.confusion_misses"] * per,
        "synth.confusion_hit_ratio": _ratio(confusion_calls - n["synth.confusion_misses"], confusion_calls),
        "synth.confusion_empty": n["synth.confusion_empty"] * per,
        "kernels.scan_s": s["kernels.scan"] * per,
        "kernels.scan_calls": c["kernels.scan"] * per,
        "kernels.scan_candidates": n["kernels.scan_candidates"] * per,
        "kernels.scan_within_ratio": _ratio(n["kernels.scan_within"], n["kernels.scan_candidates"]),
        "kernels.dl_s": s["kernels.dl"] * per,
        "kernels.dl_calls": c["kernels.dl"] * per,
        "kernels.lcs_s": s["kernels.lcs"] * per,
        "kernels.lcs_calls": c["kernels.lcs"] * per,
        "align.align_s": (s["align.align"] + s["align.extract_edits"]) * per,
        "align.dp_cells": n["align.dp_cells"] * per,
        "align.sub_cost_calls": c["align.sub_cost"] * per,
        "align.merge_s": s["align.merge"] * per,
        "align.edits": n["align.edits"] * per,
        "classify.classify_s": (s["classify.classify"] + s["classify.classify_all"]) * per,
        "classify.edits": c["classify.classify"] * per,
        "m2.write_s": s["m2.write"] * per,
        "m2.read_s": s["m2.read"] * per,
        "score.score_s": s["score.score"] * per,
        "score.stats_s": s["score.stats"] * per,
        "lm.count_s": s["lm.count"] * per,
        "lm.train_s": s["lm.train"] * per,
        "lm.write_arpa_s": s["lm.write_arpa"] * per,
        "lm.ngrams": n["lm.ngrams"] * per,
        "lm.read_arpa_s": s["lm.read_arpa"] * per,
        "lm.logprob_s": s["lm.logprob"] * per,
        "lm.word_logprob_calls": c["lm.word_logprob"] * per,
        "lm.oov_rate": _ratio(n["lm.oov_queries"], c["lm.word_logprob"]),
        "lm.read_nbest_s": s["lm.read_nbest"] * per,
        "lm.rerank_s": s["lm.rerank"] * per,
    }
    m.update({k: v * per for k, v in file_bytes.items()})
    return m
