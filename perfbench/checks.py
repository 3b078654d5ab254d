"""Output checks, written against the file formats rather than with the
gectools readers, so a reader bug cannot hide a writer bug.

Each check returns the number of items that failed it.
"""

from __future__ import annotations

import math
import re


def synth(tsv_path, stderr_path, expected) -> int:
    """TSV right sides equal the accepted inputs, re-tokenized; the
    per-rule rejection counts on stderr match the generator's labels."""
    want_rules: dict[int, int] = {}
    want_pairs: list[str] = []
    for kind, value in expected:
        if kind == "reject":
            want_rules[value] = want_rules.get(value, 0) + 1
        else:
            want_pairs.append(value)
    failed = 0
    with open(tsv_path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    failed += abs(len(rows) - len(want_pairs))
    for row, original in zip(rows, want_pairs):
        if len(row) != 2 or not row[0].strip() or row[1] != original:
            failed += 1
    got_rules: dict[int, int] = {}
    with open(stderr_path, encoding="utf-8") as fh:
        for line in fh:
            m = re.match(r"rejected by rule (\d+) \(.*\): (\d+)$", line.rstrip("\n"))
            if m:
                got_rules[int(m.group(1))] = int(m.group(2))
    for rule in range(1, 8):
        failed += abs(got_rules.get(rule, 0) - want_rules.get(rule, 0))
    return failed


def _m2_blocks(path):
    """(S tokens, [(start, end, label, correction tokens)]) per block."""
    blocks = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("S"):
                blocks.append((line[2:].split(), []))
            elif line.startswith("A "):
                span, label, corr = line[2:].split("|||")[:3]
                start, end = (int(x) for x in span.split())
                if label != "noop":
                    blocks[-1][1].append((start, end, label, corr.split()))
    return blocks


def _apply(tokens: list[str], edits) -> list[str]:
    out: list[str] = []
    cursor = 0
    for start, end, _, corr in sorted(edits, key=lambda e: (e[0], e[1])):
        out.extend(tokens[cursor:start])
        out.extend(corr)
        cursor = end
    out.extend(tokens[cursor:])
    return out


def m2(path, sources: list[list[str]], targets: list[list[str]], typed: bool) -> tuple[int, int]:
    """(failed sentences, edit count).  Each block's S line is its source
    sentence and its edits rewrite it into the target; typed edits carry
    a label other than UNK."""
    blocks = _m2_blocks(path)
    failed = abs(len(blocks) - len(sources))
    n_edits = 0
    for (s_tokens, edits), source, target in zip(blocks, sources, targets):
        n_edits += len(edits)
        bad_label = typed and any(label == "UNK" for _, _, label, _ in edits)
        if s_tokens != source or _apply(s_tokens, edits) != target or bad_label:
            failed += 1
    return failed, n_edits


def score_output(path, ref_edits: int, hyp_edits: int) -> int:
    """TP + FN equals the reference edit count, TP + FP the hypothesis's."""
    with open(path, encoding="utf-8") as fh:
        m = re.match(r"TP (\d+)  FP (\d+)  FN (\d+)$", fh.readline().rstrip("\n"))
    if not m:
        return 1
    tp, fp, fn = (int(x) for x in m.groups())
    return int(tp + fn != ref_edits) + int(tp + fp != hyp_edits)


def stats_output(path, ref_edits: int) -> int:
    with open(path, encoding="utf-8") as fh:
        totals = [line for line in fh if line.startswith("total edits: ")]
    return int(totals != [f"total edits: {ref_edits}\n"])


def arpa(path) -> int:
    """Every section holds as many entries as the header declares."""
    declared: dict[int, int] = {}
    found: dict[int, int] = {}
    section = 0
    ended = False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("ngram "):
                n, count = line[6:].split("=")
                declared[int(n)] = int(count)
            elif line.startswith("\\") and line.endswith("-grams:"):
                section = int(line[1:-7])
                found[section] = 0
            elif line == "\\end\\":
                ended = True
            elif line and section:
                found[section] += 1
    return int(not ended or not declared or declared != found)


def lm_scores(path, n_sentences: int) -> int:
    """One line of two finite numbers per scored sentence."""
    failed = 0
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    failed += abs(len(rows) - n_sentences)
    for row in rows:
        try:
            if len(row) != 2 or not all(math.isfinite(float(x)) for x in row):
                failed += 1
        except ValueError:
            failed += 1
    return failed


def rerank_output(path, groups: list[list[str]]) -> int:
    """Each output line is one of its group's hypotheses."""
    with open(path, encoding="utf-8") as fh:
        picks = [line.rstrip("\n") for line in fh]
    failed = abs(len(picks) - len(groups))
    for pick, group in zip(picks, groups):
        if pick not in group:
            failed += 1
    return failed
