"""Corpus filtering and synthetic error generation.

A raw monolingual corpus is first filtered to clean, well-formed
sentences (seven rules, applied in a fixed order).  Accepted sentences
are then corrupted with stochastic word-level operations (substitution
from a confusion set, deletion, insertion, adjacent swap) followed by a
round of character-level noise, producing corrupted/original pairs for
training correction models.

Corruption is deterministic given a seed: every input line uses its own
generator seeded with seed XOR line-index, so results do not depend on
how the work is split across processes.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable

from gectools.errors import EmptySentence
from gectools.kernels import scan_distances
from gectools.lexicon import Lexicon
from gectools.text import Sentence, Token, is_punct, peel_punct, render, tokenize

# Romanian diacritics, including the legacy cedilla codepoints that many
# corpora still carry.
DIACRITICS = frozenset("ăâîșțĂÂÎȘȚşţŞŢ")

# Characters inserted/substituted by character-level noise.
ALPHABET = "aăâbcdefghiîjklmnopqrsștțuvwxyz"

QUOTE_CHARS = frozenset('"\'«»„“”‘’‚‹›')

# Confusion sets a ConfusionProvider caches before it starts over.
CONFUSION_CACHE_LIMIT = 200_000

RULE_NAMES = {
    1: "first letter not uppercase",
    2: "quotation marks or link markers",
    3: "unbalanced brackets",
    4: "no sentence-final punctuation",
    5: "too few diacritics",
    6: "too many foreign characters",
    7: "too short",
}


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds and character inventories of the corpus filter."""

    min_words: int = 9
    min_diacritic_ratio: float = 0.01
    max_foreign_ratio: float = 0.025
    end_marks: frozenset[str] = frozenset(".!?")
    quote_chars: frozenset[str] = QUOTE_CHARS
    link_markers: tuple[str, ...] = ("www.", "http")
    abbreviations: frozenset[str] = frozenset(
        {"etc", "nr", "dl", "dna", "dr", "str", "art", "ex", "pag", "tel", "vol", "sec"}
    )


def diacritic_ratio(text: str) -> float:
    """Diacritic characters per non-diacritic character; 0 when the text
    has no non-diacritic characters."""
    dia = sum(1 for ch in text if ch in DIACRITICS)
    other = len(text) - dia
    return dia / other if other else 0.0


def _final_period_is_abbreviation(text: str, cfg: FilterConfig) -> bool:
    chunks = text.split()
    if not chunks:
        return False
    last = chunks[-1]
    start, end = peel_punct(last)
    return last[start:end].lower() in cfg.abbreviations


def filter_sentence(text: str, cfg: FilterConfig = FilterConfig()) -> int | None:
    """Check one raw sentence against the filter.

    Returns None when the sentence is accepted, otherwise the number
    (1-7) of the first rule that rejects it.
    """
    # 1: the first letter must be uppercase.
    first_alpha = next((ch for ch in text if ch.isalpha()), None)
    if first_alpha is None or not first_alpha.isupper():
        return 1
    # 2: no quotation marks and no link markers.
    if any(ch in cfg.quote_chars for ch in text):
        return 2
    lowered = text.lower()
    if any(marker in lowered for marker in cfg.link_markers):
        return 2
    # 3: balanced round and square brackets.
    if text.count("(") != text.count(")") or text.count("[") != text.count("]"):
        return 3
    # 4: the last punctuation character is an end mark and, for a
    # period, does not belong to a known abbreviation.
    last_punct = next((ch for ch in reversed(text) if is_punct(ch)), None)
    if last_punct is None or last_punct not in cfg.end_marks:
        return 4
    if last_punct == "." and _final_period_is_abbreviation(text, cfg):
        return 4
    # 5: enough Romanian diacritics.
    if diacritic_ratio(text) <= cfg.min_diacritic_ratio:
        return 5
    # 6: few enough characters outside ASCII + Romanian diacritics.
    foreign = sum(1 for ch in text if ord(ch) >= 128 and ch not in DIACRITICS)
    native = len(text) - foreign
    if native == 0 or foreign / native > cfg.max_foreign_ratio:
        return 6
    # 7: long enough.
    if len(text.split()) < cfg.min_words:
        return 7
    return None


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the corruption process."""

    mean_error_rate: float = 0.15
    std_error_rate: float = 0.2
    p_substitute: float = 0.7
    p_delete: float = 0.1
    p_insert: float = 0.1
    p_swap: float = 0.1
    confusion_size: int = 20
    char_word_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        total = self.p_substitute + self.p_delete + self.p_insert + self.p_swap
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"operation probabilities must sum to 1, got {total}")


class ConfusionProvider:
    """Finds lexicon words close to a given word in character distance.

    Candidates are ranked by distance, then frequency (descending), then
    alphabetically.  Results are cached.  A lookup is exact and runs in
    two steps:

    1. The query's one-edit neighbours (deletions, adjacent
       transpositions, and substitutions and insertions over the
       lexicon's own alphabet) are looked up in the lexicon.  When at
       least k words lie at distance 1, no farther word can enter the
       result, so those are returned.
    2. Otherwise the words whose length is within max_distance of the
       query's (only the lexicon's word lengths in that range are
       visited, so the work does not grow with max_distance itself) are
       scanned with scan_distances, after a letter-count filter.  One
       edit takes at most one letter out of the query's letter multiset
       and adds at most one, so a word w within max_distance of the
       query q shares at least max(len(q), len(w)) - max_distance
       letters with it.  Multisets are bit masks with one bit per
       (letter, occurrence index) pair, built per length bucket the
       first time a query needs the bucket.
    """

    def __init__(self, lexicon: Lexicon, max_distance: int = 2):
        self.lexicon = lexicon
        self.max_distance = max_distance
        self._cache: dict[tuple[str, int], list[str]] = {}
        self._buckets: dict[int, list[str]] = {}
        for word in lexicon.sorted_words:
            self._buckets.setdefault(len(word), []).append(word)
        self._lengths = sorted(self._buckets)
        # Built lazily: the lexicon's alphabet, the bit of each
        # (letter, occurrence index) pair, and each bucket's masks.
        self._alphabet: str | None = None
        self._bits: dict[tuple[str, int], int] = {}
        self._masks: dict[int, list[int]] = {}

    def confusion_set(self, word: str, k: int = 20) -> list[str]:
        """Up to k in-lexicon alternatives for word (the word itself is
        never among them)."""
        lowered = word.lower()
        key = (lowered, k)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = self._search(lowered, k)
        if len(self._cache) >= CONFUSION_CACHE_LIMIT:
            self._cache.clear()
        self._cache[key] = result
        return result

    def _search(self, word: str, k: int) -> list[str]:
        max_dist = self.max_distance
        if max_dist < 1:
            return []
        freq = self.lexicon.freq
        near = self._neighbours(word) & self.lexicon.words
        near.discard(word)
        near.discard("")  # the scan never looks at words shorter than 1
        scored = sorted((1, -freq(cand), cand) for cand in near)
        if max_dist > 1 and not 0 <= k <= len(scored):
            query = self._mask(word)
            candidates: list[str] = []
            lengths = self._lengths
            lo = bisect_left(lengths, max(1, len(word) - max_dist))
            hi = bisect_right(lengths, len(word) + max_dist)
            for length in lengths[lo:hi]:
                bucket = self._buckets[length]
                need = max(len(word), length) - max_dist
                candidates.extend(
                    cand
                    for cand, mask in zip(bucket, self._bucket_masks(length))
                    if (query & mask).bit_count() >= need and cand not in near
                )
            for cand, dist in scan_distances(word, candidates, max_dist):
                if cand != word:
                    scored.append((dist, -freq(cand), cand))
            scored.sort()
        return [cand for _, _, cand in scored[:k]]

    def _neighbours(self, word: str) -> set[str]:
        """Every string one deletion, adjacent transposition, or
        substitution or insertion of a lexicon letter away from word."""
        if self._alphabet is None:
            self._alphabet = "".join(set("".join(self.lexicon.words)))
        alphabet = self._alphabet
        splits = [(word[:i], word[i:]) for i in range(len(word) + 1)]
        out = {head + tail[1:] for head, tail in splits if tail}
        out.update(head + tail[1] + tail[0] + tail[2:] for head, tail in splits if len(tail) > 1)
        out.update(head + ch + tail[1:] for head, tail in splits if tail for ch in alphabet)
        out.update(head + ch + tail for head, tail in splits for ch in alphabet)
        return out

    def _mask(self, word: str) -> int:
        bits = self._bits
        seen: dict[str, int] = {}
        mask = 0
        for ch in word:
            n = seen[ch] = seen.get(ch, -1) + 1
            mask |= 1 << bits.setdefault((ch, n), len(bits))
        return mask

    def _bucket_masks(self, length: int) -> list[int]:
        masks = self._masks.get(length)
        if masks is None:
            masks = self._masks[length] = [self._mask(w) for w in self._buckets[length]]
        return masks

    def random_word(self, rng: random.Random) -> str:
        words = self.lexicon.sorted_words
        return words[rng.randrange(len(words))]


@dataclass
class CorruptionStats:
    """Tallies of what the corruption process actually did.

    Operation counters count draws; a drawn operation that turns out to
    be inapplicable (swap in a one-word sentence, substitution with an
    empty confusion set) still counts toward the mix.
    """

    sentences: int = 0
    changed_fraction_sum: float = 0.0
    word_ops: Counter = field(default_factory=Counter)
    char_ops: Counter = field(default_factory=Counter)
    no_candidate_subs: int = 0

    def merge(self, other: "CorruptionStats") -> None:
        self.sentences += other.sentences
        self.changed_fraction_sum += other.changed_fraction_sum
        self.word_ops.update(other.word_ops)
        self.char_ops.update(other.char_ops)
        self.no_candidate_subs += other.no_candidate_subs

    @property
    def mean_changed_fraction(self) -> float:
        return self.changed_fraction_sum / self.sentences if self.sentences else 0.0

    def word_op_fraction(self, op: str) -> float:
        total = sum(self.word_ops.values())
        return self.word_ops[op] / total if total else 0.0


def _round_half_away(x: float) -> int:
    # x is never negative here.
    return int(x + 0.5)


def _draw_op(cfg: SynthConfig, rng: random.Random) -> str:
    r = rng.random()
    if r < cfg.p_substitute:
        return "substitute"
    if r < cfg.p_substitute + cfg.p_delete:
        return "delete"
    if r < cfg.p_substitute + cfg.p_delete + cfg.p_insert:
        return "insert"
    return "swap"


def corrupt_sentence(
    sentence: Sentence,
    cfg: SynthConfig,
    provider: ConfusionProvider,
    rng: random.Random,
    stats: CorruptionStats | None = None,
) -> Sentence:
    """Corrupt one sentence.

    An error rate is drawn from a normal distribution and clamped to
    [0, 1]; that fraction of word positions (rounded, half away from
    zero) is sampled without replacement and hit with one operation
    each.  A second pass applies character-level noise to a fraction of
    the surviving words.
    """
    n = len(sentence)
    if n == 0:
        raise EmptySentence("cannot corrupt a sentence with no tokens")

    p_err = min(1.0, max(0.0, rng.gauss(cfg.mean_error_rate, cfg.std_error_rate)))
    n_changed = _round_half_away(p_err * n)
    if stats is not None:
        stats.sentences += 1
        stats.changed_fraction_sum += n_changed / n

    # (original position, or None for an inserted word; current form)
    slots: list[tuple[int | None, str]] = list(enumerate(t.form for t in sentence.tokens))

    if n_changed > 0:
        for pos in rng.sample(range(n), n_changed):
            op = _draw_op(cfg, rng)
            if stats is not None:
                stats.word_ops[op] += 1
            cur = next((i for i, (orig, _) in enumerate(slots) if orig == pos), None)
            if cur is None:
                continue
            if op == "substitute":
                candidates = provider.confusion_set(slots[cur][1], cfg.confusion_size)
                if candidates:
                    slots[cur] = (pos, candidates[rng.randrange(len(candidates))])
                elif stats is not None:
                    stats.no_candidate_subs += 1
            elif op == "delete":
                del slots[cur]
            elif op == "insert":
                slots.insert(cur + 1, (None, provider.random_word(rng)))
            else:  # swap with the next word, or the previous one when last
                if len(slots) < 2:
                    continue
                other = cur + 1 if cur + 1 < len(slots) else cur - 1
                slots[cur], slots[other] = slots[other], slots[cur]

    work = [form for _, form in slots]
    n_char = _round_half_away(cfg.char_word_rate * len(work))
    if n_char > 0 and work:
        for pos in rng.sample(range(len(work)), min(n_char, len(work))):
            op = _draw_op(cfg, rng)
            if stats is not None:
                stats.char_ops[op] += 1
            word = work[pos]
            if op == "substitute":
                i = rng.randrange(len(word))
                word = word[:i] + ALPHABET[rng.randrange(len(ALPHABET))] + word[i + 1 :]
            elif op == "delete":
                if len(word) < 2:
                    continue
                i = rng.randrange(len(word))
                word = word[:i] + word[i + 1 :]
            elif op == "insert":
                i = rng.randrange(len(word) + 1)
                word = word[:i] + ALPHABET[rng.randrange(len(ALPHABET))] + word[i:]
            else:
                if len(word) < 2:
                    continue
                i = rng.randrange(len(word) - 1)
                word = word[:i] + word[i + 1] + word[i] + word[i + 2 :]
            work[pos] = word

    return Sentence(tuple(Token(form) for form in work))


@dataclass
class SynthStats:
    """Filtering and corruption tallies for one generation run."""

    total_lines: int = 0
    accepted: int = 0
    rejected_by_rule: Counter = field(default_factory=Counter)
    corruption: CorruptionStats = field(default_factory=CorruptionStats)

    def count(self, rule: int | None) -> bool:
        """Tally one input line that filter rule rejected, or that was
        accepted when rule is None; True when it was accepted."""
        self.total_lines += 1
        if rule is None:
            self.accepted += 1
            return True
        self.rejected_by_rule[rule] += 1
        return False

    def format(self) -> str:
        lines = [f"input lines: {self.total_lines}", f"accepted: {self.accepted}"]
        for rule in sorted(self.rejected_by_rule):
            lines.append(
                f"rejected by rule {rule} ({RULE_NAMES[rule]}): {self.rejected_by_rule[rule]}"
            )
        total_ops = sum(self.corruption.word_ops.values())
        if total_ops:
            mix = ", ".join(
                f"{op}={self.corruption.word_op_fraction(op):.3f}"
                for op in ("substitute", "delete", "insert", "swap")
            )
            lines.append(f"word operations: {total_ops} ({mix})")
            lines.append(f"char operations: {sum(self.corruption.char_ops.values())}")
            lines.append(
                f"mean changed-word fraction: {self.corruption.mean_changed_fraction:.4f}"
            )
        return "\n".join(lines)


_WORKER: dict = {}


def _init_worker(filter_cfg, synth_cfg, provider):
    _WORKER["filter_cfg"] = filter_cfg
    _WORKER["synth_cfg"] = synth_cfg
    _WORKER["provider"] = provider


def _corrupt_one(index: int, line: str, filter_cfg, synth_cfg, provider):
    rule = filter_sentence(line, filter_cfg)
    if rule is not None:
        return rule, None, None
    sentence = tokenize(line)
    stats = CorruptionStats()
    rng = random.Random(synth_cfg.seed ^ index)
    corrupted = corrupt_sentence(sentence, synth_cfg, provider, rng, stats)
    return None, f"{render(corrupted)}\t{render(sentence)}", stats


def _worker(item):
    index, line = item
    return _corrupt_one(
        index, line.rstrip("\n"), _WORKER["filter_cfg"], _WORKER["synth_cfg"], _WORKER["provider"]
    )


def generate_corpus(
    lines: Iterable[str],
    filter_cfg: FilterConfig,
    synth_cfg: SynthConfig,
    provider: ConfusionProvider,
    out: IO[str],
    jobs: int = 1,
) -> SynthStats:
    """Filter a raw corpus and write corrupted<TAB>original pairs.

    Output lines appear in input order and are identical for a given
    seed whatever the value of jobs.
    """
    stats = SynthStats()

    def consume(result):
        rule, out_line, cstats = result
        if stats.count(rule):
            out.write(out_line + "\n")
            stats.corruption.merge(cstats)

    if jobs <= 1:
        for index, line in enumerate(lines):
            consume(_corrupt_one(index, line.rstrip("\n"), filter_cfg, synth_cfg, provider))
        return stats

    from multiprocessing import Pool

    with Pool(jobs, initializer=_init_worker, initargs=(filter_cfg, synth_cfg, provider)) as pool:
        for result in pool.imap(_worker, enumerate(lines), chunksize=64):
            consume(result)
    return stats
