"""Seeded input generators for the benchmark workloads.

Standard library only, and independent of gectools: every input and
every expected output the checks compare against is built here from the
seed alone.  Randomness comes from random.Random seeded with strings,
which Python hashes with SHA-512, so nothing depends on the per-process
randomisation of hash().

Sizes are stratified: every shard of a workload has the same number of
lines, the same sentence-length schedule and the same number of filter
failures and injected errors, so the amount of work per shard barely
moves with the seed and only the content does.
"""

from __future__ import annotations

import bisect
import random
from itertools import accumulate

# Letters of generated words.  No 'h' or 'w', so no word can contain a
# filter link marker ("http", "www.").
_CONSONANTS = "bcdfglmnprstvzșț"
_CONSONANT_WEIGHTS = [2] * 14 + [1, 1]
_VOWELS = "aeiouăâî"
_VOWEL_WEIGHTS = [3, 3, 3, 3, 3, 2, 1, 1]
_DIACRITICS = frozenset("ăâîșțĂÂÎȘȚ")
_STRIP = str.maketrans("ăâîșțĂÂÎȘȚ", "aaistAAIST")

# Words the corpus filter treats as abbreviations; kept out of the lexicon
# so a sentence ending in one of them is never accepted by accident.
_ABBREVIATIONS = frozenset(
    {"etc", "nr", "dl", "dna", "dr", "str", "art", "ex", "pag", "tel", "vol", "sec"}
)

LEXICON_WORDS = 10_000
# (syllables, final consonant) of lexicon words, weighted so that no shape
# uses more than a small share of the words it can spell.
_SHAPES = [(n, coda) for n in (1, 2, 3, 4, 5) for coda in (False, True)]
_SHAPE_WEIGHTS = [0.4, 4, 35, 15, 42, 18, 28, 12, 7, 3]
ZIPF_EXPONENT = 1.0


def _rng(seed: int, *parts: object) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def has_diacritic(word: str) -> bool:
    return any(ch in _DIACRITICS for ch in word)


def make_lexicon(seed: int) -> list[tuple[str, int]]:
    """LEXICON_WORDS distinct words in rank order with Zipf frequencies.

    The shape of the word at each rank (syllable count, final consonant)
    comes from a fixed sequence and only its letters from the seed.  A
    confusion-set lookup costs in proportion to the number of lexicon
    words of similar length, so this keeps the cost of looking up the
    frequent words, which every run repeats, the same for every seed.
    """
    shape_rng = random.Random("lexicon-shape")
    rng = _rng(seed, "lexicon")
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < LEXICON_WORDS:
        n_syll, coda = shape_rng.choices(_SHAPES, _SHAPE_WEIGHTS)[0]
        while True:
            word = "".join(
                rng.choices(_CONSONANTS, _CONSONANT_WEIGHTS)[0] + rng.choices(_VOWELS, _VOWEL_WEIGHTS)[0]
                for _ in range(n_syll)
            )
            if coda:
                word += rng.choices(_CONSONANTS, _CONSONANT_WEIGHTS)[0]
            if word not in seen and word not in _ABBREVIATIONS:
                break
        seen.add(word)
        words.append(word)
    return [(w, 1_000_000 // rank + 1) for rank, w in enumerate(words, start=1)]


class ZipfSampler:
    """Draws words with probability proportional to 1 / rank**ZIPF_EXPONENT."""

    def __init__(self, words: list[str]):
        self.words = words
        self._cum = list(accumulate(1.0 / r**ZIPF_EXPONENT for r in range(1, len(words) + 1)))

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self._cum, k=k)

    def draw_stratified(self, rng: random.Random, k: int) -> list[str]:
        """k words, one from each of k equal slices of the distribution,
        in random order: the ranks drawn follow the Zipf law closely in
        every sample, not only on average."""
        total = self._cum[-1]
        out = [
            self.words[min(bisect.bisect(self._cum, (i + rng.random()) * total / k), len(self.words) - 1)]
            for i in range(k)
        ]
        rng.shuffle(out)
        return out


def _spread(n: int, lo: int, hi: int) -> list[int]:
    """n > 1 integers spread evenly over [lo, hi]."""
    return [lo + round(i * (hi - lo) / (n - 1)) for i in range(n)]


def _diacritic_ratio(text: str) -> float:
    dia = sum(1 for ch in text if ch in _DIACRITICS)
    return dia / (len(text) - dia)


def write_lexicon(path, lexicon: list[tuple[str, int]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word, freq in lexicon:
            fh.write(f"{word}\t{freq}\n")


# ---------------------------------------------------------------- synth-zipf

SYNTH_LINES = 35
SYNTH_BAD_SHARE = 0.2


def _clean_words(rng: random.Random, sampler: ZipfSampler, n: int) -> list[str]:
    """n Zipf words, capitalised, whose sentence clears the diacritic rule
    with a wide margin."""
    return _clean(rng, sampler, sampler.draw(rng, n))


def _clean(rng: random.Random, sampler: ZipfSampler, words: list[str]) -> list[str]:
    """words, capitalised, with words redrawn from the front until the
    sentence clears the diacritic rule with a wide margin."""
    words = list(words)
    i = 0
    while _diacritic_ratio(" ".join(words) + ".") <= 0.03:
        words[i % len(words)] = sampler.draw(rng, 1)[0]
        i += 1
    words[0] = words[0][0].upper() + words[0][1:]
    return words


def _bad_line(rule: int, rng: random.Random, sampler: ZipfSampler, plain: list[str]) -> str:
    """A line whose first failing filter rule is `rule`."""
    if rule == 7:
        return " ".join(_clean_words(rng, sampler, rng.randint(4, 8))) + "."
    words = _clean_words(rng, sampler, rng.randint(9, 16))
    mid = rng.randrange(1, len(words) - 1)
    if rule == 1:
        words[0] = words[0].lower()
    elif rule == 2:
        words[mid] = f"„{words[mid]}”"
    elif rule == 3:
        words[mid] = "(" + words[mid]
    elif rule == 4:
        return " ".join(words) + (" etc." if rng.random() < 0.5 else "")
    elif rule == 5:
        words = [plain[rng.randrange(len(plain))] for _ in words]
        words[0] = words[0].capitalize()
    elif rule == 6:
        foreign = "".join(rng.choice("äöüßéèçñøå") for _ in range(8))
        while _diacritic_ratio(" ".join(words[:mid] + [foreign] + words[mid + 1 :])) <= 0.02:
            mid = rng.randrange(1, len(words) - 1)
        words[mid] = foreign
    return " ".join(words) + "."


def make_synth_shard(seed: int, shard: int, lexicon: list[tuple[str, int]]):
    """Raw corpus lines for `gectools synth`, with the expected outcome.

    Returns (lines, expected) where expected[i] is either ("reject", rule)
    or ("accept", "space-joined tokens").
    """
    rng = _rng(seed, "synth", shard)
    # Which line is rejected by which rule, and how long each accepted
    # line is, depends on the shard only: synth draws its corruption per
    # line index, so this fixes how many words each line has corrupted
    # and leaves the seed to choose the words.
    layout = random.Random(f"synth-layout:{shard}")
    words = [w for w, _ in lexicon]
    sampler = ZipfSampler(words)
    plain = [w for w in words[:2000] if not has_diacritic(w)]
    n_bad = round(SYNTH_LINES * SYNTH_BAD_SHARE)
    offset = layout.randrange(7)
    rules = [(offset + i) % 7 + 1 for i in range(n_bad)]
    lengths = _spread(SYNTH_LINES - n_bad, 9, 20)
    layout.shuffle(lengths)
    kinds = rules + [None] * len(lengths)
    layout.shuffle(kinds)
    # The accepted lines carry the confusion-set work, so their words are
    # drawn stratified, which halves the spread of that work across seeds.
    pool = sampler.draw_stratified(rng, sum(lengths))
    lines: list[str] = []
    expected: list[tuple[str, object]] = []
    for kind in kinds:
        if kind is None:
            n = lengths.pop()
            toks = _clean(rng, sampler, pool[-n:])
            del pool[-n:]
            lines.append(" ".join(toks) + ".")
            expected.append(("accept", " ".join(toks + ["."])))
        else:
            lines.append(_bad_line(kind, rng, sampler, plain))
            expected.append(("reject", kind))
    return lines, expected


# ----------------------------------------------------------- annotate-conllu

ANNOTATE_PAIRS = 24
ANNOTATE_MIN_LEN = 5
ANNOTATE_MAX_LEN = 80
# One injected error per this many tokens (so the shortest sentences
# have none and come out as noop blocks).
ANNOTATE_TOKENS_PER_ERROR = 7

_CLOSED_CLASS = {
    "ADP": ("în", "la", "pe", "cu", "de", "din", "spre", "către"),
    "CCONJ": ("și", "dar", "sau", "iar"),
    "DET": ("un", "o", "niște", "acest", "această"),
    "PRON": ("el", "ea", "noi", "ei", "care", "ce"),
    "AUX": ("este", "sunt", "au", "fost"),
    "PART": ("nu", "să"),
    "NUM": ("doi", "trei", "patru", "zece"),
}
_OPEN_SUFFIXES = {
    "NOUN": ("", "ul", "ului", "uri", "ele", "ii"),
    "VERB": ("", "ez", "ează", "ăm", "ați", "eau"),
    "ADJ": ("", "ă", "i", "e"),
    "ADV": ("",),
}
_CLASS_WEIGHTS = {
    "NOUN": 30, "VERB": 20, "ADJ": 12, "ADV": 5, "ADP": 10, "CCONJ": 4,
    "DET": 7, "PRON": 5, "AUX": 4, "PART": 2, "NUM": 1,
}
ERROR_KINDS = ("strip", "case", "swap", "delete", "insert", "replace")


class _Vocab:
    """Annotated word forms: (form, lemma, upos) triples."""

    def __init__(self, lexicon: list[tuple[str, int]], rng: random.Random):
        lemmas = [w for w, _ in lexicon[:3000]]
        self.open: dict[str, list[str]] = {"NOUN": [], "VERB": [], "ADJ": [], "ADV": []}
        for lemma in lemmas:
            upos = rng.choices(("NOUN", "VERB", "ADJ", "ADV"), weights=(5, 3, 2, 1))[0]
            self.open[upos].append(lemma)
        self.samplers = {upos: ZipfSampler(ls) for upos, ls in self.open.items()}
        self.classes = list(_CLASS_WEIGHTS)
        self.class_weights = list(_CLASS_WEIGHTS.values())

    def word(self, rng: random.Random, upos: str | None = None) -> tuple[str, str, str]:
        upos = upos or rng.choices(self.classes, self.class_weights)[0]
        if upos in _CLOSED_CLASS:
            form = rng.choice(_CLOSED_CLASS[upos])
            return form, form, upos
        lemma = self.samplers[upos].draw(rng, 1)[0]
        return lemma + rng.choice(_OPEN_SUFFIXES[upos]), lemma, upos

    def other_form(self, rng: random.Random, tok: tuple[str, str, str]) -> tuple[str, str, str]:
        """Another form of the same lemma when it has one, else another word."""
        form, lemma, upos = tok
        if upos in _OPEN_SUFFIXES:
            forms = [lemma + s for s in _OPEN_SUFFIXES[upos] if lemma + s != form.lower()]
            if forms:
                return rng.choice(forms), lemma, upos
        while True:
            new = self.word(rng, upos)
            if new[0] != form:
                return new


def _correct_sentence(rng: random.Random, vocab: _Vocab, n: int) -> list[tuple[str, str, str]]:
    toks = [vocab.word(rng) for _ in range(n - 1)]
    for i in range(4, n - 1, rng.randint(6, 12)):
        toks[i] = (",", ",", "PUNCT")
    form, lemma, upos = toks[0]
    toks[0] = (form[0].upper() + form[1:], lemma, upos)
    toks.append((".", ".", "PUNCT"))
    return toks


def _plan_errors(rng: random.Random, toks, vocab: _Vocab) -> dict[int, tuple]:
    """Errors keyed by correct-sentence position; a swap at i also owns i+1."""
    n = len(toks)
    plan: dict[int, tuple] = {}
    taken: set[int] = set()
    want = n // ANNOTATE_TOKENS_PER_ERROR
    candidates = list(range(n - 1))
    rng.shuffle(candidates)
    for i in candidates:
        if len(plan) == want:
            break
        if i in taken:
            continue
        form, _, upos = toks[i]
        kinds = [k for k in ERROR_KINDS if k != "swap" or (i + 1 < n - 1 and i + 1 not in taken)]
        if upos == "PUNCT":
            kinds = [k for k in kinds if k in ("swap", "delete", "insert")]
        elif not has_diacritic(form):
            kinds = [k for k in kinds if k != "strip"]
        kind = rng.choice(kinds)
        if kind == "swap":
            if toks[i][0] == toks[i + 1][0]:
                continue
            taken.update((i, i + 1))
            plan[i] = ("swap",)
        elif kind == "insert":
            taken.add(i)
            plan[i] = ("insert", vocab.word(rng))
        elif kind == "replace":
            taken.add(i)
            plan[i] = ("replace", vocab.other_form(rng, toks[i]))
        else:
            taken.add(i)
            plan[i] = (kind,)
    return plan


def _apply_plan(toks, plan: dict[int, tuple]) -> list[tuple[str, str, str]]:
    out = []
    i = 0
    while i < len(toks):
        op = plan.get(i)
        form, lemma, upos = toks[i]
        if op is None:
            out.append(toks[i])
        elif op[0] == "strip":
            out.append((form.translate(_STRIP), lemma, upos))
        elif op[0] == "case":
            flipped = form[0].lower() if form[0].isupper() else form[0].upper()
            out.append((flipped + form[1:], lemma, upos))
        elif op[0] == "swap":
            out.extend((toks[i + 1], toks[i]))
            i += 1
        elif op[0] == "delete":
            pass
        elif op[0] == "insert":
            out.extend((op[1], toks[i]))
        else:
            out.append(op[1])
        i += 1
    return out


def make_annotate_shard(seed: int, shard: int, lexicon: list[tuple[str, int]]):
    """Annotated (erroneous, correct, hypothesis) token triples.

    The erroneous side carries every planned error; the system hypothesis
    carries a random half of them, so it is a partial correction.
    """
    rng = _rng(seed, "annotate", shard)
    vocab = _Vocab(lexicon, _rng(seed, "annotate-vocab"))
    lengths = _spread(ANNOTATE_PAIRS, ANNOTATE_MIN_LEN, ANNOTATE_MAX_LEN)
    rng.shuffle(lengths)
    triples = []
    for n in lengths:
        correct = _correct_sentence(rng, vocab, n)
        plan = _plan_errors(rng, correct, vocab)
        wrong = _apply_plan(correct, plan)
        kept = {i: op for i, op in plan.items() if rng.random() < 0.5}
        hyp = _apply_plan(correct, kept)
        triples.append((wrong, correct, hyp))
    return triples


def write_conllu(path, sentences) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for index, toks in enumerate(sentences, start=1):
            fh.write(f"# sent_id = s{index}\n")
            for tid, (form, lemma, upos) in enumerate(toks, start=1):
                fh.write(f"{tid}\t{form}\t{lemma}\t{upos}\t_\t_\t{tid - 1}\t_\t_\t_\n")
            fh.write("\n")


def write_text(path, sentences) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for toks in sentences:
            fh.write(" ".join(t[0] for t in toks) + "\n")


# ------------------------------------------------------------------ lm-zipf

LM_TRAIN_LINES = 1200
LM_HELDOUT_LINES = 300
LM_GROUPS = 40
LM_NBEST = 8
LM_MIN_LEN = 5
LM_MAX_LEN = 25
# Share of held-out words replaced by words the model never saw.
LM_NOVEL_SHARE = 0.02


def _zipf_lines(rng: random.Random, sampler: ZipfSampler, n: int) -> list[list[str]]:
    lengths = _spread(n, LM_MIN_LEN, LM_MAX_LEN)
    rng.shuffle(lengths)
    return [sampler.draw(rng, k) + ["."] for k in lengths]


def make_lm_shard(seed: int, shard: int, lexicon: list[tuple[str, int]]):
    """(training lines, held-out lines, n-best groups) as token lists.

    Each n-best group is a list of (tokens, decoder score); its members
    are distinct perturbations of one Zipf sentence.
    """
    rng = _rng(seed, "lm", shard)
    words = [w for w, _ in lexicon]
    sampler = ZipfSampler(words[: LEXICON_WORDS // 2])
    train = _zipf_lines(rng, sampler, LM_TRAIN_LINES)
    heldout = _zipf_lines(rng, sampler, LM_HELDOUT_LINES)
    novel = words[LEXICON_WORDS // 2 :]
    for toks in heldout:
        for i in range(len(toks) - 1):
            if rng.random() < LM_NOVEL_SHARE:
                toks[i] = rng.choice(novel)
    groups = []
    for base in _zipf_lines(rng, sampler, LM_GROUPS):
        seen: set[str] = set()
        group = []
        while len(group) < LM_NBEST:
            toks = list(base)
            for _ in range(rng.randint(0, 3)):
                i = rng.randrange(len(toks) - 1)
                if rng.random() < 0.5 and i + 2 < len(toks):
                    toks[i], toks[i + 1] = toks[i + 1], toks[i]
                else:
                    toks[i] = sampler.draw(rng, 1)[0]
            key = " ".join(toks)
            if key not in seen:
                seen.add(key)
                group.append((toks, round(-rng.uniform(1.0, 30.0), 4)))
        groups.append(group)
    return train, heldout, groups


def write_lines(path, token_lists) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for toks in token_lists:
            fh.write(" ".join(toks) + "\n")


def write_nbest(path, groups) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for group in groups:
            for toks, score in group:
                fh.write(f"{' '.join(toks)}\t{score}\n")
            fh.write("\n")
