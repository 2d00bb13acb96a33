"""Self-contained synthetic data: corpus, references and toy lexicon.

Generates pseudo-word sentences with a Zipf-ish unigram distribution,
a lexicon in which many source words have a lower-probability variant
translation (the raw material for flicker), and references built from
each word's primary translation. Everything derives from one seed, so
regenerated files are byte-identical.

The draws are those of numpy's ``Generator(PCG64(seed))``, reproduced in
pure Python by _PCG64, so the package needs no numpy and the files are
those the generator made when it drew from numpy (README, "Determinism
contract", says where they could still differ).
"""

from __future__ import annotations

from bisect import bisect_right
from pathlib import Path

from .core import write_lines

SENTENCES = 200
VOCAB = 50
MIN_LEN = 3
MAX_LEN = 20
SEED = 42

# toy decoder settings paired with the pinned corpus; instability is the
# experiment knob and is passed separately
TOY_PARAMS = {
    "beam_size": 2,
    "distortion": 0.45,
    "eos_prob_final": 0.9,
    "eos_prob_nonfinal": 0.2,
    "max_len_ratio": 1.0,
    "seed": 42,
}

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
# the distinct words _pseudo_word can make: two or three syllables
_WORDS = (len(_CONSONANTS) * len(_VOWELS)) ** 2 * (1 + len(_CONSONANTS) * len(_VOWELS))

# primary-translation weights: low values flip under moderate noise,
# high values only under strong noise
_VARIANT_FRACTION = 0.5
_PRIMARY_PROBS = (0.65, 0.68, 0.7, 0.75, 0.8, 0.85)
_ZIPF_EXPONENT = 0.8

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(4, np.uint64)."""
    words = [seed & _MASK32]  # the seed in 32-bit words, least significant first
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class _PCG64:
    """The draws of numpy's Generator(PCG64(seed)) that generate makes.

    The 128-bit LCG with XSL-RR output (O'Neill, "PCG", 2014), seeded
    through numpy's SeedSequence; bounded integers by Lemire's method
    (ACM TOMACS 2019), on 32-bit draws that use both halves of a 64-bit
    output.
    """

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = _seed_sequence(seed)
        self.inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        self.state = 0  # PCG's srandom: step, add the seed, step
        self._next64()
        self.state = (self.state + (s_hi << 64 | s_lo)) & _MASK128
        self._next64()
        self._half: int | None = None  # the unused upper half of a 64-bit output

    def _next64(self) -> int:
        self.state = state = (self.state * _PCG_MULT + self.inc) & _MASK128
        rot = state >> 122
        word = (state >> 64 ^ state) & _MASK64
        return (word >> rot | word << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """A float in [0, 1) with 53 random bits."""
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high), for high - low <= 2**32.

        A range of one draws nothing. A range of 2**32 returns one raw
        32-bit draw, as numpy's special case for it does: its threshold
        is 0.
        """
        rng = high - 1 - low
        if rng == 0:
            return low
        excl = rng + 1
        m = self._next32() * excl
        if m & _MASK32 < excl:
            threshold = (_MASK32 - rng) % excl
            while m & _MASK32 < threshold:
                m = self._next32() * excl
        return low + (m >> 32)


def _pseudo_word(rng: _PCG64, taken: set[str]) -> str:
    while True:
        syllables = 2 + int(rng.random() < 0.35)
        word = "".join(
            _CONSONANTS[rng.integers(0, len(_CONSONANTS))]
            + _VOWELS[rng.integers(0, len(_VOWELS))]
            for _ in range(syllables)
        )
        if word not in taken:
            taken.add(word)
            return word


def generate(
    sentences: int = SENTENCES,
    vocab: int = VOCAB,
    min_len: int = MIN_LEN,
    max_len: int = MAX_LEN,
    seed: int = SEED,
) -> tuple[list[str], list[str], dict[str, list[tuple[str, float]]]]:
    """Build (source lines, reference lines, lexicon) deterministically."""
    if vocab < 1 or sentences < 1:
        raise ValueError("vocab and sentences must be >= 1")
    if 3 * vocab > _WORDS:  # a source word, its translation and maybe a variant
        raise ValueError(f"vocab must be <= {_WORDS // 3}, got {vocab}")
    if not 2 <= min_len <= max_len:
        raise ValueError("need 2 <= min_len <= max_len")
    if max_len - min_len >= 1 << 32:  # a length is one 32-bit draw
        raise ValueError(f"need max_len - min_len < 2**32, got {max_len - min_len}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = _PCG64(seed)
    taken: set[str] = {"."}
    source_words = [_pseudo_word(rng, taken) for _ in range(vocab)]

    lexicon: dict[str, list[tuple[str, float]]] = {}
    primary: dict[str, str] = {}
    for word in source_words:
        target = _pseudo_word(rng, taken)
        primary[word] = target
        if rng.random() < _VARIANT_FRACTION:
            variant = _pseudo_word(rng, taken)
            p = _PRIMARY_PROBS[rng.integers(0, len(_PRIMARY_PROBS))]
            lexicon[word] = [(target, p), (variant, round(1.0 - p, 6))]
        else:
            lexicon[word] = [(target, 1.0)]
    lexicon["."] = [(".", 1.0)]
    primary["."] = "."

    # numpy's choice(vocab, p=weights): normalized weights summed left to
    # right (explicit loops: sum() of floats is compensated from 3.12 on),
    # divided by the last sum, searched with one random() per draw
    weights = [1.0 / rank**_ZIPF_EXPONENT for rank in range(1, vocab + 1)]
    norm = 0.0
    for w in weights:
        norm += w
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / norm
        cdf.append(acc)
    cdf = [c / acc for c in cdf]

    src_lines = []
    ref_lines = []
    for _ in range(sentences):
        total = rng.integers(min_len, max_len + 1)
        tokens = [source_words[bisect_right(cdf, rng.random())] for _ in range(total - 1)]
        tokens.append(".")
        src_lines.append(" ".join(tokens))
        ref_lines.append(" ".join(primary[t] for t in tokens))
    return src_lines, ref_lines, lexicon


def write_synthetic(
    out_dir: str | Path,
    sentences: int = SENTENCES,
    vocab: int = VOCAB,
    min_len: int = MIN_LEN,
    max_len: int = MAX_LEN,
    seed: int = SEED,
) -> dict[str, str]:
    """Write synthetic.src / synthetic.ref / synthetic.lexicon; return paths."""
    src_lines, ref_lines, lexicon = generate(sentences, vocab, min_len, max_len, seed)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    paths = synthetic_paths(out_dir)
    write_lines(paths["source"], src_lines)
    write_lines(paths["reference"], ref_lines)
    write_lines(paths["lexicon"], ["# src ||| tgt ||| prob"] + [
        f"{src_word} ||| {tgt} ||| {prob:.6f}"
        for src_word, entries in lexicon.items() for tgt, prob in entries
    ])
    return paths


def synthetic_paths(out_dir: str | Path) -> dict[str, str]:
    """The source, reference and lexicon paths that write_synthetic writes."""
    out = Path(out_dir)
    return {
        "source": str(out / "synthetic.src"),
        "reference": str(out / "synthetic.ref"),
        "lexicon": str(out / "synthetic.lexicon"),
    }


def toy_translator_spec(lexicon_path: str | Path, instability: float = 0.5) -> dict:
    """Translator config dict for the pinned toy decoder on this corpus."""
    return {
        "kind": "toy",
        "lexicon_path": str(lexicon_path),
        "instability": instability,
        **TOY_PARAMS,
    }
