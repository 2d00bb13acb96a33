"""Self-contained synthetic data: corpus, references and toy lexicon.

Generates pseudo-word sentences with a Zipf-ish unigram distribution,
a lexicon in which many source words have a lower-probability variant
translation (the raw material for flicker), and references built from
each word's primary translation. Everything derives from one seed, so
regenerated files are byte-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

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


def _pseudo_word(rng: np.random.Generator, taken: set[str]) -> str:
    while True:
        syllables = 2 + int(rng.random() < 0.35)
        word = "".join(
            _CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
            + _VOWELS[int(rng.integers(len(_VOWELS)))]
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
    # imported here: the rest of the package runs without numpy
    import numpy as np

    if vocab < 1 or sentences < 1:
        raise ValueError("vocab and sentences must be >= 1")
    if 3 * vocab > _WORDS:  # a source word, its translation and maybe a variant
        raise ValueError(f"vocab must be <= {_WORDS // 3}, got {vocab}")
    if not 2 <= min_len <= max_len:
        raise ValueError("need 2 <= min_len <= max_len")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    taken: set[str] = {"."}
    source_words = [_pseudo_word(rng, taken) for _ in range(vocab)]

    lexicon: dict[str, list[tuple[str, float]]] = {}
    primary: dict[str, str] = {}
    for word in source_words:
        target = _pseudo_word(rng, taken)
        primary[word] = target
        if rng.random() < _VARIANT_FRACTION:
            variant = _pseudo_word(rng, taken)
            p = _PRIMARY_PROBS[int(rng.integers(len(_PRIMARY_PROBS)))]
            lexicon[word] = [(target, p), (variant, round(1.0 - p, 6))]
        else:
            lexicon[word] = [(target, 1.0)]
    lexicon["."] = [(".", 1.0)]
    primary["."] = "."

    weights = 1.0 / np.arange(1, vocab + 1) ** _ZIPF_EXPONENT
    weights /= weights.sum()

    src_lines = []
    ref_lines = []
    for _ in range(sentences):
        total = int(rng.integers(min_len, max_len + 1))
        picks = rng.choice(vocab, size=total - 1, p=weights)
        tokens = [source_words[i] for i in picks] + ["."]
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    src_path = out / "synthetic.src"
    ref_path = out / "synthetic.ref"
    lex_path = out / "synthetic.lexicon"
    src_path.write_text("\n".join(src_lines) + "\n", encoding="utf-8")
    ref_path.write_text("\n".join(ref_lines) + "\n", encoding="utf-8")
    with open(lex_path, "w", encoding="utf-8") as fh:
        fh.write("# src ||| tgt ||| prob\n")
        for src_word, entries in lexicon.items():
            for tgt, prob in entries:
                fh.write(f"{src_word} ||| {tgt} ||| {prob:.6f}\n")
    return {
        "source": str(src_path),
        "reference": str(ref_path),
        "lexicon": str(lex_path),
    }


def toy_translator_spec(lexicon_path: str | Path, instability: float = 0.5) -> dict:
    """Translator config dict for the pinned toy decoder on this corpus."""
    return {
        "kind": "toy",
        "lexicon_path": str(lexicon_path),
        "instability": instability,
        **TOY_PARAMS,
    }
