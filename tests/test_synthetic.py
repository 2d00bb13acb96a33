"""The pure-Python corpus generator against numpy, which it reproduces.

synthetic._PCG64 reproduces the draws of numpy's Generator(PCG64(seed))
that synthetic.generate makes. These tests compare the bit generator's
state and every draw kind with numpy's, and generate with a numpy
reference: the generator as it was written on numpy, kept here. They
skip where numpy is not installed; the golden trace digests
(tests/test_golden_digest.py) then still pin the default corpus.
"""

from __future__ import annotations

import pytest

from retransim import synthetic

# seeds of one, two and three 32-bit words
SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**40 + 3, 2**70 + 5]


def _numpy_generate(sentences, vocab, min_len, max_len, seed):
    """synthetic.generate as written on numpy, without its argument checks."""
    np = pytest.importorskip("numpy")

    def pseudo_word(rng, taken):
        while True:
            syllables = 2 + int(rng.random() < 0.35)
            word = "".join(
                synthetic._CONSONANTS[int(rng.integers(len(synthetic._CONSONANTS)))]
                + synthetic._VOWELS[int(rng.integers(len(synthetic._VOWELS)))]
                for _ in range(syllables)
            )
            if word not in taken:
                taken.add(word)
                return word

    rng = np.random.Generator(np.random.PCG64(seed))
    taken = {"."}
    source_words = [pseudo_word(rng, taken) for _ in range(vocab)]
    lexicon = {}
    primary = {}
    for word in source_words:
        target = pseudo_word(rng, taken)
        primary[word] = target
        if rng.random() < synthetic._VARIANT_FRACTION:
            variant = pseudo_word(rng, taken)
            p = synthetic._PRIMARY_PROBS[int(rng.integers(len(synthetic._PRIMARY_PROBS)))]
            lexicon[word] = [(target, p), (variant, round(1.0 - p, 6))]
        else:
            lexicon[word] = [(target, 1.0)]
    lexicon["."] = [(".", 1.0)]
    primary["."] = "."

    weights = 1.0 / np.arange(1, vocab + 1) ** synthetic._ZIPF_EXPONENT
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


@pytest.mark.parametrize("seed", SEEDS)
def test_bit_generator_matches_numpys_pcg64(seed):
    np = pytest.importorskip("numpy")
    ours = synthetic._PCG64(seed)
    theirs = np.random.PCG64(seed)
    assert (ours.state, ours.inc) == tuple(theirs.state["state"].values())
    rng = np.random.Generator(theirs)
    # every draw kind 1,000 times, interleaved so that 32-bit draws leave
    # their buffered half across 64-bit ones
    draws = [
        (lambda: rng.random(), lambda: ours.random()),
        (lambda: rng.integers(14), lambda: ours.integers(0, 14)),
        (lambda: rng.integers(3, 21), lambda: ours.integers(3, 21)),
        (lambda: rng.integers(7, 8), lambda: ours.integers(7, 8)),  # a range of 0
        (lambda: rng.integers(0, 2**32), lambda: ours.integers(0, 2**32)),  # a raw 32-bit draw
        (lambda: rng.integers(5, 5 + 2**31 + 1), lambda: ours.integers(5, 5 + 2**31 + 1)),
    ]
    for i in range(1000 * len(draws)):
        expected, seen = (draw() for draw in draws[i % len(draws)])
        assert seen == expected, (seed, i)
    state = theirs.state
    assert (ours.state, ours.inc) == tuple(state["state"].values())
    assert state["has_uint32"] == (ours._half is not None)
    if ours._half is not None:
        assert state["uinteger"] == ours._half


@pytest.mark.parametrize("seed", [0, 42, 2**32, 2**70 + 5, 7919])
def test_generate_matches_the_numpy_reference(seed):
    for vocab in (1, 8, 9, 128, 129, 1000):
        for min_len, max_len in ((2, 2), (5, 60)):
            args = (150, vocab, min_len, max_len, seed)
            assert synthetic.generate(*args) == _numpy_generate(*args), args


def test_the_pinned_corpus_matches_the_numpy_reference():
    assert synthetic.generate() == _numpy_generate(
        synthetic.SENTENCES, synthetic.VOCAB, synthetic.MIN_LEN, synthetic.MAX_LEN,
        synthetic.SEED,
    )


def test_a_length_range_past_32_bits_is_refused_before_any_draw(monkeypatch):
    monkeypatch.setattr(synthetic, "_PCG64", None)
    with pytest.raises(ValueError, match=r"need max_len - min_len < 2\*\*32, got 4294967296"):
        synthetic.generate(sentences=1, vocab=1, min_len=2, max_len=2 + 2**32)
