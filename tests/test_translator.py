from __future__ import annotations

import copy
import dataclasses
import logging
import math
import os
import random
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retransim import synthetic, translator
from retransim.core import TokenSeq
from retransim.translator import (
    EOS,
    UNK,
    BiasSpec,
    CachingTranslator,
    DuplicatePrefix,
    NonNormalizedLexicon,
    ParseError,
    ScriptMiss,
    ScriptedTranslator,
    ToyLexicalTranslator,
    ToyModelConfig,
    UnknownSourceToken,
    _MASK64,
    _MAX_INSTABILITY,
    _noise,
    _prefix_state,
    _token_state,
    load_lexicon,
    load_script,
    mix64,
)
from conftest import ONE_TO_ONE_LEXICON, seq


# ---------------------------------------------------------------------------
# Scripted translator
# ---------------------------------------------------------------------------

REORDER_SCRIPT = "Several\tMehrere Male\nSeveral years ago\tVor einigen Jahre\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_script_lookup(tmp_path):
    tr = load_script(_write(tmp_path, "s.tsv", REORDER_SCRIPT))
    assert tr.translate(("Several",)).tokens == ("Mehrere", "Male")
    assert tr.translate(seq("Several years ago")).tokens == ("Vor", "einigen", "Jahre")
    assert tr.translate(("Several",)).score == 0.0


def test_load_script_skips_blank_lines(tmp_path):
    plain = load_script(_write(tmp_path, "plain.tsv", REORDER_SCRIPT))
    spaced_text = "\n" + REORDER_SCRIPT.replace("\n", "\n\n")
    spaced = load_script(_write(tmp_path, "spaced.tsv", spaced_text))
    assert spaced.script == plain.script
    assert len(spaced.script) == 2


def test_script_miss_and_fallback(tmp_path):
    path = _write(tmp_path, "empty.tsv", "")
    tr = load_script(path)
    assert tr.script == {}
    with pytest.raises(ScriptMiss):
        tr.translate(("anything",))
    tr2 = load_script(path, identity_fallback=True)
    assert tr2.translate(seq("a b")).tokens == ("a", "b")


def test_script_duplicate_prefix(tmp_path):
    path = _write(tmp_path, "dup.tsv", "a\tx\na\ty\n")
    with pytest.raises(DuplicatePrefix) as err:
        load_script(path)
    assert ":2:" in str(err.value)


def test_script_parse_error_has_line_number(tmp_path):
    path = _write(tmp_path, "bad.tsv", "a\tx\nno tab here\n")
    with pytest.raises(ParseError) as err:
        load_script(path)
    assert ":2:" in str(err.value)


def test_scripted_translator_rejects_empty_source(tmp_path):
    tr = load_script(_write(tmp_path, "s.tsv", "a\tx\n"))
    with pytest.raises(ValueError):
        tr.translate(())


# ---------------------------------------------------------------------------
# Lexicon loading
# ---------------------------------------------------------------------------


def test_load_lexicon_two_entries(tmp_path):
    path = _write(tmp_path, "l.txt", "# comment\na ||| x ||| 0.7\na ||| y ||| 0.3\n")
    cfg = load_lexicon(path)
    assert cfg.lexicon["a"] == (("x", 0.7), ("y", 0.3))
    assert abs(sum(p for _, p in cfg.lexicon["a"]) - 1.0) < 1e-9


def test_load_lexicon_not_normalized(tmp_path):
    path = _write(tmp_path, "l.txt", "a ||| x ||| 0.7\n")
    with pytest.raises(NonNormalizedLexicon):
        load_lexicon(path)


def test_load_lexicon_parse_errors(tmp_path):
    with pytest.raises(ParseError) as err:
        load_lexicon(_write(tmp_path, "l1.txt", "a ||| x\n"))
    assert ":1:" in str(err.value)
    with pytest.raises(ParseError):
        load_lexicon(_write(tmp_path, "l2.txt", "a ||| x ||| not-a-number\n"))


def test_toy_config_validation():
    lex = {"a": (("x", 1.0),)}
    with pytest.raises(ValueError):
        ToyModelConfig(lexicon=lex, beam_size=0)
    with pytest.raises(ValueError):
        ToyModelConfig(lexicon=lex, distortion=0.0)
    with pytest.raises(ValueError):
        ToyModelConfig(lexicon=lex, instability=-1.0)
    with pytest.raises(ValueError):
        ToyModelConfig(lexicon=lex, eos_prob_final=1.0)
    with pytest.raises(NonNormalizedLexicon):
        ToyModelConfig(lexicon={"a": (("x", 0.5),)})


@pytest.mark.parametrize(
    "build, problem",
    [
        (lambda: ToyModelConfig(lexicon={"a": ()}), "source token 'a' has no entries"),
        # past log(DBL_MAX), exp(instability * u) overflows for u near 1
        (lambda: ToyModelConfig(lexicon={}, instability=1000.0), "instability must be in [0, 709."),
        (lambda: ToyModelConfig(lexicon={}, instability=math.nan), "instability must be in"),
        (lambda: BiasSpec(("x",), 1.5), "beta must be in [0, 1], got 1.5"),
    ],
    ids=["no-entries", "instability-past-exp-range", "instability-nan", "beta-above-one"],
)
def test_out_of_range_decoder_value_is_refused(build, problem):
    with pytest.raises(ValueError) as err:
        build()
    assert problem in str(err.value)


# ---------------------------------------------------------------------------
# One decode step
# ---------------------------------------------------------------------------


def step_candidates(
    tr: ToyLexicalTranslator,
    source: TokenSeq,
    coverage: int,
    target_len: int,
    final: bool = False,
) -> list[tuple[str, float, int | None]]:
    """(token, probability, source position) of every candidate of one decode step.

    Normalizes the decoder's raw step weights as the Python beam search
    does; coverage is the bitmask of consumed source positions and EOS
    consumes none.
    """
    cfg = tr.config
    entries = [tr._entries[tok] for tok in source]
    noise = translator._NoiseTable(cfg, source, tr._token_states) if cfg.instability > 0 else None
    eos_weight = translator._eos_weight(cfg, source, final)
    highest = coverage.bit_length() - 1
    weights = translator._raw_step_weights(
        cfg, entries, coverage, highest, target_len, eos_weight, noise
    )
    total = 0.0
    for w, _, _ in weights:
        total += w
    return [(tok, w / total, pos) for w, tok, pos in weights]


def test_step_distribution_single_uncovered_with_eos():
    # position 0 covered, position 1 open; length gate open via full-ish state
    lex = {"a": (("x", 1.0),), "b": (("y", 1.0),)}
    cfg = ToyModelConfig(lexicon=lex, distortion=0.5, instability=0.0, max_len_ratio=0.5)
    tr = ToyLexicalTranslator(cfg)
    cands = step_candidates(tr, ("a", "b"), 0b01, 1)
    by_token = {tok: (p, pos) for tok, p, pos in cands}
    assert set(by_token) == {"y", EOS}
    # weights proportional to {1 * 0.5^0, eos_prob_nonfinal}
    expected_total = 1.0 + cfg.eos_prob_nonfinal
    assert by_token["y"][0] == pytest.approx(1.0 / expected_total)
    assert by_token[EOS][0] == pytest.approx(cfg.eos_prob_nonfinal / expected_total)
    assert by_token["y"][1] == 1
    assert by_token[EOS][1] is None


def test_step_distribution_normalizes_with_noise():
    lex = {"a": (("x", 0.5), ("y", 0.5)), "b": (("z", 1.0),)}
    plain = ToyModelConfig(lexicon=lex, instability=0.0)
    noisy = ToyModelConfig(lexicon=lex, instability=1.5)
    for cfg in (plain, noisy):
        cands = step_candidates(ToyLexicalTranslator(cfg), ("a", "b"), 0, 0)
        assert sum(p for _, p, _ in cands) == pytest.approx(1.0, abs=1e-12)
    support = lambda cfg: {
        (tok, pos) for tok, _, pos in step_candidates(ToyLexicalTranslator(cfg), ("a", "b"), 0, 0)
    }
    assert support(plain) == support(noisy)


def test_eos_weight_uses_final_punctuation():
    lex = {"a": (("x", 1.0),), ".": ((".", 1.0),)}
    cfg = ToyModelConfig(lexicon=lex, max_len_ratio=0.5)
    tr = ToyLexicalTranslator(cfg)
    eos_prob = lambda source, final=False: {
        tok: p for tok, p, _ in step_candidates(tr, source, 0b01, 1, final)
    }[EOS]
    assert eos_prob(("a", "a")) < eos_prob(("a", "."))
    assert eos_prob(("a", ".")) == eos_prob(("a", "a"), True)


def test_unknown_source_token():
    tr = ToyLexicalTranslator(ToyModelConfig(lexicon={"a": (("x", 1.0),)}))
    with pytest.raises(UnknownSourceToken):
        tr.translate(("nope",))
    # the reserved unknown token maps to itself with probability 1
    assert tr.translate(("a", UNK)).tokens == ("x", UNK)


# ---------------------------------------------------------------------------
# Brute-force enumeration oracle for beam search
# ---------------------------------------------------------------------------


def enumerate_best(
    tr: ToyLexicalTranslator,
    source: TokenSeq,
    source_is_final: bool = False,
    bias: BiasSpec | None = None,
) -> tuple[TokenSeq, float]:
    """Exhaustive search over complete hypotheses; first-found wins ties."""
    prev = bias.previous_output if bias else ()
    beta = bias.beta if bias else 0.0
    best: list = [None]

    def rec(tokens: TokenSeq, coverage: int, score: float, diverged: bool) -> None:
        m = len(tokens)
        for tok, p, pos in step_candidates(tr, source, coverage, m, source_is_final):
            child_diverged = diverged
            if beta > 0.0 and prev and not diverged and m < len(prev):
                if tok == prev[m]:
                    p = (1.0 - beta) * p + beta
                else:
                    p = (1.0 - beta) * p
                    child_diverged = True
            s = score + math.log(max(p, 1e-300))
            if tok == EOS:
                if best[0] is None or s > best[0][1]:
                    best[0] = (tokens, s)
            else:
                rec(tokens + (tok,), coverage | (1 << pos), s, child_diverged)

    rec((), 0, 0.0, False)
    assert best[0] is not None
    return best[0]


def test_single_entry_lexicon_translates_to_target():
    tr = ToyLexicalTranslator(ToyModelConfig(lexicon={"a": (("x", 1.0),)}))
    got = tr.translate(("a",), source_is_final=True)
    want_tokens, want_score = enumerate_best(tr, ("a",), source_is_final=True)
    assert got.tokens == ("x",) == want_tokens
    assert got.score == pytest.approx(want_score)


def _random_model(rng: random.Random, beam_size: int = 64) -> ToyLexicalTranslator:
    sources = ["a", "b", "c"]
    targets = ["t1", "t2", "t3", "t4", "t5"]
    lexicon = {}
    for s in sources:
        n_entries = rng.choice([1, 2])
        picks = rng.sample(targets, n_entries)
        if n_entries == 1:
            lexicon[s] = ((picks[0], 1.0),)
        else:
            p = rng.choice([0.3, 0.5, 0.8])
            lexicon[s] = ((picks[0], p), (picks[1], round(1.0 - p, 6)))
    return ToyLexicalTranslator(
        ToyModelConfig(
            lexicon=lexicon,
            beam_size=beam_size,
            distortion=rng.choice([0.4, 0.7, 1.0]),
            instability=rng.choice([0.0, 0.5, 1.2]),
            max_len_ratio=rng.choice([0.5, 1.0]),
            seed=rng.randrange(1000),
        )
    )


def test_beam_matches_exhaustive_search_when_wide():
    rng = random.Random(5)
    for trial in range(40):
        tr = _random_model(rng)
        n = rng.choice([1, 2, 3])
        source = tuple(rng.choice(["a", "b", "c"]) for _ in range(n))
        final = rng.random() < 0.5
        got = tr.translate(source, source_is_final=final)
        want_tokens, want_score = enumerate_best(tr, source, source_is_final=final)
        assert got.tokens == want_tokens, f"trial {trial}: {source}"
        assert got.score == pytest.approx(want_score, abs=1e-12)


def test_beam_matches_exhaustive_search_with_bias():
    rng = random.Random(6)
    for trial in range(40):
        tr = _random_model(rng)
        source = tuple(rng.choice(["a", "b", "c"]) for _ in range(rng.choice([2, 3])))
        prev = tr.translate(source[:-1]).tokens
        bias = BiasSpec(prev, rng.choice([0.25, 0.5, 0.9, 1.0]))
        got = tr.translate(source, bias=bias)
        want_tokens, _ = enumerate_best(tr, source, bias=bias)
        assert got.tokens == want_tokens, f"trial {trial}: {source} bias={bias}"


# ---------------------------------------------------------------------------
# Decoding properties
# ---------------------------------------------------------------------------


def test_beta_zero_equals_unbiased():
    rng = random.Random(9)
    for _ in range(30):
        tr = _random_model(rng, beam_size=4)
        source = tuple(rng.choice(["a", "b", "c"]) for _ in range(rng.choice([1, 2, 3])))
        prev = tr.translate(source).tokens
        plain = tr.translate(source)
        biased = tr.translate(source, bias=BiasSpec(prev, 0.0))
        assert plain.tokens == biased.tokens
        assert plain.score == biased.score


def test_beta_one_follows_previous_first_token():
    rng = random.Random(10)
    checked = 0
    for _ in range(60):
        tr = _random_model(rng, beam_size=rng.choice([1, 4]))
        source = tuple(rng.choice(["a", "b", "c"]) for _ in range(rng.choice([2, 3])))
        prev = tr.translate(source[:-1]).tokens
        if not prev:
            continue
        step1 = {tok for tok, _, _ in step_candidates(tr, source, 0, 0)}
        if prev[0] not in step1:
            continue
        out = tr.translate(source, bias=BiasSpec(prev, 1.0)).tokens
        assert out[0] == prev[0]
        checked += 1
    assert checked >= 20


def greedy_decode(tr: ToyLexicalTranslator, source: TokenSeq, final: bool = False) -> TokenSeq:
    """Independent stepwise-argmax reference (first candidate wins ties)."""
    tokens, coverage = (), 0
    while True:
        cands = step_candidates(tr, source, coverage, len(tokens), final)
        best = max(p for _, p, _ in cands)
        tok, _, pos = next(c for c in cands if c[1] == best)
        if tok == EOS:
            return tokens
        tokens, coverage = tokens + (tok,), coverage | (1 << pos)


def test_beam_width_one_is_greedy():
    rng = random.Random(12)
    for _ in range(40):
        tr = _random_model(rng, beam_size=1)
        source = tuple(rng.choice(["a", "b", "c"]) for _ in range(rng.choice([1, 2, 3, 4])))
        final = rng.random() < 0.5
        assert tr.translate(source, source_is_final=final).tokens == greedy_decode(
            tr, source, final
        )


def test_prefix_stable_configuration(stable_translator):
    # 1-to-1 lexicon, no noise, no distortion cost: every prefix maps
    # word-for-word and extensions only append
    words = ["a", "b", "c", "d", "e"]
    mapping = {s: t for s, (entry,) in ONE_TO_ONE_LEXICON.items() for t in [entry[0]]}
    rng = random.Random(3)
    for _ in range(30):
        source = tuple(rng.choice(words) for _ in range(rng.randrange(1, 7)))
        for i in range(1, len(source) + 1):
            got = stable_translator.translate(source[:i]).tokens
            assert got == tuple(mapping[tok] for tok in source[:i])


def test_determinism_and_caching():
    lex = {"a": (("x", 0.6), ("y", 0.4)), "b": (("z", 1.0),)}
    cfg = ToyModelConfig(lexicon=lex, instability=0.8, seed=77)
    tr = ToyLexicalTranslator(cfg)
    cached = CachingTranslator(ToyLexicalTranslator(cfg))
    rng = random.Random(0)
    for _ in range(25):
        source = tuple(rng.choice(["a", "b"]) for _ in range(rng.randrange(1, 5)))
        first = tr.translate(source)
        again = tr.translate(source)
        via_cache = cached.translate(source)
        assert first == again == via_cache


# ---------------------------------------------------------------------------
# Instability mechanism
# ---------------------------------------------------------------------------


def instability_noise(seed: int, source: TokenSeq, target_len: int, token: str) -> float:
    """The decoder's noise in [-1, 1] for one candidate at one decode step."""
    return _noise(_prefix_state(seed, source), _token_state(token), target_len)


def test_noise_range_and_determinism():
    vals = set()
    for tok in ["x", "y", "zz"]:
        for m in range(4):
            u = instability_noise(42, ("a", "b"), m, tok)
            assert -1.0 <= u <= 1.0
            assert u == instability_noise(42, ("a", "b"), m, tok)
            vals.add(u)
    assert len(vals) == 12  # all distinct in practice
    assert instability_noise(42, ("a",), 0, "x") != instability_noise(42, ("a", "b"), 0, "x")
    assert instability_noise(1, ("a",), 0, "x") != instability_noise(2, ("a",), 0, "x")


def test_extension_flips_early_argmax_pinned_seed():
    # seed found by scanning: translating "a b" vs "a b c" flips the first
    # output token, which is the flicker mechanism dynamic masking probes for
    lex = {
        "a": (("x", 0.5), ("y", 0.5)),
        "b": (("z", 1.0),),
        "c": (("w", 1.0),),
    }
    cfg = ToyModelConfig(lexicon=lex, beam_size=1, distortion=1.0, instability=1.0, seed=1)
    tr = ToyLexicalTranslator(cfg)
    short = tr.translate(("a", "b")).tokens
    longer = tr.translate(("a", "b", "c")).tokens
    assert short == ("x", "z")
    assert longer == ("w", "y", "z")
    assert short[0] != longer[0]


def test_instability_zero_ignores_unrelated_prefix_content():
    # with instability 0, scores cannot depend on tokens outside the
    # uncovered positions, so translations of [a] and the [a]-prefix of
    # [a, b] start identically
    lex = {"a": (("x", 0.6), ("y", 0.4)), "b": (("z", 1.0),)}
    cfg = ToyModelConfig(lexicon=lex, instability=0.0, distortion=0.5)
    tr = ToyLexicalTranslator(cfg)
    only_a = {tok: p for tok, p, _ in step_candidates(tr, ("a",), 0, 0)}
    with_b = {tok: p for tok, p, _ in step_candidates(tr, ("a", "b"), 0, 0)}
    assert only_a["x"] / only_a["y"] == pytest.approx(with_b["x"] / with_b["y"])


def test_mix64_deterministic():
    assert mix64(1, 2, 3) == mix64(1, 2, 3)
    assert mix64(1, 2, 3) != mix64(1, 2, 4)
    assert mix64(0) != mix64(1)


def test_decoder_noise_matches_public_contract():
    # the decoder's cached fast path must agree exactly with the documented
    # noise function
    from retransim.translator import _NoiseTable

    cfg = ToyModelConfig(lexicon={"a": (("x", 1.0),)}, instability=0.7, seed=9)
    table = _NoiseTable(cfg, ("a", "b"), {tok: _token_state(tok) for tok in ("x", "y", "zz")})
    for m in range(3):
        for tok in ("x", "y", "zz"):
            want = math.exp(0.7 * instability_noise(9, ("a", "b"), m, tok))
            assert table.factor(m, tok) == want


# ---------------------------------------------------------------------------
# Compiled beam search
# ---------------------------------------------------------------------------

# multi-character and multi-byte words too: the kernel hashes each token's bytes
SOURCE_WORDS = ("a", "b", "c", "d", "straße", "沈黙")
TARGET_WORDS = ("t1", "t2", "t3", "t4", "t5", "t6")


@st.composite
def decoding_cases(draw):
    """A random toy model, source, finality flag and bias."""
    lexicon = {}
    for word in SOURCE_WORDS:
        targets = draw(st.lists(st.sampled_from(TARGET_WORDS), min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(1, 20), min_size=len(targets), max_size=len(targets)))
        lexicon[word] = tuple((t, w / sum(weights)) for t, w in zip(targets, weights))
    cfg = ToyModelConfig(
        lexicon=lexicon,
        beam_size=draw(st.integers(1, 6)),
        # the tiny distortions let every candidate weight of a step underflow
        distortion=draw(st.sampled_from([0.3, 0.7, 1.0, 1e-100, 1e-300])),
        instability=draw(st.sampled_from([0.0, 0.4, 1.5, 700.0, _MAX_INSTABILITY])),
        eos_prob_final=draw(st.sampled_from([0.5, 0.9])),
        eos_prob_nonfinal=draw(st.sampled_from([0.1, 0.2])),
        max_len_ratio=draw(st.sampled_from([0.5, 1.0, 1.5])),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    source = tuple(
        draw(st.lists(st.sampled_from(SOURCE_WORDS + (UNK, ".")), min_size=1, max_size=12))
    )
    if "." in source:
        cfg = dataclasses.replace(cfg, lexicon={**lexicon, ".": ((".", 1.0),)})
    previous = tuple(draw(st.lists(st.sampled_from(TARGET_WORDS + (UNK, EOS)), max_size=12)))
    bias = BiasSpec(previous, draw(st.sampled_from([0.0, 0.3, 1.0])))
    return cfg, source, draw(st.booleans()), draw(st.sampled_from([None, bias]))


def _assert_kernel_matches_python(tr, source, final=False, bias=None):
    got = tr.translate(source, bias=bias, source_is_final=final)
    want = tr._python_beam_search(source, bias, final)
    assert got.tokens == want.tokens
    assert got.score.hex() == want.score.hex()


needs_kernel = pytest.mark.skipif(translator._kernel is None, reason="no C beam search")


@needs_kernel
@settings(deadline=None)  # a loaded host must not fail a correct example
@given(decoding_cases())
def test_kernel_matches_python_beam_search(case):
    cfg, source, final, bias = case
    _assert_kernel_matches_python(ToyLexicalTranslator(cfg), source, final, bias)


@settings(deadline=None)
@given(decoding_cases(), st.lists(st.sampled_from(TARGET_WORDS + (UNK, EOS)), max_size=12))
def test_bias_with_beta_zero_decodes_as_no_bias(case, previous):
    cfg, source, final, _ = case
    tr = ToyLexicalTranslator(cfg)
    zero = BiasSpec(tuple(previous), 0.0)
    # translate runs the kernel when it is loaded
    for search in (tr._python_beam_search, tr.translate):
        got, want = search(source, zero, final), search(source, None, final)
        assert got.tokens == want.tokens
        assert got.score.hex() == want.score.hex()


@needs_kernel
@pytest.mark.parametrize("instability", [700.0, _MAX_INSTABILITY])
@pytest.mark.parametrize("beam_size", [2, 8])
def test_kernel_matches_python_at_the_instability_bound(beam_size, instability):
    src_lines, _, lexicon = synthetic.generate(sentences=40)
    params = {**synthetic.TOY_PARAMS, "beam_size": beam_size, "instability": instability}
    tr = ToyLexicalTranslator(
        ToyModelConfig(lexicon={src: tuple(entries) for src, entries in lexicon.items()}, **params)
    )
    for line in src_lines:
        _assert_kernel_matches_python(tr, tuple(line.split()), final=True)


@needs_kernel
def test_kernel_matches_python_past_64_source_positions():
    lex = {
        "a": (("x", 0.6), ("y", 0.4)),
        "b": (("z", 1.0),),
        "c": (("w", 0.5), ("x", 0.3), ("v", 0.2)),
    }
    tr = ToyLexicalTranslator(
        ToyModelConfig(lexicon=lex, beam_size=3, distortion=0.8, instability=0.9, seed=5)
    )
    rng = random.Random(64)
    for n in (65, 97):
        source = tuple(rng.choice("abc") for _ in range(n))
        _assert_kernel_matches_python(tr, source, final=True)
        previous = tr.translate(source[:-1]).tokens
        _assert_kernel_matches_python(tr, source, bias=BiasSpec(previous, 0.3))


@needs_kernel
def test_kernel_takes_beams_wider_than_any_pool():
    lex = {"a": (("x", 0.6), ("y", 0.4)), "b": (("z", 1.0),)}
    tr = ToyLexicalTranslator(ToyModelConfig(lexicon=lex, beam_size=10**12, instability=0.5))
    for source in (("a",), ("a", "b"), ("b", "a", "b", "a")):
        _assert_kernel_matches_python(tr, source, final=True)


@needs_kernel
def test_kernel_unit_interval_is_correctly_rounded():
    unit = translator._kernel.rt_unit_interval
    edges = [0, 1, 2, 2**53 - 1, 2**53, 2**53 + 1, 2**54 - 1, 2**54, 2**54 + 1, 2**64 - 1]
    # halfway between two doubles, in the three rounding regimes
    ties = [2**53 + 1, 2**53 + 3, 2**54 + 2, 2**54 + 6, 2**63 + 2**10, 2**64 - 2**10]
    rng = random.Random(2**64)
    randoms = [rng.getrandbits(64) >> rng.randrange(64) for _ in range(10**5)]
    for h in edges + ties + [t + d for t in ties for d in (-1, 1)] + randoms:
        assert unit(h) == h / _MASK64, h


def test_kernel_loads_when_a_compiler_is_present():
    # a silent fallback to the Python beam search must not pass unnoticed
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert translator._kernel is not None


def test_kernel_out_of_memory_is_a_memory_error(monkeypatch):
    class OutOfMemory:  # a kernel whose every allocation fails
        def rt_beam_search_many(self, n_requests, *args):
            lengths = args[-2]
            for r in range(n_requests):
                lengths[r] = translator._KERNEL_NO_MEMORY

    monkeypatch.setattr(translator, "_kernel", OutOfMemory())
    tr = ToyLexicalTranslator(ToyModelConfig(lexicon={"a": (("x", 1.0),)}))
    got = tr.translate_many([(("a",), None, True), (("a", "a"), None, False)])
    assert [_status(r) for r in got] == [(MemoryError, "beam search kernel: out of memory")] * 2
    with pytest.raises(MemoryError):
        tr.translate(("a",))


def test_python_beam_search_is_the_fallback(monkeypatch):
    lex = {"a": (("x", 0.6), ("y", 0.4)), "b": (("z", 1.0),)}
    tr = ToyLexicalTranslator(ToyModelConfig(lexicon=lex, instability=0.8, seed=3))
    monkeypatch.setattr(translator, "_kernel", None)
    for source in (("a",), ("a", "b"), ("b", "a", "b")):
        assert tr.translate(source) == tr._python_beam_search(source, None, False)


def test_kernel_falls_back_with_a_warning_without_compiler(tmp_path, monkeypatch, caplog):
    source = tmp_path / "_beam.c"
    shutil.copyfile(translator._KERNEL_SOURCE, source)
    monkeypatch.setattr(translator, "_KERNEL_SOURCE", source)
    monkeypatch.setenv("PATH", str(tmp_path))
    with caplog.at_level(logging.WARNING, logger="retransim.translator"):
        assert translator._load_kernel() is None
    assert len(caplog.records) == 1
    assert "using the Python beam search" in caplog.text


@pytest.mark.skipif(os.name != "posix", reason="the failing compiler is a shell script")
def test_kernel_build_failure_names_the_exit_code_and_stderr(tmp_path, monkeypatch, caplog):
    cc = tmp_path / "cc"
    cc.write_text("#!/bin/sh\necho 'cc: error: bad flag' >&2\nexit 1\n", encoding="utf-8")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}")
    # a new cache key, so no cached build answers
    monkeypatch.setattr(translator, "_KERNEL_FLAGS", translator._KERNEL_FLAGS + ("-g",))
    cache = translator._KERNEL_SOURCE.parent / "__pycache__"
    before = sorted(cache.glob("_beam.*"))
    with pytest.raises(OSError, match=f"^{re.escape(str(cc))} exited 1: cc: error: bad flag$"):
        translator._build_kernel()
    with caplog.at_level(logging.WARNING, logger="retransim.translator"):
        assert translator._load_kernel() is None
    assert len(caplog.records) == 1
    assert "cc: error: bad flag" in caplog.text
    assert sorted(cache.glob("_beam.*")) == before  # no temporary left, no build removed


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_build_is_cached_by_source_and_flags(tmp_path, monkeypatch):
    source = tmp_path / "_beam.c"
    shutil.copyfile(translator._KERNEL_SOURCE, source)
    monkeypatch.setattr(translator, "_KERNEL_SOURCE", source)
    lib = translator._build_kernel()
    assert lib.parent == tmp_path / "__pycache__"
    assert [p.name for p in lib.parent.iterdir()] == [lib.name]  # no temporary left
    monkeypatch.setenv("PATH", str(tmp_path))  # a cached build needs no compiler
    assert translator._build_kernel() == lib
    monkeypatch.setattr(translator, "_KERNEL_FLAGS", translator._KERNEL_FLAGS + ("-g",))
    with pytest.raises(OSError, match="no C compiler"):
        translator._build_kernel()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_build_removes_stale_libraries(tmp_path, monkeypatch):
    source = tmp_path / "_beam.c"
    shutil.copyfile(translator._KERNEL_SOURCE, source)
    monkeypatch.setattr(translator, "_KERNEL_SOURCE", source)
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    stale = cache / "_beam.0000000000000000.so"  # an earlier source's build
    stale.write_bytes(b"")
    (cache / "core.cpython-311.pyc").write_bytes(b"")
    lib = translator._build_kernel()
    assert not stale.exists()
    assert sorted(p.name for p in cache.iterdir()) == sorted([lib.name, "core.cpython-311.pyc"])
    assert translator._build_kernel() == lib  # the fresh library stays cached


# ---------------------------------------------------------------------------
# Batched translation
# ---------------------------------------------------------------------------


def _status(result):
    """A result compared by value: an error by its type and message."""
    return (type(result), str(result)) if isinstance(result, Exception) else result


def _translated(call):
    try:
        return call()
    except Exception as exc:
        return exc


@st.composite
def request_batches(draw):
    """A random toy model and requests whose sources may hold a word the
    lexicon lacks ('q') or be empty, with and without a bias."""
    cfg, *_ = draw(decoding_cases())
    words = st.sampled_from(SOURCE_WORDS + (UNK, "q"))
    previous = st.lists(st.sampled_from(TARGET_WORDS + (UNK,)), max_size=6).map(tuple)
    bias = st.none() | st.builds(BiasSpec, previous, st.sampled_from([0.0, 0.3, 1.0]))
    requests = draw(st.lists(
        st.tuples(st.lists(words, max_size=8).map(tuple), bias, st.booleans()), max_size=8
    ))
    return cfg, requests


@settings(deadline=None)
@given(request_batches())
def test_translate_many_equals_translate_per_request(case):
    cfg, requests = case
    kernel = translator._kernel
    outcomes = []
    try:
        for loaded in (kernel, None):
            translator._kernel = loaded
            got = [_status(r) for r in ToyLexicalTranslator(cfg).translate_many(requests)]
            single = ToyLexicalTranslator(cfg)
            want = [_status(_translated(lambda: single.translate(*r))) for r in requests]
            assert got == want
            outcomes.append(got)
    finally:
        translator._kernel = kernel
    assert outcomes[0] == outcomes[-1]  # the kernel's batch equals the Python search's


@pytest.mark.parametrize("kernel", [translator._kernel, None], ids=["kernel", "python"])
def test_decoding_leaves_the_translators_tables_as_built(monkeypatch, kernel):
    lex = {"a": (("x", 0.6), ("y", 0.4)), "b": (("z", 1.0),), "c": (("w", 1.0),)}
    tr = ToyLexicalTranslator(ToyModelConfig(lexicon=lex, instability=0.9, seed=4))
    built = copy.deepcopy(vars(tr))
    # every source row, UNK's included, is in the table before any request
    assert set(tr._offsets) == {*lex, UNK}
    assert set(tr._ids) == set(tr._token_states) == {EOS, UNK, "x", "y", "z", "w"}
    monkeypatch.setattr(translator, "_kernel", kernel)
    requests = [(seq("a b"), None, False), (seq("c a b"), BiasSpec(seq("w q"), 0.5), True),
                ((UNK, "a"), None, True), (seq("a q"), None, False), ((), None, False)]
    got = [_status(r) for r in tr.translate_many(requests)]
    assert got[3:] == [(UnknownSourceToken, "source token 'q' not in lexicon"),
                       (ValueError, "source must be non-empty")]
    assert vars(tr) == built


def test_caching_translator_sends_each_miss_once_and_keeps_errors():
    batches = []

    class Inner:
        def translate_many(self, requests):
            batches.append(requests)
            return [ScriptMiss("miss") if r[0] == ("q",) else translator.Translation(r[0], 0.0)
                    for r in requests]

    cached = CachingTranslator(Inner())
    unbiased, idle = (("a",), None, False), (("a",), BiasSpec(("x",), 0.0), False)
    got = cached.translate_many([unbiased, (("q",), None, False), idle])
    assert [_status(r) for r in got] == [
        translator.Translation(("a",), 0.0), (ScriptMiss, "miss"), translator.Translation(("a",), 0.0),
    ]
    assert batches == [[unbiased, (("q",), None, False), idle]]  # a zero bias is a key of its own
    assert cached.translate(("a",)).tokens == ("a",) and len(batches) == 1
    with pytest.raises(ScriptMiss, match="^miss$"):
        cached.translate(("q",))
    assert len(batches) == 1


def test_scripted_translate_many_keeps_each_request_status():
    tr = ScriptedTranslator({"a": seq("x y")})
    got = tr.translate_many([(("a",), None, True), (("b",), None, False), ((), None, False)])
    assert [_status(r) for r in got] == [
        translator.Translation(seq("x y"), 0.0),
        (ScriptMiss, "no script entry for prefix 'b'"),
        (ValueError, "source must be non-empty"),
    ]
