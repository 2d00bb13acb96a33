from __future__ import annotations

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retransim import predict
from retransim.core import read_lines, tokenize
from retransim.predict import (
    EOS,
    UNK,
    EmptyCorpus,
    LMFormatError,
    MissingLM,
    NgramLM,
    PredictorConfig,
    load_lm,
    predict_extensions,
    save_lm,
    train_lm,
)
from retransim.synthetic import write_synthetic
from retransim.translator import mix64
from conftest import seq


@pytest.fixture
def bigram_lm() -> NgramLM:
    return train_lm([seq("a b"), seq("a b")], order=2, smoothing_alpha=0.5)


def test_add_alpha_probability_closed_form(bigram_lm):
    # corpus "a b" twice, order 2: p(b|a) = (2 + alpha) / (2 + alpha * V)
    # with V = |{a, b, UNK, EOS}| = 4
    alpha = bigram_lm.smoothing_alpha
    v = len(bigram_lm.vocabulary)
    assert v == 4
    assert bigram_lm.prob("b", ("a",)) == pytest.approx((2 + alpha) / (2 + alpha * v))
    assert bigram_lm.prob("a", ("a",)) == pytest.approx(alpha / (2 + alpha * v))


def test_distributions_sum_to_one(bigram_lm):
    lm3 = train_lm([seq("a b c"), seq("b c a"), seq("c")], order=3, smoothing_alpha=0.1)
    for lm in (bigram_lm, lm3):
        for ctx in [(), ("a",), ("a", "b"), ("never", "seen")]:
            total = sum(p for _, p in lm.distribution(ctx))
            assert total == pytest.approx(1.0, abs=1e-9)
            brute = sum(lm.prob(t) if not ctx else lm.prob(t, ctx) for t in lm.vocabulary)
            assert brute == pytest.approx(1.0, abs=1e-9)


def test_unigram_ignores_context():
    lm = train_lm([seq("a b"), seq("b b")], order=1, smoothing_alpha=0.2)
    assert lm.prob("b", ("a",)) == lm.prob("b", ()) == lm.prob("b", ("b", "b"))


def test_unseen_context_backs_off_to_unigram(bigram_lm):
    assert bigram_lm.prob("b", ("zzz",)) == bigram_lm.prob("b", ())
    # observed context uses its own table instead
    assert bigram_lm.prob("b", ("a",)) != bigram_lm.prob("b", ())


def test_backoff_through_middle_orders():
    lm = train_lm([seq("a b c"), seq("a b d")], order=3, smoothing_alpha=0.1)
    # ("b",) context observed at order 2; ("x", "b") unseen at order 3
    assert lm.prob("c", ("x", "b")) == lm.prob("c", ("b",))


def test_out_of_vocabulary_token_maps_to_unk(bigram_lm):
    assert bigram_lm.prob("zzz", ("a",)) == bigram_lm.prob(UNK, ("a",))


# ---------------------------------------------------------------------------
# Sampling tables
# ---------------------------------------------------------------------------


class _FixedDraw:
    """Stands in for random.Random: every draw returns u."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def _scan_sample(lm: NgramLM, context: tuple[str, ...], u: float) -> str:
    # the sampler as a linear scan over the full distribution
    acc = 0.0
    dist = lm.distribution(context)
    for token, p in dist:
        acc += p
        if u < acc:
            return token
    return dist[-1][0]


def _scan_argmax(lm: NgramLM, context: tuple[str, ...]) -> str:
    _, table = lm._resolve(context)
    best, best_count = None, -1
    for t in sorted(lm.vocabulary):
        if table.get(t, 0) > best_count:
            best, best_count = t, table.get(t, 0)
    return best


_LM_WORDS = ("a", "b", "c", "d", "e")


@st.composite
def lm_cases(draw):
    """A random LM, query contexts (unseen tokens and EOS included), and
    draws: the cumulative boundaries of one context's scan, their float
    neighbours, 0, the largest float below 1 and arbitrary values."""
    word = st.sampled_from(_LM_WORDS)
    corpus = draw(st.lists(st.lists(word, min_size=1, max_size=6).map(tuple), min_size=1, max_size=6))
    alpha = draw(st.one_of(st.floats(1e-3, 5.0), st.sampled_from([0.1, 1 / 3, 1e-12])))
    lm = train_lm(corpus, order=draw(st.integers(1, 4)), smoothing_alpha=alpha)
    query = st.lists(st.sampled_from(_LM_WORDS + ("zz", EOS)), max_size=5).map(tuple)
    contexts = draw(st.lists(query, min_size=1, max_size=4))
    boundaries = []
    acc = 0.0
    for _, p in lm.distribution(contexts[0]):
        acc += p
        boundaries += [acc, math.nextafter(acc, 0.0), math.nextafter(acc, 2.0)]
    draws = [0.0, math.nextafter(1.0, 0.0), *boundaries]
    draws += draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=5))
    return lm, contexts, [u for u in draws if 0.0 <= u < 1.0]


@settings(deadline=None)
@given(lm_cases())
def test_cached_sampler_matches_linear_scan(case):
    lm, contexts, draws = case
    for _ in range(2):  # the second pass reads the memo
        for context in contexts:
            for u in draws:
                assert lm.sample(context, _FixedDraw(u)) == _scan_sample(lm, context, u), (
                    context,
                    u.hex(),
                )


@settings(deadline=None)
@given(lm_cases())
def test_cached_argmax_matches_scan(case):
    lm, contexts, _ = case
    for _ in range(2):
        for context in contexts:
            assert lm.argmax(context) == _scan_argmax(lm, context), context


def test_sampling_tables_are_lazy_and_shared_by_backoff(tmp_path, bigram_lm):
    path = tmp_path / "lm.json"
    save_lm(bigram_lm, path)
    lm = load_lm(path)
    assert not lm._by_table  # loading builds no table
    # an unseen context backs off to the unigram table, as does ()
    assert lm._table(("zzz",)) is lm._table(("b", "zzz")) is lm._table(())
    assert lm._table(("a",)) is not lm._table(())
    assert len(lm._by_table) == 2


def test_train_lm_validation():
    with pytest.raises(EmptyCorpus):
        train_lm([], order=2)
    with pytest.raises(ValueError):
        train_lm([seq("a")], order=5)
    with pytest.raises(ValueError):
        train_lm([seq("a")], order=2, smoothing_alpha=0.0)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_lm_round_trip(tmp_path, bigram_lm):
    path = tmp_path / "lm.json"
    save_lm(bigram_lm, path)
    loaded = load_lm(path)
    assert loaded.order == bigram_lm.order
    assert loaded.vocabulary == bigram_lm.vocabulary
    for ctx in [(), ("a",), ("b",)]:
        assert loaded.distribution(ctx) == bigram_lm.distribution(ctx)
    # re-saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "lm2.json"
    save_lm(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_retraining_is_byte_identical(tmp_path):
    corpus = [seq("a b c"), seq("c b a"), seq("a a")]
    p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
    save_lm(train_lm(corpus, order=3, smoothing_alpha=0.3), p1)
    save_lm(train_lm(corpus, order=3, smoothing_alpha=0.3), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_pinned_corpus_lm_file_is_pinned(tmp_path):
    # the LM the acceptance suite and the benchmark train on the pinned
    # synthetic corpus; its bytes are part of every lm_* run's inputs
    paths = write_synthetic(tmp_path)
    sentences = [tokenize(line) for line in read_lines(paths["source"])]
    path = tmp_path / "lm.json"
    save_lm(train_lm(sentences, order=3, smoothing_alpha=0.1), path)
    data = path.read_bytes()
    assert len(data) == 53415
    assert (
        hashlib.sha256(data).hexdigest()
        == "676b3c067981d2c6a9f29a72b5ecc035b6dd7f09422a84e726e1a9db730a1b5a"
    )


def test_load_lm_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(LMFormatError):
        load_lm(path)


# ---------------------------------------------------------------------------
# Extension strategies
# ---------------------------------------------------------------------------


def test_unknown_strategy():
    cfg = PredictorConfig(strategy="unknown", k=2)
    assert predict_extensions(cfg, None, None, seq("a b")) == [("a", "b", UNK, UNK)]


def test_lm_greedy_predicts_argmax(bigram_lm):
    cfg = PredictorConfig(strategy="lm_greedy", k=1)
    got = predict_extensions(cfg, bigram_lm, None, ("a",))
    # brute-force argmax of the smoothed bigram after "a"
    best = max(sorted(bigram_lm.vocabulary), key=lambda t: bigram_lm.prob(t, ("a",)))
    assert best == "b"
    assert got == [("a", "b")]


def test_lm_greedy_stops_at_eos():
    lm = train_lm([seq("a")] * 5, order=2, smoothing_alpha=0.01)
    cfg = PredictorConfig(strategy="lm_greedy", k=3)
    # after "a" the most likely continuation is end-of-sentence
    assert predict_extensions(cfg, lm, None, ("a",)) == [("a",)]


def test_greedy_ties_break_lexicographically():
    lm = train_lm([seq("z q")], order=1, smoothing_alpha=1.0)
    # unigram counts: z=1, q=1, EOS=1; UNK=0 -- tie between EOS, q, z
    assert lm.argmax(()) == min([EOS, "q", "z"])


def test_random_strategy_reproducible():
    vocab = {"u", "v", "w"}
    cfg = PredictorConfig(strategy="random", k=1, n=3, seed=99)
    first = predict_extensions(cfg, None, vocab, seq("a b"), sentence_id=4, step_index=2)
    again = predict_extensions(cfg, None, vocab, seq("a b"), sentence_id=4, step_index=2)
    assert first == again
    assert len(first) == 3
    for ext in first:
        assert ext[:2] == ("a", "b")
        assert len(ext) == 3
        assert ext[2] in vocab
    other_step = predict_extensions(cfg, None, vocab, seq("a b"), sentence_id=4, step_index=3)
    assert other_step != first  # fresh draws per step (holds for this seed)


def test_lm_sample_reproducible_and_prefixed(bigram_lm):
    cfg = PredictorConfig(strategy="lm_sample", k=3, n=4, seed=5)
    first = predict_extensions(cfg, bigram_lm, None, ("a",), sentence_id=0, step_index=1)
    again = predict_extensions(cfg, bigram_lm, None, ("a",), sentence_id=0, step_index=1)
    assert first == again
    assert len(first) == 4
    for ext in first:
        assert ext[0] == "a"
        assert len(ext) <= 1 + 3  # EOS may stop an extension early
        for tok in ext[1:]:
            assert tok in bigram_lm.vocabulary
            assert tok != EOS


def test_sampling_matches_lm_frequencies(bigram_lm):
    # empirical frequency of the sampled first token tracks the LM
    cfg = PredictorConfig(strategy="lm_sample", k=1, n=1, seed=7)
    counts: dict[str, int] = {}
    total = 3000
    for i in range(total):
        ext = predict_extensions(cfg, bigram_lm, None, ("a",), sentence_id=i, step_index=1)[0]
        tok = ext[1] if len(ext) > 1 else EOS
        counts[tok] = counts.get(tok, 0) + 1
    for tok in bigram_lm.vocabulary:
        expected = bigram_lm.prob(tok, ("a",))
        assert counts.get(tok, 0) / total == pytest.approx(expected, abs=0.03)


def test_predictor_config_validation():
    with pytest.raises(ValueError):
        PredictorConfig(strategy="nope")
    with pytest.raises(ValueError):
        PredictorConfig(strategy="random", k=0)
    assert PredictorConfig(strategy="lm_greedy", n=7).n == 1
    assert PredictorConfig(strategy="unknown", n=3).n == 1
    assert PredictorConfig(strategy="lm_sample", n=3).n == 3


def test_predict_extensions_preconditions(bigram_lm):
    with pytest.raises(ValueError):
        predict_extensions(PredictorConfig(strategy="unknown"), None, None, ())
    with pytest.raises(MissingLM):
        predict_extensions(PredictorConfig(strategy="lm_greedy"), None, None, ("a",))
    with pytest.raises(MissingLM):
        predict_extensions(PredictorConfig(strategy="lm_sample"), None, None, ("a",))


def test_every_extension_begins_with_prefix(bigram_lm):
    rng = random.Random(2)
    vocab = {"a", "b"}
    for strategy in ["lm_sample", "lm_greedy", "unknown", "random"]:
        for _ in range(20):
            cfg = PredictorConfig(
                strategy=strategy,
                k=rng.randrange(1, 4),
                n=rng.randrange(1, 4),
                seed=rng.randrange(100),
            )
            prefix = tuple(rng.choice(["a", "b"]) for _ in range(rng.randrange(1, 5)))
            exts = predict_extensions(
                cfg, bigram_lm, vocab, prefix, sentence_id=1, step_index=2
            )
            assert len(exts) == cfg.n
            for ext in exts:
                assert ext[: len(prefix)] == prefix
                assert len(ext) <= len(prefix) + cfg.k


# ---------------------------------------------------------------------------
# Probe streams
# ---------------------------------------------------------------------------

ANY_INT = st.integers(-(2**70), 2**70)


@given(ANY_INT, ANY_INT, ANY_INT, ANY_INT)
def test_folded_sample_seed_is_mix64_of_all_four(seed, sentence_id, step_index, s):
    stream = mix64(seed, sentence_id, step_index)
    assert predict._sample_seed(stream, s) == mix64(seed, sentence_id, step_index, s)


@settings(deadline=None)
@given(
    ANY_INT, ANY_INT, ANY_INT,
    st.integers(1, 4),
    st.integers(1, 9) | st.integers(320, 400),  # past a stream's first 624 words
    st.sampled_from([0, 1, 2, 3, 53, 1000, 2**31 - 1]),
)
def test_sample_rngs_draw_as_fresh_random_random(seed, sentence_id, step_index, n, k, below):
    want = []
    for s in range(n):
        rng = random.Random(mix64(seed, sentence_id, step_index, s))
        want.append([rng.randrange(below) if below else rng.random() for _ in range(k)])
    got = [
        [rng.randrange(below) if below else rng.random() for _ in range(k)]
        for rng in predict._sample_rngs(seed, sentence_id, step_index, n)
    ]
    assert got == want
