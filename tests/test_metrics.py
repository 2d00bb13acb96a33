from __future__ import annotations

import csv
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retransim.core import SessionTrace, StepRecord, is_prefix
from retransim import metrics
from retransim.metrics import (
    EmptyTrace,
    FlickerOnEmptyFinal,
    LengthMismatch,
    MetricsError,
    TradeoffPoint,
    aggregate,
    average_lag,
    corpus_bleu,
    csv_lines,
    erased_between,
    normalized_erasure,
)
from retransim.predict import PredictorConfig
from retransim.strategy import StrategyConfig
from conftest import seq


def make_trace(
    outputs: list[tuple[str, ...]],
    hypotheses: list[tuple[str, ...]] | None = None,
    sentence_id: int = 0,
    reference: tuple[str, ...] | None = None,
) -> SessionTrace:
    """Build a trace with one source token revealed per output."""
    n = len(outputs)
    hypotheses = hypotheses or list(outputs)
    source = tuple(f"s{i}" for i in range(n))
    records = []
    for i, (hyp, out) in enumerate(zip(hypotheses, outputs), start=1):
        from retransim.core import longest_common_prefix

        records.append(
            StepRecord(
                step_index=i,
                source_prefix=source[:i],
                raw_hypothesis=hyp,
                emitted_output=out,
                mask_length=len(hyp) - len(longest_common_prefix(hyp, out)),
                is_final=(i == n),
            )
        )
    return SessionTrace(
        sentence_id=sentence_id,
        records=tuple(records),
        final_output=outputs[-1],
        reference=reference,
    )


def synchronous_trace(n: int) -> SessionTrace:
    toks = tuple(f"t{i}" for i in range(n))
    return make_trace([toks[: i + 1] for i in range(n)])


def full_sentence_trace(n: int) -> SessionTrace:
    toks = tuple(f"t{i}" for i in range(n))
    outputs = [() for _ in range(n - 1)] + [toks]
    hyps = [toks[: i + 1] for i in range(n)]
    return make_trace(outputs, hypotheses=hyps)


# ---------------------------------------------------------------------------
# Average lag
# ---------------------------------------------------------------------------


def test_al_synchronous_schedule_is_one():
    # |S| = |T| = 3, output lengths 1,2,3 after steps 1,2,3:
    # terms (1-0) + (2-1) + (3-2), mean 1
    assert average_lag(synchronous_trace(3)) == 1.0
    for n in (1, 4, 10):
        assert average_lag(synchronous_trace(n)) == 1.0


def test_al_full_sentence_baseline_closed_form():
    # nothing shown until the last step: g(t) = n for all t, so
    # AL = (1/n) * sum_t (n - (t-1)) = (n+1)/2
    assert average_lag(full_sentence_trace(4)) == 2.5
    for n in (1, 4, 10):
        assert average_lag(full_sentence_trace(n)) == (n + 1) / 2


def test_al_single_step_sentence():
    trace = make_trace([("x",)])
    assert average_lag(trace) == 1.0


def test_al_uses_first_reach_even_after_shrink():
    # output reaches length 2 at step 1, shrinks, then regrows: g(1)=g(2)=1
    outputs = [("a", "b"), (), ("c", "d", "e")]
    trace = make_trace(outputs)
    # g = {1:1, 2:1, 3:3}; |S|=|T|=3
    expected = ((1 - 0) + (1 - 1) + (3 - 2)) / 3
    assert average_lag(trace) == pytest.approx(expected)


def test_al_empty_final_output_defined_as_zero():
    trace = make_trace([()], hypotheses=[("x",)])
    # single step emitted nothing and the final output is empty
    trace = SessionTrace(
        sentence_id=0,
        records=(
            StepRecord(1, ("s0",), ("x",), (), 1, True),
        ),
        final_output=(),
    )
    assert average_lag(trace) == 0.0


def test_al_waiting_longer_costs_lag():
    # emitting even one token earlier strictly beats the full-sentence
    # baseline, which in turn never beats the synchronous schedule
    for n in (2, 4, 10):
        toks = tuple(f"t{i}" for i in range(n))
        hyps = [toks[: i + 1] for i in range(n)]
        baseline = make_trace([() for _ in range(n - 1)] + [toks], hypotheses=hyps)
        one_early = make_trace(
            [toks[:1]] + [() for _ in range(n - 2)] + [toks], hypotheses=hyps
        )
        assert average_lag(one_early) < average_lag(baseline)
        assert average_lag(synchronous_trace(n)) < average_lag(baseline)


def test_al_empty_trace_raises():
    trace = SessionTrace(sentence_id=0, records=(), final_output=())
    with pytest.raises(EmptyTrace):
        average_lag(trace)
    with pytest.raises(EmptyTrace):
        normalized_erasure(trace)


# ---------------------------------------------------------------------------
# Normalized erasure
# ---------------------------------------------------------------------------


def test_ne_rewrite_example():
    # p q r -> p q s t erases one token; final length 4
    trace = make_trace([seq("p q r"), seq("p q s t")])
    assert erased_between(seq("p q r"), seq("p q s t")) == 1
    assert normalized_erasure(trace) == 0.25


def test_ne_zero_for_growing_outputs():
    assert normalized_erasure(synchronous_trace(5)) == 0.0


def test_ne_empty_final():
    outputs = [(), ()]
    hyps = [("a",), ("b",)]
    records = tuple(
        StepRecord(i + 1, tuple(f"s{j}" for j in range(i + 1)), hyps[i], outputs[i], 1, i == 1)
        for i in range(2)
    )
    trace = SessionTrace(0, records, ())
    assert normalized_erasure(trace) == 0.0

    # erasure with an empty final output is undefined
    bad = make_trace([("a", "b"), ()], hypotheses=[("a", "b"), ("x",)])
    bad = SessionTrace(0, bad.records, ())
    with pytest.raises(FlickerOnEmptyFinal):
        normalized_erasure(bad)


def test_ne_total_rewrite():
    trace = make_trace([("a", "b"), ("x", "y")])
    assert normalized_erasure(trace) == 1.0


_DISPLAYS = st.lists(st.sampled_from("ab"), max_size=4).map(tuple)
# displays that mostly each extend the last: cuts of one growing sequence
_GROWING = st.lists(st.sampled_from("ab"), max_size=8).flatmap(
    lambda full: st.lists(st.integers(0, len(full)), min_size=1, max_size=6).map(
        lambda cuts: [tuple(full[:cut]) for cut in sorted(cuts)]
    )
)


@given(st.lists(_DISPLAYS, min_size=1, max_size=6) | _GROWING)
def test_ne_is_zero_exactly_when_each_display_extends_the_last(outputs):
    trace = make_trace(outputs)
    grows = all(is_prefix(a, b) for a, b in zip(outputs, outputs[1:]))
    if not grows and not outputs[-1]:  # erasure with an empty final output is undefined
        with pytest.raises(FlickerOnEmptyFinal):
            normalized_erasure(trace)
    else:
        assert (normalized_erasure(trace) == 0.0) == grows


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def test_bleu_identical_corpora_is_exactly_100():
    hyps = [seq("a b c d"), seq("x y")]
    assert corpus_bleu(hyps, hyps) == 100.0


def test_bleu_hand_computed_example():
    # p1=3/4, p2=2/3, p3=1/2, p4 smoothed to 1/2, BP=1:
    # 100 * (3/4 * 2/3 * 1/2 * 1/2) ** 0.25
    want = 100.0 * (3 / 4 * 2 / 3 * 1 / 2 * 1 / 2) ** 0.25
    got = corpus_bleu([seq("a b c d")], [seq("a b c e")])
    assert got == pytest.approx(want, abs=1e-6)
    assert got == pytest.approx(59.4603557501, abs=1e-6)


def test_bleu_brevity_penalty():
    # hypothesis shorter than reference: BP = exp(1 - ref/hyp)
    hyp, ref = seq("a b"), seq("a b c d")
    p1 = 2 / 2
    p2 = 1 / 1
    p3 = (0 + 1) / (0 + 1)
    p4 = (0 + 1) / (0 + 1)
    want = 100.0 * math.exp(1 - 4 / 2) * (p1 * p2 * p3 * p4) ** 0.25
    assert corpus_bleu([hyp], [ref]) == pytest.approx(want, abs=1e-9)


def test_bleu_zero_unigram_overlap():
    assert corpus_bleu([seq("a b")], [seq("x y")]) == 0.0
    assert corpus_bleu([()], [seq("x")]) == 0.0


def test_bleu_errors():
    with pytest.raises(LengthMismatch):
        corpus_bleu([seq("a")], [])
    with pytest.raises(LengthMismatch):
        corpus_bleu([], [])


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def test_aggregate_means_and_label():
    t1 = make_trace([("x",)], reference=("x",), sentence_id=0)  # AL 1, NE 0
    t2 = make_trace(
        [seq("p q r"), seq("p q s t")],
        reference=seq("p q s t"),
        sentence_id=1,
    )
    # t2: AL terms over tau=4 with |S|=2, |T|=4: g={1:1,2:1,3:1,4:2}
    # (step 1 already shows three tokens, step 2 shows the fourth)
    al2 = (1 - 0 * 0.5) + (1 - 1 * 0.5) + (1 - 2 * 0.5) + (2 - 3 * 0.5)
    al2 /= 4
    assert al2 == 0.5
    point = aggregate("demo", [t2, t1])  # order must not matter
    assert point.strategy_label == "demo"
    assert point.n_sentences == 2
    assert point.al == pytest.approx((1.0 + al2) / 2)
    assert point.ne == pytest.approx((0.0 + 0.25) / 2)
    assert point.bleu == 100.0  # final outputs equal references


def test_aggregate_corpus_ne_mode():
    t1 = make_trace([("x",)], reference=("x",), sentence_id=0)
    t2 = make_trace([seq("p q r"), seq("p q s t")], reference=seq("p q s t"), sentence_id=1)
    point = aggregate("demo", [t1, t2], ne_mode="corpus")
    assert point.ne == pytest.approx(1 / 5)  # 1 erased over 1+4 final tokens
    with pytest.raises(MetricsError):
        aggregate("demo", [t1], ne_mode="bogus")


def test_aggregate_corpus_ne_is_zero_when_every_final_output_is_empty_and_nothing_erased():
    traces = [make_trace([(), ()], reference=("x",), sentence_id=i) for i in range(2)]
    assert aggregate("demo", traces, ne_mode="corpus").ne == 0.0


def test_aggregate_requires_references():
    t = make_trace([("x",)])
    with pytest.raises(MetricsError):
        aggregate("demo", [t])
    with pytest.raises(MetricsError):
        aggregate("demo", [])


def test_tradeoff_point_csv():
    point = TradeoffPoint("mask_k=3", 1.5, 0.125, 61.25, 10)
    assert TradeoffPoint.CSV_HEADER == "strategy,AL,NE,BLEU,n_sentences"
    assert point.csv_row() == "mask_k=3,1.5,0.125,61.25,10"


def test_a_label_with_commas_reads_back_as_one_csv_field():
    label = StrategyConfig(
        "dynamic", predictor=PredictorConfig("random", k=2, n=2), bias_beta=0.5
    ).label
    point = TradeoffPoint(label, 1.5, 0.1 + 0.2, 61.25, 10)
    lines = csv_lines([point])
    assert lines[1] == '"dynamic:random,k=2,n=2,beta=0.5",1.5,0.30000000000000004,61.25,10'
    header, row = csv.reader(lines)
    assert len(header) == len(row) == 5
    assert row == [label, "1.5", "0.30000000000000004", "61.25", "10"]


# ---------------------------------------------------------------------------
# Summation order and the BLEU statistics memo
# ---------------------------------------------------------------------------


def test_average_lag_sums_left_to_right():
    # 2 source tokens, 7 target tokens: the lag terms' left-to-right sum
    # and their correctly rounded sum (sum() from Python 3.12) differ
    toks = tuple(f"t{i}" for i in range(7))
    trace = make_trace([toks[:2], toks])
    terms = [1.0] + [(2 if t > 2 else 1) - (t - 1) * (2 / 7) for t in range(2, 8)]
    naive = 0.0
    for x in terms:
        naive += x
    assert naive != math.fsum(terms)
    assert average_lag(trace) == naive / 7


def test_aggregate_means_sum_left_to_right(monkeypatch):
    # per-sentence values whose naive sum is 0 and compensated sum is 1
    values = {0: 1e16, 1: 1.0, 2: -1e16}
    monkeypatch.setattr(metrics, "average_lag", lambda tr: values[tr.sentence_id])
    monkeypatch.setattr(metrics, "normalized_erasure", lambda tr: values[tr.sentence_id])
    traces = [make_trace([seq("x")], sentence_id=i, reference=seq("x")) for i in values]
    point = aggregate("s", traces)
    assert (point.al, point.ne) == (0.0, 0.0)


def _uncached_bleu(hypotheses, references) -> float:
    # corpus BLEU-4 counted from scratch, sentence by sentence
    def ngrams(tokens, n):
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    clipped = [0] * 5
    totals = [0] * 5
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            ref_ngrams = ngrams(ref, n)
            totals[n] += max(len(hyp) - n + 1, 0)
            clipped[n] += sum(min(c, ref_ngrams[g]) for g, c in ngrams(hyp, n).items())
    if hyp_len == 0 or totals[1] == 0 or clipped[1] == 0:
        return 0.0
    log_sum = math.log(clipped[1] / totals[1])
    for n in range(2, 5):
        if clipped[n] > 0:
            log_sum += math.log(clipped[n] / totals[n])
        else:
            log_sum += math.log((clipped[n] + 1) / (totals[n] + 1))
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / 4)


_BLEU_SENTENCE = st.lists(st.sampled_from("abc"), max_size=7).map(tuple)


@settings(deadline=None)
@given(st.lists(st.tuples(_BLEU_SENTENCE, _BLEU_SENTENCE), min_size=1, max_size=8))
def test_memoized_bleu_matches_uncached_counts(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    want = repr(_uncached_bleu(hyps, refs))
    assert repr(corpus_bleu(hyps, refs)) == want
    assert repr(corpus_bleu(hyps, refs)) == want  # every sentence from the memo
    # the same sentences paired differently, and as lists
    shifted = refs[1:] + refs[:1]
    assert repr(corpus_bleu(hyps, shifted)) == repr(_uncached_bleu(hyps, shifted))
    lists = [list(h) for h in hyps]
    assert repr(corpus_bleu(lists, refs)) == want
