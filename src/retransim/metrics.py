"""Evaluation of retranslation sessions: latency, flicker and quality.

Latency is average lag (AL): how far the displayed output trails an
ideal proportional schedule, in source tokens. Flicker is normalized
erasure (NE): tokens that had to be deleted between consecutive displays,
relative to the final output length. Quality is corpus BLEU of the final
outputs against references. All three are pure functions of traces, so
values recomputed from serialized traces match the online run exactly.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .core import SessionTrace, TokenSeq, common_prefix_length

log = logging.getLogger(__name__)

# how aggregate averages normalized erasure over sentences
NE_MODES = ("mean", "corpus")


class MetricsError(ValueError):
    """Invalid input to a metric computation."""


class EmptyTrace(MetricsError):
    """A trace with no step records cannot be scored."""


class FlickerOnEmptyFinal(MetricsError):
    """Erasure occurred but the final output is empty, so NE is undefined."""


class LengthMismatch(MetricsError):
    """Hypothesis and reference lists disagree on length."""


def average_lag(trace: SessionTrace) -> float:
    """Average lag of one session.

    g(t) is the step at which the displayed output first reached length t
    (shrinking and regrowing does not reset it; rewrites are charged to NE,
    not AL). The sum runs over t = 1..tau where tau is the display length
    at the step that saw the full source. Empty final output gives 0.
    """
    if not trace.records:
        raise EmptyTrace(f"sentence {trace.sentence_id}: no records")
    records = trace.records
    source_len = len(records[-1].source_prefix)
    tau = len(records[-1].emitted_output)
    if tau == 0:
        log.warning("sentence %d produced no output; AL defined as 0", trace.sentence_id)
        return 0.0
    target_len = len(trace.final_output)
    ratio = source_len / target_len
    first_reach: dict[int, int] = {}
    best = 0
    for rec in records:
        length = len(rec.emitted_output)
        if length > best:
            for t in range(best + 1, length + 1):
                first_reach[t] = rec.step_index
            best = length
    lag = 0.0
    for t in range(1, tau + 1):
        lag += first_reach[t] - (t - 1) * ratio
    return lag / tau


def _mean(values) -> float:
    """Left-to-right float mean: sum() of floats is compensated from
    Python 3.12 on, which would change the last digits across versions."""
    total = 0.0
    count = 0
    for v in values:
        total += v
        count += 1
    return total / count


def erased_between(previous: TokenSeq, current: TokenSeq) -> int:
    """Tokens that must be deleted from previous to display current.

    Of a step's hypothesis and display, it is the step's mask length.
    """
    return len(previous) - common_prefix_length(previous, current)


def total_erasure(trace: SessionTrace) -> int:
    outputs = [rec.emitted_output for rec in trace.records]
    return sum(erased_between(a, b) for a, b in zip(outputs, outputs[1:]))


def normalized_erasure(trace: SessionTrace) -> float:
    """Total erased tokens over the sentence, normalized by final length."""
    if not trace.records:
        raise EmptyTrace(f"sentence {trace.sentence_id}: no records")
    erased = total_erasure(trace)
    final_len = len(trace.final_output)
    if final_len == 0:
        if erased == 0:
            return 0.0
        raise FlickerOnEmptyFinal(
            f"sentence {trace.sentence_id}: {erased} tokens erased but final output is empty"
        )
    return erased / final_len


_MAX_ORDER = 4


def _ngrams(tokens: TokenSeq, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


@lru_cache(maxsize=1 << 12)
def _sentence_stats(hyp: TokenSeq, ref: TokenSeq) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(clipped n-gram matches, hypothesis n-gram totals) for n = 1..4.

    Sweep cells share references and mostly share final outputs, so most
    sentences are counted once per process.
    """
    clipped = []
    totals = []
    for n in range(1, _MAX_ORDER + 1):
        ref_ngrams = _ngrams(ref, n)
        clipped.append(sum(min(c, ref_ngrams[g]) for g, c in _ngrams(hyp, n).items()))
        totals.append(max(len(hyp) - n + 1, 0))
    return tuple(clipped), tuple(totals)


def corpus_bleu(hypotheses: list[TokenSeq], references: list[TokenSeq]) -> float:
    """Corpus-level BLEU-4 in [0, 100].

    Geometric mean of clipped n-gram precisions times the brevity penalty.
    A zero match count at order n >= 2 is add-1 smoothed; a zero unigram
    match gives 0.
    """
    if len(hypotheses) != len(references):
        raise LengthMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise LengthMismatch("at least one sentence is required")
    max_order = _MAX_ORDER
    clipped = [0] * (max_order + 1)
    totals = [0] * (max_order + 1)
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        matches, counts = _sentence_stats(tuple(hyp), tuple(ref))
        for n in range(1, max_order + 1):
            clipped[n] += matches[n - 1]
            totals[n] += counts[n - 1]
    if hyp_len == 0 or totals[1] == 0 or clipped[1] == 0:
        return 0.0
    log_sum = math.log(clipped[1] / totals[1])
    for n in range(2, max_order + 1):
        if clipped[n] > 0:
            log_sum += math.log(clipped[n] / totals[n])
        else:
            log_sum += math.log((clipped[n] + 1) / (totals[n] + 1))
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / max_order)


@dataclass(frozen=True)
class TradeoffPoint:
    """One row of a sweep: a strategy and its corpus-level metrics."""

    strategy_label: str
    al: float
    ne: float
    bleu: float
    n_sentences: int

    CSV_HEADER = "strategy,AL,NE,BLEU,n_sentences"

    def csv_row(self) -> str:
        """The point's CSV row: a label that holds a comma or a quote is
        quoted (RFC 4180), and floats print as their repr."""
        row = io.StringIO()
        csv.writer(row, lineterminator="").writerow(
            (self.strategy_label, self.al, self.ne, self.bleu, self.n_sentences)
        )
        return row.getvalue()


def csv_lines(points: list[TradeoffPoint]) -> list[str]:
    """The lines of a sweep CSV: the header, then one row per point."""
    return [TradeoffPoint.CSV_HEADER] + [point.csv_row() for point in points]


def aggregate(
    strategy_label: str,
    traces: list[SessionTrace],
    ne_mode: str = "mean",
) -> TradeoffPoint:
    """Corpus metrics for one strategy.

    AL and NE are arithmetic means of per-sentence values; ne_mode
    "corpus" instead divides total erased tokens by total final length.
    BLEU uses the traces' references, which must be present.
    """
    if not traces:
        raise MetricsError("no traces to aggregate")
    if ne_mode not in NE_MODES:
        raise MetricsError(f"unknown ne_mode {ne_mode!r}")
    ordered = sorted(traces, key=lambda tr: tr.sentence_id)
    al = _mean(average_lag(tr) for tr in ordered)
    if ne_mode == "mean":
        ne = _mean(normalized_erasure(tr) for tr in ordered)
    else:
        erased = sum(total_erasure(tr) for tr in ordered)
        final_total = sum(len(tr.final_output) for tr in ordered)
        if final_total == 0:
            if erased:
                raise FlickerOnEmptyFinal("erasure with empty final outputs")
            ne = 0.0
        else:
            ne = erased / final_total
    missing = [tr.sentence_id for tr in ordered if tr.reference is None]
    if missing:
        raise MetricsError(f"traces without references: {missing[:5]}")
    bleu = corpus_bleu(
        [tr.final_output for tr in ordered],
        [tr.reference for tr in ordered],  # type: ignore[misc]
    )
    return TradeoffPoint(strategy_label, al, ne, bleu, len(ordered))


def pareto_frontier(points: list[TradeoffPoint]) -> list[TradeoffPoint]:
    """Points not dominated on (AL, NE), both minimized."""
    frontier = []
    for p in points:
        dominated = any(
            q.al <= p.al and q.ne <= p.ne and (q.al < p.al or q.ne < p.ne)
            for q in points
        )
        if not dominated:
            frontier.append(p)
    frontier.sort(key=lambda p: (p.al, p.ne, p.strategy_label))
    return frontier


def mask_histogram(traces: list[SessionTrace]) -> dict[int, int]:
    """mask_length -> count over all non-final step records."""
    counts: Counter[int] = Counter()
    for trace in traces:
        for rec in trace.records:
            if not rec.is_final:
                counts[rec.mask_length] += 1
    return dict(sorted(counts.items()))
