"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Everything derives from the pinned synthetic corpus (seed 42), generated
into a session temp directory, so the suite is self-contained.
"""

from __future__ import annotations

import dataclasses
import json
import random
import statistics
import time
from pathlib import Path

import pytest

from retransim.core import SessionTrace, StepRecord, read_corpus, tokenize
from retransim.metrics import average_lag, corpus_bleu, normalized_erasure
from retransim.predict import PredictorConfig, save_lm, train_lm
from retransim.sim import (
    Models,
    RunConfig,
    build_translator,
    load_models,
    read_traces,
    run_corpus,
    validate_trace,
    write_traces,
)
from retransim.strategy import StrategyConfig
from retransim.translator import BiasSpec, load_script
from retransim.synthetic import write_synthetic, toy_translator_spec
from retransim.metrics import mask_histogram
from retransim.sim import run_sentence
from conftest import pairs_from, seq

DATA = Path(__file__).parent / "data"


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """Pinned synthetic corpus, trained LM, and run config builder."""
    root = tmp_path_factory.mktemp("pinned")
    paths = write_synthetic(root)
    src_sentences = [tokenize(l) for l in Path(paths["source"]).read_text().splitlines()]
    lm_path = root / "lm.json"
    save_lm(train_lm(src_sentences, order=3, smoothing_alpha=0.1), lm_path)

    def config(strategy: StrategyConfig, instability: float = 0.5, **overrides) -> RunConfig:
        base = dict(
            source_path=paths["source"],
            reference_path=paths["reference"],
            translator=toy_translator_spec(paths["lexicon"], instability=instability),
            strategy=strategy,
            lm_path=str(lm_path),
        )
        base.update(overrides)
        return RunConfig(**base)

    return {"root": root, "paths": paths, "config": config}


@pytest.fixture(scope="module")
def pinned_sweep(pinned):
    """The criterion-6 sweep, shared with the histogram criterion."""
    make = pinned["config"]
    t0 = time.perf_counter()
    base = make(StrategyConfig("none"))
    pairs = read_corpus(base.source_path, base.reference_path)
    models = load_models(base, pairs)

    points = {}
    traces = {}
    for k in range(1, 11):
        cfg = dataclasses.replace(base, strategy=StrategyConfig("mask_k", k_mask=k))
        traces[cfg.strategy.label], points[cfg.strategy.label] = run_corpus(cfg, models=models)
    dynamic = [
        PredictorConfig("lm_greedy", k=1, n=1),
        PredictorConfig("random", k=5, n=3),
        PredictorConfig("lm_sample", k=3, n=3),
    ]
    for pred in dynamic:
        cfg = dataclasses.replace(
            base, strategy=StrategyConfig("dynamic", predictor=pred)
        )
        traces[cfg.strategy.label], points[cfg.strategy.label] = run_corpus(cfg, models=models)
    elapsed = time.perf_counter() - t0
    return {"points": points, "traces": traces, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# 1. AL closed forms
# ---------------------------------------------------------------------------


def _schedule_trace(outputs: list[tuple[str, ...]], hypotheses=None) -> SessionTrace:
    from retransim.core import longest_common_prefix

    n = len(outputs)
    hypotheses = hypotheses or list(outputs)
    source = tuple(f"s{i}" for i in range(n))
    records = tuple(
        StepRecord(
            step_index=i,
            source_prefix=source[:i],
            raw_hypothesis=hyp,
            emitted_output=out,
            mask_length=len(hyp) - len(longest_common_prefix(hyp, out)),
            is_final=(i == n),
        )
        for i, (hyp, out) in enumerate(zip(hypotheses, outputs), start=1)
    )
    return SessionTrace(0, records, outputs[-1])


def test_criterion_1_al_closed_forms():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 4, 10):
        toks = tuple(f"t{i}" for i in range(n))
        synchronous = _schedule_trace([toks[: i + 1] for i in range(n)])
        full_only = _schedule_trace(
            [() for _ in range(n - 1)] + [toks],
            hypotheses=[toks[: i + 1] for i in range(n)],
        )
        ok &= abs(average_lag(synchronous) - 1.0) <= 1e-12
        ok &= abs(average_lag(full_only) - (n + 1) / 2) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report("criterion 1: AL closed forms (sync=1, full=(n+1)/2)", ok, f"{elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. Oracle zero-flicker
# ---------------------------------------------------------------------------


def _independent_erasure(trace_payload: dict) -> int:
    """Erasure recomputed from raw JSON, token by token."""
    outputs = [rec["emitted_output"] for rec in trace_payload["records"]]
    total = 0
    for prev, cur in zip(outputs, outputs[1:]):
        n = 0
        while n < len(prev) and n < len(cur) and prev[n] == cur[n]:
            n += 1
        total += len(prev) - n
    return total


def test_criterion_2_oracle_zero_flicker(pinned, tmp_path):
    t0 = time.perf_counter()
    ok = True
    for lam in (0.0, 0.5, 1.0):
        cfg = pinned["config"](StrategyConfig("oracle"), instability=lam)
        traces, point = run_corpus(cfg)
        ok &= all(normalized_erasure(tr) == 0.0 for tr in traces)
        ok &= point.ne == 0.0
        path = tmp_path / f"oracle_{lam}.jsonl"
        write_traces(path, traces, cfg)
        with open(path, encoding="utf-8") as fh:
            payloads = [json.loads(line) for line in fh if line.strip()]
        ok &= all(
            _independent_erasure(p) == 0 for p in payloads if p.get("kind") == "trace"
        )
        ok &= sum(1 for p in payloads if p.get("kind") == "trace") == 200
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(
        "criterion 2: oracle NE == 0 on every sentence, lambda in {0, 0.5, 1}",
        ok,
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Mask saturation
# ---------------------------------------------------------------------------


def test_criterion_3_mask_saturation(pinned):
    make = pinned["config"]
    none_traces, _ = run_corpus(make(StrategyConfig("none")))
    max_hyp = max(
        len(rec.raw_hypothesis) for tr in none_traces for rec in tr.records
    )
    k = 1 + max_hyp
    masked_traces, masked_point = run_corpus(make(StrategyConfig("mask_k", k_mask=k)))

    ok = all(normalized_erasure(tr) == 0.0 for tr in masked_traces)
    ok &= masked_point.ne == 0.0
    # independent full-sentence baseline: same hypotheses, nothing shown
    # until the final step
    deltas = []
    for tr in masked_traces:
        hyps = [rec.raw_hypothesis for rec in tr.records]
        baseline = _schedule_trace(
            [() for _ in hyps[:-1]] + [hyps[-1]], hypotheses=hyps
        )
        deltas.append(abs(average_lag(tr) - average_lag(baseline)))
    ok &= max(deltas) <= 1e-12
    report(
        f"criterion 3: mask saturation at k={k} matches full-sentence baseline",
        ok,
        f"max AL delta {max(deltas):.2e}",
    )


# ---------------------------------------------------------------------------
# 4. beta = 0 equivalence
# ---------------------------------------------------------------------------


def test_criterion_4_beta_zero_equivalence(pinned):
    paths = pinned["paths"]
    sentences = [tokenize(l) for l in Path(paths["source"]).read_text().splitlines()]
    # uncached translator: both decodes must really run
    translator = build_translator(toy_translator_spec(paths["lexicon"], 0.5))
    rng = random.Random(4242)
    checked = 0
    ok = True
    for _ in range(1000):
        sent = sentences[rng.randrange(len(sentences))]
        length = rng.randrange(1, len(sent) + 1)
        prefix = tuple(sent[:length])
        prev = translator.translate(prefix[: max(length - 1, 1)]).tokens
        plain = translator.translate(prefix)
        biased = translator.translate(prefix, bias=BiasSpec(prev, 0.0))
        ok &= plain.tokens == biased.tokens and plain.score == biased.score
        checked += 1
    ok &= checked == 1000
    report("criterion 4: beta=0 decoding identical to unbiased", ok, f"{checked} prefixes")


# ---------------------------------------------------------------------------
# 5. Prefix-stable translator
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def stable_setup(pinned):
    """1-to-1 lexicon (primary entries only), no noise, no distortion cost."""
    root = pinned["root"]
    primary_lines = ["# primaries only"]
    for line in Path(pinned["paths"]["lexicon"]).read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        src, tgt, prob = [p.strip() for p in line.split("|||")]
        if float(prob) >= 0.5:
            primary_lines.append(f"{src} ||| {tgt} ||| 1.0")
    lex_path = root / "one_to_one.lexicon"
    lex_path.write_text("\n".join(primary_lines) + "\n", encoding="utf-8")
    translator = {
        "kind": "toy",
        "lexicon_path": str(lex_path),
        "beam_size": 2,
        "distortion": 1.0,
        "instability": 0.0,
        "max_len_ratio": 1.0,
        "seed": 42,
    }
    return translator


def test_criterion_5_prefix_stable_translator(pinned, stable_setup):
    make = pinned["config"]
    cfg = make(StrategyConfig("none"), translator=stable_setup)
    traces, point = run_corpus(cfg)
    ok = point.ne == 0.0 and all(normalized_erasure(tr) == 0.0 for tr in traces)

    predictors = [
        PredictorConfig("unknown", k=2),
        PredictorConfig("lm_greedy", k=2),
        PredictorConfig("lm_sample", k=2, n=3),
        PredictorConfig("random", k=2, n=3),
    ]
    for pred in predictors:
        cfg = make(
            StrategyConfig("dynamic", predictor=pred), translator=stable_setup
        )
        traces, point = run_corpus(cfg)
        ok &= point.ne == 0.0
        for tr in traces:
            outputs = [rec.emitted_output for rec in tr.records]
            ok &= all(a == b[: len(a)] for a, b in zip(outputs, outputs[1:]))
    report(
        "criterion 5: prefix-stable translator, zero erasure for none and "
        "every dynamic predictor",
        ok,
    )


# ---------------------------------------------------------------------------
# 6. Pareto reproduction
# ---------------------------------------------------------------------------


def test_criterion_6_pareto_reproduction(pinned_sweep):
    points = pinned_sweep["points"]
    mask_points = [p for label, p in points.items() if label.startswith("mask_k=")]
    dyn_points = [p for label, p in points.items() if label.startswith("dynamic:")]
    assert len(mask_points) == 10 and len(dyn_points) == 3
    dominated = sum(
        1
        for mp in mask_points
        if any(
            dp.al <= mp.al and dp.ne <= mp.ne and (dp.al < mp.al or dp.ne < mp.ne)
            for dp in dyn_points
        )
    )
    elapsed = pinned_sweep["elapsed"]
    ok = dominated >= 8 and elapsed < 120.0
    report(
        "criterion 6: dynamic configs Pareto-dominate fixed masks",
        ok,
        f"{dominated}/10 mask points dominated, sweep {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. Histogram skew
# ---------------------------------------------------------------------------


def test_criterion_7_mask_histogram_skew(pinned_sweep):
    traces = pinned_sweep["traces"]["dynamic:lm_greedy,k=1,n=1"]
    hist = mask_histogram(traces)
    masks = [m for m, c in hist.items() for _ in range(c)]
    median = statistics.median(masks)
    mean = statistics.mean(masks)
    small = sum(c for m, c in hist.items() if m <= 2) / sum(hist.values())
    ok = median < mean and small >= 0.60
    report(
        "criterion 7: mask histogram is right-skewed",
        ok,
        f"median {median} < mean {mean:.2f}, {small:.0%} of masks <= 2",
    )


# ---------------------------------------------------------------------------
# 8. Scripted regressions from known translation sessions
# ---------------------------------------------------------------------------


def _dynamic_session(script_path: Path, source: str, reference: str) -> SessionTrace:
    cfg = RunConfig(
        source_path="unused",
        reference_path="unused",
        translator={"kind": "scripted", "script_path": str(script_path)},
        strategy=StrategyConfig(
            "dynamic", predictor=PredictorConfig("unknown", k=1)
        ),
    )
    models = Models(translator=load_script(script_path))
    pair = pairs_from([source], [reference])[0]
    trace = run_sentence(cfg, pair, models)
    validate_trace(trace, cfg.strategy)
    return trace


def test_criterion_8_scripted_regressions():
    ok = True

    # over-eager sentence completion: the short prefix translates long,
    # the longer prefix revises completely
    reorder = load_script(DATA / "reorder.tsv")
    ok &= reorder.translate(("Several",)).tokens == ("Mehrere", "Male")
    ok &= reorder.translate(seq("Several years ago")).tokens == ("Vor", "einigen", "Jahre")

    # unstable suffix is masked back to the agreeing prefix
    trace = _dynamic_session(DATA / "stable_prefix.tsv", "a b c", "p q s t")
    outputs = [rec.emitted_output for rec in trace.records]
    ok &= outputs[1] == ("p", "q")
    ok &= outputs[2] == ("p", "q", "s", "t")

    # statement/question word-order uncertainty: conservative single token
    trace = _dynamic_session(
        DATA / "question_order.tsv", "But you know what?", "Aber wissen Sie was?"
    )
    outputs = [rec.emitted_output for rec in trace.records]
    ok &= outputs[2] == ("Aber",)
    ok &= outputs[3] == seq("Aber wissen Sie was?")

    # freeze rule: early flicker re-emits the previous display unchanged
    trace = _dynamic_session(
        DATA / "early_flicker.tsv",
        "to paraphrase : it's not the strongest of the world",
        "Zum paraphrasen: Es ist nicht die stärksten der Welt",
    )
    outputs = [rec.emitted_output for rec in trace.records]
    shown = seq("Um zu paraphrasen: Es ist nicht die Stärke der Dinge")
    ok &= outputs[7] == shown
    ok &= outputs[8] == shown  # re-emitted despite the hypothesis flickering
    ok &= trace.records[8].raw_hypothesis[2] == "Paraphrasen:"  # flicker was real
    ok &= outputs[9] == seq("Zum paraphrasen: Es ist nicht die stärksten der Welt")
    report("criterion 8: known-session regressions reproduce every displayed output", ok)


# ---------------------------------------------------------------------------
# 9. Metric replay and parallel determinism
# ---------------------------------------------------------------------------


def test_criterion_9_replay_and_parallel_determinism(pinned, tmp_path):
    make = pinned["config"]
    configs = [
        make(StrategyConfig("oracle")),
        make(StrategyConfig("mask_k", k_mask=5)),
        make(StrategyConfig("dynamic", predictor=PredictorConfig("lm_greedy", k=1))),
        make(StrategyConfig("dynamic", predictor=PredictorConfig("lm_sample", k=3, n=3))),
        make(StrategyConfig("none", bias_beta=0.5)),
    ]
    ok = True
    for idx, cfg in enumerate(configs):
        traces, online = run_corpus(cfg)
        path = tmp_path / f"replay_{idx}.jsonl"
        write_traces(path, traces, cfg)
        _, loaded = read_traces(path)
        from retransim.metrics import aggregate

        replayed = aggregate(cfg.strategy.label, loaded, ne_mode=cfg.ne_mode)
        ok &= replayed == online  # bit-identical floats

        par_path = tmp_path / f"replay_{idx}_par8.jsonl"
        par_cfg = dataclasses.replace(cfg, parallelism=8)
        par_traces, _ = run_corpus(par_cfg)
        write_traces(par_path, par_traces, par_cfg)
        ok &= path.read_bytes() == par_path.read_bytes()
    report(
        "criterion 9: replayed metrics bit-identical; parallelism 1 == 8",
        ok,
        f"{len(configs)} configs",
    )


# ---------------------------------------------------------------------------
# 10. BLEU sanity
# ---------------------------------------------------------------------------


def test_criterion_10_bleu_sanity():
    hyps = [seq("a b c d"), seq("kini tugu ."), seq("x")]
    ok = corpus_bleu(hyps, hyps) == 100.0
    analytic = 100.0 * (3 / 4 * 2 / 3 * 1 / 2 * 1 / 2) ** 0.25
    got = corpus_bleu([seq("a b c d")], [seq("a b c e")])
    ok &= abs(got - analytic) <= 1e-6
    report(
        "criterion 10: BLEU sanity (identical=100, derived example)",
        ok,
        f"example {got:.6f} vs {analytic:.6f}",
    )
