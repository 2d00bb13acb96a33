"""Workloads, output checks and metrics of the retransim benchmark.

Each workload prepares its inputs for the seed (timed as set-up), then
repeats a pass until the run's seconds are spent. Every pass is checked
after its timed part: traces validate against their cell's strategy,
metrics replayed from the written traces equal the online ones bit for
bit, and trace digests and AL/NE/BLEU reprs equal the golden values at
the golden seed, or the run's first pass at any other seed. An operation
(a sweep cell, a strategy run or a replayed trace file) fails if it
raises or if any of these checks fails.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import resource
import statistics
import time
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import adapter
from tracer import CACHE, DECODE, Tracer, self_times

from retransim import metrics, sim
from retransim.core import read_corpus, read_lines, tokenize
from retransim.predict import PredictorConfig, save_lm, train_lm
from retransim.strategy import StrategyConfig
from retransim.synthetic import toy_translator_spec, write_synthetic

# Inputs and trace files go under the working directory, by relative
# paths, so that trace headers and golden digests are the same wherever a
# run happens; run_bench.py gives each run a private working directory.
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEED = 42
SETUP_REPS = 9
INSTABILITY = 0.5
# sentences simulated concurrently on strategies-par
JOBS = min(2, len(os.sched_getaffinity(0)))

# the criterion-6 grid of the acceptance suite
SWEEP_MASKS = tuple(range(1, 11))
SWEEP_DYNAMIC = (
    PredictorConfig("lm_greedy", k=1, n=1),
    PredictorConfig("random", k=5, n=3),
    PredictorConfig("lm_sample", k=3, n=3),
)
# one run per strategy kind, plus biased decoding, as `retransim run` does them
STRATEGIES = (
    StrategyConfig("none"),
    StrategyConfig("mask_k", k_mask=2),
    StrategyConfig("dynamic", predictor=PredictorConfig("lm_sample", k=3, n=3)),
    StrategyConfig("oracle"),
    StrategyConfig("none", bias_beta=0.5),
    StrategyConfig("dynamic", predictor=PredictorConfig("lm_greedy", k=1), bias_beta=0.5),
)


@dataclass
class Tally:
    """Operations attempted and failed, with the first problem of each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {problems[0]}")


@dataclass
class Context:
    """A workload's prepared inputs and the values its outputs must match."""

    base: sim.RunConfig
    expect: dict[str, dict]
    golden: bool
    sessions: int = 0
    spec: object = None
    results: list = field(default_factory=list)
    histograms: dict = field(default_factory=dict)


def prepare(seed: int) -> sim.RunConfig:
    """The pinned corpus, references, lexicon and LM, and one model load.

    The seed is the toy decoder's noise seed: it changes the hypotheses
    and so every output, but not which source prefixes and probes get
    translated, so the amount of decoding stays put. Seeding the corpus
    instead makes the sweep's decoder work vary by an interquartile range
    of about 11% from seed to seed, wider than the regressions the bounds
    should catch. Seed 42 is the pinned decoder of the acceptance suite.
    """
    data = Path("inputs")
    paths = write_synthetic(data)
    sentences = [tokenize(line) for line in read_lines(paths["source"])]
    lm_path = data / "lm.json"
    save_lm(train_lm(sentences, order=3, smoothing_alpha=0.1), lm_path)
    translator = toy_translator_spec(paths["lexicon"], instability=INSTABILITY)
    base = sim.RunConfig(
        source_path=paths["source"],
        reference_path=paths["reference"],
        translator=dict(translator, seed=seed),
        strategy=StrategyConfig("none"),
        lm_path=str(lm_path),
    )
    sim.load_models(base, read_corpus(base.source_path, base.reference_path))
    return base


def load_golden(seed: int) -> dict[str, dict]:
    if seed != GOLDEN_SEED:
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["cells"]


def trace_path(kind: str, label: str) -> Path:
    folder = Path(kind)
    folder.mkdir(parents=True, exist_ok=True)
    return folder / (re.sub(r"[^A-Za-z0-9._=,+-]", "_", label) + ".jsonl")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def observed(path: Path, point: metrics.TradeoffPoint) -> dict:
    return {"sha256": digest(path), "al": repr(point.al), "ne": repr(point.ne), "bleu": repr(point.bleu)}


def compare(ctx: Context, label: str, seen: dict) -> list[str]:
    """Differences from the expected values; the first pass sets them off the golden seed."""
    want = ctx.expect.get(label)
    if want is None:
        if ctx.golden:
            return [f"no golden value for {label!r}"]
        ctx.expect[label] = seen
        return []
    return [f"{key} {seen[key]} != expected {want[key]}" for key in want if seen[key] != want[key]]


def check_cell(ctx: Context, cfg: sim.RunConfig, traces: list, point) -> list[str]:
    """Validate, write, read back and re-score one cell's traces."""
    problems = []
    for trace in traces:
        try:
            sim.validate_trace(trace, cfg.strategy)
        except sim.TraceError as exc:
            problems.append(f"invalid trace: {exc}")
            break
    path = trace_path("check", cfg.strategy.label)
    try:
        sim.write_traces(path, traces, cfg)
        _, loaded = sim.read_traces(path)
        replayed = metrics.aggregate(cfg.strategy.label, loaded, ne_mode=cfg.ne_mode)
    except Exception as exc:
        return problems + [f"replay raised {exc_text(exc)}"]
    if replayed != point:
        problems.append("replayed metrics differ from the online ones")
    return problems + compare(ctx, cfg.strategy.label, observed(path, point))


def cell_config(base: sim.RunConfig, cell: StrategyConfig) -> sim.RunConfig:
    return dataclasses.replace(base, strategy=cell)


# --- sweep-pinned -----------------------------------------------------------


def sweep_setup(ctx: Context) -> None:
    ctx.spec = adapter.sweep_spec(ctx.base, SWEEP_MASKS, SWEEP_DYNAMIC)
    ctx.sessions = len(ctx.spec.cells()) * len(read_lines(ctx.base.source_path))


def sweep_pass(ctx: Context):
    try:
        return adapter.run_sweep(ctx.spec)
    except Exception as exc:  # a failed sweep fails every cell
        return exc


def sweep_check(ctx: Context, out, tally: Tally) -> None:
    if isinstance(out, Exception):
        for cell in ctx.spec.cells():
            tally.record(cell.label, [f"sweep raised {exc_text(out)}"])
        return
    for cell, point, traces in out:
        tally.record(cell.label, check_cell(ctx, cell_config(ctx.base, cell), traces, point))


# --- strategies-par ---------------------------------------------------------


def strategies_setup(ctx: Context) -> None:
    ctx.sessions = len(STRATEGIES) * len(read_lines(ctx.base.source_path))


def strategies_pass(ctx: Context):
    out = []
    for cell in STRATEGIES:
        cfg = adapter.with_jobs(cell_config(ctx.base, cell), JOBS)
        try:
            out.append((cfg, *sim.run_corpus(cfg)))
        except Exception as exc:
            out.append((cfg, exc, None))
    return out


def strategies_check(ctx: Context, out, tally: Tally) -> None:
    for cfg, traces, point in out:
        label = cfg.strategy.label
        if isinstance(traces, Exception):
            tally.record(label, [f"run raised {exc_text(traces)}"])
        else:
            tally.record(label, check_cell(ctx, cfg, traces, point))


# --- trace-replay -----------------------------------------------------------


def replay_setup(ctx: Context) -> None:
    """Produce the sweep-pinned traces that each pass writes and replays."""
    sweep_setup(ctx)
    ctx.results = adapter.run_sweep(ctx.spec)
    ctx.histograms = {cell.label: adapter.mask_histogram(tr) for cell, _, tr in ctx.results}
    ctx.sessions = sum(len(tr) for _, _, tr in ctx.results)


def replay_pass(ctx: Context):
    out = []
    for cell, _, traces in ctx.results:
        cfg = cell_config(ctx.base, cell)
        path = trace_path("replay", cell.label)
        try:
            sim.write_traces(path, traces, cfg)
            _, loaded = sim.read_traces(path)
            for trace in loaded:
                sim.validate_trace(trace, cell)
            point = metrics.aggregate(cell.label, loaded, ne_mode=cfg.ne_mode)
            out.append((path, loaded, point, adapter.mask_histogram(loaded)))
        except Exception as exc:
            out.append((path, exc, None, None))
    return out


def replay_check(ctx: Context, out, tally: Tally) -> None:
    for (cell, online, traces), (path, loaded, point, hist) in zip(ctx.results, out):
        if isinstance(loaded, Exception):
            tally.record(cell.label, [f"replay raised {exc_text(loaded)}"])
            continue
        problems = []
        if loaded != traces:
            problems.append("traces read back differ from the traces written")
        if point != online:
            problems.append("replayed metrics differ from the online ones")
        if hist != ctx.histograms[cell.label]:
            problems.append("replayed mask histogram differs from the online one")
        tally.record(cell.label, problems + compare(ctx, cell.label, observed(path, point)))


def exc_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Context], None]
    run_pass: Callable[[Context], object]
    check: Callable[[Context, object, Tally], None]


WORKLOADS = {
    "sweep-pinned": Workload(sweep_setup, sweep_pass, sweep_check),
    "strategies-par": Workload(strategies_setup, strategies_pass, strategies_check),
    "trace-replay": Workload(replay_setup, replay_pass, replay_check),
}


# --- measurement ------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    traced: bool
    spans: list = field(default_factory=list)
    cache_entries: int = 0


def set_up(name: str, seed: int, tracer: Tracer | None = None):
    """Prepare inputs SETUP_REPS times; returns the context, set-up seconds and spans.

    Set-up time is the median preparation plus the workload's own set-up,
    which for trace-replay produces the traces it replays and runs once.
    """
    times = []
    spans: list = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        with tracer.installed() if tracer else nullcontext():
            base = prepare(seed)
        times.append(time.perf_counter() - start)
        if tracer:
            spans += tracer.take()[0]
    ctx = Context(base=base, expect=load_golden(seed), golden=seed == GOLDEN_SEED)
    start = time.perf_counter()
    WORKLOADS[name].setup(ctx)
    return ctx, statistics.median(times) + time.perf_counter() - start, spans


def measure(name: str, ctx: Context, seconds: float, tally: Tally, tracer: Tracer | None = None) -> list[Pass]:
    """Passes until `seconds` have gone by; with a tracer, every other pass is traced."""
    workload = WORKLOADS[name]
    passes: list[Pass] = []
    began = time.perf_counter()
    while (
        time.perf_counter() - began < seconds
        or (tracer is not None and len(passes) < 2)
    ):
        traced = tracer is not None and len(passes) % 2 == 1
        with tracer.installed() if traced else nullcontext():
            cpu = time.process_time()
            start = time.perf_counter()
            out = workload.run_pass(ctx)
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu
        record = Pass(wall, cpu, traced)
        if traced:
            record.spans, record.cache_entries = tracer.take()
        passes.append(record)
        workload.check(ctx, out, tally)
        out = None  # so that peak memory holds one pass's outputs, not two
    return passes


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any waited-for child, in MiB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


END_TO_END_UNITS = {"wall_s": "s", "sessions_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def end_to_end(ctx: Context, setup_s: float, passes: list[Pass]) -> dict[str, tuple[float, str, int]]:
    walls = [p.wall_s for p in passes]
    values = {
        "wall_s": (statistics.median(walls), len(walls)),
        "sessions_per_s": (statistics.median(ctx.sessions / w for w in walls), len(walls)),
        "setup_s": (setup_s, SETUP_REPS),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    return {key: (value, END_TO_END_UNITS[key], n) for key, (value, n) in values.items()}


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_values(spans: list[tuple], cache_entries: int) -> dict[str, float]:
    """Per-layer counts and busy seconds of one traced pass."""
    own = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def total(name: str) -> float:
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    decodes = by_name.get(DECODE, [])
    cache_ids = {s[0] for s in by_name.get(CACHE, ())}
    calls = len(cache_ids)
    misses_in_cache = sum(1 for s in decodes if s[4] in cache_ids)
    emits = [s for name, group in by_name.items() if name.startswith("strategy.emit_") for s in group]
    sessions = by_name.get("sim.run_sentence", [])
    return {
        "translator.misses": len(decodes),
        "translator.decode_s": total(DECODE),
        "translator.calls": calls,
        "translator.hits": calls - misses_in_cache,
        "translator.hit_ratio": (calls - misses_in_cache) / calls if calls else 0.0,
        "translator.cache_entries": cache_entries,
        "translator.cache_self_s": sum(own[i] for i in cache_ids),
        "predict.calls": len(by_name.get("predict.predict_extensions", ())),
        "predict.probes": sum(s[6] or 0 for s in by_name.get("predict.predict_extensions", ())),
        "predict.s": total("predict.predict_extensions"),
        "strategy.emit_calls": len(emits),
        "strategy.emit_s": sum(s[3] - s[2] for s in emits),
        "sim.sessions": len(sessions),
        "sim.self_s": sum(own[s[0]] for s in sessions),
        "sim.write_traces_s": total("sim.write_traces"),
        "sim.read_traces_s": total("sim.read_traces"),
        "sim.validate_s": total("sim.validate_trace"),
        "sim.trace_bytes": sum(s[6] or 0 for s in by_name.get("sim.write_traces", ())),
        "metrics.aggregate_calls": len(by_name.get("metrics.aggregate", ())),
        "metrics.aggregate_s": total("metrics.aggregate"),
        "cli.run_sweep_s": total("cli.run_sweep"),
        "cli.mask_histogram_s": total("cli.mask_histogram"),
    }


LAYER_UNITS = {
    "translator.misses": "count",
    "translator.decode_s": "s",
    "translator.miss_us_p50": "us",
    "translator.miss_us_p99": "us",
    "translator.calls": "count",
    "translator.hits": "count",
    "translator.hit_ratio": "ratio",
    "translator.cache_entries": "count",
    "translator.cache_self_s": "s",
    "predict.calls": "count",
    "predict.probes": "count",
    "predict.s": "s",
    "strategy.emit_calls": "count",
    "strategy.emit_s": "s",
    "sim.sessions": "count",
    "sim.session_ms_p50": "ms",
    "sim.session_ms_p99": "ms",
    "sim.self_s": "s",
    "sim.load_models_s": "s",
    "sim.write_traces_s": "s",
    "sim.read_traces_s": "s",
    "sim.validate_s": "s",
    "sim.trace_bytes": "bytes",
    "metrics.aggregate_calls": "count",
    "metrics.aggregate_s": "s",
    "cli.run_sweep_s": "s",
    "cli.mask_histogram_s": "s",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "bench.trace_overhead_s": "s",
}


def per_layer(setup_spans: list[tuple], passes: list[Pass]) -> dict[str, tuple[float, str, int]]:
    """Medians over traced passes; CPU figures come from the untraced ones."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    rows = [layer_values(p.spans, p.cache_entries) for p in traced]
    values = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    miss_us = [(s[3] - s[2]) * 1e6 for p in traced for s in p.spans if s[1] == DECODE]
    session_ms = [(s[3] - s[2]) * 1e3 for p in traced for s in p.spans if s[1] == "sim.run_sentence"]
    loads = [s[3] - s[2] for s in setup_spans if s[1] == "sim.load_models"]
    cpu = statistics.median(p.cpu_s for p in plain)
    plain_wall = statistics.median(p.wall_s for p in plain)
    values.update(
        {
            "translator.miss_us_p50": _quantile(miss_us, 0.5),
            "translator.miss_us_p99": _quantile(miss_us, 0.99),
            "sim.session_ms_p50": _quantile(session_ms, 0.5),
            "sim.session_ms_p99": _quantile(session_ms, 0.99),
            "sim.load_models_s": statistics.median(loads),
            "process.cpu_s": cpu,
            "process.cpu_util": cpu / plain_wall,
            "bench.trace_overhead_s": statistics.median(p.wall_s for p in traced) - plain_wall,
        }
    )
    samples = {
        "translator.miss_us_p50": len(miss_us),
        "translator.miss_us_p99": len(miss_us),
        "sim.session_ms_p50": len(session_ms),
        "sim.session_ms_p99": len(session_ms),
        "sim.load_models_s": len(loads),
        "process.cpu_s": len(plain),
        "process.cpu_util": len(plain),
    }
    return {key: (values[key], unit, samples.get(key, len(traced))) for key, unit in LAYER_UNITS.items()}


def write_spans(path: Path, setup_spans: list[tuple], passes: list[Pass]) -> None:
    """One JSON array per span: [group, id, name, start, end, parent, sentence_id, size]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        groups = [("setup", setup_spans)] + [(f"pass{i}", p.spans) for i, p in enumerate(passes) if p.traced]
        for group, spans in groups:
            for span in spans:
                fh.write(json.dumps([group, *span]))
                fh.write("\n")


def run(name: str, seed: int, seconds: float, spans_path: Path | None) -> tuple[dict, dict, list[str]]:
    """One benchmark run: the result object, sample counts and failure messages.

    With a spans path the run is traced: it reports the per-layer metrics
    and writes its spans there.
    """
    trace = spans_path is not None
    tally = Tally()
    tracer = Tracer() if trace else None
    ctx, setup_s, setup_spans = set_up(name, seed, tracer)
    passes = measure(name, ctx, seconds, tally, tracer)
    if trace:
        found = per_layer(setup_spans, passes)
        write_spans(spans_path, setup_spans, passes)
    else:
        found = end_to_end(ctx, setup_s, passes)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit, _) in found.items()},
    }
    return result, {key: n for key, (_, _, n) in found.items()}, tally.problems


def write_golden() -> None:
    """Record the golden values: every cell of both simulating workloads, serially."""
    ctx = Context(base=prepare(GOLDEN_SEED), expect={}, golden=False)
    tally = Tally()
    sweep_setup(ctx)
    sweep_check(ctx, sweep_pass(ctx), tally)
    for cell in STRATEGIES:
        cfg = cell_config(ctx.base, cell)
        traces, point = sim.run_corpus(cfg)
        tally.record(cell.label, check_cell(ctx, cfg, traces, point))
    if tally.failed:
        raise SystemExit("golden cells failed their checks: " + "; ".join(tally.problems))
    GOLDEN_PATH.write_text(
        json.dumps({"seed": GOLDEN_SEED, "cells": dict(sorted(ctx.expect.items()))}, indent=1) + "\n",
        encoding="utf-8",
    )
