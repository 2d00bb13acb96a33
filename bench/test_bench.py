"""Tests of the benchmark itself: output checks, tracer hygiene, exact counts.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import dataclasses
import json

import harness
import pytest
import tracer as tracing
from conftest import ROOT
from harness import GOLDEN_SEED, Context, Tally

from retransim import cli, metrics, predict, sim, strategy, translator
from retransim.strategy import StrategyConfig

MODULES = (cli, metrics, predict, sim, strategy, translator)
CLASSES = (translator.CachingTranslator, translator.ToyLexicalTranslator)


def _namespaces() -> dict[tuple[str, str], object]:
    found = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    found.update({(c.__name__, k): v for c in CLASSES for k, v in vars(c).items()})
    return found


def test_wrappers_put_every_function_back():
    before = _namespaces()
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert sim.run_sentence is not before[("retransim.sim", "run_sentence")]
            assert cli.load_models is sim.load_models
            assert translator.CachingTranslator.translate is not before[
                ("CachingTranslator", "translate")
            ]
            1 / 0
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.fixture(scope="module")
def one_cell():
    """The golden-seed mask_k=2 cell, run once, as the replay workload's only cell."""
    base = harness.prepare(GOLDEN_SEED)
    cell = StrategyConfig("mask_k", k_mask=2)
    traces, point = sim.run_corpus(harness.cell_config(base, cell))
    return base, cell, traces, point


def _replay_fail_frac(one_cell, expect=None, traces=None) -> float:
    base, cell, good_traces, point = one_cell
    ctx = Context(
        base=base,
        expect=expect if expect is not None else harness.load_golden(GOLDEN_SEED),
        golden=True,
    )
    ctx.results = [(cell, point, traces or good_traces)]
    ctx.histograms = {cell.label: cli.mask_histogram(good_traces)}
    tally = Tally()
    harness.replay_check(ctx, harness.replay_pass(ctx), tally)
    harness.strategies_check(ctx, [(harness.cell_config(base, cell), traces or good_traces, point)], tally)
    return tally.failed / tally.attempted


def test_untampered_cell_passes(one_cell):
    assert _replay_fail_frac(one_cell) == 0.0


def test_one_changed_token_in_a_trace_fails(one_cell):
    traces = list(one_cell[2])
    first = traces[0]
    last = first.records[-1]
    token = "zz" + last.emitted_output[0]
    changed = (token,) + last.emitted_output[1:]
    last = dataclasses.replace(last, raw_hypothesis=changed, emitted_output=changed)
    traces[0] = dataclasses.replace(
        first, records=first.records[:-1] + (last,), final_output=changed
    )
    assert _replay_fail_frac(one_cell, traces=traces) == 1.0


@pytest.mark.parametrize("key", ["sha256", "al", "ne", "bleu"])
def test_one_changed_golden_value_fails(one_cell, key):
    expect = harness.load_golden(GOLDEN_SEED)
    label = one_cell[1].label
    value = expect[label][key]
    expect[label] = dict(expect[label], **{key: value[:-1] + ("1" if value[-1] != "1" else "2")})
    assert _replay_fail_frac(one_cell, expect=expect) == 1.0


def test_serial_sweep_counts_repeat_exactly():
    ctx, _, _ = harness.set_up("sweep-pinned", GOLDEN_SEED)
    tally = Tally()
    tracer = tracing.Tracer()
    counts = []
    for _ in range(2):
        with tracer.installed():
            out = harness.sweep_pass(ctx)
        row = harness.layer_values(*tracer.take())
        counts.append((row["translator.calls"], row["translator.misses"]))
        harness.sweep_check(ctx, out, tally)
    assert counts == [(44160, 15282)] * 2
    assert (tally.attempted, tally.failed) == (26, 0)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(harness.LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(harness.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
