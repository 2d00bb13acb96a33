"""Golden trace digests of the pinned criterion-6 sweep.

The benchmark records, in bench/golden.json, the sha256 of every cell's
trace file and the repr of its AL, NE and BLEU, from a serial run at
decoder seed 42. This test rebuilds the benchmark's inputs under the same
relative paths (so the run headers, and with them the digests, match) and
runs the grid through the sweep's worker-process path. Any change to the
decoder, the policies, the metrics or the trace format shows here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from retransim.cli import SweepSpec, run_sweep
from retransim.core import read_lines, tokenize
from retransim.predict import PredictorConfig, save_lm, train_lm
from retransim.sim import RunConfig, write_traces
from retransim.strategy import StrategyConfig
from retransim.synthetic import toy_translator_spec, write_synthetic

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


def test_pinned_sweep_matches_golden_digests(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    paths = write_synthetic(Path("inputs"))
    lm_path = Path("inputs") / "lm.json"
    sentences = [tokenize(line) for line in read_lines(paths["source"])]
    save_lm(train_lm(sentences, order=3, smoothing_alpha=0.1), lm_path)
    translator = toy_translator_spec(paths["lexicon"], instability=0.5)
    base = RunConfig(
        source_path=paths["source"],
        reference_path=paths["reference"],
        translator=dict(translator, seed=golden["seed"]),
        strategy=StrategyConfig("none"),
        lm_path=str(lm_path),
        parallelism=2,
    )
    spec = SweepSpec(
        base=base,
        k_mask=tuple(range(1, 11)),
        dynamic_cells=(
            PredictorConfig("lm_greedy", k=1, n=1),
            PredictorConfig("random", k=5, n=3),
            PredictorConfig("lm_sample", k=3, n=3),
        ),
    )
    results = run_sweep(spec)
    assert len(results) == 13
    for cell, point, traces in results:
        path = tmp_path / "cell.jsonl"
        write_traces(path, traces, dataclasses.replace(base, strategy=cell))
        seen = {
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "al": repr(point.al),
            "ne": repr(point.ne),
            "bleu": repr(point.bleu),
        }
        assert seen == golden["cells"][cell.label], cell.label
