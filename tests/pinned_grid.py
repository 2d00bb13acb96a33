"""Write the pinned inputs, run a sweep spec over them and print each
cell's trace digest and metric reprs.

    PYTHONPATH=src python tests/pinned_grid.py SPEC.json

Run it from the directory that the spec's relative paths start in. It
first writes the pinned synthetic corpus and its order-3 LM under
inputs/ there, as the benchmark does, so the corpus generator's floats
are this interpreter's too. It is a plain script, so that interpreters
without pytest can run it: it imports only retransim and the standard
library. It prints one JSON object: the interpreter's version, whether
the compiled decoder kernel loaded, and per cell label the fields of
bench/golden.json (the sha256 of the cell's trace file and the reprs of
its AL, NE and BLEU).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import retransim.sim as sim
from retransim.core import read_lines, tokenize
from retransim.predict import save_lm, train_lm
from retransim.synthetic import write_synthetic


def main(spec_path: str) -> None:
    paths = write_synthetic("inputs")
    sentences = [tokenize(line) for line in read_lines(paths["source"])]
    save_lm(train_lm(sentences, order=3, smoothing_alpha=0.1), "inputs/lm.json")
    spec = sim.load_sweep_spec(spec_path)
    cells = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cell.jsonl"
        for cell, point, traces in sim.run_sweep(spec):
            sim.write_traces(path, traces, dataclasses.replace(spec.base, strategy=cell))
            cells[cell.label] = {
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                "al": repr(point.al),
                "ne": repr(point.ne),
                "bleu": repr(point.bleu),
            }
    report = {
        "python": platform.python_version(),
        "kernel": sys.modules["retransim.translator"]._kernel is not None,
        "cells": cells,
    }
    print(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1])
