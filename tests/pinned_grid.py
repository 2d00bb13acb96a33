"""Run a sweep spec and print each cell's trace digest and metric reprs.

    PYTHONPATH=src python tests/pinned_grid.py SPEC.json

Run it from the directory that the spec's relative paths start in. It is
a plain script, so that interpreters without pytest or numpy can run
it: it imports only retransim.sim and the standard library. It prints
one JSON object: the interpreter's version, whether the compiled decoder
kernel loaded, and per cell label the fields of bench/golden.json (the
sha256 of the cell's trace file and the reprs of its AL, NE and BLEU).
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


def main(spec_path: str) -> None:
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
