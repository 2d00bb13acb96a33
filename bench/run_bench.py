#!/usr/bin/env python3
"""Run one workload of the retransim benchmark and print its metrics.

    python3 bench/run_bench.py --workload sweep-pinned --seed 42 --seconds 20 --trace 0

Workloads: sweep-pinned, strategies-par, trace-replay (see bench/README.md).
With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The package is imported from
``src/`` of the repository this file sits in; inputs and trace files go
to a private directory under ``.bench_work/`` at that repository's root,
removed at the end, and the spans of a traced run to
``.bench_work/spans-<workload>.jsonl``. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; a run whose
outputs fail their checks still exits 0, with "correct": false.

    python3 bench/run_bench.py --write-golden

re-records bench/golden.json from a serial run at the golden seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-pinned", "strategies-par", "trace-replay")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "retransim" / "__init__.py").is_file():
        print(f"run_bench: no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    # a private working directory, so that concurrent runs in one checkout
    # never read each other's half-written inputs
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    private = tempfile.mkdtemp(prefix="run-", dir=work)
    os.chdir(private)
    try:
        if args.write_golden:
            harness.write_golden()
            return 0
        spans = work / f"spans-{args.workload}.jsonl" if args.trace else None
        result, samples, problems = harness.run(args.workload, args.seed, args.seconds, spans)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(private)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for key, metric in result["metrics"].items():
        print(f"{key:<26} {metric['value']:>16.6f} {metric['unit']:<6} n={samples[key]}")
    print(f"{'fail_frac':<26} {result['failed'] / result['attempted']:>16.6f} of {result['attempted']} operations")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
