"""The package names that the planned refactors move, reached in one place.

The harness touches ``cli.SweepSpec``, ``cli.run_sweep``,
``cli.mask_histogram`` and ``RunConfig.parallelism`` only through this
module. A change that moves one of these names either keeps the old name
importable, or first lands the matching edit here as its own
benchmark-only change, so that parent and child run identical benchmark
code. The functions look the names up on every call, which is also what
lets the tracer's wrappers be seen.
"""

from __future__ import annotations

import dataclasses

from retransim import cli
from retransim.sim import RunConfig

# the module that defines SweepSpec, run_sweep and mask_histogram; the
# tracer wraps the last two there
sweeps = cli


def sweep_spec(base: RunConfig, k_mask: tuple[int, ...], dynamic_cells: tuple):
    return sweeps.SweepSpec(base=base, k_mask=k_mask, dynamic_cells=dynamic_cells)


def run_sweep(spec) -> list:
    """Serial sweep with one shared translator: (cell, point, traces) by label."""
    return sweeps.run_sweep(spec)


def mask_histogram(traces: list) -> dict[int, int]:
    return sweeps.mask_histogram(traces)


def with_jobs(cfg: RunConfig, jobs: int) -> RunConfig:
    """The run config with `jobs` sentences simulated concurrently."""
    return dataclasses.replace(cfg, parallelism=jobs)
