"""Shared helpers for the benchmark harness (imported by conftest and the
individual benchmark modules)."""

from __future__ import annotations

import dataclasses
import os

from repro.analysis.overhead import SweepConfig
from repro.util import KIB, MIB
from repro.workload.spec import PAPER_IO_SIZES, WorkloadSpec

#: reduced sweep used unless REPRO_BENCH_FULL=1
REDUCED_IO_SIZES = (4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, 1024 * KIB,
                    4096 * KIB)

_JOB_FIELDS = {field.name for field in dataclasses.fields(WorkloadSpec)}


def bench_full() -> bool:
    """True when the full paper sweep was requested via the environment."""
    return os.environ.get("REPRO_BENCH_FULL", "0") not in ("0", "", "false")


def sweep_config(**overrides) -> SweepConfig:
    """The sweep configuration used by the figure benchmarks.

    ``WorkloadSpec`` keywords (``queue_depth``, ``batched``,
    ``num_clients``, ...) go into the sweep's job; the rest are
    ``SweepConfig`` fields.
    """
    if bench_full():
        base = dict(io_sizes=PAPER_IO_SIZES, image_size=64 * MIB,
                    bytes_per_point=16 * MIB, max_ios=256)
    else:
        base = dict(io_sizes=REDUCED_IO_SIZES, image_size=32 * MIB,
                    bytes_per_point=8 * MIB, max_ios=128)
    job = {name: overrides.pop(name) for name in list(overrides)
           if name in _JOB_FIELDS}
    base.update(overrides)
    return SweepConfig(job=dataclasses.replace(SweepConfig().job, **job),
                       **base)
