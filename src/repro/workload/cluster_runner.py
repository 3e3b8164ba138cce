"""The multi-image spelling of the one runner (:mod:`repro.workload.runner`):
the same class and result under the names the multi-client callers use."""

from __future__ import annotations

from .runner import WorkloadResult as ClusterWorkloadResult, WorkloadRunner


class ClusterWorkloadRunner(WorkloadRunner):
    """A ``WorkloadRunner`` whose ``run`` takes one image per client stream."""

    run = WorkloadRunner.run_streams
