"""fio-like workload generation and benchmark running.

The paper drives its prototype with fio (random read / random write, IO
sizes 4 KiB to 4 MiB, queue depth 32, ten repeats) and reports bandwidth.
This package reproduces that harness against the simulated cluster: a
workload specification, a deterministic request generator, and a runner
that executes requests against an (encrypted) image, collects the cost
ledger delta and converts it into simulated bandwidth via the performance
model.
"""

from .spec import IORequest, WorkloadSpec, PAPER_IO_SIZES
from .generator import generate_requests
from .arrival import (ArrivalProcess, PoissonArrivals, TraceArrivals,
                      arrival_process_for, arrival_schedule)
from .runner import (WorkloadResult, WorkloadRunner, capture_template_stream,
                     prefill_image)

__all__ = [
    "IORequest", "WorkloadSpec", "PAPER_IO_SIZES", "generate_requests",
    "ArrivalProcess", "PoissonArrivals", "TraceArrivals",
    "arrival_process_for", "arrival_schedule",
    "WorkloadResult", "WorkloadRunner", "prefill_image",
    "capture_template_stream",
]
