"""Host-time performance ledger for the encrypted-RBD reproduction.

``benchmarks/`` gates *modelled* numbers (simulated µs, MB/s, write-amp);
this package measures the other clock: the real seconds of Python it
takes to push I/O through the stack, end to end and per layer.  See
``perf/README.md``.

The package drives the program only through its public functions, so it
needs ``src/`` importable; the path is added here so ``python3
perf/run.py`` works from a bare checkout without ``PYTHONPATH``.
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
