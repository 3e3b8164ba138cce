"""Small shared helpers: byte manipulation, integer packing, size parsing.

Used across the crypto, storage and workload subsystems.  Standard
library only, except :func:`xor_bytes`, whose large-buffer kernel is numpy.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, RbdError

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in [0, 100]; 0.0 for an empty sample).

    The single shared implementation behind both the workload statistics
    helpers and the performance model's latency percentiles.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


#: from this many bytes up :func:`xor_bytes` XORs through numpy; below it
#: the big-integer path's lower fixed cost wins.  Measured us per call,
#: big-int / numpy: 0.41 / 1.2 at 16 B, 1.1 / 1.2 at 256 B, 1.8 / 1.3 at
#: 512 B, 11.5 / 1.4 at 4 KiB, 176 / 5.6 at 64 KiB (CPython 3.11, numpy 2.4).
#: So 16-byte XTS/CBC/CTS blocks stay integers; sectors and keystreams do not.
XOR_KERNEL_MIN_BYTES = 512


def xor_bytes(a, b) -> bytes:
    """Return the bytewise XOR of two bytes-like objects of equal byte size.

    Operands are measured in bytes, not items, so a wide view
    (``array('I')``) XORs against as many bytes as it holds.
    """
    size, other = memoryview(a).nbytes, memoryview(b).nbytes
    if size != other:
        raise ValueError(f"xor_bytes length mismatch: {size} != {other}")
    if size >= XOR_KERNEL_MIN_BYTES:
        return np.bitwise_xor(np.frombuffer(a, np.uint8),
                              np.frombuffer(b, np.uint8)).tobytes()
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(size, "big")


def chunked(data: bytes, size: int) -> Iterator[bytes]:
    """Yield successive ``size``-byte chunks of ``data`` (last may be short)."""
    if size <= 0:
        raise ValueError("chunk size must be positive")
    for off in range(0, len(data), size):
        yield data[off:off + size]


def bounded_cache_get(cache: dict, key, factory, max_entries: int = 16):
    """Fetch ``key`` from ``cache``, building it with ``factory`` on a miss.

    Returns ``(value, hit)`` so callers can skip reinitialisation work on
    fresh entries.  The cache is bounded by wholesale clearing at
    ``max_entries``: the working sets it serves (sector sizes, batch
    shapes, derived keys) are tiny and recurring, so anything smarter than
    clear-all would be wasted machinery.  Shared by the AES tiled-round-key
    cache and the derived-IV cipher cache.
    """
    value = cache.get(key)
    if value is not None:
        return value, True
    if len(cache) >= max_entries:
        cache.clear()
    value = cache[key] = factory()
    return value, False


def as_readonly_view(data) -> memoryview:
    """Wrap any bytes-like object in a read-only *byte* :class:`memoryview`.

    Slicing the result never copies, and downstream layers cannot mutate
    the caller's buffer through it — the contract the zero-copy write path
    (pipeline -> striping -> codec -> transaction) relies on.  The view is
    flattened to one byte per item, so ``len()`` of the result is the
    number of bytes an I/O moves whatever the caller's item size
    (``array('I')``, ``memoryview.cast('H')``); a non-contiguous buffer
    cannot be flattened without a copy and is refused.
    """
    view = memoryview(data)
    if not view.contiguous:
        raise RbdError("I/O buffers must be contiguous")
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    return view if view.readonly else view.toreadonly()


def chunked_views(data, size: int) -> Iterator[memoryview]:
    """Yield successive ``size``-byte chunks of ``data`` as memoryviews.

    The zero-copy counterpart of :func:`chunked`: no chunk copies any
    bytes, so splitting a sector run into encryption blocks is free.  The
    last chunk may be short.
    """
    if size <= 0:
        raise ValueError("chunk size must be positive")
    view = memoryview(data)
    for off in range(0, len(view), size):
        yield view[off:off + size]


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division."""
    if b <= 0:
        raise ValueError("divisor must be positive")
    return -(-a // b)


def round_up(value: int, multiple: int) -> int:
    """Round ``value`` up to the nearest multiple of ``multiple``."""
    return ceil_div(value, multiple) * multiple


def round_down(value: int, multiple: int) -> int:
    """Round ``value`` down to the nearest multiple of ``multiple``."""
    if multiple <= 0:
        raise ValueError("multiple must be positive")
    return (value // multiple) * multiple


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def split_range(offset: int, length: int, granule: int) -> List[Tuple[int, int, int]]:
    """Split a byte range into pieces that do not cross ``granule`` boundaries.

    Returns a list of ``(granule_index, offset_in_granule, piece_length)``
    tuples covering ``[offset, offset + length)``.  This is the striping
    primitive used both by the RBD object mapper (granule = object size) and
    by the encryption layer (granule = sector size).
    """
    if offset < 0 or length < 0:
        raise ValueError("offset and length must be non-negative")
    if granule <= 0:
        raise ValueError("granule must be positive")
    pieces: List[Tuple[int, int, int]] = []
    remaining = length
    pos = offset
    while remaining > 0:
        index = pos // granule
        within = pos - index * granule
        piece = min(remaining, granule - within)
        pieces.append((index, within, piece))
        pos += piece
        remaining -= piece
    return pieces


def contiguous_runs(indices: Sequence[int]) -> List[Tuple[int, int]]:
    """Split an ascending index list into ``(first, count)`` runs."""
    runs: List[Tuple[int, int]] = []
    for index in indices:
        if runs and index == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((index, 1))
    return runs


def split_block_pieces(extents: Sequence[Tuple[int, memoryview]],
                       block_size: int
                       ) -> Dict[int, List[Tuple[int, memoryview]]]:
    """Cut a batch of non-empty ``(offset, view)`` extents at block bounds.

    Maps every touched block to its ``(offset within the block, view)``
    pieces in arrival order; blocks appear in first-touch order.  The
    pieces are slices of the callers' views, nothing is copied.
    """
    pieces: Dict[int, List[Tuple[int, memoryview]]] = {}
    for offset, data in extents:
        end = offset + len(data)
        for block in range(offset // block_size, (end - 1) // block_size + 1):
            block_start = block * block_size
            dst_start = max(offset, block_start) - block_start
            src_start = max(block_start - offset, 0)
            src_end = min(end, block_start + block_size) - offset
            pieces.setdefault(block, []).append(
                (dst_start, data[src_start:src_end]))
    return pieces


def covers_block(block_pieces: Sequence[Tuple[int, memoryview]],
                 block_size: int) -> bool:
    """Whether one block's pieces (see :func:`split_block_pieces`) leave no
    byte of it unwritten.  The *union* counts: a block two extents cover
    between them needs no read-modify-write."""
    covered_to = 0
    for start, end in sorted((dst_start, dst_start + len(piece))
                             for dst_start, piece in block_pieces):
        if start > covered_to:
            break
        covered_to = max(covered_to, end)
    return covered_to >= block_size


def parse_size(text: str) -> int:
    """Parse a human size string (``"4K"``, ``"64M"``, ``"1G"``, ``"512"``);
    anything else is a :class:`ConfigurationError`."""
    value = text.strip().upper()
    multipliers = {"K": KIB, "KB": KIB, "KIB": KIB,
                   "M": MIB, "MB": MIB, "MIB": MIB,
                   "G": GIB, "GB": GIB, "GIB": GIB,
                   "B": 1, "": 1}
    digits = value
    suffix = ""
    for i, ch in enumerate(value):
        if not (ch.isdigit() or ch == "."):
            digits, suffix = value[:i], value[i:]
            break
    try:
        number = float(digits)          # "" and "1.2.3" fail here
    except ValueError:
        raise ConfigurationError(f"cannot parse size {text!r}") from None
    if suffix not in multipliers:
        raise ConfigurationError(
            f"unknown size suffix {suffix!r} in {text!r}")
    return int(number * multipliers[suffix])


def format_size(num_bytes: int) -> str:
    """Render a byte count using binary units (``"4.0KiB"``, ``"2.5MiB"``)."""
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer (``True`` is not one)."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


def is_count(value) -> bool:
    """Whether ``value`` is a positive integer (``True`` is not one)."""
    return is_integer(value) and value > 0


def hexdump(data: bytes, width: int = 16) -> str:
    """Render bytes as a classic hex dump (used by examples and debugging)."""
    lines = []
    for off in range(0, len(data), width):
        chunk = data[off:off + width]
        hexpart = " ".join(f"{b:02x}" for b in chunk)
        asciipart = "".join(chr(b) if 32 <= b < 127 else "." for b in chunk)
        lines.append(f"{off:08x}  {hexpart:<{width * 3}}  {asciipart}")
    return "\n".join(lines)


def constant_time_compare(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit (MAC verification)."""
    if len(a) != len(b):
        return False
    result = 0
    for x, y in zip(a, b):
        result |= x ^ y
    return result == 0
