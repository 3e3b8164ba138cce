"""Systematic Reed-Solomon erasure coding over GF(256).

The EC pool type (:class:`~repro.rados.cluster.EcPool`) stripes each
object's *ciphertext* into ``k`` data chunks plus ``m`` parity chunks and
places them on ``k + m`` distinct failure domains.  This module is the
coding math underneath: a systematic Reed-Solomon codec over the field
GF(2^8) with the AES polynomial ``x^8 + x^4 + x^3 + x^2 + 1`` (0x11d).

Construction
------------
The encode matrix is the classic systematic Vandermonde construction:
build the ``(k+m) x k`` Vandermonde matrix ``V[i][j] = alpha_i ** j`` over
distinct evaluation points ``alpha_i = i``, then right-multiply by the
inverse of its top ``k x k`` block.  The result has the identity on top
(so the first ``k`` chunks are the data itself — reads in a healthy
cluster never decode) and retains the MDS property: *any* ``k`` rows are
invertible, because ``det(A_S) = det(V_S) / det(V_top)`` and every ``k``-row
submatrix of a Vandermonde matrix over distinct points is nonsingular.
Decoding from any ``k`` surviving chunks is therefore one small matrix
inversion (Gauss-Jordan over GF(256)) plus a matrix-vector product.

The per-byte work is table-driven, the way Ceph's EC plugins do it: the
log/exp tables are expanded once, on first use, into the full 256 x 256
product table (64 KiB), so multiplying a chunk by a field scalar is one
byte-to-byte lookup through that scalar's 256-entry row, and each output
chunk is the XOR of ``k`` such products.  Encode, decode and reconstruct
are all the same matrix product and share one kernel, :func:`_gf_matmul`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..util import chunked_views

#: xattr carrying a shard's recorded chunk index.  Shard identity must
#: never be positional: CRUSH up-set positions shift when an OSD is
#: marked out, recorded indices do not.
EC_SHARD_XATTR = "__ec.shard"
#: xattr carrying the logical (pre-striping) object size, replicated on
#: every shard so stat and reassembly never consult chunk sizes.
EC_SIZE_XATTR = "__ec.size"

#: the AES field polynomial x^8 + x^4 + x^3 + x^2 + 1
_GF_POLY = 0x11D

# Log/exp tables of GF(256) under generator 0x02.  The exp table is
# doubled so that exp[log a + log b] never needs a modulo reduction.
_GF_EXP = np.zeros(512, dtype=np.uint8)
_GF_LOG = np.zeros(256, dtype=np.int64)


def _build_tables() -> None:
    value = 1
    for power in range(255):
        _GF_EXP[power] = value
        _GF_LOG[value] = power
        value <<= 1
        if value & 0x100:
            value ^= _GF_POLY
    for power in range(255, 512):
        _GF_EXP[power] = _GF_EXP[power - 255]


_build_tables()


@lru_cache(maxsize=None)
def _gf_mul_table() -> np.ndarray:
    """The full product table: ``table[a, b] == a * b`` in the field.

    Row ``a`` is the byte-to-byte map "multiply by ``a``" the chunk kernel
    uses.  64 KiB, expanded from the log/exp tables on first use, so a
    process that never touches an EC pool never builds it.
    """
    table = _GF_EXP[_GF_LOG[:, None] + _GF_LOG[None, :]]
    table[0, :] = 0
    table[:, 0] = 0
    return table


def _field_element(value: int) -> int:
    if not (isinstance(value, (int, np.integer)) and 0 <= value <= 255):
        raise ConfigurationError(
            f"{value!r} is not a GF(256) element (expected 0..255)")
    return value


def gf_mul(a: int, b: int) -> int:
    """Product of two field elements (scalar form)."""
    return int(_gf_mul_table()[_field_element(a), _field_element(b)])


def gf_inv(a: int) -> int:
    """Multiplicative inverse of a nonzero field element."""
    if _field_element(a) == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(_GF_EXP[255 - int(_GF_LOG[a])])


def _gf_matmul(coefficient_rows: Sequence[Sequence[int]],
               chunk_rows: Sequence[bytes]) -> np.ndarray:
    """Matrix product over GF(256): coefficients times equal-length chunks.

    ``out[i] = XOR_j coefficient_rows[i][j] * chunk_rows[j]``, returned as
    a ``(len(coefficient_rows), chunk_len)`` uint8 array.  Each term is
    one ``bytes.translate`` through the coefficient's product-table row —
    the table lookup without widening the chunk to index-sized integers —
    XOR-accumulated in place; 0 and 1 coefficients need no lookup.
    """
    table = _gf_mul_table()
    chunks = [bytes(chunk) for chunk in chunk_rows]
    chunk_len = len(chunks[0]) if chunks else 0
    out = np.zeros((len(coefficient_rows), chunk_len), dtype=np.uint8)
    for acc, coefficients in zip(out, coefficient_rows):
        for coefficient, chunk in zip(coefficients, chunks):
            if coefficient == 0:
                continue
            if coefficient != 1:
                chunk = chunk.translate(table[coefficient].tobytes())
            acc ^= np.frombuffer(chunk, dtype=np.uint8)
    return out


def _matrix_invert(matrix: Sequence[Sequence[int]]) -> List[List[int]]:
    """Gauss-Jordan inversion of a small matrix over GF(256)."""
    size = len(matrix)
    work = [list(row) + [1 if i == j else 0 for j in range(size)]
            for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((row for row in range(col, size) if work[row][col]), None)
        if pivot is None:
            raise ConfigurationError(
                "erasure-code matrix is singular (duplicate shard indices?)")
        work[col], work[pivot] = work[pivot], work[col]
        inv_pivot = gf_inv(work[col][col])
        work[col] = [gf_mul(value, inv_pivot) for value in work[col]]
        for row in range(size):
            if row == col or not work[row][col]:
                continue
            factor = work[row][col]
            work[row] = [value ^ gf_mul(factor, pivot_value)
                         for value, pivot_value in zip(work[row], work[col])]
    return [row[size:] for row in work]


def _systematic_matrix(k: int, total: int) -> List[List[int]]:
    """The (total x k) systematic Vandermonde encode matrix."""
    vandermonde = [[_gf_pow(point, power) for power in range(k)]
                   for point in range(total)]
    top_inverse = _matrix_invert([row[:] for row in vandermonde[:k]])
    return [[_row_dot(row, top_inverse, col) for col in range(k)]
            for row in vandermonde]


def _gf_pow(base: int, exponent: int) -> int:
    if exponent == 0:
        return 1
    if base == 0:
        return 0
    return int(_GF_EXP[(int(_GF_LOG[base]) * exponent) % 255])


def _row_dot(row: Sequence[int], matrix: Sequence[Sequence[int]],
             col: int) -> int:
    acc = 0
    for j, value in enumerate(row):
        acc ^= gf_mul(value, matrix[j][col])
    return acc


@dataclass(frozen=True)
class EcProfile:
    """Shape of an erasure-coded pool: ``k`` data + ``m`` parity chunks."""

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ConfigurationError(
                f"EC profile needs k >= 2 data chunks, got k={self.k}")
        if self.m < 1:
            raise ConfigurationError(
                f"EC profile needs m >= 1 parity chunks, got m={self.m}")
        if self.k + self.m > 255:
            raise ConfigurationError(
                f"EC profile k+m={self.k + self.m} exceeds the GF(256) "
                f"field limit of 255 chunks")

    @property
    def total(self) -> int:
        """Total chunks per stripe (``k + m``)."""
        return self.k + self.m

    @classmethod
    def parse(cls, text: str) -> "EcProfile":
        """Parse a ``"k,m"`` CLI argument (e.g. ``"4,2"``)."""
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != 2 or not all(part.isdigit() for part in parts):
            raise ConfigurationError(
                f"EC profile must be 'k,m' (e.g. '4,2'), got {text!r}")
        return cls(k=int(parts[0]), m=int(parts[1]))


class ReedSolomonCodec:
    """Systematic Reed-Solomon codec for one :class:`EcProfile`."""

    def __init__(self, k: int, m: int) -> None:
        self.profile = EcProfile(k=k, m=m)
        self.k = k
        self.m = m
        self.total = k + m
        self.matrix = _systematic_matrix(k, self.total)

    # -- stripe geometry -------------------------------------------------------

    def chunk_length(self, size: int) -> int:
        """Chunk bytes for a logical object of ``size`` bytes (ceil(size/k))."""
        if size <= 0:
            return 0
        return -(-size // self.k)

    # -- encode ---------------------------------------------------------------

    def encode(self, data: bytes) -> List[bytes]:
        """Stripe ``data`` into ``k`` data + ``m`` parity chunks.

        The logical bytes are zero-padded up to ``k * chunk_length``; the
        first ``k`` chunks concatenated (and truncated to the logical
        size) are the data itself — the systematic property.
        """
        chunk_len = self.chunk_length(len(data))
        if chunk_len == 0:
            return [b""] * self.total
        if len(data) != self.k * chunk_len:
            data = bytes(data) + bytes(self.k * chunk_len - len(data))
        chunks = [bytes(view) for view in chunked_views(data, chunk_len)]
        parity = _gf_matmul(self.matrix[self.k:], chunks)
        return chunks + [row.tobytes() for row in parity]

    # -- decode ---------------------------------------------------------------

    def decode(self, shards: Dict[int, bytes]) -> bytes:
        """Recover the padded logical bytes from any ``k`` surviving chunks.

        ``shards`` maps chunk index (0..k+m-1) to chunk bytes.  Returns
        the ``k * chunk_length`` padded buffer; callers slice it to the
        logical object size they track separately.  Decoding is unique:
        any ``k`` distinct survivors invert to the same data (the MDS
        property the codec test suite pins).
        """
        chosen = self._choose(shards)
        chunk_len = len(shards[chosen[0]])
        for index in chosen:
            if len(shards[index]) != chunk_len:
                raise ConfigurationError(
                    f"chunk {index} has {len(shards[index])} bytes, "
                    f"expected {chunk_len} (mixed stripe generations?)")
        if chunk_len == 0:
            return b""
        if chosen == list(range(self.k)):
            # Systematic fast path: all data chunks survived.
            return b"".join(shards[index] for index in chosen)
        inverse = _matrix_invert([self.matrix[index] for index in chosen])
        return _gf_matmul(inverse,
                          [shards[index] for index in chosen]).tobytes()

    def reconstruct(self, shards: Dict[int, bytes], index: int) -> bytes:
        """Rebuild the single chunk ``index`` from any ``k`` survivors.

        The ec-repair backfill path: decode the stripe, then re-encode
        just the missing row (data rows fall out of the decode directly).
        """
        if not 0 <= index < self.total:
            raise ConfigurationError(
                f"chunk index {index} outside stripe 0..{self.total - 1}")
        padded = self.decode(shards)
        chunk_len = len(padded) // self.k if padded else 0
        if chunk_len == 0:
            return b""
        if index < self.k:
            return padded[index * chunk_len:(index + 1) * chunk_len]
        rows = list(chunked_views(padded, chunk_len))
        return _gf_matmul([self.matrix[index]], rows)[0].tobytes()

    def _choose(self, shards: Dict[int, bytes]) -> List[int]:
        """Pick the k survivors to decode from (data chunks preferred)."""
        valid = sorted(index for index in shards
                       if 0 <= index < self.total)
        if len(valid) < self.k:
            raise ConfigurationError(
                f"need {self.k} chunks to decode, have {len(valid)} "
                f"(indices {valid})")
        return valid[:self.k]


@lru_cache(maxsize=32)
def ec_codec(k: int, m: int) -> ReedSolomonCodec:
    """Shared codec instance per (k, m) — the matrix build is paid once."""
    return ReedSolomonCodec(k, m)


def assemble(padded: bytes, size: int) -> bytes:
    """Slice a decoded padded stripe down to the logical object size,
    zero-extending when the logical size outruns the stored stripe
    (a truncate-up that was never followed by a write)."""
    if size <= len(padded):
        return padded[:size]
    return padded + bytes(size - len(padded))


ShardMap = Dict[int, bytes]
ShardAssignment = Dict[int, int]


def assign_shard_indices(total: int, existing: ShardAssignment,
                         osd_ids: Sequence[int]) -> ShardAssignment:
    """Give every OSD in ``osd_ids`` a distinct chunk index.

    ``existing`` carries indices recorded on shard xattrs from earlier
    writes; they are kept when valid and unique (shard identity must not
    be positional — CRUSH up-set positions shift when an OSD is marked
    out, recorded indices do not).  OSDs without a valid recorded index
    get the free indices in ascending order.
    """
    assignment: ShardAssignment = {}
    used: set = set()
    pending: List[int] = []
    for osd_id in osd_ids:
        index = existing.get(osd_id)
        if index is not None and 0 <= index < total and index not in used:
            assignment[osd_id] = index
            used.add(index)
        else:
            pending.append(osd_id)
    free = iter(sorted(set(range(total)) - used))
    for osd_id in pending:
        try:
            assignment[osd_id] = next(free)
        except StopIteration:
            raise ConfigurationError(
                f"cannot assign EC shard indices: {len(osd_ids)} OSDs for "
                f"{total} chunks") from None
    return assignment


def parse_shard_index(xattrs: Dict[str, bytes], total: int) -> "int | None":
    """The recorded chunk index of a shard replica, or None if absent
    or out of range (a stale or foreign xattr never crashes a read)."""
    raw = xattrs.get(EC_SHARD_XATTR)
    if raw is None:
        return None
    try:
        index = int(raw)
    except ValueError:
        return None
    return index if 0 <= index < total else None


def parse_logical_size(xattrs: Dict[str, bytes]) -> int:
    """The recorded logical object size of a shard replica (0 if absent)."""
    raw = xattrs.get(EC_SIZE_XATTR)
    if raw is None:
        return 0
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


__all__ = [
    "EC_SHARD_XATTR", "EC_SIZE_XATTR", "EcProfile", "ReedSolomonCodec",
    "ec_codec", "assemble", "assign_shard_indices", "parse_shard_index",
    "parse_logical_size", "gf_mul", "gf_inv",
]
