"""``util.xor_bytes`` is XOR, on both sides of its crossover.

Buffers of ``XOR_KERNEL_MIN_BYTES`` and more go through ``np.bitwise_xor``
over ``np.frombuffer`` views, shorter ones through one big-integer XOR.  A
per-byte loop is the reference for both, over every buffer kind a caller
hands in (the known-answer tests of ``Blake2Xts``, CTR, GCM and the
wide-block mode next to this file pin the callers themselves).
"""

import os
from array import array

import pytest

from repro.util import XOR_KERNEL_MIN_BYTES, xor_bytes

LENGTHS = [0, 1, 15, 16, XOR_KERNEL_MIN_BYTES - 1, XOR_KERNEL_MIN_BYTES,
           XOR_KERNEL_MIN_BYTES + 1, 4096, 4097, 65536]


def _odd_slice(raw):
    """``raw`` as a view starting three bytes into a larger buffer."""
    return memoryview(b"\xa5\x5a\xc3" + raw + b"\x3c")[3:3 + len(raw)]


def _wide(raw):
    """``raw`` as a four-bytes-per-item view (``len()`` is a quarter)."""
    words = array("I")
    assert words.itemsize == 4
    words.frombytes(raw)
    return memoryview(words)


KINDS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda raw: memoryview(bytearray(raw)),
    "readonly": lambda raw: memoryview(raw),
    "odd-slice": _odd_slice,
    "wide": _wide,
}


def _reference(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


@pytest.mark.parametrize("length", LENGTHS)
def test_equals_the_per_byte_reference_for_every_operand_kind(length):
    raw_a, raw_b = os.urandom(length), os.urandom(length)
    expected = _reference(raw_a, raw_b)
    kinds = [kind for kind in KINDS if kind != "wide" or length % 4 == 0]
    for kind_a in kinds:
        for kind_b in kinds:
            a, b = KINDS[kind_a](raw_a), KINDS[kind_b](raw_b)
            result = xor_bytes(a, b)
            assert type(result) is bytes, (kind_a, kind_b)
            assert result == expected, (kind_a, kind_b)
            # Inputs are never written through, whatever they allow.
            assert bytes(a) == raw_a and bytes(b) == raw_b, (kind_a, kind_b)


@pytest.mark.parametrize("items", [4, XOR_KERNEL_MIN_BYTES // 4])
def test_operands_are_measured_in_bytes_not_items(items):
    """A wide view's ``len()`` counts items: it used to pass the length
    check against as many *bytes* and die with a bare ``OverflowError``."""
    wide = memoryview(array("I", range(1, items + 1)))
    assert xor_bytes(wide, bytes(4 * items)) == wide.tobytes()
    assert xor_bytes(bytes(4 * items), wide) == wide.tobytes()
    for short in (bytes(items), bytearray(items)):
        with pytest.raises(ValueError, match="length mismatch"):
            xor_bytes(wide, short)
        with pytest.raises(ValueError, match="length mismatch"):
            xor_bytes(short, wide)


@pytest.mark.parametrize("length", [16, XOR_KERNEL_MIN_BYTES, 4096])
def test_a_true_mismatch_is_a_value_error_on_both_paths(length):
    for other in (length - 1, length + 1):
        with pytest.raises(ValueError, match="length mismatch"):
            xor_bytes(bytes(length), bytes(other))
