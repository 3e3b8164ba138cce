"""Fast keyed ciphers for large simulation runs.

The real AES implementation in this package is pure Python and therefore
slow (microseconds per 16-byte block).  The paper's throughput experiments
move hundreds of megabytes per run; what matters for those experiments is
*how many device sectors, KV operations and network round trips each layout
touches*, not the CPU cost of AES (the paper's client machines run AES-NI
at memory bandwidth).  The benchmark harness therefore defaults to the
ciphers below, which are keyed, IV-dependent and length preserving — so the
full metadata path is exercised bit-for-bit — but run at hashlib speed.

These are **not** standardised disk-encryption algorithms and are clearly
named to avoid any confusion with AES-XTS.  Every correctness-critical test
uses the real AES-XTS/GCM implementations.
"""

from __future__ import annotations

import hashlib
from itertools import islice

from ..errors import IVSizeError, KeySizeError
from ..util import xor_bytes


class Blake2Xts:
    """Keystream cipher: BLAKE2b(key, tweak || counter) XORed over the data.

    Mirrors the :class:`repro.crypto.xts.XTS` interface (``encrypt(tweak,
    data)`` / ``decrypt(tweak, data)``) so the encryption formats can treat
    the two interchangeably.

    Keystream block ``i`` is ``blake2b(tweak || i.to_bytes(8, "little"),
    key=blake2b(key, digest_size=32), digest_size=64)``.  The key is
    expanded once per cipher object into a keyed hash state (as dm-crypt
    expands a key once per volume) and the tweak is absorbed once per
    call; every block is a ``copy()`` of that state plus its counter.
    """

    #: keystream block produced per hash invocation
    _CHUNK = 64
    #: little-endian counter suffixes of one 4 KiB sector's blocks
    _SUFFIXES = tuple(counter.to_bytes(8, "little") for counter in range(64))

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise KeySizeError("Blake2Xts key must be at least 16 bytes")
        self._state = hashlib.blake2b(
            key=hashlib.blake2b(key, digest_size=32).digest(),
            digest_size=self._CHUNK)

    def _keystream(self, tweak: bytes, length: int) -> bytes:
        count = -(-length // self._CHUNK)
        suffixes = (self._SUFFIXES if count <= len(self._SUFFIXES)
                    else [counter.to_bytes(8, "little")
                          for counter in range(count)])
        tweaked = self._state.copy()
        tweaked.update(tweak)
        fork = tweaked.copy
        # One growing bytearray rather than a list joined at the end: no
        # slower, and with the join the C heap was never trimmed after a
        # cluster teardown (peak RSS +25 % on perf/'s small-I/O workloads).
        out = bytearray()
        for suffix in islice(suffixes, count):
            block = fork()
            block.update(suffix)
            out += block.digest()
        return bytes(out[:length])

    def encrypt(self, tweak: bytes, plaintext: bytes) -> bytes:
        """Encrypt (XOR with the tweak-derived keystream)."""
        if len(tweak) != 16:
            raise IVSizeError("tweak must be 16 bytes")
        return xor_bytes(plaintext, self._keystream(tweak, len(plaintext)))

    def decrypt(self, tweak: bytes, ciphertext: bytes) -> bytes:
        """Decrypt (same operation as encrypt)."""
        return self.encrypt(tweak, ciphertext)


class NullCipher:
    """Identity 'cipher' for pure cost-model runs (no data transformation).

    Useful to isolate the metadata-layout overhead from any CPU effect in
    ablation studies; never use outside the simulator.
    """

    def __init__(self, key: bytes = b"") -> None:
        self._key = key

    def encrypt(self, tweak: bytes, plaintext: bytes) -> bytes:
        """Return the plaintext unchanged (as ``bytes``, like any cipher)."""
        return bytes(plaintext)

    def decrypt(self, tweak: bytes, ciphertext: bytes) -> bytes:
        """Return the ciphertext unchanged (as ``bytes``, like any cipher)."""
        return bytes(ciphertext)
