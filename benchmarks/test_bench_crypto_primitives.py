"""Micro-benchmarks of the cryptographic primitives (wall-clock).

These are genuine wall-clock measurements of the pure-Python primitives.
Since the batched kernels landed, the *real* AES-XTS/GCM path runs one
bulk kernel call per sector instead of one Python call per 16-byte block;
the ``*_scalar`` benchmarks keep the old one-block-per-call path measurable
so the speedup stays visible (and regression-gated: see
``test_batched_speedup_floor`` and ``BENCH_crypto.json``).

``fastcipher`` remains the right choice for huge sweeps — see the README
"Performance notes" for when each path applies.
"""

from __future__ import annotations

import time

import pytest

from repro.crypto.aes import AES
from repro.crypto.fastcipher import Blake2Xts
from repro.crypto.gcm import GCM
from repro.crypto.wideblock import WideBlockCipher
from repro.crypto.xts import XTS

KEY32 = bytes(range(32))
KEY64 = bytes(range(64))
TWEAK = bytes(16)
SECTOR = bytes(range(256)) * 16      # 4 KiB
SECTOR_512 = bytes(range(256)) * 2   # 512 B
WINDOW = SECTOR * 16                 # 64 KiB batch window


# -- block granularity -------------------------------------------------------


def test_bench_aes_block_encrypt(benchmark):
    cipher = AES(KEY32)
    block = bytes(16)
    result = benchmark(cipher.encrypt_block, block)
    assert len(result) == 16


# -- sector granularity (4 KiB): batched vs scalar ---------------------------


def test_bench_aes_batched_kernel_sector(benchmark):
    cipher = AES(KEY32)
    result = benchmark(cipher.encrypt_blocks, SECTOR)
    assert len(result) == len(SECTOR)
    # Bit-exactness trajectory gate: the kernel output must never change.
    benchmark.extra_info["ciphertext_fingerprint"] = int.from_bytes(
        result[:8], "big")


def test_bench_xts_encrypt_sector(benchmark):
    cipher = XTS(KEY64)
    result = benchmark(cipher.encrypt, TWEAK, SECTOR)
    assert len(result) == len(SECTOR)


def test_bench_xts_encrypt_sector_scalar(benchmark):
    cipher = XTS(KEY64, batched=False)
    result = benchmark(cipher.encrypt, TWEAK, SECTOR)
    assert len(result) == len(SECTOR)


def test_bench_xts_decrypt_sector(benchmark):
    cipher = XTS(KEY64)
    ciphertext = cipher.encrypt(TWEAK, SECTOR)
    result = benchmark(cipher.decrypt, TWEAK, ciphertext)
    assert result == SECTOR


def test_bench_xts_encrypt_sector_512(benchmark):
    cipher = XTS(KEY64)
    result = benchmark(cipher.encrypt, TWEAK, SECTOR_512)
    assert len(result) == len(SECTOR_512)


def test_bench_gcm_encrypt_sector(benchmark):
    cipher = GCM(KEY32)
    nonce = bytes(12)
    result = benchmark(cipher.encrypt, nonce, SECTOR)
    assert len(result.ciphertext) == len(SECTOR)
    # The tag folds the whole CTR keystream and windowed-GHASH pipeline
    # into 16 bytes — a correctness drift anywhere in either changes it.
    benchmark.extra_info["tag_fingerprint"] = int.from_bytes(
        result.tag[:8], "big")


def test_bench_wideblock_encrypt_sector(benchmark):
    cipher = WideBlockCipher(KEY64)
    result = benchmark(cipher.encrypt, TWEAK, SECTOR)
    assert len(result) == len(SECTOR)
    benchmark.extra_info["ciphertext_fingerprint"] = int.from_bytes(
        result[:8], "big")


def test_bench_fast_cipher_encrypt_sector(benchmark):
    cipher = Blake2Xts(KEY32)
    result = benchmark(cipher.encrypt, TWEAK, SECTOR)
    assert len(result) == len(SECTOR)


# -- window granularity (64 KiB, a queue-depth-16 batch of sectors) ----------


def test_bench_aes_batched_kernel_window(benchmark):
    cipher = AES(KEY32)
    result = benchmark(cipher.encrypt_blocks, WINDOW)
    assert len(result) == len(WINDOW)


def test_bench_xts_encrypt_window(benchmark):
    cipher = XTS(KEY64)

    def window():
        return [cipher.encrypt(TWEAK, sector_view)
                for sector_view in
                (memoryview(WINDOW)[off:off + 4096]
                 for off in range(0, len(WINDOW), 4096))]

    result = benchmark(window)
    assert len(result) == 16


@pytest.mark.parametrize("suite_name, factory", [
    ("aes-xts-256", lambda: XTS(KEY64)),
    ("blake2-xts-sim", lambda: Blake2Xts(KEY32)),
])
def test_bench_sector_roundtrip(benchmark, suite_name, factory):
    cipher = factory()

    def roundtrip():
        return cipher.decrypt(TWEAK, cipher.encrypt(TWEAK, SECTOR))

    result = benchmark(roundtrip)
    assert result == SECTOR


# -- the speedup gate --------------------------------------------------------


def _best_of(runs: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_batched_speedup_floor(benchmark):
    """Real AES-XTS 4 KiB sectors: the batched kernels must stay >= 5x
    faster than the scalar one-sub-block-per-call path, with bit-identical
    ciphertext.

    The timing assertion uses best-of-N wall clock (robust against load
    spikes); the deterministic structure of the optimisation — ciphertext
    fingerprints and per-sector call shape — is exported as ``extra_info``
    and trajectory-gated in CI against ``BENCH_crypto.json``.
    """
    batched = XTS(KEY64)
    scalar = XTS(KEY64, batched=False)
    ciphertext = batched.encrypt(TWEAK, SECTOR)
    assert ciphertext == scalar.encrypt(TWEAK, SECTOR)
    assert batched.decrypt(TWEAK, ciphertext) == SECTOR

    # Best-of-N wall clock: the batched runs are ~1 ms each, so generous
    # repetition keeps a load spike on a shared runner from faking a
    # regression (the real margin is ~8x encrypt / ~25x decrypt vs the
    # 5x floor).  Both kernels ran once above (tables, tiled round keys);
    # a measurement below the floor is taken once more before it counts,
    # because a ratio of two wall clocks falls when only the batched side
    # meets a stall, even on an idle 2-core box.
    scalar.decrypt(TWEAK, ciphertext)

    def measure():
        scalar_encrypt = _best_of(3, scalar.encrypt, TWEAK, SECTOR)
        scalar_decrypt = _best_of(3, scalar.decrypt, TWEAK, ciphertext)
        batched_encrypt = _best_of(7, batched.encrypt, TWEAK, SECTOR)
        batched_decrypt = _best_of(7, batched.decrypt, TWEAK, ciphertext)
        print(f"\nXTS 4KiB sector: encrypt "
              f"{scalar_encrypt / batched_encrypt:.1f}x, decrypt "
              f"{scalar_decrypt / batched_decrypt:.1f}x faster batched "
              f"(scalar {scalar_encrypt * 1e3:.2f}/{scalar_decrypt * 1e3:.2f} ms, "
              f"batched {batched_encrypt * 1e3:.2f}/{batched_decrypt * 1e3:.2f} ms)")
        return scalar_encrypt / batched_encrypt, scalar_decrypt / batched_decrypt

    encrypt_speedup, decrypt_speedup = measure()
    if min(encrypt_speedup, decrypt_speedup) < 5.0:
        encrypt_speedup, decrypt_speedup = measure()
    assert encrypt_speedup >= 5.0, (
        f"batched XTS encrypt only {encrypt_speedup:.1f}x faster than scalar")
    assert decrypt_speedup >= 5.0, (
        f"batched XTS decrypt only {decrypt_speedup:.1f}x faster than scalar")

    # Trajectory metrics for the CI drift gate.  The fingerprints and call
    # shape are deterministic (gated at ±10%, i.e. exact for integers);
    # the measured speedups use the ``speedup_`` prefix, which the gate
    # treats as a floor — current >= max(5, baseline/2) — so a halving of
    # the crypto-primitive advantage fails CI without flaking on runner
    # noise.
    benchmark.extra_info["sector_sub_blocks"] = len(SECTOR) // 16
    benchmark.extra_info["scalar_aes_calls_per_sector"] = len(SECTOR) // 16 + 1
    benchmark.extra_info["batched_kernel_calls_per_sector"] = 1
    benchmark.extra_info["ciphertext_fingerprint"] = int.from_bytes(
        ciphertext[:8], "big")
    benchmark.extra_info["ciphertext_tail_fingerprint"] = int.from_bytes(
        ciphertext[-8:], "big")
    benchmark.extra_info["speedup_encrypt"] = round(encrypt_speedup, 2)
    benchmark.extra_info["speedup_decrypt"] = round(decrypt_speedup, 2)
    benchmark(batched.encrypt, TWEAK, SECTOR)
