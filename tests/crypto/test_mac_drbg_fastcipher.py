"""Tests for the sector MAC, the deterministic DRBG and the fast ciphers."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.drbg import HmacDrbg, OsRandomSource, default_random_source
from repro.crypto.fastcipher import Blake2Xts, NullCipher
from repro.crypto.mac import DEFAULT_TAG_SIZE, SectorMac
from repro.crypto.iv import Plain64IV
from repro.crypto.suite import get_suite
from repro.encryption.codecs import XtsCodec
from repro.errors import AuthenticationError, IVSizeError, KeySizeError


class TestSectorMac:
    def test_tag_and_verify_roundtrip(self):
        mac = SectorMac(b"mac-key")
        tag = mac.tag(7, bytes(16), b"ciphertext")
        mac.verify(7, bytes(16), b"ciphertext", tag)

    def test_default_tag_size(self):
        mac = SectorMac(b"mac-key")
        assert len(mac.tag(1, bytes(16), b"x")) == DEFAULT_TAG_SIZE == 16

    @pytest.mark.parametrize("tag_size", [8, 16, 32])
    def test_custom_tag_sizes(self, tag_size):
        mac = SectorMac(b"k", tag_size=tag_size)
        assert len(mac.tag(0, b"", b"data")) == tag_size

    @pytest.mark.parametrize("tag_size", [4, 7, 33])
    def test_invalid_tag_sizes(self, tag_size):
        with pytest.raises(ValueError):
            SectorMac(b"k", tag_size=tag_size)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            SectorMac(b"")

    def test_lba_binding(self):
        mac = SectorMac(b"k")
        tag = mac.tag(1, bytes(16), b"data")
        with pytest.raises(AuthenticationError):
            mac.verify(2, bytes(16), b"data", tag)

    def test_iv_binding(self):
        mac = SectorMac(b"k")
        tag = mac.tag(1, bytes(16), b"data")
        with pytest.raises(AuthenticationError):
            mac.verify(1, bytes([1]) + bytes(15), b"data", tag)

    def test_ciphertext_binding(self):
        mac = SectorMac(b"k")
        tag = mac.tag(1, bytes(16), b"data")
        with pytest.raises(AuthenticationError):
            mac.verify(1, bytes(16), b"datb", tag)

    def test_truncated_tag_rejected(self):
        mac = SectorMac(b"k")
        tag = mac.tag(1, bytes(16), b"data")
        with pytest.raises(AuthenticationError):
            mac.verify(1, bytes(16), b"data", tag[:-1])


class TestHmacDrbg:
    def test_deterministic_given_seed(self):
        assert HmacDrbg(b"seed").read(64) == HmacDrbg(b"seed").read(64)

    def test_different_seeds_differ(self):
        assert HmacDrbg(b"seed-a").read(32) != HmacDrbg(b"seed-b").read(32)

    def test_stream_does_not_repeat(self):
        drbg = HmacDrbg(b"seed")
        assert drbg.read(32) != drbg.read(32)

    def test_reseed_changes_output(self):
        a = HmacDrbg(b"seed")
        b = HmacDrbg(b"seed")
        b.reseed(b"more entropy")
        assert a.read(32) != b.read(32)

    def test_read_zero_and_negative(self):
        drbg = HmacDrbg(b"seed")
        assert drbg.read(0) == b""
        with pytest.raises(ValueError):
            drbg.read(-1)

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"")

    def test_counts_bytes(self):
        drbg = HmacDrbg(b"seed")
        drbg.read(10)
        drbg.read(22)
        assert drbg.bytes_generated == 32

    def test_read_u64_in_range(self):
        drbg = HmacDrbg(b"seed")
        for _ in range(10):
            assert 0 <= drbg.read_u64() < 2 ** 64

    def test_os_source_length(self):
        assert len(OsRandomSource().read(17)) == 17

    def test_default_source_is_deterministic(self):
        assert default_random_source().read(8) == default_random_source().read(8)

    @given(n=st.integers(min_value=1, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_requested_length_honoured(self, n):
        assert len(HmacDrbg(b"s").read(n)) == n


class TestFastCiphers:
    def test_blake2_roundtrip(self):
        cipher = Blake2Xts(bytes(range(32)))
        tweak = bytes(range(16))
        data = bytes(4096)
        assert cipher.decrypt(tweak, cipher.encrypt(tweak, data)) == data

    def test_blake2_tweak_dependence(self):
        cipher = Blake2Xts(bytes(range(32)))
        data = bytes(64)
        assert cipher.encrypt(bytes(16), data) != \
            cipher.encrypt(bytes([1]) + bytes(15), data)

    def test_blake2_key_dependence(self):
        data = bytes(64)
        assert Blake2Xts(bytes(range(32))).encrypt(bytes(16), data) != \
            Blake2Xts(bytes(32)).encrypt(bytes(16), data)

    def test_blake2_key_length_validation(self):
        with pytest.raises(KeySizeError):
            Blake2Xts(bytes(8))

    def test_blake2_tweak_length_validation(self):
        with pytest.raises(IVSizeError):
            Blake2Xts(bytes(32)).encrypt(bytes(8), bytes(16))

    def test_blake2_length_preserving(self):
        cipher = Blake2Xts(bytes(32))
        for length in (1, 16, 100, 4096):
            assert len(cipher.encrypt(bytes(16), bytes(length))) == length

    def test_null_cipher_is_identity(self):
        cipher = NullCipher()
        assert cipher.encrypt(bytes(16), b"abc") == b"abc"
        assert cipher.decrypt(bytes(16), b"abc") == b"abc"

    @given(data=st.binary(min_size=0, max_size=300),
           tweak=st.binary(min_size=16, max_size=16))
    @settings(max_examples=20, deadline=None)
    def test_blake2_roundtrip_property(self, data, tweak):
        cipher = Blake2Xts(bytes(range(32)))
        assert cipher.decrypt(tweak, cipher.encrypt(tweak, data)) == data


def _reference_keystream(key: bytes, tweak: bytes, length: int) -> bytes:
    """The written definition of the ``blake2-xts-sim`` keystream."""
    derived = hashlib.blake2b(key, digest_size=32).digest()
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.blake2b(tweak + counter.to_bytes(8, "little"),
                               key=derived, digest_size=64).digest()
        counter += 1
    return out[:length]


class TestBlake2Keystream:
    KEY = bytes(range(32))
    TWEAK = bytes(range(100, 116))

    # 8192 is two 4 KiB sectors: past the precomputed counter suffixes
    @pytest.mark.parametrize("length", [1, 63, 64, 65, 4096, 4097, 8192])
    def test_known_answer(self, length):
        data = bytes((7 * i + 3) & 0xFF for i in range(length))
        keystream = _reference_keystream(self.KEY, self.TWEAK, length)
        expected = bytes(a ^ b for a, b in zip(data, keystream))
        cipher = Blake2Xts(self.KEY)
        assert cipher.encrypt(self.TWEAK, data) == expected
        assert cipher.encrypt(self.TWEAK, bytes(length)) == keystream

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_bytes_like_tweak_and_data(self, wrap):
        cipher = Blake2Xts(self.KEY)
        data = bytes(range(256)) * 2
        expected = cipher.encrypt(self.TWEAK, data)
        out = cipher.encrypt(wrap(self.TWEAK), wrap(data))
        assert type(out) is bytes and out == expected

    def test_two_keys_never_share_state(self):
        other_key = bytes(range(1, 33))
        first, second = Blake2Xts(self.KEY), Blake2Xts(other_key)
        # interleave the two ciphers: neither call may disturb the other
        for length in (64, 4096, 100):
            assert first.encrypt(self.TWEAK, bytes(length)) == \
                _reference_keystream(self.KEY, self.TWEAK, length)
            assert second.encrypt(self.TWEAK, bytes(length)) == \
                _reference_keystream(other_key, self.TWEAK, length)

    @given(data=st.binary(min_size=0, max_size=9000),
           tweak=st.binary(min_size=16, max_size=16))
    @settings(max_examples=20, deadline=None)
    def test_encrypt_twice_is_identity(self, data, tweak):
        cipher = Blake2Xts(self.KEY)
        assert cipher.encrypt(tweak, cipher.encrypt(tweak, data)) == data


class TestCodecReturnsBytes:
    """``SectorCodec``: ciphertext is ``bytes`` whatever buffer came in."""

    @pytest.mark.parametrize("suite_name",
                             ["null-sim", "blake2-xts-sim", "aes-xts-256"])
    def test_memoryview_through_xts_codec(self, suite_name):
        suite = get_suite(suite_name)
        codec = XtsCodec(suite.create(bytes(range(suite.key_size))),
                         Plain64IV())
        scratch = bytearray(range(256)) * 2      # a reusable caller buffer
        plaintext = bytes(scratch)
        sector = codec.encrypt_sector(5, memoryview(scratch))
        assert type(sector.ciphertext) is bytes
        scratch[:] = bytes(len(scratch))         # the caller reuses its buffer
        decrypted = codec.decrypt_sector(5, memoryview(sector.ciphertext),
                                         sector.metadata)
        assert type(decrypted) is bytes and decrypted == plaintext
