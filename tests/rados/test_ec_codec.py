"""Property suite for the Reed-Solomon erasure codec (ISSUE PR 9, sat. 1).

The codec is the trust anchor of the EC pool: every durability claim the
drill and the equivalence suite make reduces to "encode, lose any <= m
chunks, decode, get the exact bytes back".  Hypothesis drives that
round-trip across random profiles, payload sizes (including sizes that
are not multiples of ``k``, so the padding path is always in play) and
random loss patterns.
"""

from __future__ import annotations

import itertools
import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.rados.ec import (EcProfile, ReedSolomonCodec, _gf_matmul,
                            _gf_mul_table, assemble, assign_shard_indices,
                            ec_codec, gf_inv, gf_mul)

# Profiles stay small so the exhaustive loss patterns stay cheap; k and m
# still move independently and cover the 4+2 shape the pool defaults to.
profiles = st.tuples(st.integers(2, 6), st.integers(1, 3))
payloads = st.binary(min_size=0, max_size=4096)


@st.composite
def encoded_cases(draw):
    k, m = draw(profiles)
    data = draw(payloads)
    return k, m, data


class TestRoundTripProperties:
    @given(case=encoded_cases(), rng=st.randoms(use_true_random=False))
    def test_decode_after_any_loss_up_to_m(self, case, rng):
        """encode -> drop any <= m chunks -> decode is bit-exact."""
        k, m, data = case
        codec = ReedSolomonCodec(k, m)
        chunks = codec.encode(data)
        assert len(chunks) == k + m
        assert all(len(c) == codec.chunk_length(len(data)) for c in chunks)
        lost = rng.sample(range(k + m), rng.randint(0, m))
        shards = {i: c for i, c in enumerate(chunks) if i not in lost}
        padded = codec.decode(shards)
        assert assemble(padded, len(data)) == data
        assert padded[len(data):] == b"\0" * (len(padded) - len(data))

    @given(case=encoded_cases())
    def test_every_k_subset_decodes_identically(self, case):
        """Decoding from *exactly* k survivors is unique no matter which
        chunks died (all C(k+m, k) survivor sets agree)."""
        k, m, data = case
        codec = ReedSolomonCodec(k, m)
        chunks = codec.encode(data)
        for survivors in itertools.combinations(range(k + m), k):
            shards = {i: chunks[i] for i in survivors}
            assert assemble(codec.decode(shards), len(data)) == data

    @given(case=encoded_cases(), rng=st.randoms(use_true_random=False))
    def test_reconstruct_matches_original_chunk(self, case, rng):
        """A reconstructed chunk is byte-identical to the lost one (this is
        what backfill writes to the replacement OSD)."""
        k, m, data = case
        codec = ReedSolomonCodec(k, m)
        chunks = codec.encode(data)
        target = rng.randrange(k + m)
        shards = {i: c for i, c in enumerate(chunks) if i != target}
        assert codec.reconstruct(shards, target) == chunks[target]

    @given(case=encoded_cases())
    def test_systematic_prefix_is_the_data(self, case):
        """The first k chunks concatenated ARE the (padded) payload — the
        healthy read path never touches GF arithmetic."""
        k, m, data = case
        codec = ReedSolomonCodec(k, m)
        chunks = codec.encode(data)
        joined = b"".join(chunks[:k])
        assert joined[:len(data)] == data

    @given(st.binary(min_size=1, max_size=512))
    def test_non_multiple_of_k_sizes_pad(self, data):
        codec = ReedSolomonCodec(4, 2)
        length = codec.chunk_length(len(data))
        assert length * 4 >= len(data)
        assert (length - 1) * 4 < max(len(data), 1) or len(data) == 0
        padded = codec.decode(
            {i: c for i, c in enumerate(codec.encode(data))})
        assert len(padded) == length * 4


class TestCodecValidation:
    def test_too_few_shards_rejected(self):
        codec = ReedSolomonCodec(4, 2)
        chunks = codec.encode(b"payload")
        with pytest.raises(ConfigurationError):
            codec.decode({0: chunks[0], 1: chunks[1], 2: chunks[2]})

    def test_ragged_shards_rejected(self):
        codec = ReedSolomonCodec(2, 1)
        chunks = codec.encode(b"0123456789")
        bad = {0: chunks[0], 1: chunks[1][:-1]}
        with pytest.raises(ConfigurationError):
            codec.decode(bad)

    def test_out_of_range_shard_index_rejected(self):
        codec = ReedSolomonCodec(2, 1)
        chunks = codec.encode(b"abcdef")
        with pytest.raises(ConfigurationError):
            codec.decode({0: chunks[0], 5: chunks[1]})

    def test_profile_bounds(self):
        with pytest.raises(ConfigurationError):
            EcProfile(1, 2)
        with pytest.raises(ConfigurationError):
            EcProfile(2, 0)
        with pytest.raises(ConfigurationError):
            EcProfile(200, 100)  # k+m > 255 overflows GF(256)

    def test_profile_parse(self):
        assert EcProfile.parse("4,2") == EcProfile(4, 2)
        assert EcProfile.parse(" 6 , 3 ") == EcProfile(6, 3)
        with pytest.raises(ConfigurationError):
            EcProfile.parse("4+2")
        with pytest.raises(ConfigurationError):
            EcProfile.parse("4")

    def test_codec_cache_returns_same_instance(self):
        assert ec_codec(4, 2) is ec_codec(4, 2)
        assert ec_codec(4, 2) is not ec_codec(4, 3)


class TestGaloisField:
    @given(st.integers(1, 255))
    def test_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_mul_is_commutative_and_distributive(self, a, b, c):
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    @pytest.mark.parametrize("operands", [(256, 1), (1, 256), (-1, 1),
                                          (1, -1), (1.5, 2), ("1", 2)])
    def test_mul_rejects_non_elements_with_a_typed_error(self, operands):
        with pytest.raises(ConfigurationError, match="GF\\(256\\) element"):
            gf_mul(*operands)

    @pytest.mark.parametrize("operand", [256, -1, 1000])
    def test_inv_rejects_non_elements_with_a_typed_error(self, operand):
        with pytest.raises(ConfigurationError, match="GF\\(256\\) element"):
            gf_inv(operand)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)


def _peasant_mul(a: int, b: int) -> int:
    """Shift-and-add product reduced by 0x11D: no log/exp table involved."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
        b >>= 1
    return product


def _naive_matmul(coefficient_rows, chunk_rows):
    return [bytes(reduce(xor, (_peasant_mul(coefficient, chunk[position])
                               for coefficient, chunk in zip(row, chunk_rows)))
                  for position in range(len(chunk_rows[0])))
            for row in coefficient_rows]


@st.composite
def matmul_cases(draw):
    inner = draw(st.integers(1, 6))
    outer = draw(st.integers(1, 4))
    # ragged on purpose: 0, 1 and lengths around word and block sizes
    chunk_len = draw(st.one_of(st.integers(0, 70),
                               st.sampled_from([255, 256, 257, 1000])))
    coefficients = draw(st.lists(
        st.lists(st.integers(0, 255), min_size=inner, max_size=inner),
        min_size=outer, max_size=outer))
    chunks = draw(st.lists(st.binary(min_size=chunk_len, max_size=chunk_len),
                           min_size=inner, max_size=inner))
    return coefficients, chunks


class TestProductTableKernel:
    def test_table_matches_russian_peasant_exhaustively(self):
        table = _gf_mul_table()
        assert table is _gf_mul_table(), "built once"
        assert table.shape == (256, 256) and table.nbytes == 64 * 1024
        assert table.tolist() == [[_peasant_mul(a, b) for b in range(256)]
                                  for a in range(256)]
        for a, b in [(0, 0), (0, 7), (7, 0), (1, 255), (2, 128), (255, 255)]:
            assert gf_mul(a, b) == _peasant_mul(a, b)

    @given(case=matmul_cases())
    @settings(max_examples=60, deadline=None)
    def test_matmul_matches_naive_triple_loop(self, case):
        coefficients, chunks = case
        product = _gf_matmul(coefficients, chunks)
        assert product.shape == (len(coefficients), len(chunks[0]))
        assert [row.tobytes() for row in product] == \
            _naive_matmul(coefficients, chunks)

    def test_matmul_accepts_any_buffer_and_leaves_it_untouched(self):
        chunks = [bytes(range(40)), bytes(range(100, 140))]
        expected = _naive_matmul([[3, 1], [0, 200]], chunks)
        views = [memoryview(bytearray(chunk)) for chunk in chunks]
        product = _gf_matmul([[3, 1], [0, 200]], views)
        assert [row.tobytes() for row in product] == expected
        assert [bytes(view) for view in views] == chunks

    @given(k=st.integers(2, 6), m=st.integers(1, 3),
           chunk_len=st.integers(1, 300), short_by=st.integers(0, 5),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_encode_is_the_matrix_product_padded_or_not(self, k, m, chunk_len,
                                                        short_by, seed):
        """``short_by == 0`` takes the no-pad path, anything else pads."""
        size = max(1, k * chunk_len - min(short_by, k - 1))
        data = random.Random(seed).randbytes(size)
        codec = ReedSolomonCodec(k, m)
        chunks = codec.encode(data)
        length = codec.chunk_length(size)
        padded = data + bytes(k * length - size)
        rows = [padded[j * length:(j + 1) * length] for j in range(k)]
        assert chunks == _naive_matmul(codec.matrix, rows)
        for wrap in (bytearray, memoryview):
            assert codec.encode(wrap(data)) == chunks


class TestShardAssignment:
    def test_recorded_indices_are_preserved(self):
        assignment = assign_shard_indices(6, {11: 3, 12: 0}, [10, 11, 12, 13])
        assert assignment[11] == 3 and assignment[12] == 0
        assert sorted(assignment) == [10, 11, 12, 13]
        assert len(set(assignment.values())) == 4

    def test_free_indices_fill_in_order(self):
        assignment = assign_shard_indices(3, {}, [7, 8, 9])
        assert [assignment[o] for o in (7, 8, 9)] == [0, 1, 2]
