"""Tests for the dense n-bit code packer."""

import numpy as np
import pytest

from repro.serve import pack_codes, packed_nbytes, unpack_codes


def reference_pack(codes, bits: int) -> bytes:
    """The bit-matrix packer: one uint64 row of ``bits`` columns per code,
    MSB first, flattened through ``np.packbits``.  Slow and memory-hungry,
    but obviously the documented layout."""
    flat = np.asarray(codes).astype(np.uint64).reshape(-1)
    flat &= np.uint64((1 << bits) - 1)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    bitmat = ((flat[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bitmat.reshape(-1)).tobytes()


@pytest.mark.parametrize("bits", range(1, 33))
def test_round_trip_random_codes(bits):
    """Every width against the reference packer, across block edges
    (65,537 codes span several blocks and end mid-byte at odd widths)."""
    rng = np.random.default_rng(bits)
    for count in (0, 1, 7, 8, 9, 65_537):
        codes = rng.integers(-(1 << 40), 1 << 40, size=count, dtype=np.int64)
        data = pack_codes(codes, bits)
        assert len(data) == packed_nbytes(count, bits)
        assert data == reference_pack(codes, bits), count
        recovered = unpack_codes(data, bits, count)
        assert recovered.dtype.kind == "u", count
        assert np.array_equal(recovered.astype(np.int64),
                              codes & ((1 << bits) - 1)), count


@pytest.mark.parametrize("bits", [8, 16, 32])
def test_byte_aligned_widths_unpack_to_a_view(bits):
    codes = np.arange(1000, dtype=np.int64) * 7
    data = pack_codes(codes, bits)
    assert data == codes.astype(f">u{bits // 8}").tobytes()
    recovered = unpack_codes(data, bits, len(codes))
    assert recovered.dtype == np.dtype(f">u{bits // 8}")
    assert np.shares_memory(recovered, np.frombuffer(data, dtype=np.uint8))


def test_sub_byte_density():
    # 1000 posit(6,1) codes must pack to exactly ceil(6000/8) = 750 bytes.
    codes = np.arange(1000, dtype=np.int64) % 64
    assert len(pack_codes(codes, 6)) == 750


def test_masks_out_of_range_codes():
    # Codes are masked to their low bits; negative two's-complement int64
    # codes keep their n-bit pattern.
    codes = np.array([-1, 256, 255], dtype=np.int64)
    recovered = unpack_codes(pack_codes(codes, 8), 8, 3)
    assert recovered.tolist() == [255, 0, 255]


def test_multidimensional_input_flattens_in_c_order():
    codes = np.arange(24, dtype=np.int64).reshape(2, 3, 4)
    recovered = unpack_codes(pack_codes(codes, 5), 5, 24)
    assert np.array_equal(recovered, codes.reshape(-1))


def test_empty_array():
    assert pack_codes(np.zeros(0, dtype=np.int64), 8) == b""
    assert unpack_codes(b"", 8, 0).size == 0


def test_truncated_buffer_rejected():
    data = pack_codes(np.arange(10, dtype=np.int64), 7)
    with pytest.raises(ValueError, match="too short"):
        unpack_codes(data[:-1], 7, 10)


def test_invalid_width_rejected():
    codes = np.zeros(4, dtype=np.int64)
    for bits in (0, -1, 33):
        with pytest.raises(ValueError, match="code width"):
            pack_codes(codes, bits)


def test_non_integer_input_rejected():
    with pytest.raises(TypeError, match="integer array"):
        pack_codes(np.zeros(4, dtype=np.float64), 8)
