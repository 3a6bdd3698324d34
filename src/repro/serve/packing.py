"""Dense n-bit packing of format codes into byte buffers.

Every :class:`~repro.formats.NumberFormat` exposes its storage patterns as
``int64`` codes in ``[0, 2**bits)`` (``to_bits``/``from_bits``).  Holding an
8-bit posit in an ``int64`` array forfeits the paper's memory win, so the
artifact layer packs codes into a dense bitstream: code ``i`` occupies bits
``[i*bits, (i+1)*bits)`` of the buffer, MSB first within the code, with zero
padding only in the final byte.  A posit(6,1) tensor of 1000 values
therefore costs exactly ``ceil(6000 / 8) = 750`` bytes — the 4x/5.3x-vs-FP32
storage ratio the paper's §V accounting promises.

Codes of 8, 16 and 32 bits fill whole bytes, so for them the MSB-first
stream *is* an array of big-endian ``>u1``/``>u2``/``>u4`` words: packing is
one cast, and unpacking is a zero-copy :func:`numpy.frombuffer` view of the
packed bytes.  Every other width is bit-sliced with
``np.unpackbits``/``np.packbits`` in blocks of a multiple of 8 codes, so
each block starts and ends on a byte boundary and the scratch stays bounded
however long the tensor is.  ``unpack_codes(pack_codes(codes, b), b, n)``
is the identity for any code array and any width ``1 <= bits <= 32``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_codes", "unpack_codes", "packed_nbytes"]

#: Widest code the packer accepts; every registry format fits in 32 bits.
MAX_BITS = 32

#: Codes per block on the bit-sliced path (widths other than 8, 16, 32).  A
#: multiple of 8, so every block starts on a byte boundary.
_BLOCK = 1 << 14


def _check_bits(bits: int) -> int:
    bits = int(bits)
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"code width must be in [1, {MAX_BITS}] bits, got {bits}")
    return bits


def _word(bits: int) -> np.dtype:
    """The narrowest big-endian unsigned word that holds ``bits`` bits."""
    return np.dtype(">u1" if bits <= 8 else ">u2" if bits <= 16 else ">u4")


def packed_nbytes(count: int, bits: int) -> int:
    """Exact byte length of ``count`` packed ``bits``-wide codes."""
    return (count * _check_bits(bits) + 7) // 8


def pack_codes(codes, bits: int) -> bytes:
    """Pack integer codes into a dense ``bits``-per-code byte string.

    ``codes`` is any integer array; each element is masked to its low
    ``bits`` bits (the codecs already emit codes in ``[0, 2**bits)``, the
    mask just makes packing total).  The flattened order is C order.
    """
    bits = _check_bits(bits)
    arr = np.asarray(codes)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"codes must be an integer array, got dtype {arr.dtype}")
    word = _word(bits)
    # An integer cast to a narrower unsigned word keeps its low bits.
    if bits == 8 * word.itemsize:
        return arr.astype(word, copy=False).tobytes()
    words = arr.reshape(-1).astype(word)
    words &= (1 << bits) - 1
    out = np.empty(packed_nbytes(words.size, bits), dtype=np.uint8)
    for start in range(0, words.size, _BLOCK):
        block = words[start:start + _BLOCK]
        bitmat = np.unpackbits(block.view(np.uint8).reshape(block.size, -1),
                               axis=1)
        packed = np.packbits(bitmat[:, -bits:])
        lo = start * bits // 8
        out[lo:lo + packed.size] = packed
    return out.tobytes()


def unpack_codes(data, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`: recover ``count`` codes.

    The codes come back as big-endian unsigned words, the narrowest of
    ``>u1``/``>u2``/``>u4`` that holds ``bits``.  At 8, 16 and 32 bits the
    result is a zero-copy view of ``data``; other widths are decoded block
    by block into a fresh array of those words.

    Raises ``ValueError`` when ``data`` is shorter than ``count`` codes
    require (a truncated blob must fail loudly, not zero-fill).
    """
    bits = _check_bits(bits)
    count = int(count)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    needed = packed_nbytes(count, bits)
    if len(data) < needed:
        raise ValueError(
            f"packed buffer too short: {count} codes of {bits} bits need "
            f"{needed} bytes, got {len(data)}"
        )
    word = _word(bits)
    if bits == 8 * word.itemsize:
        return np.frombuffer(data, dtype=word, count=count)
    raw = np.frombuffer(data, dtype=np.uint8, count=needed)
    words = np.empty((count, word.itemsize), dtype=np.uint8)
    for start in range(0, count, _BLOCK):
        size = min(_BLOCK, count - start)
        lo = start * bits // 8
        bitmat = np.unpackbits(raw[lo:lo + packed_nbytes(size, bits)],
                               count=size * bits)
        padded = np.zeros((size, 8 * word.itemsize), dtype=np.uint8)
        padded[:, -bits:] = bitmat.reshape(size, bits)
        words[start:start + size] = np.packbits(padded, axis=1)
    return words.reshape(-1).view(word)
