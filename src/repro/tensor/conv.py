"""Convolution and pooling primitives (im2col-based) with autograd support.

These are the compute-heavy substrate operations that the paper's ResNet
models are built from.  The forward passes use the classic im2col lowering so
that the inner loop is a single large matrix multiplication, and the backward
passes reuse the same lowering (col2im) for the input gradient and a
transposed matmul for the weight gradient.  The convolution forward and
input-gradient products are batched ``np.matmul`` calls, chosen for their
C-contiguous outputs: the scatter-add in :func:`col2im` and the layers after
a convolution then read memory in order.

A convolution's graph node keeps only its inputs.  The im2col columns (nine
values per input value for a 3x3 kernel) are dropped after the forward
product; backward rebuilds them, bit for bit, from the input when the weight
needs a gradient, and frees them before the input-gradient product.  The
rebuilt columns hold the same values as :func:`im2col`'s but are laid out
``(C*kh*kw, N, L)`` in memory, the order in which the weight-gradient GEMM
reads them, so it takes them in place; over ``im2col``'s ``(N, C*kh*kw, L)``
layout it would first copy them transposed.

All functions take and return :class:`repro.tensor.Tensor` objects with
``NCHW`` layout.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["im2col", "col2im", "conv2d", "max_pool2d", "avg_pool2d", "global_avg_pool2d"]


def _pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size would be non-positive "
            f"(input={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def _patches(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
             padding: tuple[int, int]) -> np.ndarray:
    """Strided view of every patch of the zero-padded ``x``:
    ``(N, C, kh, kw, out_h, out_w)``."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = _output_size(h, kh, sh, ph)
    out_w = _output_size(w, kw, sw, pw)

    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    strides = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(
            strides[0],
            strides[1],
            strides[2],
            strides[3],
            strides[2] * sh,
            strides[3] * sw,
        ),
        writeable=False,
    )


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
           padding: tuple[int, int]) -> np.ndarray:
    """Lower image patches to columns.

    Parameters
    ----------
    x:
        Input array of shape ``(N, C, H, W)``.
    kernel, stride, padding:
        Kernel size, stride, and zero padding as ``(h, w)`` pairs.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(N, C * kh * kw, out_h * out_w)``.
    """
    patches = _patches(x, kernel, stride, padding)
    n, c, kh, kw, out_h, out_w = patches.shape
    return patches.reshape(n, c * kh * kw, out_h * out_w)


def _weight_grad_cols(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
                      padding: tuple[int, int]) -> np.ndarray:
    """:func:`im2col`'s ``(N, C*kh*kw, L)`` columns, laid out ``(C*kh*kw, N, L)``
    in memory: the weight-gradient GEMM reads them as an F-ordered
    ``(N*L, C*kh*kw)`` matrix in place, with no transposed copy."""
    patches = _patches(x, kernel, stride, padding)
    n, c, kh, kw, out_h, out_w = patches.shape
    cols = np.ascontiguousarray(patches.transpose(1, 2, 3, 0, 4, 5))
    return cols.reshape(c * kh * kw, n, out_h * out_w).transpose(1, 0, 2)


def col2im(cols: np.ndarray, input_shape: tuple[int, int, int, int],
           kernel: tuple[int, int], stride: tuple[int, int],
           padding: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into an image.

    Overlapping patch positions are accumulated, which makes this exactly the
    adjoint operation needed for the convolution input gradient.
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = _output_size(h, kh, sh, ph)
    out_w = _output_size(w, kw, sw, pw)

    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j, :, :]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph:ph + h, pw:pw + w]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """2-D convolution (cross-correlation) over an NCHW input.

    Parameters
    ----------
    x:
        Input tensor of shape ``(N, C_in, H, W)``.
    weight:
        Filter tensor of shape ``(C_out, C_in, kh, kw)``.
    bias:
        Optional bias of shape ``(C_out,)``.
    stride, padding:
        Integers or ``(h, w)`` pairs.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} do not match weight channels {c_in_w}")

    out_h = _output_size(h, kh, stride[0], padding[0])
    out_w = _output_size(w, kw, stride[1], padding[1])

    cols = im2col(x.data, (kh, kw), stride, padding)  # (N, C*kh*kw, L)
    w_mat = weight.data.reshape(c_out, -1)  # (C_out, C*kh*kw)
    out = np.matmul(w_mat, cols).reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def _backward(upstream: np.ndarray) -> list:
        grad_out = upstream.reshape(n, c_out, out_h * out_w)  # (N, C_out, L)
        results = []
        if weight.requires_grad:
            # The columns, rebuilt from the input, are freed before the dx GEMM.
            grad_w = np.einsum("nol,nfl->of", grad_out,
                               _weight_grad_cols(x.data, (kh, kw), stride, padding),
                               optimize=True)
            results.append((weight, grad_w.reshape(weight.shape)))
        if x.requires_grad:
            # d/dx: scatter W^T @ grad_out back through col2im.
            grad_cols = np.matmul(w_mat.T, grad_out)
            grad_x = col2im(grad_cols, x.shape, (kh, kw), stride, padding)
            results.append((x, grad_x))
        if bias is not None and bias.requires_grad:
            results.append((bias, upstream.sum(axis=(0, 2, 3))))
        return results

    return Tensor._make(out, parents, _backward, name="conv2d")


def max_pool2d(x: Tensor, kernel_size=2, stride=None, padding=0) -> Tensor:
    """Max pooling over spatial windows of an NCHW input.

    The padding is ``-inf``, so a window over the border takes its maximum,
    and routes its gradient, over real inputs only.
    """
    kernel = _pair(kernel_size)
    stride = kernel if stride is None else _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    out_h = _output_size(h, kernel[0], stride[0], padding[0])
    out_w = _output_size(w, kernel[1], stride[1], padding[1])

    ph, pw = padding
    padded = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    cols = im2col(padded, kernel, stride, (0, 0))  # (N, C*kh*kw, L)
    cols = cols.reshape(n, c, kernel[0] * kernel[1], out_h * out_w)
    argmax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, argmax[:, :, None, :], axis=2).squeeze(2)
    out = out.reshape(n, c, out_h, out_w)

    def _backward(upstream: np.ndarray) -> list:
        if not x.requires_grad:
            return []
        grad_cols = np.zeros((n, c, kernel[0] * kernel[1], out_h * out_w), dtype=np.float64)
        up = upstream.reshape(n, c, 1, out_h * out_w)
        np.put_along_axis(grad_cols, argmax[:, :, None, :], up, axis=2)
        grad_cols = grad_cols.reshape(n, c * kernel[0] * kernel[1], out_h * out_w)
        grad_x = col2im(grad_cols, x.shape, kernel, stride, padding)
        return [(x, grad_x)]

    return Tensor._make(out, (x,), _backward, name="max_pool2d")


def avg_pool2d(x: Tensor, kernel_size=2, stride=None, padding=0) -> Tensor:
    """Average pooling over spatial windows of an NCHW input."""
    kernel = _pair(kernel_size)
    stride = kernel if stride is None else _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    out_h = _output_size(h, kernel[0], stride[0], padding[0])
    out_w = _output_size(w, kernel[1], stride[1], padding[1])
    window = kernel[0] * kernel[1]

    cols = im2col(x.data, kernel, stride, padding)
    cols = cols.reshape(n, c, window, out_h * out_w)
    out = cols.mean(axis=2).reshape(n, c, out_h, out_w)

    def _backward(upstream: np.ndarray) -> list:
        if not x.requires_grad:
            return []
        up = upstream.reshape(n, c, 1, out_h * out_w) / window
        grad_cols = np.broadcast_to(up, (n, c, window, out_h * out_w)).copy()
        grad_cols = grad_cols.reshape(n, c * window, out_h * out_w)
        grad_x = col2im(grad_cols, x.shape, kernel, stride, padding)
        return [(x, grad_x)]

    return Tensor._make(out, (x,), _backward, name="avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning shape ``(N, C, 1, 1)``."""
    return x.mean(axis=(2, 3), keepdims=True)
