"""Tests for convolution and pooling primitives (forward values and gradients)."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    avg_pool2d,
    col2im,
    conv2d,
    global_avg_pool2d,
    im2col,
    max_pool2d,
)


def reference_conv2d(x, w, b, stride, padding):
    """Naive direct convolution used as ground truth."""
    n, c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            patch = xp[:, :, i * sh:i * sh + kh, j * sw:j * sw + kw]
            out[:, :, i, j] = np.tensordot(patch, w, axes=([1, 2, 3], [1, 2, 3]))
    if b is not None:
        out += b.reshape(1, -1, 1, 1)
    return out


def einsum_conv2d(x, w, b, upstream, stride, padding):
    """The einsum lowering conv2d used before its matmul form: the oracle.

    Returns the forward output and the gradients of ``x``, ``w`` and ``b``
    (``None`` without a bias) for the output gradient ``upstream``.
    """
    n = x.shape[0]
    c_out, _, kh, kw = w.shape
    cols = im2col(x, (kh, kw), stride, padding)
    w_mat = w.reshape(c_out, -1)
    out = np.einsum("of,nfl->nol", w_mat, cols, optimize=True)
    out = out.reshape(n, c_out, *upstream.shape[2:])
    if b is not None:
        out = out + b.reshape(1, c_out, 1, 1)
    grad_out = upstream.reshape(n, c_out, -1)
    grad_cols = np.einsum("of,nol->nfl", w_mat, grad_out, optimize=True)
    grad_x = col2im(grad_cols, x.shape, (kh, kw), stride, padding)
    grad_w = np.einsum("nol,nfl->of", grad_out, cols, optimize=True).reshape(w.shape)
    grad_b = upstream.sum(axis=(0, 2, 3)) if b is not None else None
    return out, grad_x, grad_w, grad_b


#: The nine conv layers of the benchmark's ``cifar_resnet`` at batch 16, as
#: (input shape, weight shape, stride, padding); layer1's two convs share a
#: shape.  Plus one odd-sized, non-square case with a bias.
CIFAR_RESNET_CONVS = {
    "conv1": ((16, 3, 32, 32), (8, 3, 3, 3), 1, 1),
    "layer1.0.conv1": ((16, 8, 32, 32), (8, 8, 3, 3), 1, 1),
    "layer1.0.conv2": ((16, 8, 32, 32), (8, 8, 3, 3), 1, 1),
    "layer2.0.conv1": ((16, 8, 32, 32), (16, 8, 3, 3), 2, 1),
    "layer2.0.conv2": ((16, 16, 16, 16), (16, 16, 3, 3), 1, 1),
    "layer2.0.downsample.0": ((16, 8, 32, 32), (16, 8, 1, 1), 2, 0),
    "layer3.0.conv1": ((16, 16, 16, 16), (32, 16, 3, 3), 2, 1),
    "layer3.0.conv2": ((16, 32, 8, 8), (32, 32, 3, 3), 1, 1),
    "layer3.0.downsample.0": ((16, 16, 16, 16), (32, 16, 1, 1), 2, 0),
}


class TestConvLoweringDifferential:
    """The matmul lowering is bit-identical to the einsum one it replaced."""

    @pytest.mark.parametrize("x_shape, w_shape, stride, padding, bias", [
        *[(*shape, False) for shape in CIFAR_RESNET_CONVS.values()],
        ((3, 5, 7, 9), (6, 5, 3, 2), (2, 1), (1, 0), True),
    ], ids=[*CIFAR_RESNET_CONVS, "odd_with_bias"])
    def test_matches_einsum_lowering(self, rng, monkeypatch, x_shape, w_shape,
                                     stride, padding, bias):
        import repro.tensor.conv as conv_module

        stride, padding = conv_module._pair(stride), conv_module._pair(padding)
        x_data = rng.standard_normal(x_shape)
        w_data = rng.standard_normal(w_shape)
        b_data = rng.standard_normal(w_shape[0]) if bias else None
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True) if bias else None

        scattered = []

        def spy_col2im(cols, *args):
            scattered.append(cols.flags.c_contiguous)
            return col2im(cols, *args)

        monkeypatch.setattr(conv_module, "col2im", spy_col2im)
        out = conv2d(x, w, b, stride=stride, padding=padding)
        upstream = rng.standard_normal(out.shape)
        out.backward(upstream)

        expected = einsum_conv2d(x_data, w_data, b_data, upstream, stride, padding)
        np.testing.assert_array_equal(out.data, expected[0])
        np.testing.assert_array_equal(x.grad, expected[1])
        np.testing.assert_array_equal(w.grad, expected[2])
        if bias:
            np.testing.assert_array_equal(b.grad, expected[3])
        # The GEMM outputs are C-contiguous, so col2im's scatter-add, and
        # the layers after the convolution, read memory in order.
        assert out.data.flags.c_contiguous
        assert scattered == [True]


def closure_arrays(function) -> list:
    """The arrays a backward closure holds, as their base buffers."""
    arrays = []
    for cell in function.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            arrays.append(value)
    return arrays


class TestConvBackwardKeepsOnlyInputs:
    """Backward rebuilds the im2col columns from the input: the graph node
    holds no array larger than the input (the columns of a 3x3 kernel are
    nine times its size)."""

    @pytest.mark.parametrize("x_shape, w_shape, stride, padding",
                             list(CIFAR_RESNET_CONVS.values()), ids=list(CIFAR_RESNET_CONVS))
    def test_closure_holds_nothing_larger_than_the_input(self, rng, x_shape, w_shape,
                                                         stride, padding):
        x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
        w = Tensor(rng.standard_normal(w_shape), requires_grad=True)
        out = conv2d(x, w, None, stride=stride, padding=padding)
        sizes = [array.nbytes for array in closure_arrays(out._backward)]
        assert all(size <= x.data.nbytes for size in sizes), (sizes, x.data.nbytes)


class TestWeightGradColumns:
    """The weight-gradient GEMM gets the im2col columns laid out
    ``(C*kh*kw, N, L)``, the order it reads them in, and computes the same
    dW bit for bit as over the row-major columns (the layout assertion fails
    at the parent, which passed ``im2col``'s ``(N, C*kh*kw, L)`` copy)."""

    @pytest.mark.parametrize("x_shape, w_shape, stride, padding", [
        *CIFAR_RESNET_CONVS.values(),
        ((3, 5, 7, 9), (6, 5, 3, 2), (2, 1), (1, 0)),
    ], ids=[*CIFAR_RESNET_CONVS, "odd_stride_padding"])
    def test_dw_reads_column_major_columns_bit_identically(self, rng, monkeypatch, x_shape,
                                                          w_shape, stride, padding):
        from repro.tensor.conv import _pair

        stride, padding = _pair(stride), _pair(padding)
        x_data = rng.standard_normal(x_shape)
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(rng.standard_normal(w_shape), requires_grad=True)
        out = conv2d(x, w, None, stride=stride, padding=padding)
        upstream = rng.standard_normal(out.shape)

        einsum, operands = np.einsum, []

        def spy_einsum(subscripts, *arrays, **kwargs):
            operands.append((subscripts, arrays))
            return einsum(subscripts, *arrays, **kwargs)

        monkeypatch.setattr(np, "einsum", spy_einsum)
        out.backward(upstream)
        monkeypatch.undo()

        [(subscripts, (grad_out, cols))] = operands
        assert subscripts == "nol,nfl->of"
        row_major = im2col(x_data, w_shape[2:], stride, padding)
        np.testing.assert_array_equal(cols, row_major)
        assert cols.transpose(1, 0, 2).flags.c_contiguous
        expected = np.einsum("nol,nfl->of", upstream.reshape(grad_out.shape), row_major,
                             optimize=True)
        np.testing.assert_array_equal(w.grad, expected.reshape(w_shape))


class TestIm2Col:
    def test_shape(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8))
        cols = im2col(x, (3, 3), (1, 1), (1, 1))
        assert cols.shape == (2, 3 * 9, 64)

    def test_values_for_identity_kernel_position(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        cols = im2col(x, (1, 1), (1, 1), (0, 0))
        np.testing.assert_array_equal(cols.ravel(), x.ravel())

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        x = rng.standard_normal((2, 3, 6, 6))
        y = rng.standard_normal((2, 3 * 9, 16))
        lhs = np.sum(im2col(x, (3, 3), (1, 1), (0, 0)) * y)
        rhs = np.sum(x * col2im(y, x.shape, (3, 3), (1, 1), (0, 0)))
        assert lhs == pytest.approx(rhs)

    def test_invalid_output_size_raises(self):
        x = np.zeros((1, 1, 2, 2))
        with pytest.raises(ValueError):
            im2col(x, (5, 5), (1, 1), (0, 0))


class TestConv2dForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), ((2, 1), (1, 0))])
    def test_matches_naive_convolution(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 7, 9))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        stride_pair = stride if isinstance(stride, tuple) else (stride, stride)
        padding_pair = padding if isinstance(padding, tuple) else (padding, padding)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        expected = reference_conv2d(x, w, b, stride_pair, padding_pair)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_no_bias(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), None, padding=1)
        expected = reference_conv2d(x, w, None, (1, 1), (1, 1))
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_1x1_convolution_is_channel_mixing(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((5, 3, 1, 1))
        out = conv2d(Tensor(x), Tensor(w), None)
        expected = np.einsum("oc,nchw->nohw", w[:, :, 0, 0], x)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.zeros((1, 3, 5, 5))), Tensor(np.zeros((2, 4, 3, 3))))


class TestConv2dGradients:
    def test_gradcheck_all_inputs(self, rng, numgrad):
        x_data = rng.standard_normal((2, 2, 5, 5))
        w_data = rng.standard_normal((3, 2, 3, 3))
        b_data = rng.standard_normal(3)

        def loss():
            out = conv2d(Tensor(x_data), Tensor(w_data), Tensor(b_data), stride=2, padding=1)
            return float((out * out).sum().item())

        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        out = conv2d(x, w, b, stride=2, padding=1)
        (out * out).sum().backward()
        np.testing.assert_allclose(x.grad, numgrad(loss, x_data), atol=1e-5)
        np.testing.assert_allclose(w.grad, numgrad(loss, w_data), atol=1e-5)
        np.testing.assert_allclose(b.grad, numgrad(loss, b_data), atol=1e-5)

    def test_gradients_only_for_tensors_requiring_grad(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        out = conv2d(x, w, None, padding=1)
        out.sum().backward()
        assert x.grad is None
        assert w.grad is not None


class TestPooling:
    def test_max_pool_values(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = max_pool2d(Tensor(x), 2)
        assert out.data.item() == 4.0

    def test_max_pool_gradient_goes_to_max(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        np.testing.assert_array_equal(x.grad, [[[[0, 0], [0, 1.0]]]])

    def test_max_pool_gradcheck(self, rng, numgrad):
        x_data = rng.standard_normal((2, 3, 6, 6))

        def loss():
            return float((max_pool2d(Tensor(x_data), 2) ** 2).sum().item())

        x = Tensor(x_data, requires_grad=True)
        (max_pool2d(x, 2) ** 2).sum().backward()
        np.testing.assert_allclose(x.grad, numgrad(loss, x_data), atol=1e-5)

    def test_max_pool_padding_is_negative_infinity(self):
        """A border window over negative inputs takes a real input's maximum."""
        x = Tensor(-1 - np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        out = max_pool2d(x, 3, stride=2, padding=1)
        np.testing.assert_array_equal(out.data, [[[[-1.0, -2.0], [-5.0, -6.0]]]])
        out.sum().backward()
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, :2, :2] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_max_pool_stride_and_padding(self, rng):
        x = rng.standard_normal((1, 2, 7, 7))
        out = max_pool2d(Tensor(x), 3, stride=2, padding=1)
        assert out.shape == (1, 2, 4, 4)

    def test_avg_pool_values(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert avg_pool2d(Tensor(x), 2).data.item() == 2.5

    def test_avg_pool_gradient_is_uniform(self):
        x = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
        avg_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 4, 4), 0.25))

    def test_avg_pool_gradcheck(self, rng, numgrad):
        x_data = rng.standard_normal((1, 2, 4, 4))

        def loss():
            return float((avg_pool2d(Tensor(x_data), 2) ** 2).sum().item())

        x = Tensor(x_data, requires_grad=True)
        (avg_pool2d(x, 2) ** 2).sum().backward()
        np.testing.assert_allclose(x.grad, numgrad(loss, x_data), atol=1e-6)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 5, 5))
        out = global_avg_pool2d(Tensor(x))
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3), keepdims=True))
