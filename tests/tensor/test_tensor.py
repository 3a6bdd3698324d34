"""Tests for the autograd Tensor: ops, broadcasting, and gradient correctness."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor import (
    Tensor,
    avg_pool2d,
    concatenate,
    conv2d,
    is_grad_enabled,
    max_pool2d,
    no_grad,
    stack,
    unbroadcast,
)


class TestTensorBasics:
    def test_data_is_float64(self):
        assert Tensor([1, 2, 3]).dtype == np.float64

    def test_shape_properties(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24
        assert len(t) == 2

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_detach_breaks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad

    def test_requires_grad_not_propagated_from_constants(self):
        x = Tensor([1.0])
        y = x * 2
        assert not y.requires_grad

    def test_requires_grad_propagates(self):
        x = Tensor([1.0], requires_grad=True)
        assert (x * 2).requires_grad

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None


class TestNoGrad:
    def test_disables_graph_construction(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 3
        assert not y.requires_grad

    def test_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_new_tensors_inside_no_grad(self):
        with no_grad():
            x = Tensor([1.0], requires_grad=True)
        assert not x.requires_grad


class TestBackwardMechanics:
    def test_backward_on_non_scalar_requires_grad_argument(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_gradient_accumulates_over_multiple_backward(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3).sum().backward()
        (x * 3).sum().backward()
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_diamond_graph_accumulates_correctly(self):
        # y = x*2 used twice: d/dx (x*2 + x*2*x) evaluated at x=3 -> 2 + 4x = 14
        x = Tensor([3.0], requires_grad=True)
        y = x * 2
        z = (y + y * x).sum()
        z.backward()
        np.testing.assert_allclose(x.grad, [14.0])

    def test_explicit_upstream_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 2).backward(np.array([1.0, 10.0]))
        np.testing.assert_array_equal(x.grad, [2.0, 20.0])

    @pytest.mark.parametrize("op", [
        lambda t: t * 2.0,
        lambda t: t.exp(),
        lambda t: conv2d(t, Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)),
        lambda t: max_pool2d(t, 2),
        lambda t: avg_pool2d(t, 2),
        lambda t: concatenate([t, t]),
        lambda t: stack([t, t]),
    ], ids=["binary", "unary", "conv2d", "max_pool2d", "avg_pool2d",
            "concatenate", "stack"])
    def test_dropped_graph_is_freed_without_the_cycle_collector(self, op):
        """No graph node is part of a reference cycle, so reference counting
        alone frees a step's intermediates once its output is dropped."""
        x = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
        gc.disable()
        try:
            mid = op(x)
            probe = weakref.ref(mid.data)
            loss = (mid * mid).sum()
            del mid
            loss.backward()
            del loss
            assert probe() is None
        finally:
            gc.enable()
        assert x.grad is not None


class TestBackwardReleasesTheGraph:
    def test_visited_nodes_give_up_their_closure_and_parents(self):
        """The root keeps both, so a caller can still read the node it holds;
        every other node it reached drops them (fails at the parent, where
        the graph stayed whole)."""
        x = Tensor([1.0, 2.0], requires_grad=True)
        mid = x * 3
        loss = mid.sum()
        closure = loss._backward
        loss.backward()
        assert loss._parents == (mid,) and loss._backward is closure
        assert mid._parents == ()
        assert x._parents == () and x._backward is None  # leaves are untouched

    def test_second_backward_over_a_released_graph_raises(self):
        """It raises before adding anything, where the parent added every
        gradient a second time."""
        scale = Tensor(2.0, requires_grad=True)
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        loss = scale * (x * x).relu().sum()
        loss.backward()
        first = scale.grad.copy(), x.grad.copy()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        np.testing.assert_array_equal(scale.grad, first[0])
        np.testing.assert_array_equal(x.grad, first[1])


class TestArithmeticGradients:
    def test_add(self, numgrad):
        data = np.random.default_rng(0).standard_normal((3, 4))
        x = Tensor(data, requires_grad=True)
        (x + 2.5).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(data))

    def test_mul_gradient(self, numgrad):
        rng = np.random.default_rng(1)
        a_data, b_data = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b_data)
        np.testing.assert_allclose(b.grad, a_data)

    def test_div_gradient(self, numgrad):
        rng = np.random.default_rng(2)
        a_data = rng.standard_normal((4,))
        b_data = rng.uniform(1, 2, (4,))
        a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, 1 / b_data)
        np.testing.assert_allclose(b.grad, -a_data / b_data**2)

    def test_pow_gradient(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        (x**3).sum().backward()
        np.testing.assert_allclose(x.grad, 3 * np.array([2.0, 3.0]) ** 2)

    def test_neg_and_sub(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        (5.0 - x).sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0, -1.0])

    def test_matmul_gradient(self, numgrad):
        rng = np.random.default_rng(3)
        a_data = rng.standard_normal((3, 4))
        b_data = rng.standard_normal((4, 5))

        def loss():
            return float((Tensor(a_data) @ Tensor(b_data)).sum().item())

        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, numgrad(loss, a_data), atol=1e-6)
        np.testing.assert_allclose(b.grad, numgrad(loss, b_data), atol=1e-6)

    def test_batched_matmul(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)


class TestBroadcasting:
    def test_unbroadcast_sums_added_dims(self):
        grad = np.ones((5, 3, 4))
        np.testing.assert_array_equal(unbroadcast(grad, (3, 4)), np.full((3, 4), 5.0))

    def test_unbroadcast_sums_size_one_dims(self):
        grad = np.ones((3, 4))
        np.testing.assert_array_equal(unbroadcast(grad, (3, 1)), np.full((3, 1), 4.0))

    def test_broadcast_add_gradients(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.full((3,), 2.0))

    def test_broadcast_mul_gradients(self):
        a = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        b = Tensor(np.full((1, 3), 3.0), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 3.0))
        np.testing.assert_array_equal(b.grad, np.full((1, 3), 4.0))


class TestReductions:
    def test_sum_all(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_mean_gradient(self):
        x = Tensor(np.ones((4, 5)), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((4, 5), 1 / 20))

    def test_mean_axis_tuple(self):
        x = Tensor(np.ones((2, 3, 4, 5)), requires_grad=True)
        out = x.mean(axis=(2, 3))
        assert out.shape == (2, 3)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3, 4, 5), 1 / 20))

    def test_var_matches_numpy(self):
        data = np.random.default_rng(0).standard_normal((3, 4))
        assert Tensor(data).var().item() == pytest.approx(data.var())

    def test_max_gradient_flows_to_argmax(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        x.max().backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])

    def test_max_axis(self, numgrad):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((3, 4))
        x = Tensor(data, requires_grad=True)
        x.max(axis=1).sum().backward()

        def loss():
            return float(Tensor(data).max(axis=1).sum().item())

        np.testing.assert_allclose(x.grad, numgrad(loss, data), atol=1e-6)


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self):
        x = Tensor(np.arange(12.0), requires_grad=True)
        x.reshape(3, 4).sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones(12))

    def test_flatten(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.flatten().shape == (2, 12)

    def test_transpose_gradient(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 4)), requires_grad=True)
        y = x.transpose(2, 0, 1)
        assert y.shape == (4, 2, 3)
        y.sum().backward()
        assert x.grad.shape == (2, 3, 4)

    def test_default_transpose_reverses(self):
        assert Tensor(np.zeros((2, 3, 4))).transpose().shape == (4, 3, 2)

    def test_pad_and_gradient(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        padded = x.pad([(1, 1), (0, 2)])
        assert padded.shape == (4, 4)
        padded.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))

    def test_getitem_gradient(self):
        x = Tensor(np.arange(10.0), requires_grad=True)
        x[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1
        np.testing.assert_array_equal(x.grad, expected)


class TestNonlinearities:
    @pytest.mark.parametrize("op,derivative", [
        ("exp", lambda x: np.exp(x)),
        ("tanh", lambda x: 1 - np.tanh(x) ** 2),
        ("sigmoid", lambda x: (1 / (1 + np.exp(-x))) * (1 - 1 / (1 + np.exp(-x)))),
    ])
    def test_elementwise_derivatives(self, op, derivative):
        data = np.linspace(-2, 2, 11)
        x = Tensor(data, requires_grad=True)
        getattr(x, op)().sum().backward()
        np.testing.assert_allclose(x.grad, derivative(data), atol=1e-10)

    def test_relu_gradient_mask(self):
        x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0])

    def test_log_gradient(self):
        data = np.array([0.5, 1.0, 4.0])
        x = Tensor(data, requires_grad=True)
        x.log().sum().backward()
        np.testing.assert_allclose(x.grad, 1 / data)

    def test_sqrt_gradient(self):
        data = np.array([1.0, 4.0, 9.0])
        x = Tensor(data, requires_grad=True)
        x.sqrt().sum().backward()
        np.testing.assert_allclose(x.grad, 0.5 / np.sqrt(data))

    def test_clip_gradient(self):
        x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_abs_gradient(self):
        x = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        x.abs().sum().backward()
        np.testing.assert_array_equal(x.grad, [-1.0, 1.0])

    def test_apply_custom_function(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        doubled = x.apply(lambda a: a * 2, lambda g, a, o: g * 2, name="double")
        doubled.sum().backward()
        np.testing.assert_array_equal(doubled.data, [2.0, 4.0])
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])


class TestHypothesisGradients:
    @given(data=hnp.arrays(np.float64, shape=(4, 3),
                           elements=st.floats(-5, 5, allow_nan=False)))
    @settings(max_examples=50, deadline=None)
    def test_sum_of_products_gradient(self, data):
        """d/dx sum(x * x) == 2x for arbitrary x."""
        x = Tensor(data, requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * data, atol=1e-9)

    @given(data=hnp.arrays(np.float64, shape=(3, 3),
                           elements=st.floats(-3, 3, allow_nan=False)))
    @settings(max_examples=50, deadline=None)
    def test_linearity_of_gradient(self, data):
        """Gradient of a*f + b*f is (a+b) * grad(f)."""
        x1 = Tensor(data, requires_grad=True)
        (x1.relu() * 2.0 + x1.relu() * 3.0).sum().backward()
        x2 = Tensor(data, requires_grad=True)
        (x2.relu() * 5.0).sum().backward()
        np.testing.assert_allclose(x1.grad, x2.grad, atol=1e-9)


def test_no_grad_is_thread_local():
    """Concurrent no_grad blocks must not clobber each other's grad mode.

    The serving engine runs eval forwards under no_grad on its batcher
    thread while other threads may be training; a process-global flag
    would let one thread's restore disable gradients everywhere.
    """
    import threading
    import time

    from repro.tensor import Tensor, no_grad
    from repro.tensor.tensor import is_grad_enabled

    stop = threading.Event()
    misreads = []

    def _eval_loop():
        while not stop.is_set():
            with no_grad():
                if is_grad_enabled():
                    misreads.append("enabled inside no_grad")
                time.sleep(0.0001)

    worker = threading.Thread(target=_eval_loop, daemon=True)
    worker.start()
    try:
        deadline = time.time() + 0.2
        while time.time() < deadline:
            assert is_grad_enabled(), "worker's no_grad leaked to this thread"
            x = Tensor(np.ones(2), requires_grad=True)
            assert (x * 2).requires_grad
    finally:
        stop.set()
        worker.join(timeout=5.0)
    assert not misreads
