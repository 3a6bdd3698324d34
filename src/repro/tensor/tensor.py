"""A small reverse-mode autograd engine over NumPy arrays.

The paper trains ResNets with PyTorch; this module is the substrate that
replaces PyTorch's autograd for the reproduction.  It implements a
:class:`Tensor` type that records a computation graph as operations are
applied and can backpropagate gradients through it.

Design notes
------------
* Data is always stored as ``float64`` NumPy arrays.  The quantized-training
  code simulates reduced precision by snapping values onto posit/float grids
  ("fake quantization"), so the carrier type stays float64 throughout.
* Each operation builds the output tensor eagerly and attaches a backward
  closure plus references to its parents.  ``Tensor.backward()`` runs a
  topological sort and accumulates gradients into ``Tensor.grad``.  The
  closure returns its ``(parent, partial)`` pairs and holds no reference to
  the output, so a graph has no reference cycle: reference counting frees
  a training step's intermediates as soon as its output is dropped.
* ``backward()`` releases the graph as it walks it.  Once a node other than
  the root has been visited, it drops its closure and its parents, and the
  engine drops the node, so each saved array dies right after its last use
  unless the caller holds that tensor.  The root keeps its closure and
  parents.  A second ``backward()`` through a released node raises
  ``RuntimeError`` instead of adding the gradients twice; build the graph
  again with a new forward.
* Broadcasting is supported for elementwise operations; gradients are
  reduced back to the original shapes with :func:`unbroadcast`.
* The engine intentionally exposes the same method names used by the rest of
  the library (``matmul``, ``relu``, ``sum``, ``reshape``...), which keeps the
  layer implementations readable for anyone familiar with PyTorch.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "unbroadcast"]


class _GradMode(threading.local):
    """Per-thread switch for gradient recording (mirrors ``torch.no_grad``).

    Thread-local like PyTorch's grad mode: the serving engine
    (:mod:`repro.serve`) runs inference under ``no_grad`` on its batcher
    thread while other threads may be training or calling
    ``predict_batch`` — a process-global flag would let one thread's
    save/restore clobber another's mid-forward.
    """

    def __init__(self):
        self.enabled: bool = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables graph construction (this thread only).

    Examples
    --------
    >>> import numpy as np
    >>> x = Tensor(np.ones(3), requires_grad=True)
    >>> with no_grad():
    ...     y = x * 2
    >>> y.requires_grad
    False
    """

    def __enter__(self):
        self._previous = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAD_MODE.enabled = self._previous
        return False


def is_grad_enabled() -> bool:
    """Return whether operations on this thread record the autograd graph."""
    return _GRAD_MODE.enabled


_RELEASED = ("this graph was released by an earlier backward(); "
             "run the forward again to build a new one")


def _released(upstream: np.ndarray) -> list:
    """The closure of a node that ``backward()`` has already run."""
    raise RuntimeError(_RELEASED)


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like holding the tensor's values.  Copied to ``float64``.
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    name:
        Optional label used in debugging and graph dumps.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "name",
        "_backward",
        "_parents",
    )

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self.name: str = name
        self._backward: Optional[Callable[[np.ndarray], list]] = None
        self._parents: tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """NumPy dtype of the underlying array (always float64)."""
        return self.data.dtype

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_part = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_part}, name={self.name!r})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], list],
        name: str = "",
    ) -> "Tensor":
        """Graph node for ``data``; ``backward(upstream)`` returns the
        ``(parent, partial)`` pairs and must not reference the new node.

        A node may reuse its producer's ``parents`` and ``backward`` when its
        gradient is the producer's, as a straight-through quantizer's is
        (:func:`repro.core.transform.fake_quantize`): the producer can then
        be dropped."""
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, name=name)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate gradients from this tensor through the graph.

        Releases the graph as it goes: each node but this one gives up its
        closure and parents once visited, so what backward still needs is
        all that stays alive.  A second call over the same graph raises
        ``RuntimeError``.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to 1.0 and requires the tensor to be
            a scalar in that case.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(np.float64)

        # Topological order of the graph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _released:
                raise RuntimeError(_RELEASED)
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        while topo:
            # Popping drops the engine's reference, and a visited node drops
            # its closure and parents: its arrays die once no caller holds it.
            node = topo.pop()
            backward = node._backward
            if backward is not None and node is not self:
                node._backward, node._parents = _released, ()
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if backward is None:
                if node.requires_grad:  # leaf tensor: accumulate
                    node._accumulate(node_grad)
            else:
                for parent, pgrad in backward(node_grad):
                    if pgrad is None:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pgrad
                    else:
                        grads[key] = pgrad

    # ------------------------------------------------------------------ #
    # Operation wrappers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _binary(self, other, forward, backward, name) -> "Tensor":
        other = Tensor._ensure(other)
        out_data = forward(self.data, other.data)

        def _backward(upstream: np.ndarray) -> list:
            ga, gb = backward(upstream, self.data, other.data, out_data)
            results = []
            if self.requires_grad:
                results.append((self, unbroadcast(ga, self.data.shape)))
            if other.requires_grad:
                results.append((other, unbroadcast(gb, other.data.shape)))
            return results

        return Tensor._make(out_data, (self, other), _backward, name=name)

    def _unary(self, forward, backward, name) -> "Tensor":
        out_data = forward(self.data)

        def _backward(upstream: np.ndarray) -> list:
            g = backward(upstream, self.data, out_data)
            return [(self, g)] if self.requires_grad else []

        return Tensor._make(out_data, (self,), _backward, name=name)

    # --- arithmetic ---------------------------------------------------- #
    def __add__(self, other) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a + b,
            lambda g, a, b, o: (g, g),
            "add",
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a - b,
            lambda g, a, b, o: (g, -g),
            "sub",
        )

    def __rsub__(self, other) -> "Tensor":
        return Tensor._ensure(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a * b,
            lambda g, a, b, o: (g * b, g * a),
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a / b,
            lambda g, a, b, o: (g / b, -g * a / (b * b)),
            "div",
        )

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._ensure(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return self._unary(lambda a: -a, lambda g, a, o: -g, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return self._unary(
            lambda a: a**exponent,
            lambda g, a, o: g * exponent * a ** (exponent - 1),
            "pow",
        )

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other) -> "Tensor":
        """Matrix product supporting 2-D and batched operands."""
        return self._binary(
            other,
            lambda a, b: a @ b,
            lambda g, a, b, o: (g @ np.swapaxes(b, -1, -2), np.swapaxes(a, -1, -2) @ g),
            "matmul",
        )

    # --- reductions ---------------------------------------------------- #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum of elements over the given axis."""
        def _forward(a):
            return a.sum(axis=axis, keepdims=keepdims)

        def _backward(g, a, o):
            if axis is None:
                return np.broadcast_to(g, a.shape).astype(np.float64)
            g_expanded = g
            if not keepdims:
                g_expanded = np.expand_dims(g, axis=axis)
            return np.broadcast_to(g_expanded, a.shape).astype(np.float64)

        return self._unary(_forward, _backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over the given axis."""
        if axis is None:
            count = self.size
        elif isinstance(axis, int):
            count = self.shape[axis]
        else:
            count = int(np.prod([self.shape[a] for a in axis]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Biased variance over the given axis (matches BatchNorm statistics)."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over the given axis (gradient flows to the arg-max elements)."""
        def _forward(a):
            return a.max(axis=axis, keepdims=keepdims)

        def _backward(g, a, o):
            if axis is None:
                mask = (a == a.max()).astype(np.float64)
                mask /= mask.sum()
                return mask * g
            o_full = o if keepdims else np.expand_dims(o, axis=axis)
            g_full = g if keepdims else np.expand_dims(g, axis=axis)
            mask = (a == o_full).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True)
            return mask * g_full

        return self._unary(_forward, _backward, "max")

    # --- shape manipulation -------------------------------------------- #
    def reshape(self, *shape) -> "Tensor":
        """Return a tensor with the same data and a new shape."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        return self._unary(
            lambda a: a.reshape(shape),
            lambda g, a, o: g.reshape(original),
            "reshape",
        )

    def flatten(self, start_dim: int = 1) -> "Tensor":
        """Flatten dimensions from ``start_dim`` onward into one."""
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*new_shape)

    def transpose(self, *axes) -> "Tensor":
        """Permute dimensions; with no arguments, reverses them."""
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        return self._unary(
            lambda a: a.transpose(axes),
            lambda g, a, o: g.transpose(inverse),
            "transpose",
        )

    def pad(self, pad_width: Iterable[tuple[int, int]]) -> "Tensor":
        """Zero-pad the tensor; ``pad_width`` follows ``numpy.pad`` semantics."""
        pad_width = tuple(tuple(p) for p in pad_width)
        slices = tuple(
            slice(before, before + dim) for (before, _), dim in zip(pad_width, self.shape)
        )
        return self._unary(
            lambda a: np.pad(a, pad_width),
            lambda g, a, o: g[slices],
            "pad",
        )

    def __getitem__(self, index) -> "Tensor":
        def _forward(a):
            return a[index]

        def _backward(g, a, o):
            grad = np.zeros_like(a)
            np.add.at(grad, index, g)
            return grad

        return self._unary(_forward, _backward, "getitem")

    # --- elementwise non-linearities ------------------------------------ #
    def relu(self) -> "Tensor":
        """Rectified linear unit."""
        return self._unary(
            lambda a: np.maximum(a, 0.0),
            lambda g, a, o: g * (a > 0),
            "relu",
        )

    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        return self._unary(lambda a: np.exp(a), lambda g, a, o: g * o, "exp")

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        return self._unary(lambda a: np.log(a), lambda g, a, o: g / a, "log")

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return self._unary(lambda a: np.sqrt(a), lambda g, a, o: g * 0.5 / o, "sqrt")

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        return self._unary(lambda a: np.tanh(a), lambda g, a, o: g * (1 - o * o), "tanh")

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid."""
        return self._unary(
            lambda a: 1.0 / (1.0 + np.exp(-a)),
            lambda g, a, o: g * o * (1 - o),
            "sigmoid",
        )

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values into ``[low, high]``; gradient is zero outside."""
        return self._unary(
            lambda a: np.clip(a, low, high),
            lambda g, a, o: g * ((a >= low) & (a <= high)),
            "clip",
        )

    def abs(self) -> "Tensor":
        """Elementwise absolute value."""
        return self._unary(lambda a: np.abs(a), lambda g, a, o: g * np.sign(a), "abs")

    # --- custom-function hook ------------------------------------------ #
    def apply(
        self,
        forward: Callable[[np.ndarray], np.ndarray],
        backward: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
        name: str = "apply",
    ) -> "Tensor":
        """Apply a custom elementwise-style function with an explicit backward.

        ``forward`` maps the input array to the output array.  ``backward``
        receives ``(upstream_grad, input_array, output_array)`` and must
        return the gradient with respect to the input.  This is the hook used
        by the quantization transforms in :mod:`repro.core.transform`.
        """
        return self._unary(forward, backward, name)
