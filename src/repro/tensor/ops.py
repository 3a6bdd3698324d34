"""Additional tensor operations that combine multiple tensors.

Contains graph-aware versions of ``concatenate`` and ``stack`` plus small
helpers used by the models and the data pipeline.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["concatenate", "stack", "zeros", "ones", "randn", "from_numpy"]


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``, propagating gradients to each input."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _backward(upstream: np.ndarray) -> list:
        results = []
        for t, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * upstream.ndim
                index[axis] = slice(int(start), int(end))
                results.append((t, upstream[tuple(index)]))
        return results

    return Tensor._make(data, tensors, _backward, name="concatenate")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, propagating gradients to each input."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def _backward(upstream: np.ndarray) -> list:
        results = []
        for i, t in enumerate(tensors):
            if t.requires_grad:
                results.append((t, np.take(upstream, i, axis=axis)))
        return results

    return Tensor._make(data, tensors, _backward, name="stack")


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    """Tensor of zeros with the given shape."""
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    """Tensor of ones with the given shape."""
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def randn(*shape, rng: np.random.Generator | None = None,
          requires_grad: bool = False) -> Tensor:
    """Tensor of standard-normal samples with the given shape."""
    rng = rng or np.random.default_rng()
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def from_numpy(array: np.ndarray, requires_grad: bool = False) -> Tensor:
    """Wrap a NumPy array in a Tensor (copies to float64)."""
    return Tensor(array, requires_grad=requires_grad)
