"""A reverse-mode automatic-differentiation tensor on numpy.

This is the deep-learning substrate of the reproduction: the paper
implements Teal in PyTorch, which is unavailable in this environment, so
we provide the minimal engine its models need — broadcast-aware
elementwise ops, dense and sparse matrix products, reductions, indexing,
and a topological-order backward pass.

Design notes:

- A :class:`Tensor` wraps an ``np.ndarray`` and records its parents and a
  backward closure when produced by a differentiable op.
- Gradients accumulate into ``.grad`` (an ndarray of the same shape).
- Broadcasting is supported; :func:`_unbroadcast` sums gradients over
  broadcast axes so shapes always match.
- No in-place mutation of tensor data after creation (functional style),
  which keeps the tape valid.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..exceptions import ModelError
from .precision import DEFAULT_PRECISION


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were 1 in the original shape.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


#: Float dtypes a Tensor payload may carry (see repro.nn.precision).
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _as_array(value) -> np.ndarray:
    """Coerce a payload to a float ndarray, *preserving* its precision.

    float32 and float64 arrays pass through unchanged — the substrate is
    dtype-polymorphic and the active precision is whatever dtype the
    inputs (model parameters, demand stacks) carry. Everything else
    (lists, ints, bools, scalars) converts to the float64 default.
    """
    if isinstance(value, np.ndarray) and value.dtype in _FLOAT_DTYPES:
        return value
    if isinstance(value, (np.float32, np.float64)):
        # Reductions of float32 arrays yield numpy scalars; keep them.
        return np.asarray(value)
    return np.asarray(value, dtype=DEFAULT_PRECISION)


def _transpose_last(arr: np.ndarray) -> np.ndarray:
    """Swap the last two axes (matrix transpose of possibly-batched arrays)."""
    if arr.ndim < 2:
        return arr
    return np.swapaxes(arr, -1, -2)


class Tensor:
    """An autodiff tensor.

    Args:
        data: Array-like payload. float32/float64 ndarrays keep their
            dtype (the substrate is dtype-polymorphic; see
            :mod:`repro.nn.precision`); anything else converts to the
            float64 default.
        requires_grad: Whether gradients should flow to this tensor.
        parents: Tensors this one was computed from (tape edges).
        backward_fn: Closure that, given this tensor's output gradient,
            accumulates gradients into the parents.
        name: Optional label for debugging.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in parents
        )
        self._parents = tuple(parents)
        self._backward_fn = backward_fn
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (a view; do not mutate)."""
        return self.data

    def item(self) -> float:
        """Scalar value of a 0-d or 1-element tensor."""
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """A new leaf tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, grad={self.requires_grad}{label})"

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Args:
            gradient: Output gradient; defaults to 1 for scalar tensors.

        Raises:
            ModelError: If called on a non-scalar without a gradient.
        """
        if gradient is None:
            if self.data.size != 1:
                raise ModelError(
                    "backward() on a non-scalar tensor requires a gradient"
                )
            gradient = np.ones_like(self.data)
        gradient = _as_array(gradient)
        if gradient.shape != self.data.shape:
            raise ModelError(
                f"gradient shape {gradient.shape} != tensor shape {self.data.shape}"
            )

        order = self._topological_order()
        self.grad = gradient if self.grad is None else self.grad + gradient
        for node in order:
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def _topological_order(self) -> list["Tensor"]:
        """Nodes reachable from self, in reverse topological order."""
        visited: set[int] = set()
        order: list[Tensor] = []

        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))
        order.reverse()
        return order

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``.grad``.

        The first gradient is stored as is, without a copy: gradients
        are never written in place (later ones accumulate out of place
        and the optimizers only read them), so sharing the array — even
        a view or a read-only broadcast of another node's gradient — is
        safe.
        """
        grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Arithmetic ops
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other, like=self.data)
        out = Tensor(self.data + other.data, parents=(self, other))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        out._backward_fn = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, parents=(self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        out._backward_fn = backward
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other, like=self.data))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other, like=self.data) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other, like=self.data)
        out = Tensor(self.data * other.data, parents=(self, other))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        out._backward_fn = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other, like=self.data)
        out = Tensor(self.data / other.data, parents=(self, other))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2))

        out._backward_fn = backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other, like=self.data) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise ModelError("only scalar exponents are supported")
        out = Tensor(self.data ** exponent, parents=(self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        out._backward_fn = backward
        return out

    def __matmul__(self, other) -> "Tensor":
        """Matrix product with stacked (batched) operand support.

        Either operand may carry leading batch axes (numpy matmul
        semantics); ``_unbroadcast`` inside :meth:`_accumulate` sums the
        gradient over axes broadcast across the batch, so e.g. a shared
        (I, O) weight applied to (B, D, I) inputs receives a (I, O)
        gradient summed over the batch.
        """
        other = as_tensor(other)
        out = Tensor(self.data @ other.data, parents=(self, other))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ _transpose_last(other.data))
            if other.requires_grad:
                other._accumulate(_transpose_last(self.data) @ grad)

        out._backward_fn = backward
        return out

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out = Tensor(self.data.reshape(shape), parents=(self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        out._backward_fn = backward
        return out

    @property
    def T(self) -> "Tensor":
        out = Tensor(self.data.T, parents=(self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.T)

        out._backward_fn = backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), parents=(self,))

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        out._backward_fn = backward
        return out

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)


def as_tensor(value, like: np.ndarray | None = None) -> Tensor:
    """Coerce arrays/scalars to constant tensors; pass tensors through.

    Args:
        value: Tensor, ndarray, or scalar.
        like: Optional reference array. Plain Python scalars adopt its
            dtype — the tensor analogue of numpy's weak scalar
            promotion, so ``float32_tensor * 2.0`` stays float32 instead
            of silently promoting through a float64 scalar tensor.
            Numpy scalars are *strong* (as in NEP 50) and keep their own
            dtype: ``np.float64`` subclasses Python ``float``, so it
            must be excluded here or float64 reduction results would be
            silently rounded into float32.
    """
    if isinstance(value, Tensor):
        return value
    if (
        like is not None
        and isinstance(value, (int, float))
        and not isinstance(value, (bool, np.generic))
    ):
        return Tensor(np.asarray(value, dtype=like.dtype))
    return Tensor(value)


class Parameter(Tensor):
    """A trainable tensor (always requires grad)."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)
