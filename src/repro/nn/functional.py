"""Differentiable operations beyond the Tensor dunder methods.

Includes everything Teal's models need: activations, (masked) softmax,
sparse aggregation for FlowGNN message passing, row gathers and the
path <-> grid regroup of per-demand embeddings, concatenation, and
Gaussian log-densities for the stochastic policy (Appendix B).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ..exceptions import ModelError
from .tensor import Tensor, _transpose_last, as_tensor

_LOG_2PI = math.log(2.0 * math.pi)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0)."""
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0), parents=(x,))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (x.data > 0))

    out._backward_fn = backward
    return out


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    x = as_tensor(x)
    value = np.tanh(x.data)
    out = Tensor(value, parents=(x,))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - value ** 2))

    out._backward_fn = backward
    return out


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential."""
    x = as_tensor(x)
    value = np.exp(x.data)
    out = Tensor(value, parents=(x,))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * value)

    out._backward_fn = backward
    return out


def softmax(x: Tensor, axis: int = -1, mask: np.ndarray | None = None) -> Tensor:
    """(Masked) softmax along ``axis``.

    Args:
        x: Logits.
        axis: Softmax axis.
        mask: Optional boolean array broadcastable to ``x``; False entries
            receive zero probability (used for padded path slots).
    """
    x = as_tensor(x)
    logits = x.data
    if mask is not None:
        logits = np.where(mask, logits, -1e30)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    if mask is not None:
        exps = np.where(mask, exps, 0.0)
    denom = exps.sum(axis=axis, keepdims=True)
    value = exps / np.maximum(denom, 1e-30)
    out = Tensor(value, parents=(x,))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dot = (grad * value).sum(axis=axis, keepdims=True)
            g = value * (grad - dot)
            if mask is not None:
                g = np.where(mask, g, 0.0)
            x._accumulate(g)

    out._backward_fn = backward
    return out


def p_norm(x: Tensor, p: float, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Overflow-safe p-norm of non-negative values along ``axis``.

    Computing ``(sum x^p)^(1/p)`` directly overflows float64 once
    ``x^p`` exceeds ~1e308 — for the p=8 MLU surrogate that is any link
    utilization above ~1e38, which failed-link sweeps do produce. The
    standard factored form

        max_x * (sum (x / max_x)^p)^(1/p)

    keeps every intermediate in [0, 1]. Because the p-norm is positively
    homogeneous, treating the factored-out maximum as a constant leaves
    the gradient exactly equal to the true p-norm gradient
    ``(x_i / ||x||_p)^(p-1)``, so the stabilization changes no training
    dynamics — only the overflow behaviour.

    Args:
        x: Non-negative values (e.g. link utilizations); may carry
            leading batch axes.
        p: Norm order (> 1).
        axis: Reduction axis.
        eps: Floor for the factored maximum and the inner sum (keeps the
            all-zero row differentiable and the result finite).

    Returns:
        Tensor with ``axis`` reduced.
    """
    x = as_tensor(x)
    scale = np.maximum(np.abs(x.data).max(axis=axis, keepdims=True), eps)
    scaled = x * Tensor(1.0 / scale)
    inner = (scaled ** p).sum(axis=axis) + eps
    return (inner ** (1.0 / p)) * Tensor(np.squeeze(scale, axis=axis))


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ModelError("concat requires at least one tensor")
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=axis), parents=tuple(tensors)
    )
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(int(start), int(stop))
                t._accumulate(grad[tuple(slicer)])

    out._backward_fn = backward
    return out


def pair_linear(
    a: Tensor, b: Tensor, weight: Tensor, bias: Tensor | None = None
) -> Tensor:
    """``concat([a, b], axis=-1) @ weight (+ bias)`` without the concat.

    The hot op of every FlowGNN message-passing round: the (2*dim, dim)
    update weight is split row-wise and applied as two matmuls, so the
    doubled-width intermediate is never materialized. Mathematically
    identical to the concat formulation (the dot product is just summed in
    two halves); the weight gradient is reassembled to the full (2*dim,
    dim) shape. Operands may carry leading batch axes.
    """
    a = as_tensor(a)
    b = as_tensor(b)
    weight = as_tensor(weight)
    split = a.data.shape[-1]
    if weight.data.shape[0] != split + b.data.shape[-1]:
        raise ModelError(
            f"weight rows {weight.data.shape[0]} != "
            f"{split} + {b.data.shape[-1]} operand features"
        )
    w_top = weight.data[:split]
    w_bottom = weight.data[split:]
    value = a.data @ w_top + b.data @ w_bottom
    if bias is not None:
        value = value + bias.data
    parents = (a, b, weight) + ((bias,) if bias is not None else ())
    out = Tensor(value, parents=parents)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad @ w_top.T)
        if b.requires_grad:
            b._accumulate(grad @ w_bottom.T)
        if weight.requires_grad:
            weight._accumulate(
                np.concatenate(
                    [
                        _transpose_last(a.data) @ grad,
                        _transpose_last(b.data) @ grad,
                    ],
                    axis=-2,
                )
            )
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad)

    out._backward_fn = backward
    return out


def take_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows along the second-to-last axis with scatter-add backward.

    For indices that may repeat (the naive-GNN ablation gathers each
    site once per demand it starts or ends); a one-to-one regroup
    between layouts that invert each other is :func:`regroup`, whose
    backward gathers.

    Args:
        x: (N, F) tensor, or a batched (..., N, F) tensor; the gather
            indexes the N axis and is shared across batch elements.
        indices: Integer row indices (any shape); output shape is
            ``x.shape[:-2] + indices.shape + (F,)``.
    """
    x = as_tensor(x)
    indices = np.asarray(indices, dtype=int)
    if x.ndim < 2:
        raise ModelError("take_rows expects a tensor with at least 2 dims")
    out = Tensor(x.data[..., indices, :], parents=(x,))

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        acc = np.zeros_like(x.data)
        flat_idx = indices.reshape(-1)
        features = x.data.shape[-1]
        # An unbatched (N, F) input is a batch of one (lead 1).
        lead = int(np.prod(x.data.shape[:-2]))
        acc_view = acc.reshape(lead, x.data.shape[-2], features)
        grad_flat = grad.reshape(lead, flat_idx.size, features)
        np.add.at(
            acc_view,
            (np.arange(lead)[:, None], flat_idx[None, :]),
            grad_flat,
        )
        x._accumulate(acc)

    out._backward_fn = backward
    return out


class RowIndex(NamedTuple):
    """A :func:`regroup` index prepared once (build with :func:`row_index`).

    Attributes:
        index: The index itself (any shape; -1 marks a padding slot).
        safe: Its flat entries with the -1s clamped to 0.
        padding: The flat positions of the -1 slots.
    """

    index: np.ndarray
    safe: np.ndarray
    padding: np.ndarray


def row_index(index: np.ndarray | RowIndex) -> RowIndex:
    """Prepare ``index`` for :func:`regroup` (a :class:`RowIndex` passes
    through), so a layout used every step pays for its ``np.where`` and
    ``np.flatnonzero`` once."""
    if isinstance(index, RowIndex):
        return index
    index = np.asarray(index)
    flat = index.reshape(-1)
    invalid = flat < 0
    padding = np.flatnonzero(invalid)
    safe = np.where(invalid, 0, flat) if padding.size else flat
    return RowIndex(index, safe, padding)


def _gather_rows(arr: np.ndarray, index: RowIndex) -> np.ndarray:
    """Rows of ``arr`` (second-to-last axis) at ``index``; -1 gives zeros.

    Shape ``arr.shape[:-2] + index.index.shape + arr.shape[-1:]``. One
    ``np.take``, then the padding slots zeroed through their flat
    positions: the two steps of ``batching.padded_take_rows_into``.
    """
    out = np.take(arr, index.safe, axis=-2)
    if index.padding.size:
        out[..., index.padding, :] = 0.0
    return out.reshape(arr.shape[:-2] + index.index.shape + arr.shape[-1:])


def regroup(
    x: Tensor, index: np.ndarray | RowIndex, inverse: np.ndarray | RowIndex
) -> Tensor:
    """Move rows between two layouts that are exact inverses of each other.

    The path <-> grid regroup of FlowGNN: with ``index`` the (D, k) path
    ids of each grid slot (-1 for padding) and ``inverse`` the (P,) grid
    slot of each path, ``regroup`` lays per-path rows out as per-demand
    grids; with the two swapped it reads them back. Because every real
    row lands in exactly one slot, the backward of a gather by ``index``
    is a gather by ``inverse`` — no scatter-add.

    Args:
        x: (N, F) tensor, or a batched (..., N, F) tensor; the regroup
            acts on the N axis and is shared across batch elements.
        index: Integer row indices (any shape, ``index.size`` slots);
            -1 yields a zero row. Real entries must be distinct. Either
            array may come prepared by :func:`row_index` (the path set
            holds its two layouts that way).
        inverse: Integer array of N entries (any shape), the inverse of
            ``index``: entry ``r`` is the flat slot of ``index`` that
            holds ``r``, -1 where none does.

    Returns:
        ``x.shape[:-2] + index.shape + (F,)`` tensor.
    """
    x = as_tensor(x)
    index = row_index(index)
    inverse = row_index(inverse)
    if x.ndim < 2:
        raise ModelError("regroup expects a tensor with at least 2 dims")
    if inverse.safe.size != x.data.shape[-2]:
        raise ModelError(
            f"inverse has {inverse.safe.size} entries for {x.data.shape[-2]} rows"
        )
    out = Tensor(_gather_rows(x.data, index), parents=(x,))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            slots = grad.reshape(
                x.data.shape[:-2] + (index.safe.size, grad.shape[-1])
            )
            x._accumulate(_gather_rows(slots, inverse).reshape(x.data.shape))

    out._backward_fn = backward
    return out


def _sparse_apply(csr: sp.csr_matrix, arr: np.ndarray) -> np.ndarray:
    """``csr @ arr`` where ``arr`` may carry leading batch axes.

    A batched (..., N, F) operand is folded into a single (N, batch * F)
    dense matrix so the whole batch costs exactly one sparse product —
    the trick that lets FlowGNN aggregate a stack of traffic matrices in
    one pass.
    """
    if arr.ndim <= 2:
        return csr @ arr
    lead = arr.shape[:-2]
    n, features = arr.shape[-2:]
    folded = arr.reshape(-1, n, features).transpose(1, 0, 2).reshape(n, -1)
    product = csr @ folded
    m = product.shape[0]
    return product.reshape(m, -1, features).transpose(1, 0, 2).reshape(
        lead + (m, features)
    )


def sparse_matmul(
    matrix: sp.spmatrix, x: Tensor, transposed: sp.spmatrix | None = None
) -> Tensor:
    """Product ``matrix @ x`` for a constant sparse matrix.

    The backward pass is ``matrix.T @ grad``. This is the aggregation
    primitive of FlowGNN: with the (E, P) edge-path incidence matrix it
    sums PathNode embeddings into EdgeNodes (and transposed, back).
    ``x`` may carry leading batch axes; the batch is folded so forward and
    backward each remain a single sparse product.

    Args:
        matrix: Constant sparse matrix.
        x: Dense operand (..., N, F).
        transposed: Optional precomputed ``matrix.T`` (CSR). When omitted
            the transpose is built lazily at the first backward call, so
            pure-inference forwards never pay for it.
    """
    x = as_tensor(x)
    if not sp.issparse(matrix):
        raise ModelError("sparse_matmul expects a scipy sparse matrix")
    csr = matrix.tocsr()
    out = Tensor(_sparse_apply(csr, x.data), parents=(x,))

    def backward(grad: np.ndarray) -> None:
        nonlocal transposed
        if x.requires_grad:
            if transposed is None:
                transposed = csr.T.tocsr()
            x._accumulate(_sparse_apply(transposed, grad))

    out._backward_fn = backward
    return out


def gaussian_log_prob(mean: Tensor, log_std: Tensor, actions: np.ndarray) -> Tensor:
    """Log-density of ``actions`` under diagonal Gaussians (summed per row).

    Used by COMA*'s stochastic policy: during training actions are sampled
    around the policy mean (Appendix B), and the policy gradient weights
    ``grad log pi(a|s)`` by the advantage.

    Args:
        mean: (D, A) Gaussian means (the policy output).
        log_std: Broadcastable log standard deviations (a parameter).
        actions: (D, A) constant sampled actions.

    Returns:
        (D,) per-row log probabilities.
    """
    mean = as_tensor(mean)
    log_std = as_tensor(log_std)
    actions_t = Tensor(actions)
    std = exp(log_std)
    z = (actions_t - mean) / std
    per_dim = (z * z) * (-0.5) - log_std - 0.5 * _LOG_2PI
    return per_dim.sum(axis=-1)
