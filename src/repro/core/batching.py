"""Batched segment arithmetic and fused elementwise kernels.

Two families of primitives live here, both shared across the training,
inference, and ADMM stacks:

**Segment ops.** The per-matrix math in COMA*'s decomposable reward is
built from three flat-index primitives over fixed integer maps
(path -> demand, incidence pair -> edge, ...):
``np.bincount`` segment sums, ``np.maximum.at`` segment maxima, and
plain gathers. All of them extend to a leading (T,) batch axis by
*tiling*: offset the index array by ``t * num_segments`` for batch
element ``t`` and run the same 1-D primitive over the flattened (T * N,)
weights. Because every segment still accumulates its elements in the
original order, the tiled result is bit-identical to running the
per-matrix primitive T times — which is what lets the batched trainers
reproduce the per-TM loops to machine precision instead of merely
"close". The ADMM fine-tuner gets the same guarantee from
:func:`csr_operand_matmul_into` over node-major (N, T) stacks. Segment sums
always *accumulate* in float64 (``np.bincount``'s accumulator) whatever
the storage dtype — the "float64 accumulation" half of the precision
policy (:mod:`repro.nn.precision`).

**Fused kernels.** The FlowGNN forward and the ADMM update loop are
chains of elementwise ops; written naively each op allocates a fresh
ndarray, so a 6-layer batched forward pays O(layers x T) temporaries.
The small named kernels below perform the same chains through
preallocated buffers and ufunc ``out=`` arguments — each kernel's
docstring states the exact expression *and op order* it computes, so the
fused result is bit-identical to the naive elementwise form at any fixed
dtype (asserted by ``tests/test_precision.py``). A :class:`Workspace`
owns the buffers, keyed by call-site name, so repeated inference calls
(sweeps, ADMM iterations) stop allocating entirely after the first pass.

The fused FlowGNN forward is *node-major*: a B-matrix stack of N-row
embeddings is one C-contiguous (N, B, F) array, like the ADMM's (N, T)
iterates. Folded to (N, B * F), each sparse aggregation is one
:func:`csr_matmul_into` call for the whole batch. :func:`linear_into`
and :func:`pair_linear_into` take such stacks and run each product on
the (B, N, F) per-matrix view, so BLAS sees every matrix's (N, F)
operand exactly as the Tensor path's batched matmul does: a single
(N * B, F) product may take another BLAS kernel and round differently
(float64 at large N * B). Their bias add runs over blocks of rows
against a tiled bias, a wide inner loop instead of an F-wide one. The
per-demand regroups are :func:`padded_take_rows_into` and
:func:`take_rows_into` by indices tiled over the batch.

**Kernel aliasing contracts.** Every ``out=``-style kernel declares
which arguments it clobbers and which pairs may legally alias; the
machine-readable form is :data:`KERNEL_CONTRACTS` (cross-referenced by
lint rule RL002 and enforced at runtime under ``REPRO_SANITIZE=1`` —
see :mod:`repro.lint.sanitize`). Summary:

======================== ================= ============ =========== ==============
kernel                   writes            inout        scratch     may alias
======================== ================= ============ =========== ==============
``csr_matmul_into``      out               —            —           —
``csr_operand_matmul_into`` out            —            —           —
``pair_linear_into``     out               —            scratch     —
``linear_into``          out               —            —           —
``tanh_``                —                 x            —           n/a (in-place)
``relu_``                —                 x            —           n/a (in-place)
``take_rows_into``       out               —            —           —
``padded_take_rows_into`` out              —            —           —
``masked_softmax_into``  out               —            reduce_buf  logits == out
``admm_f_rhs_into``      out               —            coupling,   s1_g == tmp
                                                        tmp
``admm_f_solve_into``    out               —            —           —
``admm_slack_into``      out               —            tmp         —
``admm_dual_step_``      —                 dual         tmp         —
======================== ================= ============ =========== ==============

"may alias" pairs are exact-view aliases only (same base pointer,
shape, strides): the safe elementwise case actually used by call
sites. Partial overlap is never legal. All other argument pairs
involving a clobbered buffer must be disjoint.

**Lint seam.** This is the one module where the hot path may call
``np.matmul`` or allocate raw scratch (lint rule RL004, see
:mod:`repro.lint.rules`): every other hot-path module reaches matrix
products through these kernels and scratch through :class:`Workspace`.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ..nn.precision import EVALUATION_DTYPE

try:  # scipy's typed C kernels; fall back to `csr @ dense` if moved.
    from scipy.sparse import _sparsetools

    _CSR_MATVEC = _sparsetools.csr_matvec
    _CSR_MATVECS = _sparsetools.csr_matvecs
except (ImportError, AttributeError):  # pragma: no cover - scipy internal
    _CSR_MATVEC = _CSR_MATVECS = None

try:  # the ufunc behind np.clip, without the wrapper's per-call dispatch
    from numpy._core.umath import clip as _clip
except ImportError:  # pragma: no cover - numpy internal
    _clip = np.clip

#: Armed by repro.lint.sanitize.install_sanitizers (REPRO_SANITIZE=1):
#: Workspace.buffer NaN-poisons fresh allocations when set.
_SANITIZE = False


class SegmentOps:
    """Segment sum / max over a fixed index map, batched via index tiling.

    Args:
        index: (N,) integer segment id of each element.
        num_segments: Total number of segments S (ids are in [0, S)).
    """

    def __init__(self, index: np.ndarray, num_segments: int) -> None:
        self.index = np.asarray(index, dtype=np.int64)
        self.num_segments = int(num_segments)
        self._tiled: dict[int, np.ndarray] = {}

    def tiled_index(self, batch: int) -> np.ndarray:
        """(batch * N,) index with ``t * num_segments`` offsets (cached)."""
        cached = self._tiled.get(batch)
        if cached is None:
            offsets = self.num_segments * np.arange(batch, dtype=np.int64)
            cached = (self.index[None, :] + offsets[:, None]).reshape(-1)
            self._tiled[batch] = cached
        return cached

    def sum(self, weights: np.ndarray) -> np.ndarray:
        """Per-segment sums: (T, N) weights -> (T, S) float64 totals.

        Row ``t`` equals ``np.bincount(index, weights[t], minlength=S)``
        bit for bit (same accumulation order per segment).
        """
        weights = np.asarray(weights)
        batch = weights.shape[0]
        return np.bincount(
            self.tiled_index(batch),
            weights=weights.reshape(-1),
            minlength=batch * self.num_segments,
        ).reshape(batch, self.num_segments)

    def max(self, values: np.ndarray, initial: float = 0.0) -> np.ndarray:
        """Per-segment maxima: (T, N) values -> (T, S) in the values'
        dtype; empty segments keep ``initial``."""
        values = np.asarray(values)
        batch = values.shape[0]
        out = np.full(batch * self.num_segments, initial, dtype=values.dtype)
        np.maximum.at(out, self.tiled_index(batch), values.reshape(-1))
        return out.reshape(batch, self.num_segments)


# ----------------------------------------------------------------------
# Workspace: preallocated buffers for the fused kernels
# ----------------------------------------------------------------------
class Workspace:
    """Named, shape/dtype-checked scratch buffers for fused kernels.

    Each call site requests a buffer under a stable key; the buffer is
    allocated on first use and reused verbatim afterwards, so a hot loop
    (sweep inference, ADMM iterations) allocates only on its first pass.
    Buffers hold *garbage* between uses — every kernel fully overwrites
    its output.

    Buffers are served as contiguous prefix views of a per-key *backing*
    allocation that only ever grows: when a call site's shape shrinks
    (e.g. a smaller sweep after a larger one) the existing
    backing is re-sliced instead of re-allocated, and a later return to
    the larger shape reuses the same memory. Only a capacity increase or
    a dtype switch pays for a fresh allocation, so alternating batch
    sizes stop churning the allocator entirely.

    NOT thread-safe: a workspace (and therefore any model/fine-tuner
    holding one) must be driven by one thread at a time — concurrent
    calls would interleave writes into shared scratch. The sweep engine
    respects this by construction (each grid job builds its own
    schemes); share across threads only behind a lock, or use separate
    scheme instances.
    """

    __slots__ = ("_backing", "_buffers")

    def __init__(self) -> None:
        self._buffers: dict[object, np.ndarray] = {}
        self._backing: dict[object, np.ndarray] = {}

    def buffer(self, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        """The buffer registered under ``key``, re-sliced or reallocated
        on shape or dtype change (e.g. a new batch size or a precision
        switch).

        The returned array is a C-contiguous prefix view of the key's
        backing allocation; the backing grows when the requested element
        count exceeds its capacity (or the dtype changes) and is reused
        otherwise, so shape changes within capacity cost one reshape
        instead of an allocation.

        Under ``REPRO_SANITIZE=1`` every shape/dtype transition NaN-
        poisons the served view — not just fresh backing allocations —
        so a kernel that reads stale scratch carried over from a
        previous shape trips the sanitizer's finiteness checks
        downstream exactly as it would on a cold buffer.
        """
        shape = tuple(shape)
        dtype = np.dtype(dtype)
        buf = self._buffers.get(key)
        if buf is not None and buf.shape == shape and buf.dtype == dtype:
            return buf
        needed = 1
        for dim in shape:
            needed *= int(dim)
        backing = self._backing.get(key)
        if backing is None or backing.dtype != dtype or backing.size < needed:
            backing = np.empty((needed,), dtype)
            self._backing[key] = backing
        buf = backing[:needed].reshape(shape)
        if _SANITIZE and dtype.kind == "f":
            buf.fill(np.nan)
        self._buffers[key] = buf
        return buf

    def clear(self) -> None:
        """Drop every buffer (precision switches call this)."""
        self._buffers.clear()
        self._backing.clear()

    @property
    def num_buffers(self) -> int:
        return len(self._buffers)

    @property
    def total_bytes(self) -> int:
        """Resident scratch memory (diagnostic for the benchmarks)."""
        return sum(buf.nbytes for buf in self._backing.values())


# ----------------------------------------------------------------------
# Fused kernels: FlowGNN forward
# ----------------------------------------------------------------------
def csr_matmul_into(csr: sp.csr_matrix, dense: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = csr @ dense`` through a preallocated buffer.

    The sparse-product kernel of the FlowGNN fast path, on 2-D operands:
    the fused forward passes its node-major (N, B, F) stacks folded to
    (N, B * F), so one call aggregates the whole batch. Uses scipy's
    ``csr_matvecs`` C routine directly (it *accumulates* into the output
    buffer, so the buffer is zeroed first); per output element the
    accumulation order over the row's nonzeros is that of
    ``csr @ dense`` whatever the column count, so the result is
    bit-identical to the allocating product and to the Tensor path's
    folded product. A single column runs ``csr_matvec``: the same
    per-element accumulation with a third of the loop overhead. Falls
    back to the allocating product if scipy's internals are unavailable
    or the operands are not 2-D, contiguous and dtype-matched.
    """
    if (
        _CSR_MATVECS is None
        or dense.ndim != 2
        or csr.data.dtype != dense.dtype
        or not dense.flags.c_contiguous
        or not out.flags.c_contiguous
    ):
        out[...] = csr @ dense
        return out
    n_row, n_col = csr.shape
    out[...] = 0.0
    sparse = (csr.indptr, csr.indices, csr.data, dense.reshape(-1), out.reshape(-1))
    if dense.shape[1] == 1:
        _CSR_MATVEC(n_row, n_col, *sparse)
    else:
        _CSR_MATVECS(n_row, n_col, dense.shape[1], *sparse)
    return out


class CsrOperand(NamedTuple):
    """A CSR matrix unpacked once for :func:`csr_operand_matmul_into`.

    Build with :func:`bind_csr`. Holds the scipy kernel's arguments so a
    hot loop stops re-reading them (and re-checking dtypes and layouts)
    on every product.
    """

    n_row: int
    n_col: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    matrix: sp.csr_matrix


def bind_csr(matrix: sp.spmatrix) -> CsrOperand:
    """Bind a float64 sparse matrix for :func:`csr_operand_matmul_into`."""
    csr = sp.csr_matrix(matrix, dtype=EVALUATION_DTYPE)
    n_row, n_col = csr.shape
    return CsrOperand(n_row, n_col, csr.indptr, csr.indices, csr.data, csr)


def csr_operand_matmul_into(
    operand: CsrOperand, dense: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``out = operand @ dense`` for C-contiguous float64 (N, T) stacks.

    :func:`csr_matmul_into` with its per-call checks hoisted to
    :func:`bind_csr`: the caller guarantees that ``dense`` and ``out``
    are C-contiguous float64 2-D arrays (workspace buffers and their
    leading-axis slices are), so their flat views alias them. Same
    scipy routines, same per-element accumulation order, so the result
    is bit-identical to ``operand.matrix @ dense``.
    """
    n_row, n_col, indptr, indices, data, matrix = operand
    if _CSR_MATVECS is None:  # pragma: no cover - scipy internal
        out[...] = matrix @ dense
        return out
    out.fill(0.0)
    width = dense.shape[1]
    if width == 1:
        _CSR_MATVEC(
            n_row, n_col, indptr, indices, data,
            dense.reshape(-1), out.reshape(-1),
        )
    else:
        _CSR_MATVECS(
            n_row, n_col, width, indptr, indices, data,
            dense.reshape(-1), out.reshape(-1),
        )
    return out


def _per_matrix(stack: np.ndarray) -> np.ndarray:
    """The (B, N, F) per-matrix view of a node-major (N, B, F) stack;
    the (N, F) rows of one matrix pass through."""
    return stack if stack.ndim == 2 else stack.transpose(1, 0, 2)


#: Rows per block of :func:`_add_bias_`.
_BIAS_BLOCK_ROWS = 64


def _add_bias_(out: np.ndarray, bias: np.ndarray) -> None:
    """``out += bias`` over the F-wide rows of a C-contiguous ``out``.

    Adds over blocks of :data:`_BIAS_BLOCK_ROWS` rows against the bias
    tiled as many times, then adds the leftover rows as they are: the
    same additions, through a wide inner loop instead of an F-wide one
    per row (F is 1-24 here).
    """
    if not out.flags.c_contiguous:
        out += bias
        return
    flat = out.reshape(-1)
    width = bias.shape[0]
    block = width * _BIAS_BLOCK_ROWS
    head = flat.size - flat.size % block
    if head:
        blocks = flat[:head].reshape(-1, block)
        blocks += bias[None].repeat(_BIAS_BLOCK_ROWS, axis=0).reshape(-1)
    if head < flat.size:
        rest = flat[head:].reshape(-1, width)
        rest += bias


def pair_linear_into(
    a: np.ndarray,
    b: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    out: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """``out = a @ weight[:split] + b @ weight[split:] (+ bias)``.

    The raw-array twin of :func:`repro.nn.functional.pair_linear` with
    the same op order (top product, plus bottom product, plus bias), so
    forward values are bit-identical at fixed dtype. Operands are one
    matrix's (N, F) rows or C-contiguous node-major (N, B, F) stacks.
    A stack's products run on its (B, N, F) per-matrix views, so BLAS
    sees each matrix's (N, F) operand exactly as the Tensor path's
    batched matmul does (one (N * B, F) product can take another BLAS
    kernel and round differently).
    """
    split = a.shape[-1]
    np.matmul(_per_matrix(a), weight[:split], out=_per_matrix(out))
    np.matmul(_per_matrix(b), weight[split:], out=_per_matrix(scratch))
    out += scratch
    if bias is not None:
        _add_bias_(out, bias)
    return out


def linear_into(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, out: np.ndarray
) -> np.ndarray:
    """``out = x @ weight (+ bias)`` — fused affine map, on (N, F) rows
    or node-major (N, B, F) stacks as :func:`pair_linear_into`."""
    np.matmul(_per_matrix(x), weight, out=_per_matrix(out))
    if bias is not None:
        _add_bias_(out, bias)
    return out


def tanh_(x: np.ndarray) -> np.ndarray:
    """In-place tanh (activation of the fused forward)."""
    return np.tanh(x, out=x)


def relu_(x: np.ndarray) -> np.ndarray:
    """In-place ReLU, same expression as ``F.relu`` (max(x, 0))."""
    return np.maximum(x, 0.0, out=x)


def take_rows_into(x: np.ndarray, indices: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gather rows along the second-to-last axis into ``out``.

    Raw-array twin of the forward of :func:`repro.nn.functional.regroup`
    on an index without padding (the fast path needs no backward). The
    indices are static and in range, so ``mode="clip"`` only skips
    ``np.take``'s bounds check and its buffered copy into ``out``.
    """
    np.take(x, indices, axis=-2, out=out, mode="clip")
    return out


def padded_take_rows_into(
    x: np.ndarray,
    safe_indices: np.ndarray,
    invalid_rows: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Gather rows with padding slots zeroed, into ``out``.

    Raw-array twin of the forward of :func:`repro.nn.functional.regroup`:
    ``safe_indices`` is the flat index array with -1s replaced by 0 and
    ``invalid_rows`` the flat positions of those padding slots (both
    precomputed once per model — the masks are static). Gathers as
    :func:`take_rows_into`.
    """
    np.take(x, safe_indices, axis=-2, out=out, mode="clip")
    if invalid_rows.size:
        out[..., invalid_rows, :] = 0.0
    return out


def masked_softmax_into(
    logits: np.ndarray,
    not_mask: np.ndarray,
    out: np.ndarray,
    reduce_buf: np.ndarray,
) -> np.ndarray:
    """Masked softmax along the last axis, into ``out``.

    Identical op sequence to :func:`repro.nn.functional.softmax` with a
    mask: masked logits forced to -1e30, max-shift, exp, masked exps
    zeroed, divide by ``max(denom, 1e-30)`` — bit-identical at fixed
    dtype. ``not_mask`` is the *negated* validity mask (precomputed —
    it is static per pathset); ``reduce_buf`` holds the keepdims
    max/denominator, shape ``out.shape[:-1] + (1,)``.
    """
    if out is not logits:
        np.copyto(out, logits)
    np.copyto(out, out.dtype.type(-1e30), where=not_mask)
    np.max(out, axis=-1, keepdims=True, out=reduce_buf)
    out -= reduce_buf
    np.exp(out, out=out)
    np.copyto(out, 0.0, where=not_mask)
    np.sum(out, axis=-1, keepdims=True, out=reduce_buf)
    np.maximum(reduce_buf, 1e-30, out=reduce_buf)
    out /= reduce_buf
    return out


# ----------------------------------------------------------------------
# Fused kernels: ADMM block updates (§3.4, Appendix C)
# ----------------------------------------------------------------------
def admm_f_rhs_into(
    d_p: np.ndarray,
    dw: np.ndarray,
    lam1_g: np.ndarray,
    s1_g: np.ndarray,
    coupling: np.ndarray,
    rho: float,
    out: np.ndarray,
    tmp: np.ndarray,
) -> np.ndarray:
    """F-update right-hand side, fused (consumes ``coupling``).

    ``out = dw - lam1_g + rho*(1 - s1_g) + d_p*coupling`` in that
    (left-associated) order, where ``dw = d_p*w_p`` is the objective
    term (constant across iterations, so computed once per solve) and
    ``coupling`` the edge-space incidence term
    ``rho*hops*(F*d) + A^T(rho*h - mu)`` (see :mod:`repro.core.admm`).
    """
    np.subtract(dw, lam1_g, out=out)
    np.subtract(1.0, s1_g, out=tmp)
    tmp *= rho
    out += tmp
    coupling *= d_p
    out += coupling
    return out


def admm_f_solve_into(
    b: np.ndarray,
    inv_a_over_rho: np.ndarray,
    correction_g: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Sherman-Morrison F-solve + box projection, fused.

    ``out = clip(inv_a_over_rho * (b - correction_g), 0, 1)``.
    """
    np.subtract(b, correction_g, out=out)
    out *= inv_a_over_rho
    _clip(out, 0.0, 1.0, out=out)
    return out


def admm_slack_into(
    bound,
    total: np.ndarray,
    dual: np.ndarray,
    rho: float,
    out: np.ndarray,
    tmp: np.ndarray,
) -> np.ndarray:
    """Non-negative slack update: ``out = max(0, (bound - total) - dual/rho)``."""
    np.subtract(bound, total, out=out)
    np.divide(dual, rho, out=tmp)
    out -= tmp
    np.maximum(out, 0.0, out=out)
    return out


def admm_dual_step_(
    dual: np.ndarray,
    total: np.ndarray,
    slack: np.ndarray,
    bound,
    rho: float,
    tmp: np.ndarray,
) -> np.ndarray:
    """Dual ascent step, fused: ``dual += rho * (total + slack - bound)``."""
    np.add(total, slack, out=tmp)
    tmp -= bound
    tmp *= rho
    dual += tmp
    return dual


# ----------------------------------------------------------------------
# Kernel aliasing contracts (machine-readable; see module docstring)
# ----------------------------------------------------------------------
class KernelContract(NamedTuple):
    """Aliasing/clobber contract of one ``out=``-style kernel.

    Attributes:
        params: Parameter names in positional order.
        writes: Parameters fully overwritten by the kernel (finite on
            exit under the sanitizer).
        inout: Parameters read *and* updated in place (finite on exit).
        scratch: Parameters clobbered with garbage the caller must not
            rely on.
        may_alias: Pairs allowed to be the exact same view (elementwise
            safe); partial overlap is never legal.
    """

    params: tuple[str, ...]
    writes: tuple[str, ...] = ()
    inout: tuple[str, ...] = ()
    scratch: tuple[str, ...] = ()
    may_alias: tuple[tuple[str, str], ...] = ()


#: Contract per kernel — the single source RL002 (static) and the
#: runtime sanitizer (REPRO_SANITIZE=1) both enforce. Keep in sync with
#: the table in the module docstring.
KERNEL_CONTRACTS: dict[str, KernelContract] = {
    "csr_matmul_into": KernelContract(
        params=("csr", "dense", "out"),
        writes=("out",),
    ),
    "csr_operand_matmul_into": KernelContract(
        params=("operand", "dense", "out"),
        writes=("out",),
    ),
    "pair_linear_into": KernelContract(
        params=("a", "b", "weight", "bias", "out", "scratch"),
        writes=("out",),
        scratch=("scratch",),
    ),
    "linear_into": KernelContract(
        params=("x", "weight", "bias", "out"),
        writes=("out",),
    ),
    "tanh_": KernelContract(
        params=("x",),
        inout=("x",),
    ),
    "relu_": KernelContract(
        params=("x",),
        inout=("x",),
    ),
    "take_rows_into": KernelContract(
        params=("x", "indices", "out"),
        writes=("out",),
    ),
    "padded_take_rows_into": KernelContract(
        params=("x", "safe_indices", "invalid_rows", "out"),
        writes=("out",),
    ),
    "masked_softmax_into": KernelContract(
        params=("logits", "not_mask", "out", "reduce_buf"),
        writes=("out",),
        scratch=("reduce_buf",),
        may_alias=(("logits", "out"),),
    ),
    "admm_f_rhs_into": KernelContract(
        params=(
            "d_p", "dw", "lam1_g", "s1_g", "coupling", "rho", "out", "tmp",
        ),
        writes=("out",),
        scratch=("coupling", "tmp"),
        may_alias=(("s1_g", "tmp"),),
    ),
    "admm_f_solve_into": KernelContract(
        params=("b", "inv_a_over_rho", "correction_g", "out"),
        writes=("out",),
    ),
    "admm_slack_into": KernelContract(
        params=("bound", "total", "dual", "rho", "out", "tmp"),
        writes=("out",),
        scratch=("tmp",),
    ),
    "admm_dual_step_": KernelContract(
        params=("dual", "total", "slack", "bound", "rho", "tmp"),
        inout=("dual",),
        scratch=("tmp",),
    ),
}


# Opt-in runtime sanitizer layer: with REPRO_SANITIZE=1 in the
# environment, rebind every contracted kernel to a checking wrapper
# (aliasing + NaN/Inf tripwires) and arm Workspace buffer poisoning.
# This runs at import time so call sites that bind the kernels via
# `from .batching import ...` pick up the wrapped functions.
if os.environ.get("REPRO_SANITIZE", "") not in ("", "0"):
    from ..lint.sanitize import install_sanitizers

    install_sanitizers(globals())
