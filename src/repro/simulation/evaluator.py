"""Feasible-flow evaluation: turning split ratios into delivered traffic.

The paper's headline metric is *satisfied demand*: the fraction of total
demand actually delivered once link capacities are enforced. Neural
outputs (and merged subproblem solutions) may oversubscribe links; the
paper reconciles by "proportionally dropping traffic from each flow"
(§3.3). Concretely, every flow traversing an overloaded link is scaled by
the reciprocal of its bottleneck overutilization:

    delivered(p) = intended(p) / max(1, max_{e in p} load(e) / capacity(e))

which never exceeds any capacity (property-tested) and reduces to the
identity for feasible inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import SimulationError
from ..nn.precision import EVALUATION_DTYPE
from ..paths.pathset import PathSet
from ..topology.graph import broadcast_capacities

#: Utilization assigned to flows crossing a zero-capacity (failed) link.
_INFINITE_UTILIZATION = np.inf


@dataclass(frozen=True)
class Allocation:
    """A TE decision: per-demand split ratios plus bookkeeping.

    Attributes:
        split_ratios: (D, k) array; row d gives the fraction of demand d
            placed on each of its candidate paths (padding slots ignored).
        compute_time: Wall-clock seconds the scheme spent producing this
            allocation (drives the online stale-route simulation).
        scheme: Name of the producing scheme (for reports).
        extras: Free-form diagnostic values (e.g. LP iterations).
    """

    split_ratios: np.ndarray
    compute_time: float = 0.0
    scheme: str = "unknown"
    extras: dict = field(default_factory=dict)

    def clipped(self) -> "Allocation":
        """Return a copy with ratios clipped to [0, 1] and row sums <= 1."""
        return Allocation(
            _clip_ratios_batch(self.split_ratios),
            self.compute_time,
            self.scheme,
            self.extras,
        )


@dataclass(frozen=True)
class BatchFlowReport:
    """Outcome of evaluating a stack of allocations in one pass.

    Every attribute stacks the corresponding :class:`FlowReport` field
    along a leading batch axis of size T (the number of traffic
    matrices). Use :meth:`report` / :meth:`reports` to recover per-matrix
    views for APIs that expect single reports.

    Attributes:
        delivered_path_flows: (T, P) delivered flow per path.
        intended_path_flows: (T, P) requested flow per path.
        edge_loads: (T, E) post-reconciliation link loads.
        total_demand: (T,) offered demand per matrix.
        delivered_total: (T,) delivered flow per matrix.
        satisfied_fraction: (T,) delivered / offered (0 where no demand).
        max_link_utilization: (T,) post-reconciliation MLU.
        intended_mlu: (T,) pre-reconciliation MLU.

    Zero-capacity links (failed, or all-zero capacities) follow the
    :class:`FlowReport` rules row by row: ``intended_mlu`` is ``inf``
    where a row requests load on such a link, ``max_link_utilization``
    is ``inf`` where it delivers more than 1e-9 there, and
    ``satisfied_fraction`` stays finite in [0, 1].
    """

    delivered_path_flows: np.ndarray
    intended_path_flows: np.ndarray
    edge_loads: np.ndarray
    total_demand: np.ndarray
    delivered_total: np.ndarray
    satisfied_fraction: np.ndarray
    max_link_utilization: np.ndarray
    intended_mlu: np.ndarray

    def __len__(self) -> int:
        return int(self.total_demand.shape[0])

    def report(self, index: int) -> "FlowReport":
        """The :class:`FlowReport` of one matrix in the batch."""
        return FlowReport(
            delivered_path_flows=self.delivered_path_flows[index],
            intended_path_flows=self.intended_path_flows[index],
            edge_loads=self.edge_loads[index],
            total_demand=float(self.total_demand[index]),
            delivered_total=float(self.delivered_total[index]),
            satisfied_fraction=float(self.satisfied_fraction[index]),
            max_link_utilization=float(self.max_link_utilization[index]),
            intended_mlu=float(self.intended_mlu[index]),
        )

    def reports(self) -> list["FlowReport"]:
        """Per-matrix :class:`FlowReport` views, in batch order."""
        return [self.report(i) for i in range(len(self))]

    def slice(self, start: int, stop: int) -> "BatchFlowReport":
        """A sub-batch view covering rows ``[start, stop)``.

        The cell-batched sweeps stack several grid cells' matrices into
        one evaluation pass and unstack per-cell reports with this; the
        returned report's arrays are views (no copies), identical row
        for row to evaluating the sub-batch alone.
        """
        return BatchFlowReport(
            delivered_path_flows=self.delivered_path_flows[start:stop],
            intended_path_flows=self.intended_path_flows[start:stop],
            edge_loads=self.edge_loads[start:stop],
            total_demand=self.total_demand[start:stop],
            delivered_total=self.delivered_total[start:stop],
            satisfied_fraction=self.satisfied_fraction[start:stop],
            max_link_utilization=self.max_link_utilization[start:stop],
            intended_mlu=self.intended_mlu[start:stop],
        )


@dataclass(frozen=True)
class FlowReport:
    """Outcome of evaluating an allocation against capacities.

    Attributes:
        delivered_path_flows: (P,) flow actually delivered on each path.
        intended_path_flows: (P,) flow requested on each path.
        edge_loads: (E,) post-reconciliation link loads.
        total_demand: Sum of all demands.
        delivered_total: Total delivered flow.
        satisfied_fraction: delivered_total / total_demand (0 if no demand).
        max_link_utilization: Max post-reconciliation load/capacity.
        intended_mlu: Max utilization *before* reconciliation (constraint
            violation indicator).

    Degenerate inputs have defined answers, never NaN. A zero-capacity
    link has utilization ``inf`` when it carries load and 0 when it does
    not. So ``intended_mlu`` is ``inf`` exactly when the allocation
    requests load on some zero-capacity link, and
    ``max_link_utilization`` is ``inf`` exactly when more than 1e-9 is
    still delivered there. Reconciliation scales every path that crosses
    a zero-capacity link to zero, so delivered load there stays 0 and
    ``max_link_utilization`` stays finite. ``satisfied_fraction`` is
    always finite and in [0, 1], and 0 for an all-zero demand.
    """

    delivered_path_flows: np.ndarray
    intended_path_flows: np.ndarray
    edge_loads: np.ndarray
    total_demand: float
    delivered_total: float
    satisfied_fraction: float
    max_link_utilization: float
    intended_mlu: float


def _path_max_utilization_batch(
    pathset: PathSet, util: np.ndarray, workspace=None
) -> np.ndarray:
    """Per-path bottleneck utilizations (T, P) from per-edge utils (T, E).

    One unbuffered scatter-max over the COO expansion covers the whole
    batch: the path axis leads so ``maximum.at`` broadcasts each edge's
    (T,) utilization column into the path rows it lies on. With a
    ``workspace`` the (P, T) scatter buffer is reused (zero-filled)
    across calls instead of reallocated — the buffer is internal to
    this function, so workspace reuse never aliases returned arrays.
    """
    coo = pathset.edge_path_incidence.tocoo()
    shape = (pathset.num_paths, util.shape[0])
    if workspace is None:
        bottleneck = np.zeros(shape)
    else:
        bottleneck = workspace.buffer(("evaluator", "bottleneck"), shape, np.float64)
        bottleneck[...] = 0.0
    np.maximum.at(bottleneck, coo.col, util.T[coo.row])
    # A view: the single caller consumes it before its next request, and
    # the downstream scale/delivered arrays are fresh allocations.
    return bottleneck.T


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Per-row sums of a (T, N) stack, invariant to T and base alignment.

    ``x.sum(axis=-1)`` is *not* reproducible across batch sizes: numpy's
    2-D last-axis reduction picks SIMD peeling from the allocation's
    base alignment, so the same row summed inside a (6, N) stack and a
    (2, N) stack can differ in the last ulp — which would break the
    cell-batching bit-identity contract (chunked sweeps re-stack the
    same rows into differently-sized arrays). The 1-D pairwise sum is
    alignment- and offset-invariant, so summing row by row depends only
    on row *contents* — and bit-matches the single-matrix evaluator's
    ``demands.sum()`` by construction. T is a handful of grid rows, so
    the Python loop is noise next to the kernels it sits between.
    """
    out = np.empty((x.shape[0],), x.dtype)
    for i in range(x.shape[0]):
        out[i] = x[i].sum()
    return out


def _clip_ratios_batch(split_ratios: np.ndarray) -> np.ndarray:
    """Batched :meth:`Allocation.clipped`: clip to [0, 1], cap row sums at 1."""
    ratios = np.clip(split_ratios, 0.0, 1.0)
    sums = ratios.sum(axis=-1, keepdims=True)
    return ratios / np.where(sums > 1.0, sums, 1.0)


def evaluate_allocation(
    pathset: PathSet,
    split_ratios: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray | None = None,
) -> FlowReport:
    """Evaluate split ratios: enforce capacities and report delivered flow.

    A thin wrapper over :func:`evaluate_allocations_batch` with a batch of
    one (the batched path is the single implementation of the
    reconciliation semantics).

    Args:
        pathset: The path set (supplies incidence structures).
        split_ratios: (D, k) split ratios; negative values are clipped and
            rows summing above 1 are renormalized (demand constraint).
        demands: (D,) demand volumes.
        capacities: Per-edge capacities; defaults to the pathset topology's.

    Returns:
        A :class:`FlowReport`.

    Raises:
        SimulationError: On shape mismatches.
    """
    demands = np.asarray(demands, dtype=EVALUATION_DTYPE)
    if demands.shape != (pathset.num_demands,):
        raise SimulationError(
            f"demands shape {demands.shape} != ({pathset.num_demands},)"
        )
    split_ratios = np.asarray(split_ratios, dtype=EVALUATION_DTYPE)
    batch = evaluate_allocations_batch(
        pathset, split_ratios[None], demands[None], capacities
    )
    return batch.report(0)


def evaluate_allocations_batch(
    pathset: PathSet,
    split_ratios: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray | None = None,
    workspace=None,
) -> BatchFlowReport:
    """Evaluate a stack of allocations against a stack of traffic matrices.

    The vectorized core of the scenario engine: T traffic matrices are
    scored in a handful of array ops — two sparse products for edge loads,
    one scatter-max for path bottlenecks — instead of a Python loop per
    matrix. Semantics are identical to :func:`evaluate_allocation` applied
    row by row (the per-TM function is a batch-of-one wrapper).

    Args:
        pathset: The path set (supplies incidence structures).
        split_ratios: (T, D, k) split ratios; clipped and row-normalized
            per matrix exactly as in the single-matrix path.
        demands: (T, D) demand volumes.
        capacities: (E,) shared capacities, (T, E) per-matrix capacities
            (failure sweeps), or None for the topology defaults.
        workspace: Optional :class:`~repro.core.batching.Workspace` for
            the internal scatter-max scratch; sweeps that score many
            stacks in a row (one per grid cell or chunk) pass a shared
            per-job workspace so scoring stops re-allocating. Results
            are unaffected: every returned array is freshly computed,
            never a workspace view.

    Returns:
        A :class:`BatchFlowReport` (empty arrays for T = 0).

    Raises:
        SimulationError: On shape mismatches.
    """
    demands = np.asarray(demands, dtype=EVALUATION_DTYPE)
    if demands.ndim != 2 or demands.shape[1] != pathset.num_demands:
        raise SimulationError(
            f"demands shape {demands.shape} != (T, {pathset.num_demands})"
        )
    num_matrices = demands.shape[0]
    if capacities is None:
        capacities = pathset.topology.capacities
    capacities = broadcast_capacities(capacities, num_matrices)
    if capacities.shape != (num_matrices, pathset.topology.num_edges):
        raise SimulationError("capacities shape mismatch")

    ratios = _clip_ratios_batch(
        np.asarray(split_ratios, dtype=EVALUATION_DTYPE)
    )
    intended = pathset.split_ratios_to_path_flows_batch(ratios, demands)

    pre_loads = pathset.edge_loads_batch(intended)
    with np.errstate(divide="ignore", invalid="ignore"):
        util = np.where(
            capacities > 0,
            pre_loads / np.maximum(capacities, 1e-300),
            np.where(pre_loads > 0, _INFINITE_UTILIZATION, 0.0),
        )
    bottleneck = _path_max_utilization_batch(pathset, util, workspace)
    scale = 1.0 / np.maximum(bottleneck, 1.0)
    scale[~np.isfinite(scale)] = 0.0
    delivered = intended * scale
    post_loads = pathset.edge_loads_batch(delivered)

    with np.errstate(divide="ignore", invalid="ignore"):
        post_util = np.where(
            capacities > 0,
            post_loads / np.maximum(capacities, 1e-300),
            np.where(post_loads > 1e-9, _INFINITE_UTILIZATION, 0.0),
        )
    total_demand = _row_sums(demands)
    delivered_total = _row_sums(delivered)
    # Per-path flows are rounded products, so a fully routed demand can
    # deliver a hair more than it offers; clamp to keep the fraction in
    # [0, 1].
    with np.errstate(divide="ignore", invalid="ignore"):
        satisfied = np.minimum(
            np.where(
                total_demand > 0,
                delivered_total / np.maximum(total_demand, 1e-300),
                0.0,
            ),
            1.0,
        )
    if post_util.shape[-1]:
        max_util = post_util.max(axis=-1)
        intended_mlu = util.max(axis=-1)
    else:
        max_util = np.zeros(num_matrices)
        intended_mlu = np.zeros(num_matrices)
    return BatchFlowReport(
        delivered_path_flows=delivered,
        intended_path_flows=intended,
        edge_loads=post_loads,
        total_demand=total_demand,
        delivered_total=delivered_total,
        satisfied_fraction=satisfied,
        max_link_utilization=max_util,
        intended_mlu=intended_mlu,
    )


def satisfied_demand_fraction(
    pathset: PathSet,
    split_ratios: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray | None = None,
) -> float:
    """Shortcut for :func:`evaluate_allocation`'s satisfied fraction."""
    return evaluate_allocation(pathset, split_ratios, demands, capacities).satisfied_fraction
