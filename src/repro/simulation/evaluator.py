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

:func:`reconcile_flows_batch` is that reconciliation core: clip the
ratios, gather intended path flows, one sparse product for the
pre-reconciliation loads, per-path bottlenecks, delivered flows.
:func:`evaluate_allocations_batch` adds the report (post-reconciliation
loads, both MLUs, satisfied fraction). Objective rewards
(:mod:`repro.lp.objectives`) use the core alone and skip the
post-reconciliation loads, so ADMM's acceptance check pays one sparse
load product per candidate; their values equal the report's bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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


def _path_max_utilization_batch(pathset: PathSet, util: np.ndarray) -> np.ndarray:
    """Per-path bottleneck utilizations (T, P) from per-edge utils (T, E).

    Walks the hop columns of the path set's padded ``path_edge_index``:
    each column gathers one edge utilization per path from ``util`` with
    a zero column appended (the padding slots read it), and a running
    ``maximum`` folds it in. Max is exact and utilizations are
    non-negative, so the result equals a zero-initialised scatter-max
    over the incidence entries exactly, with two (T, P) arrays: the
    result and one hop buffer reused across the columns.
    """
    index = pathset.path_edge_index
    padded = np.concatenate([util, np.zeros_like(util[:, :1])], axis=1)
    bottleneck = padded.take(index[:, 0], axis=1)
    hop_util = np.empty_like(bottleneck)
    for column in index.T[1:]:
        # Every index is in range by construction; "clip" lets ``take``
        # write straight into ``out`` ("raise" gathers via a temporary).
        padded.take(column, axis=1, out=hop_util, mode="clip")
        np.maximum(bottleneck, hop_util, out=bottleneck)
    return bottleneck


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Per-row sums of a (T, N) stack, invariant to T and base alignment.

    ``x.sum(axis=-1)`` is *not* reproducible across batch sizes: numpy's
    2-D last-axis reduction picks SIMD peeling from the allocation's
    base alignment, so the same row summed inside a (6, N) stack and a
    (2, N) stack can differ in the last ulp. A row's result must not
    depend on the size of the stack it is evaluated in (a sweep level
    alone and the same level inside a larger sweep, a streaming
    decision and its batch-of-one replay). The 1-D pairwise sum is
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
    ratios = np.asarray(split_ratios).clip(0.0, 1.0)
    sums = np.add.reduce(ratios, axis=-1, keepdims=True)
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


class Reconciliation(NamedTuple):
    """The reconciliation core of a (T, ...) stack (see
    :func:`reconcile_flows_batch`).

    Attributes:
        demands: (T, D) float64 demand volumes.
        capacities: (T, E) capacities.
        intended: (T, P) requested flow per path.
        util: (T, E) pre-reconciliation link utilizations.
        delivered: (T, P) delivered flow per path.
    """

    demands: np.ndarray
    capacities: np.ndarray
    intended: np.ndarray
    util: np.ndarray
    delivered: np.ndarray

    def delivered_total(self) -> np.ndarray:
        """(T,) delivered flow per matrix (T-invariant row sums)."""
        return _row_sums(self.delivered)


def reconcile_flows_batch(
    pathset: PathSet,
    split_ratios: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray | None = None,
) -> Reconciliation:
    """Delivered path flows of a stack of allocations.

    The reconciliation core that :func:`evaluate_allocations_batch` and
    the flow objectives' rewards share: clip and row-normalize the
    ratios, gather intended path flows by each path's grid slot, one
    sparse product for the pre-reconciliation loads, the per-path
    bottleneck, and the delivered flows. Post-reconciliation loads are
    left to the report (:func:`evaluate_allocations_batch`), so a reward
    costs one sparse load product, not two.

    Args:
        pathset: The path set (supplies incidence structures).
        split_ratios: (T, D, k) split ratios; clipped and row-normalized
            per matrix exactly as in the single-matrix path.
        demands: (T, D) demand volumes.
        capacities: (E,) shared capacities, (T, E) per-matrix capacities
            (failure sweeps), or None for the topology defaults.

    Returns:
        A :class:`Reconciliation`.

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
    bottleneck = _path_max_utilization_batch(pathset, util)
    scale = 1.0 / np.maximum(bottleneck, 1.0)
    scale[~np.isfinite(scale)] = 0.0
    delivered = intended * scale
    return Reconciliation(demands, capacities, intended, util, delivered)


def evaluate_allocations_batch(
    pathset: PathSet,
    split_ratios: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray | None = None,
) -> BatchFlowReport:
    """Evaluate a stack of allocations against a stack of traffic matrices.

    The vectorized core of the scenario engine: T traffic matrices are
    scored in a handful of array ops — the reconciliation core
    (:func:`reconcile_flows_batch`: one sparse product for the
    pre-reconciliation loads, one per-hop gather-max for path
    bottlenecks), then one more sparse product for the
    post-reconciliation loads of the report — instead of a Python loop
    per matrix. Semantics are identical to :func:`evaluate_allocation`
    applied row by row (the per-TM function is a batch-of-one wrapper).

    Args:
        pathset: The path set (supplies incidence structures).
        split_ratios: (T, D, k) split ratios; clipped and row-normalized
            per matrix exactly as in the single-matrix path.
        demands: (T, D) demand volumes.
        capacities: (E,) shared capacities, (T, E) per-matrix capacities
            (failure sweeps), or None for the topology defaults.

    Returns:
        A :class:`BatchFlowReport` (empty arrays for T = 0).

    Raises:
        SimulationError: On shape mismatches.
    """
    core = reconcile_flows_batch(pathset, split_ratios, demands, capacities)
    capacities, delivered, util = core.capacities, core.delivered, core.util
    post_loads = pathset.edge_loads_batch(delivered)

    with np.errstate(divide="ignore", invalid="ignore"):
        post_util = np.where(
            capacities > 0,
            post_loads / np.maximum(capacities, 1e-300),
            np.where(post_loads > 1e-9, _INFINITE_UTILIZATION, 0.0),
        )
    total_demand = _row_sums(core.demands)
    delivered_total = core.delivered_total()
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
        num_matrices = len(total_demand)
        max_util = np.zeros(num_matrices)
        intended_mlu = np.zeros(num_matrices)
    return BatchFlowReport(
        delivered_path_flows=delivered,
        intended_path_flows=core.intended,
        edge_loads=post_loads,
        total_demand=total_demand,
        delivered_total=delivered_total,
        satisfied_fraction=satisfied,
        max_link_utilization=max_util,
        intended_mlu=intended_mlu,
    )
