"""TE objectives (Appendix A, §5.5).

Three operator objectives from the paper:

- :class:`TotalFlowObjective` — maximize total feasible flow (default,
  Equation 1).
- :class:`MinMaxLinkUtilizationObjective` — minimize the maximum link
  utilization while routing all demand (§5.5, Figure 11).
- :class:`DelayPenalizedFlowObjective` — maximize total flow with delay
  penalties (§5.5, Figure 12): each unit of flow on path ``p`` is worth
  ``1 - beta * (latency_p / shortest_latency_d - 1)``, so longer detours
  earn less. This is linear in path flows, hence LP-compatible.

Every objective exposes:

- ``path_values(pathset)``: per-path per-unit-flow value used as the LP
  cost vector (flow-type objectives).
- ``evaluate_batch(pathset, split_ratios, demands, capacities)``: the raw
  metric of a (T, D, k) stack; ``evaluate`` is its batch of one. The
  flow objectives score the delivered flows of the evaluator's
  reconciliation core
  (:func:`~repro.simulation.evaluator.reconcile_flows_batch`) and skip
  the post-reconciliation loads a full report adds, so each reward
  costs one sparse load product — equal, bit for bit, to the report's
  ``delivered_total`` (total flow) or its delivered path flows weighted
  by ``path_values`` (delay-penalized flow).
- ``reward(...)``: the metric signed so that *higher is better*, used as
  the RL reward (§3.3 — "the desired TE objective can be used directly
  as the reward").
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..exceptions import SolverError
from ..paths.pathset import PathSet
from ..simulation.evaluator import reconcile_flows_batch
from ..topology.graph import broadcast_capacities


class Objective(ABC):
    """A TE objective over path-formulation allocations."""

    #: Short identifier used in reports and model filenames.
    name: str = "objective"
    #: "max" or "min" — direction of the raw metric.
    sense: str = "max"

    def evaluate(
        self,
        pathset: PathSet,
        split_ratios: np.ndarray,
        demands: np.ndarray,
        capacities: np.ndarray | None = None,
    ) -> float:
        """Raw metric of one allocation: :meth:`evaluate_batch` on a
        batch of one."""
        return float(
            self.evaluate_batch(
                pathset,
                np.asarray(split_ratios)[None],
                np.asarray(demands)[None],
                capacities,
            )[0]
        )

    @abstractmethod
    def evaluate_batch(
        self,
        pathset: PathSet,
        split_ratios: np.ndarray,
        demands: np.ndarray,
        capacities: np.ndarray | None = None,
    ) -> np.ndarray:
        """(T,) raw metrics of a stack of allocations (feasibility
        enforced first); row ``t`` depends on slice ``t`` only.

        Args:
            pathset: The path set.
            split_ratios: (T, D, k) stacked split ratios.
            demands: (T, D) stacked demand volumes.
            capacities: (E,) shared, (T, E) per-matrix, or None.
        """

    def reward(
        self,
        pathset: PathSet,
        split_ratios: np.ndarray,
        demands: np.ndarray,
        capacities: np.ndarray | None = None,
    ) -> float:
        """Metric signed so that higher is better (the RL reward)."""
        value = self.evaluate(pathset, split_ratios, demands, capacities)
        return value if self.sense == "max" else -value

    def reward_batch(
        self,
        pathset: PathSet,
        split_ratios: np.ndarray,
        demands: np.ndarray,
        capacities: np.ndarray | None = None,
    ) -> np.ndarray:
        """(T,) rewards (metric signed so higher is better) for a stack."""
        values = self.evaluate_batch(pathset, split_ratios, demands, capacities)
        return values if self.sense == "max" else -values

    def path_values(self, pathset: PathSet) -> np.ndarray:
        """Per-unit-flow value of each path (flow-type objectives only)."""
        raise SolverError(f"objective {self.name} has no per-path flow values")


def _capacities_stack(
    pathset: PathSet, capacities: np.ndarray | None, num_matrices: int
) -> np.ndarray:
    """Normalize a (E,)/(T, E)/None capacities argument to a (T, E) stack."""
    if capacities is None:
        capacities = pathset.topology.capacities
    return broadcast_capacities(capacities, num_matrices)


class TotalFlowObjective(Objective):
    """Maximize total feasible flow (Equation 1)."""

    name = "total_flow"
    sense = "max"

    def path_values(self, pathset: PathSet) -> np.ndarray:
        return np.ones(pathset.num_paths)

    def evaluate_batch(
        self, pathset, split_ratios, demands, capacities=None
    ) -> np.ndarray:
        return reconcile_flows_batch(
            pathset, split_ratios, demands, capacities
        ).delivered_total()


class MinMaxLinkUtilizationObjective(Objective):
    """Minimize max link utilization while routing all demand (§5.5).

    Allocations are normalized so each demand's ratios sum to exactly 1
    before measuring utilization (the MLU formulation routes everything;
    capacities may be exceeded — that is what MLU measures).
    """

    name = "min_mlu"
    sense = "min"

    def evaluate_batch(
        self, pathset, split_ratios, demands, capacities=None
    ) -> np.ndarray:
        demands = np.asarray(demands, dtype=float)
        num_matrices = demands.shape[0]
        capacities = _capacities_stack(pathset, capacities, num_matrices)
        ratios = np.clip(np.asarray(split_ratios, dtype=float), 0.0, None)
        sums = ratios.sum(axis=-1, keepdims=True)
        fallback = np.zeros_like(ratios)
        fallback[..., 0] = 1.0
        ratios = np.where(
            sums > 1e-12, ratios / np.maximum(sums, 1e-12), fallback
        )
        flows = pathset.split_ratios_to_path_flows_batch(ratios, demands)
        loads = pathset.edge_loads_batch(flows)
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.where(
                capacities > 0,
                loads / np.maximum(capacities, 1e-300),
                np.where(loads > 0, np.inf, 0.0),
            )
        if not util.shape[-1]:
            return np.zeros(num_matrices)
        return util.max(axis=-1)


class DelayPenalizedFlowObjective(Objective):
    """Maximize total flow with delay penalties (§5.5, Figure 12).

    Args:
        beta: Penalty strength; a unit of flow on a path whose latency is
            ``r`` times its demand's shortest-path latency is worth
            ``max(0, 1 - beta * (r - 1))``.
    """

    name = "delay_penalized_flow"
    sense = "max"

    def __init__(self, beta: float = 0.5) -> None:
        if beta < 0:
            raise SolverError("beta must be non-negative")
        self.beta = beta

    def path_values(self, pathset: PathSet) -> np.ndarray:
        shortest = np.full(pathset.num_demands, np.inf)
        np.minimum.at(shortest, pathset.path_demand, pathset.path_latencies)
        stretch = pathset.path_latencies / np.maximum(
            shortest[pathset.path_demand], 1e-12
        )
        return np.maximum(0.0, 1.0 - self.beta * (stretch - 1.0))

    def evaluate_batch(
        self, pathset, split_ratios, demands, capacities=None
    ) -> np.ndarray:
        delivered = reconcile_flows_batch(
            pathset, split_ratios, demands, capacities
        ).delivered
        values = self.path_values(pathset)
        # One 1-D dot per row: a (T, P) @ (P,) product may pick a kernel
        # whose rounding depends on T and on the row's offset.
        return np.array([row @ values for row in delivered])


#: Registry of the paper's objectives by name.
OBJECTIVES: dict[str, Objective] = {
    "total_flow": TotalFlowObjective(),
    "min_mlu": MinMaxLinkUtilizationObjective(),
    "delay_penalized_flow": DelayPenalizedFlowObjective(),
}


def get_objective(name: str) -> Objective:
    """Look up an objective by registry name.

    Raises:
        SolverError: If the name is unknown.
    """
    try:
        return OBJECTIVES[name]
    except KeyError:
        raise SolverError(
            f"unknown objective {name!r}; expected one of {sorted(OBJECTIVES)}"
        ) from None
