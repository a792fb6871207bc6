"""Online TE semantics with control delay (§5.1 "satisfied demand", Fig 18).

The paper's headline metric is measured in a *practical online setting*:
a scheme that takes longer than the 5-minute interval to compute keeps
serving traffic with stale routes until its new allocation is ready:

- at the start of interval ``t`` the scheme begins computing on matrix
  ``t``; the result becomes effective ``floor(compute_time / interval)``
  intervals later — a scheme that finishes within the interval budget
  deploys with delay 0 and serves interval ``t`` itself (§5.1's "within
  budget = fresh" semantics);
- each interval is evaluated with whatever allocation is currently
  deployed (initially: everything on shortest paths);
- link failures can strike at a chosen interval, changing the
  capacities the schemes see *and* the capacities traffic experiences.

This module holds the pieces of that loop — :class:`DeploymentTracker`
(the staleness rule) and :func:`allocate_all` (every interval's
allocation up front) — while the loop itself is
:meth:`repro.simulation.streaming.StreamingEngine.run`.
:class:`OnlineSimulator` is the trace-plus-failure front end to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import TE_INTERVAL_SECONDS
from ..exceptions import SimulationError
from ..paths.pathset import PathSet
from ..topology.graph import broadcast_capacities
from ..traffic.matrix import TrafficMatrix
from .evaluator import Allocation


@dataclass(frozen=True)
class IntervalResult:
    """Outcome of one 5-minute interval in the online loop.

    Attributes:
        interval: Interval index in the replayed trace.
        satisfied_fraction: Delivered / offered demand this interval.
        allocation_age: Number of intervals since the deployed allocation
            was computed (0 = fresh routes).
        compute_time: Compute time of the allocation *started* this
            interval.
        stale: Whether the deployed allocation is older than one interval.
    """

    interval: int
    satisfied_fraction: float
    allocation_age: int
    compute_time: float
    stale: bool


def allocate_all(
    scheme, pathset: PathSet, demands: np.ndarray, capacities: np.ndarray
) -> list[Allocation]:
    """Per-matrix allocations via ``allocate_batch`` when available.

    Computing every interval's allocation up front is equivalent to
    deciding interval by interval, because an allocation depends only on
    that interval's demands and capacities, never on the replay state.

    Args:
        scheme: The TE scheme (duck-typed; ``allocate_batch`` optional).
        pathset: The path set.
        demands: (T, D) stacked demand volumes.
        capacities: (E,) shared or (T, E) per-matrix capacities.
    """
    allocate_batch = getattr(scheme, "allocate_batch", None)
    if allocate_batch is not None:
        return allocate_batch(pathset, demands, capacities)
    caps = broadcast_capacities(capacities, demands.shape[0])
    return [
        scheme.allocate(pathset, demands[t], caps[t])
        for t in range(demands.shape[0])
    ]


class DeploymentTracker:
    """Tracks which allocation is deployed as decisions complete (§5.1).

    The single implementation of the control loop's deployment
    semantics, used by
    :meth:`repro.simulation.streaming.StreamingEngine.run`:

    - a decision started on interval ``t`` deploys
      ``floor(compute_time / interval)`` intervals later (0 = within
      budget = serves interval ``t`` itself);
    - when several in-flight decisions become ready, the one started on
      the *latest* interval wins;
    - a ready decision never replaces a deployment started later than
      it: a slow in-flight allocation must not regress routes to an
      older traffic matrix (e.g. interval 0 finishing at ``t = 2`` must
      not overwrite interval 1's fresh delay-0 deployment).

    Args:
        initial: The allocation deployed before any decision completes
            (the shortest-path default).
        interval_seconds: TE interval length.
    """

    def __init__(self, initial: Allocation, interval_seconds: float) -> None:
        self.interval_seconds = interval_seconds
        self.deployed = initial
        #: Interval whose matrix the deployed allocation was computed on.
        #: The pre-TE default predates every decision, so any completed
        #: decision may replace it.
        self.deployed_started = -1
        # _pending[i] = (ready_interval, started_interval, allocation)
        self._pending: list[tuple[int, int, Allocation]] = []

    def resolve(self, t: int) -> None:
        """Deploy the freshest allocation that finished computing by ``t``.

        Ready allocations older than the current deployment are
        discarded instead of deployed (the anti-regression guard).
        """
        ready = [p for p in self._pending if p[0] <= t]
        if ready:
            ready.sort(key=lambda p: p[1])
            if ready[-1][1] > self.deployed_started:
                self.deployed = ready[-1][2]
                self.deployed_started = ready[-1][1]
            self._pending = [p for p in self._pending if p[0] > t]

    def submit(self, t: int, allocation: Allocation) -> int:
        """Start ``allocation`` (computed on matrix ``t``); return its delay.

        A delay of 0 (compute time within the interval budget) deploys
        immediately; anything slower is queued until
        ``t + floor(compute_time / interval)``.
        """
        delay = int(
            np.floor(allocation.compute_time / self.interval_seconds)
        )
        if delay == 0:
            self.deployed = allocation
            self.deployed_started = t
        else:
            self._pending.append((t + delay, t, allocation))
        return delay

    def age(self, t: int) -> int:
        """Intervals since the deployed allocation was computed.

        The initial default counts as age ``t`` (computed "at interval
        0" for bookkeeping, matching the historical replay semantics).
        """
        return t - max(self.deployed_started, 0)


class OnlineSimulator:
    """Replays a trace, with an optional link failure, through the loop.

    Args:
        pathset: The path set (fixed across the run).
        interval_seconds: TE interval length (paper: 300 s).
    """

    def __init__(
        self, pathset: PathSet, interval_seconds: float = TE_INTERVAL_SECONDS
    ) -> None:
        if interval_seconds <= 0:
            raise SimulationError("interval_seconds must be positive")
        self.pathset = pathset
        self.interval_seconds = interval_seconds

    def run(
        self,
        scheme,
        matrices: list[TrafficMatrix],
        capacities: np.ndarray | None = None,
        failure_at: int | None = None,
        failed_edges: tuple[int, ...] = (),
    ):
        """Run the control loop over a trace.

        Every interval's allocation is computed up front through
        :func:`allocate_all` (one batched forward for Teal), then
        :meth:`~repro.simulation.streaming.StreamingEngine.run` resolves
        the staleness schedule and scores all intervals at once.

        Args:
            scheme: A :class:`~repro.baselines.base.TEScheme` (or any
                object with a compatible ``allocate``).
            matrices: Consecutive traffic matrices to replay.
            capacities: Nominal capacities (default: topology's).
            failure_at: Interval index at which ``failed_edges`` fail.
            failed_edges: Directed edge ids that drop to capacity 0.

        Returns:
            A :class:`~repro.simulation.streaming.StreamingRunResult`.

        Raises:
            SimulationError: On empty traces or inconsistent failure args.
        """
        # Imported lazily: the streaming engine imports this module.
        from .streaming import EventSchedule, StreamingEngine

        schedule = EventSchedule.from_failure_case(
            matrices,
            self.interval_seconds,
            failed_edges=failed_edges,
            failure_at=failure_at,
        )
        if capacities is None:
            capacities = self.pathset.topology.capacities
        allocations = allocate_all(
            scheme,
            self.pathset,
            schedule.demand_stack(self.pathset),
            schedule.capacity_stack(capacities),
        )
        engine = StreamingEngine(self.pathset, scheme, warm_start=False)
        return engine.run(schedule, capacities, allocations=allocations)
