"""Streaming online TE: an event-driven engine with per-decision latency.

The paper's pitch is sub-second TE decisions on near-Google-scale WANs,
which makes *decision latency* — not sweep throughput — the metric a
production controller is judged on. :class:`StreamingEngine` runs the
control loop the way a long-lived controller would: a time-ordered
stream of events (traffic-matrix updates, link failures, link
recoveries) drives incremental re-allocation, and the engine records the
measured wall-clock of every decision so a run reports p50/p99 decision
latency.

Three decision modes:

- **cold** — every traffic update runs the scheme's full ``allocate``
  pipeline (for Teal: FlowGNN forward + ADMM fine-tuning);
- **warm** — after the first decision, consecutive traffic matrices are
  close enough that the previous interval's split ratios are a good
  primal warm start: the engine skips the forward pass and runs only
  ADMM fine-tuning seeded from the last computed ratios, keeping the
  fine-tuned result only if it scores at least as well (the acceptance
  rule :class:`repro.core.teal.TealScheme` also applies, in
  :meth:`repro.core.admm.AdmmFineTuner.refine`). Capacity events
  (failures, recoveries) need no special casing — ADMM repairs violations against
  whatever capacities the next decision sees;
- **precomputed** — the caller passes every interval's allocation
  (e.g. rows of one batched ``allocate_batch`` over several failure
  scenarios, see :func:`repro.harness.run_online_failure_sweep`), and
  the engine only replays deployment and scoring.

:meth:`StreamingEngine.run` is the one online control loop of the
library: deployment follows the §5.1 staleness semantics via
:class:`~repro.simulation.online.DeploymentTracker`, and all intervals
are scored in one
:func:`~repro.simulation.evaluator.evaluate_allocations_batch` pass at
the end of the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..config import TE_INTERVAL_SECONDS
from ..exceptions import SimulationError
from ..nn.precision import EVALUATION_DTYPE
from ..paths.pathset import PathSet
from ..traffic.matrix import TrafficMatrix
from .evaluator import Allocation, evaluate_allocations_batch
from .online import DeploymentTracker, IntervalResult


@dataclass(frozen=True)
class TrafficUpdate:
    """A new traffic matrix arrives; the controller must decide.

    Attributes:
        time: Event timestamp (seconds since the start of the run).
        matrix: The traffic matrix in effect from this event on.
    """

    time: float
    matrix: TrafficMatrix


@dataclass(frozen=True)
class LinkFailure:
    """Physical links fail: the listed directed edges drop to capacity 0.

    Attributes:
        time: Event timestamp (seconds).
        edges: Directed edge ids whose capacity drops to zero (e.g. from
            :func:`repro.topology.failures.sample_link_failures`, which
            fails both directions of each physical link).
    """

    time: float
    edges: tuple[int, ...]


@dataclass(frozen=True)
class LinkRecovery:
    """Failed links come back at their nominal capacities, bit for bit.

    Attributes:
        time: Event timestamp (seconds).
        edges: Directed edge ids to restore; an empty tuple restores
            every currently failed edge.
    """

    time: float
    edges: tuple[int, ...] = ()


#: Event types a schedule may contain.
Event = TrafficUpdate | LinkFailure | LinkRecovery

#: Tie-break at equal timestamps: capacity events apply before the
#: traffic update, so a decision made "at" a failure instant already
#: sees the degraded capacities.
_PRIORITY = {LinkFailure: 0, LinkRecovery: 0, TrafficUpdate: 1}

#: Event-count key of each event type (:attr:`StreamingRunResult.event_counts`).
_KIND = {TrafficUpdate: "traffic", LinkFailure: "failure", LinkRecovery: "recovery"}


def _checked_edges(event: LinkFailure | LinkRecovery, num_edges: int) -> list[int]:
    """The event's edge ids, rejecting any outside ``[0, num_edges)``."""
    edges = [int(e) for e in event.edges]
    for edge in edges:
        if not 0 <= edge < num_edges:
            raise SimulationError(
                f"{type(event).__name__} at t={event.time} names edge "
                f"{edge}, outside [0, {num_edges})"
            )
    return edges


@dataclass(frozen=True)
class EventSchedule:
    """A time-ordered stream of control-plane events.

    Events are stored sorted by ``(time, kind)``; capacity events sort
    before the traffic update at the same timestamp (see the tie-break
    note above). The constructors cover the common shapes: a plain
    trace, a failure(-and-recovery) case, and a
    :class:`~repro.sweep.grid.ScenarioSuite` grid cell, whose failure
    sampling and timing become an explicit event schedule.

    Attributes:
        events: The sorted event tuple (any iterable is accepted and
            sorted stably on construction).
        interval_seconds: TE interval length (decision staleness budget).
    """

    events: tuple[Event, ...]
    interval_seconds: float = TE_INTERVAL_SECONDS

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise SimulationError("interval_seconds must be positive")
        events = tuple(
            sorted(self.events, key=lambda e: (e.time, _PRIORITY[type(e)]))
        )
        if not any(isinstance(e, TrafficUpdate) for e in events):
            raise SimulationError(
                "an event schedule needs at least one TrafficUpdate"
            )
        object.__setattr__(self, "events", events)

    @property
    def updates(self) -> list[TrafficUpdate]:
        """Traffic updates in event order (one decision each)."""
        return [e for e in self.events if isinstance(e, TrafficUpdate)]

    @property
    def num_intervals(self) -> int:
        """Number of traffic updates (= decisions a run will make)."""
        return len(self.updates)

    def matrices(self) -> list[TrafficMatrix]:
        """Traffic matrices in event order."""
        return [e.matrix for e in self.updates]

    def demand_stack(self, pathset: PathSet) -> np.ndarray:
        """(T, D) demand volumes; decision ``t`` reads row ``t``."""
        return pathset.demand_volumes_batch(
            np.stack([m.values for m in self.matrices()])
        )

    def capacity_stack(self, nominal: np.ndarray) -> np.ndarray:
        """(T, E) capacities in effect at each decision; row ``t`` is ``t``'s.

        Failures zero their edges from the failure event on; recoveries
        copy the nominal values back, so a recovered row equals
        ``nominal`` bit for bit.

        Raises:
            SimulationError: If an event names an edge outside ``[0, E)``.
        """
        nominal = np.asarray(nominal, dtype=EVALUATION_DTYPE)
        num_edges = nominal.shape[0]
        stack = np.broadcast_to(
            nominal, (self.num_intervals, num_edges)
        ).copy()
        current = nominal.copy()
        failed: set[int] = set()
        interval = 0
        for event in self.events:
            if isinstance(event, LinkFailure):
                edges = _checked_edges(event, num_edges)
                current[edges] = 0.0
                failed.update(edges)
            elif isinstance(event, LinkRecovery):
                edges = sorted(_checked_edges(event, num_edges) or failed)
                current[edges] = nominal[edges]
                failed.difference_update(edges)
            else:
                stack[interval] = current
                interval += 1
        return stack

    @classmethod
    def from_trace(
        cls,
        matrices: list[TrafficMatrix],
        interval_seconds: float = TE_INTERVAL_SECONDS,
    ) -> "EventSchedule":
        """One traffic update per interval, no capacity events."""
        return cls(
            events=tuple(
                TrafficUpdate(time=t * interval_seconds, matrix=m)
                for t, m in enumerate(matrices)
            ),
            interval_seconds=interval_seconds,
        )

    @classmethod
    def from_failure_case(
        cls,
        matrices: list[TrafficMatrix],
        interval_seconds: float = TE_INTERVAL_SECONDS,
        failed_edges: tuple[int, ...] = (),
        failure_at: int | None = None,
        recover_at: int | None = None,
    ) -> "EventSchedule":
        """A trace with one failure (and optional recovery) event.

        The failure strikes at interval ``failure_at`` *before* that
        interval's traffic update: interval ``failure_at`` already
        computes — and is scored — against the degraded capacities.
        ``recover_at`` restores the failed edges the same way.

        Args:
            matrices: Consecutive traffic matrices.
            interval_seconds: TE interval length.
            failed_edges: Directed edge ids that fail.
            failure_at: Interval index the failure strikes (required
                when ``failed_edges`` is non-empty).
            recover_at: Optional interval index the links recover.

        Raises:
            SimulationError: On inconsistent failure arguments, a
                negative ``failure_at``, or a recovery without a failure.
        """
        failed_edges = tuple(int(e) for e in failed_edges)
        if bool(failed_edges) != (failure_at is not None):
            raise SimulationError(
                "failed_edges and failure_at must be provided together"
            )
        if recover_at is not None and failure_at is None:
            raise SimulationError("recover_at requires a failure")
        events: list[Event] = [
            TrafficUpdate(time=t * interval_seconds, matrix=m)
            for t, m in enumerate(matrices)
        ]
        if failure_at is not None:
            if failure_at < 0:
                raise SimulationError(
                    f"failure_at must be non-negative, got {failure_at}"
                )
            events.append(
                LinkFailure(
                    time=failure_at * interval_seconds, edges=failed_edges
                )
            )
            if recover_at is not None:
                if recover_at <= failure_at:
                    raise SimulationError(
                        "recover_at must come after failure_at"
                    )
                events.append(
                    LinkRecovery(
                        time=recover_at * interval_seconds, edges=failed_edges
                    )
                )
        return cls(events=tuple(events), interval_seconds=interval_seconds)

    @classmethod
    def from_grid_cell(
        cls, suite, scenario, failure_count: int
    ) -> "EventSchedule":
        """The event schedule of one online grid cell.

        Reuses the grid's own determinism contract: the failed links are
        sampled with :func:`repro.sweep.grid.cell_seed` (stable across
        processes) and the failure strikes at ``suite.failure_at``
        (mid-trace when unset).

        Args:
            suite: The :class:`~repro.sweep.grid.ScenarioSuite`.
            scenario: The built :class:`~repro.harness.Scenario` of the
                cell's (topology, seed) job.
            failure_count: The cell's simultaneous-failure level
                (0 = a plain trace, no capacity events).
        """
        # Imported lazily: repro.sweep.grid imports repro.simulation.
        from ..sweep.grid import cell_seed
        from ..topology.failures import sample_link_failures

        matrices = scenario.split.test
        if not failure_count:
            return cls.from_trace(matrices, suite.interval_seconds)
        failure_at = suite.failure_at
        if failure_at is None:
            failure_at = len(matrices) // 2
        edges = sample_link_failures(
            scenario.topology,
            failure_count,
            seed=cell_seed(scenario.name, scenario.seed, failure_count),
        )
        return cls.from_failure_case(
            matrices,
            suite.interval_seconds,
            failed_edges=tuple(edges),
            failure_at=failure_at,
        )


@dataclass(frozen=True)
class DecisionRecord:
    """One control decision, with its *measured* latency.

    Attributes:
        interval: Interval index the decision was computed for.
        time: Timestamp of the triggering traffic update.
        latency: Measured wall-clock seconds of the decision pipeline
            (the quantity p50/p99 decision latency is reported over);
            a precomputed decision reports its ``compute_time``.
        compute_time: The scheme-reported compute time that drives the
            deployment schedule (equals ``latency`` for warm decisions;
            test doubles may report synthetic times).
        warm: Whether the ADMM warm-start path produced this decision.
        deploy_delay: Intervals until deployment (0 = within budget).
    """

    interval: int
    time: float
    latency: float
    compute_time: float
    warm: bool
    deploy_delay: int


@dataclass
class StreamingRunResult:
    """Aggregate of one online run: decisions, intervals, latencies."""

    scheme: str
    decisions: list[DecisionRecord] = field(default_factory=list)
    intervals: list[IntervalResult] = field(default_factory=list)
    event_counts: dict[str, int] = field(default_factory=dict)

    def latency_percentile(self, q: float) -> float:
        """q-th percentile of measured decision latency (seconds)."""
        if not self.decisions:
            return 0.0
        return float(
            np.percentile([d.latency for d in self.decisions], q)
        )

    @property
    def p50_latency(self) -> float:
        """Median decision latency (seconds)."""
        return self.latency_percentile(50)

    @property
    def p99_latency(self) -> float:
        """99th-percentile decision latency (seconds)."""
        return self.latency_percentile(99)

    @property
    def warm_fraction(self) -> float:
        """Fraction of decisions served by the ADMM warm-start path."""
        if not self.decisions:
            return 0.0
        return float(np.mean([d.warm for d in self.decisions]))

    @property
    def mean_satisfied(self) -> float:
        """Mean per-interval satisfied fraction."""
        if not self.intervals:
            return 0.0
        return float(
            np.mean([r.satisfied_fraction for r in self.intervals])
        )

    @property
    def stale_fraction(self) -> float:
        """Fraction of intervals served by stale routes."""
        if not self.intervals:
            return 0.0
        return float(np.mean([r.stale for r in self.intervals]))

    def satisfied_series(self) -> np.ndarray:
        """(T,) satisfied fractions in interval order (Figure 18 series)."""
        return np.array([r.satisfied_fraction for r in self.intervals])

    def to_dict(self) -> dict:
        """JSON-ready summary (CLI/benchmark output)."""
        return {
            "scheme": self.scheme,
            "num_decisions": len(self.decisions),
            "p50_latency": self.p50_latency,
            "p99_latency": self.p99_latency,
            "warm_fraction": self.warm_fraction,
            "mean_satisfied": self.mean_satisfied,
            "stale_fraction": self.stale_fraction,
            "event_counts": dict(self.event_counts),
            "satisfied": [r.satisfied_fraction for r in self.intervals],
            "latencies": [d.latency for d in self.decisions],
            "compute_times": [d.compute_time for d in self.decisions],
        }


class StreamingEngine:
    """Long-lived event-driven TE controller over one scheme.

    Args:
        pathset: The path set (fixed across the run; transient capacity
            events enter via the event stream).
        scheme: A TE scheme (duck-typed ``allocate``; Teal-style schemes
            with ``admm``/``objective`` attributes additionally unlock
            the warm-start path).
        warm_start: Re-allocate incrementally (default) — ADMM
            fine-tuning warm started from the previous interval's split
            ratios — instead of running the full pipeline every
            interval. Falls back to cold decisions for the first
            interval and for schemes without an ADMM seam. Pass False
            for cold-only decisions.
        warm_iterations: ADMM iteration budget of warm decisions
            (None = the fine-tuner's configured count).
    """

    def __init__(
        self,
        pathset: PathSet,
        scheme,
        warm_start: bool = True,
        warm_iterations: int | None = None,
    ) -> None:
        self.pathset = pathset
        self.scheme = scheme
        self.warm_start = warm_start
        self.warm_iterations = warm_iterations

    def _initial_allocation(self) -> Allocation:
        """Everything on shortest paths — the pre-TE default routes."""
        ratios = np.zeros((self.pathset.num_demands, self.pathset.max_paths))
        ratios[:, 0] = 1.0
        return Allocation(split_ratios=ratios, scheme="shortest-path-default")

    def _warm_capable(self) -> bool:
        """Whether the scheme exposes the ADMM warm-start seam."""
        return (
            getattr(self.scheme, "admm", None) is not None
            and getattr(self.scheme, "objective", None) is not None
        )

    def _decide(
        self,
        demands: np.ndarray,
        capacities: np.ndarray,
        previous_ratios: np.ndarray | None,
    ) -> tuple[Allocation, bool]:
        """One decision: warm ADMM-only re-allocation or a cold pipeline."""
        if not (
            self.warm_start
            and previous_ratios is not None
            and self._warm_capable()
        ):
            return (
                self.scheme.allocate(self.pathset, demands, capacities),
                False,
            )
        start = time.perf_counter()
        # Teal's acceptance rule, applied to the warm pair: keep the
        # fine-tuned ratios only if they score at least as well as the
        # warm start itself under the new demands/capacities.
        ratios = self.scheme.admm.refine(
            self.scheme.objective,
            np.asarray(previous_ratios)[None],
            np.asarray(demands)[None],
            capacities,
            iterations=self.warm_iterations,
        )[0]
        elapsed = time.perf_counter() - start
        allocation = Allocation(
            split_ratios=ratios,
            compute_time=elapsed,
            scheme=getattr(self.scheme, "name", "scheme"),
            extras={
                "warm_start": True,
                "admm_time": elapsed,
                "admm_iterations": (
                    self.warm_iterations
                    if self.warm_iterations is not None
                    else self.scheme.admm.iterations
                ),
            },
        )
        return allocation, True

    def run(
        self,
        schedule: EventSchedule,
        capacities: np.ndarray | None = None,
        allocations: list[Allocation] | None = None,
    ) -> StreamingRunResult:
        """Drive the controller through an event schedule.

        Decision ``t`` reads row ``t`` of the schedule's demand and
        capacity stacks (:meth:`EventSchedule.demand_stack`,
        :meth:`EventSchedule.capacity_stack`). Each traffic update
        resolves pending deployments, takes a decision (timed with
        ``perf_counter``) and submits it to the deployment tracker;
        scoring is deferred to one batched
        :func:`evaluate_allocations_batch` pass over all intervals.

        Args:
            schedule: The event stream.
            capacities: Nominal capacities (default: the topology's).
                Failure events zero edges of these; recovery events
                restore the nominal values exactly.
            allocations: Optional precomputed per-interval decisions
                (e.g. a slice of one :func:`~repro.simulation.online.allocate_all`
                over several schedules); the scheme is then not called
                and each decision's latency is its ``compute_time``.

        Returns:
            A :class:`StreamingRunResult`.

        Raises:
            SimulationError: If ``allocations`` does not hold one
                decision per traffic update, or an event names an edge
                outside the topology.
        """
        if capacities is None:
            capacities = self.pathset.topology.capacities
        updates = schedule.updates
        num_intervals = len(updates)
        if allocations is not None and len(allocations) != num_intervals:
            raise SimulationError(
                f"{len(allocations)} precomputed allocations for "
                f"{num_intervals} intervals"
            )
        demands_all = schedule.demand_stack(self.pathset)
        caps_stack = schedule.capacity_stack(capacities)
        tracker = DeploymentTracker(
            self._initial_allocation(), schedule.interval_seconds
        )
        result = StreamingRunResult(
            scheme=getattr(self.scheme, "name", "scheme")
        )
        ratio_stack = np.empty(
            (num_intervals, self.pathset.num_demands, self.pathset.max_paths)
        )
        ages = np.empty(num_intervals, dtype=int)
        previous_ratios: np.ndarray | None = None

        for t, update in enumerate(updates):
            tracker.resolve(t)
            if allocations is None:
                start = time.perf_counter()
                allocation, warm = self._decide(
                    demands_all[t], caps_stack[t], previous_ratios
                )
                latency = time.perf_counter() - start
            else:
                allocation, warm = allocations[t], False
                latency = allocation.compute_time
            previous_ratios = allocation.split_ratios
            delay = tracker.submit(t, allocation)
            result.decisions.append(
                DecisionRecord(
                    interval=t,
                    time=update.time,
                    latency=latency,
                    compute_time=allocation.compute_time,
                    warm=warm,
                    deploy_delay=delay,
                )
            )
            ratio_stack[t] = tracker.deployed.split_ratios
            ages[t] = tracker.age(t)

        satisfied = evaluate_allocations_batch(
            self.pathset, ratio_stack, demands_all, caps_stack
        ).satisfied_fraction
        for t, decision in enumerate(result.decisions):
            result.intervals.append(
                IntervalResult(
                    interval=t,
                    satisfied_fraction=float(satisfied[t]),
                    allocation_age=int(ages[t]),
                    compute_time=decision.compute_time,
                    stale=bool(ages[t] > 0),
                )
            )
        result.event_counts = {kind: 0 for kind in _KIND.values()}
        for event in schedule.events:
            result.event_counts[_KIND[type(event)]] += 1
        return result
