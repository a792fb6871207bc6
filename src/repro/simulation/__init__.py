"""Evaluation substrate: feasible-flow semantics, online loop, metrics."""

from .evaluator import (
    Allocation,
    BatchFlowReport,
    FlowReport,
    evaluate_allocation,
    evaluate_allocations_batch,
)
from .fallback import FallbackScheme
from .metrics import SchemeRun, format_comparison_table, speedup
from .online import (
    DeploymentTracker,
    IntervalResult,
    OnlineSimulator,
    allocate_all,
)
from .streaming import (
    DecisionRecord,
    EventSchedule,
    LinkFailure,
    LinkRecovery,
    StreamingEngine,
    StreamingRunResult,
    TrafficUpdate,
)

__all__ = [
    "Allocation",
    "BatchFlowReport",
    "FlowReport",
    "evaluate_allocation",
    "evaluate_allocations_batch",
    "OnlineSimulator",
    "IntervalResult",
    "DeploymentTracker",
    "allocate_all",
    "StreamingEngine",
    "StreamingRunResult",
    "EventSchedule",
    "TrafficUpdate",
    "LinkFailure",
    "LinkRecovery",
    "DecisionRecord",
    "SchemeRun",
    "speedup",
    "format_comparison_table",
    "FallbackScheme",
]
