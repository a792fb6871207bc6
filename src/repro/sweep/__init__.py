"""Scenario-grid sweep engine: topology × failure × trace × scheme grids.

Declare a grid as a :class:`ScenarioSuite`, run it (serially or with a
process pool of per-topology workers) via :func:`run_scenario_grid`,
and get back a JSON-serializable :class:`GridResult` of per-cell
:class:`~repro.simulation.metrics.SchemeRun` records. Every failure
level of a (topology, seed) job shares one stacked kernel invocation
per scheme. The :mod:`~repro.sweep.analytics` layer reduces
one-or-many saved results into the paper's aggregate curves (speedup
vs topology size, satisfied demand by failure level, phase-time
breakdowns, precision tables). With a cache dir, each completed job is
checkpointed as one entry so interrupted grids resume (``resume=True`` /
``repro.cli sweep --resume``) bit-identically, and the
:mod:`~repro.sweep.plotting` layer renders analytics into the
paper's figures as SVG (``repro.cli plot``).
"""

from .analytics import (
    GridAnalytics,
    PhaseBreakdown,
    PrecisionComparison,
    SchemeDistribution,
    SpeedupPoint,
    analyze,
    format_analytics,
    load_grid_results,
    phase_breakdown,
    precision_table,
    satisfied_samples,
    scheme_distributions,
    speedup_curve,
)
from .grid import (
    EXECUTORS,
    GridCell,
    GridResult,
    ScenarioSuite,
    cell_seed,
    job_key,
    load_completed_cells,
    load_job_checkpoint,
    run_scenario_grid,
    save_job_checkpoint,
    single_topology,
    suite_token,
)
from .plotting import (
    FigureSpec,
    Series,
    build_figures,
    cdf_figure,
    render_figures,
    render_svg,
    robustness_figure,
    scheme_colors,
    speedup_figure,
)

__all__ = [
    "EXECUTORS",
    "FigureSpec",
    "GridAnalytics",
    "GridCell",
    "GridResult",
    "PhaseBreakdown",
    "PrecisionComparison",
    "ScenarioSuite",
    "SchemeDistribution",
    "Series",
    "SpeedupPoint",
    "analyze",
    "build_figures",
    "cdf_figure",
    "cell_seed",
    "format_analytics",
    "job_key",
    "load_completed_cells",
    "load_grid_results",
    "load_job_checkpoint",
    "phase_breakdown",
    "precision_table",
    "render_figures",
    "render_svg",
    "robustness_figure",
    "run_scenario_grid",
    "satisfied_samples",
    "save_job_checkpoint",
    "scheme_colors",
    "scheme_distributions",
    "single_topology",
    "speedup_curve",
    "speedup_figure",
    "suite_token",
]
