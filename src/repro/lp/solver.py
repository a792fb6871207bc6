"""LP solving via scipy's HiGHS backend (the Gurobi substitute).

The paper's baselines solve the path-formulation LP with Gurobi, a
commercial solver this package does not depend on; we substitute
``scipy.optimize.linprog(method="highs")`` —
also an exact sparse LP solver with the same iterative, input-dependent
runtime profile that motivates Teal. Wall-clock time is measured around
the solve and surfaced on every result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from ..exceptions import SolverError
from ..paths.pathset import PathSet
from .formulation import LinearProgram, build_lp
from .objectives import Objective


@dataclass(frozen=True)
class LpSolution:
    """Result of one LP solve.

    Attributes:
        path_flows: (P,) optimal path flows.
        objective_value: Objective in the *paper's* sense (total flow for
            max objectives, MLU for the min-MLU program).
        solve_time: Wall-clock seconds spent inside the solver.
        iterations: Simplex/IPM iteration count reported by HiGHS.
        status: Solver status string.
        auxiliary: Values of non-path variables (e.g. the MLU ``t``).
    """

    path_flows: np.ndarray
    objective_value: float
    solve_time: float
    iterations: int
    status: str
    auxiliary: np.ndarray


def solve_lp(program: LinearProgram) -> LpSolution:
    """Solve a built LP and return flows with timing.

    Raises:
        SolverError: If HiGHS reports failure (status != 0).
    """
    start = time.perf_counter()
    result = linprog(
        c=program.c,
        A_ub=program.a_ub,
        b_ub=program.b_ub,
        A_eq=program.a_eq,
        b_eq=program.b_eq,
        bounds=program.bounds,
        method="highs",
    )
    elapsed = time.perf_counter() - start
    if not result.success:
        raise SolverError(f"LP solve failed: {result.message}")
    x = np.asarray(result.x, dtype=float)
    path_flows = x[: program.num_path_vars]
    auxiliary = x[program.num_path_vars :]
    # linprog minimizes c @ x; for max-flow builders c = -values.
    objective_value = float(-result.fun) if auxiliary.size == 0 else float(result.fun)
    iterations = int(getattr(result, "nit", 0) or 0)
    return LpSolution(
        path_flows=path_flows,
        objective_value=objective_value,
        solve_time=elapsed,
        iterations=iterations,
        status=str(result.message),
        auxiliary=auxiliary,
    )


def solve_te_lp(
    pathset: PathSet,
    demands: np.ndarray,
    objective: Objective,
    capacities: np.ndarray | None = None,
    demand_subset: np.ndarray | None = None,
) -> LpSolution:
    """Build and solve the TE LP for ``objective`` in one call."""
    program = build_lp(pathset, demands, objective, capacities, demand_subset)
    return solve_lp(program)


def lp_split_ratios(
    pathset: PathSet, solution: LpSolution, demands: np.ndarray
) -> np.ndarray:
    """Convert an LP solution's path flows to (D, k) split ratios."""
    ratios = pathset.path_flows_to_split_ratios(solution.path_flows, demands)
    return np.clip(ratios, 0.0, 1.0)
