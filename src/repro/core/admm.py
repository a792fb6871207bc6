"""ADMM fine-tuning of neural allocations (§3.4, Appendix C).

The paper augments Teal's networks with 2-5 iterations of the
alternating direction method of multipliers to repair capacity
violations. Following Appendix C, the path-formulation LP is rewritten
with auxiliary variables ``z_pe`` (one per path-edge incidence) and
slacks ``s1_d`` (demand constraints), ``s3_e`` (capacity constraints):

    min  -sum_p value_p * d_p * F_p
    s.t. G1_d:  sum_{p in P_d} F_p + s1_d - 1      = 0
         G3_e:  sum_{p ∋ e} z_pe + s3_e - c_e      = 0
         G4_pe: F_p * d_p - z_pe                   = 0
         F, s1, s3 >= 0

Each ADMM iteration minimizes the augmented Lagrangian blockwise. Both
the F-block (per demand, ≤k variables) and the z-block (per edge)
reduce to rank-1-plus-diagonal linear systems solved in closed form via
Sherman-Morrison — every demand/edge independently, which is the
parallelism §3.4 highlights; here it appears as flat numpy vector math
over all demands/edges at once. The F >= 0 bound is enforced by
projection after each F-step (standard practice for box constraints in
ADMM fine-tuners).

Warm-starting from the network output is essential: §3.4 notes randomly
initialized ADMM would need far more iterations (benchmarked in
``benchmarks/bench_fig14_ablations.py``).

Primal *and dual* warm starts are used: ``lam1`` is initialized so that a
feasible allocation is a fixed point of the first F-update (otherwise the
first iteration performs unconstrained flow maximization and destroys the
warm start). Later iterations may transiently trade small capacity
violations for higher flow while the capacity duals ``lam3`` build up —
the deployed pipeline guards this with an objective acceptance check
(:meth:`AdmmFineTuner.refine`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import AdmmConfig
from ..exceptions import ModelError
from ..nn.precision import EVALUATION_DTYPE, resolve_precision
from ..paths.pathset import PathSet
from ..topology.graph import broadcast_capacities
from .batching import (
    SegmentOps,
    Workspace,
    admm_dual_step_,
    admm_f_rhs_into,
    admm_f_solve_into,
    admm_slack_into,
    admm_z_rhs_into,
    admm_z_solve_into,
)

_EPS = 1e-9


def _project_ratios(ratios: np.ndarray) -> np.ndarray:
    """Project split ratios onto the simplex box: clip to [0, 1], then
    renormalize any row whose sum exceeds 1.

    Shared by every ADMM exit path (iterating or not, batched or not) so
    the zero-iteration short-circuit returns allocations with the same
    row-sum guarantee as the full solver. Operates on the trailing (k,)
    axis, so (D, k) and (T, D, k) inputs both work.
    """
    ratios = np.clip(ratios, 0.0, 1.0)
    sums = ratios.sum(axis=-1, keepdims=True)
    return np.where(sums > 1.0, ratios / np.maximum(sums, _EPS), ratios)


@dataclass
class _AdmmStructures:
    """Static index structures shared by every ADMM run on a pathset."""

    pair_path: np.ndarray  # (I,) path id of each (path, edge) incidence
    pair_edge: np.ndarray  # (I,) edge id of each incidence
    hops: np.ndarray  # (P,) edges per path (n_p)
    paths_per_edge: np.ndarray  # (E,) paths per edge (m_e)
    num_paths: int
    num_edges: int
    num_demands: int
    path_demand: np.ndarray  # (P,)


def _build_structures(pathset: PathSet) -> _AdmmStructures:
    coo = pathset.edge_path_incidence.tocoo()
    return _AdmmStructures(
        pair_path=coo.col.astype(np.int64),
        pair_edge=coo.row.astype(np.int64),
        hops=pathset.path_hop_counts.astype(EVALUATION_DTYPE),
        paths_per_edge=np.asarray(
            pathset.edge_path_incidence.sum(axis=1)
        ).reshape(-1),
        num_paths=pathset.num_paths,
        num_edges=pathset.topology.num_edges,
        num_demands=pathset.num_demands,
        path_demand=pathset.path_demand,
    )


class AdmmFineTuner:
    """Runs warm-started ADMM iterations on an allocation (§3.4).

    Args:
        pathset: The path set (fixes the constraint structure).
        config: Iteration count and penalty coefficient; the default picks
            the paper's 2 (<100 nodes) or 5 iterations automatically.
        path_values: Optional per-path per-unit-flow objective weights
            (1 for total flow; the delay-penalized weights otherwise).
        precision: Storage dtype of the F/z/s/dual iterates (default
            float64). Segment sums always *accumulate* in float64
            (``np.bincount``) and the deployment acceptance check scores
            candidates through the float64 evaluator, so float32 storage
            perturbs the iterates but not the accept/reject decisions —
            see :mod:`repro.nn.precision`.
    """

    def __init__(
        self,
        pathset: PathSet,
        config: AdmmConfig | None = None,
        path_values: np.ndarray | None = None,
        precision: np.dtype | str | None = None,
    ) -> None:
        self.pathset = pathset
        self.config = config if config is not None else AdmmConfig()
        self.precision = resolve_precision(precision)
        self.structures = _build_structures(pathset)
        if path_values is None:
            path_values = np.ones(pathset.num_paths)
        path_values = np.asarray(path_values, dtype=EVALUATION_DTYPE)
        if path_values.shape != (pathset.num_paths,):
            raise ModelError("path_values shape mismatch")
        self.path_values = path_values
        self.iterations = self.config.resolve_iterations(
            pathset.topology.num_nodes
        )
        # Tiled-index segment ops: the batched fine-tuner runs the same
        # flat bincount/scatter primitives as the per-TM path over a
        # (T, ...) stack (see core.batching), so both agree bit for bit.
        s = self.structures
        self._pair_to_path = SegmentOps(s.pair_path, s.num_paths)
        self._pair_to_edge = SegmentOps(s.pair_edge, s.num_edges)
        self._path_to_demand = SegmentOps(s.path_demand, s.num_demands)
        # Preallocated buffers of the fused update loop (keyed by batch
        # shape and dtype, so a sweep of equal-sized stacks never
        # re-allocates) and per-dtype casts of the static structures.
        self._workspace = Workspace()
        self._static_cache: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _static_arrays(
        self, dtype: np.dtype
    ) -> tuple[np.ndarray, np.ndarray]:
        """(path_values, 1 + paths_per_edge) cast to ``dtype``."""
        cached = self._static_cache.get(dtype.name)
        if cached is None:
            cached = (
                self.path_values.astype(dtype, copy=False),
                (1.0 + self.structures.paths_per_edge).astype(dtype, copy=False),
            )
            self._static_cache[dtype.name] = cached
        return cached

    def fine_tune(
        self,
        split_ratios: np.ndarray,
        demands: np.ndarray,
        capacities: np.ndarray | None = None,
        iterations: int | None = None,
    ) -> np.ndarray:
        """Fine-tune split ratios toward feasibility and higher objective.

        Args:
            split_ratios: (D, k) warm-start ratios (e.g. model output).
            demands: (D,) demand volumes.
            capacities: (E,) capacities; defaults to the topology's.
            iterations: Override the configured iteration count.

        Returns:
            (D, k) fine-tuned split ratios (clipped to the simplex box).
        """
        # One code path for both shapes: the batched fine-tuner with T=1
        # reproduces the historical per-TM loop bit for bit (the tiled
        # segment primitives accumulate in the same order), so the
        # single-TM entry point simply runs the stack of one.
        ratios = np.asarray(split_ratios)
        demands = np.asarray(demands)
        if capacities is not None:
            capacities = np.asarray(capacities)[None, :]
        return self.fine_tune_batch(
            ratios[None, ...], demands[None, :], capacities, iterations
        )[0]

    def fine_tune_batch(
        self,
        split_ratios: np.ndarray,
        demands: np.ndarray,
        capacities: np.ndarray | None = None,
        iterations: int | None = None,
    ) -> np.ndarray:
        """Fine-tune a (T, ...) stack of allocations in one vectorized run.

        The per-demand/per-edge independence of the F/z/s/dual blocks
        (§3.4) makes each ADMM update flat vector math over segment
        reductions; adding the matrix axis only tiles those segment
        indices (see :mod:`repro.core.batching`), so T matrices cost T
        times the arithmetic but a single pass of Python — and row ``t``
        reproduces :meth:`fine_tune` on slice ``t`` exactly.

        Args:
            split_ratios: (T, D, k) warm-start ratios (e.g. batched model
                output).
            demands: (T, D) demand volumes.
            capacities: (E,) shared or (T, E) per-matrix capacities;
                defaults to the topology's.
            iterations: Override the configured iteration count.

        Returns:
            (T, D, k) fine-tuned split ratios.
        """
        s = self.structures
        dtype = self.precision
        split_ratios = np.asarray(split_ratios, dtype=dtype)
        demands = np.asarray(demands, dtype=dtype)
        num_matrices = demands.shape[0]
        if capacities is None:
            capacities = self.pathset.topology.capacities
        capacities = np.asarray(
            broadcast_capacities(np.asarray(capacities), num_matrices), dtype=dtype
        )
        iters = self.iterations if iterations is None else int(iterations)
        if iters <= 0 or num_matrices == 0:
            return _project_ratios(split_ratios)

        # The F-block's Sherman-Morrison solve always runs in the
        # accumulation dtype (float64): its 1/max(d^2 * hops, eps)
        # diagonal reaches ~1e5 for small demands, so float32 rounding of
        # the cancellation-heavy right-hand side would be amplified into
        # ~1e-4 allocation drift (measured on UsCarrier). With the solve
        # in float64 and the z/s/dual iterates stored single precision,
        # float32 tracks float64 within ~1e-6 delivered flow.
        solve = EVALUATION_DTYPE
        mixed = dtype != solve
        w_p, one_plus_ppe = self._static_arrays(dtype)
        ws = self._workspace
        num_pairs = len(s.pair_path)
        shape_tp = (num_matrices, s.num_paths)
        shape_ti = (num_matrices, num_pairs)
        shape_te = (num_matrices, s.num_edges)
        shape_td = (num_matrices, s.num_demands)

        # Per-matrix scale normalization (rho stays scale-free per TM),
        # computed row by row with the same compacted mean as the
        # historical per-TM loop — a masked whole-row sum can differ in
        # the last ulp, which would break bit-for-bit parity.
        pos_mean = np.asarray(
            [
                float(row[row > 0].mean()) if (row > 0).any() else 1.0
                for row in capacities
            ]
        )
        scale = np.maximum(pos_mean, _EPS).astype(dtype)[:, None]  # (T, 1)
        d_norm = demands / scale
        c_norm = capacities / scale
        rho = self.config.rho

        d_p = d_norm[:, s.path_demand]  # (T, P)
        d_p_solve = d_p.astype(solve) if mixed else d_p
        w_p_solve = self.path_values  # float64 master
        a = np.maximum(d_p_solve * d_p_solve * s.hops, _EPS)
        # Loop invariants of the F-solve, hoisted (identical values).
        inv_a = 1.0 / a
        inv_a_over_rho = inv_a / rho
        correction_denom = 1.0 + self._path_to_demand.sum(inv_a)

        # Warm start (primal), stacked.
        F = np.clip(split_ratios, 0.0, 1.0)
        F_flat = np.zeros(shape_tp, dtype=dtype)
        valid = self.pathset.path_mask
        F_flat[:, self.pathset.demand_path_ids[valid]] = F[:, valid]
        z = ws.buffer("z", shape_ti, dtype)
        flow_pairs = ws.buffer("flow_pairs", shape_ti, dtype)  # (F*d) gathers
        tp_buf = ws.buffer("tp", shape_tp, dtype)  # per-path scratch
        np.multiply(F_flat, d_p, out=tp_buf)
        np.take(tp_buf, s.pair_path, axis=1, out=z)  # z_pe = F_p * d_p
        sum_z = self._pair_to_edge.sum(z, dtype=dtype)
        s1 = np.maximum(0.0, 1.0 - self._path_to_demand.sum(F_flat, dtype=dtype))
        s3 = np.maximum(0.0, c_norm - sum_z)
        # Dual warm start via complementary slackness: lam1_d estimates
        # the marginal value of demand d's constraint. Saturated edges
        # carry a unit congestion price; a demand's marginal value is its
        # best path's value net of congestion prices. Demands whose every
        # path crosses saturated links get lam1 ~ 0, freeing the F-update
        # to *reduce* their over-allocation (the behaviour softmax
        # outputs need most), while uncongested demands keep the
        # stationarity pressure that preserves good warm starts.
        with np.errstate(divide="ignore", invalid="ignore"):
            warm_util = np.where(
                c_norm > 0,
                sum_z / np.maximum(c_norm, _EPS),
                np.where(sum_z > _EPS, np.inf, 0.0),
            )
        congestion_price = (warm_util > 1.0).astype(dtype)
        path_price = self._pair_to_path.sum(
            congestion_price[:, s.pair_edge], dtype=dtype
        )
        reduced_value = np.maximum(0.0, w_p - path_price)
        best_reduced = self._path_to_demand.max(reduced_value)
        demand_volume = self._path_to_demand.max(d_p)
        lam1 = demand_volume * best_reduced
        lam3 = np.zeros(shape_te, dtype=dtype)
        lam4 = np.zeros(shape_ti, dtype=dtype)

        # Per-iteration scratch (preallocated; see core.batching). The
        # F-solve buffers live in the accumulation dtype.
        b = ws.buffer("b", shape_tp, solve)
        tp_solve = ws.buffer("tp_solve", shape_tp, solve)
        gather_p = ws.buffer("gather_p", shape_tp, dtype)
        f_solve = ws.buffer("f_solve", shape_tp, solve) if mixed else F_flat
        tp_scratch = ws.buffer("tp_scratch", shape_tp, dtype)
        beta = ws.buffer("beta", shape_ti, dtype)
        ti_buf = ws.buffer("ti", shape_ti, dtype)
        te_buf = ws.buffer("te", shape_te, dtype)
        td_buf = ws.buffer("td", shape_td, dtype)

        for _ in range(iters):
            # ---- F-update: per-demand rank-1 + diagonal system ---------
            # Segment sums come out of bincount in float64 — exactly the
            # accumulation dtype the solve wants.
            lam4_per_path = self._pair_to_path.sum(lam4)
            z_per_path = self._pair_to_path.sum(z)
            np.take(lam1, s.path_demand, axis=1, out=gather_p)  # lam1 gather
            np.take(s1, s.path_demand, axis=1, out=tp_scratch)  # s1 gather
            admm_f_rhs_into(
                d_p_solve, w_p_solve, gather_p, lam4_per_path, tp_scratch,
                z_per_path, rho, b, tp_solve,
            )
            np.multiply(b, inv_a, out=tp_solve)
            correction = self._path_to_demand.sum(tp_solve)
            correction /= correction_denom
            np.take(correction, s.path_demand, axis=1, out=tp_solve)
            admm_f_solve_into(b, inv_a_over_rho, tp_solve, f_solve)
            if mixed:
                np.copyto(F_flat, f_solve)  # store single precision

            # ---- z-update: per-edge rank-1 + identity system ------------
            np.subtract(c_norm, s3, out=te_buf)
            np.take(te_buf, s.pair_edge, axis=1, out=ti_buf)  # (c - s3) gather
            np.multiply(F_flat, d_p, out=tp_buf)
            np.take(tp_buf, s.pair_path, axis=1, out=flow_pairs)  # F*d gather
            np.take(lam3, s.pair_edge, axis=1, out=beta)  # lam3 gather
            admm_z_rhs_into(beta, lam4, ti_buf, flow_pairs, rho, beta)
            sum_beta = self._pair_to_edge.sum(beta, dtype=dtype)
            sum_beta /= one_plus_ppe
            np.take(sum_beta, s.pair_edge, axis=1, out=ti_buf)
            admm_z_solve_into(beta, ti_buf, rho, z)

            # ---- s-updates (non-negative slacks) -------------------------
            sum_F = self._path_to_demand.sum(F_flat, dtype=dtype)
            sum_z = self._pair_to_edge.sum(z, dtype=dtype)
            admm_slack_into(1.0, sum_F, lam1, rho, s1, td_buf)
            admm_slack_into(c_norm, sum_z, lam3, rho, s3, te_buf)

            # ---- dual updates -------------------------------------------
            admm_dual_step_(lam1, sum_F, s1, 1.0, rho, td_buf)
            admm_dual_step_(lam3, sum_z, s3, c_norm, rho, te_buf)
            np.multiply(F_flat, d_p, out=tp_buf)
            np.take(tp_buf, s.pair_path, axis=1, out=flow_pairs)
            np.subtract(flow_pairs, z, out=flow_pairs)
            flow_pairs *= rho
            lam4 += flow_pairs

        ratios = np.zeros_like(F)
        ratios[:, valid] = F_flat[:, self.pathset.demand_path_ids[valid]]
        return _project_ratios(ratios)

    def refine(
        self,
        objective,
        split_ratios: np.ndarray,
        demands: np.ndarray,
        capacities: np.ndarray | None = None,
        iterations: int | None = None,
    ) -> np.ndarray:
        """Fine-tune a (T, D, k) stack and keep only the rows that improve.

        The deployment acceptance rule (§3.4): ADMM is a fine-tuner, so
        each matrix keeps whichever of the tuned and input ratios scores
        higher on ``objective``, ties going to the tuned ones. Raw ADMM
        iterates can transiently regress at low iteration counts; this
        check keeps the deployed allocation monotone. Both Teal's
        pipeline and the streaming engine's warm decisions apply it.

        Args:
            objective: The :class:`~repro.lp.objectives.Objective` scoring
                both candidates (through the float64 evaluator).
            split_ratios: (T, D, k) input ratios (model output or the
                previous decision).
            demands: (T, D) demand volumes.
            capacities: (E,) shared or (T, E) per-matrix capacities.
            iterations: Override the configured iteration count.

        Returns:
            (T, D, k) ratios: per row, the tuned or the input ratios.
        """
        tuned = self.fine_tune_batch(
            split_ratios, demands, capacities, iterations=iterations
        )
        # Tuned first, then the input: the order the perf trace pairs
        # the two reward passes in.
        tuned_rewards = objective.reward_batch(
            self.pathset, tuned, demands, capacities
        )
        input_rewards = objective.reward_batch(
            self.pathset, split_ratios, demands, capacities
        )
        accept = tuned_rewards >= input_rewards
        return np.where(accept[:, None, None], tuned, split_ratios)

    def constraint_violation(
        self,
        split_ratios: np.ndarray,
        demands: np.ndarray,
        capacities: np.ndarray | None = None,
    ) -> float:
        """Total capacity overshoot of an allocation (diagnostic)."""
        if capacities is None:
            capacities = self.pathset.topology.capacities
        flows = self.pathset.split_ratios_to_path_flows(
            np.clip(split_ratios, 0.0, 1.0),
            np.asarray(demands, EVALUATION_DTYPE),
        )
        loads = self.pathset.edge_loads(flows)
        return float(np.maximum(loads - capacities, 0.0).sum())
