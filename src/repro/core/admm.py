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
parallelism §3.4 highlights. The F >= 0 bound is enforced by projection
after each F-step (standard practice for box constraints in ADMM
fine-tuners).

**Edge-space form.** No iterate is stored per incidence. With
``load_e = sum_{p ∋ e} F_p d_p`` and ``m_e`` paths on edge ``e``, the
z-step and the G4 dual step leave, after every iteration,

    q_e    = -lam3_e + mu_e + rho (c_e - s3_e)
    sb_e   = (m_e q_e + rho load_e) / (1 + m_e)
    h_e    = (q_e - sb_e) / rho  =  (q_e / rho - load_e) / (1 + m_e)
    z_pe   = F_p d_p + h_e,        lam4_pe = mu_e,   mu <- mu - rho h

(warm start: ``h = mu = 0``). Substituting, the F-step's incidence terms
become ``d_p (rho hops_p F_p d_p + A^T (rho h - mu))``, with F from the
previous iteration, and
``sum_p z_pe = load_e + m_e h_e``, with ``A`` the (E, P) edge-path
incidence. An iteration therefore costs one ``A @ (F d)`` and one
``A^T @ (rho h - mu)`` sparse product plus vector math over paths,
edges and demands. Iterates are stored node-major, (N, T) for a stack
of T matrices, so each sparse product is one ``csr_matvecs`` call whose
per-element sums run in a fixed order whatever T is (see
:func:`~repro.core.batching.csr_matmul_into`).

**Stacked constraint state.** The demand (G1) and capacity (G3) blocks
obey the same slack and dual updates,

    s   = max(0, (bound - total) - lam / rho)
    lam = lam + rho (total + s - bound)

with ``total = sum_F`` and ``bound = 1`` for demands, ``total = sum_z``
and ``bound = c`` for edges. So both live in one (D + E, T) stack per
quantity — ``lam = [lam1; lam3]``, ``s = [s1; s3]``,
``total = [sum_F; sum_z]``, ``bound = [1; c]`` — and the named blocks
are row views of it. One ``admm_slack_into`` and one
``admm_dual_step_`` call update both blocks with the same per-element
expressions as two calls each. The three sparse operands (``A``,
``A^T`` = :attr:`PathSet.path_edge_incidence` and the (D, P)
demand-path matrix) are bound once per tuner
(:func:`~repro.core.batching.bind_csr`), and the (P, T) iterate is
entered and left by one gather and one scatter by
:attr:`PathSet.path_grid_index`. An iteration then makes four sparse
products (``A^T (rho h - mu)``, the demand sums of ``b / a`` and of
``F``, and ``A (F d)``), three row gathers by ``path_demand`` and 33
elementwise ufunc calls, with no pass over (P, T) arrays beyond the
updates themselves: at one matrix (a warm streaming decision) numpy's
per-call overhead is the cost, so the count is what matters.

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

import numpy as np
import scipy.sparse as sp

from ..config import AdmmConfig
from ..exceptions import ModelError
from ..nn.precision import EVALUATION_DTYPE, resolve_precision
from ..paths.pathset import PathSet
from ..topology.graph import broadcast_capacities
from .batching import (
    Workspace,
    admm_dual_step_,
    admm_f_rhs_into,
    admm_f_solve_into,
    admm_slack_into,
    bind_csr,
    csr_operand_matmul_into,
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
    ratios = ratios.clip(0.0, 1.0)
    sums = np.add.reduce(ratios, axis=-1, keepdims=True)
    return np.where(sums > 1.0, ratios / np.maximum(sums, _EPS), ratios)


class AdmmFineTuner:
    """Runs warm-started ADMM iterations on an allocation (§3.4).

    Args:
        pathset: The path set (fixes the constraint structure).
        config: Iteration count and penalty coefficient; the default picks
            the paper's 2 (<100 nodes) or 5 iterations automatically.
        path_values: Optional per-path per-unit-flow objective weights
            (1 for total flow; the delay-penalized weights otherwise).
        precision: dtype of the returned ratios (default float64). The
            iterates are O(P + E) per matrix and always float64, and the
            acceptance check scores candidates through the float64
            evaluator — see :mod:`repro.nn.precision`.
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
        if path_values is None:
            path_values = np.ones(pathset.num_paths)
        path_values = np.asarray(path_values, dtype=EVALUATION_DTYPE)
        if path_values.shape != (pathset.num_paths,):
            raise ModelError("path_values shape mismatch")
        self.path_values = path_values
        self.iterations = self.config.resolve_iterations(
            pathset.topology.num_nodes
        )
        # Static structure, node-major to match the (N, T) iterates: the
        # (E, P) incidence A (the path set's bound operand), its (P, E)
        # transpose, the (D, P) demand-path membership — each bound once
        # for the sparse products — and per-path/per-edge columns.
        incidence = pathset.edge_path_incidence
        self._incidence = pathset.incidence_operand
        self._incidence_t = bind_csr(pathset.path_edge_incidence)
        self._demand_paths = bind_csr(
            sp.csr_matrix(
                (
                    np.ones(pathset.num_paths, dtype=EVALUATION_DTYPE),
                    (pathset.path_demand, np.arange(pathset.num_paths)),
                ),
                shape=(pathset.num_demands, pathset.num_paths),
            )
        )
        hops = pathset.path_hop_counts.astype(EVALUATION_DTYPE)
        self._hops = hops[:, None]
        self._rho_hops = (self.config.rho * hops)[:, None]
        self._w_p = path_values[:, None]
        self._paths_per_edge = np.asarray(incidence.sum(axis=1))  # (E, 1)
        self._one_plus_ppe = 1.0 + self._paths_per_edge
        # Each demand's k path slots, padding pointing at row P (a zero
        # row appended by _demand_max).
        self._demand_slots = np.where(
            pathset.path_mask, pathset.demand_path_ids, pathset.num_paths
        )
        # Preallocated iterates and scratch (keyed by name; a sweep of
        # equal-sized stacks never re-allocates).
        self._workspace = Workspace()

    def _demand_max(self, x: np.ndarray) -> np.ndarray:
        """Per-demand max of a non-negative (P, T) stack over the demand's
        paths: (D, T), 0 for a demand without paths."""
        padded = np.concatenate([x, np.zeros_like(x[:1])])
        return np.maximum.reduce(padded.take(self._demand_slots, axis=0), axis=1)

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
        # One code path for both shapes: the batched fine-tuner on a
        # stack of one.
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
        (§3.4) makes each ADMM update flat vector math over the stack's
        columns. Every sum runs in a fixed order per element, so T
        matrices cost T times the arithmetic but a single pass of Python
        — and row ``t`` reproduces :meth:`fine_tune` on slice ``t``
        exactly.

        Args:
            split_ratios: (T, D, k) warm-start ratios (e.g. batched model
                output).
            demands: (T, D) demand volumes.
            capacities: (E,) shared or (T, E) per-matrix capacities;
                defaults to the topology's.
            iterations: Override the configured iteration count.

        Returns:
            (T, D, k) fine-tuned split ratios in the tuner's precision.
        """
        f64 = EVALUATION_DTYPE
        ps = self.pathset
        split_ratios = np.asarray(split_ratios, dtype=f64)
        demands = np.asarray(demands, dtype=f64)
        num_matrices = demands.shape[0]
        if capacities is None:
            capacities = ps.topology.capacities
        capacities = np.asarray(
            broadcast_capacities(np.asarray(capacities), num_matrices), dtype=f64
        )
        iters = self.iterations if iterations is None else int(iterations)
        if iters <= 0 or num_matrices == 0:
            return _project_ratios(split_ratios).astype(self.precision, copy=False)

        ws = self._workspace
        num_demands = ps.num_demands
        shape_p = (ps.num_paths, num_matrices)
        shape_e = (ps.topology.num_edges, num_matrices)
        shape_d = (num_demands, num_matrices)
        # The demand (G1) and capacity (G3) constraints share one stacked
        # (D + E, T) state: rows [:D] hold the demand block, rows [D:]
        # the edge block, so one slack and one dual call cover both.
        shape_s = (num_demands + ps.topology.num_edges, num_matrices)
        A, A_t, Dm = self._incidence, self._incidence_t, self._demand_paths
        path_demand = ps.path_demand

        # Per-matrix scale normalization (rho stays scale-free per TM),
        # computed row by row so a row's scale is independent of T.
        pos_mean = np.asarray(
            [
                np.add.reduce(pos) / pos.size if pos.size else 1.0
                for pos in (row[row > 0] for row in capacities)
            ]
        )
        scale = np.maximum(pos_mean, _EPS)[:, None]  # (T, 1)
        d_norm = np.ascontiguousarray((demands / scale).T)  # (D, T)
        bound = ws.buffer("bound", shape_s, f64)  # [1; c_norm]
        bound[:num_demands] = 1.0
        c_norm = bound[num_demands:]  # (E, T)
        np.divide(capacities.T, scale.T, out=c_norm)
        rho = self.config.rho

        d_p = d_norm.take(path_demand, axis=0)  # (P, T)
        dw = d_p * self._w_p  # the F-rhs's constant term
        a = np.maximum(d_p * d_p * self._hops, _EPS)
        inv_a = 1.0 / a
        inv_a_over_rho = inv_a / rho
        correction_denom = ws.buffer("correction_denom", shape_d, f64)
        csr_operand_matmul_into(Dm, inv_a, correction_denom)
        correction_denom += 1.0

        # Warm start (primal): F from the ratios by one gather of each
        # path's grid slot, z = F*d (h = 0).
        F = ws.buffer("F", shape_p, f64)
        F[...] = split_ratios.reshape(num_matrices, -1).take(
            ps.path_grid_index, axis=1
        ).T
        F.clip(0.0, 1.0, out=F)
        fd = ws.buffer("fd", shape_p, f64)  # F * d, the path flows
        np.multiply(F, d_p, out=fd)
        load = ws.buffer("load", shape_e, f64)  # A @ fd
        csr_operand_matmul_into(A, fd, load)
        total = ws.buffer("total", shape_s, f64)  # [sum_F; sum_z]
        sum_F, sum_z = total[:num_demands], total[num_demands:]
        csr_operand_matmul_into(Dm, F, sum_F)
        np.copyto(sum_z, load)
        s = ws.buffer("s", shape_s, f64)  # [s1; s3]
        s1, s3 = s[:num_demands], s[num_demands:]
        np.subtract(bound, total, out=s)
        np.maximum(s, 0.0, out=s)
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
                load / np.maximum(c_norm, _EPS),
                np.where(load > _EPS, np.inf, 0.0),
            )
        congestion_price = (warm_util > 1.0).astype(f64)
        b = ws.buffer("b", shape_p, f64)  # F-rhs; path_price at warm start
        csr_operand_matmul_into(A_t, congestion_price, b)
        reduced_value = np.maximum(0.0, self._w_p - b)
        lam = ws.buffer("lam", shape_s, f64)  # [lam1; lam3]
        lam1, lam3 = lam[:num_demands], lam[num_demands:]
        np.multiply(
            self._demand_max(d_p), self._demand_max(reduced_value), out=lam1
        )
        mu = ws.buffer("mu", shape_e, f64)  # lam4_pe = mu_e
        h = ws.buffer("h", shape_e, f64)  # z_pe = F_p d_p + h_e
        for buf in (lam3, mu, h):
            buf.fill(0.0)

        # Per-iteration scratch.
        tp = ws.buffer("tp", shape_p, f64)
        coupling = ws.buffer("coupling", shape_p, f64)
        lam1_g = ws.buffer("lam1_g", shape_p, f64)
        te = ws.buffer("te", shape_e, f64)
        td = ws.buffer("td", shape_d, f64)
        ts = ws.buffer("ts", shape_s, f64)
        rho_hops, one_plus_ppe = self._rho_hops, self._one_plus_ppe
        paths_per_edge = self._paths_per_edge
        # te carries rho*h from the end of one iteration into the next.
        np.multiply(h, rho, out=te)

        for _ in range(iters):
            # ---- F-update: per-demand rank-1 + diagonal system ---------
            # coupling = rho*hops*fd + A^T(rho*h - mu), the z/lam4 terms
            te -= mu
            csr_operand_matmul_into(A_t, te, coupling)
            np.multiply(fd, rho_hops, out=tp)
            coupling += tp
            lam1.take(path_demand, axis=0, out=lam1_g)
            s1.take(path_demand, axis=0, out=tp)
            admm_f_rhs_into(d_p, dw, lam1_g, tp, coupling, rho, b, tp)
            np.multiply(b, inv_a, out=tp)
            csr_operand_matmul_into(Dm, tp, td)
            td /= correction_denom
            td.take(path_demand, axis=0, out=tp)
            admm_f_solve_into(b, inv_a_over_rho, tp, F)

            # ---- z-update in edge space: h = (q/rho - load) / (1 + m) ---
            np.multiply(F, d_p, out=fd)
            csr_operand_matmul_into(A, fd, load)
            np.subtract(mu, lam3, out=h)
            h /= rho
            h += c_norm
            h -= s3
            h -= load
            h /= one_plus_ppe

            # ---- s-updates (non-negative slacks), both blocks at once ----
            csr_operand_matmul_into(Dm, F, sum_F)
            np.multiply(h, paths_per_edge, out=sum_z)
            sum_z += load
            admm_slack_into(bound, total, lam, rho, s, ts)

            # ---- dual updates -------------------------------------------
            admm_dual_step_(lam, total, s, bound, rho, ts)
            np.multiply(h, rho, out=te)
            mu -= te

        # Leave by one scatter into each path's grid slot.
        ratios = np.zeros_like(split_ratios, order="C")
        ratios.reshape(num_matrices, -1)[:, ps.path_grid_index] = F.T
        return _project_ratios(ratios).astype(self.precision, copy=False)

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
