"""Tests for the ADMM fine-tuner (Appendix C)."""

from __future__ import annotations

import numpy as np
import pytest
from helpers import REFERENCE_TOL, naive_admm_batch
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AdmmConfig
from repro.core import AdmmFineTuner
from repro.exceptions import ModelError
from repro.lp import TotalFlowObjective, solve_te_lp


@pytest.fixture(scope="module")
def tuner(b4_pathset):
    return AdmmFineTuner(b4_pathset, AdmmConfig(iterations=10, rho=3.0))


class TestAdmmConfig:
    def test_paper_iteration_defaults(self):
        config = AdmmConfig()
        assert config.resolve_iterations(12) == 2  # <100 nodes
        assert config.resolve_iterations(754) == 5

    def test_explicit_override(self):
        assert AdmmConfig(iterations=7).resolve_iterations(12) == 7


class TestFineTune:
    def test_output_is_valid_ratio_matrix(self, tuner, b4_pathset, b4_demands):
        rng = np.random.default_rng(0)
        ratios = rng.uniform(0, 1, (b4_pathset.num_demands, 4))
        ratios /= ratios.sum(axis=1, keepdims=True)
        tuned = tuner.fine_tune(ratios, b4_demands)
        assert np.all(tuned >= -1e-12)
        assert np.all(tuned.sum(axis=1) <= 1.0 + 1e-9)

    def test_reduces_constraint_violation(self, tuner, b4_pathset, b4_trace):
        """ADMM's purpose: shrink capacity overshoot (§3.4)."""
        heavy = b4_pathset.demand_volumes(b4_trace[0].scaled(4.0).values)
        ratios = np.zeros((b4_pathset.num_demands, 4))
        ratios[:, 0] = 1.0  # everything on shortest paths: heavy overload
        before = tuner.constraint_violation(ratios, heavy)
        tuned = tuner.fine_tune(ratios, heavy)
        after = tuner.constraint_violation(tuned, heavy)
        assert after < before

    def test_optimal_point_is_first_iteration_fixed_point(
        self, b4_pathset, b4_demands
    ):
        """The dual warm start makes a feasible optimum a fixed point of
        the first ADMM iteration (see the lam1 initialization note)."""
        solution = solve_te_lp(b4_pathset, b4_demands, TotalFlowObjective())
        ratios = np.clip(
            b4_pathset.path_flows_to_split_ratios(solution.path_flows, b4_demands),
            0,
            1,
        )
        tuner = AdmmFineTuner(b4_pathset, AdmmConfig(iterations=1, rho=3.0))
        tuned = tuner.fine_tune(ratios, b4_demands)
        violation = tuner.constraint_violation(tuned, b4_demands)
        assert violation <= 1e-4 * b4_demands.sum()

    def test_fine_tune_improves_delivered_flow(self, b4_pathset, b4_trace):
        """Delivered (post-drop) flow improves from a lossy warm start."""
        from repro.simulation import evaluate_allocation

        heavy = b4_pathset.demand_volumes(b4_trace[0].scaled(3.0).values)
        rng = np.random.default_rng(2)
        ratios = rng.dirichlet(np.ones(4), size=b4_pathset.num_demands)
        ratios = ratios * b4_pathset.path_mask
        before = evaluate_allocation(
            b4_pathset, ratios, heavy
        ).delivered_total
        tuner = AdmmFineTuner(b4_pathset, AdmmConfig(iterations=5, rho=3.0))
        tuned = tuner.fine_tune(ratios, heavy)
        after = evaluate_allocation(b4_pathset, tuned, heavy).delivered_total
        assert after >= before * 0.98

    def test_zero_iterations_is_identity_up_to_clipping(
        self, b4_pathset, b4_demands
    ):
        tuner = AdmmFineTuner(b4_pathset, AdmmConfig(iterations=5))
        rng = np.random.default_rng(1)
        ratios = rng.uniform(0, 0.25, (b4_pathset.num_demands, 4))
        out = tuner.fine_tune(ratios, b4_demands, iterations=0)
        assert np.allclose(out, ratios)

    def test_handles_zero_demands(self, tuner, b4_pathset):
        ratios = np.full((b4_pathset.num_demands, 4), 0.25)
        tuned = tuner.fine_tune(ratios, np.zeros(b4_pathset.num_demands))
        assert np.all(np.isfinite(tuned))

    def test_handles_failed_links(self, tuner, b4_pathset, b4_demands):
        caps = b4_pathset.topology.capacities.copy()
        caps[:6] = 0.0
        ratios = np.full((b4_pathset.num_demands, 4), 0.25)
        tuned = tuner.fine_tune(ratios, b4_demands, caps)
        assert np.all(np.isfinite(tuned))

    def test_path_values_shape_check(self, b4_pathset):
        with pytest.raises(ModelError):
            AdmmFineTuner(b4_pathset, path_values=np.ones(3))

    @given(scale=st.floats(0.5, 8.0))
    @settings(max_examples=15, deadline=None)
    def test_violation_never_increases_much(
        self, b4_pathset, b4_demands, scale
    ):
        """Property: across demand scales, ADMM shrinks or holds violations."""
        tuner = AdmmFineTuner(b4_pathset, AdmmConfig(iterations=10, rho=3.0))
        ratios = np.zeros((b4_pathset.num_demands, 4))
        ratios[:, 0] = 1.0
        demands = b4_demands * scale
        before = tuner.constraint_violation(ratios, demands)
        after = tuner.constraint_violation(
            tuner.fine_tune(ratios, demands), demands
        )
        assert after <= before * 1.05 + 1e-6


class ScriptedObjective:
    """Objective double: returns scripted reward vectors in call order and
    records the ratio stacks it was asked to score."""

    def __init__(self, *rewards) -> None:
        self.rewards = list(rewards)
        self.scored: list[np.ndarray] = []

    def reward_batch(self, pathset, split_ratios, demands, capacities=None):
        self.scored.append(np.array(split_ratios, copy=True))
        return np.asarray(self.rewards[len(self.scored) - 1])


class TestCallCounts:
    """Structural pins of a decision's cost, free of timing noise."""

    def test_refine_runs_two_sparse_load_products(
        self, tuner, b4_pathset, b4_demands, monkeypatch
    ):
        from repro.paths import PathSet

        calls = []
        product = PathSet.edge_loads_batch

        def counted(self, path_flows):
            calls.append(path_flows.shape)
            return product(self, path_flows)

        monkeypatch.setattr(PathSet, "edge_loads_batch", counted)
        ratios = np.full((1, b4_pathset.num_demands, 4), 0.25)
        tuner.refine(TotalFlowObjective(), ratios, b4_demands[None])
        # One pre-reconciliation load product per candidate (tuned,
        # input); rewards skip the post-reconciliation loads.
        assert len(calls) == 2

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_one_slack_and_one_dual_call_per_iteration(
        self, b4_pathset, b4_demands, monkeypatch, iterations
    ):
        from repro.core import admm

        calls = {"admm_slack_into": 0, "admm_dual_step_": 0}
        for name in calls:
            kernel = getattr(admm, name)

            def counted(*args, _name=name, _kernel=kernel, **kwargs):
                calls[_name] += 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(admm, name, counted)
        tuner = AdmmFineTuner(b4_pathset, AdmmConfig(iterations=iterations))
        ratios = np.full((2, b4_pathset.num_demands, 4), 0.25)
        tuner.fine_tune_batch(ratios, np.stack([b4_demands] * 2))
        # The demand and edge blocks share one stacked state.
        assert calls == dict.fromkeys(calls, iterations)


class TestRefine:
    @pytest.fixture()
    def stack(self, b4_pathset, b4_trace):
        rng = np.random.default_rng(4)
        ratios = rng.dirichlet(np.ones(4), size=(4, b4_pathset.num_demands))
        ratios = ratios * b4_pathset.path_mask
        demands = np.stack(
            [b4_pathset.demand_volumes(m.values) for m in b4_trace.matrices[:4]]
        )
        return ratios, demands

    def test_rows_are_tuned_or_input_exactly(self, tuner, b4_pathset, stack):
        ratios, demands = stack
        # Tuned rewards first, then the input's: rows 0 and 2 improve,
        # row 1 ties (kept tuned), row 3 regresses (rejected).
        objective = ScriptedObjective([2.0, 1.0, 3.0, 0.0], [1.0, 1.0, 2.0, 1.0])
        out = tuner.refine(objective, ratios, demands, iterations=3)
        tuned = tuner.fine_tune_batch(ratios, demands, iterations=3)
        assert np.array_equal(objective.scored[0], tuned)
        assert np.array_equal(objective.scored[1], ratios)
        for t in (0, 1, 2):
            assert np.array_equal(out[t], tuned[t])
        assert np.array_equal(out[3], ratios[3])

    def test_never_scores_below_input(self, tuner, b4_pathset, stack):
        ratios, demands = stack
        objective = TotalFlowObjective()
        out = tuner.refine(objective, ratios, demands * 3.0)
        assert np.all(
            objective.reward_batch(b4_pathset, out, demands * 3.0)
            >= objective.reward_batch(b4_pathset, ratios, demands * 3.0)
        )


# ----------------------------------------------------------------------
# Edge-space iterates vs the incidence-level reference loop
# (helpers.naive_admm_batch; tolerances in helpers.REFERENCE_TOL)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_stack(b4_pathset, b4_trace):
    """Model and Dirichlet warm starts over six B4 matrices, one of
    them all-zero demand."""
    from repro.core import TealModel

    demands = np.stack(
        [b4_pathset.demand_volumes(m.values) for m in b4_trace[:6]]
    )
    demands[2] = 0.0
    model_ratios = TealModel(b4_pathset, seed=1).split_ratios_batch(demands)
    rng = np.random.default_rng(9)
    random_ratios = (
        rng.dirichlet(np.ones(4), size=demands.shape) * b4_pathset.path_mask
    )
    return demands, (model_ratios, random_ratios)


def _capacity_stack(pathset, demands, failed):
    caps = np.tile(pathset.topology.capacities, (demands.shape[0], 1))
    if failed:
        caps[:, :6] = 0.0
    return caps


class TestEdgeSpaceMatchesReference:
    @pytest.mark.parametrize("iterations", [1, 12, 50])
    @pytest.mark.parametrize("failed", [False, True])
    def test_b4(self, b4_pathset, reference_stack, iterations, failed):
        demands, warm_starts = reference_stack
        caps = _capacity_stack(b4_pathset, demands, failed)
        tuner = AdmmFineTuner(
            b4_pathset, AdmmConfig(iterations=iterations, rho=3.0)
        )
        for ratios in warm_starts:
            tuned = tuner.fine_tune_batch(ratios, demands, caps)
            reference = naive_admm_batch(tuner, ratios, demands, caps)
            gap = np.abs(tuned - reference).max()
            assert gap <= REFERENCE_TOL[iterations], gap

    @given(
        num_nodes=st.integers(6, 15),
        seed=st.integers(0, 2**16),
        log_scale=st.floats(-1.0, 3.0),
        dead_links=st.integers(0, 2),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_topology(self, num_nodes, seed, log_scale, dead_links):
        from repro.core import TealModel
        from repro.paths import PathSet
        from repro.topology.failures import sample_link_failures
        from repro.topology.generators import swan
        from repro.traffic import TrafficTrace

        topology = swan(num_nodes=num_nodes, seed=seed)
        pathset = PathSet.from_topology(topology)
        matrix = TrafficTrace.generate(num_nodes, 1, seed=seed)[0]
        demands = pathset.demand_volumes(matrix.values)[None] * 10.0**log_scale
        caps = topology.capacities.copy()
        caps[sample_link_failures(topology, dead_links, seed=seed)] = 0.0
        ratios = TealModel(pathset, seed=0).split_ratios_batch(demands)
        tuner = AdmmFineTuner(pathset, AdmmConfig(iterations=12))
        gap = np.abs(
            tuner.fine_tune_batch(ratios, demands, caps)
            - naive_admm_batch(tuner, ratios, demands, caps)
        ).max()
        assert gap <= REFERENCE_TOL[12], gap

    @pytest.mark.parametrize("iterations", [2, 12])
    @pytest.mark.parametrize("failed", [False, True])
    def test_refine_accepts_the_same_rows(
        self, b4_pathset, reference_stack, iterations, failed
    ):
        demands, warm_starts = reference_stack
        caps = _capacity_stack(b4_pathset, demands, failed)
        objective = TotalFlowObjective()
        tuner = AdmmFineTuner(
            b4_pathset, AdmmConfig(iterations=iterations, rho=3.0)
        )
        for ratios in warm_starts:
            scored = objective.reward_batch(b4_pathset, ratios, demands, caps)
            tuned = tuner.fine_tune_batch(ratios, demands, caps)
            reference = naive_admm_batch(tuner, ratios, demands, caps)
            accept = (
                objective.reward_batch(b4_pathset, tuned, demands, caps)
                >= scored
            )
            expected = (
                objective.reward_batch(b4_pathset, reference, demands, caps)
                >= scored
            )
            assert np.array_equal(accept, expected)
            refined = tuner.refine(objective, ratios, demands, caps)
            assert np.array_equal(
                refined, np.where(accept[:, None, None], tuned, ratios)
            )

    def test_rows_do_not_depend_on_stack_size(
        self, b4_pathset, reference_stack
    ):
        demands, (ratios, _) = reference_stack
        caps = _capacity_stack(b4_pathset, demands, True)
        tuner = AdmmFineTuner(b4_pathset, AdmmConfig(iterations=12))
        stacked = tuner.fine_tune_batch(ratios, demands, caps)
        halves = [
            tuner.fine_tune_batch(ratios[s], demands[s], caps[s])
            for s in (slice(0, 3), slice(3, 6))
        ]
        assert np.array_equal(stacked, np.concatenate(halves))
        for t in range(demands.shape[0]):
            single = tuner.fine_tune(ratios[t], demands[t], caps[t])
            assert np.array_equal(stacked[t], single)
