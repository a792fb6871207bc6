"""Batched-vs-looped agreement for the training stack and ADMM, plus
regression tests for the training-loop correctness fixes.

Every batched path introduced by the batched-training PR must reproduce
its per-TM counterpart to 1e-8 (the ADMM tiling is bit-exact by
construction; the trainers go through the batched forward, which agrees
to float tolerance): direct-loss losses *and gradients*, the COMA*
advantage/per-step loss under fixed action samples, and
``fine_tune_batch`` against a ``fine_tune`` loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AdmmConfig, TrainingConfig
from repro.core import (
    AdmmFineTuner,
    ComaTrainer,
    DirectLossTrainer,
    SegmentOps,
    TealModel,
    TealScheme,
    masked_softmax_np,
    mlu_surrogate_loss,
    mlu_surrogate_loss_batch,
    model_path_flows_batch,
    surrogate_loss,
    surrogate_loss_batch,
)
from repro.core import coma as coma_module
from repro.core import direct_loss as direct_loss_module
from repro.core.coma import sample_training_capacities
from repro.exceptions import TrainingError
from repro.lp import MinMaxLinkUtilizationObjective, TotalFlowObjective
from repro.lp.objectives import DelayPenalizedFlowObjective
from repro.paths import PathSet
from repro.topology import b4
from repro.traffic import TrafficTrace

TOL = 1e-8


@pytest.fixture(scope="module")
def tight_b4():
    """B4 sized so capacity binds during training (shared with trainers)."""
    topo = b4(capacity=60.0)
    pathset = PathSet.from_topology(topo)
    trace = TrafficTrace.generate(12, 16, seed=5)
    return pathset, trace.matrices


@pytest.fixture(scope="module")
def stacked_inputs(tight_b4):
    """A (T,) stack of demands and per-matrix capacities."""
    pathset, matrices = tight_b4
    T = 5
    demands = np.stack(
        [pathset.demand_volumes(m.values) for m in matrices[:T]]
    )
    rng = np.random.default_rng(3)
    caps = pathset.topology.capacities * (
        0.5 + rng.random((T, pathset.topology.num_edges))
    )
    return demands, caps


class TestSegmentOps:
    def test_sum_matches_bincount_rows(self):
        rng = np.random.default_rng(0)
        index = rng.integers(0, 7, size=40)
        ops = SegmentOps(index, 7)
        weights = rng.normal(size=(3, 40))
        out = ops.sum(weights)
        for t in range(3):
            expected = np.bincount(index, weights=weights[t], minlength=7)
            assert np.array_equal(out[t], expected)

    def test_max_matches_scatter_rows(self):
        rng = np.random.default_rng(1)
        index = rng.integers(0, 5, size=30)
        ops = SegmentOps(index, 5)
        values = rng.random((4, 30))
        out = ops.max(values)
        for t in range(4):
            expected = np.zeros(5)
            np.maximum.at(expected, index, values[t])
            assert np.array_equal(out[t], expected)

    def test_empty_segments_keep_initial(self):
        ops = SegmentOps(np.array([0, 0, 2]), 4)
        out = ops.max(np.array([[1.0, 2.0, 3.0]]), initial=-1.0)
        assert np.array_equal(out[0], [2.0, -1.0, 3.0, -1.0])

    def test_tiled_index_cached(self):
        ops = SegmentOps(np.array([0, 1]), 2)
        assert ops.tiled_index(3) is ops.tiled_index(3)


class TestBatchedDirectLoss:
    def test_flow_surrogate_matches_per_tm_mean(self, tight_b4, stacked_inputs):
        pathset, _ = tight_b4
        demands, caps = stacked_inputs
        model = TealModel(pathset, seed=0)
        values = np.ones(pathset.num_paths)
        batched = surrogate_loss_batch(model, demands, caps, values)
        singles = [
            surrogate_loss(model, demands[t], caps[t], values).item()
            for t in range(demands.shape[0])
        ]
        assert batched.item() == pytest.approx(np.mean(singles), abs=TOL)

    def test_flow_surrogate_gradients_match(self, tight_b4, stacked_inputs):
        """Batched gradients equal the mean of the per-TM gradients."""
        pathset, _ = tight_b4
        demands, caps = stacked_inputs
        T = demands.shape[0]
        values = np.ones(pathset.num_paths)

        model = TealModel(pathset, seed=0)
        surrogate_loss_batch(model, demands, caps, values).backward()
        batched_grads = [
            None if p.grad is None else p.grad.copy() for p in model.parameters()
        ]

        for p in model.parameters():
            p.zero_grad()
        for t in range(T):
            (surrogate_loss(model, demands[t], caps[t], values) / T).backward()

        for p, batched in zip(model.parameters(), batched_grads):
            if batched is None:
                assert p.grad is None
            else:
                assert np.allclose(batched, p.grad, atol=TOL)

    def test_mlu_surrogate_matches_per_tm_mean(self, tight_b4, stacked_inputs):
        pathset, _ = tight_b4
        demands, caps = stacked_inputs
        model = TealModel(pathset, seed=1)
        batched = mlu_surrogate_loss_batch(model, demands, caps)
        singles = [
            mlu_surrogate_loss(model, demands[t], caps[t]).item()
            for t in range(demands.shape[0])
        ]
        assert batched.item() == pytest.approx(np.mean(singles), abs=TOL)

    def test_model_path_flows_batch_shape(self, tight_b4, stacked_inputs):
        pathset, _ = tight_b4
        demands, caps = stacked_inputs
        model = TealModel(pathset, seed=0)
        flows = model_path_flows_batch(model, demands, caps)
        assert flows.shape == (demands.shape[0], pathset.num_paths)

    def test_batched_training_runs_and_improves(self, tight_b4):
        pathset, matrices = tight_b4
        model = TealModel(pathset, seed=0)
        trainer = DirectLossTrainer(
            model,
            TotalFlowObjective(),
            TrainingConfig(
                steps=30, warm_start_steps=0, log_every=10, batch_matrices=4
            ),
        )
        history = trainer.train(matrices[:8])
        assert history.losses[-1] < history.losses[0]

    def test_invalid_batch_size(self, tight_b4):
        pathset, matrices = tight_b4
        trainer = DirectLossTrainer(TealModel(pathset, seed=0))
        with pytest.raises(TrainingError):
            trainer.train(matrices[:2], steps=1, batch_size=0)


class TestMluSurrogateStability:
    """Regression: the p=8 norm must not overflow on overloaded links."""

    def test_extreme_utilization_is_finite(self, tight_b4):
        pathset, matrices = tight_b4
        model = TealModel(pathset, seed=0)
        demands = pathset.demand_volumes(matrices[0].values)
        # Utilizations ~1e38: u^8 ~ 1e304+ overflows the naive p-norm.
        tiny_caps = np.full(pathset.topology.num_edges, 1e-36)
        loss = mlu_surrogate_loss(model, demands, tiny_caps)
        assert np.isfinite(loss.item())
        loss.backward()
        for p in model.parameters():
            if p.grad is not None:
                assert np.all(np.isfinite(p.grad))

    def test_factored_norm_matches_naive_in_safe_range(self, tight_b4):
        from repro.nn import Tensor
        from repro.nn import functional as F

        rng = np.random.default_rng(0)
        u = rng.random(40) * 2.0
        factored = F.p_norm(Tensor(u), 8.0).item()
        naive = float((np.sum(u ** 8.0) + 1e-12) ** (1.0 / 8.0))
        assert factored == pytest.approx(naive, rel=1e-9)

    def test_p_norm_gradient_is_true_p_norm_gradient(self):
        from repro.nn import Tensor
        from repro.nn import functional as F

        u = np.array([0.5, 1.2, 3.0, 0.1])
        x = Tensor(u, requires_grad=True)
        F.p_norm(x, 8.0).backward()
        norm = float(np.sum(u ** 8.0) ** (1.0 / 8.0))
        expected = (u / norm) ** 7.0
        assert np.allclose(x.grad, expected, atol=1e-9)


class TestBatchedComa:
    def test_advantages_match_per_tm_math(self, tight_b4, stacked_inputs):
        """Batched advantages equal the classic per-TM computation."""
        pathset, _ = tight_b4
        demands, caps = stacked_inputs
        T = demands.shape[0]
        samples = 3
        model = TealModel(pathset, seed=0)
        trainer = ComaTrainer(
            model,
            TotalFlowObjective(),
            TrainingConfig(steps=1, warm_start_steps=0),
            counterfactual_samples=samples,
        )
        rng = np.random.default_rng(11)
        logits = model.logits_batch(demands, caps)
        actions = model.policy.sample_actions(logits, rng)
        alts = np.stack(
            [model.policy.sample_actions(logits, rng) for _ in range(samples)]
        )
        batched = trainer.step_advantages(actions, alts, demands, caps)

        reward_model = trainer.reward_model
        mask = pathset.path_mask
        _EPS = 1e-12
        for t in range(T):
            ratios = masked_softmax_np(actions[t], mask)
            base_flows = pathset.split_ratios_to_path_flows(ratios, demands[t])
            base_loads = pathset.edge_loads(base_flows)
            base_own = reward_model._own_edge_load(base_flows)
            base_values = reward_model.demand_values(
                base_flows, base_flows, caps[t], base_loads, base_own
            )
            baseline = np.zeros(pathset.num_demands)
            for s in range(samples):
                alt_ratios = masked_softmax_np(alts[s, t], mask)
                alt_flows = pathset.split_ratios_to_path_flows(
                    alt_ratios, demands[t]
                )
                baseline += reward_model.demand_values(
                    base_flows, alt_flows, caps[t], base_loads, base_own
                )
            baseline /= samples
            advantage = base_values - baseline
            std = advantage.std()
            if std > _EPS:
                advantage = (advantage - advantage.mean()) / std
            assert np.allclose(batched[t], advantage, atol=TOL)

    def test_demand_values_batch_matches_loop(self, tight_b4, stacked_inputs):
        pathset, _ = tight_b4
        demands, caps = stacked_inputs
        reward = coma_module.DecomposableReward(pathset, TotalFlowObjective())
        rng = np.random.default_rng(2)
        base = masked_softmax_np(
            rng.normal(size=(demands.shape[0], pathset.num_demands, 4)),
            pathset.path_mask,
        )
        alt = masked_softmax_np(
            rng.normal(size=(demands.shape[0], pathset.num_demands, 4)),
            pathset.path_mask,
        )
        base_flows = pathset.split_ratios_to_path_flows_batch(base, demands)
        alt_flows = pathset.split_ratios_to_path_flows_batch(alt, demands)
        batched = reward.demand_values_batch(base_flows, alt_flows, caps)
        for t in range(demands.shape[0]):
            single = reward.demand_values(base_flows[t], alt_flows[t], caps[t])
            assert np.allclose(batched[t], single, atol=TOL)

    def test_demand_values_batch_mlu(self, tight_b4, stacked_inputs):
        pathset, _ = tight_b4
        demands, caps = stacked_inputs
        reward = coma_module.DecomposableReward(
            pathset, MinMaxLinkUtilizationObjective()
        )
        rng = np.random.default_rng(4)
        ratios = masked_softmax_np(
            rng.normal(size=(demands.shape[0], pathset.num_demands, 4)),
            pathset.path_mask,
        )
        flows = pathset.split_ratios_to_path_flows_batch(ratios, demands)
        batched = reward.demand_values_batch(flows, flows, caps)
        for t in range(demands.shape[0]):
            single = reward.demand_values(flows[t], flows[t], caps[t])
            assert np.allclose(batched[t], single, atol=TOL)

    def test_batch_of_one_reproduces_classic_training(self, tight_b4):
        """batch_size=1 consumes the same RNG stream -> identical history."""
        pathset, matrices = tight_b4
        config = TrainingConfig(steps=6, warm_start_steps=0, log_every=2, seed=7)
        h_default = ComaTrainer(
            TealModel(pathset, seed=0), TotalFlowObjective(), config
        ).train(matrices[:4])
        h_explicit = ComaTrainer(
            TealModel(pathset, seed=0), TotalFlowObjective(), config
        ).train(matrices[:4], batch_size=1)
        assert h_default.losses == h_explicit.losses
        assert h_default.rewards == h_explicit.rewards

    def test_batched_training_improves_reward(self, tight_b4):
        pathset, matrices = tight_b4
        trainer = ComaTrainer(
            TealModel(pathset, seed=0),
            TotalFlowObjective(),
            TrainingConfig(
                steps=12, warm_start_steps=0, log_every=4, seed=0,
                batch_matrices=4,
            ),
        )
        history = trainer.train(matrices[:8])
        assert history.rewards[-1] >= history.rewards[0] * 0.9

    def test_invalid_batch_size(self, tight_b4):
        pathset, matrices = tight_b4
        trainer = ComaTrainer(TealModel(pathset, seed=0))
        with pytest.raises(TrainingError):
            trainer.train(matrices[:2], steps=1, batch_size=0)


class TestLoggedRewardCapacities:
    """Regression: logged rewards score the failure-sampled capacities."""

    def _zero_caps(self, pathset, capacities, config, rng):
        return np.zeros_like(np.asarray(capacities, dtype=float))

    def test_coma_logs_under_step_capacities(self, tight_b4, monkeypatch):
        pathset, matrices = tight_b4
        monkeypatch.setattr(
            coma_module, "sample_training_capacities", self._zero_caps
        )
        trainer = ComaTrainer(
            TealModel(pathset, seed=0),
            TotalFlowObjective(),
            TrainingConfig(steps=2, warm_start_steps=0, log_every=1, seed=0),
        )
        history = trainer.train(matrices[:2])
        # All links failed in every step: the greedy allocation delivers
        # nothing under the capacities it was computed for. Before the
        # fix the log scored nominal capacities and reported > 0.
        assert all(r == 0.0 for r in history.rewards)

    def test_direct_loss_logs_under_step_capacities(self, tight_b4, monkeypatch):
        pathset, matrices = tight_b4
        monkeypatch.setattr(
            direct_loss_module, "sample_training_capacities", self._zero_caps
        )
        trainer = DirectLossTrainer(
            TealModel(pathset, seed=0),
            TotalFlowObjective(),
            TrainingConfig(steps=2, warm_start_steps=0, log_every=1, seed=0),
        )
        history = trainer.train(matrices[:2])
        assert all(r == 0.0 for r in history.rewards)


class TestSampleTrainingCapacitiesCopy:
    """Regression: the no-failure branch must not alias the input."""

    def test_no_failure_branch_copies(self, tight_b4):
        pathset, _ = tight_b4
        caps = pathset.topology.capacities.copy()
        config = TrainingConfig(failure_rate=0.0)
        out = sample_training_capacities(
            pathset, caps, config, np.random.default_rng(0)
        )
        assert out is not caps
        out[:] = -5.0
        assert np.all(caps > 0)


class TestBatchedAdmm:
    @pytest.fixture(scope="class")
    def tuner(self, tight_b4):
        pathset, _ = tight_b4
        return AdmmFineTuner(pathset, AdmmConfig(iterations=8, rho=3.0))

    @pytest.fixture(scope="class")
    def warm_ratios(self, tight_b4, stacked_inputs):
        pathset, _ = tight_b4
        demands, _ = stacked_inputs
        rng = np.random.default_rng(9)
        ratios = rng.dirichlet(np.ones(4), size=(demands.shape[0], pathset.num_demands))
        return ratios * pathset.path_mask

    def test_matches_per_tm_loop(self, tuner, stacked_inputs, warm_ratios):
        demands, caps = stacked_inputs
        batched = tuner.fine_tune_batch(warm_ratios, demands, caps)
        for t in range(demands.shape[0]):
            single = tuner.fine_tune(warm_ratios[t], demands[t], caps[t])
            assert np.abs(batched[t] - single).max() < TOL

    def test_matches_with_shared_capacities(self, tuner, stacked_inputs, warm_ratios):
        demands, _ = stacked_inputs
        batched = tuner.fine_tune_batch(warm_ratios, demands)
        for t in range(demands.shape[0]):
            single = tuner.fine_tune(warm_ratios[t], demands[t])
            assert np.allclose(batched[t], single, atol=TOL)

    def test_matches_with_failed_links(self, tuner, tight_b4, stacked_inputs, warm_ratios):
        pathset, _ = tight_b4
        demands, caps = stacked_inputs
        caps = caps.copy()
        caps[:, :6] = 0.0
        batched = tuner.fine_tune_batch(warm_ratios, demands, caps)
        for t in range(demands.shape[0]):
            single = tuner.fine_tune(warm_ratios[t], demands[t], caps[t])
            assert np.allclose(batched[t], single, atol=TOL)
        assert np.all(np.isfinite(batched))

    def test_zero_iterations_projects_batch(self, tuner, stacked_inputs):
        demands, caps = stacked_inputs
        rng = np.random.default_rng(1)
        ratios = rng.uniform(0, 0.8, size=(demands.shape[0], demands.shape[1], 4))
        out = tuner.fine_tune_batch(ratios, demands, caps, iterations=0)
        assert np.all(out.sum(axis=-1) <= 1.0 + 1e-9)

    def test_empty_batch(self, tuner, tight_b4):
        pathset, _ = tight_b4
        out = tuner.fine_tune_batch(
            np.zeros((0, pathset.num_demands, 4)),
            np.zeros((0, pathset.num_demands)),
        )
        assert out.shape == (0, pathset.num_demands, 4)


class TestAdmmZeroIterationExit:
    """Regression: iterations<=0 applies the same simplex renormalization
    as the full path (it used to return clipped-only ratios whose rows
    could sum past 1)."""

    def test_oversubscribed_rows_renormalized(self, tight_b4):
        pathset, _ = tight_b4
        tuner = AdmmFineTuner(pathset, AdmmConfig(iterations=5))
        ratios = np.full((pathset.num_demands, 4), 0.4)  # rows sum to 1.6
        out = tuner.fine_tune(
            ratios, np.ones(pathset.num_demands), iterations=0
        )
        assert np.all(out.sum(axis=1) <= 1.0 + 1e-9)

    def test_feasible_rows_untouched(self, tight_b4):
        pathset, _ = tight_b4
        tuner = AdmmFineTuner(pathset, AdmmConfig(iterations=5))
        rng = np.random.default_rng(1)
        ratios = rng.uniform(0, 0.2, (pathset.num_demands, 4))
        out = tuner.fine_tune(
            ratios, np.ones(pathset.num_demands), iterations=0
        )
        assert np.allclose(out, ratios)


class TestObjectiveRewardBatch:
    @pytest.mark.parametrize(
        "objective",
        [
            TotalFlowObjective(),
            MinMaxLinkUtilizationObjective(),
            DelayPenalizedFlowObjective(),
        ],
        ids=["total_flow", "min_mlu", "delay_penalized"],
    )
    def test_matches_per_tm_reward(self, tight_b4, stacked_inputs, objective):
        pathset, _ = tight_b4
        demands, caps = stacked_inputs
        rng = np.random.default_rng(6)
        ratios = masked_softmax_np(
            rng.normal(size=(demands.shape[0], pathset.num_demands, 4)),
            pathset.path_mask,
        )
        batched = objective.reward_batch(pathset, ratios, demands, caps)
        for t in range(demands.shape[0]):
            single = objective.reward(pathset, ratios[t], demands[t], caps[t])
            assert batched[t] == single

    @pytest.mark.parametrize(
        "objective",
        [
            TotalFlowObjective(),
            MinMaxLinkUtilizationObjective(),
            DelayPenalizedFlowObjective(),
        ],
        ids=["total_flow", "min_mlu", "delay_penalized"],
    )
    def test_rows_independent_of_stack_size_and_offset(
        self, tight_b4, objective
    ):
        """Regression: the delay objective's (T, P) @ (P,) product made a
        row's value depend on the stack size and the row's offset."""
        pathset, matrices = tight_b4
        T = 8
        demands = np.stack(
            [pathset.demand_volumes(m.values) for m in matrices[:T]]
        )
        rng = np.random.default_rng(9)
        ratios = masked_softmax_np(
            rng.normal(size=(T, pathset.num_demands, 4)), pathset.path_mask
        )
        single = [
            objective.evaluate(pathset, ratios[t], demands[t]) for t in range(T)
        ]
        for size in range(1, T + 1):
            for offset in range(T - size + 1):
                rows = slice(offset, offset + size)
                batched = objective.evaluate_batch(
                    pathset, ratios[rows], demands[rows]
                )
                assert batched.tolist() == single[rows]


class TestTealAllocateBatchWithAdmm:
    def test_matches_looped_allocate_per_matrix_caps(
        self, tight_b4, stacked_inputs
    ):
        """The batched ADMM tail reproduces the per-TM pipeline."""
        pathset, _ = tight_b4
        demands, caps = stacked_inputs
        teal = TealScheme(pathset, seed=5)  # total flow -> ADMM enabled
        assert teal.use_admm
        batched = teal.allocate_batch(pathset, demands, caps)
        for t, allocation in enumerate(batched):
            single = teal.allocate(pathset, demands[t], caps[t])
            assert np.allclose(
                allocation.split_ratios, single.split_ratios, atol=TOL
            )
            assert allocation.extras["admm_iterations"] > 0


class TestHarnessFailureSweep:
    @pytest.fixture(scope="class")
    def small_scenario(self):
        from repro.harness import build_scenario

        return build_scenario("B4", train=3, validation=1, test=3, seed=0)

    def test_matches_per_level_offline_comparison(self, small_scenario):
        """Each sweep level equals a per-TM allocate + evaluate loop exactly."""
        from repro.harness import run_failure_sweep
        from repro.simulation import evaluate_allocation

        teal = TealScheme(small_scenario.pathset, seed=0)
        caps0 = small_scenario.capacities.copy()
        caps1 = small_scenario.capacities.copy()
        caps1[:4] = 0.0
        sweep = run_failure_sweep(
            small_scenario, {"Teal": teal}, {0: caps0, 1: caps1}
        )
        for key, caps in ((0, caps0), (1, caps1)):
            reports = [
                evaluate_allocation(
                    small_scenario.pathset,
                    teal.allocate(small_scenario.pathset, demands, caps).split_ratios,
                    demands,
                    caps,
                )
                for demands in (
                    small_scenario.demands(m) for m in small_scenario.split.test
                )
            ]
            run = sweep[key]["Teal"]
            assert run.satisfied == [r.satisfied_fraction for r in reports]
            assert run.objective_values == [r.delivered_total for r in reports]

    def test_online_sweep_matches_per_case_runs(self, small_scenario):
        from repro.harness import run_online_comparison, run_online_failure_sweep

        from repro.simulation import EventSchedule

        teal = TealScheme(small_scenario.pathset, seed=0, use_admm=False)
        schemes = {"Teal": teal}
        mats = small_scenario.split.test
        cases = {"none": (None, ()), "hit": (1, (0, 1, 2, 3))}
        schedules = {
            key: EventSchedule.from_failure_case(
                mats, 1e9, failed_edges=edges, failure_at=failure_at
            )
            for key, (failure_at, edges) in cases.items()
        }
        sweep = run_online_failure_sweep(small_scenario, schemes, schedules)
        for key, (failure_at, edges) in cases.items():
            reference = run_online_comparison(
                small_scenario,
                schemes,
                interval_seconds=1e9,
                failure_at=failure_at,
                failed_edges=edges,
            )
            assert np.allclose(
                sweep[key]["Teal"].satisfied_series(),
                reference["Teal"].satisfied_series(),
                atol=TOL,
            )
