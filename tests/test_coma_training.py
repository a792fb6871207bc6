"""Tests for COMA* training, the reward model, and direct-loss training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TealHyperparameters, TrainingConfig
from repro.core import (
    ComaTrainer,
    DecomposableReward,
    DirectLossTrainer,
    TealModel,
    TealScheme,
    masked_softmax_np,
)
from repro.core.coma import _floor_dead_values
from repro.exceptions import TrainingError
from repro.lp import MinMaxLinkUtilizationObjective, TotalFlowObjective
from repro.lp.objectives import Objective
from repro.paths import PathSet
from repro.topology import b4
from repro.traffic import TrafficTrace


@pytest.fixture(scope="module")
def tight_b4():
    """B4 sized so capacity binds during training."""
    topo = b4(capacity=60.0)
    pathset = PathSet.from_topology(topo)
    trace = TrafficTrace.generate(12, 16, seed=5)
    matrices = trace.matrices
    return pathset, matrices


class TestMaskedSoftmax:
    def test_matches_tensor_version(self):
        from repro.nn import Tensor
        from repro.nn import functional as F

        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 4))
        mask = rng.random((6, 4)) > 0.3
        mask[:, 0] = True
        np_out = masked_softmax_np(logits, mask)
        tensor_out = F.softmax(Tensor(logits), mask=mask).numpy()
        assert np.allclose(np_out, tensor_out)


class TestDecomposableReward:
    def test_base_values_sum_to_joint_reward(self, tight_b4):
        """With candidate == base, per-demand values sum to the objective."""
        pathset, matrices = tight_b4
        objective = TotalFlowObjective()
        reward = DecomposableReward(pathset, objective)
        demands = pathset.demand_volumes(matrices[0].values)
        rng = np.random.default_rng(0)
        ratios = masked_softmax_np(
            rng.normal(size=(pathset.num_demands, 4)), pathset.path_mask
        )
        flows = pathset.split_ratios_to_path_flows(ratios, demands)
        values = reward.demand_values_batch(
            flows[None], flows[None], pathset.topology.capacities[None]
        )[0]
        joint = objective.evaluate(pathset, ratios, demands)
        assert values.sum() == pytest.approx(joint, rel=1e-9)

    def test_incremental_matches_exact_counterfactual(self, tight_b4):
        """Mean-field evaluation tracks full re-simulation."""
        pathset, matrices = tight_b4
        objective = TotalFlowObjective()
        reward = DecomposableReward(pathset, objective)
        demands = pathset.demand_volumes(matrices[0].values)
        rng = np.random.default_rng(1)
        base = masked_softmax_np(
            rng.normal(size=(pathset.num_demands, 4)), pathset.path_mask
        )
        alt = masked_softmax_np(
            rng.normal(size=(pathset.num_demands, 4)), pathset.path_mask
        )
        base_flows = pathset.split_ratios_to_path_flows(base, demands)[None]
        alt_flows = pathset.split_ratios_to_path_flows(alt, demands)[None]
        caps = pathset.topology.capacities
        approx = reward.demand_values_batch(base_flows, alt_flows, caps[None])[0]
        exact = reward.exact_demand_values(base, alt, demands, caps)
        base_values = reward.demand_values_batch(
            base_flows, base_flows, caps[None]
        )[0]
        joint = objective.evaluate(pathset, base, demands)
        # Advantage comparison: approx advantage vs exact advantage.
        approx_adv = base_values - approx
        exact_adv = joint - exact
        # Directionally consistent: strong positive rank correlation.
        order_a = np.argsort(approx_adv)
        order_e = np.argsort(exact_adv)
        rank_a = np.empty_like(order_a)
        rank_a[order_a] = np.arange(len(order_a))
        rank_e = np.empty_like(order_e)
        rank_e[order_e] = np.arange(len(order_e))
        corr = np.corrcoef(rank_a, rank_e)[0, 1]
        assert corr > 0.7

    def test_mlu_values_negative(self, tight_b4):
        pathset, matrices = tight_b4
        reward = DecomposableReward(pathset, MinMaxLinkUtilizationObjective())
        demands = pathset.demand_volumes(matrices[0].values)
        ratios = np.zeros((pathset.num_demands, 4))
        ratios[:, 0] = 1.0
        flows = pathset.split_ratios_to_path_flows(ratios, demands)[None]
        values = reward.demand_values_batch(
            flows, flows, pathset.topology.capacities[None]
        )
        assert np.all(values <= 0)


class TestComaTrainer:
    def test_training_improves_reward(self, tight_b4):
        pathset, matrices = tight_b4
        model = TealModel(pathset, seed=0)
        trainer = ComaTrainer(
            model,
            TotalFlowObjective(),
            TrainingConfig(steps=40, warm_start_steps=0, log_every=5, seed=0),
        )
        history = trainer.train(matrices[:8])
        assert history.rewards[-1] >= history.rewards[0] * 0.95
        assert len(history.steps) >= 2

    def test_empty_trace_raises(self, tight_b4):
        pathset, _ = tight_b4
        model = TealModel(pathset, seed=0)
        trainer = ComaTrainer(model)
        with pytest.raises(TrainingError):
            trainer.train([])

    def test_invalid_samples(self, tight_b4):
        pathset, _ = tight_b4
        hyper = TealHyperparameters(counterfactual_samples=0)
        model = TealModel(pathset, hyper=hyper, seed=0)
        with pytest.raises(TrainingError):
            ComaTrainer(model)

    def test_exact_mode_runs(self, tight_b4):
        pathset, matrices = tight_b4
        hyper = TealHyperparameters(counterfactual_samples=1)
        model = TealModel(pathset, hyper=hyper, seed=0)
        trainer = ComaTrainer(
            model,
            TotalFlowObjective(),
            TrainingConfig(steps=2, warm_start_steps=0, log_every=1),
            exact_counterfactual=True,
        )
        history = trainer.train(matrices[:2])
        assert len(history.rewards) >= 1

    def test_batched_demands(self, tight_b4):
        pathset, matrices = tight_b4
        model = TealModel(pathset, seed=0)
        trainer = ComaTrainer(
            model,
            TotalFlowObjective(),
            TrainingConfig(
                steps=4, warm_start_steps=0, batch_demands=16, log_every=2
            ),
        )
        history = trainer.train(matrices[:4])
        assert history.losses


class TestDeadLinkAdvantages:
    """Min-MLU values an agent that loads a failed link at ``-inf``."""

    def test_floor_keeps_advantages_finite_and_signed(self):
        inf = np.inf
        # Agents: 0 loads a dead link only in its sampled action, 1 never,
        # 2 in every sample (no alternative), 3 only in one counterfactual.
        base = np.array([[-inf, -0.5, -inf, -0.2]])
        samples = [
            np.array([[-0.3, -0.5, -inf, -inf]]),
            np.array([[-0.4, -0.5, -inf, -0.1]]),
        ]
        base, samples = _floor_dead_values(base, samples)
        advantage = base - sum(samples) / len(samples)
        assert np.isfinite(advantage).all()
        assert advantage[0, 0] < 0.0
        assert advantage[0, 1] == 0.0
        assert advantage[0, 2] == 0.0
        assert advantage[0, 3] > 0.0

    def test_rows_without_dead_links_pass_through(self):
        base = np.array([[-0.2, -0.3], [-np.inf, -0.1]])
        samples = [np.array([[-0.1, -0.4], [-0.2, -0.1]])]
        floored, floored_samples = _floor_dead_values(base, samples)
        assert np.array_equal(floored[0], base[0])
        assert np.array_equal(floored_samples[0], samples[0])
        # The floor sits one unit below the row's worst finite value.
        assert floored[1, 0] == -0.2 - 1.0

    def test_min_mlu_training_under_failures_stays_finite(
        self, b4_pathset, b4_trace
    ):
        """Regression: ``-inf - -inf`` advantages turned every weight NaN."""
        scheme = TealScheme(
            b4_pathset, MinMaxLinkUtilizationObjective(), use_admm=False
        )
        config = TrainingConfig(
            steps=6,
            warm_start_steps=2,
            batch_matrices=4,
            failure_rate=0.25,
            log_every=1,
        )
        histories = scheme.train(b4_trace.matrices[:8], config=config)
        for history in histories.values():
            assert np.isfinite(history.losses).all()
        for parameter in scheme.model.parameters():
            assert np.isfinite(parameter.data).all()


class TestDirectLossTrainer:
    def test_training_improves_satisfied(self, tight_b4):
        pathset, matrices = tight_b4
        model = TealModel(pathset, seed=0)
        trainer = DirectLossTrainer(
            model,
            TotalFlowObjective(),
            TrainingConfig(steps=120, warm_start_steps=0, log_every=20),
        )
        history = trainer.train(matrices[:8])
        assert history.satisfied[-1] > history.satisfied[0]

    def test_loss_decreases(self, tight_b4):
        pathset, matrices = tight_b4
        model = TealModel(pathset, seed=1)
        trainer = DirectLossTrainer(
            model,
            TotalFlowObjective(),
            TrainingConfig(steps=80, warm_start_steps=0, log_every=10),
        )
        history = trainer.train(matrices[:4])
        assert history.losses[-1] < history.losses[0]

    def test_mlu_uses_pnorm_surrogate(self, tight_b4):
        """MLU training minimizes the p-norm utilization surrogate."""
        pathset, matrices = tight_b4
        model = TealModel(pathset, seed=0)
        trainer = DirectLossTrainer(model, MinMaxLinkUtilizationObjective())
        assert trainer.is_mlu
        history = trainer.train(matrices[:4], steps=40)
        # The reward is -MLU: it should not get materially worse.
        assert history.rewards[-1] >= history.rewards[0] - 0.25

    def test_mlu_surrogate_decreases(self, tight_b4):
        pathset, matrices = tight_b4
        model = TealModel(pathset, seed=1)
        trainer = DirectLossTrainer(
            model,
            MinMaxLinkUtilizationObjective(),
            TrainingConfig(steps=60, warm_start_steps=0, log_every=10),
        )
        history = trainer.train(matrices[:4])
        assert history.losses[-1] <= history.losses[0]

    def test_empty_trace_raises(self, tight_b4):
        pathset, _ = tight_b4
        model = TealModel(pathset, seed=0)
        trainer = DirectLossTrainer(model)
        with pytest.raises(TrainingError):
            trainer.train([])

    def test_objective_without_path_values_raises(self, tight_b4):
        """An objective with no per-path values is a TrainingError."""

        class NoPathValues(TotalFlowObjective):
            name = "no_path_values"

            def path_values(self, pathset):
                return Objective.path_values(self, pathset)  # SolverError

        pathset, _ = tight_b4
        with pytest.raises(TrainingError, match="no_path_values"):
            DirectLossTrainer(TealModel(pathset, seed=0), NoPathValues())

    def test_other_path_values_errors_propagate(self, tight_b4):
        """Only the missing-values SolverError is translated."""

        class BrokenPathValues(TotalFlowObjective):
            def path_values(self, pathset):
                raise ValueError("broken path values")

        pathset, _ = tight_b4
        with pytest.raises(ValueError, match="broken path values"):
            DirectLossTrainer(TealModel(pathset, seed=0), BrokenPathValues())
