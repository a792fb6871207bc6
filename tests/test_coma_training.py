"""Tests for COMA* training, the reward model, and direct-loss training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.core import (
    ComaTrainer,
    DecomposableReward,
    DirectLossTrainer,
    TealModel,
    masked_softmax_np,
)
from repro.exceptions import TrainingError
from repro.lp import MinMaxLinkUtilizationObjective, TotalFlowObjective
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
        values = reward.demand_values(
            flows, flows, pathset.topology.capacities
        )
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
        base_flows = pathset.split_ratios_to_path_flows(base, demands)
        alt_flows = pathset.split_ratios_to_path_flows(alt, demands)
        approx = reward.demand_values(
            base_flows, alt_flows, pathset.topology.capacities
        )
        exact = reward.exact_demand_values(
            base, alt, demands, pathset.topology.capacities
        )
        base_values = reward.demand_values(
            base_flows, base_flows, pathset.topology.capacities
        )
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
        flows = pathset.split_ratios_to_path_flows(ratios, demands)
        values = reward.demand_values(flows, flows, pathset.topology.capacities)
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
        model = TealModel(pathset, seed=0)
        with pytest.raises(TrainingError):
            ComaTrainer(model, counterfactual_samples=0)

    def test_exact_mode_runs(self, tight_b4):
        pathset, matrices = tight_b4
        model = TealModel(pathset, seed=0)
        trainer = ComaTrainer(
            model,
            TotalFlowObjective(),
            TrainingConfig(steps=2, warm_start_steps=0, log_every=1),
            counterfactual_samples=1,
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
