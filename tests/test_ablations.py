"""Tests for the Figure 14 ablation model variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TealHyperparameters, TrainingConfig
from repro.core import (
    ComaTrainer,
    DirectLossTrainer,
    GlobalPolicyModel,
    NaiveDnnModel,
    NaiveGnnModel,
    TealModel,
)
from repro.core.ablations import GLOBAL_POLICY_PARAM_LIMIT
from repro.exceptions import ModelError
from repro.lp import TotalFlowObjective
from repro.paths import PathSet
from repro.topology import b4
from repro.traffic import TrafficTrace


@pytest.fixture(scope="module")
def setup():
    topo = b4(capacity=60.0)
    pathset = PathSet.from_topology(topo)
    trace = TrafficTrace.generate(12, 10, seed=4)
    return pathset, trace.matrices


@pytest.mark.parametrize(
    "factory",
    [NaiveDnnModel, NaiveGnnModel, GlobalPolicyModel],
    ids=["naive-dnn", "naive-gnn", "global-policy"],
)
class TestVariantInterface:
    def test_ratio_output_valid(self, setup, factory):
        pathset, matrices = setup
        model = factory(pathset, seed=0)
        demands = pathset.demand_volumes(matrices[0].values)
        ratios = model.split_ratios(demands)
        assert ratios.shape == (pathset.num_demands, 4)
        assert np.all(ratios >= 0)
        assert np.allclose(ratios.sum(axis=1), 1.0)

    def test_trainable_with_direct_loss(self, setup, factory):
        pathset, matrices = setup
        model = factory(pathset, seed=0)
        trainer = DirectLossTrainer(
            model,
            TotalFlowObjective(),
            TrainingConfig(steps=10, warm_start_steps=0, log_every=5),
        )
        history = trainer.train(matrices[:4])
        assert history.losses

    def test_trainable_with_coma(self, setup, factory):
        pathset, matrices = setup
        hyper = TealHyperparameters(counterfactual_samples=1)
        model = factory(pathset, hyper=hyper, seed=0)
        trainer = ComaTrainer(
            model,
            TotalFlowObjective(),
            TrainingConfig(steps=3, warm_start_steps=0, log_every=2),
        )
        history = trainer.train(matrices[:2])
        assert history.rewards


@pytest.mark.parametrize(
    "factory",
    [TealModel, NaiveDnnModel, NaiveGnnModel, GlobalPolicyModel],
    ids=["teal", "naive-dnn", "naive-gnn", "global-policy"],
)
class TestOneForward:
    """Every allocator implements one differentiable forward,
    ``logits_batch``; the per-matrix calls are batch-of-one wrappers."""

    @pytest.fixture()
    def stack(self, setup):
        """Three B4 matrices with per-row capacities; row 1 has four
        dead links."""
        pathset, matrices = setup
        demands = np.stack(
            [pathset.demand_volumes(m.values) for m in matrices[:3]]
        )
        num_edges = pathset.topology.num_edges
        rng = np.random.default_rng(23)
        caps = pathset.topology.capacities * (0.5 + rng.random((3, num_edges)))
        caps[1, rng.choice(num_edges, size=4, replace=False)] = 0.0
        return pathset, demands, caps

    def test_rows_are_independent(self, stack, factory):
        pathset, demands, caps = stack
        model = factory(pathset, seed=0)
        logits = model.logits_batch(demands, caps).numpy()
        assert logits.shape == (3, pathset.num_demands, pathset.max_paths)
        for t in range(3):
            alone = model.logits_batch(demands[t : t + 1], caps[t : t + 1])
            assert np.array_equal(logits[t], alone.numpy()[0])

    def test_per_matrix_calls_are_a_batch_of_one(self, stack, factory):
        pathset, demands, caps = stack
        model = factory(pathset, seed=0)
        shape = (pathset.num_demands, pathset.max_paths)
        for t in range(3):
            one = model.forward(demands[t], caps[t]).numpy()
            batch = model.forward_batch(demands[t][None], caps[t]).numpy()
            assert one.shape == shape
            assert np.array_equal(one, batch.reshape(shape))
            assert np.array_equal(model.split_ratios(demands[t], caps[t]), one)


class TestGlobalPolicyMemoryModel:
    def test_parameter_budget_enforced(self, setup):
        """The paper reports memory errors on ASN: we model this as a
        parameter-budget failure on large demand sets (§5.7)."""
        pathset, _ = setup
        needed = (
            pathset.num_demands * 4 * 6 * 256
            + 256 * pathset.num_demands * 4
        )
        if needed > GLOBAL_POLICY_PARAM_LIMIT:
            with pytest.raises(ModelError):
                GlobalPolicyModel(pathset, seed=0)
        else:
            GlobalPolicyModel(pathset, seed=0)  # fits on B4

    def test_global_policy_is_topology_size_coupled(self, setup):
        """The per-demand policy's parameter count is size-independent;
        the global policy's grows with the demand count (§3.3)."""
        pathset, _ = setup
        teal = TealModel(pathset, seed=0)
        global_model = GlobalPolicyModel(pathset, hidden=64, seed=0)
        teal_policy_params = sum(p.size for p in teal.policy.parameters())
        global_policy_params = sum(p.size for p in global_model.net.parameters())
        assert global_policy_params > teal_policy_params * 10


class TestVariantQuality:
    def test_flowgnn_beats_naive_dnn_after_training(self, setup):
        """The core Figure 14 claim at miniature scale: structure helps."""
        pathset, matrices = setup
        config = TrainingConfig(steps=0, warm_start_steps=120, log_every=60)
        objective = TotalFlowObjective()

        teal = TealModel(pathset, seed=0)
        DirectLossTrainer(teal, objective, config).train(matrices[:8])
        naive = NaiveDnnModel(pathset, seed=0)
        DirectLossTrainer(naive, objective, config).train(matrices[:8])

        demands = pathset.demand_volumes(matrices[9].values)
        teal_value = objective.evaluate(
            pathset, teal.split_ratios(demands), demands
        )
        naive_value = objective.evaluate(
            pathset, naive.split_ratios(demands), demands
        )
        # Allow slack: at this scale the gap is small but FlowGNN should
        # never be meaningfully worse.
        assert teal_value >= naive_value * 0.9
