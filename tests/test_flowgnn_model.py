"""Tests for FlowGNN, the policy network, and TealModel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ActionHead,
    FlowGNN,
    PolicyNetwork,
    TealModel,
)
from repro.exceptions import ModelError
from repro.nn import Tensor


class TestFlowGNN:
    def test_embedding_dim_equals_layers(self, b4_pathset):
        gnn = FlowGNN(b4_pathset, num_layers=6)
        assert gnn.embedding_dim == 6

    def test_forward_shapes(self, b4_pathset, b4_demands):
        gnn = FlowGNN(b4_pathset, num_layers=4)
        emb = gnn.forward_batch(b4_demands[None], b4_pathset.topology.capacities)
        assert emb.shape == (1, b4_pathset.num_paths, 4)

    def test_grouped_embeddings_shape(self, b4_pathset, b4_demands):
        gnn = FlowGNN(b4_pathset, num_layers=3)
        emb = gnn.forward_batch(b4_demands[None], b4_pathset.topology.capacities)
        grouped = gnn.grouped_embeddings(emb)
        assert grouped.shape == (1, b4_pathset.num_demands, 4 * 3)

    def test_embeddings_depend_on_demands(self, b4_pathset, b4_demands):
        gnn = FlowGNN(b4_pathset, num_layers=3)
        caps = b4_pathset.topology.capacities
        a = gnn.forward_batch(b4_demands[None], caps).numpy()
        b = gnn.forward_batch(b4_demands[None] * 2.0, caps).numpy()
        assert not np.allclose(a, b)

    def test_embeddings_depend_on_capacities(self, b4_pathset, b4_demands):
        gnn = FlowGNN(b4_pathset, num_layers=3)
        caps = b4_pathset.topology.capacities
        a = gnn.forward_batch(b4_demands[None], caps).numpy()
        failed = caps.copy()
        failed[:4] = 0.0
        b = gnn.forward_batch(b4_demands[None], failed).numpy()
        assert not np.allclose(a, b)

    def test_gradient_flows_to_all_layers(self, b4_pathset, b4_demands):
        gnn = FlowGNN(b4_pathset, num_layers=2)
        emb = gnn.forward_batch(b4_demands[None], b4_pathset.topology.capacities)
        emb.sum().backward()
        for p in gnn.parameters():
            assert p.grad is not None

    def test_invalid_layer_count(self, b4_pathset):
        with pytest.raises(ModelError):
            FlowGNN(b4_pathset, num_layers=0)

    def test_shape_validation(self, b4_pathset):
        gnn = FlowGNN(b4_pathset, num_layers=2)
        caps = b4_pathset.topology.capacities
        num_demands = b4_pathset.num_demands
        with pytest.raises(ModelError):
            gnn.forward_batch(np.ones((1, 3)), caps)
        with pytest.raises(ModelError):
            gnn.forward_batch(np.ones((1, num_demands)), np.ones(3))
        # A single (D,) matrix must be passed as a batch of one.
        with pytest.raises(ModelError):
            gnn.forward_batch(np.ones(num_demands), caps)


class TestPolicy:
    def test_logits_shape(self):
        policy = PolicyNetwork(input_dim=24, num_paths=4)
        out = policy(Tensor(np.zeros((7, 24))))
        assert out.shape == (7, 4)

    def test_split_ratios_masked(self):
        head = ActionHead(num_paths=4)
        logits = Tensor(np.zeros((2, 4)))
        mask = np.array([[True] * 4, [True, True, False, False]])
        ratios = head.split_ratios(logits, mask)
        assert np.allclose(ratios.data[0], 0.25)
        assert np.allclose(ratios.data[1], [0.5, 0.5, 0.0, 0.0])

    def test_sampling_uses_log_std(self):
        head = ActionHead(num_paths=4, action_log_std=-10.0)  # ~deterministic
        logits = Tensor(np.ones((5, 4)))
        rng = np.random.default_rng(0)
        actions = head.sample_actions(logits, rng)
        assert np.allclose(actions, 1.0, atol=1e-3)

    def test_log_prob_highest_at_mean(self):
        head = ActionHead(num_paths=2)
        logits = Tensor(np.zeros((1, 2)))
        at_mean = head.log_prob(logits, np.zeros((1, 2))).item()
        off_mean = head.log_prob(logits, np.ones((1, 2))).item()
        assert at_mean > off_mean

    def test_hidden_layer_validation(self):
        with pytest.raises(ModelError):
            PolicyNetwork(input_dim=24, num_paths=4, num_hidden_layers=0)


class TestTealModel:
    def test_ratio_rows_are_distributions(self, b4_pathset, b4_demands):
        model = TealModel(b4_pathset)
        ratios = model.split_ratios(b4_demands)
        assert ratios.shape == (b4_pathset.num_demands, 4)
        assert np.all(ratios >= 0)
        assert np.allclose(ratios.sum(axis=1), 1.0)

    def test_paper_hyperparameters(self, b4_pathset):
        model = TealModel(b4_pathset)
        assert model.flow_gnn.num_layers == 6
        assert model.flow_gnn.embedding_dim == 6
        # Policy input: 4 paths x 6-element embeddings (§4).
        assert model.policy.net.modules[0].in_features == 24

    def test_deterministic_given_seed(self, b4_pathset, b4_demands):
        a = TealModel(b4_pathset, seed=1).split_ratios(b4_demands)
        b = TealModel(b4_pathset, seed=1).split_ratios(b4_demands)
        assert np.allclose(a, b)
        c = TealModel(b4_pathset, seed=2).split_ratios(b4_demands)
        assert not np.allclose(a, c)

    def test_check_compatible(self, b4_pathset, small_swan_pathset):
        model = TealModel(b4_pathset)
        model.check_compatible(b4_pathset)
        with pytest.raises(ModelError):
            model.check_compatible(small_swan_pathset)

    def test_flow_embeddings_shape(self, b4_pathset, b4_demands):
        model = TealModel(b4_pathset)
        emb = model.flow_embeddings(b4_demands)
        assert emb.shape == (b4_pathset.num_paths, 6)

    def test_scatter_index_roundtrip(self, b4_pathset):
        scatter = b4_pathset.path_grid_index
        grid = b4_pathset.demand_path_ids.reshape(-1)
        assert np.array_equal(grid[scatter], np.arange(b4_pathset.num_paths))
        assert np.array_equal(
            np.sort(scatter), np.flatnonzero(b4_pathset.path_mask.reshape(-1))
        )

    def test_fixed_computation_independent_of_values(self, b4_pathset):
        """Flop count is input-independent — the basis of Figure 7a.

        We verify the weaker observable property: wildly different inputs
        produce outputs of identical shape through an identical graph.
        """
        model = TealModel(b4_pathset)
        tiny = model.split_ratios(np.full(b4_pathset.num_demands, 1e-6))
        huge = model.split_ratios(np.full(b4_pathset.num_demands, 1e6))
        assert tiny.shape == huge.shape
