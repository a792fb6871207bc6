"""Figure 15: sensitivity of Teal to its hyperparameters (§5.7).

Sweeps (on the SWAN scenario, with short training budgets):

- 15a: number of FlowGNN layers (4 / 6 / 8) — paper: gains saturate at 6.
- 15b: final embedding dimension. The paper grows the embedding by one
  element per layer, so the final dimension equals the layer count and
  15b reports 15a's runs, labelled by dimension.
- 15c: number of dense (hidden) layers in the policy net (1 / 2 / 4) —
  paper: little difference, the policy can stay lightweight.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TealHyperparameters, TrainingConfig
from repro.core import TealScheme
from repro.lp import TotalFlowObjective
from repro.simulation import evaluate_allocation

from conftest import print_series

_BUDGET = TrainingConfig(steps=20, warm_start_steps=200, log_every=60)


def _train_and_eval(scenario, **teal_kwargs) -> float:
    teal = TealScheme(scenario.pathset, objective=TotalFlowObjective(), **teal_kwargs)
    teal.train(scenario.split.train, config=_BUDGET)
    sats = []
    for matrix in scenario.split.test[:3]:
        demands = scenario.demands(matrix)
        allocation = teal.allocate(scenario.pathset, demands)
        sats.append(
            evaluate_allocation(
                scenario.pathset, allocation.split_ratios, demands
            ).satisfied_fraction
        )
    return float(np.mean(sats))


@pytest.fixture(scope="module")
def layer_sweep(swan_scenario):
    """Satisfied demand per FlowGNN depth (4 / 6 / 8), shared by 15a/15b."""
    return {
        layers: _train_and_eval(
            swan_scenario,
            hyper=TealHyperparameters(num_gnn_layers=layers),
            seed=0,
        )
        for layers in [4, 6, 8]
    }


def test_fig15a_gnn_layers(layer_sweep):
    results = layer_sweep
    rows = [("FlowGNN layers", "satisfied %")]
    for layers, sat in results.items():
        rows.append((layers, f"{100 * sat:.1f}"))
    print_series("Figure 15a: sensitivity to FlowGNN depth", rows)

    # Shape: 6 layers is not meaningfully worse than 8 (diminishing
    # returns beyond 6 — §5.7).
    assert results[6] >= results[8] - 0.05


def test_fig15b_embedding_dim(layer_sweep):
    # One element per layer: the final embedding dimension is the depth.
    results = dict(layer_sweep)
    rows = [("final embedding dim", "satisfied %")]
    for dim, sat in results.items():
        rows.append((dim, f"{100 * sat:.1f}"))
    print_series("Figure 15b: sensitivity to embedding dimension", rows)

    # Shape: larger embeddings give only marginal improvements (§5.7).
    assert results[6] >= max(results.values()) - 0.06


def test_fig15c_policy_layers(swan_scenario):
    results = {}
    for layers in [1, 2, 4]:
        results[layers] = _train_and_eval(
            swan_scenario, num_policy_layers=layers, seed=0
        )
    rows = [("policy hidden layers", "satisfied %")]
    for layers, sat in results.items():
        rows.append((layers, f"{100 * sat:.1f}"))
    print_series("Figure 15c: sensitivity to policy depth", rows)

    # Shape: little difference across policy depths (§5.7). The band is
    # wider than the paper's because deep policies converge slower under
    # a seconds-scale training budget.
    spread = max(results.values()) - min(results.values())
    assert spread < 0.2
