"""Figure 14: ablation study of Teal's key components (§5.7).

Variants evaluated on the SWAN scenario (the paper uses SWAN and ASN;
the global policy is infeasible at ASN scale by design):

- Teal (full)            — FlowGNN + COMA* + ADMM
- Teal w/o ADMM          — raw model output
- Teal w/ direct loss    — surrogate-loss training instead of COMA*
- Teal w/ global policy  — one monolithic policy over all demands
- Teal w/ naive GNN      — site-level GNN instead of FlowGNN
- Teal w/ naive DNN      — fully-connected net on the demand vector

Plus the §3.4 sanity check that ADMM *alone* (cold start) cannot match
the warm-started pipeline within its iteration budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AdmmConfig, TrainingConfig
from repro.core import (
    AdmmFineTuner,
    ComaTrainer,
    DirectLossTrainer,
    GlobalPolicyModel,
    NaiveDnnModel,
    NaiveGnnModel,
)
from repro.harness import run_offline_comparison, trained_teal
from repro.lp import TotalFlowObjective
from repro.simulation import evaluate_allocation

from conftest import print_series


def _train_variant(model, matrices, steps_warm=180, steps_coma=30):
    objective = TotalFlowObjective()
    DirectLossTrainer(
        model, objective, TrainingConfig(steps=0, warm_start_steps=0, log_every=60)
    )
    warm = DirectLossTrainer(
        model, objective, TrainingConfig(steps=steps_warm, log_every=90)
    )
    warm.train(matrices, steps=steps_warm)
    if steps_coma:
        coma = ComaTrainer(
            model,
            objective,
            TrainingConfig(steps=steps_coma, log_every=30),
        )
        coma.train(matrices)
    return model


@pytest.fixture(scope="module")
def ablation_results(swan_scenario, training_config):
    scenario = swan_scenario
    matrices = scenario.split.train
    test = scenario.split.test[:4]
    results: dict[str, float] = {}

    teal = trained_teal(scenario, config=training_config)
    runs = run_offline_comparison(scenario, {"Teal": teal}, matrices=test)
    results["Teal"] = runs["Teal"].mean_satisfied

    def evaluate_model(model) -> float:
        sats = []
        for matrix in test:
            demands = scenario.demands(matrix)
            ratios = model.split_ratios(demands, scenario.capacities)
            sats.append(
                evaluate_allocation(
                    scenario.pathset, ratios, demands, scenario.capacities
                ).satisfied_fraction
            )
        return float(np.mean(sats))

    results["Teal w/o ADMM"] = evaluate_model(teal.model)

    direct = trained_teal(
        scenario,
        config=TrainingConfig(steps=0, warm_start_steps=250, log_every=90),
        seed=1,
    )
    results["Teal w/ direct loss"] = evaluate_model(direct.model)

    global_model = _train_variant(
        GlobalPolicyModel(scenario.pathset, hidden=128, seed=0), matrices
    )
    results["Teal w/ global policy"] = evaluate_model(global_model)

    naive_gnn = _train_variant(NaiveGnnModel(scenario.pathset, seed=0), matrices)
    results["Teal w/ naive GNN"] = evaluate_model(naive_gnn)

    naive_dnn = _train_variant(NaiveDnnModel(scenario.pathset, seed=0), matrices)
    results["Teal w/ naive DNN"] = evaluate_model(naive_dnn)

    return results


def test_fig14_series(ablation_results):
    rows = [("variant", "satisfied %")]
    for name, satisfied in ablation_results.items():
        rows.append((name, f"{100 * satisfied:.1f}"))
    print_series("Figure 14: ablation study (SWAN scenario)", rows)

    full = ablation_results["Teal"]
    # Shape 1: full Teal is at least as good as dropping ADMM.
    assert full >= ablation_results["Teal w/o ADMM"] - 1e-9
    # Shape 2: full Teal beats or matches the architecture ablations.
    assert full >= ablation_results["Teal w/ naive DNN"] - 0.03
    assert full >= ablation_results["Teal w/ naive GNN"] - 0.03
    assert full >= ablation_results["Teal w/ global policy"] - 0.03


def test_cold_start_admm_insufficient(benchmark, swan_scenario):
    """§3.4: ADMM alone (random start, few iterations) is not enough."""
    scenario = swan_scenario
    demands = scenario.demands(scenario.split.test[0])
    rng = np.random.default_rng(0)
    random_ratios = rng.dirichlet(np.ones(4), size=scenario.pathset.num_demands)
    random_ratios = random_ratios * scenario.pathset.path_mask

    tuner = AdmmFineTuner(scenario.pathset, AdmmConfig(iterations=5, rho=3.0))
    tuned = benchmark.pedantic(
        tuner.fine_tune,
        args=(random_ratios, demands, scenario.capacities),
        rounds=3,
        iterations=1,
    )
    cold = evaluate_allocation(
        scenario.pathset, tuned, demands, scenario.capacities
    ).satisfied_fraction

    teal = trained_teal(scenario)
    warm_alloc = teal.allocate(scenario.pathset, demands)
    warm = evaluate_allocation(
        scenario.pathset, warm_alloc.split_ratios, demands, scenario.capacities
    ).satisfied_fraction
    print(f"\ncold-start ADMM: {100 * cold:.1f}% vs warm pipeline {100 * warm:.1f}%")
    assert warm >= cold - 0.02
