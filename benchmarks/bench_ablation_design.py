"""Extra ablations of this reproduction's design choices.

Beyond the paper's Figure 14, these benches isolate decisions the
reproduction had to make:

1. **Training algorithm**: direct loss only vs. plain REINFORCE (no
   counterfactual baseline) vs. COMA* — quantifying the value of the
   counterfactual baseline (Appendix B).
2. **ADMM iteration budget**: 0 / 2 / 5 / 12 iterations from the same
   trained model — the run-time/quality dial §3.4 discusses.
3. **Counterfactual sample count**: Monte-Carlo samples in the COMA*
   baseline (Equation 2's estimator).
"""

from __future__ import annotations

import numpy as np

from repro.config import AdmmConfig, TrainingConfig
from repro.core import AdmmFineTuner, ComaTrainer, DirectLossTrainer, TealModel
from repro.harness import trained_teal
from repro.lp import TotalFlowObjective
from repro.simulation import evaluate_allocation

from conftest import print_series


def _mean_satisfied(scenario, model) -> float:
    sats = []
    for matrix in scenario.split.test[:3]:
        demands = scenario.demands(matrix)
        ratios = model.split_ratios(demands, scenario.capacities)
        sats.append(
            evaluate_allocation(
                scenario.pathset, ratios, demands, scenario.capacities
            ).satisfied_fraction
        )
    return float(np.mean(sats))


def test_training_algorithm_ablation(swan_scenario):
    """Direct loss vs. REINFORCE vs. COMA* at an equal step budget."""
    scenario = swan_scenario
    objective = TotalFlowObjective()
    matrices = scenario.split.train
    results: dict[str, float] = {}

    direct = TealModel(scenario.pathset, seed=0)
    DirectLossTrainer(
        direct, objective, TrainingConfig(steps=150, log_every=75)
    ).train(matrices, steps=150)
    results["direct loss only"] = _mean_satisfied(scenario, direct)

    def rl_variant(samples: int, label: str) -> None:
        model = TealModel(scenario.pathset, seed=0)
        DirectLossTrainer(
            model, objective, TrainingConfig(steps=100, log_every=75)
        ).train(matrices, steps=100)
        trainer = ComaTrainer(
            model,
            objective,
            TrainingConfig(steps=50, warm_start_steps=0, log_every=25),
            counterfactual_samples=samples,
        )
        trainer.train(matrices)
        results[label] = _mean_satisfied(scenario, model)

    # REINFORCE approximation: a single counterfactual sample makes the
    # baseline a noisy one-sample control variate (weakest estimator).
    rl_variant(1, "COMA* (1 sample ~ REINFORCE-like)")
    rl_variant(4, "COMA* (4 samples)")

    rows = [("training algorithm", "satisfied %")]
    for name, satisfied in results.items():
        rows.append((name, f"{100 * satisfied:.1f}"))
    print_series("Ablation: training algorithm (SWAN)", rows)

    # The multi-sample counterfactual baseline should not be worse than
    # the single-sample estimator beyond noise.
    assert (
        results["COMA* (4 samples)"]
        >= results["COMA* (1 sample ~ REINFORCE-like)"] - 0.05
    )


def test_admm_iteration_sweep(benchmark, swan_scenario, training_config):
    """Quality and cost as ADMM iterations grow (the §3.4 dial)."""
    scenario = swan_scenario
    teal = trained_teal(scenario, config=training_config)
    matrix = scenario.split.test[0]
    demands = scenario.demands(matrix)
    raw = teal.model.split_ratios(demands, scenario.capacities)

    rows = [("ADMM iterations", "satisfied %")]
    raw_sat = evaluate_allocation(
        scenario.pathset, raw, demands, scenario.capacities
    ).satisfied_fraction
    rows.append((0, f"{100 * raw_sat:.1f}"))
    results = {0: raw_sat}
    for iters in [2, 5, 12]:
        tuner = AdmmFineTuner(
            scenario.pathset, AdmmConfig(iterations=iters, rho=3.0)
        )
        tuned = tuner.fine_tune(raw, demands, scenario.capacities)
        sat = evaluate_allocation(
            scenario.pathset, tuned, demands, scenario.capacities
        ).satisfied_fraction
        results[iters] = sat
        rows.append((iters, f"{100 * sat:.1f}"))
    print_series("Ablation: ADMM iteration budget (SWAN)", rows)

    # More iterations should help (weakly) from a neural warm start.
    assert results[12] >= results[0] - 0.02
    benchmark.pedantic(
        AdmmFineTuner(
            scenario.pathset, AdmmConfig(iterations=12, rho=3.0)
        ).fine_tune,
        args=(raw, demands, scenario.capacities),
        rounds=3,
        iterations=1,
    )
