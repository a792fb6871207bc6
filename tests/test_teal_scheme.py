"""Integration tests for the end-to-end Teal scheme."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import LpAll
from repro.config import AdmmConfig, TrainingConfig
from repro.core import TealScheme
from repro.exceptions import ModelError
from repro.lp import (
    DelayPenalizedFlowObjective,
    MinMaxLinkUtilizationObjective,
    TotalFlowObjective,
)
from repro.paths import PathSet
from repro.simulation import evaluate_allocation
from repro.topology import b4
from repro.traffic import TrafficTrace


@pytest.fixture(scope="module")
def trained_setup():
    """A Teal scheme trained briefly on a tight B4 instance."""
    topo = b4(capacity=80.0)
    pathset = PathSet.from_topology(topo)
    trace = TrafficTrace.generate(12, 20, seed=9)
    teal = TealScheme(pathset, seed=0)
    teal.train(
        trace.matrices[:14],
        config=TrainingConfig(steps=30, warm_start_steps=120, log_every=30),
    )
    return pathset, trace, teal


class TestTrainingPipeline:
    def test_histories_returned(self, trained_setup):
        pathset, trace, teal = trained_setup
        assert teal.trained

    def test_near_lp_quality_after_training(self, trained_setup):
        pathset, trace, teal = trained_setup
        demands = pathset.demand_volumes(trace[15].values)
        teal_alloc = teal.allocate(pathset, demands)
        lp_alloc = LpAll().allocate(pathset, demands)
        teal_sat = evaluate_allocation(
            pathset, teal_alloc.split_ratios, demands
        ).satisfied_fraction
        lp_sat = evaluate_allocation(
            pathset, lp_alloc.split_ratios, demands
        ).satisfied_fraction
        # Near-optimal at small scale: within 15 points of LP-all after a
        # seconds-long training budget (the paper trains for a week).
        assert teal_sat >= lp_sat - 0.15

    def test_inference_faster_than_lp(self, trained_setup):
        pathset, trace, teal = trained_setup
        demands = pathset.demand_volumes(trace[15].values)
        teal_alloc = teal.allocate(pathset, demands)
        lp_alloc = LpAll().allocate(pathset, demands)
        assert teal_alloc.compute_time < lp_alloc.compute_time


class TestAllocateBehaviour:
    def test_allocation_metadata(self, trained_setup):
        pathset, trace, teal = trained_setup
        demands = pathset.demand_volumes(trace[15].values)
        allocation = teal.allocate(pathset, demands)
        assert allocation.scheme == "Teal"
        assert allocation.extras["admm_iterations"] == 2  # B4 < 100 nodes
        assert allocation.extras["forward_time"] > 0

    def test_admm_never_hurts_objective(self, trained_setup):
        """The acceptance check keeps ADMM monotone (§3.4 claim)."""
        pathset, trace, teal = trained_setup
        objective = TotalFlowObjective()
        for matrix in trace.matrices[15:18]:
            demands = pathset.demand_volumes(matrix.values)
            with_admm = teal.allocate(pathset, demands)
            raw = teal.model.split_ratios(demands)
            v_admm = objective.evaluate(
                pathset, with_admm.split_ratios, demands
            )
            v_raw = objective.evaluate(pathset, raw, demands)
            assert v_admm >= v_raw - 1e-9

    def test_reacts_to_failures_without_retraining(self, trained_setup):
        """§5.3: failures only change capacities; the model still runs."""
        pathset, trace, teal = trained_setup
        demands = pathset.demand_volumes(trace[15].values)
        caps = pathset.topology.capacities.copy()
        caps[:4] = 0.0
        allocation = teal.allocate(pathset, demands, caps)
        report = evaluate_allocation(
            pathset, allocation.split_ratios, demands, caps
        )
        assert 0 < report.satisfied_fraction <= 1
        assert np.all(report.edge_loads[:4] <= 1e-9)

    def test_incompatible_pathset_rejected(self, trained_setup, small_swan_pathset):
        _, trace, teal = trained_setup
        demands = np.ones(small_swan_pathset.num_demands)
        with pytest.raises(ModelError):
            teal.allocate(small_swan_pathset, demands)


class TestObjectiveVariants:
    def test_mlu_scheme_skips_admm_by_default(self, b4_pathset):
        teal = TealScheme(b4_pathset, objective=MinMaxLinkUtilizationObjective())
        assert not teal.use_admm

    def test_delay_penalized_scheme_builds(self, b4_pathset):
        teal = TealScheme(
            b4_pathset, objective=DelayPenalizedFlowObjective(beta=0.5)
        )
        assert not teal.use_admm  # §5.5 omits ADMM off the default objective

    def test_total_flow_uses_admm(self, b4_pathset):
        teal = TealScheme(b4_pathset)
        assert teal.use_admm

    def test_explicit_admm_override(self, b4_pathset):
        teal = TealScheme(
            b4_pathset,
            objective=MinMaxLinkUtilizationObjective(),
            use_admm=True,
            admm=AdmmConfig(iterations=3),
        )
        assert teal.use_admm

    def test_mlu_training_runs(self, b4_pathset):
        """MLU trains with the p-norm warm start plus COMA* (§5.5)."""
        trace = TrafficTrace.generate(12, 6, seed=3)
        teal = TealScheme(
            b4_pathset, objective=MinMaxLinkUtilizationObjective(), seed=0
        )
        histories = teal.train(
            trace.matrices,
            config=TrainingConfig(steps=6, warm_start_steps=50, log_every=3),
        )
        assert "coma" in histories
        assert "warm_start" in histories


class TestInputValidation:
    """Regression: one bad demand or capacity used to spread NaN over
    every split ratio (through the capacity-mean input scale), or give
    silent garbage for negative volumes."""

    @pytest.mark.parametrize("entry", ["allocate", "allocate_batch"])
    @pytest.mark.parametrize(
        "name,value",
        [
            ("demands", np.nan),
            ("demands", np.inf),
            ("demands", -1.0),
            ("capacities", np.nan),
            ("capacities", np.inf),
            ("capacities", -1.0),
        ],
    )
    def test_rejects_bad_inputs(self, b4_pathset, b4_demands, entry, name, value):
        teal = TealScheme(b4_pathset, seed=0)
        inputs = {
            "demands": b4_demands.copy(),
            "capacities": b4_pathset.topology.capacities.copy(),
        }
        inputs[name][3] = value
        demands, caps = inputs["demands"], inputs["capacities"]
        if entry == "allocate_batch":
            demands, caps = np.stack([b4_demands, demands]), caps[None]
        reason = "non-finite" if not np.isfinite(value) else "negative"
        with pytest.raises(ModelError, match=f"{name}: {reason}"):
            getattr(teal, entry)(b4_pathset, demands, caps)
