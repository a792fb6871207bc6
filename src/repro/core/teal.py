"""Teal: the end-to-end learning-accelerated TE scheme (§3, §4).

Deployment pipeline (Figure 3): traffic demands + link capacities →
FlowGNN flow embeddings → shared policy network → split ratios → 2-5
ADMM iterations → final allocation. One fixed-size forward pass plus a
fixed number of ADMM iterations, which is why Teal's computation time is
flat across traffic matrices (Figure 7a).

Training recipe (this reproduction): optional direct-loss warm start
(fast convergence on the surrogate) followed by COMA* fine-tuning on the
true objective — mirroring the paper's offline training stage, scaled to
CPU budgets (see the scaling policy in :mod:`repro.harness`).
"""

from __future__ import annotations

import time

import numpy as np

from ..config import AdmmConfig, TealHyperparameters, TrainingConfig
from ..exceptions import ModelError
from ..lp.objectives import (
    MinMaxLinkUtilizationObjective,
    Objective,
    TotalFlowObjective,
)
from ..nn.precision import (
    EVALUATION_DTYPE,
    FLOAT64,
    Precision,
    resolve_precision,
)
from ..baselines.base import TEScheme
from ..paths.pathset import PathSet
from ..simulation.evaluator import Allocation
from ..traffic.matrix import TrafficMatrix
from .admm import AdmmFineTuner
from .coma import ComaTrainer, TrainingHistory
from .direct_loss import DirectLossTrainer
from .model import TealModel


def _check_finite_nonnegative(name: str, values: np.ndarray) -> None:
    """Raise a :class:`ModelError` naming ``name`` unless every value is
    finite and non-negative."""
    if not np.isfinite(values).all():
        reason = "non-finite values"
    elif (values < 0).any():
        reason = "negative values"
    else:
        return
    raise ModelError(f"{name}: {reason}")


class TealScheme(TEScheme):
    """Teal as a drop-in TE scheme (same interface as the baselines).

    Args:
        pathset: Path set the model is built around (fixed per topology).
        objective: TE objective; the reward for RL and the ADMM linear term.
        hyper: Architecture hyperparameters (defaults: §4).
        admm: ADMM configuration; per §5.5 ADMM is skipped for the MLU
            objective unless explicitly enabled.
        num_policy_layers: Policy hidden layers (Figure 15c).
        seed: Weight-init seed.
        use_admm: Force-enable/disable ADMM fine-tuning.
        precision: Inference precision policy (default float64; the
            harness and sweeps pass float32 — see
            :mod:`repro.nn.precision`). Training always runs float64;
            the model is cast to the inference precision lazily at the
            first ``allocate`` call, and the ADMM acceptance check
            scores both candidates through the float64 evaluator
            whatever the storage dtype.
    """

    name = "Teal"

    def __init__(
        self,
        pathset: PathSet,
        objective: Objective | None = None,
        hyper: TealHyperparameters | None = None,
        admm: AdmmConfig | None = None,
        num_policy_layers: int = 1,
        seed: int = 0,
        use_admm: bool | None = None,
        precision: Precision | str | None = None,
    ) -> None:
        super().__init__(objective)
        self.pathset = pathset
        self.precision = resolve_precision(precision)
        self.model = TealModel(
            pathset, hyper=hyper, num_policy_layers=num_policy_layers,
            seed=seed,
        )
        if use_admm is None:
            # §5.5: "we opt to omit ADMM in these [MLU / delay] experiments"
            # — the paper keeps ADMM only for the default total-flow runs.
            use_admm = isinstance(self.objective, TotalFlowObjective)
        self.use_admm = use_admm
        path_values = None
        if not isinstance(self.objective, MinMaxLinkUtilizationObjective):
            path_values = self.objective.path_values(pathset)
        self.admm = AdmmFineTuner(
            pathset, config=admm, path_values=path_values,
            precision=self.precision,
        )
        self.trained = False

    def _ensure_precision(self) -> None:
        """Cast the model to the inference precision (lazy, idempotent).

        Deferred to the first inference call so that training — and the
        harness' on-disk checkpointing, which stores full-precision
        weights — always sees the float64 model.
        """
        if self.model.dtype != self.precision.dtype:
            self.model.astype(self.precision.dtype)

    # ------------------------------------------------------------------
    # Training (offline stage)
    # ------------------------------------------------------------------
    def train(
        self,
        matrices: list[TrafficMatrix],
        capacities: np.ndarray | None = None,
        config: TrainingConfig | None = None,
    ) -> dict[str, TrainingHistory]:
        """Train the model: direct-loss warm start, then COMA* (§3.3).

        Args:
            matrices: Training traffic matrices.
            capacities: Link capacities during training.
            config: Budget/seed configuration.

        Returns:
            Histories keyed by phase (``"warm_start"``, ``"coma"``).
        """
        config = config if config is not None else TrainingConfig()
        # Training stays float64 whatever the inference precision: the
        # 6-layer gradient chain and Adam's moment accumulation are where
        # single precision actually loses accuracy (repro.nn.precision).
        self.model.astype(FLOAT64.dtype)
        histories: dict[str, TrainingHistory] = {}
        warm_steps = config.warm_start_steps
        if warm_steps > 0:
            # Flow objectives warm-start on the Appendix A surrogate;
            # min-MLU uses the p-norm smoothing (see core.direct_loss).
            warm = DirectLossTrainer(self.model, self.objective, config)
            histories["warm_start"] = warm.train(
                matrices, capacities, steps=warm_steps
            )
        if config.steps > 0:
            coma = ComaTrainer(self.model, self.objective, config)
            histories["coma"] = coma.train(matrices, capacities)
        self.trained = True
        return histories

    # ------------------------------------------------------------------
    # Inference (online stage)
    # ------------------------------------------------------------------
    def allocate(
        self,
        pathset: PathSet,
        demands: np.ndarray,
        capacities: np.ndarray | None = None,
    ) -> Allocation:
        """One TE control step: forward pass + ADMM fine-tuning, timed.

        The batch of one of :meth:`allocate_batch`. ``pathset`` must be
        the one the model was built on (Teal retrains for permanent
        topology changes, §4; transient failures enter via
        ``capacities``).

        Raises:
            ModelError: If ``demands`` is not a (D,) vector, or on any
                input :meth:`allocate_batch` rejects.
        """
        demands = np.asarray(demands, dtype=EVALUATION_DTYPE)
        if demands.shape != (pathset.num_demands,):
            raise ModelError("demands shape mismatch")
        return self.allocate_batch(pathset, demands[None], capacities)[0]

    def allocate_batch(
        self,
        pathset: PathSet,
        demands: np.ndarray,
        capacities: np.ndarray | None = None,
    ) -> list[Allocation]:
        """Allocate for a stack of traffic matrices in one batched forward.

        The FlowGNN + policy forward runs once over the whole (T, D)
        stack — the vectorized analogue of the paper's GPU batching — and
        its wall-clock cost is amortized equally across the matrices.
        Because the batched forward is math-bound (it costs roughly T
        single passes), the amortized figure tracks the per-TM inference
        latency, modestly lower by the amortized Python overhead — so
        downstream staleness and Fig 6a/7a-style comparisons keep per-TM
        semantics. ADMM fine-tuning (when enabled) is batched too: one
        :meth:`~repro.core.admm.AdmmFineTuner.refine` run repairs the
        whole stack and applies the per-matrix acceptance check.

        Args:
            pathset: Must match the model's pathset.
            demands: (T, D) demand volumes.
            capacities: (E,) shared, (T, E) per-matrix, or None.

        Returns:
            One :class:`Allocation` per matrix; row ``t`` equals
            :meth:`allocate` on slice ``t`` bit for bit.

        Raises:
            ModelError: On an incompatible pathset, mis-shaped inputs, or
                non-finite or negative demands or capacities.
        """
        self.model.check_compatible(pathset)
        self._ensure_precision()
        demands = np.asarray(demands, dtype=EVALUATION_DTYPE)
        num_matrices = demands.shape[0]
        caps = self._capacities_batch(pathset, num_matrices, capacities)
        # The capacity-mean input scale would spread one bad value over
        # every split ratio, so reject such inputs up front.
        _check_finite_nonnegative("demands", demands)
        _check_finite_nonnegative("capacities", caps)
        if num_matrices == 0:
            return []

        start = time.perf_counter()
        ratios_batch = self.model.split_ratios_batch(demands, caps)
        forward_time = (time.perf_counter() - start) / num_matrices

        admm_time = 0.0
        if self.use_admm:
            admm_start = time.perf_counter()
            ratios_batch = self.admm.refine(
                self.objective, ratios_batch, demands, caps
            )
            admm_time = (time.perf_counter() - admm_start) / num_matrices

        extras = {
            "forward_time": forward_time,
            "admm_time": admm_time,
            "admm_iterations": self.admm.iterations if self.use_admm else 0,
            "trained": self.trained,
        }
        return [
            Allocation(
                split_ratios=ratios_batch[t],
                compute_time=forward_time + admm_time,
                scheme=self.name,
                extras=dict(extras),
            )
            for t in range(num_matrices)
        ]

    def retrain_for(
        self,
        new_pathset: PathSet,
        matrices: list[TrafficMatrix],
        config: TrainingConfig | None = None,
        seed: int = 0,
    ) -> "TealScheme":
        """Retrain for a permanently changed topology, warm-started (§4).

        The paper retrains in 6-10 hours (vs ~a week from scratch) when a
        node or link is added permanently. Because no Teal weight's shape
        depends on the topology size, the old model warm-starts the new
        one directly; only fine-tuning on the new topology remains.

        Args:
            new_pathset: Path set of the updated topology.
            matrices: Training matrices sized for the new topology.
            config: Fine-tuning budget (typically much smaller than the
                from-scratch budget).
            seed: Seed for the new scheme's construction.

        Returns:
            A new trained :class:`TealScheme` bound to ``new_pathset``.
        """
        from .checkpoint import transfer_weights

        new_scheme = TealScheme(
            new_pathset,
            objective=self.objective,
            hyper=self.model.hyper,
            admm=self.admm.config,
            seed=seed,
            use_admm=self.use_admm,
            precision=self.precision,
        )
        # Warm-start from full-precision weights (the donor may have been
        # cast for inference; retraining always begins in float64).
        self.model.astype(FLOAT64.dtype)
        transfer_weights(self.model, new_scheme.model)
        if config is None:
            config = TrainingConfig(steps=20, warm_start_steps=60, log_every=20)
        new_scheme.train(matrices, config=config)
        return new_scheme
