"""Direct loss minimization with surrogate objectives (§3.3, §5.7).

The total feasible flow is non-differentiable (dropping overloaded
traffic has zero gradient), so the paper defines a differentiable
surrogate (Appendix A):

    surrogate = sum_p f_p * w_p - sum_e max(0, load_e - capacity_e)

i.e. the intended (pre-drop) flow value minus the total link overuse.
Minimizing the negated surrogate through the model is "Teal w/ direct
loss" in Figure 14 — a few percent worse than COMA* because of the
approximation error — and also serves as a fast warm start before COMA*
fine-tuning in this reproduction's training recipe.

For the min-MLU objective (§5.5) the paper trains purely with RL; on
this reproduction's CPU training budgets we additionally provide the
standard p-norm smoothing of the max,

    surrogate_mlu = ( sum_e (load_e / capacity_e)^p )^(1/p),   p = 8

used only as a warm start before COMA* fine-tuning (a documented
reproduction addition — the paper's point that surrogates are
objective-specific design work stands). The p-norm is evaluated in the
overflow-safe factored form (see :func:`repro.nn.functional.p_norm`).

Both surrogates take a minibatch: a (T, D) demand stack and a (T, E)
capacity stack run through one ``forward_batch`` pass, and the loss is
the mean per-matrix loss, so one backward covers the whole minibatch. A
single matrix is the batch of one.
"""

from __future__ import annotations

import numpy as np

from ..config import TrainingConfig
from ..exceptions import SolverError, TrainingError
from ..lp.objectives import (
    MinMaxLinkUtilizationObjective,
    Objective,
    TotalFlowObjective,
)
from ..nn import functional as F
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from ..traffic.matrix import TrafficMatrix
from .coma import TrainingHistory, training_minibatches
from .model import AllocatorModel


def model_path_flows_batch(
    model: AllocatorModel, demands: np.ndarray, capacities: np.ndarray
) -> Tensor:
    """Differentiable (T, P) intended path flows for a minibatch.

    One ``forward_batch`` pass produces the whole stack and one regroup
    moves it to per-path layout; the regroup's backward gathers each
    matrix's gradient back into the (D, k) grid.

    Args:
        model: The model (provides ratios differentiably).
        demands: (T, D) demand volumes.
        capacities: (T, E) link capacities.
    """
    ps = model.pathset
    ratios = model.forward_batch(demands, capacities)  # (T, D, k)
    demand_grid = demands[:, :, None] * ps.path_mask  # (T, D, k)
    flows_grid = ratios * Tensor(demand_grid)
    num_matrices = demands.shape[0]
    # The batch rides the feature axis: one regroup of (D * k, T) slot
    # rows yields path-major (T, P) flows, whose per-matrix sums in the
    # losses below keep the summation order of a path-major stack.
    slots = flows_grid.reshape(num_matrices, ps.num_demands * ps.max_paths).T
    return F.regroup(slots, ps.path_grid_rows, ps.demand_path_rows).T


def surrogate_loss_batch(
    model: AllocatorModel,
    demands: np.ndarray,
    capacities: np.ndarray,
    path_values: np.ndarray,
) -> Tensor:
    """Mean negated flow surrogate over a minibatch (Appendix A).

    Each matrix's loss is normalized by its own total demand (exactly the
    per-matrix semantics), then averaged, so the batched gradient is the
    mean of the per-TM gradients.

    Args:
        model: The model (provides ratios differentiably).
        demands: (T, D) demand volumes.
        capacities: (T, E) link capacities.
        path_values: (P,) per-unit-flow objective weights.

    Returns:
        Scalar loss tensor (lower is better).
    """
    ps = model.pathset
    num_matrices = demands.shape[0]
    path_flows = model_path_flows_batch(model, demands, capacities)
    value = (path_flows * Tensor(path_values)).sum(axis=-1)  # (T,)
    loads = F.sparse_matmul(
        ps.edge_path_incidence,
        path_flows.reshape(num_matrices, ps.num_paths, 1),
        transposed=ps.path_edge_incidence,
    ).reshape(num_matrices, ps.topology.num_edges)
    overuse = F.relu(loads - Tensor(capacities)).sum(axis=-1)  # (T,)
    scale = np.maximum(demands.sum(axis=-1), 1e-9)
    return ((overuse - value) * Tensor(1.0 / scale)).mean()


def mlu_surrogate_loss_batch(
    model: AllocatorModel,
    demands: np.ndarray,
    capacities: np.ndarray,
    p: float = 8.0,
) -> Tensor:
    """Mean p-norm MLU surrogate over a minibatch (warm start for MLU).

    Failed (zero-capacity) links are excluded from the norm — their
    utilization is handled by the feasibility semantics, not by MLU.
    The norm is computed per matrix in the factored
    ``max * ((u/max)^p sum)^(1/p)`` form, which cannot overflow however
    overloaded the links are.

    Args:
        model: The model (provides ratios differentiably).
        demands: (T, D) demand volumes.
        capacities: (T, E) link capacities.
        p: Norm order of the max smoothing.
    """
    ps = model.pathset
    num_matrices = demands.shape[0]
    path_flows = model_path_flows_batch(model, demands, capacities)
    loads = F.sparse_matmul(
        ps.edge_path_incidence,
        path_flows.reshape(num_matrices, ps.num_paths, 1),
        transposed=ps.path_edge_incidence,
    ).reshape(num_matrices, ps.topology.num_edges)
    inverse_caps = np.where(
        capacities > 0, 1.0 / np.maximum(capacities, 1e-12), 0.0
    )
    utilization = loads * Tensor(inverse_caps)  # (T, E)
    return F.p_norm(utilization, p, axis=-1).mean()


class DirectLossTrainer:
    """Trains a model by minimizing a differentiable surrogate loss.

    Args:
        model: The model to train.
        objective: TE objective. Flow-type objectives use the Appendix A
            surrogate; min-MLU uses the p-norm smoothing.
        config: Training budget.

    Raises:
        TrainingError: If the objective is neither min-MLU nor has
            per-path flow values.
    """

    def __init__(
        self,
        model: AllocatorModel,
        objective: Objective | None = None,
        config: TrainingConfig | None = None,
    ) -> None:
        self.model = model
        self.objective = objective if objective is not None else TotalFlowObjective()
        self.config = config if config is not None else TrainingConfig()
        self.is_mlu = isinstance(self.objective, MinMaxLinkUtilizationObjective)
        if self.is_mlu:
            self.path_values = None
        else:
            try:
                self.path_values = self.objective.path_values(model.pathset)
            except SolverError as error:
                raise TrainingError(
                    "direct loss requires a flow-type objective with "
                    f"per-path values or min-MLU; got {self.objective.name}"
                ) from error
        self.optimizer = Adam(model.parameters(), lr=model.hyper.learning_rate)

    def _loss_batch(self, demands: np.ndarray, capacities: np.ndarray) -> Tensor:
        """Mean minibatch loss ((T, D) / (T, E) inputs)."""
        if self.is_mlu:
            return mlu_surrogate_loss_batch(self.model, demands, capacities)
        return surrogate_loss_batch(
            self.model, demands, capacities, self.path_values
        )

    def train(
        self,
        matrices: list[TrafficMatrix],
        capacities: np.ndarray | None = None,
        steps: int | None = None,
    ) -> TrainingHistory:
        """Run gradient descent on the surrogate loss over a trace.

        Every step consumes ``config.batch_matrices`` consecutive
        matrices through one batched forward/backward; the loss is the
        mean of the per-matrix surrogate losses.

        Args:
            matrices: Training traffic matrices (cycled through).
            capacities: Link capacities (default: topology's).
            steps: Override the configured step budget.

        Raises:
            TrainingError: If the trace is empty or
                ``config.batch_matrices`` is below 1.
        """
        total_steps = self.config.steps if steps is None else int(steps)
        history = TrainingHistory()
        rng = np.random.default_rng(self.config.seed + 101)
        for step, demands, caps, logged in training_minibatches(
            self.model.pathset, matrices, capacities, self.config,
            total_steps, rng,
        ):
            loss = self._loss_batch(demands, caps)
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()
            if logged:
                ratios = self.model.split_ratios(demands[0], caps[0])
                history.log_step(
                    self.objective, self.model.pathset, step, ratios,
                    demands[0], caps[0], loss.item(),
                )
        return history
