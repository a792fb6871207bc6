"""COMA*: the paper's one-step counterfactual multi-agent RL (§3.3, App. B).

Each demand is an agent; all agents share the policy (and the FlowGNN
feature extractor). Training is centralized: after all agents act, TE
lets us *simulate* the joint allocation and compute the global objective
as the reward. COMA* specializes COMA with two TE insights:

1. **One-step returns** — allocations in one interval do not affect the
   next, so the expected return is just the immediate reward.
2. **Counterfactual advantage** — the advantage of agent ``i``'s action is
   the reward difference against a baseline where only agent ``i``
   re-samples its action (Equation 2), estimated with Monte-Carlo samples.

Reward evaluation strategy: re-simulating the full network once per agent
per sample is what the paper's GPU makes affordable; on CPU we exploit
the reward's per-demand decomposition. Holding every other agent's
intended flows fixed, only the utilizations along agent ``i``'s own paths
change when it alters its action, so its delivered-value difference can
be computed for *all agents simultaneously* with flat index arithmetic
over the path-edge incidence pairs (the "mean-field incremental"
evaluator below). ``exact_counterfactual=True`` switches to full
re-simulation per agent — O(D) slower, used by the agreement tests.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from ..config import TrainingConfig
from ..exceptions import TrainingError
from ..lp.objectives import (
    MinMaxLinkUtilizationObjective,
    Objective,
    TotalFlowObjective,
)
from ..nn.optim import Adam
from ..nn.precision import EVALUATION_DTYPE
from ..nn.tensor import Tensor
from ..paths.pathset import PathSet
from ..simulation.evaluator import evaluate_allocation
from ..traffic.matrix import TrafficMatrix
from .batching import SegmentOps, masked_softmax_into
from .model import TealModel

_EPS = 1e-12


def masked_softmax_np(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Numpy masked softmax along the last axis, into a fresh array.

    An allocating wrapper over
    :func:`~repro.core.batching.masked_softmax_into`, which runs the op
    sequence of the policy's tensor softmax. ``mask`` broadcasts
    against ``logits``; masked slots get zero probability.
    """
    logits = np.asarray(logits)
    mask = np.asarray(mask, dtype=bool)
    shape = np.broadcast_shapes(logits.shape, mask.shape)
    out = np.empty(shape, dtype=np.result_type(logits, 0.0))
    np.copyto(out, logits)
    reduce_buf = np.empty(shape[:-1] + (1,), dtype=out.dtype)
    return masked_softmax_into(out, ~mask, out, reduce_buf)


def sample_training_capacities(
    pathset: PathSet,
    capacities: np.ndarray,
    config: TrainingConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Capacity vector for one training step, with failure augmentation.

    With probability ``config.failure_rate``, zero the capacities of
    1..``max_training_failures`` randomly sampled physical links so the
    model sees failed-topology inputs during training (§5.3 robustness on
    short training budgets; see TrainingConfig for the rationale).
    """
    if config.failure_rate <= 0 or rng.random() >= config.failure_rate:
        # Defensive copy: trainers hold the returned array across the
        # step (and batched training stacks several of them), so aliasing
        # the caller's array here would let later in-place edits of the
        # nominal capacities silently rewrite past training inputs.
        return np.array(capacities, dtype=EVALUATION_DTYPE)
    from ..topology.failures import sample_link_failures

    num_failures = int(rng.integers(1, config.max_training_failures + 1))
    failed = sample_link_failures(
        pathset.topology, num_failures, seed=int(rng.integers(0, 2**31))
    )
    augmented = capacities.copy()
    augmented[failed] = 0.0
    return augmented


def training_minibatches(
    pathset: PathSet,
    matrices: list[TrafficMatrix],
    capacities: np.ndarray | None,
    config: TrainingConfig,
    steps: int,
    rng: np.random.Generator,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, bool]]:
    """The minibatch stream both trainers consume, one tuple per step.

    Step ``s`` stacks the ``config.batch_matrices`` consecutive matrices
    starting at index ``s * batch_matrices`` of the cycled trace, and
    draws one :func:`sample_training_capacities` row per matrix from
    ``rng``. The draws for a step happen when the step is requested, so
    a trainer that also samples actions from ``rng`` interleaves with
    them.

    Args:
        pathset: Path set the demands are laid out on.
        matrices: Training traffic matrices (cycled through).
        capacities: Nominal link capacities (default: topology's).
        config: Minibatch size, failure augmentation and log cadence.
        steps: Number of steps to yield.
        rng: Generator for the failure augmentation.

    Yields:
        ``(step, demands, capacities, logged)``: the (T, D) demand stack,
        the (T, E) capacity stack, and whether the step is one the
        trainer records in its :class:`TrainingHistory` (every
        ``config.log_every`` steps and the last).

    Raises:
        TrainingError: If the trace is empty or ``config.batch_matrices``
            is below 1.
    """
    if not matrices:
        raise TrainingError("training requires at least one traffic matrix")
    batch = config.batch_matrices
    if batch < 1:
        raise TrainingError("batch_matrices must be >= 1")
    if capacities is None:
        capacities = pathset.topology.capacities
    capacities = np.asarray(capacities, dtype=EVALUATION_DTYPE)
    all_demands = [pathset.demand_volumes(m.values) for m in matrices]
    for step in range(steps):
        indices = [
            (step * batch + offset) % len(matrices) for offset in range(batch)
        ]
        demands = np.stack([all_demands[i] for i in indices])
        step_caps = np.stack(
            [
                sample_training_capacities(pathset, capacities, config, rng)
                for _ in indices
            ]
        )
        logged = step % config.log_every == 0 or step == steps - 1
        yield step, demands, step_caps, logged


@dataclass
class TrainingHistory:
    """Per-logging-step training diagnostics."""

    steps: list[int] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    satisfied: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)

    def log_step(
        self,
        objective: Objective,
        pathset: PathSet,
        step: int,
        ratios: np.ndarray,
        demands: np.ndarray,
        capacities: np.ndarray,
        loss: float,
    ) -> None:
        """Record the reward and satisfied fraction of one step's ratios.

        ``capacities`` are the step's own (failure-sampled) capacities:
        scoring under the nominal ones would report a reward for an input
        the model never saw, and the logged reward and loss would
        describe different inputs.
        """
        self.steps.append(step)
        self.rewards.append(objective.reward(pathset, ratios, demands, capacities))
        report = evaluate_allocation(pathset, ratios, demands, capacities)
        self.satisfied.append(report.satisfied_fraction)
        self.losses.append(loss)


def _floor_dead_values(
    base_values: np.ndarray, sample_values: list[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Replace ``-inf`` agent values by a finite per-matrix floor.

    Under min-MLU an agent whose flow crosses a failed (zero-capacity)
    link is worth ``-inf``; differencing two such values gives NaN, and
    one of them gives an infinite advantage. The floor ranks a dead-link
    load one utilization unit below the worst finite value of the same
    matrix (row), so an agent whose action loads a dead link while its
    counterfactual samples avoid it gets a negative advantage, and an
    agent with no alternative gets 0. Rows without ``-inf`` pass through
    unchanged.

    Args:
        base_values: (T, D) values of the sampled joint actions.
        sample_values: One (T, D) array per counterfactual sample.
    """
    stack = np.stack([base_values, *sample_values])
    dead = np.isneginf(stack)
    if not dead.any():
        return base_values, sample_values
    worst = np.where(dead, np.inf, stack).min(axis=(0, 2), keepdims=True)
    floor = np.where(np.isfinite(worst), worst, 0.0) - 1.0
    stack = np.where(dead, floor, stack)
    return stack[0], list(stack[1:])


class DecomposableReward:
    """Per-demand reward values under the mean-field incremental model.

    For flow-type objectives the joint reward decomposes as
    ``R = sum_d V_d`` with ``V_d = sum_{p in P_d} w_p * f_p / max(1, u_p)``
    where ``u_p`` is the bottleneck utilization of path ``p``. Changing
    only demand ``d``'s flows perturbs the loads solely on its own paths'
    edges, so ``V_d`` under the counterfactual is computable from the
    residual loads of the other demands.

    For min-MLU the per-demand value is the negated bottleneck
    utilization over the demand's own edges (a local approximation of the
    global max, adequate for advantage estimation).
    """

    def __init__(self, pathset: PathSet, objective: Objective) -> None:
        self.pathset = pathset
        self.objective = objective
        self.is_mlu = isinstance(objective, MinMaxLinkUtilizationObjective)
        if self.is_mlu:
            self.path_values = np.ones(pathset.num_paths)
        else:
            self.path_values = objective.path_values(pathset)

        coo = pathset.edge_path_incidence.tocoo()
        self.incidence_path = coo.col.astype(np.int64)
        self.incidence_edge = coo.row.astype(np.int64)
        self.incidence_demand = pathset.path_demand[self.incidence_path]
        # Group pairs sharing a (demand, edge) key so a demand's multiple
        # paths crossing one edge pool their contribution.
        keys = self.incidence_demand * pathset.topology.num_edges + self.incidence_edge
        _, self.key_inverse = np.unique(keys, return_inverse=True)
        self.num_keys = int(self.key_inverse.max()) + 1 if len(keys) else 0
        # Tiled-index segment ops so every row of a (T, ...) stack runs
        # the same flat primitives (see core.batching).
        self._key_ops = SegmentOps(self.key_inverse, self.num_keys)
        self._path_ops = SegmentOps(self.incidence_path, pathset.num_paths)
        self._demand_ops = SegmentOps(pathset.path_demand, pathset.num_demands)

    def _own_edge_load_batch(self, path_flows: np.ndarray) -> np.ndarray:
        """(T, I) per-pair own loads for a (T, P) stack of path flows."""
        per_key = self._key_ops.sum(path_flows[:, self.incidence_path])
        return per_key[:, self.key_inverse]

    def demand_values_batch(
        self,
        base_flows: np.ndarray,
        candidate_flows: np.ndarray,
        capacities: np.ndarray,
        base_loads: np.ndarray | None = None,
        base_own: np.ndarray | None = None,
    ) -> np.ndarray:
        """(T, D) per-demand counterfactual values over a minibatch.

        Every array carries a leading (T,) axis and the segment
        reductions run over tiled indices, so row ``t`` is independent of
        the other rows: a batch of one gives the same row bit for bit.

        Args:
            base_flows: (T, P) intended flows of the joint actions.
            candidate_flows: (T, P) flows under the candidate actions.
            capacities: (T, E) per-matrix link capacities.
            base_loads: Precomputed (T, E) edge loads of base_flows.
            base_own: Precomputed (T, I) own-load pairs of base_flows.
        """
        ps = self.pathset
        if base_loads is None:
            base_loads = ps.edge_loads_batch(base_flows)
        if base_own is None:
            base_own = self._own_edge_load_batch(base_flows)
        cand_own = self._own_edge_load_batch(candidate_flows)
        pair_load = base_loads[:, self.incidence_edge] - base_own + cand_own
        caps = capacities[:, self.incidence_edge]
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.where(
                caps > 0,
                pair_load / np.maximum(caps, _EPS),
                np.where(pair_load > _EPS, np.inf, 0.0),
            )
        bottleneck = self._path_ops.max(util)

        if self.is_mlu:
            return -self._demand_ops.max(bottleneck)

        scale = 1.0 / np.maximum(bottleneck, 1.0)
        scale[~np.isfinite(scale)] = 0.0
        delivered_value = candidate_flows * scale * self.path_values
        return self._demand_ops.sum(delivered_value)

    def exact_demand_values(
        self,
        base_ratios: np.ndarray,
        candidate_ratios: np.ndarray,
        demands: np.ndarray,
        capacities: np.ndarray,
    ) -> np.ndarray:
        """Exact counterfactual values via full re-simulation (O(D) solves)."""
        ps = self.pathset
        values = np.zeros(ps.num_demands)
        for d in range(ps.num_demands):
            mixed = base_ratios.copy()
            mixed[d] = candidate_ratios[d]
            values[d] = self.objective.reward(ps, mixed, demands, capacities)
        return values


class ComaTrainer:
    """Trains a TealModel end to end with COMA* policy gradients.

    Args:
        model: The model to train (FlowGNN + policy).
        objective: TE objective providing the reward.
        config: Training budget and seeds. The Monte-Carlo sample count
            of the counterfactual baseline (Appendix B, Equation 2) is
            the model's ``hyper.counterfactual_samples``.
        exact_counterfactual: Use full re-simulation for the baseline
            (slow; for validation on small instances).
    """

    def __init__(
        self,
        model: TealModel,
        objective: Objective | None = None,
        config: TrainingConfig | None = None,
        exact_counterfactual: bool = False,
    ) -> None:
        self.model = model
        self.objective = objective if objective is not None else TotalFlowObjective()
        self.config = config if config is not None else TrainingConfig()
        self.samples = model.hyper.counterfactual_samples
        if self.samples < 1:
            raise TrainingError("counterfactual_samples must be >= 1")
        self.exact = exact_counterfactual
        self.reward_model = DecomposableReward(model.pathset, self.objective)
        self.optimizer = Adam(model.parameters(), lr=model.hyper.learning_rate)

    def step_advantages(
        self,
        actions: np.ndarray,
        alt_actions: np.ndarray,
        demands: np.ndarray,
        capacities: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """(T, D) normalized counterfactual advantages for one minibatch.

        The pure-numpy half of a training step, factored out so the
        batched-vs-looped agreement tests can drive it with fixed action
        samples. Advantage normalization and the ``batch_demands``
        subsample both follow per-matrix semantics (each row is
        normalized independently; one demand subsample is shared by the
        whole minibatch, which at T = 1 is the classic behaviour).

        Args:
            actions: (T, D, k) sampled joint actions.
            alt_actions: (S, T, D, k) Monte-Carlo counterfactual samples.
            demands: (T, D) demand volumes.
            capacities: (T, E) per-matrix (failure-sampled) capacities.
            rng: Generator for the optional demand subsample.
        """
        ps = self.model.pathset
        mask = ps.path_mask
        num_matrices = actions.shape[0]
        ratios = masked_softmax_np(actions, mask)
        base_flows = ps.split_ratios_to_path_flows_batch(ratios, demands)
        base_loads = ps.edge_loads_batch(base_flows)
        base_own = self.reward_model._own_edge_load_batch(base_flows)

        if self.exact:
            base_values = np.stack(
                [
                    np.full(
                        ps.num_demands,
                        self.objective.reward(
                            ps, ratios[t], demands[t], capacities[t]
                        ),
                    )
                    for t in range(num_matrices)
                ]
            )
        else:
            base_values = self.reward_model.demand_values_batch(
                base_flows, base_flows, capacities, base_loads, base_own
            )

        sample_values = []
        for sample in range(alt_actions.shape[0]):
            alt_ratios = masked_softmax_np(alt_actions[sample], mask)
            if self.exact:
                values = np.stack(
                    [
                        self.reward_model.exact_demand_values(
                            ratios[t], alt_ratios[t], demands[t], capacities[t]
                        )
                        for t in range(num_matrices)
                    ]
                )
            else:
                alt_flows = ps.split_ratios_to_path_flows_batch(
                    alt_ratios, demands
                )
                values = self.reward_model.demand_values_batch(
                    base_flows, alt_flows, capacities, base_loads, base_own
                )
            sample_values.append(values)
        base_values, sample_values = _floor_dead_values(
            base_values, sample_values
        )
        baseline = sum(sample_values) / len(sample_values)
        advantage = base_values - baseline
        std = advantage.std(axis=-1, keepdims=True)
        mean = advantage.mean(axis=-1, keepdims=True)
        advantage = np.where(
            std > _EPS, (advantage - mean) / np.maximum(std, _EPS), advantage
        )

        batch = self.config.batch_demands
        if batch is not None and batch < ps.num_demands and rng is not None:
            keep = rng.choice(ps.num_demands, size=batch, replace=False)
            batch_mask = np.zeros(ps.num_demands)
            batch_mask[keep] = 1.0
            advantage = advantage * batch_mask
        return advantage

    def train(
        self,
        matrices: list[TrafficMatrix],
        capacities: np.ndarray | None = None,
        steps: int | None = None,
    ) -> TrainingHistory:
        """Run the COMA* training loop over a traffic trace.

        Every step consumes ``config.batch_matrices`` consecutive
        matrices through one batched forward — action sampling, the
        decomposable reward, and the counterfactual baseline are all
        vectorized across the minibatch, so a single backward covers T
        matrices.

        Args:
            matrices: Training traffic matrices (cycled through).
            capacities: Link capacities (default: topology's).
            steps: Override the configured step budget.

        Returns:
            A :class:`TrainingHistory` of rewards/losses.

        Raises:
            TrainingError: If the trace is empty or
                ``config.batch_matrices`` is below 1.
        """
        total_steps = self.config.steps if steps is None else int(steps)
        rng = np.random.default_rng(self.config.seed)
        ps = self.model.pathset
        history = TrainingHistory()
        for step, demands, caps, logged in training_minibatches(
            ps, matrices, capacities, self.config, total_steps, rng
        ):
            logits = self.model.logits_batch(demands, caps)
            actions = self.model.policy.sample_actions(logits, rng)
            alt_actions = np.stack(
                [
                    self.model.policy.sample_actions(logits, rng)
                    for _ in range(self.samples)
                ]
            )
            advantage = self.step_advantages(
                actions, alt_actions, demands, caps, rng
            )

            log_prob = self.model.policy.log_prob(logits, actions)
            loss = -(Tensor(advantage) * log_prob).mean()
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()

            if logged:
                # The greedy allocation of this step's (pre-update) logits.
                greedy = masked_softmax_np(logits.numpy(), ps.path_mask)
                history.log_step(
                    self.objective, ps, step, greedy[0], demands[0],
                    caps[0], loss.item(),
                )
        return history
