"""Global configuration defaults for the Teal reproduction.

The values here mirror the constants reported in the paper (Section 4,
"Implementation of Teal") and the evaluation methodology (Section 5.1).
Every experiment accepts explicit overrides; this module only centralizes
the paper's defaults so benches and examples agree on them.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Number of precomputed candidate paths per demand (4 shortest paths, §2/§5.1).
NUM_PATHS_PER_DEMAND = 4

#: TE control interval in seconds (5 minutes, §1/§2).
TE_INTERVAL_SECONDS = 300.0

#: Train / validation / test split sizes in consecutive 5-minute intervals (§5.1).
TRAIN_INTERVALS = 700
VALIDATION_INTERVALS = 100
TEST_INTERVALS = 200

#: ADMM iteration counts (§4): 2 for topologies with <100 nodes, 5 otherwise.
ADMM_ITERS_SMALL = 2
ADMM_ITERS_LARGE = 5
ADMM_SMALL_TOPOLOGY_NODES = 100

#: FlowGNN architecture (§4): 6 GNN layers interleaved with 6 DNN layers,
#: final embedding dimension of 6 (grown by one element per layer).
FLOWGNN_NUM_LAYERS = 6

#: Policy network (§4): single hidden layer of 24 neurons; 24 inputs
#: (4 flow embeddings x 6 elements), 4 outputs followed by softmax.
POLICY_HIDDEN_SIZE = 24

#: Adam learning rate used for training Teal (§4).
LEARNING_RATE = 1e-4

#: LP-top ("demand pinning") allocates the top alpha% of demands with an LP (§5.1).
LP_TOP_ALPHA_PERCENT = 10.0

#: Fraction of total volume carried by the top 10% of demands in the
#: paper's production trace (§5.1) — our synthetic traffic is calibrated to it.
TOP10_VOLUME_SHARE = 0.884

#: POP replica counts per topology (§5.1).
POP_REPLICAS = {"B4": 1, "SWAN": 1, "UsCarrier": 4, "Kdl": 128, "ASN": 128}

#: POP client-splitting threshold (§5.1): demands larger than this fraction of
#: the per-replica capacity budget are split across replicas.
POP_SPLIT_THRESHOLD = 0.25


@dataclass(frozen=True)
class TealHyperparameters:
    """Hyperparameters for a Teal model, defaulting to the paper's values.

    Attributes:
        num_gnn_layers: Number of GNN layers (each followed by a DNN
            coordination layer) in FlowGNN. The embedding grows by one
            element per layer starting at 1, so this is also the final
            embedding dimension; the path budget comes from the path set.
        policy_hidden: Width of the policy network's single hidden layer.
        learning_rate: Adam step size.
        action_log_std: Initial log standard deviation of the Gaussian policy
            used during COMA* training.
        counterfactual_samples: Monte-Carlo samples drawn to estimate the
            COMA* counterfactual baseline (Appendix B).
    """

    num_gnn_layers: int = FLOWGNN_NUM_LAYERS
    policy_hidden: int = POLICY_HIDDEN_SIZE
    learning_rate: float = LEARNING_RATE
    action_log_std: float = -1.0
    counterfactual_samples: int = 4


@dataclass(frozen=True)
class AdmmConfig:
    """Configuration of the ADMM fine-tuning stage (§3.4, Appendix C).

    Attributes:
        iterations: Number of ADMM iterations; ``None`` selects the paper's
            default based on topology size (2 if <100 nodes else 5).
        rho: Augmented-Lagrangian penalty coefficient.
    """

    iterations: int | None = None
    rho: float = 3.0

    def resolve_iterations(self, num_nodes: int) -> int:
        """Return the iteration count for a topology of ``num_nodes`` nodes."""
        if self.iterations is not None:
            return self.iterations
        if num_nodes < ADMM_SMALL_TOPOLOGY_NODES:
            return ADMM_ITERS_SMALL
        return ADMM_ITERS_LARGE


@dataclass(frozen=True)
class TrainingConfig:
    """Budget and schedule for training a Teal model.

    The paper trains for ~a week on a GPU; this reproduction exposes the
    budget explicitly so tests/benches can train small instances to a
    plateau in seconds.

    Attributes:
        steps: Number of gradient steps (each step consumes one traffic
            matrix sampled from the training trace).
        warm_start_steps: Optional direct-loss (surrogate) pre-training steps
            executed before COMA* fine-tuning; 0 disables warm start.
        batch_demands: If set, subsample this many demands per step for the
            policy-gradient update (variance/time tradeoff on large graphs).
        batch_matrices: Traffic matrices consumed per gradient step. Both
            trainers run the whole minibatch through one batched forward
            (the training analogue of the paper's GPU batching); 1
            reproduces the classic one-matrix-per-step loop exactly.
        seed: RNG seed for action sampling and batching.
        log_every: Emit a progress record every this many steps.
        failure_rate: Probability per training step of sampling a
            failed-link capacity vector (failure augmentation). The paper
            handles transient failures without retraining (§5.3) because a
            week of training covers diverse capacity states; short CPU
            budgets approximate that coverage by explicit augmentation.
        max_training_failures: Cap on simultaneous augmented failures.
    """

    steps: int = 200
    warm_start_steps: int = 100
    batch_demands: int | None = None
    batch_matrices: int = 1
    seed: int = 0
    log_every: int = 50
    failure_rate: float = 0.0
    max_training_failures: int = 2


DEFAULT_HYPERPARAMETERS = TealHyperparameters()
DEFAULT_ADMM = AdmmConfig()
DEFAULT_TRAINING = TrainingConfig()
