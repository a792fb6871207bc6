"""The shared per-demand policy network (§3.3, §4, Figure 5).

A deliberately small fully-connected network, shared by every demand
(the multi-agent design that keeps Teal topology-size agnostic):
24 inputs (4 path embeddings x 6 elements) -> 24 hidden -> 4 outputs.
The outputs are *action logits*; a masked softmax turns actions into
split ratios (padding slots get zero probability).

During COMA* training the logits are treated as the mean of a diagonal
Gaussian with a learnable log-std (Appendix B): actions are sampled for
exploration, while deployment uses the mean directly.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ModelError
from ..nn import functional as F
from ..nn.layers import Module, mlp
from ..nn.tensor import Parameter, Tensor


class ActionHead(Module):
    """The stochastic action machinery shared by Teal and its ablations.

    Holds the learnable Gaussian log-std and implements sampling,
    log-density, and the masked-softmax conversion from actions to split
    ratios. Models that produce logits through other architectures (the
    Figure 14 ablation variants) reuse this head so COMA* training treats
    them uniformly.

    Args:
        num_paths: Path slots per demand (k).
        action_log_std: Initial log standard deviation.
    """

    def __init__(self, num_paths: int, action_log_std: float = -1.0) -> None:
        self.num_paths = num_paths
        self.log_std = Parameter(
            np.full(num_paths, float(action_log_std)), name="log_std"
        )

    def split_ratios(self, logits: Tensor, mask: np.ndarray) -> Tensor:
        """Masked softmax converting logits/actions to split ratios.

        Args:
            logits: (D, k) logits or sampled actions.
            mask: (D, k) bool validity mask for path slots.
        """
        return F.softmax(logits, axis=-1, mask=mask)

    def sample_actions(
        self, logits: Tensor, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw exploration actions a ~ N(logits, exp(log_std)^2)."""
        std = np.exp(self.log_std.data)
        return logits.data + rng.normal(size=logits.shape) * std

    def log_prob(self, logits: Tensor, actions: np.ndarray) -> Tensor:
        """(D,) log pi(a|s) of sampled actions under the current policy."""
        return F.gaussian_log_prob(logits, self.log_std, actions)


class PolicyNetwork(ActionHead):
    """Maps per-demand flow embeddings to split-ratio logits.

    Args:
        input_dim: k * embedding_dim (paper: 4 * 6 = 24).
        num_paths: Path slots per demand (k, paper: 4).
        hidden: Hidden width (paper: 24).
        num_hidden_layers: Number of hidden layers (paper: 1; Figure 15c
            sweeps 1/2/4).
        action_log_std: Initial log-std of the Gaussian exploration policy.
        seed: Weight-init seed.
    """

    def __init__(
        self,
        input_dim: int,
        num_paths: int,
        hidden: int = 24,
        num_hidden_layers: int = 1,
        action_log_std: float = -1.0,
        seed: int = 0,
    ) -> None:
        if num_hidden_layers < 1:
            raise ModelError("policy needs at least one hidden layer")
        super().__init__(num_paths, action_log_std)
        rng = np.random.default_rng(seed)
        sizes = [input_dim] + [hidden] * num_hidden_layers + [num_paths]
        self.net = mlp(sizes, rng=rng)

    def forward(self, features: Tensor) -> Tensor:
        """Action logits (D, k) from policy inputs (D, k * embedding_dim)."""
        return self.net(features)
