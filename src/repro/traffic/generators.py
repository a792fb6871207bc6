"""Synthetic WAN traffic calibrated to the paper's trace statistics (§5.1).

The paper trains/evaluates on 20 days of Microsoft SWAN inter-datacenter
traffic, which is unavailable, so we substitute a synthetic
model with the two properties the evaluation depends on:

1. **Heavy-tailed spatial skew** — the top 10% of demands carry 88.4% of
   total volume. We use a gravity model with log-normal node masses and
   tune the log-normal sigma so the generated share matches 88.4%
   (:func:`calibrate_sigma`).
2. **Smooth temporal evolution** — consecutive 5-minute matrices are
   strongly correlated. Each demand follows an AR(1) process in log space
   around its gravity mean, plus a shared diurnal modulation.

All generation is deterministic given a seed.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import TOP10_VOLUME_SHARE
from ..exceptions import TrafficError
from .matrix import TrafficMatrix


def gravity_base_matrix(
    num_nodes: int,
    sigma: float = 2.0,
    mean_total: float = 1000.0,
    seed: int = 0,
) -> np.ndarray:
    """Gravity-model mean demands with log-normal node masses.

    Demand(s, t) ∝ mass(s) * mass(t); masses are log-normal with shape
    ``sigma``, which controls how heavy-tailed the demand distribution is.

    Args:
        num_nodes: Number of sites.
        sigma: Log-normal shape of node masses (higher = heavier tail).
        mean_total: Total volume the matrix is normalized to.
        seed: RNG seed.

    Returns:
        (n, n) mean-demand array with zero diagonal.
    """
    if num_nodes < 2:
        raise TrafficError("need at least 2 nodes for traffic")
    if sigma <= 0:
        raise TrafficError("sigma must be positive")
    rng = np.random.default_rng(seed)
    masses = rng.lognormal(mean=0.0, sigma=sigma, size=num_nodes)
    base = np.outer(masses, masses)
    np.fill_diagonal(base, 0.0)
    total = base.sum()
    if total <= 0:
        raise TrafficError("degenerate gravity matrix")
    return base * (mean_total / total)


def top_fraction_share(values: np.ndarray, fraction: float = 0.1) -> float:
    """Share of volume carried by the top ``fraction`` of positive demands."""
    flat = values[values > 0]
    if flat.size == 0:
        return 0.0
    k = max(1, int(round(fraction * flat.size)))
    return float(np.sort(flat)[-k:].sum() / flat.sum())


def calibrate_sigma(
    num_nodes: int,
    target_share: float = TOP10_VOLUME_SHARE,
    seed: int = 0,
    tolerance: float = 0.01,
    max_iters: int = 40,
) -> float:
    """Find the log-normal sigma whose top-10% share matches the paper.

    Binary search over sigma in [0.1, 6]; the share is monotonically
    increasing in sigma for a fixed mass sample, so the search converges.

    Args:
        num_nodes: Number of sites.
        target_share: Target top-10% volume share (paper: 0.884).
        seed: RNG seed (the same seed must be passed to the generator).
        tolerance: Acceptable |share - target|.
        max_iters: Search iteration cap.

    Returns:
        The calibrated sigma.
    """
    if not 0 < target_share < 1:
        raise TrafficError("target_share must be in (0, 1)")
    lo, hi = 0.1, 6.0
    best = (math.inf, (lo + hi) / 2)
    for _ in range(max_iters):
        mid = (lo + hi) / 2
        share = top_fraction_share(
            gravity_base_matrix(num_nodes, sigma=mid, seed=seed)
        )
        err = abs(share - target_share)
        if err < best[0]:
            best = (err, mid)
        if err <= tolerance:
            return mid
        if share < target_share:
            lo = mid
        else:
            hi = mid
    return best[1]


class TrafficGenerator:
    """Generates temporally-correlated traffic matrices.

    Each positive demand d(s,t) evolves as an AR(1) process in log space:

        x_i = phi * x_{i-1} + eps_i,    demand_i = mean * exp(x_i) * diurnal_i

    where ``eps`` has standard deviation ``volatility * sqrt(1 - phi^2)``
    so the stationary log-variance equals ``volatility**2``.

    Args:
        num_nodes: Number of sites.
        sigma: Gravity-mass log-normal shape; ``None`` calibrates to the
            paper's 88.4% top-10% share.
        mean_total: Mean total volume per interval.
        phi: AR(1) coefficient (temporal correlation, 0..1).
        volatility: Stationary standard deviation of log fluctuations.
        diurnal_amplitude: Amplitude of the shared sinusoidal daily cycle.
        seed: RNG seed.
    """

    #: Number of 5-minute intervals in one day (diurnal period).
    INTERVALS_PER_DAY = 288

    def __init__(
        self,
        num_nodes: int,
        sigma: float | None = None,
        mean_total: float = 1000.0,
        phi: float = 0.95,
        volatility: float = 0.25,
        diurnal_amplitude: float = 0.2,
        seed: int = 0,
    ) -> None:
        if not 0 <= phi < 1:
            raise TrafficError("phi must be in [0, 1)")
        if volatility < 0:
            raise TrafficError("volatility must be non-negative")
        if sigma is None:
            sigma = calibrate_sigma(num_nodes, seed=seed)
        self.num_nodes = num_nodes
        self.sigma = sigma
        self.phi = phi
        self.volatility = volatility
        self.diurnal_amplitude = diurnal_amplitude
        self.seed = seed
        self.mean_matrix = gravity_base_matrix(
            num_nodes, sigma=sigma, mean_total=mean_total, seed=seed
        )

    def generate(self, num_intervals: int, start_interval: int = 0) -> list[TrafficMatrix]:
        """Generate ``num_intervals`` consecutive matrices.

        Args:
            num_intervals: Number of 5-minute intervals.
            start_interval: Index of the first interval (sets the diurnal
                phase and the interval labels).

        Returns:
            List of :class:`TrafficMatrix`, one per interval.
        """
        if num_intervals <= 0:
            raise TrafficError("num_intervals must be positive")
        rng = np.random.default_rng(self.seed + 1)
        n = self.num_nodes
        innovation_std = self.volatility * math.sqrt(1 - self.phi ** 2)
        # Stationary start.
        log_state = rng.normal(0.0, self.volatility, size=(n, n))
        matrices: list[TrafficMatrix] = []
        for i in range(num_intervals):
            interval = start_interval + i
            phase = 2 * math.pi * (interval % self.INTERVALS_PER_DAY) / self.INTERVALS_PER_DAY
            diurnal = 1.0 + self.diurnal_amplitude * math.sin(phase)
            values = self.mean_matrix * np.exp(log_state) * diurnal
            matrices.append(TrafficMatrix(values, interval=interval))
            log_state = self.phi * log_state + rng.normal(
                0.0, innovation_std, size=(n, n)
            )
        return matrices
