"""Linear detector model: binomial loss and binary-bin convolution.

A photon-number distribution rho(n) measured through a lossy channel of
efficiency eta and a bank of N binary (click / no-click) detector bins is
mapped to a click-number distribution by

    p_click = C @ L(eta) @ rho

where L(eta) is binomial thinning and C collects the combinatorics of n
ideal photons landing in N bins of which exactly k become occupied.  C is
built by one recursion that adds a bin at a time; every term it sums is
nonnegative, so equal and unequal bins of any count share one exact path.
Both matrices are column-stochastic, so the forward model preserves
normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DEFAULT_N_MAX, PhotonDistribution, from_probs, probability_vector
from .errors import DomainError


def _comb_table(n_max: int) -> np.ndarray:
    """Binomial coefficients C(n, m) as floats, exact integer arithmetic."""
    try:
        float(math.comb(n_max, n_max // 2))  # the largest entry
    except OverflowError:
        raise DomainError(
            f"photon-number cutoff {n_max} too large: binomial coefficients overflow a float"
        ) from None
    table = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        for m in range(n + 1):
            table[n, m] = float(math.comb(n, m))
    return table


@dataclass(frozen=True)
class ConvolutionMatrix:
    """Maps n surviving photons to the number k of occupied binary bins."""

    matrix: np.ndarray
    bin_probs: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.bin_probs.setflags(write=False)

    @property
    def n_bins(self) -> int:
        return self.bin_probs.size

    @property
    def n_max(self) -> int:
        return self.matrix.shape[1] - 1


@dataclass(frozen=True)
class ClickDistribution:
    """Distribution of the occupied-bin count k = 0 .. n_bins."""

    probs: np.ndarray

    def __post_init__(self):
        probs = probability_vector(self.probs, "click probability")
        probs = probs / probs.sum()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n_bins(self) -> int:
        return self.probs.size - 1

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)

    def variance(self) -> float:
        k = np.arange(self.probs.size)
        m = float(k @ self.probs)
        return float((k - m) ** 2 @ self.probs)


def uniform_bins(n_bins: int = 8) -> np.ndarray:
    """Equal splitting probabilities for n_bins time-multiplexed bins."""
    if n_bins < 1:
        raise DomainError(f"need at least one bin, got {n_bins}")
    return np.full(n_bins, 1.0 / n_bins)


def _validate_bin_probs(bin_probs) -> np.ndarray:
    raw = np.asarray(bin_probs, dtype=float)
    probs = probability_vector(raw, "bin probability")
    # routing probabilities come from outside the program: no roundoff slack
    if np.any(raw < 0):
        raise DomainError(f"negative bin probability entry {raw.min():.3e}")
    return probs / probs.sum()


def loss_matrix(eta: float, n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """Read-only binomial loss matrix L(eta) for a channel that transmits
    each photon with probability eta independently:
    entry(m, n) = C(n, m) eta^m (1-eta)^(n-m).  Column-stochastic."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"efficiency must lie in [0, 1], got {eta}")
    comb = _comb_table(n_max)
    m_idx = np.arange(n_max + 1)
    out = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        m = m_idx[: n + 1]
        out[: n + 1, n] = comb[n, : n + 1] * eta**m * (1.0 - eta) ** (n - m)
    out.setflags(write=False)
    return out


def apply_loss(p: PhotonDistribution, eta: float) -> PhotonDistribution:
    """Push a photon-number distribution through a lossy channel."""
    return from_probs(loss_matrix(eta, p.n_max) @ p.probs, p.tail_mass)


def convolution_matrix(bin_probs, n_max: int = DEFAULT_N_MAX) -> ConvolutionMatrix:
    """Occupied-bin-count response of a bank of binary detector bins.

    entry(k, n) is the probability that n photons, each independently routed
    to bin i with probability bin_probs[i], occupy exactly k distinct bins.
    Any number of bins, equal or not, takes the same exact path.

    Args:
        bin_probs: Routing probabilities of the bins; must sum to 1.
        n_max: Largest photon number (column index) represented.
    """
    probs = _validate_bin_probs(bin_probs)
    comb = _comb_table(n_max)
    photons = np.arange(n_max + 1)
    taken = np.clip(np.subtract.outer(photons, photons), 0, None)
    # out[k, n]: n photons all land in the bins added so far and fill k of
    # them.  A new bin of probability p takes j >= 1 of the n photons with
    # weight C(n, j) p^j and adds one occupied bin; no term is negative.
    out = np.zeros((probs.size + 1, n_max + 1))
    out[0, 0] = 1.0
    for p in probs:
        step = np.tril(comb * p**taken, -1)
        out[1:] += out[:-1] @ step.T
    return ConvolutionMatrix(out, probs)


def forward_model(p: PhotonDistribution, eta: float, bin_probs) -> ClickDistribution:
    """Predict click statistics for a source distribution seen through loss
    eta and a bank of binary bins."""
    probs = _validate_bin_probs(bin_probs)
    cm = convolution_matrix(probs, p.n_max)
    return ClickDistribution(cm.matrix @ (loss_matrix(eta, p.n_max) @ p.probs))
