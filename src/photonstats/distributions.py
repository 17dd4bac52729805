"""Photon-number distributions on a truncated Fock basis.

Distributions are plain probability vectors indexed by photon number
n = 0 .. n_max.  Constructors for the standard families renormalize after
truncation and keep track of the probability mass that was folded in, so
callers can reject configurations where the cutoff is too aggressive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError, TruncationError

DEFAULT_N_MAX = 20
DEFAULT_TAIL_BOUND = 1e-6
NORMALIZATION_TOL = 1e-9


def probability_vector(values, what: str) -> np.ndarray:
    """The entries of values, clipped at 0, once they pass as a probability
    distribution: a nonempty 1-D vector of finite entries, none below
    -NORMALIZATION_TOL, summing to 1 within NORMALIZATION_TOL.

    Raises ShapeError or DomainError naming `what`; every comparison is
    written so that NaN fails it.
    """
    probs = np.asarray(values, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ShapeError(f"{what} entries must form a nonempty 1-D vector")
    if not np.all(np.isfinite(probs)):
        raise DomainError(f"non-finite {what} entry")
    if not np.min(probs) >= -NORMALIZATION_TOL:
        raise DomainError(f"negative {what} entry {np.min(probs):.3e}")
    with np.errstate(over="ignore"):  # entries near the float limit sum to inf
        total = probs.sum()
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        raise DomainError(f"{what} entries sum to {float(total)}, not 1")
    return np.clip(probs, 0.0, None)


def nonnegative_part(values) -> np.ndarray:
    """values clipped at 0 and renormalized to sum to 1: the proper
    distribution that stands for a quasi-distribution, such as a direct
    inversion's output, wherever one is required.  Raises DomainError when
    no entry is positive or the clipped entries have no finite sum."""
    probs = np.clip(np.asarray(values, dtype=float), 0.0, None)
    total = probs.sum()
    if not 0.0 < total < math.inf:
        raise DomainError(f"rho clipped at 0 sums to {float(total)}; need a finite sum > 0")
    return probs / total


@dataclass(frozen=True)
class PhotonDistribution:
    """Probability distribution over photon number 0 .. n_max.

    Attributes:
        probs: Probability vector of length n_max + 1.  Always normalized.
        tail_mass: Probability mass beyond n_max that was folded away when
            the distribution was truncated, before renormalization.
    """

    probs: np.ndarray
    tail_mass: float = field(default=0.0)

    def __post_init__(self):
        probs = probability_vector(self.probs, "probability")
        total = probs.sum()
        if abs(total - 1.0) > 1e-12:  # keep construction idempotent
            probs = probs / total
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n_max(self) -> int:
        return self.probs.size - 1

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)

    def variance(self) -> float:
        n = np.arange(self.probs.size)
        m = float(n @ self.probs)
        return float((n - m) ** 2 @ self.probs)


def from_probs(probs, tail_mass: float = 0.0) -> PhotonDistribution:
    """Build a distribution from a raw probability vector, validating it."""
    return PhotonDistribution(np.asarray(probs, dtype=float), float(tail_mass))


def _truncate(untruncated, tail_mass, max_tail):
    if tail_mass > max_tail:
        raise TruncationError(
            f"folded tail mass {tail_mass:.3e} exceeds bound {max_tail:.1e}; "
            "raise n_max or pass a larger max_tail"
        )
    probs = np.asarray(untruncated, dtype=float)
    return PhotonDistribution(probs / probs.sum(), float(tail_mass))


def fock(n: int, n_max: int = DEFAULT_N_MAX) -> PhotonDistribution:
    """Point distribution at exactly n photons."""
    if n < 0 or n != int(n):
        raise DomainError(f"photon number must be a nonnegative integer, got {n}")
    if n > n_max:
        raise DomainError(f"fock({n}) does not fit below the cutoff n_max={n_max}")
    probs = np.zeros(n_max + 1)
    probs[int(n)] = 1.0
    return PhotonDistribution(probs)


def coherent(
    mean: float, n_max: int = DEFAULT_N_MAX, max_tail: float = DEFAULT_TAIL_BOUND
) -> PhotonDistribution:
    """Poissonian photon-number distribution of a coherent field."""
    if not 0.0 <= mean < math.inf:
        raise DomainError(f"mean must be finite and nonnegative, got {mean}")
    if mean == 0.0:
        return fock(0, n_max)
    log_mean = math.log(mean)
    pmf = np.exp([n * log_mean - mean - math.lgamma(n + 1) for n in range(n_max + 1)])
    if mean > n_max:  # a large tail: its complement is accurate
        return _truncate(pmf, 1.0 - float(pmf.sum()), max_tail)
    # falling terms beyond n_max, summed explicitly so a tiny tail keeps its digits
    k, tail = n_max + 1, 0.0
    term = math.exp(k * log_mean - mean - math.lgamma(k + 1))
    while tail + term != tail:
        tail += term
        k += 1
        term *= mean / k
    return _truncate(pmf, tail, max_tail)


def thermal(
    mean: float, n_max: int = DEFAULT_N_MAX, max_tail: float = DEFAULT_TAIL_BOUND
) -> PhotonDistribution:
    """Bose-Einstein photon-number distribution of a thermal field."""
    if mean < 0:
        raise DomainError(f"mean must be nonnegative, got {mean}")
    if mean == 0.0:
        return fock(0, n_max)
    q = mean / (1.0 + mean)
    n = np.arange(n_max + 1)
    pmf = (1.0 - q) * q**n
    tail = float(q ** (n_max + 1))
    return _truncate(pmf, tail, max_tail)


def tms_marginal(
    parametric_gain: float,
    n_max: int = DEFAULT_N_MAX,
    max_tail: float = DEFAULT_TAIL_BOUND,
) -> PhotonDistribution:
    """Pair-number distribution of a two-mode squeezed vacuum, one arm traced out.

    The joint state is perfectly photon-number correlated between the two
    arms; the marginal seen by either arm alone is geometric with ratio
    ``parametric_gain**2``.

    Args:
        parametric_gain: Interaction strength in [0, 1), the amplitude ratio
            between consecutive pair numbers.
        n_max: Truncation cutoff.
        max_tail: Largest folded tail mass accepted.
    """
    lam = parametric_gain
    if not 0.0 <= lam < 1.0:
        raise DomainError(f"parametric gain must lie in [0, 1), got {lam}")
    if lam == 0.0:
        return fock(0, n_max)
    q = lam * lam
    n = np.arange(n_max + 1)
    pmf = (1.0 - q) * q**n
    tail = float(q ** (n_max + 1))
    return _truncate(pmf, tail, max_tail)


def mix(
    a: PhotonDistribution,
    b: PhotonDistribution,
    weight: float = 0.5,
    mode: str = "convex",
    max_tail: float = DEFAULT_TAIL_BOUND,
) -> PhotonDistribution:
    """Combine two distributions.

    Args:
        a: First distribution.
        b: Second distribution.
        weight: Weight of ``a`` in [0, 1].  Used only in convex mode.
        mode: ``"convex"`` for the statistical mixture
            ``weight * a + (1 - weight) * b``; ``"convolve"`` for the
            distribution of the summed photon number of independent fields
            (weight is ignored).
        max_tail: Largest folded tail mass accepted in convolve mode.
    """
    if mode == "convex":
        if not 0.0 <= weight <= 1.0:
            raise DomainError(f"weight must lie in [0, 1], got {weight}")
        if a.probs.size != b.probs.size:
            raise ShapeError(
                f"length mismatch: {a.probs.size} vs {b.probs.size} entries"
            )
        return PhotonDistribution(
            weight * a.probs + (1.0 - weight) * b.probs,
            weight * a.tail_mass + (1.0 - weight) * b.tail_mass,
        )
    if mode == "convolve":
        full = np.convolve(a.probs, b.probs)
        n_keep = max(a.probs.size, b.probs.size)
        kept = full[:n_keep]
        tail = float(full[n_keep:].sum())
        return _truncate(kept, tail, max_tail)
    raise DomainError(f"mode must be 'convex' or 'convolve', got {mode!r}")
