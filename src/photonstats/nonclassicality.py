"""Nonclassicality witnesses on photon-number and click statistics.

Two witnesses, both computable from a measured or reconstructed number
distribution without phase information:

* Mandel Q, the normalized variance excess (variance - mean)/mean.
  Q >= 0 for every classical (P-positive) state; any negative value
  certifies sub-Poissonian light.
* B(n) = (n+2) rho(n) rho(n+2) - (n+1) rho(n+1)^2, a three-point moment
  inequality.  A classical state satisfies B(n) >= 0 for every n, so a
  single negative entry witnesses P-function negativity.

Q evaluated on a click distribution treats clicks as photon counts.  That
is a convention, not an approximation claim: clicks undercount photons,
and the undercount is exactly why detected Q is milder than inferred Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import ClickDistribution
from .distributions import PhotonDistribution
from .errors import DomainError, ShapeError

DEFAULT_TOL = 1e-9


def _probs_of(p) -> np.ndarray:
    if isinstance(p, (PhotonDistribution, ClickDistribution)):
        return np.asarray(p.probs, dtype=float)
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ShapeError("statistics must be a nonempty 1-D probability vector")
    return arr


def mandel_q(p) -> float:
    """Mandel Q parameter (variance - mean)/mean of a count distribution.

    Accepts a PhotonDistribution, a ClickDistribution, or a bare
    probability vector.  Undefined for vacuum.
    """
    probs = _probs_of(p)
    n = np.arange(probs.size, dtype=float)
    mean = float(n @ probs)
    if mean <= 0.0:
        raise DomainError("Mandel Q is undefined at zero mean (vacuum statistics)")
    second = float((n * n) @ probs)
    variance = second - mean * mean
    return (variance - mean) / mean


def mandel_q_std_err(p, total_counts: int) -> float:
    """Delta-method standard error of Mandel Q under multinomial sampling.

    total_counts is the number of events behind the empirical vector p.
    """
    if total_counts < 1:
        raise DomainError(f"total_counts must be at least 1, got {total_counts}")
    probs = _probs_of(p)
    n = np.arange(probs.size, dtype=float)
    mean = float(n @ probs)
    if mean <= 0.0:
        raise DomainError("Mandel Q is undefined at zero mean (vacuum statistics)")
    second = float((n * n) @ probs)
    # gradient of Q = second/mean - mean - 1 in the probabilities
    grad = n * n / mean - second * n / mean**2 - n
    centered = grad - float(probs @ grad)
    variance = float(probs @ centered**2) / total_counts
    return float(np.sqrt(max(variance, 0.0)))


def b_criterion(p, n: int) -> float:
    """Three-point witness B(n) = (n+2) p(n) p(n+2) - (n+1) p(n+1)^2.

    Requires support up to n+2; negative output at any n certifies a
    nonclassical distribution.
    """
    probs = _probs_of(p)
    if n < 0 or n + 2 >= probs.size:
        raise DomainError(
            f"B({n}) needs probabilities up to n={n + 2}, have n_max={probs.size - 1}"
        )
    return float((n + 2) * probs[n] * probs[n + 2] - (n + 1) * probs[n + 1] ** 2)


def b_std_err(p, n: int, total_counts: int) -> float:
    """Delta-method standard error of B(n) under multinomial sampling."""
    if total_counts < 1:
        raise DomainError(f"total_counts must be at least 1, got {total_counts}")
    probs = _probs_of(p)
    if n < 0 or n + 2 >= probs.size:
        raise DomainError(
            f"B({n}) needs probabilities up to n={n + 2}, have n_max={probs.size - 1}"
        )
    grad = np.zeros(probs.size)
    grad[n] = (n + 2) * probs[n + 2]
    grad[n + 1] = -2.0 * (n + 1) * probs[n + 1]
    grad[n + 2] = (n + 2) * probs[n]
    centered = grad - float(probs @ grad)
    variance = float(probs @ centered**2) / total_counts
    return float(np.sqrt(max(variance, 0.0)))


def b_sweep(p) -> np.ndarray:
    """B(n) for every n with support, n = 0 .. n_max - 2."""
    probs = _probs_of(p)
    if probs.size < 3:
        return np.zeros(0)
    n = np.arange(probs.size - 2, dtype=float)
    return (n + 2) * probs[:-2] * probs[2:] - (n + 1) * probs[1:-1] ** 2


@dataclass(frozen=True)
class NonclassicalityReport:
    """Witness values for one dataset, on both sides of the reconstruction.

    q_detected is Q of the raw click statistics (clicks read as counts);
    q_inferred is Q of the loss-corrected photon-number distribution, and
    the flags are evaluated on the inferred side against tol.  Either Q is
    None when the corresponding statistics are vacuum.
    """

    q_detected: float | None
    q_inferred: float | None
    b_values: np.ndarray
    q_negative: bool
    p_negativity_witnessed: bool
    tol: float
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        b = np.asarray(self.b_values, dtype=float)
        b.setflags(write=False)
        object.__setattr__(self, "b_values", b)

    def to_dict(self) -> dict:
        return {
            "q_detected": self.q_detected,
            "q_inferred": self.q_inferred,
            "b_values": [float(x) for x in self.b_values],
            "q_negative": self.q_negative,
            "p_negativity_witnessed": self.p_negativity_witnessed,
            "tol": self.tol,
            "notes": list(self.notes),
        }


def report(
    p: PhotonDistribution,
    clicks: ClickDistribution | None = None,
    tol: float = DEFAULT_TOL,
) -> NonclassicalityReport:
    """Evaluate both witnesses on a reconstruction and its click data.

    tol is the negativity threshold for the flags; pass a few delta-method
    standard errors for empirical inputs so flags stay statistically
    meaningful, or leave the roundoff-level default for analytic inputs.
    """
    if not tol >= 0.0:
        raise DomainError(f"tolerance must be nonnegative, got {tol}")
    notes: list[str] = []
    q_detected = None
    if clicks is not None:
        try:
            q_detected = mandel_q(clicks)
        except DomainError:
            notes.append("detected statistics are vacuum; Q undefined")
    try:
        q_inferred = mandel_q(p)
    except DomainError:
        q_inferred = None
        notes.append("inferred statistics are vacuum; Q undefined")
    b_values = b_sweep(p)
    q_negative = q_inferred is not None and q_inferred < -tol
    witnessed = bool(b_values.size) and float(b_values.min()) < -tol
    return NonclassicalityReport(
        q_detected=q_detected,
        q_inferred=q_inferred,
        b_values=b_values,
        q_negative=q_negative,
        p_negativity_witnessed=witnessed,
        tol=tol,
        notes=tuple(notes),
    )
