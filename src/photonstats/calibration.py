"""Channel-efficiency self-calibration from heralded conditional statistics.

When the source is perfectly pair-correlated, conditioning on a k-photon
trigger leaves exactly k photons in the signal arm, so the conditional
photon-number distribution after loss eta is binomial:

    p(n | t=k) = C(k, n) eta^n (1 - eta)^(k-n)

Every entry of that pmf is therefore an independent handle on eta.  The
estimators below each use one entry (or the click/no-click split); their
mutual agreement is itself a test of the correlation assumption, so a
calibration that is internally inconsistent flags an invalid source model
rather than just a noisy measurement.

All estimators consume photon-number-resolved conditional statistics, i.e.
click data that has already been corrected for the bin-convolution of the
multiplexed detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .detector import ClickDistribution
from .errors import DomainError, InsufficientDataError, ShapeError

DEFAULT_SIGMA_THRESHOLD = 3.0


class EstimatorOrder(str, Enum):
    KLYSHKO = "klyshko"
    SINGLE_TRIGGER = "single_trigger"
    DOUBLE_J0 = "j0"
    DOUBLE_J1 = "j1"
    DOUBLE_J2 = "j2"
    AVERAGE = "average"
    WEIGHTED_AVERAGE = "weighted_average"


@dataclass(frozen=True)
class CountHistogram:
    """Raw occupied-bin counts recorded under one trigger outcome."""

    counts: np.ndarray
    trigger_label: str = "t1"

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or counts.size == 0:
            raise ShapeError("counts must be a nonempty 1-D vector")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(counts == np.floor(counts)):
                raise DomainError("counts must be integers")
        if np.any(counts < 0):
            raise DomainError("counts must be nonnegative")
        counts = counts.astype(np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_click_distribution(self) -> ClickDistribution:
        if self.total == 0:
            raise InsufficientDataError(
                f"histogram {self.trigger_label!r} holds no counts"
            )
        return ClickDistribution(self.counts / self.total)


@dataclass(frozen=True)
class EfficiencyEstimate:
    """One efficiency estimate with its provenance.

    eta_hat is NaN when the estimator is undefined on the given data; the
    note says why.  cross_check carries the residual of a redundant
    relation where one exists (single-trigger: |p(0|t=1) - (1 - eta_hat)|).
    """

    eta_hat: float
    std_err: float
    order: EstimatorOrder
    consistent: bool | None = None
    spread: float | None = None
    cross_check: float | None = None
    note: str = ""

    @property
    def defined(self) -> bool:
        return math.isfinite(self.eta_hat)

    def to_dict(self) -> dict:
        def clean(x):
            if x is None or not math.isfinite(x):
                return None
            return float(x)

        return {
            "order": self.order.value,
            "eta_hat": clean(self.eta_hat),
            "std_err": clean(self.std_err),
            "consistent": self.consistent,
            "spread": clean(self.spread) if self.spread is not None else None,
            "cross_check": clean(self.cross_check) if self.cross_check is not None else None,
            "note": self.note,
        }


def conditional_loss_pmf(k: int, eta: float) -> np.ndarray:
    """Binomial pmf of the surviving photon number given k were prepared."""
    if k < 0 or k != int(k):
        raise DomainError(f"photon number must be a nonnegative integer, got {k}")
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"efficiency must lie in [0, 1], got {eta}")
    n = np.arange(int(k) + 1)
    return np.array(
        [math.comb(int(k), int(m)) * eta**m * (1 - eta) ** (int(k) - m) for m in n]
    )


def _binomial_std_err(p: float, total: int | None) -> float:
    if total is None or total <= 0:
        return 0.0
    p = min(max(p, 0.0), 1.0)
    return math.sqrt(p * (1.0 - p) / total)


def klyshko_efficiency(h: CountHistogram) -> EfficiencyEstimate:
    """Classic coincidence-over-singles efficiency: the fraction of heralds
    that produced at least one signal click."""
    total = h.total
    if total == 0:
        raise InsufficientDataError("cannot calibrate from an empty histogram")
    eta = float(h.counts[1:].sum() / total)
    return EfficiencyEstimate(
        eta_hat=eta,
        std_err=_binomial_std_err(eta, total),
        order=EstimatorOrder.KLYSHKO,
    )


def single_trigger_efficiency(p_cond, total: int | None = None) -> EfficiencyEstimate:
    """Efficiency from the one-photon conditional: eta = p(1 | t=1).

    Args:
        p_cond: Conditional photon-number statistics given a single-photon
            trigger (bin-convolution already removed).  May carry small
            negative entries from noisy deconvolution.
        total: Number of heralds behind the statistics, for the standard
            error; omit for analytic inputs.
    """
    p = np.asarray(p_cond, dtype=float)
    if p.size < 2:
        raise ShapeError("need at least entries p(0), p(1)")
    eta = float(p[1])
    note = ""
    if not 0.0 <= eta <= 1.0:
        note = f"p(1|t=1) = {eta:.6f} is not a probability"
        eta = float("nan")
    return EfficiencyEstimate(
        eta_hat=eta,
        std_err=_binomial_std_err(p[1], total),
        order=EstimatorOrder.SINGLE_TRIGGER,
        cross_check=abs(float(p[0]) - (1.0 - eta)) if note == "" else None,
        note=note,
    )


def double_trigger_efficiencies(
    p_cond, total: int | None = None
) -> tuple[EfficiencyEstimate, EfficiencyEstimate, EfficiencyEstimate]:
    """Three independent efficiency estimates from the two-photon conditional.

    Orders j = 0, 1, 2 use p(j | t=2) respectively:

        j=0:  eta = 1 - sqrt(p0)
        j=1:  eta solves 2 eta (1 - eta) = p1 (root picked to match p0)
        j=2:  eta = sqrt(p2), biased upward when the source emits n > 2

    The j=1 relation has no real solution when p1 > 1/2; that estimate is
    returned undefined (NaN) with a diagnostic note.
    """
    p = np.asarray(p_cond, dtype=float)
    if p.size < 3:
        raise ShapeError("need at least entries p(0), p(1), p(2)")
    p0, p1, p2 = float(p[0]), float(p[1]), float(p[2])

    if p0 >= 0.0:
        eta0 = 1.0 - math.sqrt(p0)
        err0 = _binomial_std_err(p0, total) / (2.0 * math.sqrt(p0)) if p0 > 0 else 0.0
        note0 = ""
    else:
        eta0, err0, note0 = float("nan"), 0.0, f"p(0|t=2) = {p0:.6f} is negative"

    if p1 > 0.5:
        eta1, err1 = float("nan"), 0.0
        note1 = f"p(1|t=2) = {p1:.6f} exceeds 1/2; no real efficiency solves it"
    elif p1 < 0.0:
        eta1, err1, note1 = float("nan"), 0.0, f"p(1|t=2) = {p1:.6f} is negative"
    else:
        root = math.sqrt(1.0 - 2.0 * p1)
        low, high = 0.5 * (1.0 - root), 0.5 * (1.0 + root)
        # both roots reproduce p1; the vacuum entry breaks the tie
        eta1 = low if abs((1 - low) ** 2 - p0) <= abs((1 - high) ** 2 - p0) else high
        err1 = (
            _binomial_std_err(p1, total) / (2.0 * root) if root > 0 else float("inf")
        )
        note1 = ""

    if p2 >= 0.0:
        eta2 = math.sqrt(p2)
        err2 = _binomial_std_err(p2, total) / (2.0 * eta2) if p2 > 0 else 0.0
        note2 = ""
    else:
        eta2, err2, note2 = float("nan"), 0.0, f"p(2|t=2) = {p2:.6f} is negative"

    return (
        EfficiencyEstimate(eta0, err0, EstimatorOrder.DOUBLE_J0, note=note0),
        EfficiencyEstimate(eta1, err1, EstimatorOrder.DOUBLE_J1, note=note1),
        EfficiencyEstimate(eta2, err2, EstimatorOrder.DOUBLE_J2, note=note2),
    )


def check_sigma_threshold(sigma_threshold: float) -> None:
    """Reject a NaN or negative consistency threshold."""
    if not sigma_threshold >= 0.0:
        raise DomainError(f"sigma threshold must be nonnegative, got {sigma_threshold}")


def consistency_check(
    estimates, sigma_threshold: float = DEFAULT_SIGMA_THRESHOLD
) -> tuple[bool, float]:
    """Compare independent estimates of the same efficiency.

    Returns (consistent, spread) where spread = max - min over the defined
    estimates and consistency means the spread stays below sigma_threshold
    combined standard errors.  Disagreement beyond that signals a violated
    model assumption (e.g. uncorrelated background masquerading as pairs).
    """
    check_sigma_threshold(sigma_threshold)
    defined = [e for e in estimates if e.defined]
    if len(defined) < 2:
        raise InsufficientDataError(
            f"need at least two defined estimates, got {len(defined)}"
        )
    values = [e.eta_hat for e in defined]
    spread = max(values) - min(values)
    combined = math.sqrt(sum(e.std_err**2 for e in defined))
    if combined == 0.0:
        return spread <= 1e-12, spread
    return spread <= sigma_threshold * combined, spread


def combine_efficiencies(
    estimates, sigma_threshold: float = DEFAULT_SIGMA_THRESHOLD
) -> tuple[EfficiencyEstimate, EfficiencyEstimate]:
    """Plain and inverse-variance-weighted averages of the defined estimates.

    The plain average carries half the spread as its error so the bar
    covers all inputs; the weighted average carries the usual
    1/sqrt(sum of inverse variances).  Zero standard errors (analytic
    inputs) force equal weights.
    """
    defined = [e for e in estimates if e.defined]
    if not defined:
        raise InsufficientDataError("no defined estimates to combine")
    values = np.array([e.eta_hat for e in defined])
    spread = float(values.max() - values.min())
    if len(defined) >= 2:
        consistent, spread = consistency_check(defined, sigma_threshold)
    else:
        consistent = None
    plain = EfficiencyEstimate(
        eta_hat=float(values.mean()),
        std_err=spread / 2.0,
        order=EstimatorOrder.AVERAGE,
        consistent=consistent,
        spread=spread,
    )
    if any(e.std_err == 0.0 for e in defined):
        weighted = replace(plain, order=EstimatorOrder.WEIGHTED_AVERAGE)
    else:
        weights = np.array([1.0 / e.std_err**2 for e in defined])
        weighted = EfficiencyEstimate(
            eta_hat=float((weights * values).sum() / weights.sum()),
            std_err=float(1.0 / math.sqrt(weights.sum())),
            order=EstimatorOrder.WEIGHTED_AVERAGE,
            consistent=consistent,
            spread=spread,
        )
    return plain, weighted


@dataclass(frozen=True)
class TransmissionRatio:
    """Ratio of two calibrated efficiencies, e.g. with and without a filter."""

    ratio: float
    std_err: float


def transmission_ratio(
    eta_with: EfficiencyEstimate, eta_without: EfficiencyEstimate
) -> TransmissionRatio:
    """Transmission of an inserted element from efficiencies measured with
    and without it, errors combined in quadrature."""
    if not (eta_with.defined and eta_without.defined):
        raise DomainError("both efficiency estimates must be defined")
    if eta_without.eta_hat == 0.0:
        raise DomainError("reference efficiency is zero")
    ratio = eta_with.eta_hat / eta_without.eta_hat
    rel = 0.0
    if eta_with.eta_hat != 0.0:
        rel = math.sqrt(
            (eta_with.std_err / eta_with.eta_hat) ** 2
            + (eta_without.std_err / eta_without.eta_hat) ** 2
        )
    return TransmissionRatio(ratio=ratio, std_err=abs(ratio) * rel)


def bootstrap_std_err(
    h: CountHistogram,
    stat: Callable[[CountHistogram], float],
    n_boot: int = 200,
    seed: int | None = None,
) -> float:
    """Standard error of a histogram statistic by multinomial resampling.

    Slower than the delta-method errors reported by the estimators, but
    makes no linearization; useful as a cross-check.
    """
    total = h.total
    if total == 0:
        raise InsufficientDataError("cannot resample an empty histogram")
    rng = np.random.default_rng(seed)
    probs = h.counts / total
    values = []
    for _ in range(n_boot):
        resampled = rng.multinomial(total, probs)
        values.append(stat(CountHistogram(resampled, h.trigger_label)))
    return float(np.std(values, ddof=1))
