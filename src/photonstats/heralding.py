"""Heralded signal statistics of a photon-number-correlated pair source.

The source emits n photon pairs with geometric probability
(1 - g^2) g^(2n) where g is the parametric gain.  One arm is monitored by a
trigger detector; conditioning on a trigger click reshapes the
photon-number distribution sent into the signal arm.  Three trigger models
are supported:

* single_apd: one binary detector of efficiency eta_trigger with dark-click
  probability dark_click_prob per pulse,
* double_apd_coincidence: a balanced splitter feeding two such detectors,
  heralding on their coincidence,
* ideal_k_resolving: a perfect photon-number-resolving trigger firing on
  exactly k photons (loss-free and dark-free by definition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Real

import numpy as np

from .detector import ClickDistribution, forward_model
from .distributions import DEFAULT_N_MAX, DEFAULT_TAIL_BOUND, PhotonDistribution
from .errors import DomainError, TruncationError, check_fields


class TriggerKind(str, Enum):
    SINGLE_APD = "single_apd"
    DOUBLE_APD_COINCIDENCE = "double_apd_coincidence"
    IDEAL_K_RESOLVING = "ideal_k_resolving"


TRIGGER_KINDS = tuple(kind.value for kind in TriggerKind)


@dataclass(frozen=True)
class HeraldConfig:
    """Trigger-arm description.

    Attributes:
        kind: Trigger topology.
        eta_trigger: Photon survival probability in the trigger arm.
        dark_click_prob: Per-pulse spurious click probability of each APD.
        resolve_k: Photon number the ideal resolving trigger fires on
            (ignored by the APD kinds).
    """

    kind: TriggerKind
    eta_trigger: float = 1.0
    dark_click_prob: float = 0.0
    resolve_k: int = 1

    RULES = {
        "kind": (str, lambda v: v in TRIGGER_KINDS, f"one of {', '.join(TRIGGER_KINDS)}"),
        "eta_trigger": (Real, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
        "dark_click_prob": (Real, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)"),
        "resolve_k": (
            Real, lambda v: 0 <= v < math.inf and v % 1 == 0, "a nonnegative integer"
        ),
    }

    def __post_init__(self):
        check_fields(self)
        for name, cast in zip(self.RULES, (TriggerKind, float, float, int)):
            object.__setattr__(self, name, cast(getattr(self, name)))

    @property
    def photon_number(self) -> int:
        """Photon number the trigger nominally heralds: 1 for one APD, 2 for
        a coincidence of two, resolve_k for the ideal resolving trigger."""
        nominal = {TriggerKind.SINGLE_APD: 1, TriggerKind.DOUBLE_APD_COINCIDENCE: 2}
        return nominal.get(self.kind, self.resolve_k)

    @property
    def trigger_label(self) -> str:
        return f"t{self.photon_number}"

    def to_dict(self) -> dict:
        return vars(self) | {"kind": self.kind.value}


@dataclass(frozen=True)
class ConditionalStats:
    """Signal-arm photon statistics conditioned on a trigger event."""

    signal_dist: PhotonDistribution
    herald_rate: float
    trigger_label: str


def trigger_click_prob(n, config: HeraldConfig) -> np.ndarray:
    """Probability that the trigger fires given n photons in the trigger arm.

    Accepts a scalar or an array of photon numbers.
    """
    n = np.asarray(n, dtype=float)
    eta = config.eta_trigger
    quiet = 1.0 - config.dark_click_prob
    if config.kind is TriggerKind.SINGLE_APD:
        return 1.0 - quiet * (1.0 - eta) ** n
    if config.kind is TriggerKind.DOUBLE_APD_COINCIDENCE:
        # coincidence = 1 - P(A silent) - P(B silent) + P(both silent)
        one_silent = quiet * (1.0 - eta / 2.0) ** n
        both_silent = quiet**2 * (1.0 - eta) ** n
        return 1.0 - 2.0 * one_silent + both_silent
    return (n == config.resolve_k).astype(float)


def _geometric_series(q: float, x: float) -> float:
    # sum over n of (1 - q) q^n x^n
    return (1.0 - q) / (1.0 - q * x)


def herald_rate(parametric_gain: float, config: HeraldConfig) -> float:
    """Per-pulse trigger probability, summed over all pair numbers in
    closed form (no truncation)."""
    if not 0.0 <= parametric_gain < 1.0:
        raise DomainError(
            f"parametric gain must lie in [0, 1), got {parametric_gain}"
        )
    q = parametric_gain**2
    eta = config.eta_trigger
    quiet = 1.0 - config.dark_click_prob
    if config.kind is TriggerKind.SINGLE_APD:
        return 1.0 - quiet * _geometric_series(q, 1.0 - eta)
    if config.kind is TriggerKind.DOUBLE_APD_COINCIDENCE:
        return (
            1.0
            - 2.0 * quiet * _geometric_series(q, 1.0 - eta / 2.0)
            + quiet**2 * _geometric_series(q, 1.0 - eta)
        )
    return (1.0 - q) * q ** int(config.resolve_k)


def herald(
    parametric_gain: float,
    config: HeraldConfig,
    n_max: int = DEFAULT_N_MAX,
    max_tail: float = DEFAULT_TAIL_BOUND,
) -> ConditionalStats:
    """Condition the signal arm on a trigger event.

    Perfect pair correlation means the signal arm carries exactly the pair
    number n, reweighted by the trigger response:
    signal_dist(n) proportional to (1 - g^2) g^(2n) * P(trigger | n).

    Raises:
        DomainError: If the trigger can never fire (zero herald rate).
        TruncationError: If the conditional weight beyond n_max exceeds
            max_tail relative to the herald rate.
    """
    rate = herald_rate(parametric_gain, config)
    if rate <= 0.0:
        raise DomainError(
            "herald rate is zero: a dark source with no dark clicks never triggers"
        )
    if config.kind is TriggerKind.IDEAL_K_RESOLVING and config.resolve_k > n_max:
        raise TruncationError(
            f"resolve_k={config.resolve_k} lies above the cutoff n_max={n_max}"
        )
    q = parametric_gain**2
    n = np.arange(n_max + 1)
    pair_probs = (1.0 - q) * q ** n.astype(float)
    weights = pair_probs * trigger_click_prob(n, config)
    kept = weights.sum() / rate
    tail = max(1.0 - kept, 0.0)
    if tail > max_tail:
        raise TruncationError(
            f"conditional tail mass {tail:.3e} beyond n_max={n_max} exceeds "
            f"{max_tail:.1e}; raise n_max or lower the gain"
        )
    dist = PhotonDistribution(weights / weights.sum(), tail)
    return ConditionalStats(dist, rate, config.trigger_label)


def heralded_click_distribution(
    parametric_gain: float,
    config: HeraldConfig,
    eta_signal: float,
    bin_probs,
    n_max: int = DEFAULT_N_MAX,
) -> ClickDistribution:
    """Analytic click statistics of the heralded signal after loss and the
    binary-bin detector bank."""
    stats = herald(parametric_gain, config, n_max)
    return forward_model(stats.signal_dist, eta_signal, bin_probs)
