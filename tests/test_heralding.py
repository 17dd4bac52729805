"""Unit tests for trigger models and heralded conditional statistics."""

import itertools

import numpy as np
import pytest

from photonstats.errors import DomainError, TruncationError
from photonstats.heralding import (
    ConditionalStats,
    HeraldConfig,
    TriggerKind,
    herald,
    herald_rate,
    heralded_click_distribution,
    trigger_click_prob,
)


def enumerate_trigger_prob(n, kind, eta, dark):
    """Exact trigger probability by enumerating every photon fate."""
    total = 0.0
    if kind is TriggerKind.SINGLE_APD:
        fates = [("hit", eta), ("lost", 1 - eta)]
        for combo in itertools.product(fates, repeat=n):
            weight = 1.0
            hits = 0
            for name, p in combo:
                weight *= p
                hits += name == "hit"
            p_click = 1.0 if hits else dark
            total += weight * p_click
        return total
    fates = [("a", eta / 2), ("b", eta / 2), ("lost", 1 - eta)]
    for combo in itertools.product(fates, repeat=n):
        weight = 1.0
        a = b = 0
        for name, p in combo:
            weight *= p
            a += name == "a"
            b += name == "b"
        p_a = 1.0 if a else dark
        p_b = 1.0 if b else dark
        total += weight * p_a * p_b
    return total


@pytest.mark.parametrize("kind", [TriggerKind.SINGLE_APD, TriggerKind.DOUBLE_APD_COINCIDENCE])
@pytest.mark.parametrize("eta,dark", [(0.25, 0.0), (0.9, 0.0), (0.6, 0.01)])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_trigger_prob_matches_enumeration(kind, eta, dark, n):
    cfg = HeraldConfig(kind=kind, eta_trigger=eta, dark_click_prob=dark)
    expected = enumerate_trigger_prob(n, kind, eta, dark)
    assert trigger_click_prob(n, cfg) == pytest.approx(expected, abs=1e-12)


def test_double_coincidence_frozen_case():
    # two photons, lossless splitter, no darks: they separate half the time
    cfg = HeraldConfig(kind=TriggerKind.DOUBLE_APD_COINCIDENCE, eta_trigger=1.0)
    assert trigger_click_prob(2, cfg) == pytest.approx(0.5, abs=1e-15)


def test_herald_rate_matches_direct_sum():
    cfg = HeraldConfig(kind=TriggerKind.DOUBLE_APD_COINCIDENCE, eta_trigger=0.4,
                       dark_click_prob=0.002)
    gain = 0.6
    q = gain**2
    n = np.arange(400)
    direct = float(((1 - q) * q**n * trigger_click_prob(n, cfg)).sum())
    assert herald_rate(gain, cfg) == pytest.approx(direct, abs=1e-12)


def test_ideal_resolving_gives_fock_state():
    cfg = HeraldConfig(kind=TriggerKind.IDEAL_K_RESOLVING, resolve_k=2)
    stats = herald(0.5, cfg, n_max=10)
    assert stats.signal_dist.probs[2] == 1.0
    assert stats.herald_rate == pytest.approx((1 - 0.25) * 0.25**2, abs=1e-15)
    assert stats.trigger_label == "t2"


def test_vacuum_source_with_dark_clicks_heralds_vacuum():
    cfg = HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=0.5,
                       dark_click_prob=0.01)
    stats = herald(0.0, cfg, n_max=8)
    assert stats.herald_rate == pytest.approx(0.01, abs=1e-15)
    assert stats.signal_dist.probs[0] == 1.0


def test_low_gain_limit_heralds_single_photon():
    cfg = HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=0.3)
    stats = herald(1e-4, cfg, n_max=8)
    assert stats.signal_dist.probs[1] > 0.9999


def test_zero_rate_raises():
    cfg = HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=0.5)
    with pytest.raises(DomainError):
        herald(0.0, cfg)


def test_truncation_guard_fires_and_can_be_relaxed():
    cfg = HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=0.5)
    with pytest.raises(TruncationError):
        herald(0.9, cfg, n_max=20)
    stats = herald(0.9, cfg, n_max=20, max_tail=0.05)
    assert isinstance(stats, ConditionalStats)
    assert stats.signal_dist.tail_mass < 0.05


def test_single_trigger_conditional_against_direct_formula():
    gain, eta = 0.1414, 0.9
    cfg = HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=eta)
    stats = herald(gain, cfg, n_max=20)
    q = gain**2
    n = np.arange(60)
    weights = (1 - q) * q**n * (1 - (1 - eta) ** n)
    expected = weights / weights.sum()
    assert np.allclose(stats.signal_dist.probs, expected[:21], atol=1e-12)
    # this operating point prepares a one-photon state ~97.8% of the time
    assert stats.signal_dist.probs[1] == pytest.approx(0.978, abs=1e-3)


def test_heralded_clicks_factor_through_forward_model():
    from photonstats import forward_model, uniform_bins

    cfg = HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=0.9)
    clicks = heralded_click_distribution(0.1414, cfg, 0.373, uniform_bins(8), n_max=20)
    stats = herald(0.1414, cfg, n_max=20)
    direct = forward_model(stats.signal_dist, 0.373, uniform_bins(8))
    assert np.allclose(clicks.probs, direct.probs, atol=1e-15)


def test_config_validation_and_round_trip():
    with pytest.raises(DomainError):
        HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=1.3)
    with pytest.raises(DomainError):
        HeraldConfig(kind=TriggerKind.SINGLE_APD, dark_click_prob=1.0)
    with pytest.raises(DomainError):
        herald_rate(1.0, HeraldConfig(kind=TriggerKind.SINGLE_APD))
    cfg = HeraldConfig(kind="double_apd_coincidence", eta_trigger=0.4)
    assert cfg.kind is TriggerKind.DOUBLE_APD_COINCIDENCE
    assert HeraldConfig(**cfg.to_dict()) == cfg
