"""Unit tests for the Mandel Q and B(n) witnesses."""

import json
import math

import numpy as np
import pytest

from photonstats import (
    ClickDistribution,
    apply_loss,
    coherent,
    fock,
    forward_model,
    from_probs,
    thermal,
    tms_marginal,
    uniform_bins,
)
from photonstats.artifacts import B_HEADER, float_rows, write_csv
from photonstats.errors import DomainError, ShapeError
from photonstats.nonclassicality import (
    b_criterion,
    b_std_err,
    b_sweep,
    mandel_q,
    mandel_q_std_err,
    report,
)


def q_by_hand(probs):
    """Mandel Q from explicit moment sums, independent of the library."""
    mean = math.fsum(n * p for n, p in enumerate(probs))
    second = math.fsum(n * n * p for n, p in enumerate(probs))
    var = second - mean * mean
    return (var - mean) / mean


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_mandel_q_fock_is_minus_one(n):
    assert mandel_q(fock(n, n_max=10)) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("mu", [0.2, 0.9, 3.0])
def test_mandel_q_coherent_is_zero(mu):
    assert mandel_q(coherent(mu, n_max=30)) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("mu", [0.3, 0.8, 1.5])
def test_mandel_q_thermal_equals_mean(mu):
    assert mandel_q(thermal(mu, n_max=80)) == pytest.approx(mu, abs=1e-9)


def test_mandel_q_bernoulli_frozen():
    # detected single-photon clicks: mean 0.373, variance 0.373*0.627
    assert mandel_q([0.627, 0.373]) == pytest.approx(-0.373, abs=1e-12)


def test_mandel_q_matches_hand_moments():
    probs = from_probs([0.1, 0.25, 0.3, 0.2, 0.1, 0.05])
    assert mandel_q(probs) == pytest.approx(q_by_hand(probs.probs), abs=1e-12)


def test_mandel_q_vacuum_rejected():
    with pytest.raises(DomainError):
        mandel_q(fock(0, n_max=4))
    with pytest.raises(ShapeError):
        mandel_q(np.zeros((2, 2)))


@pytest.mark.parametrize("eta", [0.25, 0.55, 0.9])
@pytest.mark.parametrize(
    "state",
    [
        fock(1, n_max=6),
        fock(3, n_max=8),
        thermal(0.6, n_max=60),
        coherent(1.2, n_max=40),
        tms_marginal(0.55, n_max=80),
        from_probs([0.1, 0.2, 0.3, 0.25, 0.15]),
    ],
)
def test_mandel_q_thinning_identity(eta, state):
    # binomial loss scales Q linearly: Q(L(eta) rho) = eta * Q(rho)
    lossy = apply_loss(state, eta)
    assert mandel_q(lossy) == pytest.approx(eta * mandel_q(state), abs=1e-9)


@pytest.mark.parametrize("mu", [0.3, 1.0, 2.5])
def test_b_criterion_zero_for_poissonian(mu):
    p = coherent(mu, n_max=25)
    values = b_sweep(p)
    assert values.size == 24
    assert np.max(np.abs(values)) < 1e-12


def test_b_criterion_frozen_values():
    assert b_criterion([0.03, 0.97, 0.0], 0) == pytest.approx(-0.9409, abs=1e-12)
    assert b_criterion(fock(1, n_max=3), 0) == pytest.approx(-1.0, abs=1e-15)
    assert b_criterion(fock(1, n_max=3), 1) == 0.0


def test_b_sweep_matches_pointwise():
    rng = np.random.default_rng(7)
    probs = rng.dirichlet(np.ones(9))
    values = b_sweep(probs)
    assert values.shape == (7,)
    for n in range(7):
        assert values[n] == pytest.approx(b_criterion(probs, n), abs=1e-15)


def test_b_criterion_range_guard():
    with pytest.raises(DomainError):
        b_criterion([0.5, 0.5, 0.0], 1)
    with pytest.raises(DomainError):
        b_criterion([0.5, 0.5, 0.0], -1)
    assert b_sweep([0.5, 0.5]).size == 0


def test_mandel_q_std_err_bernoulli_closed_form():
    # two-point support: Q = -p(1), so its error is the binomial error on p(1)
    p1, total = 0.373, 50_000
    expected = math.sqrt(p1 * (1 - p1) / total)
    assert mandel_q_std_err([1 - p1, p1], total) == pytest.approx(expected, rel=1e-12)


def test_delta_method_errors_match_bootstrap():
    rng = np.random.default_rng(11)
    base = thermal(0.5, n_max=12).probs
    total = 200_000
    qs, bs = [], []
    for _ in range(400):
        sample = rng.multinomial(total, base) / total
        qs.append(mandel_q(sample))
        bs.append(b_criterion(sample, 0))
    q_err = mandel_q_std_err(base, total)
    b_err = b_std_err(base, 0, total)
    assert q_err == pytest.approx(np.std(qs), rel=0.15)
    assert b_err == pytest.approx(np.std(bs), rel=0.15)


def test_std_err_guards():
    with pytest.raises(DomainError):
        mandel_q_std_err([0.5, 0.5], 0)
    with pytest.raises(DomainError):
        b_std_err([0.5, 0.3, 0.2], 0, -5)
    with pytest.raises(DomainError):
        b_std_err([0.5, 0.5], 0, 100)


def test_report_lossy_single_photon():
    rho = from_probs([0.03, 0.97, 0.0, 0.0])
    clicks = forward_model(rho, 0.373, uniform_bins(8))
    rep = report(rho, clicks)
    assert rep.q_detected < 0
    assert rep.q_inferred == pytest.approx(-0.97, abs=1e-12)
    assert abs(rep.q_detected) < abs(rep.q_inferred)
    assert rep.q_negative
    assert rep.p_negativity_witnessed
    assert rep.notes == ()


@pytest.mark.parametrize("eta", [0.3, 0.55, 0.9])
def test_detected_q_is_milder_than_inferred(eta):
    rho = from_probs([0.05, 0.9, 0.05, 0.0, 0.0])
    clicks = forward_model(rho, eta, uniform_bins(8))
    assert abs(mandel_q(clicks)) < abs(mandel_q(rho))


def test_report_poissonian_sets_no_flags():
    p = coherent(0.9, n_max=20)
    clicks = ClickDistribution(coherent(0.3, n_max=12).probs)
    rep = report(p, clicks)
    assert not rep.q_negative
    assert not rep.p_negativity_witnessed
    assert rep.q_detected == pytest.approx(0.0, abs=1e-9)
    assert rep.q_inferred == pytest.approx(0.0, abs=1e-9)


def test_report_vacuum_noted_not_raised():
    rep = report(fock(0, n_max=4), ClickDistribution([1.0, 0.0, 0.0]))
    assert rep.q_detected is None
    assert rep.q_inferred is None
    assert not rep.q_negative
    assert not rep.p_negativity_witnessed
    assert len(rep.notes) == 2


def test_report_empirical_tolerance_masks_noise():
    # a one-sigma negative B on a Poissonian must not set the flag at 3 sigma
    probs = coherent(0.8, n_max=10).probs.copy()
    probs[1] += 6e-3
    probs /= probs.sum()
    tol = 3 * b_std_err(probs, 0, 10_000)
    b0 = b_criterion(probs, 0)
    assert -tol < b0 < 0
    rep = report(from_probs(probs), tol=tol)
    assert not rep.p_negativity_witnessed
    assert not rep.q_negative


def test_report_serialization_round_trip(tmp_path):
    rho = from_probs([0.03, 0.97, 0.0, 0.0])
    rep = report(rho, forward_model(rho, 0.5, uniform_bins(4)))
    clone = json.loads(json.dumps(rep.to_dict()))
    assert clone["q_inferred"] == rep.q_inferred
    assert clone["q_detected"] == rep.q_detected
    assert np.array_equal(clone["b_values"], rep.b_values)
    assert clone["q_negative"] == rep.q_negative
    path = tmp_path / "b.csv"
    write_csv(path, B_HEADER, float_rows(rep.b_values), None)
    rows = path.read_text().strip().splitlines()
    assert rows[1] == "n,b"
    assert len(rows) == 2 + rep.b_values.size
    assert float(rows[2].split(",")[1]) == rep.b_values[0]
