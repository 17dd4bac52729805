"""Unit tests for the photon-number distribution families."""

import math

import numpy as np
import pytest

from photonstats import distributions as dist
from photonstats.artifacts import RHO_HEADER, float_rows, read_rho, write_csv
from photonstats.errors import DomainError, ShapeError, TruncationError


def poisson_pmf(n, mean):
    # independent oracle, no scipy
    return math.exp(-mean) * mean**n / math.factorial(n)


def test_fock_is_point_mass():
    d = dist.fock(1, n_max=4)
    assert d.probs.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
    assert d.tail_mass == 0.0


@pytest.mark.parametrize("n", range(6))
def test_coherent_matches_poisson_oracle(n):
    d = dist.coherent(0.5, n_max=30)
    assert d.probs[n] == pytest.approx(poisson_pmf(n, 0.5), abs=1e-12)


@pytest.mark.parametrize(
    "mean, n_max",
    [(1e-3, 5), (0.5, 10), (0.5, 30), (3.0, 20), (8.0, 40), (20.0, 20), (25.0, 20)],
)
def test_coherent_tail_matches_poisson_survival(mean, n_max):
    stats = pytest.importorskip("scipy.stats")
    d = dist.coherent(mean, n_max=n_max, max_tail=1.0)
    assert d.tail_mass == pytest.approx(stats.poisson.sf(n_max, mean), rel=1e-12)
    expected = stats.poisson.pmf(np.arange(n_max + 1), mean)
    assert np.allclose(d.probs, expected / expected.sum(), rtol=1e-12, atol=0)


def test_coherent_edge_means():
    assert np.array_equal(dist.coherent(0.0, n_max=5).probs, dist.fock(0, 5).probs)
    assert dist.coherent(0.0, n_max=5).tail_mass == 0.0
    for mean in (math.nan, math.inf):
        with pytest.raises(DomainError):
            dist.coherent(mean)
    with pytest.raises(TruncationError):
        dist.coherent(1e4, n_max=20)


def test_thermal_frozen_values():
    # mean 1 photon: geometric with ratio 1/2
    d = dist.thermal(1.0, n_max=40)
    expected = [0.5, 0.25, 0.125, 0.0625]
    assert np.allclose(d.probs[:4], expected, atol=1e-12)


def test_tms_marginal_frozen_values():
    # gain 0.6: geometric in 0.36 -> (1 - 0.36) * 0.36**n
    d = dist.tms_marginal(0.6, n_max=60)
    assert d.probs[0] == pytest.approx(0.64, abs=1e-12)
    assert d.probs[1] == pytest.approx(0.2304, abs=1e-12)
    assert d.probs[2] == pytest.approx(0.082944, abs=1e-12)


def test_tms_marginal_gain_zero_is_vacuum():
    assert dist.tms_marginal(0.0).probs[0] == 1.0


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
def test_tms_marginal_rejects_gain_outside_unit_interval(bad):
    with pytest.raises(DomainError):
        dist.tms_marginal(bad)


def test_moments_coherent():
    mean, var = dist.moments(dist.coherent(0.8, n_max=40))
    assert mean == pytest.approx(0.8, abs=1e-10)
    assert var == pytest.approx(0.8, abs=1e-10)


def test_moments_thermal():
    mean, var = dist.moments(dist.thermal(0.6, n_max=60))
    assert mean == pytest.approx(0.6, abs=1e-10)
    assert var == pytest.approx(0.6 + 0.36, abs=1e-10)


def test_moments_tms_marginal():
    # geometric with q = 0.09: mean q/(1-q), variance q/(1-q)^2
    mean, var = dist.moments(dist.tms_marginal(0.3, n_max=40))
    assert mean == pytest.approx(0.09 / 0.91, abs=1e-12)
    assert var == pytest.approx(0.09 / 0.91**2, abs=1e-12)


def test_poisson_convolution_closure():
    a = dist.coherent(0.2, n_max=40)
    b = dist.coherent(0.3, n_max=40)
    c = dist.mix(a, b, mode="convolve")
    target = dist.coherent(0.5, n_max=40)
    assert 0.5 * np.abs(c.probs - target.probs).sum() < 1e-9


def test_mix_identity_weight():
    a = dist.thermal(0.4)
    b = dist.coherent(0.7)
    assert np.array_equal(dist.mix(a, b, weight=1.0).probs, a.probs)


def test_mix_convex_halves():
    a = dist.fock(0, n_max=2)
    b = dist.fock(2, n_max=2)
    m = dist.mix(a, b, weight=0.25)
    assert np.allclose(m.probs, [0.25, 0.0, 0.75], atol=1e-15)


def test_mix_rejects_bad_weight_and_mode():
    a = dist.fock(0, n_max=2)
    with pytest.raises(DomainError):
        dist.mix(a, a, weight=1.2)
    with pytest.raises(DomainError):
        dist.mix(a, a, mode="stack")


def test_truncation_rejected_then_overridden():
    # thermal(5) above n_max=20 keeps (5/6)^21 ~ 2.2e-2 of its mass
    with pytest.raises(TruncationError):
        dist.thermal(5.0, n_max=20)
    d = dist.thermal(5.0, n_max=20, max_tail=0.05)
    assert d.tail_mass == pytest.approx((5 / 6) ** 21, rel=1e-12)
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_constructor_rejects_unnormalized_and_negative():
    with pytest.raises(DomainError):
        dist.from_probs([0.5, 0.4])
    with pytest.raises(DomainError):
        dist.from_probs([1.1, -0.1])
    with pytest.raises(ShapeError):
        dist.from_probs([[0.5, 0.5]])
    with pytest.raises(DomainError):
        dist.coherent(-1.0)


def test_csv_round_trip(tmp_path):
    d = dist.coherent(1.3, n_max=25)
    path = tmp_path / "rho.csv"
    write_csv(path, RHO_HEADER, float_rows(d.probs), None)
    assert path.read_text().splitlines()[1] == "n,rho"
    back = dist.from_probs(read_rho(path))
    assert np.array_equal(back.probs, d.probs)
