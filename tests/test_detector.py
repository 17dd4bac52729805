"""Unit tests for the loss and bin-convolution detector model."""

import itertools
import math

import numpy as np
import pytest

from photonstats import (
    apply_loss,
    convolution_matrix,
    fock,
    forward_model,
    from_probs,
    loss_matrix,
    tms_marginal,
    uniform_bins,
)
from photonstats.detector import ClickDistribution
from photonstats.errors import DomainError



def fiber_loop_bins(n_bins):
    """Routing of a fiber-loop multiplexer that falls off by 7 % per bin."""
    weights = 0.93 ** np.arange(n_bins)
    return weights / weights.sum()


def brute_force_click_probs(bin_probs, n):
    """Occupied-bin-count pmf by exact enumeration of all assignments."""
    n_bins = len(bin_probs)
    pmf = [0.0] * (n_bins + 1)
    for assignment in itertools.product(range(n_bins), repeat=n):
        weight = 1.0
        for b in assignment:
            weight *= bin_probs[b]
        pmf[len(set(assignment))] += weight
    return pmf


@pytest.mark.parametrize("n_bins", [2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_convolution_matches_enumeration_uniform(n_bins, n):
    cm = convolution_matrix(uniform_bins(n_bins), n_max=6)
    expected = brute_force_click_probs([1.0 / n_bins] * n_bins, n)
    assert np.allclose(cm.matrix[:, n], expected, atol=1e-12)


@pytest.mark.parametrize(
    "bins, n",
    [([0.4, 0.3, 0.2, 0.1], n) for n in range(7)]
    + [(list(fiber_loop_bins(17)), n) for n in range(4)],
    ids=[str(n) for n in range(7)] + [f"fiber17-{n}" for n in range(4)],
)
def test_convolution_matches_enumeration_skewed_bins(bins, n):
    cm = convolution_matrix(bins, n_max=6)
    expected = brute_force_click_probs(bins, n)
    assert np.allclose(cm.matrix[:, n], expected, atol=1e-12)


def test_convolution_frozen_entries():
    # two survivors on 8 equal bins: same bin with probability 1/8
    cm = convolution_matrix(uniform_bins(8), n_max=4)
    assert cm.matrix[1, 2] == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert cm.matrix[2, 2] == pytest.approx(7.0 / 8.0, abs=1e-15)


def test_convolution_columns_stochastic():
    for bins in (uniform_bins(8), np.array([0.5, 0.2, 0.2, 0.1])):
        cm = convolution_matrix(bins, n_max=20)
        assert np.allclose(cm.matrix.sum(axis=0), 1.0, atol=1e-12)
        assert np.min(cm.matrix) >= -1e-15


def test_convolution_impossible_click_counts_vanish():
    cm = convolution_matrix(uniform_bins(4), n_max=8)
    for n in range(9):
        for k in range(5):
            if k > min(n, 4):
                assert cm.matrix[k, n] == 0.0


def test_convolution_unequal_bins_have_no_cancellation_error():
    # an inclusion-exclusion over bin subsets dips to -6.6e-12 here
    cm = convolution_matrix(fiber_loop_bins(16), n_max=32)
    assert np.min(cm.matrix) >= 0.0
    assert np.max(np.abs(cm.matrix.sum(axis=0) - 1.0)) <= 1e-14


@pytest.mark.parametrize(
    "build",
    [
        lambda: convolution_matrix([np.nan, np.nan], n_max=4),
        lambda: convolution_matrix([np.inf, 0.5], n_max=4),
        lambda: ClickDistribution(np.array([np.nan, np.nan])),
        lambda: from_probs([np.nan, 1.0]),
    ],
    ids=["nan_bins", "infinite_bin", "nan_clicks", "nan_photons"],
)
def test_validators_reject_non_finite_entries(build):
    with pytest.raises(DomainError, match="non-finite"):
        build()


def test_uniform_bins_validation():
    with pytest.raises(DomainError):
        uniform_bins(0)
    with pytest.raises(DomainError):
        convolution_matrix([0.7, 0.2], n_max=4)


def test_loss_semigroup():
    n_max = 20
    first = loss_matrix(0.8, n_max).matrix
    second = loss_matrix(0.5, n_max).matrix
    combined = loss_matrix(0.4, n_max).matrix
    assert np.allclose(second @ first, combined, atol=1e-12)


def test_loss_columns_stochastic():
    lm = loss_matrix(0.373, 20)
    assert np.allclose(lm.matrix.sum(axis=0), 1.0, atol=1e-12)


def test_loss_on_single_photon_is_bernoulli():
    d = apply_loss(fock(1, n_max=3), 0.373)
    assert np.allclose(d.probs, [0.627, 0.373, 0.0, 0.0], atol=1e-15)
    assert d.mean() == pytest.approx(0.373, abs=1e-15)
    assert d.variance() == pytest.approx(0.373 * 0.627, abs=1e-15)


def test_loss_binomial_oracle():
    # three photons at eta = 0.42, pmf from exact binomial formula
    eta = 0.42
    d = apply_loss(fock(3, n_max=5), eta)
    expected = [math.comb(3, m) * eta**m * (1 - eta) ** (3 - m) for m in range(4)]
    assert np.allclose(d.probs[:4], expected, atol=1e-14)


def test_loss_identity_and_total_loss():
    p = tms_marginal(0.4, n_max=15)
    assert np.allclose(apply_loss(p, 1.0).probs, p.probs, atol=1e-15)
    total = apply_loss(p, 0.0)
    assert total.probs[0] == pytest.approx(1.0, abs=1e-12)


def test_loss_rejects_bad_eta():
    with pytest.raises(DomainError):
        loss_matrix(1.2)
    with pytest.raises(DomainError):
        loss_matrix(-0.1)


def test_forward_model_single_photon_frozen():
    clicks = forward_model(fock(1, n_max=6), 0.373, uniform_bins(8))
    assert clicks.probs[0] == pytest.approx(0.627, abs=1e-14)
    assert clicks.probs[1] == pytest.approx(0.373, abs=1e-14)
    assert np.allclose(clicks.probs[2:], 0.0, atol=1e-15)


def test_forward_model_two_photons_two_bins():
    # lossless pair on two bins: both land together with probability 1/2
    clicks = forward_model(fock(2, n_max=4), 1.0, uniform_bins(2))
    assert np.allclose(clicks.probs, [0.0, 0.5, 0.5], atol=1e-14)


def test_compose_matches_forward_model():
    p = tms_marginal(0.35, n_max=12)
    cm = convolution_matrix(uniform_bins(8), n_max=12)
    lm = loss_matrix(0.6, n_max=12)
    chain = cm.matrix @ lm.matrix
    direct = forward_model(p, 0.6, uniform_bins(8))
    assert np.allclose(chain @ p.probs, direct.probs, atol=1e-14)
    assert np.allclose(chain.sum(axis=0), 1.0, atol=1e-12)


def test_click_distribution_validation():
    with pytest.raises(DomainError):
        ClickDistribution(np.array([0.6, 0.6]))
    d = ClickDistribution(np.array([0.5, 0.5]))
    assert d.mean() == pytest.approx(0.5)


def test_from_probs_preserves_vector():
    vec = np.array([0.2, 0.3, 0.5])
    assert np.allclose(from_probs(vec).probs, vec, atol=1e-15)
