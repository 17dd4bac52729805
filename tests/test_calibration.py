"""Unit tests for the efficiency self-calibration estimators."""

import math

import numpy as np
import pytest

from photonstats import apply_loss, fock, from_probs
from photonstats.calibration import (
    CountHistogram,
    EstimatorOrder,
    bootstrap_std_err,
    combine_efficiencies,
    conditional_loss_pmf,
    consistency_check,
    double_trigger_efficiencies,
    klyshko_efficiency,
    single_trigger_efficiency,
    transmission_ratio,
)
from photonstats.errors import DomainError, InsufficientDataError, ShapeError

ETA_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def test_conditional_loss_pmf_frozen():
    pmf = conditional_loss_pmf(2, 0.3)
    assert np.allclose(pmf, [0.49, 0.42, 0.09], atol=1e-15)
    assert conditional_loss_pmf(0, 0.7).tolist() == [1.0]


@pytest.mark.parametrize("eta", ETA_GRID)
def test_single_trigger_exact_on_grid(eta):
    est = single_trigger_efficiency(conditional_loss_pmf(1, eta))
    assert abs(est.eta_hat - eta) < 1e-12
    assert est.cross_check < 1e-15
    assert est.order is EstimatorOrder.SINGLE_TRIGGER


@pytest.mark.parametrize("eta", ETA_GRID)
def test_double_trigger_exact_on_grid(eta):
    triple = double_trigger_efficiencies(conditional_loss_pmf(2, eta))
    for est in triple:
        assert abs(est.eta_hat - eta) < 1e-12, est.order


@pytest.mark.parametrize("eta", ETA_GRID)
def test_klyshko_exact_on_grid(eta):
    # counts in exact proportion (1 - eta) : eta
    j = round(eta * 10)
    hist = CountHistogram(np.array([10 - j, j]) * 10**9)
    assert abs(klyshko_efficiency(hist).eta_hat - eta) < 1e-12


def test_klyshko_frozen_paper_scale_values():
    hist = CountHistogram(np.array([627, 373]))
    est = klyshko_efficiency(hist)
    assert est.eta_hat == pytest.approx(0.373, abs=1e-12)
    assert est.std_err == pytest.approx(math.sqrt(0.373 * 0.627 / 1000), rel=1e-12)


def test_single_trigger_paper_values():
    est = single_trigger_efficiency([0.627, 0.373], total=10**6)
    assert est.eta_hat == pytest.approx(0.373, abs=1e-15)
    assert est.cross_check == pytest.approx(0.0, abs=1e-15)
    assert est.std_err == pytest.approx(math.sqrt(0.373 * 0.627 / 1e6), rel=1e-12)


def test_double_j2_biased_up_by_higher_orders():
    # source emitting three photons 10% of the time: j=2 overestimates
    eta = 0.315
    rho = from_probs([0.0, 0.0, 0.9, 0.1])
    cond = apply_loss(rho, eta).probs
    triple = double_trigger_efficiencies(cond)
    assert triple[2].eta_hat >= eta
    assert triple[2].eta_hat == pytest.approx(0.33119, abs=5e-5)


def test_double_j1_undefined_above_half():
    triple = double_trigger_efficiencies([0.2, 0.6, 0.2])
    assert math.isnan(triple[1].eta_hat)
    assert "exceeds 1/2" in triple[1].note
    assert triple[0].defined and triple[2].defined


def test_double_handles_quasi_probabilities():
    triple = double_trigger_efficiencies([-0.01, 0.55, 0.46])
    assert not triple[0].defined and "negative" in triple[0].note


def test_consistency_check_tight_errors_flag_small_spread():
    ests = [
        # realistic triple: spread 0.011 exceeds 3 sigma at these errors
        _est(0.315, 0.001, EstimatorOrder.DOUBLE_J0),
        _est(0.310, 0.002, EstimatorOrder.DOUBLE_J1),
        _est(0.321, 0.002, EstimatorOrder.DOUBLE_J2),
    ]
    consistent, spread = consistency_check(ests, sigma_threshold=3.0)
    assert not consistent
    assert spread == pytest.approx(0.011, abs=1e-12)


def test_consistency_check_passes_within_errors():
    ests = [
        _est(0.315, 0.002, EstimatorOrder.DOUBLE_J0),
        _est(0.316, 0.002, EstimatorOrder.DOUBLE_J1),
        _est(0.314, 0.002, EstimatorOrder.DOUBLE_J2),
    ]
    consistent, spread = consistency_check(ests)
    assert consistent
    assert spread == pytest.approx(0.002, abs=1e-12)


def test_consistency_check_threshold_is_configurable():
    ests = [
        _est(0.315, 0.002, EstimatorOrder.DOUBLE_J0),
        _est(0.319, 0.002, EstimatorOrder.DOUBLE_J1),
    ]
    assert consistency_check(ests, sigma_threshold=3.0)[0]
    assert not consistency_check(ests, sigma_threshold=1.0)[0]


def test_consistency_check_skips_undefined():
    ests = [_est(float("nan"), 0.0, EstimatorOrder.DOUBLE_J1)]
    with pytest.raises(InsufficientDataError):
        consistency_check(ests)


def test_combine_emits_plain_and_weighted():
    ests = [
        _est(0.315, 0.001, EstimatorOrder.DOUBLE_J0),
        _est(0.310, 0.002, EstimatorOrder.DOUBLE_J1),
        _est(0.321, 0.002, EstimatorOrder.DOUBLE_J2),
    ]
    plain, weighted = combine_efficiencies(ests)
    assert plain.eta_hat == pytest.approx((0.315 + 0.310 + 0.321) / 3, abs=1e-12)
    assert plain.std_err == pytest.approx(0.011 / 2, abs=1e-12)
    assert plain.consistent is False
    expected_w = (0.315 / 1e-6 + 0.310 / 4e-6 + 0.321 / 4e-6) / (
        1 / 1e-6 + 1 / 4e-6 + 1 / 4e-6
    )
    assert weighted.eta_hat == pytest.approx(expected_w, rel=1e-12)
    assert weighted.order is EstimatorOrder.WEIGHTED_AVERAGE


def test_combine_with_analytic_zero_errors_falls_back_to_plain():
    ests = [
        _est(0.3, 0.0, EstimatorOrder.DOUBLE_J0),
        _est(0.3, 0.0, EstimatorOrder.DOUBLE_J2),
    ]
    plain, weighted = combine_efficiencies(ests)
    assert weighted.eta_hat == plain.eta_hat == pytest.approx(0.3, abs=1e-15)


def test_transmission_ratio_paper_value():
    with_filter = _est(0.0435, 0.0005, EstimatorOrder.AVERAGE)
    without = _est(0.315, 0.002, EstimatorOrder.AVERAGE)
    tr = transmission_ratio(with_filter, without)
    assert tr.ratio == pytest.approx(0.0435 / 0.315, rel=1e-12)
    assert tr.ratio == pytest.approx(0.138, abs=5e-4)
    expected_rel = math.sqrt((0.0005 / 0.0435) ** 2 + (0.002 / 0.315) ** 2)
    assert tr.std_err == pytest.approx(tr.ratio * expected_rel, rel=1e-12)


def test_std_err_halves_when_counts_quadruple():
    small = klyshko_efficiency(CountHistogram(np.array([627, 373])))
    large = klyshko_efficiency(CountHistogram(np.array([2508, 1492])))
    assert small.std_err / large.std_err == pytest.approx(2.0, rel=1e-12)


def test_bootstrap_matches_delta_method():
    rng = np.random.default_rng(7)
    counts = rng.multinomial(20000, [0.62, 0.36, 0.02])
    hist = CountHistogram(counts)
    delta = klyshko_efficiency(hist).std_err
    boot = bootstrap_std_err(
        hist, lambda h: klyshko_efficiency(h).eta_hat, n_boot=400, seed=11
    )
    assert boot == pytest.approx(delta, rel=0.2)


def test_histogram_validation_and_empty():
    with pytest.raises(DomainError):
        CountHistogram(np.array([1, -2]))
    with pytest.raises(DomainError):
        CountHistogram(np.array([0.5, 0.5]))
    empty = CountHistogram(np.array([0, 0]))
    with pytest.raises(InsufficientDataError):
        empty.to_click_distribution()
    with pytest.raises(InsufficientDataError):
        klyshko_efficiency(empty)


def test_estimator_shape_guards():
    with pytest.raises(ShapeError):
        single_trigger_efficiency([1.0])
    with pytest.raises(ShapeError):
        double_trigger_efficiencies([0.5, 0.5])
    with pytest.raises(DomainError):
        conditional_loss_pmf(2, 1.5)
    with pytest.raises(DomainError):
        conditional_loss_pmf(-1, 0.5)


def test_estimate_to_dict_maps_nan_to_none():
    est = _est(float("nan"), 0.0, EstimatorOrder.DOUBLE_J1)
    assert est.to_dict()["eta_hat"] is None


def test_fock_click_distribution_round_trip():
    hist = CountHistogram(np.array([620, 370, 10]))
    clicks = hist.to_click_distribution()
    assert clicks.probs[1] == pytest.approx(0.37, abs=1e-15)


def _est(eta, err, order):
    from photonstats.calibration import EfficiencyEstimate

    return EfficiencyEstimate(eta_hat=eta, std_err=err, order=order)
