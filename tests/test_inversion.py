"""Unit tests for EM and direct inversion of click statistics."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstats import (
    apply_loss,
    coherent,
    convolution_matrix,
    fock,
    forward_model,
    from_probs,
    loss_matrix,
    uniform_bins,
)
from photonstats.artifacts import RHO_HEADER, float_rows, read_rho, write_csv
from photonstats.calibration import CountHistogram
from photonstats.detector import ClickDistribution
from photonstats.distributions import PhotonDistribution
from photonstats.errors import ConditioningError, DomainError, ShapeError
from photonstats.inversion import (
    EmOptions,
    deconvolve_clicks,
    direct_invert,
    em_invert,
    fidelity,
)
from photonstats.nonclassicality import (
    b_criterion,
    b_std_err,
    b_sweep,
    mandel_q,
    mandel_q_std_err,
)
from photonstats.pipeline import calibrate_histogram


def _rational_thinning(eta: Fraction, n_max: int):
    """Exact-rational binomial loss matrix, independent of the library code."""
    rows = []
    for m in range(n_max + 1):
        rows.append(
            [
                math.comb(n, m) * eta**m * (1 - eta) ** (n - m) if m <= n else Fraction(0)
                for n in range(n_max + 1)
            ]
        )
    return rows


@pytest.mark.parametrize("eta", [Fraction(1, 5), Fraction(373, 1000)])
def test_loss_matrix_matches_exact_rationals(eta):
    n_max = 20
    exact = _rational_thinning(eta, n_max)
    fl = loss_matrix(float(eta), n_max).matrix
    for i in range(n_max + 1):
        for j in range(n_max + 1):
            error = abs(Fraction(fl[i, j]) - exact[i][j])
            assert error <= abs(exact[i][j]) * Fraction(1, 10**12)


def test_deconvolve_recovers_survivor_statistics():
    c = convolution_matrix(uniform_bins(8), n_max=12)
    survivors = apply_loss(fock(3, n_max=8), 0.7).probs
    clicks = c.matrix[:, :9] @ survivors
    recovered = deconvolve_clicks(clicks, c)
    assert np.allclose(recovered, survivors, atol=1e-10)


def test_deconvolve_warns_on_quasi_output():
    c = convolution_matrix(uniform_bins(4), n_max=6)
    clicks = np.array([0.5, 0.4, 0.06, 0.04, 0.0])
    clicks[2] -= 0.03  # starve two-click events below what one photon allows
    clicks[1] += 0.03
    result = deconvolve_clicks(clicks, c)
    assert result.min() < -1e-6
    hist = CountHistogram(np.round(clicks * 100).astype(np.int64), trigger_label="t1")
    _, notes = calibrate_histogram(hist, uniform_bins(4), 1)
    note = (
        f"deconvolution: deconvolved statistics dip to {result.min():.3e}; "
        "treating as a quasi-distribution"
    )
    assert note in notes


def test_direct_invert_single_photon_frozen():
    # paper-style operating point: Bernoulli clicks invert to one photon
    c = convolution_matrix(uniform_bins(8), n_max=8)
    clicks = forward_model(fock(1, n_max=8), 0.373, uniform_bins(8))
    result = direct_invert(clicks, 0.373, c)
    expected = np.zeros(9)
    expected[1] = 1.0
    assert np.allclose(result.rho, expected, atol=1e-10)
    assert not result.negativity_flag
    assert result.method == "direct"


def test_direct_invert_two_photons_exact():
    c = convolution_matrix(uniform_bins(8), n_max=8)
    clicks = forward_model(fock(2, n_max=8), 0.315, uniform_bins(8))
    result = direct_invert(clicks, 0.315, c)
    expected = np.zeros(9)
    expected[2] = 1.0
    assert np.allclose(result.rho, expected, atol=1e-9)


@pytest.mark.parametrize("eta", [0.9, 0.373, 0.2])
@pytest.mark.parametrize("k", range(9))
def test_direct_invert_recovers_every_fock_state(k, eta):
    c = convolution_matrix(uniform_bins(8), n_max=8)
    clicks = forward_model(fock(k, n_max=8), eta, uniform_bins(8))
    result = direct_invert(clicks, eta, c)
    assert np.allclose(result.rho, fock(k, n_max=8).probs, rtol=0, atol=1e-12)


def test_direct_invert_flags_negativity_on_inconsistent_data():
    c = convolution_matrix(uniform_bins(8), n_max=8)
    # double clicks far in excess of what the single-click rate supports:
    # no nonnegative photon distribution reproduces this at eta = 0.373
    clicks = np.zeros(9)
    clicks[0], clicks[1], clicks[2] = 0.55, 0.05, 0.40
    result = direct_invert(clicks, 0.373, c)
    assert result.negativity_flag
    assert result.min_entry < -1e-3


def test_direct_invert_condition_refusal_and_override():
    c = convolution_matrix(uniform_bins(8), n_max=8)
    clicks = forward_model(fock(1, n_max=8), 0.012, uniform_bins(8))
    with pytest.raises(ConditioningError):
        direct_invert(clicks, 0.012, c)
    result = direct_invert(clicks, 0.012, c, allow_ill_conditioned=True)
    assert result.condition_number > 1e12


def test_em_recovers_fock2_noiseless():
    # The maximizer is a simplex vertex, which multiplicative updates only
    # approach at rate ~1/iteration, so this run needs the tol = 0 mode and
    # a large sweep budget (about 45 s).
    c = convolution_matrix(uniform_bins(8), n_max=8)
    clicks = forward_model(fock(2, n_max=8), 0.315, uniform_bins(8))
    result = em_invert(clicks, 0.315, c, EmOptions(n_max=8, tol=0.0, max_iter=5_000_000))
    truth = fock(2, n_max=8).probs
    assert 0.5 * np.abs(result.rho - truth).sum() < 1e-6


@pytest.mark.parametrize("eta", [0.55, 0.7, 0.9])
def test_em_noiseless_recovery_total_variation(eta):
    c = convolution_matrix(uniform_bins(8), n_max=8)
    truth = from_probs([0.01, 0.9, 0.07, 0.02, 0, 0, 0, 0, 0])
    clicks = c.matrix @ apply_loss(truth, eta).probs
    result = em_invert(clicks, eta, c, EmOptions(n_max=8, tol=1e-14))
    assert 0.5 * np.abs(result.rho - truth.probs).sum() < 1e-6


def test_em_log_likelihood_monotone_on_noisy_data():
    rng = np.random.default_rng(42)
    c = convolution_matrix(uniform_bins(8), n_max=20)
    clicks = forward_model(fock(1, n_max=20), 0.373, uniform_bins(8))
    counts = rng.multinomial(100_000, clicks.probs)
    result = em_invert(CountHistogram(counts), 0.373, c)
    trace = np.array(result.log_likelihood_trace)
    assert np.all(np.diff(trace) >= 0)
    assert result.converged


def test_em_fixed_point_when_model_matches_data():
    c = convolution_matrix(uniform_bins(8), n_max=8)
    truth = from_probs([0.05, 0.85, 0.08, 0.02, 0, 0, 0, 0, 0])
    # apply the EM update map once at the truth; click rows the model
    # cannot reach carry no data and are skipped, as in the solver
    clicks = c.matrix @ apply_loss(truth, 0.6).probs
    response = c.matrix @ loss_matrix(0.6, 8).matrix
    model = response @ truth.probs
    ratio = np.zeros_like(clicks)
    live = model > 0
    ratio[live] = clicks[live] / model[live]
    moved = truth.probs * (response.T @ ratio)
    assert np.max(np.abs(moved - truth.probs)) < 1e-12


def test_em_preserves_normalization():
    rng = np.random.default_rng(3)
    c = convolution_matrix(uniform_bins(8), n_max=20)
    clicks = forward_model(coherent(0.8, n_max=20), 0.45, uniform_bins(8))
    counts = rng.multinomial(50_000, clicks.probs)
    result = em_invert(CountHistogram(counts), 0.45, c)
    assert result.rho.sum() == pytest.approx(1.0, abs=1e-9)
    assert result.rho.min() >= 0


def test_em_accepts_histogram_clicks_and_vector():
    c = convolution_matrix(uniform_bins(4), n_max=6)
    clicks = forward_model(fock(1, n_max=6), 0.5, uniform_bins(4))
    a = em_invert(clicks, 0.5, c, EmOptions(n_max=6))
    b = em_invert(clicks.probs, 0.5, c, EmOptions(n_max=6))
    assert np.allclose(a.rho, b.rho, atol=1e-12)


def test_em_trace_grows_with_sweeps_not_budget():
    # a budget of 10^12 sweeps must not preallocate 10^12 trace entries
    c = convolution_matrix(uniform_bins(4), n_max=6)
    clicks = forward_model(fock(1, n_max=6), 0.5, uniform_bins(4))
    result = em_invert(clicks, 0.5, c, EmOptions(max_iter=10**12, n_max=6))
    assert result.converged
    assert result.log_likelihood_trace.size == result.iterations + 1


def test_em_rejects_impossible_clicks():
    c = convolution_matrix(uniform_bins(4), n_max=2)
    freq = np.array([0.5, 0.3, 0.1, 0.1, 0.0])
    with pytest.raises(DomainError):
        em_invert(freq, 0.5, c, EmOptions(n_max=2))


def test_em_shape_guards():
    c = convolution_matrix(uniform_bins(4), n_max=6)
    with pytest.raises(ShapeError):
        em_invert(np.array([1.0, 0, 0, 0, 0]), 0.5, c, EmOptions(n_max=10))
    with pytest.raises(DomainError):
        em_invert(np.array([1.0, 0, 0, 0, 0]), 0.0, c, EmOptions(n_max=4))
    with pytest.raises(ShapeError):
        em_invert(np.array([0.5, 0.3, 0, 0, 0, 0.2, 0.0]), 0.5, c, EmOptions(n_max=4))


def test_fidelity_basics():
    a = fock(1, n_max=5)
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(fock(0, n_max=3), fock(1, n_max=3)) == 0.0
    padded = fidelity(fock(2, n_max=4), fock(2, n_max=9))
    assert padded == pytest.approx(1.0, abs=1e-15)


def test_fidelity_frozen_value():
    # overlap of two Bernoulli-like vectors, computed by hand
    f = fidelity([0.5, 0.5], [0.9, 0.1])
    expected = (math.sqrt(0.45) + math.sqrt(0.05)) ** 2
    assert f == pytest.approx(expected, abs=1e-12)


def test_result_serialization(tmp_path):
    c = convolution_matrix(uniform_bins(8), n_max=8)
    clicks = forward_model(fock(1, n_max=8), 0.5, uniform_bins(8))
    result = em_invert(clicks, 0.5, c, EmOptions(n_max=8))
    d = result.to_dict()
    assert d["method"] == "em"
    assert d["converged"] is True
    assert d["log_likelihood_final"] == result.log_likelihood_trace[-1]
    path = tmp_path / "rho.csv"
    write_csv(path, RHO_HEADER, float_rows(result.rho), None)
    lines = path.read_text().strip().splitlines()
    assert lines[1] == "n,rho"
    assert len(lines) == result.rho.size + 2
    assert np.array_equal(read_rho(path), result.rho)


# ------------------------------------------------------------ vector contract

C4 = convolution_matrix(uniform_bins(4), n_max=4)
EM4 = EmOptions(n_max=4, max_iter=10)


@pytest.mark.parametrize(
    "vector",
    [
        [np.nan, 0.5, 0.5, 0.0, 0.0],
        [np.inf, 0.5, 0.5, 0.0, 0.0],
        [-0.5, 1.5, 0.0, 0.0, 0.0],
        [0.6, 0.5, 0.0, 0.0, 0.0],
        [],
        np.full((2, 2), 0.25),
    ],
    ids=["nan", "inf", "negative", "sum_1.1", "empty", "2d"],
)
@pytest.mark.parametrize(
    "consume",
    [
        PhotonDistribution,
        from_probs,
        ClickDistribution,
        lambda v: convolution_matrix(v, n_max=4),
        lambda v: em_invert(v, 0.5, C4, EM4),
        lambda v: deconvolve_clicks(v, C4),
        lambda v: direct_invert(v, 0.5, C4),
        mandel_q,
        lambda v: mandel_q_std_err(v, 100),
        lambda v: b_criterion(v, 0),
        lambda v: b_std_err(v, 0, 100),
        b_sweep,
    ],
    ids=[
        "PhotonDistribution", "from_probs", "ClickDistribution", "bins",
        "em_invert", "deconvolve_clicks", "direct_invert",
        "mandel_q", "mandel_q_std_err", "b_criterion", "b_std_err", "b_sweep",
    ],
)
def test_every_probability_input_rejects_a_bad_vector(consume, vector):
    with pytest.raises((ShapeError, DomainError)):
        consume(np.asarray(vector, dtype=float))


ENTRY = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-2e-9, 1.0),
    st.sampled_from([0.0, 0.2, 0.25, 0.5, 1.0]),
)


@settings(max_examples=200, deadline=None)
@given(raw=st.lists(ENTRY, min_size=5, max_size=5), normalize=st.booleans())
def test_click_distribution_and_em_share_one_rule(raw, normalize):
    vector = np.array(raw)
    if normalize and np.all(np.isfinite(vector)):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vector = vector / vector.sum()

    def accepts(build) -> bool:
        try:
            build(vector)
        except (ShapeError, DomainError):
            return False
        return True

    verdict = accepts(ClickDistribution)
    assert accepts(lambda v: em_invert(v, 0.5, C4, EM4)) == verdict
    assert accepts(b_sweep) == verdict
