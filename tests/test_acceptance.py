"""Acceptance checks for the full toolkit.

Each check pins one operating point of the simulated instrument or one
structural identity of the analysis chain.  Seeds and expected values are
frozen; the Monte Carlo checks are exact reruns, not statistical retests,
so a failure means behavior changed, not that the dice rolled badly.

Every check prints one verdict line (with capture suspended so the line
always reaches the console) and then asserts, so failures surface both ways.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from photonstats.calibration import (
    CountHistogram,
    conditional_loss_pmf,
    double_trigger_efficiencies,
    klyshko_efficiency,
    single_trigger_efficiency,
    transmission_ratio,
)
from photonstats.detector import (
    apply_loss,
    convolution_matrix,
    loss_matrix,
    uniform_bins,
)
from photonstats.distributions import coherent, fock, mix, tms_marginal
from photonstats.heralding import HeraldConfig, TriggerKind, herald
from photonstats.inversion import (
    EmOptions,
    deconvolve_clicks,
    direct_invert,
    em_invert,
    fidelity,
)
from photonstats.montecarlo import Contaminant, ExperimentConfig, run
from photonstats.nonclassicality import b_criterion, mandel_q
from photonstats.pipeline import calibrate_histogram, run_pipeline

THREADS = 4

SINGLE_90 = HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=0.9)
SINGLE_95 = HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=0.95)
DOUBLE_90 = HeraldConfig(
    kind=TriggerKind.DOUBLE_APD_COINCIDENCE, eta_trigger=0.9, dark_click_prob=6e-4
)
# fluorescence stand-in: no pairs at all, heralds fire on dark counts alone
DARK_TRIGGER = HeraldConfig(
    kind=TriggerKind.DOUBLE_APD_COINCIDENCE, eta_trigger=0.9, dark_click_prob=0.05
)


@pytest.fixture
def verdict(capsys):
    """One PASS/FAIL line per criterion, printed past capture, then asserted."""

    def emit(tag, checks):
        ok = all(flag for flag, _ in checks)
        detail = "; ".join(text for _, text in checks)
        line = f"{tag} {'PASS' if ok else 'FAIL'}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def within(value, center, tol, label):
    return (
        abs(value - center) <= tol,
        f"{label} {value:.4f} (want {center} +/- {tol})",
    )


@pytest.fixture(scope="module")
def single_benchmark():
    config = ExperimentConfig(
        parametric_gain=0.14,
        herald=SINGLE_90,
        eta_signal=0.373,
        pulses=57_000_000,
        seed=2025,
    )
    start = time.perf_counter()
    report = run_pipeline(config, threads=THREADS)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def double_benchmark():
    config = ExperimentConfig(
        parametric_gain=0.19,
        herald=DOUBLE_90,
        eta_signal=0.315,
        pulses=360_000_000,
        seed=77,
    )
    start = time.perf_counter()
    report = run_pipeline(config, threads=THREADS)
    return report, time.perf_counter() - start


def brute_force_occupancy(bin_probs, n):
    """Occupied-bin distribution by enumerating every photon-to-bin map."""
    bins = len(bin_probs)
    dist = np.zeros(bins + 1)
    for assignment in itertools.product(range(bins), repeat=n):
        weight = math.prod(bin_probs[b] for b in assignment)
        dist[len(set(assignment))] += weight
    return dist


def test_a1_matrix_oracles(verdict):
    worst_conv = 0.0
    for n_bins in range(1, 5):
        flat = uniform_bins(n_bins)
        skew = np.arange(n_bins, 0, -1, dtype=float)
        skew /= skew.sum()
        for bins in (flat, skew):
            c = convolution_matrix(bins, n_max=6)
            for n in range(7):
                reference = brute_force_occupancy(list(bins), n)
                got = c.matrix[: n_bins + 1, n]
                worst_conv = max(worst_conv, float(np.abs(got - reference).max()))
    worst_semi = 0.0
    for a, b in ((0.3, 0.7), (0.5, 0.5), (0.9, 0.2), (0.123, 0.456)):
        product = loss_matrix(a, 20).matrix @ loss_matrix(b, 20).matrix
        direct = loss_matrix(a * b, 20).matrix
        worst_semi = max(worst_semi, float(np.abs(product - direct).max()))
    verdict(
        "A1 matrix-oracles",
        [
            (worst_conv <= 1e-12, f"brute-force occupancy gap {worst_conv:.2e} (<= 1e-12)"),
            (worst_semi <= 1e-12, f"loss semigroup gap {worst_semi:.2e} (<= 1e-12)"),
        ],
    )


def test_a2_estimator_exactness(verdict):
    worst = {"single": 0.0, "j0": 0.0, "j1": 0.0, "j2": 0.0, "klyshko": 0.0}
    for tenth in range(1, 10):
        eta = tenth / 10.0
        single = single_trigger_efficiency(conditional_loss_pmf(1, eta))
        worst["single"] = max(worst["single"], abs(single.eta_hat - eta))
        for estimate in double_trigger_efficiencies(conditional_loss_pmf(2, eta)):
            key = estimate.order.value
            worst[key] = max(worst[key], abs(estimate.eta_hat - eta))
        # integer counts make p(0 clicks | t) an exact rational
        hist = CountHistogram(np.array([10 - tenth, tenth]), trigger_label="t1")
        kly = klyshko_efficiency(hist)
        worst["klyshko"] = max(worst["klyshko"], abs(kly.eta_hat - eta))
    verdict(
        "A2 estimator-exactness",
        [
            (err <= 1e-12, f"{name} max error {err:.2e} (<= 1e-12)")
            for name, err in worst.items()
        ],
    )


def test_a3_single_trigger_benchmark(single_benchmark, verdict):
    report, wall = single_benchmark
    rho = report["inversion"]["rho"]
    nc = report["nonclassicality"]
    verdict(
        "A3 single-trigger-benchmark",
        [
            (report["herald_count"] >= 1_000_000, f"heralds {report['herald_count']}"),
            within(report["efficiency"]["eta_for_inversion"], 0.373, 0.003, "eta_hat"),
            within(nc["q_detected"], -0.37, 0.02, "Q_detected"),
            within(nc["q_inferred"], -0.97, 0.02, "Q_inferred"),
            within(rho[1], 0.97, 0.01, "rho_hat(1)"),
            within(nc["detected_mean"], 0.376, 0.01, "detected mean"),
            (wall < 60.0, f"wall {wall:.1f}s (< 60s)"),
        ],
    )


def test_a4_double_trigger_benchmark(double_benchmark, verdict):
    report, wall = double_benchmark
    rho = report["inversion"]["rho"]
    nc = report["nonclassicality"]
    family = [
        e["eta_hat"]
        for e in report["efficiency"]["estimates"]
        if e["order"].startswith("j")
    ]
    spread = max(family) - min(family)
    average = report["efficiency"]["combined"]["average"]["eta_hat"]
    analytic = apply_loss(herald(0.19, DOUBLE_90, n_max=20).signal_dist, 0.315)
    j2 = double_trigger_efficiencies(analytic.probs)[2]
    verdict(
        "A4 double-trigger-benchmark",
        [
            (spread <= 0.02, f"estimator spread {spread:.4f} (<= 0.02)"),
            within(average, 0.315, 0.005, "average eta_hat"),
            within(rho[2], 0.90, 0.02, "rho_hat(2)"),
            within(nc["detected_mean"], 0.623, 0.02, "detected mean"),
            within(nc["q_detected"], -0.32, 0.03, "Q_detected"),
            within(nc["q_inferred"], -0.93, 0.03, "Q_inferred"),
            (
                j2.eta_hat >= 0.315,
                f"noise-free two-click estimate {j2.eta_hat:.4f} >= true 0.315",
            ),
            (wall < 120.0, f"wall {wall:.1f}s (< 120s)"),
        ],
    )


def test_a5_filter_cross_check(verdict):
    bins = uniform_bins(8)
    c8 = convolution_matrix(bins, n_max=len(bins))

    def calibrated(extra, seed):
        config = ExperimentConfig(
            parametric_gain=0.10,
            herald=SINGLE_95,
            eta_signal=0.373,
            extra_transmission=extra,
            pulses=10_000_000,
            seed=seed,
        )
        output = run(config, threads=THREADS)
        hist = output.histogram
        survivors = deconvolve_clicks(hist.to_click_distribution(), c8)
        return single_trigger_efficiency(survivors, hist.total)

    bare = calibrated(1.0, seed=6)
    filtered = calibrated(0.135, seed=1006)
    ratio = transmission_ratio(filtered, bare)
    verdict(
        "A5 filter-cross-check",
        [
            within(ratio.ratio, 0.135, 0.003, "transmission ratio"),
            (ratio.std_err < 0.003, f"std err {ratio.std_err:.4f}"),
        ],
    )


def test_a6_high_loss_degradation(verdict):
    mild = ExperimentConfig(
        parametric_gain=0.14,
        herald=SINGLE_90,
        eta_signal=0.12,
        pulses=57_000_000,
        seed=101,
    )
    report_mild = run_pipeline(mild, threads=THREADS)
    severe = ExperimentConfig(
        parametric_gain=0.14,
        herald=SINGLE_90,
        eta_signal=0.045,
        pulses=600_000,
        seed=9,
    )
    report_severe = run_pipeline(severe, threads=THREADS)
    fid_mild = report_mild["inversion"]["fidelity_to_target"]
    fid_severe = report_severe["inversion"]["fidelity_to_target"]
    verdict(
        "A6 high-loss-degradation",
        [
            (
                report_mild["herald_count"] >= 1_000_000,
                f"heralds at 88% loss {report_mild['herald_count']}",
            ),
            (fid_mild >= 0.90, f"fidelity at 88% loss {fid_mild:.4f} (>= 0.90)"),
            within(fid_severe, 0.75, 0.10, "fidelity at 95.5% loss"),
        ],
    )


def contaminated_truth(gain, trigger, mean, n_max=20):
    sig = herald(gain, trigger, n_max=n_max).signal_dist.probs
    background = coherent(mean, n_max=n_max, max_tail=1.0).probs
    full = np.convolve(sig, background)[: n_max + 1]
    return full / full.sum()


def test_a7_contamination_robustness(verdict):
    def reconstruct(eta, mean):
        config = ExperimentConfig(
            parametric_gain=0.19,
            herald=DOUBLE_90,
            eta_signal=eta,
            contaminant=Contaminant(kind="coherent", mean=mean),
            pulses=120_000_000,
            seed=17,
        )
        report = run_pipeline(config, threads=THREADS)
        truth = contaminated_truth(0.19, DOUBLE_90, mean)
        return fidelity(np.asarray(report["inversion"]["rho"]), truth)

    fid_low = reconstruct(0.373, 0.3)
    fid_high = reconstruct(0.70, 1.05)
    verdict(
        "A7 contamination-robustness",
        [
            (
                fid_low >= 0.90,
                f"mean 0.3 at eta 0.373: fidelity {fid_low:.4f} (>= 0.90)",
            ),
            (
                fid_high >= 0.90,
                f"mean 1.05 at eta 0.70 (>= 0.55): fidelity {fid_high:.4f} (>= 0.90)",
            ),
        ],
    )


def test_a8_invalid_prior_detection(verdict):
    config = ExperimentConfig(
        parametric_gain=0.0,
        herald=DARK_TRIGGER,
        eta_signal=0.373,
        contaminant=Contaminant(kind="thermal", mean=0.3),
        pulses=20_000_000,
        seed=3,
    )
    output = run(config, threads=THREADS)
    hist = output.histogram
    bins = uniform_bins(8)
    section, _ = calibrate_histogram(hist, bins, conditional_order=2)
    # self-calibrated eta is tiny, so the inversion must be forced past the
    # conditioning gate; unphysical output is exactly the point here
    inv = direct_invert(
        hist.to_click_distribution(),
        section["eta_for_inversion"],
        convolution_matrix(bins, n_max=len(bins)),
        allow_ill_conditioned=True,
    )
    verdict(
        "A8 invalid-prior-detection",
        [
            (
                section["consistent"] is False,
                f"estimators flagged inconsistent (spread {section['spread']:.4f})",
            ),
            (
                inv.negativity_flag,
                f"direct inversion negative (min entry {inv.min_entry:.2e})",
            ),
        ],
    )


def test_a9_witness_identities(single_benchmark, verdict):
    report, _ = single_benchmark
    fock_gap = max(abs(mandel_q(fock(n)) + 1.0) for n in range(1, 5))
    coherent_gap = abs(mandel_q(coherent(0.7, n_max=40)))
    poisson = coherent(0.4, n_max=30)
    b_gap = max(abs(b_criterion(poisson, n)) for n in range(4))
    states = [
        tms_marginal(0.6, n_max=40),
        fock(3, n_max=10),
        mix(fock(1, n_max=10), fock(0, n_max=10), weight=0.6),
        coherent(0.8, n_max=40),
    ]
    scaling_gap = 0.0
    for state in states:
        q0 = mandel_q(state)
        for eta in (0.25, 0.5, 0.75):
            q_eta = mandel_q(apply_loss(state, eta))
            scaling_gap = max(scaling_gap, abs(q_eta - eta * q0))
    b0 = report["nonclassicality"]["b_values"][0]
    verdict(
        "A9 witness-identities",
        [
            (fock_gap == 0.0, f"Q(fock) = -1 gap {fock_gap:.2e}"),
            (coherent_gap <= 1e-9, f"Q(poissonian) gap {coherent_gap:.2e} (<= 1e-9)"),
            (b_gap <= 1e-12, f"B(poissonian) gap {b_gap:.2e} (<= 1e-12)"),
            (scaling_gap <= 1e-9, f"Q loss-scaling gap {scaling_gap:.2e} (<= 1e-9)"),
            (b0 < 0.0, f"B(0) on reconstructed near-single-photon state {b0:.4f} < 0"),
        ],
    )


def test_a10_em_properties(single_benchmark, double_benchmark, verdict):
    bins = uniform_bins(8)
    c8 = convolution_matrix(bins, n_max=8)
    levels = np.arange(9, dtype=float)
    truth = 0.45 ** (2 * levels)
    truth /= truth.sum()
    worst_tv = worst_residual = 0.0
    worst_gain = np.inf
    for eta in (0.55, 0.70, 0.90):
        response = c8.matrix @ loss_matrix(eta, 8).matrix
        exact = response @ truth
        inv = em_invert(exact, eta, c8, EmOptions(tol=0.0, max_iter=50_000, n_max=8))
        worst_tv = max(worst_tv, 0.5 * float(np.abs(inv.rho - truth).sum()))
        update = inv.rho * (response.T @ (exact / (response @ inv.rho)))
        update /= update.sum()
        worst_residual = max(worst_residual, float(np.abs(update - inv.rho).max()))
        gains = np.diff(inv.log_likelihood_trace[: inv.iterations + 1])
        worst_gain = min(worst_gain, float(gains.min()))
    # the two benchmark datasets again, watching the likelihood trace
    c20 = convolution_matrix(bins, n_max=20)
    for report, _ in (single_benchmark, double_benchmark):
        hist = CountHistogram(
            np.array(report["histogram"]["counts"]),
            trigger_label=report["histogram"]["trigger_label"],
        )
        inv = em_invert(hist, report["efficiency"]["eta_for_inversion"], c20)
        gains = np.diff(inv.log_likelihood_trace[: inv.iterations + 1])
        worst_gain = min(worst_gain, float(gains.min()))
    verdict(
        "A10 em-properties",
        [
            (worst_tv < 1e-6, f"noiseless recovery TV {worst_tv:.2e} (< 1e-6)"),
            (worst_residual < 1e-12, f"fixed-point residual {worst_residual:.2e} (< 1e-12)"),
            (
                worst_gain >= -1e-12,
                f"likelihood trace monotone (worst step {worst_gain:.2e})",
            ),
        ],
    )


def test_a11_determinism(verdict):
    config = ExperimentConfig(
        parametric_gain=0.14,
        herald=SINGLE_90,
        eta_signal=0.373,
        pulses=2_200_000,
        seed=4242,
    )
    reports = []
    for threads in (1, 3):
        report = run_pipeline(config, threads=threads)
        report["provenance"].pop("timestamp")
        reports.append(json.dumps(report, sort_keys=True))
    verdict(
        "A11 determinism",
        [
            (
                reports[0] == reports[1],
                "reports byte-identical across 1 and 3 threads (timestamps excluded)",
            ),
        ],
    )
