"""End-to-end analysis: simulate, calibrate, reconstruct, witness.

The defining property of the chain is that the efficiency fed into the
reconstruction is estimated from the same conditional click statistics
being inverted, never supplied from outside.  Each stage's numbers land
in one report dictionary; every entry is traceable to a module output.

Stage warnings (inconsistent estimators, negativity, empty heralds,
non-convergence, an ill-conditioned deconvolution or direct solve, clicks
beyond what the EM cutoff can produce, witness notes) are returned as
strings rather than raised, so a run always produces a complete report.
Every CLI command prints each one on stderr as "warning: <text>" and
exits 1 exactly when --strict is set and at least one was recorded.
"""

from __future__ import annotations

import numpy as np

from .artifacts import SCHEMA_VERSION, provenance_block
from .calibration import (
    DEFAULT_SIGMA_THRESHOLD,
    CountHistogram,
    check_sigma_threshold,
    combine_efficiencies,
    consistency_check,
    double_trigger_efficiencies,
    klyshko_efficiency,
    single_trigger_efficiency,
)
from .detector import convolution_matrix
from .distributions import fock, from_probs, nonnegative_part
from .errors import ConditioningError, DomainError, InsufficientDataError
from .inversion import (
    EmOptions,
    deconvolve_clicks,
    direct_invert,
    em_invert,
    fidelity,
)
from .montecarlo import ExperimentConfig, run
from .nonclassicality import DEFAULT_TOL, NonclassicalityReport, b_std_err, mandel_q_std_err
from .nonclassicality import report as witness_report


def calibrate_histogram(
    hist: CountHistogram,
    bins,
    conditional_order: int,
    sigma_threshold: float = DEFAULT_SIGMA_THRESHOLD,
) -> tuple[dict, list[str]]:
    """Efficiency estimates from one conditional click histogram.

    conditional_order is the nominal heralded photon number: 1 selects the
    single-trigger estimator, 2 the three double-trigger estimators; any
    other order falls back to the Klyshko ratio alone.  Click statistics
    are deconvolved to survivor statistics before the order estimators;
    survivors that dip below roundoff are noted and used as they are.
    """
    notes: list[str] = []
    p_click = hist.to_click_distribution()
    survivors = deconvolve_clicks(p_click.probs, convolution_matrix(bins, n_max=len(bins)))
    dip = float(survivors.min())
    if dip < -1e-12:
        notes.append(
            f"deconvolution: deconvolved statistics dip to {dip:.3e}; "
            "treating as a quasi-distribution"
        )
    total = hist.total
    # the Klyshko ratio is 1 - p(0 clicks | trigger): a cross-check, not a
    # member of the order family, so it stays out of the consistency verdict
    klyshko = klyshko_efficiency(hist)
    if conditional_order == 1:
        primary = single_trigger_efficiency(survivors, total)
        family = [primary]
        eta_source = "single_trigger"
        combined = None
    elif conditional_order == 2:
        triple = double_trigger_efficiencies(survivors, total)
        family = list(triple)
        average, weighted = combine_efficiencies(triple, sigma_threshold)
        primary = weighted
        eta_source = "weighted_average"
        combined = {"average": average.to_dict(), "weighted_average": weighted.to_dict()}
    else:
        primary = klyshko
        family = []
        eta_source = "klyshko"
        combined = None
        notes.append(
            f"no order-{conditional_order} estimator; falling back to the Klyshko ratio"
        )
    estimates = family + [klyshko]
    try:
        consistent, spread = consistency_check(family, sigma_threshold)
    except InsufficientDataError:
        consistent, spread = None, None
    if consistent is False:
        notes.append(
            f"efficiency estimates inconsistent at {sigma_threshold} sigma "
            f"(spread {spread:.4f})"
        )
    eta = float(primary.eta_hat)
    if not np.isfinite(eta) or eta <= 0.0:
        notes.append("calibrated efficiency undefined; reconstruction cannot proceed")
        eta = float("nan")
    elif eta > 1.0:
        notes.append(f"calibrated efficiency {eta:.4f} clipped to 1")
        eta = 1.0
    section = {
        "trigger_label": hist.trigger_label,
        "estimates": [e.to_dict() for e in estimates],
        "consistent": consistent,
        "spread": spread,
        "sigma_threshold": sigma_threshold,
        "combined": combined,
        "eta_for_inversion": None if not np.isfinite(eta) else eta,
        "eta_source": eta_source,
    }
    return section, notes


def _check_method(method: str) -> None:
    if method not in ("em", "direct"):
        raise DomainError(f"unknown inversion method {method!r}; use 'em' or 'direct'")


def invert_histogram(
    hist: CountHistogram,
    eta: float,
    bins,
    method: str = "em",
    options: EmOptions = EmOptions(),
):
    """Reconstruct photon-number statistics from a click histogram."""
    _check_method(method)
    if method == "em":
        c = convolution_matrix(bins, n_max=options.n_max)
        return em_invert(hist, eta, c, options)
    c = convolution_matrix(bins, n_max=len(bins))
    return direct_invert(hist.to_click_distribution(), eta, c)


def witness_tolerance(rho: np.ndarray, total: int) -> float:
    """3-sigma flag threshold from delta-method errors on the witnesses."""
    dist = from_probs(rho)  # checked once, not once per witness
    sigmas = [b_std_err(dist, n, total) for n in range(dist.n_max - 1)]
    try:
        sigmas.append(mandel_q_std_err(dist, total))
    except DomainError:
        pass
    return 3.0 * max(sigmas) if sigmas else DEFAULT_TOL


def analyze_rho(
    rho, hist: CountHistogram | None = None, tol: float | None = None
) -> NonclassicalityReport:
    """Witnesses on a reconstruction, the one path from rho to the flags.

    rho is clipped at 0 and renormalized first (nonnegative_part), so a
    direct inversion's quasi-distribution can be analyzed.  hist adds the
    detected-side Q.  The flag threshold is tol if given, else
    witness_tolerance on hist's counts, else DEFAULT_TOL.
    """
    rho = nonnegative_part(rho)
    clicks = None
    if hist is not None:
        clicks = hist.to_click_distribution()
        if tol is None:
            tol = witness_tolerance(rho, hist.total)
    return witness_report(from_probs(rho), clicks, DEFAULT_TOL if tol is None else tol)


def run_pipeline(
    config: ExperimentConfig,
    threads: int = 1,
    method: str = "em",
    sigma_threshold: float = DEFAULT_SIGMA_THRESHOLD,
    em_options: EmOptions = EmOptions(),
) -> dict:
    """Simulate one dataset and push it through the full analysis chain.

    Returns the report dictionary; identical (config, threads-independent)
    runs differ only in the provenance timestamp.
    """
    check_sigma_threshold(sigma_threshold)
    _check_method(method)
    output = run(config, threads=threads)
    hist = output.histogram
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "provenance": provenance_block(config.seed),
        "config": config.to_dict(),
        "herald_count": output.herald_count,
        "histogram": {
            "trigger_label": hist.trigger_label,
            "counts": [int(c) for c in hist.counts],
        },
        "warnings": [],
        "efficiency": None,
        "inversion": None,
        "nonclassicality": None,
    }
    if output.herald_count == 0:
        report["warnings"].append("no heralds recorded; downstream stages skipped")
        return report
    target = config.herald.photon_number
    try:
        efficiency, notes = calibrate_histogram(hist, config.bins, target, sigma_threshold)
    except ConditioningError as err:
        report["warnings"].append(f"calibration refused ({err})")
        return report
    report["efficiency"] = efficiency
    report["warnings"].extend(notes)
    eta = efficiency["eta_for_inversion"]
    if eta is None:
        return report
    try:
        inv = invert_histogram(hist, eta, config.bins, method, em_options)
    except (ConditioningError, DomainError) as err:
        report["warnings"].append(f"reconstruction refused ({err})")
        return report
    target_dist = fock(target, n_max=inv.rho.size - 1) if target < inv.rho.size else None
    inv_section = inv.to_dict()
    inv_section["target_photon_number"] = target
    inv_section["fidelity_to_target"] = (
        None if target_dist is None else fidelity(inv.rho, target_dist.probs)
    )
    report["inversion"] = inv_section
    report["warnings"].extend(inv.warnings())
    witness = analyze_rho(inv.rho, hist)
    report["warnings"].extend(witness.notes)
    report["nonclassicality"] = witness.to_dict() | {
        "tol_basis": "3 sigma, delta method on the herald count",
        "detected_mean": float(hist.to_click_distribution().mean()),
    }
    return report
