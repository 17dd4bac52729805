"""Command-line front end.

Commands
    simulate    run the seeded simulator, write its click histogram
    calibrate   efficiency estimates from a histogram CSV
    invert      reconstruct photon-number statistics from a histogram
    analyze     nonclassicality witnesses on reconstructed statistics
    pipeline    simulate, calibrate, invert, analyze in one pass

Every command prints each warning it records (inconsistent estimators,
a deconvolution dip, negativity, non-convergence, empty heralds, witness
notes) on stderr as "warning: <text>", then its summary line.

Exit codes: 0 on success; 1 exactly when --strict is set and the command
recorded at least one warning; 2 for usage, configuration, and domain
errors, an ill-conditioned solve included.

Environment: PHOTONSTATS_OUT_DIR sets the default output directory,
PHOTONSTATS_LOG_LEVEL the logging level.  Nothing else is read from the
environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import (
    B_HEADER,
    HISTOGRAM_HEADER,
    OVERLAY_HEADER,
    RHO_HEADER,
    count_rows,
    float_rows,
    histogram_dict,
    provenance_block,
    read_histogram,
    read_rho,
    write_csv,
    write_json,
)
from .calibration import DEFAULT_SIGMA_THRESHOLD
from .detector import convolution_matrix, loss_matrix, uniform_bins
from .distributions import coherent, nonnegative_part
from .errors import ConditioningError
from .inversion import EmOptions
from .montecarlo import ExperimentConfig, run
from .pipeline import analyze_rho, calibrate_histogram, invert_histogram, run_pipeline

ENV_OUT_DIR = "PHOTONSTATS_OUT_DIR"
ENV_LOG_LEVEL = "PHOTONSTATS_LOG_LEVEL"


class UsageError(Exception):
    """Bad invocation or input; maps to exit code 2."""


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    with open(path) as fh:
        doc = json.load(fh)
    config = ExperimentConfig.from_dict(doc)
    if seed_override is not None:
        config = dataclasses.replace(config, seed=seed_override)
    return config


def resolve_out_dir(args) -> Path:
    out = args.out_dir or os.environ.get(ENV_OUT_DIR) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def trigger_order(label: str) -> int:
    """The heralded photon number k of a trigger label "t<k>", the only
    form HeraldConfig.trigger_label writes."""
    match = re.fullmatch(r"t(0|[1-9][0-9]*)", label)
    if match is None:
        raise UsageError(
            f"--trigger must be t<k> with k a nonnegative integer, got {label!r}"
        )
    return int(match.group(1))


def parse_bins(text: str) -> np.ndarray:
    """--bins accepts a bin count ('8') or routing probabilities ('0.5,0.3,0.2')."""
    if "," not in text:
        return uniform_bins(int(text))
    return np.array([float(x) for x in text.split(",")])


def overlay_rows(rho: np.ndarray, eta: float, bins: np.ndarray, clicks: np.ndarray):
    """Observed click frequencies next to the click curve a Poissonian
    source of the same mean photon number would produce through the same
    loss and binning."""
    mean = float(np.arange(rho.size) @ rho)
    # max_tail=1: the reference is a plot guide, folding is acceptable
    reference_source = coherent(mean, n_max=max(rho.size - 1, 2 * bins.size), max_tail=1.0)
    n_max = reference_source.n_max
    chain = convolution_matrix(bins, n_max=n_max).matrix @ loss_matrix(eta, n_max)
    reference = chain @ reference_source.probs
    rows = []
    for k in range(bins.size + 1):
        observed = float(clicks[k]) if k < clicks.size else 0.0
        rows.append([k, repr(observed), repr(float(reference[k]))])
    return rows


def finish(args, summary: str, warnings) -> int:
    """The one ending of every command: each warning on stderr, the summary
    on stdout, and exit 1 exactly when --strict meets a warning."""
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)
    print(summary)
    return 1 if args.strict and warnings else 0


# ---------------------------------------------------------------- commands


def cmd_simulate(args) -> int:
    config = load_config(args.config, args.seed)
    out = resolve_out_dir(args)
    output = run(config, threads=args.threads)
    hist = output.histogram
    label = hist.trigger_label
    csv_rows = count_rows(hist.counts)
    write_csv(out / f"histogram_{label}.csv", HISTOGRAM_HEADER, csv_rows, config.seed)
    write_json(
        out / f"histogram_{label}.json",
        {"provenance": provenance_block(config.seed), "histogram": histogram_dict(hist)},
    )
    write_json(
        out / "simulation.json",
        {
            "provenance": provenance_block(config.seed),
            "config": config.to_dict(),
            "herald_count": output.herald_count,
            "pulses_run": config.pulses,
        },
    )
    summary = f"simulated {config.pulses} pulses, {output.herald_count} heralds -> {out}"
    return finish(args, summary, [] if output.herald_count else ["no heralds recorded"])


def cmd_calibrate(args) -> int:
    order = trigger_order(args.trigger)
    hist = read_histogram(args.histogram, trigger_label=args.trigger)
    bins = parse_bins(args.bins)
    section, notes = calibrate_histogram(hist, bins, order, args.sigma_threshold)
    out = resolve_out_dir(args)
    write_json(
        out / "calibration.json",
        {
            "provenance": provenance_block(None),
            "efficiency": section,
            "warnings": notes,
        },
    )
    eta = section["eta_for_inversion"]
    verdict = "consistent" if section["consistent"] else "INCONSISTENT"
    if section["consistent"] is None:
        verdict = "single estimator"
    summary = f"eta = {eta if eta is not None else 'undefined'} ({verdict}) -> {out}"
    return finish(args, summary, notes)


def cmd_invert(args) -> int:
    hist = read_histogram(args.histogram)
    bins = parse_bins(args.bins)
    options = EmOptions(tol=args.tol, max_iter=args.max_iter, n_max=args.n_max)
    result = invert_histogram(hist, args.eta, bins, args.method, options)
    out = resolve_out_dir(args)
    write_csv(out / "rho.csv", RHO_HEADER, float_rows(result.rho), None)
    write_json(
        out / "inversion.json",
        {"provenance": provenance_block(None), "inversion": result.to_dict()},
    )
    write_json(
        out / "likelihood_trace.json",
        {
            "provenance": provenance_block(None),
            "log_likelihood": [float(x) for x in result.log_likelihood_trace],
        },
    )
    clicks = hist.to_click_distribution().probs
    overlay = overlay_rows(nonnegative_part(result.rho), args.eta, bins, clicks)
    write_csv(out / "overlay.csv", OVERLAY_HEADER, overlay, None)
    flag = " negativity flagged" if result.negativity_flag else ""
    summary = (
        f"method={result.method} iterations={result.iterations} "
        f"converged={result.converged}{flag} -> {out}"
    )
    return finish(args, summary, result.warnings())


def cmd_analyze(args) -> int:
    rho = read_rho(args.rho)
    hist = read_histogram(args.histogram) if args.histogram else None
    witness = analyze_rho(rho, hist, args.tol)
    out = resolve_out_dir(args)
    write_json(
        out / "nonclassicality.json",
        {
            "provenance": provenance_block(None),
            "nonclassicality": witness.to_dict(),
        },
    )
    write_csv(out / "b_values.csv", B_HEADER, float_rows(witness.b_values), None)
    summary = (
        f"Q_inferred={witness.q_inferred} q_negative={witness.q_negative} "
        f"p_negativity_witnessed={witness.p_negativity_witnessed} -> {out}"
    )
    return finish(args, summary, witness.notes)


def cmd_pipeline(args) -> int:
    config = load_config(args.config, args.seed)
    options = EmOptions(tol=args.tol, max_iter=args.max_iter, n_max=args.n_max)
    report = run_pipeline(
        config,
        threads=args.threads,
        method=args.method,
        sigma_threshold=args.sigma_threshold,
        em_options=options,
    )
    out = resolve_out_dir(args)
    write_json(out / "report.json", report)
    label = report["histogram"]["trigger_label"]
    counts = np.asarray(report["histogram"]["counts"], dtype=np.int64)
    write_csv(out / f"histogram_{label}.csv", HISTOGRAM_HEADER, count_rows(counts), config.seed)
    inversion, witness = report["inversion"], report["nonclassicality"]
    if inversion is not None:
        rho = nonnegative_part(inversion["rho"])
        write_csv(out / "rho.csv", RHO_HEADER, float_rows(inversion["rho"]), config.seed)
        clicks = counts / counts.sum()
        write_csv(
            out / "overlay.csv",
            OVERLAY_HEADER,
            overlay_rows(rho, inversion["eta"], config.bins, clicks),
            config.seed,
        )
    if witness is not None:
        write_csv(out / "b_values.csv", B_HEADER, float_rows(witness["b_values"]), config.seed)
    return finish(args, f"pipeline report -> {out / 'report.json'}", report["warnings"])


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonstats",
        description="Heralded photon statistics: simulation, loss "
        "calibration, reconstruction, nonclassicality witnesses.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--out-dir", default=None, help="output directory")
        p.add_argument("--strict", action="store_true", help="warnings exit 1")
        if seeded:
            p.add_argument("--seed", type=int, default=None, help="override config seed")
            p.add_argument("--threads", type=int, default=1, help="simulation threads")

    def em_knobs(p):
        defaults = EmOptions()
        p.add_argument("--method", choices=("em", "direct"), default="em")
        p.add_argument(
            "--n-max", type=int, default=defaults.n_max,
            help="EM reconstruction cutoff; the direct solve uses the bin count",
        )
        p.add_argument("--tol", type=float, default=defaults.tol, help="EM stop tolerance")
        p.add_argument("--max-iter", type=int, default=defaults.max_iter)

    p = sub.add_parser("simulate", help="run the seeded experiment simulator")
    p.add_argument("--config", required=True, help="experiment config JSON")
    common(p, seeded=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="estimate efficiency from a histogram")
    p.add_argument("--histogram", required=True, help="histogram CSV (clicks,count)")
    p.add_argument("--trigger", default="t1", help="trigger label, e.g. t1 or t2")
    p.add_argument("--bins", default="8", help="bin count or comma probabilities")
    p.add_argument(
        "--sigma-threshold", type=float, default=DEFAULT_SIGMA_THRESHOLD,
        help="consistency threshold in combined standard errors",
    )
    common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("invert", help="reconstruct photon-number statistics")
    p.add_argument("--histogram", required=True, help="histogram CSV (clicks,count)")
    p.add_argument("--eta", required=True, type=float, help="channel efficiency")
    p.add_argument("--bins", default="8", help="bin count or comma probabilities")
    em_knobs(p)
    common(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("analyze", help="nonclassicality witnesses on statistics")
    p.add_argument("--rho", required=True, help="distribution CSV (n,rho)")
    p.add_argument("--histogram", default=None, help="optional histogram CSV")
    p.add_argument("--tol", type=float, default=None, help="witness flag threshold")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pipeline", help="simulate, calibrate, invert, analyze")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument(
        "--sigma-threshold", type=float, default=DEFAULT_SIGMA_THRESHOLD,
        help="consistency threshold in combined standard errors",
    )
    em_knobs(p)
    common(p, seeded=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    level = os.environ.get(ENV_LOG_LEVEL, "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, ConditioningError, OSError) as err:
        print(f"photonstats: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
