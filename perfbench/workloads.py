"""The three benchmark workloads: inputs from a seed, one unit of work, gates.

Each workload class turns the benchmark seed into inputs (make_input), runs
one unit of work through the package's public entry points (run, the only
timed call), and gates the outputs (check returns one line per violated
gate; an empty list means the unit passed).  The workloads reach the
package through module attributes (pipeline.run_pipeline, cli.main, ...)
so that the traced run can rebind those names.  `host_probe` says whether
the workload's times are scaled by the host-speed probe (hostspeed.py).

Gates are statistical bands of GATE_SIGMA standard errors around values
fixed in advance, so a correct program fails one by chance with probability
about 2e-9 per band, for any seed.  Recorded warnings (deconvolution dips,
inconsistent estimators) are counted, never failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from photonstats import cli, heralding, montecarlo, nonclassicality, pipeline
from photonstats.calibration import CountHistogram
from photonstats.detector import forward_model, uniform_bins
from photonstats.distributions import fock, from_probs
from photonstats.heralding import HeraldConfig, TriggerKind
from photonstats.inversion import EmOptions
from photonstats.montecarlo import ExperimentConfig

THREADS = 2
GATE_SIGMA = 6.0
PROBS_TOL = 1e-9

SINGLE_90 = HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=0.9)
DOUBLE_90 = HeraldConfig(
    kind=TriggerKind.DOUBLE_APD_COINCIDENCE, eta_trigger=0.9, dark_click_prob=6e-4
)
BINS_8 = uniform_bins(8)
# Multi-pair emission biases the calibrated efficiency.  Each bias range spans
# the noise-free estimates at that operating point, less the true value:
# j1 0.3102 to j2 0.3193 at A4, and the single-trigger 0.3750 at A3.
A4_ETA, A4_BIAS = 0.315, (-0.0049, 0.0043)
A3_ETA, A3_BIAS = 0.373, (0.0, 0.0021)


def unit_seed(seed: int, index: int) -> int:
    """64-bit program seed of unit `index` in a run with benchmark seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def routing_bins(n_bins: int, ratio: float = 0.93) -> np.ndarray:
    """Fiber-loop time-multiplexed detector: bin i receives a share ~ ratio**i."""
    probs = ratio ** np.arange(n_bins, dtype=float)
    return probs / probs.sum()


def distribution_failures(label: str, rho) -> list[str]:
    rho = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(rho)):
        return [f"{label}: non-finite entries"]
    if rho.min() < 0.0 or abs(rho.sum() - 1.0) > PROBS_TOL:
        return [f"{label}: not a distribution (min {rho.min():.3e}, sum {rho.sum():.12f})"]
    return []


def eta_failures(label: str, eta, err, truth: float, bias: tuple[float, float]) -> list[str]:
    """eta must lie in [truth + bias[0] - k err, truth + bias[1] + k err]."""
    if eta is None or err is None or not err > 0.0:
        return [f"{label}: efficiency {eta} with std err {err}"]
    low = truth + bias[0] - GATE_SIGMA * err
    high = truth + bias[1] + GATE_SIGMA * err
    if not low <= eta <= high:
        return [f"{label}: eta_hat {eta:.5f} outside [{low:.5f}, {high:.5f}]"]
    return []


def herald_count_failures(count: int, rate: float, pulses: int) -> list[str]:
    expected = rate * pulses
    band = GATE_SIGMA * math.sqrt(expected * (1.0 - rate))
    if abs(count - expected) > band:
        return [f"herald count {count} outside {expected:.0f} +/- {band:.0f}"]
    return []


def deconvolution_warnings(notes) -> int:
    return sum(1 for line in notes if line.startswith("deconvolution:"))


class HeraldSim:
    """run_pipeline at the A4 double-APD coincidence point."""

    name = "herald_sim"
    # unscaled: a probe inside the unit would compete with its two threads,
    # and probes run between units moved two to four times as much as the
    # units did as the host's speed changed
    host_probe = False
    nominal_unit_s = 1.5
    histograms_per_unit = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.pulses = 1 << 22 if tiny else 1 << 25
        self.rate = heralding.herald_rate(0.19, DOUBLE_90)

    @property
    def pulses_per_unit(self) -> int:
        return self.pulses

    def make_input(self, index: int) -> ExperimentConfig:
        return ExperimentConfig(
            parametric_gain=0.19,
            herald=DOUBLE_90,
            eta_signal=A4_ETA,
            bins=BINS_8,
            pulses=self.pulses,
            seed=unit_seed(self.seed, index),
        )

    simulation_config = make_input

    def run(self, config):
        return pipeline.run_pipeline(config, threads=THREADS)

    def check(self, config, report) -> list[str]:
        failures = herald_count_failures(report["herald_count"], self.rate, self.pulses)
        efficiency = report["efficiency"]
        if efficiency is None or report["inversion"] is None or report["nonclassicality"] is None:
            return failures + ["report incomplete"]
        failures += eta_failures(
            "efficiency",
            efficiency["eta_for_inversion"],
            efficiency["combined"]["weighted_average"]["std_err"],
            A4_ETA,
            A4_BIAS,
        )
        return failures + distribution_failures("rho", report["inversion"]["rho"])

    @staticmethod
    def warnings(report) -> int:
        return deconvolution_warnings(report["warnings"])


@dataclass(frozen=True)
class HistogramSpec:
    label: str
    gain: float
    herald: HeraldConfig
    eta: float
    heralds: int
    order: int
    tv_bound: float

    def truth(self) -> np.ndarray:
        return heralding.herald(self.gain, self.herald, n_max=20).signal_dist.probs

    def click_probs(self) -> np.ndarray:
        return heralding.heralded_click_distribution(
            self.gain, self.herald, self.eta, BINS_8, n_max=20
        ).probs


# TV bounds sit well above the largest distance seen over 900 seeds
# (0.0065, 0.037, 0.024 and 0.33; the noiseless Fock-2 input gives 0.0012).
# At 95.5 % loss the reconstruction is poor by nature and its tail is long.
SAMPLED = (
    HistogramSpec("a3_single", 0.14, SINGLE_90, 0.373, 10**6, 1, 0.03),
    HistogramSpec("a4_double", 0.19, DOUBLE_90, 0.315, 2 * 10**5, 2, 0.1),
    HistogramSpec("eta_0.12", 0.14, SINGLE_90, 0.12, 10**6, 1, 0.06),
    HistogramSpec("eta_0.045", 0.14, SINGLE_90, 0.045, 11_000, 1, 0.6),
)
FOCK2_HERALDS = 10**9
FOCK2_TV_BOUND = 0.005


class Reconstruct:
    """Calibrate, invert by EM and evaluate witnesses on five histograms."""

    name = "reconstruct"
    host_probe = True
    nominal_unit_s = 0.5
    pulses_per_unit = 0
    histograms_per_unit = len(SAMPLED) + 1

    def __init__(self, seed: int, workdir: Path, tiny: bool = False, wrong_eta: float | None = None):
        # already small: the tiny variant is the full unit
        self.seed = seed
        self.wrong_eta = wrong_eta
        self.click_probs = [spec.click_probs() for spec in SAMPLED]
        fock2_clicks = forward_model(fock(2, n_max=20), 0.315, BINS_8).probs
        self.fock2 = CountHistogram(np.rint(FOCK2_HERALDS * fock2_clicks).astype(np.int64), "t2")
        self.truths = [spec.truth() for spec in SAMPLED] + [fock(2, n_max=20).probs]
        self.bounds = [spec.tv_bound for spec in SAMPLED] + [FOCK2_TV_BOUND]
        self.labels = [spec.label for spec in SAMPLED] + ["fock2_noiseless"]
        self.orders = [spec.order for spec in SAMPLED] + [2]

    def make_input(self, index: int) -> list[CountHistogram]:
        rng = np.random.default_rng([self.seed, index])
        sampled = [
            CountHistogram(rng.multinomial(spec.heralds, probs), spec.herald.trigger_label)
            for spec, probs in zip(SAMPLED, self.click_probs)
        ]
        return sampled + [self.fock2]

    def run(self, histograms):
        results = []
        for position, (hist, order) in enumerate(zip(histograms, self.orders)):
            section, notes = pipeline.calibrate_histogram(hist, BINS_8, order)
            eta = section["eta_for_inversion"]
            if position == 0 and self.wrong_eta is not None:
                eta = self.wrong_eta
            inv = pipeline.invert_histogram(hist, eta, BINS_8, "em", EmOptions())
            rho = np.clip(inv.rho, 0.0, None)
            rho = rho / rho.sum()
            tol = pipeline.witness_tolerance(rho, hist.total)
            witness = nonclassicality.report(from_probs(rho), hist.to_click_distribution(), tol)
            results.append((notes, inv, witness))
        return results

    def check(self, histograms, results) -> list[str]:
        failures = []
        for label, truth, bound, (_, inv, _) in zip(self.labels, self.truths, self.bounds, results):
            problems = distribution_failures(label, inv.rho)
            if not problems:
                tv = 0.5 * float(np.abs(inv.rho - truth).sum())
                if tv > bound:
                    problems = [f"{label}: TV distance to truth {tv:.4f} > {bound}"]
            failures += problems
        return failures

    @staticmethod
    def warnings(results) -> int:
        return sum(deconvolution_warnings(notes) for notes, _, _ in results)


ARTIFACTS = ("report.json", "histogram_t1.csv", "rho.csv", "overlay.csv", "b_values.csv")


class TmdCli:
    """`photonstats pipeline` in-process on a 16-bin fiber-loop detector."""

    name = "tmd_cli"
    host_probe = True
    nominal_unit_s = 6.0
    histograms_per_unit = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.pulses = 1 << 18 if tiny else 1 << 22
        self.bins = routing_bins(8 if tiny else 16)
        self.doc = {
            "parametric_gain": 0.14,
            "herald": {"kind": "single_apd", "eta_trigger": 0.9},
            "eta_signal": A3_ETA,
            "bins": [float(x) for x in self.bins],
            "pulses": self.pulses,
            "seed": 0,
        }
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "tmd_config.json"
        self.config_path.write_text(json.dumps(self.doc))
        self.out_dir = workdir / "tmd_out"

    @property
    def pulses_per_unit(self) -> int:
        return self.pulses

    def make_input(self, index: int) -> int:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return unit_seed(self.seed, index)

    def simulation_config(self, index: int) -> ExperimentConfig:
        return ExperimentConfig.from_dict({**self.doc, "seed": unit_seed(self.seed, index)})

    def run(self, seed: int) -> int:
        argv = [
            "pipeline",
            "--config", str(self.config_path),
            "--out-dir", str(self.out_dir),
            "--threads", str(THREADS),
            "--seed", str(seed),
        ]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def _artifacts(self) -> tuple[dict, list[str]]:
        """Parse every artifact; returns the report and one line per defect."""
        report, problems = {}, []
        for name in ARTIFACTS:
            path = self.out_dir / name
            try:
                if name.endswith(".json"):
                    report = json.loads(path.read_text())
                    continue
                with open(path, newline="") as fh:
                    rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
                body = [[float(x) for x in row] for row in rows[1:]]
                if not body or any(len(row) != len(rows[0]) for row in body):
                    problems.append(f"{name}: malformed table")
            except (OSError, ValueError) as err:
                problems.append(f"{name}: {err}")
        return report, problems

    def check(self, seed: int, code: int) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        report, failures = self._artifacts()
        if failures:
            return failures
        if report.get("config", {}).get("seed") != seed:
            return ["report.json is not from this unit"]
        failures = herald_count_failures(
            report["herald_count"], heralding.herald_rate(0.14, SINGLE_90), self.pulses
        )
        efficiency = report["efficiency"]
        if efficiency is None or report["inversion"] is None:
            return failures + ["report incomplete"]
        failures += eta_failures(
            "efficiency",
            efficiency["eta_for_inversion"],
            efficiency["estimates"][0]["std_err"],
            A3_ETA,
            A3_BIAS,
        )
        return failures + distribution_failures("rho", report["inversion"]["rho"])

    def warnings(self, code: int) -> int:
        try:
            report = json.loads((self.out_dir / "report.json").read_text())
        except (OSError, ValueError):
            return 0
        return deconvolution_warnings(report.get("warnings", []))


WORKLOADS = {cls.name: cls for cls in (HeraldSim, Reconstruct, TmdCli)}
