"""Spans and counts around the calls into each photonstats layer.

The traced run rebinds the names that `pipeline`, `cli` and the benchmark
itself call through (pipeline.run, pipeline.em_invert, cli.write_csv, ...)
to wrappers that record a span per call: layer, start, end, the enclosing
span and the unit of work it belongs to.  Nothing inside the package is
edited; the rebinding lasts from install() to uninstall() in the traced
process only.

A layer is named after the module that does the stage's work.  Two names
are counted under the stage that uses them rather than the module that
defines them: deconvolve_clicks (inversion.py) is the first step of
calibration, and witness_tolerance (pipeline.py) is part of the witness
stage.  A layer's busy time is the sum of its spans' self times: each
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass

from photonstats import cli, montecarlo, nonclassicality, pipeline
from workloads import deconvolution_warnings

LAYERS = ("montecarlo", "detector", "calibration", "inversion", "nonclassicality", "pipeline", "cli")


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    unit: int
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _count_run(tracer, output, config, *args, **kwargs):
    tracer.counts["montecarlo.pulses"] += config.pulses
    tracer.counts["montecarlo.chunks"] += -(-config.pulses // montecarlo.CHUNK_PULSES)
    tracer.counts["montecarlo.heralds"] += output.herald_count


def _count_convolution(tracer, matrix, *args, **kwargs):
    probs = matrix.bin_probs
    tracer.counts["detector.calls"] += 1
    tracer.banks.add((tracer.unit, probs.tobytes()))
    if not (probs == probs[0]).all():
        tracer.counts["detector.subsets"] += 1 << probs.size


def _count_em(tracer, result, *args, **kwargs):
    tracer.counts["inversion.calls"] += 1
    tracer.counts["inversion.sweeps"] += result.iterations
    tracer.counts["inversion.converged"] += bool(result.converged)


def _count_calibration(tracer, result, *args, **kwargs):
    _, notes = result
    tracer.counts["calibration.calls"] += 1
    tracer.counts["calibration.quasi_warnings"] += deconvolution_warnings(notes)


def _count_write(tracer, result, path, *args, **kwargs):
    tracer.counts["cli.bytes_written"] += os.path.getsize(path)


# (module, attribute, layer, counter)
BOUNDARIES = (
    (pipeline, "run", "montecarlo", _count_run),
    (pipeline, "convolution_matrix", "detector", _count_convolution),
    (cli, "convolution_matrix", "detector", _count_convolution),
    (cli, "loss_matrix", "detector", None),
    (pipeline, "calibrate_histogram", "calibration", _count_calibration),
    (pipeline, "deconvolve_clicks", "calibration", None),
    (pipeline, "em_invert", "inversion", _count_em),
    (pipeline, "witness_tolerance", "nonclassicality", None),
    (pipeline, "witness_report", "nonclassicality", None),
    (nonclassicality, "report", "nonclassicality", None),
    (pipeline, "run_pipeline", "pipeline", None),
    (cli, "run_pipeline", "pipeline", None),
    (pipeline, "invert_histogram", "pipeline", None),
    (cli, "main", "cli", None),
    (cli, "load_config", "cli", None),
    (cli, "write_json", "cli", _count_write),
    (cli, "write_csv", "cli", _count_write),
    (cli, "overlay_rows", "cli", None),
)


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.banks: set = set()
        self.unit = -1
        self._open: list[int] = []
        self._restore: list = []

    def _wrap(self, module, attr, layer, counter):
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            span = Span(attr, layer, parent, tracer.unit, time.perf_counter())
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
                if parent is not None:
                    tracer.spans[parent].child_s += span.end - span.start
            if counter is not None:
                counter(tracer, result, *args, **kwargs)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def install(self):
        for module, attr, layer, counter in BOUNDARIES:
            self._wrap(module, attr, layer, counter)

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def busy(self, layer: str) -> float:
        return sum(s.self_s for s in self.spans if s.layer == layer)

    def span_time(self, *names: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name in names)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(tracer: Tracer, units: int) -> dict[str, tuple[float, str]]:
    """Per-unit layer metrics of a traced run of `units` units of work."""
    c = tracer.counts
    busy = {layer: tracer.busy(layer) for layer in LAYERS}
    pulses, sweeps = c["montecarlo.pulses"], c["inversion.sweeps"]
    calls, inversions = c["detector.calls"], c["inversion.calls"]
    return {
        "montecarlo.busy_s": (busy["montecarlo"] / units, "s"),
        "montecarlo.ns_per_pulse": (1e9 * busy["montecarlo"] / pulses if pulses else 0.0, "ns"),
        "montecarlo.pulses": (pulses / units, "count"),
        "montecarlo.chunks": (c["montecarlo.chunks"] / units, "count"),
        "montecarlo.heralds": (c["montecarlo.heralds"] / units, "count"),
        "montecarlo.herald_yield": (c["montecarlo.heralds"] / pulses if pulses else 0.0, "ratio"),
        "inversion.busy_s": (busy["inversion"] / units, "s"),
        "inversion.calls": (inversions / units, "count"),
        "inversion.sweeps": (sweeps / units, "count"),
        "inversion.us_per_sweep": (
            1e6 * tracer.span_time("em_invert") / sweeps if sweeps else 0.0, "us"
        ),
        "inversion.converged_ratio": (
            c["inversion.converged"] / inversions if inversions else 0.0, "ratio"
        ),
        "detector.busy_s": (busy["detector"] / units, "s"),
        "detector.calls": (calls / units, "count"),
        "detector.distinct_ratio": (len(tracer.banks) / calls if calls else 0.0, "ratio"),
        "detector.subsets": (c["detector.subsets"] / units, "count"),
        "calibration.busy_s": (busy["calibration"] / units, "s"),
        "calibration.calls": (c["calibration.calls"] / units, "count"),
        "calibration.quasi_warnings": (c["calibration.quasi_warnings"] / units, "count"),
        "nonclassicality.busy_s": (busy["nonclassicality"] / units, "s"),
        "pipeline.self_s": (busy["pipeline"] / units, "s"),
        "cli.busy_s": (busy["cli"] / units, "s"),
        "cli.load_config_s": (tracer.span_time("load_config") / units, "s"),
        "cli.write_s": (tracer.span_time("write_json", "write_csv") / units, "s"),
        "cli.bytes_written": (c["cli.bytes_written"] / units, "bytes"),
    }
