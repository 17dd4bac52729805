"""photonstats benchmark: three workloads, end-to-end metrics, a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload herald_sim --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --smoke

One client runs units of work back to back (closed loop) in this process,
with at most two worker threads, until --seconds have passed.  Every unit is
gated (see workloads.py).  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Lines before it give
the host, each metric with its unit, and the shares of the traced wall time.

The unit times of reconstruct and tmd_cli, and every set-up time, are scaled
to a reference host speed: a fixed probe kernel is timed inside every unit
(and around every import), and the time is multiplied by the probe's
reference time over its mean time there (see hostspeed.py).  The raw times
are printed too.  herald_sim reports raw times (see workloads.py).

--trace 1 runs a fixed number of units (set by --seconds) twice on the same
inputs, first untraced and then traced, so that the counts repeat exactly for
a given seed and the difference of the two medians is the tracing overhead.

--workload all runs each workload in turn, each in its own process so that
peak_rss_mb stays per workload, and prints every run's lines.

--smoke runs every workload once at a tiny size, plus one reconstruction
inverted at a deliberately wrong efficiency, and exits 0 only if the real
units pass and the wrong one is counted as failed.
"""

from __future__ import annotations

import os

# one worker pool of two threads is the only parallelism; keep BLAS serial
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SETUP_PROBE_S = 0.1
IMPORT_REPEATS = 3
SPEEDUP_SECONDS = 3.0
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("herald_sim", "reconstruct", "tmd_cli")

SETUP_SNIPPET = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import photonstats, photonstats.cli; print(time.perf_counter() - t)"
)


def host_facts() -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "l3_cache": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        facts["l3_cache"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    return facts


def fresh_python(*options: str) -> subprocess.CompletedProcess:
    """Import photonstats and its CLI in a new interpreter."""
    return subprocess.run(
        [sys.executable, "-I", *options, "-c", SETUP_SNIPPET.format(src=str(SRC))],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=120,
    )


def setup_seconds() -> tuple[float, float]:
    """Median import time of the package in fresh interpreters, raw and with
    each import scaled by the one-thread probe timed just before and after it."""
    import hostspeed

    probe = hostspeed.Probe()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        mark = probe.mark()
        probe.repeat(SETUP_PROBE_S)
        raw.append(float(fresh_python().stdout))
        probe.repeat(SETUP_PROBE_S)
        scaled.append(raw[-1] * probe.scale(mark))
    return statistics.median(raw), statistics.median(scaled)


def distributions_import_seconds() -> float:
    """Import time of photonstats.distributions with its scipy.stats
    dependency, without numpy, which it happens to import first."""

    def once() -> float:
        cumulative = {}
        for line in fresh_python("-X", "importtime").stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        return 1e-6 * (cumulative["photonstats.distributions"] - cumulative["numpy"])

    return statistics.median(once() for _ in range(IMPORT_REPEATS))


def tail(walls: list[float]) -> tuple[float, int]:
    """The sample at the highest percentile with TAIL_BEYOND samples beyond
    it, and the number beyond; the slowest sample when there are too few."""
    ordered = sorted(walls)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    return ordered[-1 - beyond], beyond


class Loop:
    """Runs and gates units of one workload, closed loop, one client."""

    def __init__(self, workload, probe=None):
        self.workload = workload
        self.probe = probe
        self.walls: list[float] = []
        self.failed = 0
        self.warnings = 0

    def unit(self, index: int) -> None:
        wl = self.workload
        inputs = wl.make_input(index)
        mark = self.probe.mark() if self.probe else 0
        start = time.perf_counter()
        try:
            output = wl.run(inputs)
        except Exception:  # a unit that raises counts as failed; keep measuring
            self._record(mark, start)
            self.failed += 1
            print(f"{wl.name} unit {index} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return
        self._record(mark, start)
        self.warnings += wl.warnings(output)
        failures = wl.check(inputs, output)
        if failures:
            self.failed += 1
            print(f"{wl.name} unit {index} failed: " + "; ".join(failures), file=sys.stderr)

    def _record(self, mark: int, start: float) -> None:
        """The unit's wall time, less any probe ticks inside it."""
        end = time.perf_counter()
        inside = self.probe.spent(mark, start, end) if self.probe else 0.0
        self.walls.append(end - start - inside)

    @property
    def attempted(self) -> int:
        return len(self.walls)


def metric_line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else "")


def warm_up(cls, seed: int) -> None:
    """One ungated tiny unit, so lazy imports and caches fill before timing."""
    tiny = cls(seed, WORKDIR, tiny=True)
    tiny.run(tiny.make_input(0))


def measure(name: str, seed: int, seconds: float) -> tuple[Loop, dict]:
    import hostspeed
    import workloads

    cls = workloads.WORKLOADS[name]
    setup_raw, setup_s = setup_seconds()
    warm_up(cls, seed)
    probe = hostspeed.Probe() if cls.host_probe else None
    loop = Loop(cls(seed, WORKDIR), probe)
    scaled = []
    mark = 0
    start = time.perf_counter()
    index = 0
    with probe.ticking() if probe else contextlib.nullcontext():
        while index == 0 or time.perf_counter() - start < seconds:
            loop.unit(index)
            # probe times since the previous unit ended
            scaled.append(loop.walls[-1] * (probe.scale(mark) if probe else 1.0))
            mark = probe.mark() if probe else 0
            index += 1
    wl, walls = loop.workload, loop.walls
    busy, scaled_busy = sum(walls), sum(scaled)
    n = len(walls)
    tail_s, beyond = tail(scaled)
    raw = {
        "wall_s": statistics.median(walls),
        "wall_tail_s": tail(walls)[0],
        "histograms_per_s": wl.histograms_per_unit * n / busy,
        "setup_s": setup_raw,
    }
    metrics = {
        "wall_s": (statistics.median(scaled), "s"),
        "wall_tail_s": (tail_s, "s"),
        "histograms_per_s": (wl.histograms_per_unit * n / scaled_busy, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "wall_s": f"median of {n} units",
        "wall_tail_s": f"p{100 * (n - beyond) / n:.1f} of {n} units, {beyond} beyond",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
    }
    if probe:
        print(f"host speed: probe mean {statistics.fmean(probe.times):.6g} s over {len(probe.times)} "
              f"ticks, reference {hostspeed.REFERENCE_S:g} s; scaled/raw busy time {scaled_busy / busy:.4f}")
    for key, (value, unit) in metrics.items():
        note = notes.get(key, "")
        if key in raw and (probe or key == "setup_s"):
            note = f"{note}; " * bool(note) + f"raw {raw[key]:.6g} {unit}"
        print(metric_line(key, value, unit, note))
    if wl.pulses_per_unit:
        pulses_per_s = wl.pulses_per_unit * n
        note = f"raw {pulses_per_s / busy:.6g} 1/s" if probe else ""
        print(metric_line("pulses_per_s", pulses_per_s / scaled_busy, "1/s", note))
    print(metric_line("error_rate", loop.failed / loop.attempted, "ratio",
                      f"{loop.failed} of {loop.attempted} units failed"))
    print(metric_line("recorded_warnings", loop.warnings, "count", "deconvolution dips, not failures"))
    return loop, metrics


def thread_speedup(wl) -> float:
    """Wall time of the same simulation at 1 thread over 2 threads."""
    from photonstats import montecarlo

    config = wl.simulation_config(0)
    times = {1: [], 2: []}
    start = time.perf_counter()
    while not times[2] or time.perf_counter() - start < SPEEDUP_SECONDS:
        for threads in (1, 2):
            t = time.perf_counter()
            montecarlo.run(config, threads=threads)
            times[threads].append(time.perf_counter() - t)
    return statistics.median(times[1]) / statistics.median(times[2])


def measure_traced(name: str, seed: int, seconds: float) -> tuple[Loop, dict]:
    import tracing
    import workloads

    cls = workloads.WORKLOADS[name]
    units = max(1, round(seconds / (2 * cls.nominal_unit_s)))
    warm_up(cls, seed)
    loop = Loop(cls(seed, WORKDIR))
    for index in range(units):
        loop.unit(index)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for index in range(units):
            tracer.unit = index
            loop.unit(index)
    finally:
        tracer.uninstall()
    plain, traced = loop.walls[:units], loop.walls[units:]
    wall = statistics.median(traced)
    metrics = tracing.layer_metrics(tracer, units)
    has_simulation = hasattr(loop.workload, "simulation_config")
    metrics["montecarlo.thread_speedup"] = (thread_speedup(loop.workload) if has_simulation else 0.0, "x")
    metrics["distributions.import_s"] = (distributions_import_seconds(), "s")
    metrics["tracer.overhead_s"] = (wall - statistics.median(plain), "s")
    spans_path = WORKDIR / f"spans_{name}_{seed}.jsonl"
    tracer.write(spans_path)
    print(f"traced {units} units: median wall {wall:.6g} s; spans -> {spans_path.relative_to(ROOT)}")
    for layer in tracing.LAYERS:
        share = tracer.busy(layer) / sum(traced)
        print(f"share of traced wall time: {layer:16s} {100 * share:6.2f} %")
    for key, (value, unit) in metrics.items():
        print(metric_line(key, value, unit))
    return loop, metrics


def smoke() -> int:
    """Every workload once at tiny size; a wrong input must be caught."""
    import workloads

    ok = True
    for name, cls in workloads.WORKLOADS.items():
        loop = Loop(cls(0, WORKDIR, tiny=True))
        loop.unit(0)
        passed = loop.failed == 0
        ok &= passed
        print(f"smoke {name}: {'pass' if passed else 'FAIL'} in {loop.walls[0]:.3f} s")
    wrong = Loop(workloads.Reconstruct(0, WORKDIR, wrong_eta=0.6))
    wrong.unit(0)
    caught = wrong.failed == 1
    ok &= caught
    print(f"smoke reconstruct at wrong eta 0.6: {'counted as failed' if caught else 'NOT CAUGHT'}")
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-check of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "photonstats" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import photonstats

    if Path(photonstats.__file__).resolve().parent != SRC / "photonstats":
        print(f"perfbench: imported photonstats from {photonstats.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        options = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        runs = [subprocess.run([sys.executable, __file__, "--workload", name, *options]) for name in WORKLOAD_NAMES]
        return max(r.returncode for r in runs)
    WORKDIR.mkdir(exist_ok=True)
    try:
        if args.smoke:
            return smoke()
        print(json.dumps({"host": host_facts(), "workload": args.workload, "seed": args.seed}))
        measure_run = measure_traced if args.trace else measure
        loop, metrics = measure_run(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORKDIR / "tmd_out", ignore_errors=True)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
