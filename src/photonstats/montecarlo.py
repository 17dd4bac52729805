"""Seeded Monte Carlo of the heralded-source measurement chain.

Simulates, pulse by pulse, what the analytic modules describe in closed
form: photon pairs from a parametric source, a trigger detector on one
arm (with loss and dark clicks), optional contaminant light entering the
signal arm, signal-arm transmission, and multinomial assignment of the
surviving photons to binary detector bins.  Serves as the independent
oracle for the analytic forward model and as the generator of synthetic
datasets at experimental scale.

Reproducibility contract: pulses are processed in fixed-size chunks and
chunk i always draws from substream i of a counter-based Philox generator
keyed by the seed, so output is bit-identical for a given (config, seed)
no matter how many worker threads share the chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .calibration import CountHistogram
from .detector import _validate_bin_probs, uniform_bins
from .errors import DomainError, check_fields, field_problems
from .heralding import HeraldConfig, TriggerKind

GENERATOR = "philox4x64"
CHUNK_PULSES = 1 << 20
# surviving photons routed to bins per step of the signal-arm sampler
PHOTON_SLICE = 1 << 16
# raw generator words drawn per step of the pair-number and dark-click
# samplers, so no chunk-length word buffer is ever held
WORD_BLOCK = 1 << 16
# keep counts exactly representable and memory sane
MAX_PULSES = 1 << 53

CONTAMINANT_KINDS = ("coherent", "thermal")


@dataclass(frozen=True)
class Contaminant:
    """Uncorrelated background light mixed into the signal arm before loss."""

    kind: str
    mean: float

    RULES = {
        "kind": (str, lambda v: v in CONTAMINANT_KINDS, "one of coherent, thermal"),
        "mean": (Real, lambda v: 0.0 <= v < math.inf, "a finite nonnegative number"),
    }

    def __post_init__(self):
        check_fields(self)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "mean": self.mean}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated run of the experiment.  Its RULES,
    those of HeraldConfig and Contaminant and the bin checks are all its limits."""

    parametric_gain: float
    herald: HeraldConfig
    eta_signal: float
    extra_transmission: float = 1.0
    bins: np.ndarray = None
    contaminant: Contaminant | None = None
    pulses: int = 1_000_000
    seed: int = 0

    RULES = {
        "parametric_gain": (Real, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)"),
        "eta_signal": (Real, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
        "extra_transmission": (Real, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]"),
        "pulses": (Integral, lambda v: 1 <= v <= MAX_PULSES, "an integer in [1, 2^53]"),
        "seed": (Integral, lambda v: 0 <= v <= 2**64 - 1, "an integer in [0, 2^64 - 1]"),
    }

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.herald, HeraldConfig):
            raise DomainError("herald must be a HeraldConfig")
        bins = _validate_bin_probs(uniform_bins(8) if self.bins is None else self.bins)
        bins.setflags(write=False)
        object.__setattr__(self, "bins", bins)
        if self.contaminant is not None and not isinstance(self.contaminant, Contaminant):
            raise DomainError("contaminant must be a Contaminant or None")

    def to_dict(self) -> dict:
        return vars(self) | {
            "herald": self.herald.to_dict(),
            "bins": self.bins.tolist(),
            "contaminant": None if self.contaminant is None else self.contaminant.to_dict(),
            "pulses": int(self.pulses),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, doc) -> "ExperimentConfig":
        """Build a config from its JSON document; one DomainError lists every
        violated rule under its JSON pointer."""
        problems = field_problems(doc, cls)
        if isinstance(doc, dict):
            if "herald" in doc:
                problems += field_problems(doc["herald"], HeraldConfig, "/herald")
            if doc.get("contaminant") is not None:
                problems += field_problems(doc["contaminant"], Contaminant, "/contaminant")
            bins = doc.get("bins", [1.0])
            try:
                if not isinstance(bins, list) or not all(
                    isinstance(p, Real) and not isinstance(p, bool) for p in bins
                ):
                    raise DomainError(f"must be an array of numbers, got {bins!r}")
                _validate_bin_probs(bins)
            except (ValueError, OverflowError) as err:
                problems.append(f"/bins: {err}")
        if problems:
            raise DomainError("; ".join(problems))
        contaminant = doc.get("contaminant")
        if contaminant is not None:
            contaminant = Contaminant(**contaminant)
        return cls(**{**doc, "herald": HeraldConfig(**doc["herald"]), "contaminant": contaminant})


@dataclass(frozen=True)
class SimulationOutput:
    """The heralded click histogram of one simulated run."""

    histogram: CountHistogram

    @property
    def herald_count(self) -> int:
        return self.histogram.total


# numpy's Generator.geometric(p) searches its partial sums at p >= this
# value and inverts an exponential below it (random_geometric in numpy's C).
# Both of its branches, and Generator.random, turn a raw 64-bit word w into
# the uniform double u = (w >> 11) * 2**-53.
GEOMETRIC_SEARCH_MIN_P = 0.333333333333333333333333


def _search_sums(p: float, top: float) -> np.ndarray:
    """numpy's geometric search sums p, p + pq, ... in its loop's order, up to
    the first at or above top or until they stop growing."""
    q = 1.0 - p
    total = prod = p
    sums = [total]
    while total < top:
        prod *= q
        if total + prod == total:
            break
        total += prod
        sums.append(total)
    return np.array(sums)


def _word_blocks(rng, size: int):
    """The next size raw words as (start, words) blocks of WORD_BLOCK;
    successive random_raw calls give the same words as one call."""
    for start in range(0, size, WORD_BLOCK):
        yield start, rng.bit_generator.random_raw(min(WORD_BLOCK, size - start))


def _pair_numbers(rng, q: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the pulses that carry pairs, and their pair numbers:
    _geometric_excess at p = 1 - q, except that gain 0 draws nothing."""
    if q == 0.0:
        none = np.zeros(0, dtype=np.int64)
        return none, none
    return _geometric_excess(rng, 1.0 - q, size)


def _geometric_excess(rng, p: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the nonzero values of rng.geometric(p, size) - 1, and those values.

    Consumes the same words and gives the same values as numpy.  numpy's
    search draws one uniform u per draw and returns 1 plus the number of its
    partial sums below u.  So a value is 0 exactly when
    w >> 11 <= floor(p * 2**53), an integer test on the raw word, and only
    the other draws need the search.  Where numpy's loop would never end
    (u above the limit its sums round to) the draw gets the sums' count.
    """
    if p < GEOMETRIC_SEARCH_MIN_P:
        # numpy inverts a ziggurat exponential here; its word use cannot be replayed
        n = rng.geometric(p, size)
        n -= 1
        busy = np.flatnonzero(n)
        return busy, n[busy]
    empty_max = np.uint64(min(math.floor(p * 2**53) << 11 | 0x7FF, 2**64 - 1))
    busy, busy_words = [], []
    for start, words in _word_blocks(rng, size):
        hit = np.flatnonzero(words > empty_max)
        busy.append(hit + start)
        busy_words.append(words[hit])
    u = (np.concatenate(busy_words) >> np.uint64(11)) * 2.0**-53
    return np.concatenate(busy), np.searchsorted(_search_sums(p, u.max(initial=p)), u)


def _apd_clicks(rng, size: int, dark: float, fired: np.ndarray) -> np.ndarray:
    """Per-pulse click mask of one APD: a dark click on any pulse, or a
    photon click on the pulses indexed by fired.

    The dark test rng.random(size) < dark holds exactly when
    w >> 11 < ceil(dark * 2**53), so it runs on the raw words; for dark < 1
    the threshold fits in 64 bits.
    """
    dark_max = np.uint64(math.ceil(dark * 2**53) << 11)
    click = np.empty(size, dtype=bool)
    for start, words in _word_blocks(rng, size):
        np.less(words, dark_max, out=click[start : start + words.size])
    click[fired] = True
    return click


def _heralded(
    rng, size: int, busy: np.ndarray, pairs: np.ndarray, herald: HeraldConfig
) -> np.ndarray:
    """Pair numbers of the pulses whose trigger fires, in pulse order.

    The photon binomials run only on pulses that carry photons: a binomial
    with zero trials draws nothing from the generator, so this consumes the
    same words in the same order as running them over every pulse.
    """
    if herald.kind is TriggerKind.IDEAL_K_RESOLVING:
        if herald.resolve_k == 0:
            return np.zeros(size - busy.size, dtype=np.int64)
        return pairs[pairs == herald.resolve_k]
    dark = herald.dark_click_prob
    if herald.kind is TriggerKind.SINGLE_APD:
        fired = rng.binomial(pairs, herald.eta_trigger) > 0
        if dark == 0:
            return pairs[fired]
        click = _apd_clicks(rng, size, dark, busy[fired])
    else:
        # coincidence: per photon, reach APD a or b with probability eta/2 each
        half = herald.eta_trigger / 2.0
        a = rng.binomial(pairs, half)
        b = rng.binomial(pairs - a, half / (1.0 - half))
        if dark == 0:
            return pairs[(a > 0) & (b > 0)]
        click = _apd_clicks(rng, size, dark, busy[a > 0])
        click &= _apd_clicks(rng, size, dark, busy[b > 0])
    heralded = np.flatnonzero(click)
    # a dark-only herald carries 0 pairs
    photons = np.zeros(heralded.size, dtype=np.int64)
    _, at, of = np.intersect1d(heralded, busy, assume_unique=True, return_indices=True)
    photons[at] = pairs[of]
    return photons


def _signal_clicks(rng, photons: np.ndarray, transmission: float, bins: np.ndarray) -> np.ndarray:
    """Occupied-bin count for each heralded pulse.

    Surviving photons are routed PHOTON_SLICE at a time, so memory stays
    bounded however bright the contaminant; successive rng.random calls give
    the same words as one call for all photons.
    """
    survivors = (
        rng.binomial(photons, transmission)
        if transmission > 0
        else np.zeros(photons.size, dtype=np.int64)
    )
    ends = np.cumsum(survivors)
    total = int(ends[-1])
    if total == 0:
        return np.zeros(photons.size, dtype=np.int64)
    edges = np.cumsum(bins)
    occupied = np.zeros((photons.size, bins.size), dtype=bool)
    for start in range(0, total, PHOTON_SLICE):
        stop = min(start + PHOTON_SLICE, total)
        rows = np.searchsorted(ends, np.arange(start, stop), side="right")
        cols = np.searchsorted(edges, rng.random(stop - start), side="right")
        occupied[rows, np.minimum(cols, bins.size - 1)] = True
    return occupied.sum(axis=1)


def _run_chunk(config: ExperimentConfig, chunk_index: int, size: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=config.seed).jumped(chunk_index))
    busy, pairs = _pair_numbers(rng, config.parametric_gain**2, size)
    photons = _heralded(rng, size, busy, pairs, config.herald)
    n_bins = config.bins.size
    if photons.size == 0:
        return np.zeros(n_bins + 1, dtype=np.int64)
    if config.contaminant is not None and config.contaminant.mean > 0:
        mean = config.contaminant.mean
        if config.contaminant.kind == "coherent":
            photons = photons + rng.poisson(mean, photons.size)
        else:
            busy, thermal = _geometric_excess(rng, 1.0 / (1.0 + mean), photons.size)
            photons = photons.copy()
            photons[busy] += thermal
    clicks = _signal_clicks(
        rng, photons, config.eta_signal * config.extra_transmission, config.bins
    )
    return np.bincount(clicks, minlength=n_bins + 1)


def run(config: ExperimentConfig, threads: int = 1) -> SimulationOutput:
    """Simulate config.pulses pulses and histogram the heralded clicks.

    threads > 1 splits the fixed chunk grid over a thread pool; the chunk
    substream discipline keeps the result identical to a serial run.
    """
    if threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads}")
    n_chunks = -(-config.pulses // CHUNK_PULSES)
    sizes = [
        min(CHUNK_PULSES, config.pulses - i * CHUNK_PULSES) for i in range(n_chunks)
    ]
    if threads == 1:
        parts = [_run_chunk(config, i, size) for i, size in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_run_chunk, [config] * n_chunks, range(n_chunks), sizes))
    counts = np.sum(parts, axis=0, dtype=np.int64)
    return SimulationOutput(CountHistogram(counts, trigger_label=config.herald.trigger_label))

