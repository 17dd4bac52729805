"""Reconstruction of photon-number statistics from click statistics.

Two routes back from measured occupied-bin counts to the photon-number
distribution at the source:

* em_invert: expectation-maximization on the composite response
  M = C @ L(eta).  Keeps the iterate a proper probability distribution,
  never goes negative, and its log-likelihood is nondecreasing, so it is
  the reconstruction of record.
* direct_invert: one linear solve of the same composite C @ L(eta) on the
  truncated square block, refused only when its condition number is too
  large.  Fast and exact on noise-free data but amplifies noise without
  constraint; negative entries in its output are a useful diagnostic that
  the data violate the assumed model.  deconvolve_clicks is the same
  solve at eta = 1, which calibration uses to strip C alone.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .calibration import CountHistogram
from .detector import ClickDistribution, ConvolutionMatrix, loss_matrix
from .distributions import DEFAULT_N_MAX, probability_vector
from .errors import ConditioningError, DomainError, InsufficientDataError, ShapeError

CONDITION_LIMIT = 1e12
NEGATIVITY_TOL = 1e-9


@dataclass(frozen=True)
class EmOptions:
    """Knobs for the expectation-maximization inversion.

    tol = 0 disables the likelihood-gain stopping rule: the iteration runs
    to max_iter (or to an exact floating-point fixed point).  Useful when
    the maximizer sits on the simplex boundary, where the likelihood gain
    saturates at roundoff level while the iterate is still improving.
    """

    tol: float = 1e-10
    max_iter: int = 100_000
    n_max: int = DEFAULT_N_MAX

    def __post_init__(self):
        if not self.tol >= 0.0:
            raise DomainError(f"tolerance must be nonnegative, got {self.tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.n_max < 0:
            raise DomainError(f"n_max must be nonnegative, got {self.n_max}")


@dataclass(frozen=True)
class InversionResult:
    """Reconstructed photon-number statistics plus convergence diagnostics.

    rho may carry negative entries when method == "direct"; EM output is
    always a proper distribution.
    """

    rho: np.ndarray
    method: str
    eta: float
    iterations: int = 0
    converged: bool = True
    log_likelihood_trace: np.ndarray = ()
    negativity_flag: bool = False
    min_entry: float = 0.0
    condition_number: float | None = None

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        trace = np.asarray(self.log_likelihood_trace, dtype=float)
        trace.setflags(write=False)
        object.__setattr__(self, "log_likelihood_trace", trace)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "eta": self.eta,
            "rho": [float(x) for x in self.rho],
            "iterations": self.iterations,
            "converged": self.converged,
            "log_likelihood_final": (
                float(self.log_likelihood_trace[-1])
                if len(self.log_likelihood_trace)
                else None
            ),
            "negativity_flag": self.negativity_flag,
            "min_entry": self.min_entry,
            "condition_number": self.condition_number,
        }

    def warnings(self) -> list[str]:
        """What this result warns of: an EM run cut at its sweep budget, or a
        direct inversion that went negative."""
        notes = []
        if not self.converged:
            notes.append("reconstruction stopped at the sweep budget")
        if self.negativity_flag:
            notes.append("direct inversion produced negative entries; model assumptions suspect")
        return notes


def _click_frequencies(data, n_rows: int) -> np.ndarray:
    """Normalize histogram / distribution / vector input to frequencies."""
    if isinstance(data, CountHistogram):
        total = data.total
        if total == 0:
            raise InsufficientDataError("cannot invert an empty histogram")
        freq = data.counts / total
    elif isinstance(data, ClickDistribution):
        freq = np.asarray(data.probs, dtype=float)
    else:
        freq = probability_vector(data, "click frequency")
    if freq.size > n_rows:
        if np.any(freq[n_rows:] != 0):
            raise ShapeError(
                f"data has {freq.size - n_rows} click bins beyond the detector model"
            )
        freq = freq[:n_rows]
    elif freq.size < n_rows:
        freq = np.concatenate([freq, np.zeros(n_rows - freq.size)])
    return freq


def _response(c: ConvolutionMatrix, eta: float, n_max: int) -> np.ndarray:
    """The detector law C @ L(eta) on photon numbers 0 .. n_max, the one
    response every inversion solves."""
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"efficiency must lie in (0, 1], got {eta}")
    if c.n_max < n_max:
        raise ShapeError(f"convolution matrix covers n <= {c.n_max}, need {n_max}")
    return c.matrix[:, : n_max + 1] @ loss_matrix(eta, n_max)


def _square_solve(p_click, eta, c, subject, remedy, allow_ill_conditioned=False):
    """Solve C L(eta) x = p_click on the square block where clicks and photon
    numbers both run 0 .. n_bins; return x and the block's condition number.

    Raises ConditioningError, naming subject and remedy, when the condition
    number exceeds CONDITION_LIMIT, unless allow_ill_conditioned is set.
    """
    freq = _click_frequencies(p_click, c.n_bins + 1)
    response = _response(c, eta, c.n_bins)
    cond = float(np.linalg.cond(response))
    if cond > CONDITION_LIMIT and not allow_ill_conditioned:
        raise ConditioningError(
            f"{subject} has condition number {cond:.3e} > {CONDITION_LIMIT:.0e}; {remedy}"
        )
    return np.linalg.solve(response, freq), cond


def deconvolve_clicks(p_click, c: ConvolutionMatrix) -> np.ndarray:
    """Remove the bin-convolution: the direct solve at eta = 1, where L is
    the identity and C s = p is solved for the survivor distribution s.

    The result may carry small negative entries when the input is noisy;
    it is returned unclipped, and the caller decides what a dip means.
    """
    survivors, _ = _square_solve(
        p_click, 1.0, c, "bin-convolution block", "coarser binning avoids the solve"
    )
    return survivors


def direct_invert(
    p_click,
    eta: float,
    c: ConvolutionMatrix,
    allow_ill_conditioned: bool = False,
) -> InversionResult:
    """Explicit linear inversion: solve C L(eta) rho = p_click on the square
    block where clicks and photon numbers both run 0 .. n_bins.

    Exact on noise-free data from a source confined below the click
    resolution; on real data the unconstrained solve amplifies sampling
    noise and can leave negative entries, reported via negativity_flag.

    Raises ConditioningError when the composite response C L(eta) has a
    condition number above CONDITION_LIMIT; allow_ill_conditioned=True
    solves anyway and records the condition number in the result.
    """
    rho, cond = _square_solve(
        p_click,
        eta,
        c,
        "composite response",
        "coarser binning or the EM method avoid the solve",
        allow_ill_conditioned,
    )
    min_entry = float(rho.min())
    return InversionResult(
        rho=rho,
        method="direct",
        eta=eta,
        negativity_flag=min_entry < -NEGATIVITY_TOL,
        min_entry=min_entry,
        condition_number=cond,
    )


def em_invert(
    data,
    eta: float,
    c: ConvolutionMatrix,
    options: EmOptions = EmOptions(),
) -> InversionResult:
    """Maximum-likelihood reconstruction by expectation-maximization.

    Iterates rho(n) <- rho(n) * sum_k M(k,n) f(k) / (M rho)(k) with
    M = C @ L(eta), starting from a strictly positive uniform vector.
    Stops when the relative log-likelihood gain drops below options.tol,
    at an exact floating-point fixed point, or after options.max_iter
    sweeps; with options.tol = 0 only the latter two apply.

    Args:
        data: CountHistogram, ClickDistribution, or a frequency vector.
        eta: Channel efficiency assumed for the loss stage.
        c: Bin-convolution matrix; must cover photon numbers to options.n_max.
        options: Convergence controls and photon-number cutoff.
    """
    response = _response(c, eta, options.n_max)
    n_rows = c.matrix.shape[0]
    freq = _click_frequencies(data, n_rows)
    dim = options.n_max + 1
    observed = freq > 0
    dead_rows = observed & (response.sum(axis=1) == 0)
    if np.any(dead_rows):
        raise DomainError(
            f"clicks observed at k={np.flatnonzero(dead_rows).tolist()} which the "
            "detector model cannot produce"
        )

    response_t = np.ascontiguousarray(response.T)
    freq_obs = freq[observed]
    rho = np.full(dim, 1.0 / dim)
    predicted = response @ rho
    log_like = float(freq_obs @ np.log(predicted[observed]))
    trace = array("d", [log_like])  # grows: max_iter may be far above the sweeps run
    ratio = np.zeros(n_rows)
    iterations = 0
    converged = False
    for it in range(1, options.max_iter + 1):
        ratio[observed] = freq_obs / predicted[observed]
        candidate = rho * (response_t @ ratio)
        candidate /= candidate.sum()
        if np.array_equal(candidate, rho):
            # exact float fixed point: further sweeps cannot move
            converged = True
            break
        predicted = response @ candidate
        log_like_new = float(freq_obs @ np.log(predicted[observed]))
        gain = log_like_new - log_like
        rho, log_like = candidate, log_like_new
        trace.append(log_like)
        iterations = it
        if options.tol > 0.0 and gain <= options.tol * abs(log_like):
            converged = True
            break
    return InversionResult(
        rho=rho,
        method="em",
        eta=eta,
        iterations=iterations,
        converged=converged,
        log_likelihood_trace=trace,
        negativity_flag=False,
        min_entry=float(rho.min()),
    )


def fidelity(p, q) -> float:
    """Bhattacharyya fidelity (sum_n sqrt(p_n q_n))^2 between two
    photon-number distributions.  Shorter vectors are zero-padded."""
    a = np.clip(np.asarray(getattr(p, "probs", p), dtype=float), 0.0, None)
    b = np.clip(np.asarray(getattr(q, "probs", q), dtype=float), 0.0, None)
    if a.ndim != 1 or b.ndim != 1:
        raise ShapeError("fidelity expects 1-D probability vectors")
    size = max(a.size, b.size)
    a = np.concatenate([a, np.zeros(size - a.size)])
    b = np.concatenate([b, np.zeros(size - b.size)])
    overlap = float(np.sqrt(a * b).sum())
    return min(overlap * overlap, 1.0)
