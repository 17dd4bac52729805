"""Reconstruction of photon-number statistics from click statistics.

Two routes back from measured occupied-bin counts to the photon-number
distribution at the source:

* em_invert: expectation-maximization on the composite response
  M = C @ L(eta).  Keeps the iterate a proper probability distribution,
  never goes negative, and its log-likelihood is nondecreasing, so it is
  the reconstruction of record.
* direct_invert: explicit linear inversion rho = inv(L) @ inv(C) @ p on
  the truncated square block.  Fast and exact on noise-free data but
  amplifies noise without constraint; negative entries in its output are
  a useful diagnostic that the data violate the assumed model.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .calibration import CountHistogram
from .detector import ClickDistribution, ConvolutionMatrix, _thinning_matrix
from .distributions import DEFAULT_N_MAX, probability_vector
from .errors import (
    ConditioningError,
    DomainError,
    InsufficientDataError,
    QuasiDistributionWarning,
    ShapeError,
)

CONDITION_LIMIT = 1e12
NEGATIVITY_TOL = 1e-9
# inv(L) entries grow like (1/eta)^n; beyond this corner they overflow
OVERFLOW_ETA = 0.05
OVERFLOW_N_MAX = 20


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


def loss_matrix_inverse(eta: float, n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """Analytic inverse of the binomial loss matrix.

    Thinning matrices form a semigroup L(a) L(b) = L(ab), so the inverse of
    L(eta) is the same binomial algebra evaluated at 1/eta.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"efficiency must lie in (0, 1], got {eta}")
    if eta < OVERFLOW_ETA and n_max > OVERFLOW_N_MAX:
        raise DomainError(
            f"inverse loss matrix at eta={eta} with n_max={n_max} would overflow; "
            f"need eta >= {OVERFLOW_ETA} or n_max <= {OVERFLOW_N_MAX}"
        )
    return _thinning_matrix(1.0 / eta, n_max)


def _click_frequencies(data, n_rows: int) -> tuple[np.ndarray, int | None]:
    """Normalize histogram / distribution / vector input to frequencies."""
    total = None
    if isinstance(data, CountHistogram):
        total = data.total
        if total == 0:
            raise InsufficientDataError("cannot invert an empty histogram")
        freq = data.counts / total
    elif isinstance(data, ClickDistribution):
        freq = np.asarray(data.probs, dtype=float)
        total = data.total_counts
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
    return freq, total


def deconvolve_clicks(p_click, c: ConvolutionMatrix) -> np.ndarray:
    """Remove the bin-convolution: solve C s = p on the square block where
    clicks and survivors both run 0 .. n_bins.

    The result is the surviving-photon-number distribution and may carry
    small negative entries when the input is noisy; it is returned
    unclipped, with a QuasiDistributionWarning.
    """
    n_rows = c.matrix.shape[0]
    freq, _ = _click_frequencies(p_click, n_rows)
    if c.n_max < c.n_bins:
        raise ShapeError(
            f"convolution matrix must cover photon numbers up to {c.n_bins}"
        )
    block = c.matrix[:, :n_rows]
    cond = float(np.linalg.cond(block))
    if cond > CONDITION_LIMIT:
        raise ConditioningError(
            f"bin-convolution block has condition number {cond:.3e} > "
            f"{CONDITION_LIMIT:.0e}"
        )
    survivors = np.linalg.solve(block, freq)
    if float(survivors.min()) < -1e-12:
        warnings.warn(
            f"deconvolved statistics dip to {survivors.min():.3e}; treating as "
            "a quasi-distribution",
            QuasiDistributionWarning,
            stacklevel=2,
        )
    return survivors


def direct_invert(
    p_click,
    eta: float,
    c: ConvolutionMatrix,
    allow_ill_conditioned: bool = False,
) -> InversionResult:
    """Explicit linear inversion rho = inv(L(eta)) inv(C) p_click.

    Exact on noise-free data from a source confined below the click
    resolution; on real data the unconstrained solve amplifies sampling
    noise and can leave negative entries, reported via negativity_flag.
    """
    n_rows = c.matrix.shape[0]
    dim = n_rows - 1
    block = c.matrix[:, :n_rows]
    freq, _ = _click_frequencies(p_click, n_rows)
    linv = loss_matrix_inverse(eta, dim)
    composite = block @ _thinning_matrix(eta, dim)
    cond = float(np.linalg.cond(composite))
    if cond > CONDITION_LIMIT and not allow_ill_conditioned:
        raise ConditioningError(
            f"composite response has condition number {cond:.3e} > "
            f"{CONDITION_LIMIT:.0e}; pass allow_ill_conditioned=True to force"
        )
    rho = linv @ np.linalg.solve(block, freq)
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
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"efficiency must lie in (0, 1], got {eta}")
    if c.n_max < options.n_max:
        raise ShapeError(
            f"convolution matrix covers n <= {c.n_max}, need {options.n_max}"
        )
    n_rows = c.matrix.shape[0]
    freq, _ = _click_frequencies(data, n_rows)
    dim = options.n_max + 1
    response = c.matrix[:, :dim] @ _thinning_matrix(eta, options.n_max)
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
