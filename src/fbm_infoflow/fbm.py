"""Fractional Brownian motion: exact covariance and exact-in-law samplers.

Two samplers are provided on a time grid: dense Cholesky factorization of the
path covariance (any strictly increasing grid) and circulant embedding of the
fractional Gaussian noise covariance followed by a cumulative sum (uniform
grids, O(n log n)).  Both draw from the exact finite-dimensional law.  The
circulant sampler keeps two independent paths from each transform, its real
and its imaginary part (Wood & Chan 1994; Dietrich & Newsam 1997).
"""

from dataclasses import dataclass

import numpy as np
# numpy loads these lazily; loading them with the package keeps that cost
# in set-up, not in the first cell that draws.
import numpy.fft
import numpy.random

from .errors import DomainError, GridError

_UNIFORM_RTOL = 1e-9


@dataclass(frozen=True)
class HurstParameter:
    """Hurst exponent, constrained to the open interval (0, 1)."""

    value: float

    def __post_init__(self):
        if not 0.0 < self.value < 1.0:
            raise DomainError(f"Hurst parameter {self.value} not in (0, 1)")


def as_hurst(h):
    """Coerce a float or HurstParameter to HurstParameter."""
    if isinstance(h, HurstParameter):
        return h
    return HurstParameter(float(h))


def covariance(s, t, h):
    """E[B^H_s B^H_t] = (t^{2H} + s^{2H} - |t-s|^{2H}) / 2.

    s and t are broadcastable arrays; the result has their broadcast shape.
    """
    h = as_hurst(h)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(t < 0):
        raise DomainError("fBm covariance requires s, t >= 0")
    two_h = 2.0 * h.value
    return 0.5 * (t ** two_h + s ** two_h - np.abs(t - s) ** two_h)


def fgn_autocovariance(k, h):
    """Autocovariance of unit-step fractional Gaussian noise at integer lag k."""
    h = as_hurst(h)
    k = np.abs(np.asarray(k, dtype=float))
    two_h = 2.0 * h.value
    return 0.5 * ((k + 1) ** two_h - 2 * k ** two_h + np.abs(k - 1) ** two_h)


def _validate_grid(grid):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise GridError("grid must be a non-empty 1-d array")
    if np.any(grid <= 0):
        raise GridError("grid times must be strictly positive")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise GridError("grid must be strictly increasing")
    return grid


def _is_uniform_from_zero(grid):
    dt = grid[0]
    steps = np.diff(np.concatenate(([0.0], grid)))
    return np.all(np.abs(steps - dt) <= _UNIFORM_RTOL * dt), dt


def _circulant_eigenvalues(n, h):
    gamma = fgn_autocovariance(np.arange(n + 1), h)
    row = np.concatenate([gamma[:n], gamma[n:n + 1], gamma[n - 1:0:-1]])
    return np.fft.fft(row).real


def _sample_fgn_circulant(n, h, rng, n_paths):
    """Unit-step fGn via circulant (Davies-Harte) embedding.

    The transform of one row of complex noise scaled by sqrt(lam / m) has real
    and imaginary parts that are independent, each with the exact covariance,
    so ceil(n_paths / 2) rows are drawn: paths [0, rows) are the real parts and
    the rest the imaginary parts of the first rows.  One path is the real part
    of one row.  Returns None when the embedding is not nonnegative definite
    for (n, H).
    """
    lam = _circulant_eigenvalues(n, h)
    if np.min(lam) < -1e-10 * np.max(lam):
        return None
    lam = np.clip(lam, 0.0, None)
    m = 2 * n
    rows = (n_paths + 1) // 2
    # Filled and transformed in place: one complex buffer and the paths.
    w = np.empty((rows, m), dtype=complex)
    w.real = rng.standard_normal((rows, m))
    w.imag = rng.standard_normal((rows, m))
    w *= np.sqrt(lam / m)
    np.fft.fft(w, axis=1, out=w)
    fgn = np.empty((n_paths, n))
    fgn[:rows] = w.real[:, :n]
    fgn[rows:] = w.imag[:n_paths - rows, :n]
    return fgn


def _sample_cholesky(grid, h, rng, n_paths):
    cov = covariance(grid[:, None], grid[None, :], h)
    # Tiny jitter guards against roundoff-level indefiniteness on fine grids.
    jitter = 1e-12 * np.max(np.diag(cov))
    chol = np.linalg.cholesky(cov + jitter * np.eye(len(grid)))
    z = rng.standard_normal((n_paths, len(grid)))
    return z @ chol.T


def sample_paths(grid, h, method="circulant", seed=0, n_paths=1):
    """Sample n_paths fBm paths on the grid.

    Returns (values, used_fallback) where values has shape (n_paths, len(grid)).
    Reproducible: same (grid, h, method, seed, n_paths) gives identical output.
    """
    h = as_hurst(h)
    grid = _validate_grid(grid)
    rng = np.random.default_rng(seed)
    used_fallback = False
    if method == "cholesky":
        values = _sample_cholesky(grid, h, rng, n_paths)
    elif method == "circulant":
        uniform, dt = _is_uniform_from_zero(grid)
        if not uniform:
            raise GridError("circulant sampler requires a uniform grid starting at dt")
        fgn = _sample_fgn_circulant(len(grid), h, rng, n_paths)
        if fgn is None:
            used_fallback = True
            values = _sample_cholesky(grid, h, rng, n_paths)
        else:
            values = np.cumsum(fgn, axis=1, out=fgn)
            values *= dt ** h.value
    else:
        raise GridError(f"unknown sampling method {method!r}")
    return values, used_fallback

