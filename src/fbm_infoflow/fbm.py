"""Fractional Brownian motion: exact covariance and exact-in-law samplers.

Two samplers are provided on a time grid: dense Cholesky factorization of the
path covariance (any strictly increasing grid) and circulant embedding of the
fractional Gaussian noise covariance followed by a cumulative sum (uniform
grids, O(n log n)).  Both draw from the exact finite-dimensional law.  The
circulant sampler keeps two independent paths from each transform, its real
and its imaginary part (Wood & Chan 1994; Dietrich & Newsam 1997).
`PathSampler` factors one (grid, H) once and maps standard normals to paths;
the normals do not depend on H, so one draw can serve every H, and
`path_moments` samples the second moments of every H's paths from one draw.
"""

from dataclasses import dataclass

import numpy as np
# numpy loads these lazily; loading them with the package keeps that cost
# in set-up, not in the first cell that draws.
import numpy.fft
import numpy.random

from .errors import DomainError, GridError

_UNIFORM_RTOL = 1e-9
_FFT_ENTRIES = 1 << 15      # complex entries a circulant sampler transforms at a time
# Path values path_moments samples at a time, for every H from one draw.  A circulant
# batch holds 24 bytes per value, 3 MiB, and a 512 kB transform block: the normals
# (16) and one H's paths (8); a Cholesky batch the normals and the paths (16).
_BATCH_ENTRIES = 1 << 17


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


def _circulant_scale(n, h):
    """sqrt(lam / m) of the circulant (Davies-Harte) embedding of unit-step fGn,
    m = 2n, or None when the embedding is not nonnegative definite for (n, H)."""
    lam = _circulant_eigenvalues(n, h)
    if np.min(lam) < -1e-10 * np.max(lam):
        return None
    lam = np.clip(lam, 0.0, None)
    return np.sqrt(lam / (2 * n))


def _cholesky_factor(grid, h):
    cov = covariance(grid[:, None], grid[None, :], h)
    # Tiny jitter guards against roundoff-level indefiniteness on fine grids.
    jitter = 1e-12 * np.max(np.diag(cov))
    return np.linalg.cholesky(cov + jitter * np.eye(len(grid)))


class PathSampler:
    """Exact fBm paths on one grid for one H, the factor computed once.

    `paths(normals, n_paths)` maps `normal_count(n_paths)` standard normals to
    n_paths paths.  Samplers of one grid and `method` take the same normals
    whatever H, so one draw can serve every H (common random numbers).

    Cholesky: one row of normals per path, times the factor of the path
    covariance (any strictly increasing grid).  Circulant: rows of complex noise,
    real parts first, scaled by sqrt(lam / m) and transformed; the real and
    imaginary parts of a row are independent paths with the exact covariance, so
    ceil(n_paths / 2) rows give paths [0, rows) as the real parts and the rest as
    the imaginary parts of the first rows (uniform grids from dt, O(n log n)).
    Where the embedding is not nonnegative definite for (n, H), the sampler falls
    back to Cholesky: `method` is then "cholesky" and `used_fallback` true.
    """

    def __init__(self, grid, h, method="circulant"):
        self.h = as_hurst(h)
        self.grid = _validate_grid(grid)
        self.used_fallback = False
        if method == "circulant":
            uniform, self._dt = _is_uniform_from_zero(self.grid)
            if not uniform:
                raise GridError("circulant sampler requires a uniform grid starting at dt")
            self._scale = _circulant_scale(self.grid.size, self.h)
            if self._scale is None:
                self.used_fallback, method = True, "cholesky"
        elif method != "cholesky":
            raise GridError(f"unknown sampling method {method!r}")
        if method == "cholesky":
            self._chol = _cholesky_factor(self.grid, self.h)
        self.method = method

    def normal_count(self, n_paths):
        """Standard normals n_paths paths take."""
        n = self.grid.size
        return n_paths * n if self.method == "cholesky" else (n_paths + 1) // 2 * 4 * n

    def paths(self, normals, n_paths, out=None):
        """The (n_paths, len(grid)) paths of the normals, in out if given.  A
        circulant sampler transforms _FFT_ENTRIES of them at a time, in one
        512 kB complex buffer: each row's transform is the same bits in any block."""
        n = self.grid.size
        if self.method == "cholesky":
            return np.matmul(normals.reshape(n_paths, n), self._chol.T, out=out)
        rows = (n_paths + 1) // 2
        re, im = normals.reshape(2, rows, 2 * n)
        out = np.empty((n_paths, n)) if out is None else out
        step = max(1, _FFT_ENTRIES // (2 * n))
        buf = np.empty((min(step, rows), 2 * n), dtype=complex)
        for r in range(0, rows, step):
            e = min(r + step, rows)
            w = buf[:e - r]
            np.multiply(re[r:e], self._scale, out=w.real)
            np.multiply(im[r:e], self._scale, out=w.imag)
            np.fft.fft(w, axis=1, out=w)
            np.cumsum(w.real[:, :n], axis=1, out=out[r:e])
            # Paths [rows, n_paths) are the imaginary parts of rows [0, n_paths - rows).
            rest = out[rows + r:rows + e]
            np.cumsum(w.imag[:len(rest), :n], axis=1, out=rest)
        out *= self._dt ** self.h.value
        return out


def sample_paths(grid, h, method="circulant", seed=0, n_paths=1):
    """Sample n_paths fBm paths on the grid.

    Returns (values, used_fallback) where values has shape (n_paths, len(grid)).
    Reproducible: same (grid, h, method, seed, n_paths) gives identical output.
    """
    sampler = PathSampler(grid, h, method)
    normals = np.random.default_rng(seed).standard_normal(sampler.normal_count(n_paths))
    return sampler.paths(normals, n_paths), sampler.used_fallback


def path_moments(samplers, n_paths, seed):
    """{h: (mean of v v^T, standard error of each entry)} over n_paths paths v of
    each h's PathSampler, all of one grid and one method.  Batch j of paths is
    drawn from child j of SeedSequence(seed) whatever H, so its normals are drawn
    once, into one buffer, and every H's sampler maps them to its own paths."""
    if not samplers:
        return {}
    n = next(iter(samplers.values())).grid.size
    batch = max(1, _BATCH_ENTRIES // n)         # paths per batch
    # Sums of v v^T and of v^2 (v^2)^T over batches of paths, so the memory held
    # grows neither with n_paths nor with the number of H.
    sums = {h: (np.zeros((n, n)), np.zeros((n, n))) for h in samplers}
    buffers, paths = {}, np.empty((batch, n))
    for j, batch_seed in enumerate(np.random.SeedSequence(seed).spawn(-(-n_paths // batch))):
        k = min(batch, n_paths - j * batch)
        drawn = {}      # this batch's normals, by the method that takes them
        for h, sampler in samplers.items():
            kind = sampler.method       # "cholesky" after a circulant fallback
            if kind not in drawn:
                if kind not in buffers:
                    buffers[kind] = np.empty(sampler.normal_count(batch))
                drawn[kind] = np.random.default_rng(batch_seed).standard_normal(
                    out=buffers[kind][:sampler.normal_count(k)])
            vals = sampler.paths(drawn[kind], k, out=paths[:k])
            vv, sq_sq = sums[h]
            vv += vals.T @ vals
            sq = np.square(vals, out=vals)
            sq_sq += sq.T @ sq
    moments = {}
    for h, (vv, sq_sq) in sums.items():
        emp = vv / n_paths
        # Sample variance of each product v_i v_j from second moments of v^2.
        prod_var = (sq_sq / n_paths - emp ** 2) * n_paths / (n_paths - 1)
        moments[h] = (emp, np.sqrt(prod_var / n_paths))
    return moments
