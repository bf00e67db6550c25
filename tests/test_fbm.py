import math
import time

import numpy as np
import pytest

from fbm_infoflow import fbm
from fbm_infoflow.errors import DomainError, GridError


def test_covariance_diagonal_brownian():
    assert fbm.covariance(1.0, 1.0, 0.5) == pytest.approx(1.0)


def test_covariance_brownian_is_min():
    assert fbm.covariance(1.0, 2.0, 0.5) == pytest.approx(1.0)


def test_covariance_hand_value():
    # 0.5 * (2^1.5 + 1 - 1) = sqrt(2)
    assert fbm.covariance(1.0, 2.0, 0.75) == pytest.approx(np.sqrt(2.0), abs=1e-7)


def test_covariance_symmetry_and_diagonal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s, t = rng.uniform(0, 5, 2)
        h = rng.uniform(0.05, 0.95)
        assert fbm.covariance(s, t, h) == pytest.approx(fbm.covariance(t, s, h))
        assert fbm.covariance(t, t, h) == pytest.approx(t ** (2 * h))


def test_negative_time_raises():
    with pytest.raises(DomainError):
        fbm.covariance(-1.0, 1.0, 0.5)


@pytest.mark.parametrize("s, t", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                  (1.0, [0.5, math.inf])],
                         ids=["s-nan", "t-nan", "s-inf", "t-inf"])
def test_covariance_rejects_a_time_that_is_not_finite(s, t):
    # A NaN passed the s < 0 test, and the covariance read NaN.
    with pytest.raises(DomainError, match="finite"):
        fbm.covariance(s, t, 0.5)


def test_single_point_variance():
    vals, _ = fbm.sample_paths([1.0], 0.7, method="cholesky", seed=11,
                               n_paths=100_000)
    var = vals.var()
    se = np.sqrt(2.0 / len(vals))  # var of sample variance of N(0,1)
    assert abs(var - 1.0) < 3 * se


def test_brownian_increments_uncorrelated():
    n = 256
    grid = np.arange(1, n + 1) / n
    vals, _ = fbm.sample_paths(grid, 0.5, method="circulant", seed=5,
                               n_paths=2000)
    inc = np.diff(vals, axis=1, prepend=0.0)
    a = inc[:, :-1].ravel()
    b = inc[:, 1:].ravel()
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 3.0 / np.sqrt(a.size)


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_empirical_covariance_matches_formula(method):
    n, n_paths = 16, 40_000
    grid = np.arange(1, n + 1) / n
    vals, fallback = fbm.sample_paths(grid, 0.75, method=method, seed=9,
                                      n_paths=n_paths)
    assert not fallback
    exact = fbm.covariance(grid[:, None], grid[None, :], 0.75)
    emp = vals.T @ vals / n_paths
    se = np.sqrt((vals[:, :, None] * vals[:, None, :]).var(axis=0) / n_paths)
    assert np.max(np.abs(emp - exact) / se) < 5.0


def test_cross_method_agreement():
    n, n_paths = 16, 40_000
    grid = np.arange(1, n + 1) / n

    def emp(method, seed):
        vals, _ = fbm.sample_paths(grid, 0.3, method=method, seed=seed,
                                   n_paths=n_paths)
        cov = vals.T @ vals / n_paths
        se = np.sqrt((vals[:, :, None] * vals[:, None, :]).var(axis=0) / n_paths)
        return cov, se

    c1, s1 = emp("cholesky", 21)
    c2, s2 = emp("circulant", 22)
    assert np.max(np.abs(c1 - c2) / np.sqrt(s1 ** 2 + s2 ** 2)) < 5.0


def _moment_z(a, b):
    """Largest |z| of the mean products E[a_i b_j] against zero, each with the
    standard error of its mean of products."""
    n_paths = len(a)
    mean = a.T @ b / n_paths
    second = (a ** 2).T @ (b ** 2) / n_paths
    se = np.sqrt((second - mean ** 2) / (n_paths - 1))
    return float(np.max(np.abs(mean) / se))


@pytest.mark.parametrize("h", [0.3, 0.75])
def test_circulant_real_and_imaginary_paths_are_uncorrelated(h):
    # Paths [0, rows) are the real parts of the transforms and [rows, 2 rows)
    # the imaginary parts of the same transforms.
    n, rows = 64, 20_000
    grid = np.arange(1, n + 1) / n
    vals, fallback = fbm.sample_paths(grid, h, method="circulant", seed=31,
                                      n_paths=2 * rows)
    assert not fallback
    assert _moment_z(vals[:rows], vals[rows:]) < 5.0


def test_circulant_odd_path_count():
    grid = np.arange(1, 33) / 32
    five, _ = fbm.sample_paths(grid, 0.6, method="circulant", seed=8, n_paths=5)
    six, _ = fbm.sample_paths(grid, 0.6, method="circulant", seed=8, n_paths=6)
    assert five.shape == (5, 32)
    # Both draw three transforms; five paths leave out the last imaginary part.
    assert np.array_equal(five, six[:5])


def test_circulant_one_path_is_the_real_part_of_one_transform():
    # What `fbm sample` writes: the path the sampler drew before it kept the
    # imaginary parts, and the first of two paths drawn from the same seed.
    n, h, dt = 64, 0.7, 1.0 / 64
    rng = np.random.default_rng(9)
    lam = np.clip(fbm._circulant_eigenvalues(n, h), 0.0, None)
    w = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    ref = np.cumsum(np.fft.fft(w * np.sqrt(lam / (2 * n))).real[:n]) * dt ** h
    grid = dt * np.arange(1, n + 1)
    one, _ = fbm.sample_paths(grid, h, method="circulant", seed=9, n_paths=1)
    two, _ = fbm.sample_paths(grid, h, method="circulant", seed=9, n_paths=2)
    assert one.shape == (1, n)
    assert one[0] == pytest.approx(ref, rel=1e-13, abs=1e-15)
    assert np.array_equal(one[0], two[0])


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_one_draw_serves_every_h(method, monkeypatch):
    # The normals do not depend on H: one draw gives each H the paths sample_paths
    # draws for it alone, whatever the circulant transform's block size.
    n, n_paths, seed = 64, 1001, 17
    grid = np.arange(1, n + 1) / n
    samplers = [fbm.PathSampler(grid, h, method) for h in (0.2, 0.5, 0.8)]
    counts = {s.normal_count(n_paths) for s in samplers}
    assert len(counts) == 1
    normals = np.random.default_rng(seed).standard_normal(counts.pop())
    out = np.empty((n_paths, n))
    for entries in (fbm._FFT_ENTRIES, 3 * 2 * n):
        monkeypatch.setattr(fbm, "_FFT_ENTRIES", entries)
        for s in samplers:
            alone, fallback = fbm.sample_paths(grid, s.h, method, seed, n_paths)
            assert not fallback and s.method == method
            assert np.array_equal(s.paths(normals, n_paths, out=out), alone)


def test_seed_reproducibility():
    grid = np.arange(1, 65) / 64
    a, _ = fbm.sample_paths(grid, 0.6, method="circulant", seed=123)
    b, _ = fbm.sample_paths(grid, 0.6, method="circulant", seed=123)
    assert np.array_equal(a, b)
    c, _ = fbm.sample_paths(grid, 0.6, method="circulant", seed=124)
    assert not np.array_equal(a, c)


def test_circulant_rejects_nonuniform_grid():
    with pytest.raises(GridError):
        fbm.sample_paths([0.1, 0.2, 0.5], 0.5, method="circulant")


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
@pytest.mark.parametrize("grid, match", [
    ([], "non-empty 1-d"), ([[0.5, 1.0]], "non-empty 1-d"),
    ([0.0, 0.5], "strictly positive"), ([-0.5, 0.5], "strictly positive"),
    ([math.nan] * 4, "finite"), ([math.inf] * 4, "finite"), ([0.5, math.nan, 1.5], "finite"),
    ([0.5, 0.5, 1.0], "strictly increasing"), ([1.0, 0.5], "strictly increasing")],
    ids=["empty", "2-d", "zero", "negative", "nan", "inf", "one-nan", "repeated",
         "decreasing"])
def test_sampler_rejects_a_grid_that_is_not_one_of_times(grid, match, method):
    # A NaN or infinite grid gave Cholesky paths of NaN, and the circulant sampler
    # blamed uniformity.
    with pytest.raises(GridError, match=match):
        fbm.sample_paths(grid, 0.5, method=method)


def test_invalid_hurst_rejected():
    with pytest.raises(DomainError):
        fbm.HurstParameter(1.0)
    with pytest.raises(DomainError):
        fbm.HurstParameter(0.0)


def test_circulant_speed_smoke():
    n = 2 ** 16
    grid = np.arange(1, n + 1) / n
    start = time.monotonic()
    fbm.sample_paths(grid, 0.7, method="circulant", seed=1)
    assert time.monotonic() - start < 1.0


def test_path_moments_reads_n_from_the_grid():
    # One mean and standard error of v v^T per H, n x n from the samplers' grid;
    # no samplers, no moments.
    grid = 0.25 * np.arange(1, 9)
    samplers = {h: fbm.PathSampler(grid, h, "cholesky") for h in (0.3, 0.7)}
    moments = fbm.path_moments(samplers, 500, 3)
    assert sorted(moments) == [0.3, 0.7]
    for h, (emp, se) in moments.items():
        assert emp.shape == se.shape == (8, 8)
        exact = fbm.covariance(grid[:, None], grid[None, :], h)
        assert np.max(np.abs(emp - exact) / se) <= 5.0
    assert fbm.path_moments({}, 500, 3) == {}
