import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fbm_infoflow import channels as ch, infofunc as nf, sigma as sg
from fbm_infoflow.errors import DegenerateTimeError, DomainError, ResolutionError


def _uniform_law(lo=-1.0, hi=1.0, n=2001):
    grid = np.linspace(lo, hi, n)
    return ch.grid_law(grid, np.full(n, 1.0 / (hi - lo)))


def _normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)


def _is_normal(f, mean, var):
    """f's pdf is the N(mean, var) density to rounding over mean +/- 8 std."""
    xs = mean + np.linspace(-8.0, 8.0, 65) * np.sqrt(var)
    return np.allclose(f.pdf(xs), _normal_pdf(xs, mean, var), rtol=1e-13, atol=0.0)


def test_additive_gaussian_closed_form():
    c = ch.additive(ch.gaussian_law(0.0, 1.0), 0.5)
    f = ch.density_at(c, 1.0)
    assert _is_normal(f, 0.0, 2.0)
    assert f.pdf(0.0) == pytest.approx(1.0 / np.sqrt(4 * np.pi), abs=1e-12)


def test_multiplicative_unit_sigma_is_standard_gaussian():
    c = ch.multiplicative(sg.constant(1.0), 0.0, 0.3)
    f = ch.density_at(c, 1.0)
    assert _is_normal(f, 0.0, 1.0)
    assert f.pdf(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-14)


def test_constant_sigma_matches_gaussian_pointwise():
    c = ch.multiplicative(sg.constant(1.0), 0.5, 0.7)
    f = ch.density_at(c, 1.3)
    var = 1.3 ** 1.4
    xs = 0.5 + np.linspace(-4, 4, 33) * np.sqrt(var)
    exact = np.exp(-0.5 * (xs - 0.5) ** 2 / var) / np.sqrt(2 * np.pi * var)
    assert np.max(np.abs(f.pdf(xs) - exact) / exact) <= 1e-10


def _flat_custom(c):
    """sigma = c as a custom model, so density_at takes the flow route."""
    return sg.custom(lambda x: np.full_like(np.asarray(x, float), c),
                     lambda x: np.zeros_like(np.asarray(x, float)),
                     lambda x: np.zeros_like(np.asarray(x, float)),
                     domain=(-1e9, 1e9))


@settings(max_examples=15, deadline=None)
@given(c=st.floats(0.2, 5.0), x0=st.floats(-3.0, 3.0), h=st.floats(0.1, 0.9),
       t=st.floats(0.1, 3.0))
def test_constant_sigma_flow_field_is_gaussian(c, x0, h, t):
    # solve_phi + pushforward_density + the z rule against the Gaussian field
    flow = ch.density_at(ch.multiplicative(_flat_custom(c), x0, h), t)
    gauss = ch.density_at(ch.multiplicative(sg.constant(c), x0, h), t)
    assert flow.flow is not None and _is_normal(gauss, x0, c ** 2 * t ** (2 * h))
    xs = x0 + c * t ** h * np.linspace(-4.0, 4.0, 81)
    assert np.max(np.abs(flow.pdf(xs) / gauss.pdf(xs) - 1.0)) <= 1e-9
    assert nf.entropy(flow) == pytest.approx(nf.entropy(gauss), abs=1e-9)
    assert nf.generalized_fisher(flow) == pytest.approx(
        nf.generalized_fisher(gauss), abs=1e-9, rel=1e-9)


def test_grid_convolution_matches_gaussian_closed_form():
    # Gaussian(0,1) tabulated on a grid, convolved: must match Gaussian(0, 1+t^{2H})
    grid = np.linspace(-10, 10, 4001)
    vals = np.exp(-0.5 * grid ** 2) / np.sqrt(2 * np.pi)
    vals /= np.trapezoid(vals, grid)
    c = ch.additive(ch.grid_law(grid, vals), 0.75)
    f = ch.density_at(c, 2.0)
    var = 1.0 + 2.0 ** 1.5
    xs = np.linspace(-5, 5, 41)
    exact = np.exp(-0.5 * xs ** 2 / var) / np.sqrt(2 * np.pi * var)
    assert np.max(np.abs(f.pdf(xs) - exact)) <= 1e-6


def test_convolved_field_normalizes():
    c = ch.additive(_uniform_law(), 0.3)
    f = ch.density_at(c, 0.5)
    mass, _ = quad(f.pdf, f.lo, f.hi, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_score_gaussian_examples():
    f = ch.gaussian_field(0.0, 1.0)
    assert f.score_fn(0.0) == 0.0
    f2 = ch.gaussian_field(0.0, 2.0)
    assert f2.score_fn(np.array([1.0, -2.0])) == pytest.approx([-0.5, 1.0])


@pytest.mark.parametrize("make_field", [
    lambda: ch.density_at(
        ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.6), 1.0),
    lambda: ch.density_at(ch.additive(_uniform_law(), 0.5), 1.0),
    lambda: ch.density_at(ch.additive(ch.gaussian_law(0.5, 2.0), 0.3), 0.7),
])
def test_score_consistent_with_fd_of_log_density(make_field):
    f = make_field()
    xs = np.linspace(-2.0, 2.0, 25)
    eps = 1e-5
    fd = (np.log(np.atleast_1d(f.pdf(xs + eps)))
          - np.log(np.atleast_1d(f.pdf(xs - eps)))) / (2 * eps)
    sc = np.atleast_1d(f.score_fn(xs))
    assert np.max(np.abs(fd - sc) / (1.0 + np.abs(sc))) <= 1e-5
    if f.dscore_fn is None:     # flow fields carry no derivative of the score
        return
    fd = (f.score_fn(xs + eps) - f.score_fn(xs - eps)) / (2 * eps)
    ds = f.dscore_fn(xs)
    assert ds.shape == xs.shape
    assert np.max(np.abs(fd - ds) / (1.0 + np.abs(ds))) <= 1e-5
    # a scalar point gives numpy scalars, as an array gives arrays
    assert all(isinstance(fn(0.5), np.floating) for fn in (f.pdf, f.score_fn, f.dscore_fn))


def test_grid_law_score_memory_is_bounded():
    # The oracle hands the score whole sample batches; the kernel must not be
    # built for every point at once (that took over 1 GiB for 20 000 points).
    # What is left is two kernel blocks (u = x - m and its exponential) plus a
    # few arrays of the points.
    for law, n in ((_uniform_law(), 20000), (_uniform_law(n=201), 200000)):
        f = ch.density_at(ch.additive(law, 0.75), 1.0)
        x = np.random.default_rng(0).normal(size=n)
        tracemalloc.start()
        try:
            s = f.score_fn(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (2 * ch._KERNEL_ENTRIES + 8 * n)
        idx = [0, n // 2 + 345, n - 1]          # first, a middle and the last block
        assert s[idx] == pytest.approx([f.score_fn(x[i]) for i in idx], rel=1e-12)


def _two_bump_law(n=2001):
    grid = np.linspace(0.0, 100.0, n)
    values = 0.6 * _normal_pdf(grid, 30.0, 25.0) + 0.4 * _normal_pdf(grid, 70.0, 64.0)
    return ch.grid_law(grid, values / np.trapezoid(values, grid))


def _finest_variance(law):
    """The smallest added variance that ResolutionError admits: std 2 grid steps."""
    return (2.0 * np.max(np.diff(law.grid))) ** 2


def _mixture_sum(law, s, x):
    """pdf, score and dscore of the law's point-mass mixture plus N(0, s), summed
    component by component: trapezoid weight times density at each grid point."""
    dy = np.diff(law.grid)
    w = law.values * (np.append(dy, 0.0) + np.insert(dy, 0, 0.0)) / 2.0
    w /= w.sum()
    u = x[:, None] - law.grid
    k = w * np.exp(-u * u / (2.0 * s)) / np.sqrt(2.0 * np.pi * s)
    f = k.sum(axis=1)
    df = -(k * u).sum(axis=1) / s
    d2f = (k * (u * u / s - 1.0)).sum(axis=1) / s
    return f, df / f, d2f / f - (df / f) ** 2


_kernel_cases = pytest.mark.parametrize(
    "law, s", [(_uniform_law(), 0.0112), (_uniform_law(), 1.0),
               (_two_bump_law(), _finest_variance(_two_bump_law()))],
    ids=["uniform-narrow", "uniform-wide", "two-bump-finest"])


@_kernel_cases
def test_mixture_kernel_matches_component_sum(law, s):
    f = ch._mixture_field(law, s)
    x = np.linspace(f.lo, f.hi, 601)
    pdf, score, dscore = _mixture_sum(law, s, x)
    np.testing.assert_allclose(f.pdf(x), pdf, rtol=1e-12, atol=0.0)
    for got, want in ((f.score_fn(x), score), (f.dscore_fn(x), dscore)):
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@_kernel_cases
def test_mixture_kernel_blocks_do_not_change_values(law, s, monkeypatch):
    x = np.random.default_rng(1).uniform(law.grid[0] - 1.0, law.grid[-1] + 1.0, 1001)
    f = ch._mixture_field(law, s)
    want = [f.pdf(x), f.score_fn(x), f.dscore_fn(x)]
    monkeypatch.setattr(ch, "_KERNEL_ENTRIES", 3 * law.grid.size)   # three rows a block
    f = ch._mixture_field(law, s)
    pdf, score, dscore = f.pdf(x), f.score_fn(x), f.dscore_fn(x)
    np.testing.assert_allclose(pdf, want[0], rtol=1e-13, atol=0.0)
    assert np.max(np.abs(score - want[1])) <= 1e-13 * np.max(np.abs(want[1]))
    # dscore = f''/f - score^2 cancels; its rounding is relative to score^2.
    assert np.max(np.abs(dscore - want[2])) <= 1e-13 * np.max(want[1] ** 2)


def test_density_nonnegative_on_probes():
    f = ch.density_at(ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.75), 1.0)
    xs = np.linspace(f.lo, f.hi, 1000)
    assert np.all(np.atleast_1d(f.pdf(xs)) >= 0)


def test_additive_variance_exact():
    for h, t, v0 in [(0.3, 0.7, 0.25), (0.75, 2.0, 4.0)]:
        c = ch.additive(ch.gaussian_law(0.0, v0), h)
        assert _is_normal(ch.density_at(c, t), 0.0, v0 + t ** (2 * h))


def test_degenerate_time():
    c = ch.multiplicative(sg.constant(1.0), 0.0, 0.5)
    with pytest.raises(DegenerateTimeError):
        ch.density_at(c, 0.0)


def test_convolution_resolution_error():
    c = ch.additive(_uniform_law(n=11), 0.5)   # dy = 0.2, kernel sd at t must be < 0.4
    with pytest.raises(ResolutionError):
        ch.density_at(c, 0.01)


def test_grid_law_validation():
    grid = np.linspace(-1, 1, 101)
    with pytest.raises(DomainError):
        ch.grid_law(grid, np.full(101, 1.0))   # integrates to 2
    with pytest.raises(DomainError):
        ch.grid_law(grid, -np.full(101, 0.5))
    with pytest.raises(DomainError):
        ch.gaussian_law(0.0, -1.0)


def test_additive_channel_takes_only_the_unit_sigma():
    # A sigma other than 1 on an additive channel was once accepted and never read.
    law = ch.gaussian_law(0.0, 1.0)
    assert ch.additive(law, 0.5).sigma is ch.UNIT_SIGMA
    for sigma in (sg.constant(1.0), sg.identity_channel()):
        assert ch.ChannelSpec("additive", 0.5, sigma=sigma, initial=law).sigma is sigma
    for sigma in (sg.sqrt_one_plus_square(), sg.constant(2.0)):
        with pytest.raises(DomainError):
            ch.ChannelSpec(variant="additive", hurst=0.5, sigma=sigma, initial=law)
