import bisect
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fbm_infoflow import channels as ch, infofunc as nf, sigma as sg
from fbm_infoflow.errors import DegenerateTimeError, DomainError, FlowEscapeError


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
    # the Lamperti table, the field's pdf and the z rule against the Gaussian field
    flow = ch.density_at(ch.multiplicative(_flat_custom(c), x0, h), t)
    gauss = ch.density_at(ch.multiplicative(sg.constant(c), x0, h), t)
    assert flow.flow is not None and _is_normal(gauss, x0, c ** 2 * t ** (2 * h))
    xs = x0 + c * t ** h * np.linspace(-4.0, 4.0, 81)
    assert np.max(np.abs(flow.pdf(xs) / gauss.pdf(xs) - 1.0)) <= 1e-9
    assert nf.entropy(flow) == pytest.approx(nf.entropy(gauss), abs=1e-9)
    assert nf.generalized_fisher(flow) == pytest.approx(
        nf.generalized_fisher(gauss), abs=1e-9, rel=1e-9)


def test_flow_field_reads_past_its_table():
    # At t = 0.05, H = 0.9 the window is |z| <= 0.54, |x| <= 0.57.  A field reads
    # all of sigma's domain: past the table's end it makes the table longer, and
    # reads what a table built long from the start gives, asinh's push-forward;
    # past sigma's domain it raises.
    t, h, xs = 0.05, 0.9, np.array([-4.0, 0.1, 4.0])
    var = t ** (2 * h)
    exact = (np.exp(-0.5 * np.arcsinh(xs) ** 2 / var) / np.sqrt(2 * np.pi * var)
             / np.sqrt(1 + xs ** 2))
    short = ch.density_at(ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, h), t)
    assert short.hi < 1.0
    got = short.pdf(xs), short.score_fn(xs)
    assert np.max(np.abs(got[0] / exact - 1.0)) <= 1e-9
    s = sg.sqrt_one_plus_square()
    ch.density_at(ch.multiplicative(s, 0.0, h), 2.0)
    long = ch.density_at(ch.multiplicative(s, 0.0, h), t)
    assert np.array_equal(long.pdf(xs), got[0]) and np.array_equal(long.score_fn(xs), got[1])
    with pytest.raises(FlowEscapeError, match="outside sigma's working domain"):
        short.pdf(np.array([0.0, 2e9]))


@pytest.mark.parametrize("x0, error", [
    (50.0, None),                               # the window, z in [42, 58], fits
    (60.0, "drops 6.33e-05 of the mass"),       # the window reaches z = 68
    (1e6, r"x = 1e\+06 lies more than 64 in z"),  # 500 million nodes out
])
def test_flow_table_stops_at_its_reach(x0, error):
    # sigma = 1 as a custom sigma takes the flow route, so X_t = x0 + B^H_t through
    # a table anchored at 0 that reaches z = x0.  The table stops 64 from its
    # anchor, so its nodes and memory are bounded however far x0 lies.
    sigma = sg.custom(np.ones_like, np.zeros_like, np.zeros_like, (-1e9, 1e9))
    tracemalloc.start()
    try:
        if error is None:
            field = ch.density_at(ch.multiplicative(sigma, x0, 0.5), 1.0)
            assert nf.entropy(field) == pytest.approx(0.5 * math.log(2 * math.pi * math.e),
                                                      abs=1e-10)
        else:
            with pytest.raises(FlowEscapeError, match=error):
                ch.density_at(ch.multiplicative(sigma, x0, 0.5), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ch._Lamperti(sigma).phi.z_grid.size <= 2 * 64 * 500 + 1
    assert peak < 16 * 2 ** 20, peak


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


def _two_bump_law(n=2001):
    grid = np.linspace(0.0, 100.0, n)
    values = 0.6 * _normal_pdf(grid, 30.0, 25.0) + 0.4 * _normal_pdf(grid, 70.0, 64.0)
    return ch.grid_law(grid, values / np.trapezoid(values, grid))


def test_grid_law_score_memory_is_bounded():
    # The oracle hands the score whole sample batches; the kink terms must not be
    # built for every point at once (the point-mass kernel once took over 1 GiB
    # for 20 000 points).  What is left is one block's buffers, about 8 of
    # rows x kinks and _KERNEL_ENTRIES entries in all, plus a few arrays of the
    # points.  The two-bump law has a kink at every one of its 2001 nodes.
    for law, n in ((_uniform_law(), 20000), (_uniform_law(n=201), 200000),
                   (_two_bump_law(), 4000)):
        f = ch.density_at(ch.additive(law, 0.75), 1.0)
        x = np.random.default_rng(0).normal(np.mean(law.grid), 1.0, size=n)
        tracemalloc.start()
        try:
            s = f.score_fn(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (2 * ch._KERNEL_ENTRIES + 8 * n)
        idx = [0, n // 2 + 345, n - 1]          # first, a middle and the last block
        assert s[idx] == pytest.approx([f.score_fn(x[i]) for i in idx], rel=1e-12)


def _q(a):
    """Upper tail of N(0, 1) at a."""
    return 0.5 * math.erfc(a / math.sqrt(2.0))


def _kink_sum(law, s, xs):
    """pdf, score and dscore of the law's piecewise-linear interpolant plus N(0, s),
    point by point through math.erfc.  Kink y_k, with value jump J_k and slope jump
    S_k, adds J_k Phi(a) + S_k (u Phi(a) + sd phi(a)), u = x - y_k, a = u / sd.  A
    kink strictly left of x enters through Phi = 1 - Q around the interpolant taken
    left-continuous; the field takes it right-continuous, and the two agree on a kink."""
    y, v = law.grid.tolist(), law.values.tolist()
    n = len(y)
    slopes = [0.0] + [(v[i + 1] - v[i]) / (y[i + 1] - y[i]) for i in range(n - 1)] + [0.0]
    jumps = [v[0]] + [0.0] * (n - 2) + [-v[-1]]
    kinks = [(y[k], jumps[k], slopes[k + 1] - slopes[k]) for k in range(n)]
    kinks = [kink for kink in kinks if kink[1] or kink[2]]
    sd = math.sqrt(s)
    out = []
    for x in xs:
        i = bisect.bisect_left(y, x)                # y[i - 1] < x <= y[i]
        f = v[i - 1] + slopes[i] * (x - y[i - 1]) if 0 < i < n else 0.0
        df, d2f = slopes[i] if 0 < i < n else 0.0, 0.0
        for yk, jk, sk in kinks:
            u = x - yk
            a = u / sd
            q, phi = _q(abs(a)), math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
            side = -1.0 if u > 0 else 1.0
            f += side * jk * q + sk * (sd * phi - abs(u) * q)
            df += jk * phi / sd + side * sk * q
            d2f += (sk - jk * a / sd) * phi / sd
        out.append((f, df / f, d2f / f - (df / f) ** 2))
    return np.array(out).T


_kink_cases = pytest.mark.parametrize(
    "law, s", [(_uniform_law(), 0.0112), (_uniform_law(), 1.0), (_two_bump_law(), 1e-4)],
    ids=["uniform-narrow", "uniform-wide", "two-bump-narrow"])


@_kink_cases
def test_grid_field_matches_kink_sum(law, s):
    f = ch._grid_field(law, s)
    x = np.concatenate([np.linspace(f.lo, f.hi, 101), law.grid[::40], law.grid[-1:]])
    pdf, score, dscore = _kink_sum(law, s, x.tolist())
    np.testing.assert_allclose(f.pdf(x), pdf, rtol=1e-12, atol=0.0)
    # The float sum's own rounding in the tails bounds how close score and dscore come.
    for got, want in ((f.score_fn(x), score), (f.dscore_fn(x), dscore)):
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@_kink_cases
def test_grid_field_blocks_do_not_change_values(law, s, monkeypatch):
    x = np.random.default_rng(1).uniform(law.grid[0] - 1.0, law.grid[-1] + 1.0, 301)
    f = ch._grid_field(law, s)
    want = [f.pdf(x), f.score_fn(x), f.dscore_fn(x)]
    monkeypatch.setattr(ch, "_KERNEL_ENTRIES", 0)        # one point a block
    f = ch._grid_field(law, s)
    pdf, score, dscore = f.pdf(x), f.score_fn(x), f.dscore_fn(x)
    np.testing.assert_allclose(pdf, want[0], rtol=1e-13, atol=0.0)
    assert np.max(np.abs(score - want[1])) <= 1e-13 * np.max(np.abs(want[1]))
    # dscore = f''/f - score^2 cancels; its rounding is relative to score^2.
    assert np.max(np.abs(dscore - want[2])) <= 1e-13 * np.max(want[1] ** 2)


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _erfc_decimal(w):
    """erfc(w) for a Decimal w >= 0, to the context's precision (60 digits here)."""
    if w < 3:           # 1 - erf, erf by its Taylor series
        w2, term, total, n = w * w, w, w, 0
        while abs(term) > Decimal(10) ** -70:
            n += 1
            term *= -w2 / n
            total += term / (2 * n + 1)
        return 1 - 2 * total / _PI.sqrt()
    f = w               # Laplace's continued fraction, summed from its tail
    for k in range(300, 0, -1):
        f = w + Decimal(k) / 2 / f
    return (-w * w).exp() / _PI.sqrt() / f


def _exact(kinks, s, xs):
    """pdf, score and dscore of sum_k J_k 1{x > y_k} + S_k (x - y_k)_+ convolved with
    N(0, s), from the two-sided sum p = sum_k J_k Phi(a) + S_k (u Phi(a) + sd phi(a)),
    u = x - y_k, a = u / sd, in 60-digit decimal arithmetic, where its cancellation
    costs nothing; kinks are (y_k, J_k, S_k)."""
    with localcontext() as ctx:
        ctx.prec = 60
        sd = Decimal(s).sqrt()
        out = []
        for x in xs:
            f = df = d2f = Decimal(0)
            for yk, jk, sk in kinks:
                u = Decimal(x) - Decimal(yk)
                a = u / sd
                w = abs(a) / Decimal(2).sqrt()
                big_phi = 1 - _erfc_decimal(w) / 2 if a >= 0 else _erfc_decimal(w) / 2
                phi = (-w * w).exp() / (2 * _PI).sqrt()
                jk, sk = Decimal(jk), Decimal(sk)
                f += jk * big_phi + sk * (u * big_phi + sd * phi)
                df += jk * phi / sd + sk * big_phi
                d2f += (sk - jk * a / sd) * phi / sd
            out.append((float(f), float(df / f), float(d2f / f - (df / f) ** 2)))
    return np.array(out).T


def _assert_exact(f, kinks, s, x):
    """pdf within 1e-12 relative of the exact value; score and dscore within 1e-12
    of |value| + 1/sd and |value| + 1/s, their scales, which counts only where they
    cross 0 or underflow."""
    got = (f.pdf(x), f.score_fn(x), f.dscore_fn(x))
    for g, want, scale in zip(got, _exact(kinks, s, x), (0.0, 1.0 / math.sqrt(s), 1.0 / s)):
        assert np.all(np.abs(g - want) <= 1e-12 * (np.abs(want) + scale))


@pytest.mark.parametrize("s", [1e-4, 1e-2, 1.0, 16.0])
def test_uniform_law_matches_closed_form(s):
    # p_t = [Phi((x + 1)/sd) - Phi((x - 1)/sd)] / 2 over the whole field domain
    f = ch.density_at(ch.additive(_uniform_law(), 0.5), s)
    x = np.concatenate([np.linspace(f.lo, f.hi, 41), [-1.0, 1.0]])
    _assert_exact(f, [(-1.0, 0.5, 0.0), (1.0, -0.5, 0.0)], s, x)


@pytest.mark.parametrize("s", [1e-4, 1e-2, 1.0, 16.0])
def test_tent_law_matches_closed_form(s):
    # p0 = 1 - |x| on [-1, 1], slope kinks at -1, 0 and 1: p_t is a second
    # difference of Bachelier's ramp u Phi(u/sd) + sd phi(u/sd).
    grid = np.linspace(-1.0, 1.0, 9)
    f = ch.density_at(ch.additive(ch.grid_law(grid, 1.0 - np.abs(grid)), 0.5), s)
    x = np.concatenate([np.linspace(f.lo, f.hi, 41), [-1.0, 0.0, 1.0]])
    _assert_exact(f, [(-1.0, 0.0, 1.0), (0.0, 0.0, -2.0), (1.0, 0.0, 1.0)], s, x)


def test_erfc_matches_math_erfc():
    w = np.concatenate([np.linspace(0.0, 6.0, 6001), np.linspace(6.0, 27.0, 2101)])
    erfc, ierfc = ch._erfc(w, ch._exp_minus_square(w))
    want = np.array([math.erfc(v) for v in w.tolist()])
    rel = np.abs(erfc - want) / np.where(want > 0.0, want, 1.0)
    assert np.max(rel[w <= 6.0]) <= 1e-14
    assert np.max(rel[want >= 1e-300]) <= 1e-12
    assert np.all(np.abs(erfc - want)[want < 1e-300] <= 1e-300)
    # ierfc(w) = exp(-w^2)/sqrt(pi) - w erfc(w), which cancels in floats
    with localcontext() as ctx:
        ctx.prec = 60
        idx = np.arange(0, w.size, 37)
        exact = np.array([float((-d * d).exp() / _PI.sqrt() - d * _erfc_decimal(d))
                          for d in map(Decimal, w[idx].tolist())])
    rel = np.abs(ierfc[idx] - exact) / np.where(exact > 0.0, exact, 1.0)
    assert np.max(rel[exact >= 1e-300]) <= 1e-13
    assert np.all(np.abs(ierfc[idx] - exact)[exact < 1e-300] <= 1e-300)


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


def test_coarse_grid_law_convolves_at_small_t():
    # The 11-point uniform law at t = 0.01, where the kernel std 0.1 is half a grid
    # step: the point-mass reading refused it, and the interpolant is exact.
    f = ch.density_at(ch.additive(_uniform_law(n=11), 0.5), 0.01)
    x = np.concatenate([np.linspace(f.lo, f.hi, 41), np.linspace(-1.0, 1.0, 11)])
    _assert_exact(f, [(-1.0, 0.5, 0.0), (1.0, -0.5, 0.0)], 0.01, x)
    assert nf.generalized_fisher(f) == pytest.approx(-nf.expectation(f, f.dscore_fn), rel=1e-12)


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
    for sigma in (sg.constant(1.0), sg.constant(1.0, domain=(-10.0, 10.0))):
        assert ch.ChannelSpec("additive", 0.5, sigma=sigma, initial=law).sigma is sigma
    for sigma in (sg.sqrt_one_plus_square(), sg.constant(2.0)):
        with pytest.raises(DomainError):
            ch.ChannelSpec(variant="additive", hurst=0.5, sigma=sigma, initial=law)
