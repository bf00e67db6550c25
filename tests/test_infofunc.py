import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from fbm_infoflow import channels as ch, identities as idn, infofunc as nf, sigma as sg
from fbm_infoflow.errors import QuadratureError, SupportError


def _untagged(mean, var):
    """Gaussian density without the analytic tag, forcing the quadrature path."""
    g = ch.gaussian_field(mean, var)
    return ch.DensityField(lo=g.lo, hi=g.hi, pdf=g.pdf, score_fn=g.score_fn)


@contextlib.contextmanager
def _no_quadpack():
    """Fail every call into the adaptive rule in x: fields with a trapezoid-rule tag
    must not reach it."""
    def no_quadpack(*args, **kwargs):
        raise AssertionError("a field with a rule tag reached the adaptive rule")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nf.integrate, "quad", no_quadpack)
        yield


def _uniform_field():
    """The uniform law on [0, 1], without a rule tag."""
    return ch.DensityField(
        lo=0.0, hi=1.0,
        pdf=lambda x: np.where((np.asarray(x) >= 0.0) & (np.asarray(x) <= 1.0), 1.0, 0.0),
        score_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def test_gaussian_entropy_closed_form():
    assert nf.entropy(ch.gaussian_field(0, 1)) == pytest.approx(
        0.5 * math.log(2 * math.pi * math.e), abs=1e-14)


def test_entropy_additive_channel_value():
    c = ch.additive(ch.gaussian_law(0, 1), 0.5)
    assert nf.entropy(ch.density_at(c, 1.0)) == pytest.approx(
        0.5 * math.log(4 * math.pi * math.e), abs=1e-12)


def test_uniform_entropy_zero():
    assert nf.entropy(_uniform_field()) == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("var", [0.1, 1.0, 10.0, 100.0])
def test_gaussian_branch_agrees_with_quadrature(var):
    tagged = ch.gaussian_field(0.3, var)
    plain = _untagged(0.3, var)
    with _no_quadpack():
        h, j = nf.entropy(tagged), nf.generalized_fisher(tagged)
    assert nf.entropy(plain) == pytest.approx(h, abs=1e-8)
    assert nf.generalized_fisher(plain) == pytest.approx(j, abs=1e-8, rel=1e-8)


def test_fisher_gaussian_reciprocal_variance():
    for v in (0.25, 1.0, 4.0):
        assert nf.generalized_fisher(ch.gaussian_field(1.0, v)) == pytest.approx(1.0 / v)


def test_fisher_sigma_squared_weight_moment():
    # E[(1 + Z^2) Z^2] = 1 + 3 = 4 for Z ~ N(0,1)
    b = lambda x: sg.sqrt_one_plus_square().fn(x) ** 2
    got = nf.generalized_fisher(ch.gaussian_field(0.0, 1.0), b)
    assert got == pytest.approx(4.0, abs=1e-8)


def test_fisher_linearity_in_weight():
    f = ch.density_at(ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.6), 1.0)
    base = nf.generalized_fisher(f)
    scaled = nf.generalized_fisher(f, lambda x: 2.25 * np.ones_like(x))
    assert scaled == pytest.approx(2.25 * base, rel=1e-7)


def test_kl_same_field_zero():
    f = ch.density_at(ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.6), 1.0)
    assert nf.kl_divergence(f, f) == 0.0
    assert nf.relative_fisher(f, f) == 0.0


def test_kl_gaussian_shift():
    p = ch.gaussian_field(0.0, 1.0)
    q = ch.gaussian_field(1.0, 1.0)
    assert nf.kl_divergence(p, q) == pytest.approx(0.5)


def test_kl_gaussian_shift_general():
    for x0, y0, v in [(0.3, -0.7, 2.0), (2.0, 0.0, 0.5)]:
        p = ch.gaussian_field(x0, v)
        q = ch.gaussian_field(y0, v)
        assert nf.kl_divergence(p, q) == pytest.approx((x0 - y0) ** 2 / (2 * v))


def test_kl_quadrature_path_matches_closed_form():
    p = _untagged(0.0, 1.0)
    q = _untagged(1.0, 1.5)
    tagged = nf.kl_divergence(ch.gaussian_field(0, 1.0), ch.gaussian_field(1.0, 1.5))
    assert nf.kl_divergence(p, q) == pytest.approx(tagged, abs=1e-8)


def test_kl_nonnegative_on_test_fields():
    fields = [
        ch.gaussian_field(0, 1),
        _untagged(0.5, 2.0),
        ch.density_at(ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.6), 1.0),
    ]
    for p in fields:
        for q in fields:
            assert nf.kl_divergence(p, q) >= -nf.ABS_TOL


def test_relative_fisher_gaussian_closed_form():
    for x0, y0, v in [(0.0, 1.0, 1.0), (0.5, -0.5, 2.0)]:
        p = ch.gaussian_field(x0, v)
        q = ch.gaussian_field(y0, v)
        assert nf.relative_fisher(p, q) == pytest.approx((x0 - y0) ** 2 / v ** 2)
        c2 = lambda x: 2.25 * np.ones_like(np.asarray(x))
        got = nf.relative_fisher(_untagged(x0, v), _untagged(y0, v), c2)
        assert got == pytest.approx(2.25 * (x0 - y0) ** 2 / v ** 2, rel=1e-6)


def test_support_violation():
    p = ch.gaussian_field(0.0, 1.0)
    narrow = ch.DensityField(
        lo=-20, hi=20,
        pdf=lambda x: np.where(np.abs(np.asarray(x)) < 0.5, 1.0, 0.0),
        score_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    with pytest.raises(SupportError):
        nf.kl_divergence(p, narrow)


def test_entropy_power_gaussian_is_variance():
    for v in (0.5, 1.0, 3.0):
        assert nf.entropy_power(ch.gaussian_field(0.0, v)) == pytest.approx(v)


def test_entropy_power_uniform():
    assert nf.entropy_power(_uniform_field()) == pytest.approx(
        1.0 / (2 * math.pi * math.e), abs=1e-6)


def test_entropy_power_monotone_in_entropy():
    p = ch.gaussian_field(0, 1.0)
    q = ch.gaussian_field(0, 2.0)
    assert nf.entropy(p) < nf.entropy(q)
    assert nf.entropy_power(p) < nf.entropy_power(q)


# Gaussian pairs for which q's domain (mean +/- 10 std) holds all of p's mass.
_mean = st.floats(-3.0, 3.0)
_var = st.floats(0.1, 100.0)
_shift = st.floats(-0.5, 0.5)        # in units of p's std
_ratio = st.floats(0.7, 1.5)         # q's variance over p's


def _pair(mean, var, shift, ratio):
    return mean, var, mean + shift * math.sqrt(var), var * ratio


@settings(max_examples=25, deadline=None)
@given(_mean, _var, _shift, _ratio)
def test_x_rule_agrees_with_quadrature(mean, var, shift, ratio):
    m1, v1, m2, v2 = _pair(mean, var, shift, ratio)
    p, q = ch.gaussian_field(m1, v1), ch.gaussian_field(m2, v2)
    pu, qu = _untagged(m1, v1), _untagged(m2, v2)
    with _no_quadpack():
        h, j = nf.entropy(p), nf.generalized_fisher(p)
        kl, rel = nf.kl_divergence(p, q), nf.relative_fisher(p, q)
    assert nf.entropy(pu) == pytest.approx(h, abs=1e-8)
    assert nf.generalized_fisher(pu) == pytest.approx(j, abs=1e-8, rel=1e-8)
    assert nf.kl_divergence(pu, qu) == pytest.approx(kl, abs=1e-8)
    assert nf.relative_fisher(pu, qu) == pytest.approx(rel, abs=1e-8, rel=1e-8)


def _grid_quantities(f):
    """Entropy, J_1, E[d_x score] and Var[d_x score] of the field f."""
    mean = nf.expectation(f, f.dscore_fn)
    return (nf.entropy(f), nf.generalized_fisher(f), mean,
            nf.expectation(f, lambda x: (f.dscore_fn(x) - mean) ** 2))


@pytest.mark.parametrize("h", [0.3, 0.5, 0.75])
@pytest.mark.parametrize("t", [0.05, 0.5, 1.0, 2.0])
def test_grid_law_x_rule_matches_quadpack(h, t):
    grid = np.linspace(-1.0, 1.0, 501)
    law = ch.grid_law(grid, np.full(grid.size, 0.5))
    f = ch.density_at(ch.additive(law, h), t)
    with _no_quadpack():
        got = _grid_quantities(f)
    ref = _grid_quantities(dataclasses.replace(f, step=None))
    for value, exact in zip(got, ref):
        assert abs(value - exact) <= nf.ABS_TOL + nf.REL_TOL * abs(exact)


def test_x_rule_skips_points_where_the_density_underflows():
    # No mass on |x| < 0.499; at t = 1e-5 the kernel std is 0.003, so pdf(0) is 0.0
    # and -ln f would be inf there.  The pinned entropy is the interpolant's,
    # 0.012436453387835303, by 30-digit quadrature of -p ln p with p from the
    # closed-form convolution of its four linear pieces (mpmath).
    grid = np.linspace(-1.0, 1.0, 2001)
    values = np.where(np.abs(grid) >= 0.5, 1.0, 0.0)
    law = ch.grid_law(grid, values / np.trapezoid(values, grid))
    f = ch.density_at(ch.additive(law, 0.5), 1e-5)
    assert f.pdf(0.0) == 0.0
    with _no_quadpack():
        got = nf.entropy(f)
    ref = nf.entropy(dataclasses.replace(f, step=None))
    assert ref == pytest.approx(0.0124364533878, abs=1e-12)
    assert abs(got - ref) <= nf.ABS_TOL + nf.REL_TOL * abs(ref)


@settings(max_examples=25, deadline=None)
@given(_mean, _var, _shift, _ratio, st.booleans())
def test_kl_and_fisher_nonnegative(mean, var, shift, ratio, tagged):
    m1, v1, m2, v2 = _pair(mean, var, shift, ratio)
    make = ch.gaussian_field if tagged else _untagged
    p, q = make(m1, v1), make(m2, v2)
    assert nf.kl_divergence(p, q) >= -nf.ABS_TOL
    assert nf.kl_divergence(q, p) >= -nf.ABS_TOL
    assert nf.generalized_fisher(p) >= 0.0


def _gauss_mean(fn, var):
    """E[fn(Z)], Z ~ N(0, var), by QUADPACK on the closed-form integrand."""
    sd = math.sqrt(var)
    return integrate.quad(lambda z: fn(z) * math.exp(-0.5 * z * z / var), -12 * sd, 12 * sd,
                          epsabs=1e-14, epsrel=1e-13, limit=200)[0] / math.sqrt(2 * math.pi * var)


@pytest.mark.parametrize("h", [0.3, 0.5, 0.75])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_z_rule_matches_sqrt1p_closed_forms(monkeypatch, h, t):
    # sqrt1p's flow from x0 is phi(z) = sinh(z + asinh x0): with Z ~ N(0, v),
    # h(X) = h(Z) + E[ln cosh Z], sigma sigma'' + sigma'^2 = 1 and
    # J_{sigma^2} = 1/v + E[1 + sech^2 Z] (Gaussian integration by parts).
    # Y starts at 1, so Y_t = phi(Z + dz) with dz = asinh 1; KL and the relative
    # Fisher information are invariant under phi: dz^2/(2v) and dz^2/v^2.
    s = sg.sqrt_one_plus_square()
    v, dz = t ** (2 * h), math.asinh(1.0)
    exact = {
        "entropy": 0.5 * math.log(2 * math.pi * math.e * v)
                   + _gauss_mean(lambda z: math.log(math.cosh(z)), v),
        "fisher": 1 / v + 1 + _gauss_mean(lambda z: math.cosh(z) ** -2, v),
        "curvature": 1.0,
        "kl": dz ** 2 / (2 * v),
        "relative_fisher": dz ** 2 / v ** 2,
    }
    p = ch.density_at(ch.multiplicative(s, 0.0, h), t)
    q = ch.density_at(ch.multiplicative(s, 1.0, h), t)
    assert p.flow is not None and q.flow is not None

    def no_quadpack(*args, **kwargs):
        raise AssertionError("flow fields must not reach the adaptive rule in x")
    monkeypatch.setattr(nf.integrate, "quad", no_quadpack)
    got = {
        "entropy": nf.entropy(p),
        "fisher": nf.generalized_fisher(p, lambda x: s.fn(x) ** 2),
        "curvature": nf.expectation(p, s.curvature),
        "kl": nf.kl_divergence(p, q),
        "relative_fisher": nf.relative_fisher(p, q, lambda x: s.fn(x) ** 2),
    }
    for name, value in exact.items():
        assert abs(got[name] - value) <= nf.ABS_TOL + nf.REL_TOL * abs(value), name


def test_z_rule_raises_at_point_cap(monkeypatch):
    p = ch.density_at(ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.75), 1.0)
    monkeypatch.setattr(nf, "_MAX_POINTS", 100)    # the first sums hold 65 and 129
    with pytest.raises(QuadratureError):
        nf.entropy(p)


@pytest.mark.parametrize("x0, y0, t, h, q_first", [
    (0.0, 1.0, 0.05, 0.5, False),        # q's own 8-std window misses some of p's mass
    (0.0, 1.0, 0.05, 0.75, False),       # ... and most of it
    (0.0, 1.0, 0.05, 0.9, False),        # ... and all of it
    (0.0, 1e5, 0.5, 0.5, False),         # the windows do not overlap
    (1e5, 1.0, 0.5, 0.5, True),          # q, built first, must read the longer table p needs
])
def test_flow_divergence_matches_closed_form(x0, y0, t, h, q_first):
    # Under one sigma, X_t and Y_t are phi(z0 + Z) with z0 = asinh x0 and asinh y0
    # on sqrt1p: KL = dz^2 / (2 t^{2H}) and J_{sigma^2} = dz^2 / t^{4H}.  q is read
    # on p's window from the one table of sigma, whatever its own window.
    s = sg.sqrt_one_plus_square()
    order = (y0, x0) if q_first else (x0, y0)
    built = {x: ch.density_at(ch.multiplicative(s, x, h), t) for x in order}
    p, q = built[x0], built[y0]
    dz2, v = (math.asinh(y0) - math.asinh(x0)) ** 2, t ** (2 * h)
    exact = {"kl": dz2 / (2 * v), "relative_fisher": dz2 / v ** 2}
    got = {"kl": nf.kl_divergence(p, q),
           "relative_fisher": nf.relative_fisher(p, q, lambda x: s.fn(x) ** 2)}
    for name, value in exact.items():
        assert abs(got[name] - value) <= nf.ABS_TOL + nf.REL_TOL * abs(value), name


# Cells of the flow sweep of tests/test_cli.py, its corners and widest windows
# (QUADPACK's scalar callbacks take ~0.1 s a wide cell), without t = 4, H = 0.9,
# whose window would drop more than ABS_TOL of the mass.
_SWEEP = [(t, h) for t in (0.05, 0.5, 2.0, 4.0) for h in (0.1, 0.5, 0.75, 0.9)
          if (t, h) != (4.0, 0.9)]


@contextlib.contextmanager
def _against_quadpack():
    """Run scipy's QUADPACK beside the Gauss-Kronrod rule on each integrand the
    rule gets, as a scalar callback; yields the list of (rule, QUADPACK) results.
    The rule must hand the integrand its nodes in ascending order."""
    rule, results = nf.integrate.quad, []

    def both(f, a, b, **tolerances):
        def ascending(x):
            assert np.all(np.diff(x) > 0), "the rule's nodes are out of order"
            return f(x)
        got = rule(ascending, a, b, **tolerances)
        results.append((got, integrate.quad(lambda x: float(f(np.array([x]))[0]), a, b,
                                            full_output=1, **tolerances)))
        return got
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nf.integrate, "quad", both)
        yield results


def _assert_rule_meets_quadpack(results):
    for got, ref in results:
        assert len(got) == 3 and all(type(v) is float for v in got[:2]), got
        assert got[2]["neval"] > 0 and got[2]["neval"] % 21 == 0
        if len(ref) == 3:       # QUADPACK converged
            assert abs(got[0] - ref[0]) <= nf.ABS_TOL + nf.REL_TOL * abs(ref[0]), (got, ref)


@pytest.mark.parametrize("rhs_of", ["debruijn", "kl-flow"])
def test_gauss_kronrod_matches_quadpack_over_the_flow_sweep(rhs_of):
    # The x-space cross-check's integrands: the sqrt1p rhs definitions on fields
    # with their flow tags dropped.  The rule converges on every cell, where
    # QUADPACK gives up on three of the widest, meets QUADPACK wherever it
    # converges, and meets the z rule everywhere.
    s = sg.sqrt_one_plus_square()
    for t, h in _SWEEP:
        x = ch.multiplicative(s, 0.0, h)
        rhs = (idn.debruijn_rhs(x, t) if rhs_of == "debruijn"
               else idn.kl_flow_rhs(x, ch.multiplicative(s, 1.0, h), t))
        z_rhs = rhs.value()
        with _against_quadpack() as results:
            x_rhs = rhs.value([dataclasses.replace(f, flow=None) for f in rhs.fields])
        assert len(results) == 1
        _assert_rule_meets_quadpack(results)
        accuracy = abs(rhs.scale) * nf.ABS_TOL + nf.REL_TOL * abs(z_rhs)
        assert abs(x_rhs - z_rhs) <= accuracy, (t, h)


@pytest.mark.parametrize("mean, var, other", [(0.0, 1.0, (1.0, 1.5)), (0.3, 0.01, (0.25, 0.02)),
                                              (-2.0, 100.0, (5.0, 80.0))])
def test_gauss_kronrod_matches_gaussian_closed_forms(mean, var, other):
    m2, v2 = other
    p, q = _untagged(mean, var), _untagged(m2, v2)
    exact = {"entropy": 0.5 * math.log(2 * math.pi * math.e * var), "fisher": 1.0 / var,
             "kl": 0.5 * (math.log(v2 / var) + (var + (mean - m2) ** 2) / v2 - 1.0),
             "relative_fisher": (mean - m2) ** 2 / v2 ** 2 + (1.0 / v2 - 1.0 / var) ** 2 * var}
    with _against_quadpack() as results:
        got = {"entropy": nf.entropy(p), "fisher": nf.generalized_fisher(p),
               "kl": nf.kl_divergence(p, q), "relative_fisher": nf.relative_fisher(p, q)}
    assert len(results) == 4
    _assert_rule_meets_quadpack(results)
    for name, value in exact.items():
        assert abs(got[name] - value) <= nf.ABS_TOL + nf.REL_TOL * abs(value), name


@pytest.mark.parametrize("peaks", [[-7.5, -2.0, 1.5, 6.0], [-8.0, -3.5, 0.5, 4.0, 8.5]])
def test_gauss_kronrod_evaluates_in_ascending_order(peaks):
    # Narrow Lorentzian peaks make the rule bisect intervals far apart in one
    # round; each round's nodes still reach the integrand in ascending order.
    exact = sum(0.1 * (math.atan((10.0 - c) / 0.01) - math.atan((-10.0 - c) / 0.01))
                for c in peaks)
    with _against_quadpack() as results:
        nf.integrate.quad(lambda x: sum(1e-3 / (1e-4 + (x - c) ** 2) for c in peaks),
                          -10.0, 10.0, epsabs=nf.ABS_TOL, epsrel=nf.REL_TOL, limit=nf._LIMIT)
    _assert_rule_meets_quadpack(results)
    assert abs(results[0][0][0] - exact) <= nf.ABS_TOL + nf.REL_TOL * exact


def test_gauss_kronrod_reports_a_failure():
    # Bisection cannot resolve a jump below the tolerance within the limit.
    value, error, info, message = nf.integrate.quad(
        lambda x: np.where(x < 1.0 / 3.0, 1.0, 0.0), 0.0, 1.0, epsabs=1e-14, epsrel=0.0,
        limit=10)
    assert abs(value - 1.0 / 3.0) < 1e-2 and error > 1e-14 and info["neval"] > 0
    assert "10 subintervals" in message
    with pytest.MonkeyPatch.context() as mp, pytest.raises(QuadratureError):
        mp.setattr(nf, "_LIMIT", 10)
        nf.entropy(ch.DensityField(lo=-1.0, hi=1.0, pdf=lambda x: np.where(x < 1 / 3, 0.75, 0.0),
                                   score_fn=lambda x: np.zeros_like(x)))
