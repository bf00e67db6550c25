import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from fbm_infoflow import channels as ch, identities as idn, infofunc as nf, sigma as sg
from fbm_infoflow.errors import QuadratureError, SupportError


def _untagged(mean, var):
    """The Gaussian density as a plain DensityField, forcing the quadrature path."""
    g = ch.gaussian_field(mean, var)
    return ch.DensityField(lo=g.lo, hi=g.hi, pdf=g.pdf, score_fn=g.score_fn)


@contextlib.contextmanager
def _no_quadpack():
    """Fail every call into the adaptive rule in x: fields of a type the trapezoid
    rule takes must not reach it."""
    def no_quadpack(*args, **kwargs):
        raise AssertionError("a field of a trapezoid-rule type reached the adaptive rule")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nf.integrate, "quad", no_quadpack)
        yield


def _uniform_field(lo=0.0, hi=1.0):
    """The uniform law on [lo, hi] as a plain DensityField."""
    return ch.DensityField(
        lo=lo, hi=hi,
        pdf=lambda x: np.where((np.asarray(x) >= lo) & (np.asarray(x) <= hi),
                               1.0 / (hi - lo), 0.0),
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
            if isinstance(p, ch.FlowField) and isinstance(q, ch.DensityField):
                # X = sinh(Z) puts 8.4e-4 of its mass off the plain q's support
                # [-13.6, 14.6], so K(p || q) is infinite.
                with pytest.raises(SupportError):
                    nf.kl_divergence(p, q)
                continue
            assert nf.kl_divergence(p, q) >= -nf.ABS_TOL


def test_kl_of_a_flow_against_a_gaussian_reads_its_closed_form_log():
    # X = sinh(Z), Z ~ N(0, 1), against N(0, 1): K = (e^2 - 1)/4 - 1/2 - E ln cosh Z.
    # p's density is 2.9e-7 at x = 46.6, where q's underflows to 0, so read through
    # q's pdf clamped at 1e-300, K was the floor's 0.71467.
    p = ch.density_at(ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.6), 1.0)
    z, w = np.polynomial.hermite_e.hermegauss(200)
    exact = (math.e ** 2 - 1) / 4 - 0.5 - np.dot(w, np.log(np.cosh(z))) / np.sum(w)
    assert nf.kl_divergence(p, ch.gaussian_field(0, 1)) == pytest.approx(exact, abs=1e-8)


def _sqrt1p_flows_on_two_tables():
    """sqrt1p flows from 0 and from 1 at t = 1e-4, H = 1/2, on two tables: sigma's
    domains differ.  K = dz^2 / (2t) = 3884.10, dz = asinh 1."""
    return (ch.density_at(ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.5), 1e-4),
            ch.density_at(ch.multiplicative(sg.sqrt_one_plus_square(domain=(-1e8, 1e8)),
                                            1.0, 0.5), 1e-4))


def _gaussian_and_narrow_grid():
    return (ch.gaussian_field(0, 1),
            ch.GridField(ch.grid_law(np.linspace(-1, 1, 9), np.full(9, 0.5)), 0.01))


@pytest.mark.parametrize("pair, divergence", [
    (_gaussian_and_narrow_grid, nf.kl_divergence),
    (_gaussian_and_narrow_grid, nf.relative_fisher),
    (_sqrt1p_flows_on_two_tables, nf.kl_divergence),
], ids=["gaussian-grid-kl_divergence", "gaussian-grid-relative_fisher",
        "flows-on-two-tables-kl_divergence"])
def test_support_is_checked_where_q_is_read_through_its_clamped_density(pair, divergence):
    # q's density underflows to 0 under p's mass outside the windows' overlap, so a
    # value read through it would be the density floor's: the Gaussian p against
    # the narrow grid q (q.pdf(5) = 0, p.pdf(5) = 1.5e-6) read K = 7.5708036, and
    # its relative Fisher information, whose q'/q the floor also decides, raised
    # QuadratureError; the two flows, whose z rule ran no check, read K = 693.96.
    p, q = pair()
    with pytest.raises(SupportError):
        divergence(p, q)


def test_relative_fisher_of_flows_on_two_tables_reads_only_qs_score():
    # A flow q's score is closed form in z wherever its density underflows, so no
    # support check applies.  score_p - score_q = dz / (var sigma(X)), and
    # E[1 / sigma^2] = E[sech^2 Z] = 1 - var + 2 var^2 + ..., var = t = 1e-4.
    p, q = _sqrt1p_flows_on_two_tables()
    var = 1e-4
    exact = math.asinh(1.0) ** 2 / var ** 2 * (1 - var + 2 * var ** 2)
    assert nf.relative_fisher(p, q) == pytest.approx(exact, rel=1e-8)


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


def test_support_check_reads_p_past_a_plain_qs_support():
    # A plain field's [lo, hi] is its support.  p = U[0, 1] and q = U[0.5, 1.5] agree
    # on the windows' overlap [0.5, 1], which was all the check sampled, so KL read
    # 345.388, half of ln 1e300, and raised nothing.
    with pytest.raises(SupportError):
        nf.kl_divergence(_uniform_field(0.0, 1.0), _uniform_field(0.5, 1.5))
    with pytest.raises(SupportError):
        nf.relative_fisher(_uniform_field(0.0, 1.0), _uniform_field(0.5, 1.5))
    assert nf.kl_divergence(_uniform_field(0.5, 1.0), _uniform_field(0.0, 1.5)) == (
        pytest.approx(math.log(3.0), rel=1e-12))


@pytest.mark.parametrize("kl", [450.0, 500.0, 690.0, 1000.0, 5000.0, 1e6])
def test_gaussian_kl_is_exact_far_apart(kl):
    # ln(p/q) of two Gaussian fields is the difference of their closed-form logs.
    # Read through densities clamped at 1e-300, K(N(0, 1) || N(d, 1)) was 2.2 % off
    # at 690 and read 689.357 from about 1000.
    d = math.sqrt(2.0 * kl)
    got = nf.kl_divergence(ch.gaussian_field(0.0, 1.0), ch.gaussian_field(d, 1.0))
    assert abs(got - kl) <= 1e-12 * kl


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


def _grid_quantities(f, expect=nf.expect_values):
    """Entropy, J_1, E[d_x score] and Var[d_x score] of the field f, by expect."""
    mean = expect(f, lambda v: v.dscore)
    return (expect(f, lambda v: -v.logp), expect(f, lambda v: v.score ** 2), mean,
            expect(f, lambda v: (v.dscore - mean) ** 2))


@pytest.mark.parametrize("h", [0.3, 0.5, 0.75])
@pytest.mark.parametrize("t", [0.05, 0.5, 1.0, 2.0])
def test_grid_law_x_rule_matches_quadpack(h, t):
    grid = np.linspace(-1.0, 1.0, 501)
    law = ch.grid_law(grid, np.full(grid.size, 0.5))
    f = ch.density_at(ch.additive(law, h), t)
    with _no_quadpack():
        got = _grid_quantities(f)
    ref = _grid_quantities(f, nf.expect_gauss_kronrod)
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
    ref = nf.expect_gauss_kronrod(f, lambda v: -v.logp)
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
    assert isinstance(p, ch.FlowField) and isinstance(q, ch.FlowField)

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
    # The cap counts every point the integrand sees: the first two sums together
    # would pass it, so the rule raises before evaluating any.
    seen = []

    def counting(v):
        seen.append(v.z.size)
        return -v.logp
    with pytest.raises(QuadratureError):
        nf.expect_values(p, counting)
    assert sum(seen) <= nf._MAX_POINTS


def _two_call_trapezoid(weighted, a, b, step0):
    """The trapezoid rule as one call for the base nodes and one for each halving's
    midpoints: the reference the one-call first halving must match bit for bit."""
    n = max(2, math.ceil((b - a) / step0))
    step = (b - a) / n
    vals = weighted(np.linspace(a, b, n + 1))
    total = np.sum(vals) - 0.5 * (vals[0] + vals[-1])
    value = step * total
    while 2 * n + 1 <= nf._MAX_POINTS:
        total += np.sum(weighted(a + step * (np.arange(n) + 0.5)))
        n, step = 2 * n, step / 2
        previous, value = value, step * total
        if abs(value - previous) <= nf.ABS_TOL + nf.REL_TOL * abs(value):
            return float(value)
    raise QuadratureError("no two sums agreed")


def _rule_fields(kind, t, h):
    """A field, a q of the same rule and the Fisher weight of the field's De
    Bruijn rhs: sqrt1p flow fields from 0 and 1 with sigma^2, Gaussian fields, or the
    uniform grid law's field with a Gaussian q, with 1."""
    if kind == "flow":
        s = sg.sqrt_one_plus_square()
        p, q = (ch.density_at(ch.multiplicative(s, x0, h), t) for x0 in (0.0, 1.0))
        return p, q, lambda x: s.fn(x) ** 2
    v = t ** (2 * h)
    if kind == "gaussian":
        return (ch.density_at(ch.additive(ch.gaussian_law(0.0, 1.0), h), t),
                ch.gaussian_field(0.5, 1.5 + v), None)
    grid = np.linspace(-1.0, 1.0, 2001)
    law = ch.grid_law(grid, np.full(grid.size, 0.5))
    return ch.density_at(ch.additive(law, h), t), ch.gaussian_field(0.0, 1.0 / 3.0 + v), None


_workload_cells = pytest.mark.parametrize(
    "t, h", [(t, h) for t in (0.5, 1.0, 2.0) for h in (0.3, 0.5, 0.75)])


@_workload_cells
@pytest.mark.parametrize("kind", ["flow", "gaussian", "grid"])
def test_one_call_first_halving_matches_two_calls_bit_for_bit(monkeypatch, kind, t, h):
    # The unweighted Fisher information of a flow field at t = 2, H >= 0.5 takes a
    # second halving, so later halvings are checked too.
    p, q, b = _rule_fields(kind, t, h)

    def functionals():
        return (nf.entropy(p), nf.generalized_fisher(p), nf.generalized_fisher(p, b),
                nf.kl_divergence(p, q))
    got = functionals()
    monkeypatch.setattr(nf, "_trapezoid", _two_call_trapezoid)
    assert got == functionals()


@_workload_cells
@pytest.mark.parametrize("kind", ["flow", "gaussian", "grid"])
def test_integral_calls_its_integrand_once(kind, t, h):
    # Entropy, the De Bruijn rhs's Fisher information and KL stop at their first
    # halving here, and the base nodes and the first halving's midpoints are one call.
    p, q, b = _rule_fields(kind, t, h)
    weight = (lambda x: 1.0) if b is None else b
    for g, other in ((lambda v: -v.logp, None), (lambda v: weight(v.x) * v.score ** 2, None),
                     (lambda v: v.log_ratio, q)):
        calls = []
        nf.expect_values(p, lambda v: calls.append(v.x.size) or g(v), other)
        assert len(calls) == 1


def test_later_halvings_call_the_integrand_once_each():
    p, _, _ = _rule_fields("flow", 2.0, 0.75)
    calls = []
    nf.expect_values(p, lambda v: calls.append(v.z.size) or v.score ** 2)
    assert calls == [129, 128]


@pytest.mark.parametrize("x0, y0, t, h, q_first", [
    (0.0, 1.0, 0.05, 0.5, False),        # q's own 8-std window misses some of p's mass
    (0.0, 1.0, 0.05, 0.75, False),       # ... and most of it
    (0.0, 1.0, 0.05, 0.9, False),        # ... and all of it
    (0.0, 1e5, 0.5, 0.5, False),         # the windows do not overlap
    (1e5, 1.0, 0.5, 0.5, True),          # q, built first, reads the table far out at p
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


def test_flow_divergence_across_tables_reads_q_through_its_density():
    # Two sqrt1p models on different domains are distinct sigmas with a table each,
    # so q is not a z-shift of p: it is read through its pdf and score_fn at p's points.
    p, q = (ch.density_at(ch.multiplicative(sg.sqrt_one_plus_square(domain), x0, 0.75), 0.05)
            for domain, x0 in (((-1e9, 1e9), 0.0), ((-1e8, 1e8), 1.0)))
    assert p.table is not q.table
    dz2, v = math.asinh(1.0) ** 2, 0.05 ** 1.5
    exact = {"kl": dz2 / (2 * v), "relative_fisher": dz2 / v ** 2}
    got = {"kl": nf.kl_divergence(p, q),
           "relative_fisher": nf.relative_fisher(p, q, lambda x: 1.0 + x ** 2)}
    for name, value in exact.items():
        assert abs(got[name] - value) <= nf.ABS_TOL + nf.REL_TOL * abs(value), name


@pytest.mark.parametrize("t", [1e-4, 1e-6])
def test_flow_kl_at_small_t_reads_its_closed_form(t):
    # sqrt1p from 0 and from 1 at H = 1/2: KL = dz^2 / (2t), dz = asinh 1, 3884 at
    # t = 1e-4.  Read through q's density, q underflowed on p's window and a log
    # clamped at 1e-300 gave 694 there; ln(p/q) from z has no density to underflow.
    s = sg.sqrt_one_plus_square()
    p, q = (ch.density_at(ch.multiplicative(s, x0, 0.5), t) for x0 in (0.0, 1.0))
    kl = math.asinh(1.0) ** 2 / (2 * t)
    assert abs(nf.kl_divergence(p, q) - kl) <= nf.ABS_TOL + nf.REL_TOL * kl


# Cells of the flow sweep of tests/test_cli.py, its corners and widest windows
# (QUADPACK's scalar callbacks take ~0.1 s a wide cell), without t = 4, H = 0.9,
# whose window would drop more than ABS_TOL of the mass.
_SWEEP = [(t, h) for t in (0.05, 0.5, 2.0, 4.0) for h in (0.1, 0.5, 0.75, 0.9)
          if (t, h) != (4.0, 0.9)]


@contextlib.contextmanager
def _against_quadpack():
    """Run scipy's QUADPACK beside the Gauss-Kronrod rule on each integrand the
    rule gets, as a scalar callback; yields the list of (rule, QUADPACK) results."""
    rule, results = nf.integrate.quad, []

    def both(f, a, b, **tolerances):
        got = rule(f, a, b, **tolerances)
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
    # The x-space cross-check's integrands: the sqrt1p rhs definitions on flow
    # fields read through their pdf and score_fn.  The rule converges on every cell, where
    # QUADPACK gives up on three of the widest, meets QUADPACK wherever it
    # converges, and meets the z rule everywhere.
    s = sg.sqrt_one_plus_square()
    for t, h in _SWEEP:
        x = ch.multiplicative(s, 0.0, h)
        rhs = (idn.debruijn_rhs(x, t) if rhs_of == "debruijn"
               else idn.kl_flow_rhs(x, ch.multiplicative(s, 1.0, h), t))
        z_rhs = rhs.value()
        p, *q = rhs.fields
        with _against_quadpack() as results:
            x_rhs = rhs.scale * nf.expect_gauss_kronrod(p, rhs.g, *q)
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
def test_gauss_kronrod_resolves_lorentzian_peaks(peaks):
    # Narrow Lorentzian peaks make the rule bisect intervals far apart in one
    # round; it meets QUADPACK and the exact value.
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
