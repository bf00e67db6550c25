import math

import numpy as np
import pytest

from fbm_infoflow import channels as ch, doss, identities as idn, infofunc as nf, sigma as sg
from fbm_infoflow.errors import DegenerateTimeError, DomainError, StepError


def test_constant_sigma_entropy_flow_is_h_over_t():
    # h(X_t) = 0.5 ln(2 pi e c^2 t^{2H}) so dh/dt = H/t; sigma-derivative
    # terms vanish and J_{sigma^2} = t^{-2H}
    for c_val in (0.5, 2.0):
        for h in (0.25, 0.75):
            chan = ch.multiplicative(sg.constant(c_val), 0.0, h)
            rep = idn.debruijn_check(chan, 1.0, tol=1e-6)
            assert rep.passed
            assert rep.rhs == pytest.approx(h, abs=1e-10)
            assert rep.lhs == pytest.approx(h, abs=1e-6)


def test_unit_sigma_brownian_remark():
    # H = 1/2, sigma = 1: rhs reduces to J_1(X_t) / 2
    chan = ch.multiplicative(sg.constant(1.0), 0.0, 0.5)
    rep = idn.debruijn_check(chan, 1.0, tol=1e-6)
    j1 = nf.generalized_fisher(ch.density_at(chan, 1.0))
    assert rep.rhs == pytest.approx(0.5 * j1, abs=1e-12)


def test_nonconstant_sigma_debruijn():
    chan = ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.75)
    rep = idn.debruijn_check(chan, 1.0, fd_step=1e-3, tol=1e-4)
    assert rep.passed
    assert rep.abs_discrepancy <= 1e-4


@pytest.mark.parametrize("x0, t, h", [(1.0, 1.0, 0.5), (10.0, 0.25, 0.3)])
def test_debruijn_on_a_window_cut_at_the_tables_end(x0, t, h):
    # sigma(x) = x on (1e-3, 1e3): X_t = x0 exp(B^H_t), so dh/dt = H / t.  The
    # window is cut at the table's end, and z0 + (z_hi - z0) once rounded past
    # z_hi, so that building X_t raised an out-of-range error.
    sig = sg.custom(lambda x: np.asarray(x, float), lambda x: np.ones_like(x),
                    lambda x: np.zeros_like(x), (1e-3, 1e3))
    rep = idn.debruijn_check(ch.multiplicative(sig, x0, h), t)
    assert rep.passed
    assert rep.rhs == pytest.approx(h / t, rel=1e-9)


def _old_debruijn_g(sig, v):
    return sig.fn(v.x) ** 2 * v.score ** 2 - sig.curvature(v.x)


def test_debruijn_g_evaluates_sigma_three_times_a_point():
    # sigma and sigma' come from the flow Values, which its score took; sigma'' once.
    base, points = sg.sqrt_one_plus_square(), []

    def counted(f):
        def wrapped(x):
            points.append(np.size(x))
            return f(x)
        return wrapped
    sig = sg.custom(counted(base.fn), counted(base.d1), counted(base.d2), base.domain)
    rhs = idn.debruijn_rhs(ch.multiplicative(sig, 0.0, 0.75), 1.0)
    field = rhs.fields[0]
    v = field.at(np.linspace(-2.0, 2.0, 101))
    points.clear()
    g = rhs.g(v)
    assert sum(points) == 3 * 101
    assert np.array_equal(g, _old_debruijn_g(sig, field.at(v.z)))
    plain = ch.Values(v.x, field)
    assert np.array_equal(rhs.g(plain), _old_debruijn_g(sig, plain))


def test_debruijn_g_of_a_constant_sigma_is_c2_score2():
    sig = sg.constant(2.5)
    rhs = idn.debruijn_rhs(ch.multiplicative(sig, 0.3, 0.6), 1.5)
    v = rhs.fields[0].at(np.linspace(-10.0, 10.0, 1001))
    assert np.array_equal(rhs.g(v), _old_debruijn_g(sig, v))


def test_report_invariant():
    chan = ch.multiplicative(sg.constant(1.0), 0.0, 0.5)
    rep = idn.debruijn_check(chan, 1.0, tol=1e-6)
    assert rep.abs_discrepancy == abs(rep.lhs - rep.rhs)
    assert rep.passed == (rep.abs_discrepancy <= rep.tolerance)


def test_step_error():
    chan = ch.multiplicative(sg.constant(1.0), 0.0, 0.5)
    with pytest.raises(StepError):
        idn.debruijn_check(chan, 0.5, fd_step=0.6)


_SQRT1P = ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.5)
_CHECKS_AT = {
    "debruijn": lambda t: idn.debruijn_check(_SQRT1P, t),
    "kl-flow": lambda t: idn.kl_flow_check(
        _SQRT1P, ch.multiplicative(sg.sqrt_one_plus_square(), 1.0, 0.5), t),
    "fokker-planck": lambda t: idn.fokker_planck_residual(_SQRT1P, t, [0.0]),
    "entropy-power": lambda t: idn.entropy_power_check(
        ch.additive(ch.gaussian_law(0.0, 1.0), 0.5), t),
}


@pytest.mark.parametrize("check", _CHECKS_AT.values(), ids=_CHECKS_AT.keys())
@pytest.mark.parametrize("t, error", [
    (math.nan, DomainError), (math.inf, DomainError),
    (0.0, DegenerateTimeError), (-1.0, DegenerateTimeError)])
def test_bad_time_is_blamed_on_t(check, t, error):
    # A check rejects a t without a density before its time step, as density_at
    # does; a NaN or infinite t raised StepError, naming the step it made from t.
    with pytest.raises(error, match=f"not {t}$"):
        check(t)


def test_wrong_variant_rejected():
    mult = ch.multiplicative(sg.constant(1.0), 0.0, 0.5)
    with pytest.raises(DomainError):
        idn.entropy_power_check(mult, 1.0)


def test_additive_gaussian_rhs_value():
    chan = ch.additive(ch.gaussian_law(0.0, 1.0), 0.75)
    rep = idn.debruijn_check(chan, 1.0, tol=1e-6)
    assert rep.rhs == pytest.approx(0.375, abs=1e-12)
    assert rep.passed
    chan2 = ch.additive(ch.gaussian_law(0.0, 1.0), 0.5)
    rep2 = idn.debruijn_check(chan2, 1.0, tol=1e-6)
    assert rep2.rhs == pytest.approx(0.25, abs=1e-12)


def test_additive_grid_law():
    grid = np.linspace(-1, 1, 2001)
    chan = ch.additive(ch.grid_law(grid, np.full(grid.size, 0.5)), 0.3)
    rep = idn.debruijn_check(chan, 0.5, tol=1e-4)
    assert rep.passed, rep


def test_additive_rhs_is_the_unit_sigma_case():
    # With sigma = 1, g = sigma^2 score^2 - (sigma'' sigma + sigma'^2) is score^2 exactly.
    grid = np.linspace(-1, 1, 401)
    laws = (ch.gaussian_law(0.0, 2.0), ch.grid_law(grid, np.full(grid.size, 0.5)))
    x = np.random.default_rng(3).normal(0.0, 2.0, 257)
    for law in laws:
        for h, t in ((0.3, 0.5), (0.75, 2.0)):
            chan = ch.additive(law, h)
            rhs = idn.debruijn_rhs(chan, t)
            assert np.array_equal(rhs.g(ch.Values(x, rhs.fields[0])), rhs.fields[0].score_fn(x) ** 2)
            rep = idn.debruijn_check(chan, t, tol=1e-4)
            assert rep.identity_name == "debruijn-additive" and rep.rhs == rhs.value()
            if isinstance(law, ch.GaussianLaw):
                assert rep.rhs == pytest.approx(
                    h * t ** (2 * h - 1) / (2.0 + t ** (2 * h)), abs=1e-12)


def test_kl_flow_same_start_is_zero():
    s = sg.constant(1.0)
    x = ch.multiplicative(s, 0.0, 0.6)
    y = ch.multiplicative(s, 0.0, 0.6)
    rep = idn.kl_flow_check(x, y, 1.0, tol=1e-8)
    assert rep.lhs == pytest.approx(0.0, abs=1e-8)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_kl_flow_gaussian_value():
    s = sg.constant(1.0)
    x = ch.multiplicative(s, 0.0, 0.75)
    y = ch.multiplicative(s, 1.0, 0.75)
    rep = idn.kl_flow_check(x, y, 1.0, tol=1e-5)
    assert rep.rhs == pytest.approx(-0.75, abs=1e-12)
    assert rep.passed
    assert rep.extras["monotone"]
    assert rep.rhs <= 0.0


@pytest.mark.parametrize("y0", [5.0, 15.0, 30.0])
def test_kl_flow_far_gaussian_pair(y0):
    # A Gaussian q has a density on all of R: the x rule keeps p's whole domain
    # even where it no longer meets q's.
    s = sg.constant(1.0)
    x, y = ch.multiplicative(s, 0.0, 0.5), ch.multiplicative(s, y0, 0.5)
    rep = idn.kl_flow_check(x, y, 1.0)
    assert rep.passed
    assert rep.extras["kl_values"][1] == pytest.approx(y0 ** 2 / 2, rel=1e-8)


def test_kl_strictly_decreasing_closed_form():
    s = sg.constant(1.0)
    for h in (0.3, 0.5, 0.75):
        x = ch.multiplicative(s, 0.0, h)
        y = ch.multiplicative(s, 1.0, h)
        kls = [nf.kl_divergence(ch.density_at(x, t), ch.density_at(y, t))
               for t in (0.5, 1.0, 2.0)]
        expected = [1.0 / (2 * t ** (2 * h)) for t in (0.5, 1.0, 2.0)]
        assert np.allclose(kls, expected, atol=1e-12)
        assert kls[0] > kls[1] > kls[2]


def test_kl_flow_custom_sigma_must_be_the_same_model():
    def model(c):
        return sg.custom(lambda x: c + 0.0 * x, lambda x: 0.0 * x,
                         lambda x: 0.0 * x, domain=(-50.0, 50.0))
    s1, s2 = model(1.0), model(2.0)
    with pytest.raises(DomainError):
        idn.kl_flow_check(ch.multiplicative(s1, 0.0, 0.6),
                          ch.multiplicative(s2, 1.0, 0.6), 1.0)
    rep = idn.kl_flow_check(ch.multiplicative(s1, 0.0, 0.6),
                            ch.multiplicative(s1, 1.0, 0.6), 1.0, tol=1e-4)
    assert rep.passed, rep


def test_kl_flow_identity_channel_is_constant_one():
    # Two models of the identity channel, sigma = 1, count as the same sigma.
    x = ch.multiplicative(sg.constant(1.0), 0.0, 0.75)
    y = ch.multiplicative(sg.constant(1.0), 1.0, 0.75)
    rep = idn.kl_flow_check(x, y, 1.0, tol=1e-5)
    assert rep.passed and rep.rhs == pytest.approx(-0.75, abs=1e-12)


def test_kl_flow_check_integrates_each_kl_once(monkeypatch):
    # The Richardson stencil takes KL at t +/- delta and t +/- delta/2, and the
    # monotone record at t - delta, t, t + delta: five distinct times.
    calls = []
    kl = nf.kl_divergence
    monkeypatch.setattr(nf, "kl_divergence", lambda p, q: calls.append(1) or kl(p, q))
    s = sg.constant(1.0)
    rep = idn.kl_flow_check(ch.multiplicative(s, 0.0, 0.75),
                            ch.multiplicative(s, 1.0, 0.75), 1.0, tol=1e-5)
    assert len(calls) == 5
    assert rep.passed and rep.extras["monotone"]


def test_kl_flow_nonconstant_sigma():
    s = sg.sqrt_one_plus_square()
    x = ch.multiplicative(s, 0.0, 0.6)
    y = ch.multiplicative(s, 0.5, 0.6)
    rep = idn.kl_flow_check(x, y, 1.0, tol=1e-4)
    assert rep.passed, rep
    assert rep.rhs <= 0.0


def test_equal_sqrt1p_models_share_one_table():
    # Two sqrt1p models built apart compare equal, so they read sigma's one
    # Lamperti table, and kl-flow across them has the lhs of one model object.
    ch._lamperti.cache_clear()
    a, b = sg.sqrt_one_plus_square(), sg.sqrt_one_plus_square()
    assert a == b
    two = idn.kl_flow_check(ch.multiplicative(a, 0.0, 0.5), ch.multiplicative(b, 1.0, 0.5), 1.0)
    assert ch._lamperti.cache_info().misses == 1
    one = idn.kl_flow_check(ch.multiplicative(a, 0.0, 0.5), ch.multiplicative(a, 1.0, 0.5), 1.0)
    assert two.lhs == one.lhs and two.rhs == one.rhs


def test_checks_default_to_their_rows_tolerance():
    # The library's checks and the runner's config read one table.
    gauss = ch.gaussian_law(0.0, 1.0)
    s = sg.constant(1.0)
    reports = [idn.debruijn_check(ch.multiplicative(s, 0.0, 0.5), 1.0),
               idn.debruijn_check(ch.additive(gauss, 0.5), 1.0),
               idn.kl_flow_check(ch.multiplicative(s, 0.0, 0.5), ch.multiplicative(s, 1.0, 0.5), 1.0),
               idn.stein_check(0.0, 1.0, np.sin, np.cos),
               idn.entropy_power_check(ch.additive(gauss, 0.5), 1.0)]
    for rep in reports:
        assert rep.tolerance == idn.DEFAULT_TOLERANCES[rep.identity_name], rep.identity_name


def test_fokker_planck_check_is_the_worst_residual_about_x0():
    # 81 points on x0 + [-4, 4]; at x0 = 0 the grid the runner once fixed.
    chan = ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.75)
    rep = idn.fokker_planck_check(chan, 1.0)
    res = idn.fokker_planck_residual(chan, 1.0, np.linspace(-4, 4, 81))
    assert rep.lhs == np.max(np.abs(res)) and rep.rhs == 0.0 and rep.passed
    assert rep.tolerance == idn.DEFAULT_TOLERANCES["fokker-planck"]
    assert rep.method_notes == ("max |residual| over x in [-4,4], 81 pts; "
                                "richardson fd_step=0.001")
    assert "[1.5,9.5]" in idn.fokker_planck_check(
        ch.multiplicative(sg.sqrt_one_plus_square(), 5.5, 0.75), 1.0).method_notes
    with pytest.raises(DomainError, match="needs a multiplicative channel"):
        idn.fokker_planck_check(ch.additive(ch.gaussian_law(0.0, 1.0), 0.5), 1.0)


def test_fokker_planck_heat_equation():
    chan = ch.multiplicative(sg.constant(1.0), 0.0, 0.5)
    res = idn.fokker_planck_residual(chan, 1.0, np.linspace(-4, 4, 81))
    assert np.max(np.abs(res)) <= 1e-5


def test_fokker_planck_constant_two():
    chan = ch.multiplicative(sg.constant(2.0), 0.0, 0.25)
    res = idn.fokker_planck_residual(chan, 1.0, np.linspace(-4, 4, 81))
    assert np.max(np.abs(res)) <= 1e-5


def test_fokker_planck_nonconstant():
    chan = ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.75)
    res = idn.fokker_planck_residual(chan, 1.0, np.linspace(-4, 4, 81))
    assert np.max(np.abs(res)) <= 1e-3


@pytest.mark.parametrize("h", [0.3, 0.5, 0.75])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_fokker_planck_on_sqrt1p_reads_the_exact_inverse(t, h):
    # sqrt1p-mult-quad's grid.  P_xx divides the density's error by dx^2 = 2.5e-5,
    # so the residual is phi^-1's error: 2.34e-8 at worst with a Hermite interpolant
    # of the inverse, 3.45e-10 with the Lamperti panel.
    chan = ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, h)
    res = idn.fokker_planck_residual(chan, t, np.linspace(-4, 4, 81))
    assert np.max(np.abs(res)) <= 1e-9


def test_fokker_planck_sees_the_slope_of_phi_inverse(monkeypatch):
    # In z, with p_x and p_xx analytic, both sides reduce to p (z^2/v^2 - 1/v) for
    # any sigma, so a z-form residual cannot fail.  On the x grid, phi^-1 is the one
    # check of z'(x) = 1/sigma: a phi^-1 off by a relative 1e-6 shows as a residual
    # of 2.0e-6 (3.45e-10 unperturbed, the test above).
    invert = doss.invert_phi
    monkeypatch.setattr(doss, "invert_phi", lambda phi, x: invert(phi, x) * (1.0 + 1e-6))
    ch._z0.cache_clear()
    try:
        worst = max(np.max(np.abs(idn.fokker_planck_residual(
            ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, h), t, np.linspace(-4, 4, 81))))
            for t in (0.5, 1.0, 2.0) for h in (0.3, 0.5, 0.75))
    finally:
        ch._z0.cache_clear()        # no z0 read through the perturbed phi^-1 is kept
    assert worst > 1e-6


@pytest.mark.parametrize("t, h", [(0.05, 0.5), (0.05, 0.75), (0.1, 0.75),
                                  (0.05, 0.9), (0.1, 0.9), (0.2, 0.9)])
def test_fokker_planck_at_small_t(t, h):
    # The runner's grid of 81 points on [-4, 4]: second-order central differences
    # in x at 5e-3 left residuals of up to 0.148 here, against the 1e-3 tolerance.
    chan = ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, h)
    res = idn.fokker_planck_residual(chan, t, np.linspace(-4, 4, 81))
    assert np.max(np.abs(res)) <= idn.DEFAULT_TOLERANCES["fokker-planck"]


def test_richardson_derivative_is_exact_on_polynomials():
    # (4 D(d/2) - D(d)) / 3 cancels D's d^2 term; the next, d^4 f^(5) for the first
    # derivative and d^4 f^(6) for the second, vanishes on a quartic and a quintic.
    def quintic(s):
        return s ** 5 - 2.0 * s ** 3 + 0.5 * s ** 2 - s + 3.0

    def quartic(s):
        return s ** 4 - 2.0 * s ** 3 + 0.5 * s ** 2 - s + 3.0
    # f''(0.5) = 20/8 - 12/2 + 1 of the quintic, f'(0.5) = 4/8 - 6/4 + 1/2 - 1 of the quartic
    assert idn.richardson_derivative(quintic, 0.5, 0.1, order=2) == pytest.approx(
        -2.5, rel=1e-12)
    assert idn.richardson_derivative(quartic, 0.5, 0.1) == pytest.approx(-1.5, rel=1e-12)


def test_stein_identity_examples():
    rep = idn.stein_check(0.5, 2.0, lambda y: y, lambda y: np.ones_like(y))
    assert rep.lhs == pytest.approx(2.0, abs=1e-10)
    assert rep.rhs == pytest.approx(2.0, abs=1e-10)
    rep = idn.stein_check(0.0, 1.0, lambda y: y ** 2, lambda y: 2 * y)
    assert rep.abs_discrepancy <= 1e-10
    rep = idn.stein_check(0.0, 1.0, lambda y: y ** 3, lambda y: 3 * y ** 2)
    assert rep.lhs == pytest.approx(3.0, abs=1e-10)
    assert rep.rhs == pytest.approx(3.0, abs=1e-10)


def _entropy_power(h, ts, law=ch.gaussian_law(0.0, 1.0)):
    return [idn.entropy_power_check(ch.additive(law, h), t) for t in ts]


def test_entropy_power_gaussian_h_half_linear():
    for t, rep in zip((0.5, 1.0, 2.0), _entropy_power(0.5, (0.5, 1.0, 2.0))):
        assert rep.extras["g"] == pytest.approx(0.0, abs=1e-14)
        assert rep.extras["classification"] == "concave"
        assert rep.extras["entropy_power"] == pytest.approx(1.0 + t, abs=1e-12)
        assert abs(rep.lhs) <= 1e-6


def test_entropy_power_g_values():
    (rep,) = _entropy_power(0.75, [1.0])
    assert rep.extras["g"] == pytest.approx(0.1875, abs=1e-12)
    assert rep.extras["classification"] == "convex"
    (rep,) = _entropy_power(0.3, [1.0])
    assert rep.extras["g"] == pytest.approx(-0.06, abs=1e-12)
    assert rep.extras["classification"] == "concave"


def test_entropy_power_second_difference_matches_formula():
    for h in (0.3, 0.75):
        for rep in _entropy_power(h, (0.5, 1.0, 2.0)):
            assert abs(rep.lhs - rep.rhs) / abs(rep.rhs) <= 1e-4


@pytest.mark.parametrize("law, hs", [
    (ch.grid_law(np.linspace(-1, 1, 2001), np.full(2001, 0.5)), (0.1, 0.2, 0.3, 0.5, 0.75)),
    (ch.gaussian_law(0.0, 1.0), (0.1, 0.2, 0.3))], ids=["grid", "gaussian"])
def test_entropy_power_richardson_at_small_t(law, hs):
    # At t = 0.05 one second difference at a 1e-3 step is off by its truncation
    # error, 1.7e-4 relative, and these rows failed their 1e-4 tolerance; the
    # Richardson combination with the half step, at the default step t / 200,
    # lands within 2e-8.
    for h in hs:
        (rep,) = _entropy_power(h, [0.05], law)
        assert rep.passed
        assert abs(rep.lhs - rep.rhs) <= 2e-8 * abs(rep.rhs)


def test_entropy_power_sign_law():
    for h in (0.6, 0.75, 0.9):
        assert all(r.extras["classification"] == "convex"
                   for r in _entropy_power(h, (0.5, 1.0, 2.0)))
    for h in (0.1, 0.3, 0.5):
        assert all(r.extras["classification"] == "concave"
                   for r in _entropy_power(h, (0.5, 1.0, 2.0)))


def test_entropy_power_profile_grid_initial():
    grid = np.linspace(-1, 1, 1001)
    law = ch.grid_law(grid, np.full(grid.size, 0.5))
    for rep in _entropy_power(0.75, (0.5, 1.0, 2.0), law):
        # g is exact: no time difference of J_1
        assert abs(rep.lhs - rep.rhs) / max(1.0, abs(rep.rhs)) <= 1e-6
    for h in (0.3, 0.5):        # g < 0: concave, at H = 1/2 for every law
        assert all(r.extras["g"] < 0 for r in _entropy_power(h, (0.5, 1.0, 2.0), law))


@pytest.mark.parametrize("law", [
    ch.gaussian_law(0.0, 1.0),
    ch.grid_law(np.linspace(-1, 1, 2001), np.full(2001, 0.5))], ids=["gaussian", "grid"])
def test_fisher_information_is_minus_mean_score_derivative(law):
    # entropy_power_check takes J_1 = -E[d_x^2 ln p_t], which integration by
    # parts makes E[(d_x ln p_t)^2]
    for h in (0.3, 0.5, 0.75):
        for t in (0.05, 0.1, 0.5, 1.0, 2.0):
            field = ch.density_at(ch.additive(law, h), t)
            j1 = nf.generalized_fisher(field)
            assert -nf.expect_values(field, lambda v: v.dscore) == pytest.approx(j1, rel=1e-12)


def test_entropy_power_step_error():
    # entropy_power_check takes its time step as every check does: fd_step, or
    # _default_step(t), and fd_step must lie below t.
    chan = ch.additive(ch.gaussian_law(0.0, 1.0), 0.5)
    for fd_step in (2.0, 2.5, 0.0):
        with pytest.raises(StepError):
            idn.entropy_power_check(chan, 2.0, fd_step=fd_step)
    assert idn._default_step(2.0) == 2e-3
    default = idn.entropy_power_check(chan, 2.0)
    assert default.lhs == idn.entropy_power_check(chan, 2.0, fd_step=2e-3).lhs
    assert default.passed
