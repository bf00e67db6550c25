import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from fbm_infoflow import doss, sigma as sg
from fbm_infoflow.errors import (DegenerateTimeError, FlowEscapeError, InversionError,
                                 RangeError)

TOL = 1e-10


@pytest.fixture(scope="module")
def phi_sinh():
    return doss.solve_phi(sg.sqrt_one_plus_square(), 0.0, (-4, 4), tol=TOL)


def test_unit_sigma_flow_is_shift():
    phi = doss.solve_phi(sg.identity_channel(), 3.0, (-5, 5), tol=TOL)
    zs = np.linspace(-5, 5, 101)
    assert np.max(np.abs(phi(zs) - (3.0 + zs))) <= TOL


def test_constant_sigma_flow_is_linear():
    phi = doss.solve_phi(sg.constant(2.5), -1.0, (-3, 3), tol=TOL)
    zs = np.linspace(-3, 3, 101)
    assert np.max(np.abs(phi(zs) - (-1.0 + 2.5 * zs))) <= 10 * TOL


def test_sqrt1p_flow_is_sinh(phi_sinh):
    zs = np.linspace(-4, 4, 257)
    rel = np.abs(phi_sinh(zs) - np.sinh(zs)) / (1.0 + np.abs(np.sinh(zs)))
    assert np.max(rel) <= 10 * TOL


def test_phi_at_zero_is_x0(phi_sinh):
    assert phi_sinh(0.0) == 0.0


def test_table_strictly_increasing(phi_sinh):
    assert np.all(np.diff(phi_sinh.phi_grid) > 0)


def test_ode_residual_on_table(phi_sinh):
    # fourth-order differences of the table against sigma(phi)
    z, p = phi_sinh.z_grid, phi_sinh.phi_grid
    h = z[1] - z[0]
    interior = slice(2, -2)
    d = (p[:-4] - 8 * p[1:-3] + 8 * p[3:-1] - p[4:]) / (12 * h)
    target = np.sqrt(1.0 + p[interior] ** 2)
    assert np.max(np.abs(d - target) / (1.0 + target)) <= 1e-8


def test_invert_round_trip(phi_sinh):
    zs = np.linspace(-3.9, 3.9, 256)
    xs = np.asarray(phi_sinh(zs))
    back = doss.invert_phi(phi_sinh, xs)
    assert np.max(np.abs(back - zs)) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(z=st.floats(-4.0, 4.0))
@example(z=4.0)                      # the table's ends, which phi once overshot
@example(z=-4.0)
def test_invert_phi_inverts_phi(phi_sinh, z):
    assert doss.invert_phi(phi_sinh, phi_sinh(z)) == pytest.approx(z, abs=1e-10)


def test_invert_examples(phi_sinh):
    assert doss.invert_phi(phi_sinh, np.sinh(1.0)) == pytest.approx(1.0, abs=1e-10)
    phi = doss.solve_phi(sg.identity_channel(), 3.0, (-5, 5), tol=TOL)
    assert doss.invert_phi(phi, 3.0) == pytest.approx(0.0, abs=1e-12)


def _invert_in_given_order(phi, x):
    """invert_phi's Newton iteration run on the points in the order given."""
    z = phi._inv_interp(x)
    target = doss._INVERT_ATOL * (1.0 + np.abs(x))
    for _ in range(doss._INVERT_STEPS):
        f = phi._interp(z)
        if np.all(np.abs(f - x) <= target):
            return z
        z = np.clip(z - (f - x) / phi.sigma.fn(f), *phi.z_domain)
    raise AssertionError("reference inversion did not converge")


def test_ascending_evaluation_is_bit_identical(phi_sinh):
    rng = np.random.default_rng(5)
    shuffled = rng.uniform(-3.9, 3.9, 4000)
    nodes = rng.permutation(phi_sinh.z_grid[::3])       # exactly on table nodes
    for z in (shuffled, nodes, shuffled[:600].reshape(20, 30)):
        x = phi_sinh(z)
        assert x.shape == z.shape
        assert np.array_equal(x, np.clip(phi_sinh._interp(z), *phi_sinh.x_range))
        back = doss.invert_phi(phi_sinh, x)
        assert back.shape == z.shape
        assert np.array_equal(back, _invert_in_given_order(phi_sinh, x))
    x_nodes = rng.permutation(phi_sinh.phi_grid[::3])
    assert np.array_equal(doss.invert_phi(phi_sinh, x_nodes),
                          _invert_in_given_order(phi_sinh, x_nodes))


def test_invert_phi_raises_when_newton_does_not_converge(phi_sinh):
    # A derivative 1e4 too large shrinks every Newton step: the loop once ran
    # out and returned z with a residual of 2e-9 against a target of 2e-11.
    wrong = dataclasses.replace(phi_sinh, sigma=sg.constant(1e4))
    with pytest.raises(InversionError):
        doss.invert_phi(wrong, np.linspace(-10.0, 10.0, 41))


def test_invert_out_of_range(phi_sinh):
    with pytest.raises(RangeError):
        doss.invert_phi(phi_sinh, 1e6)


def test_pushforward_gaussian_value():
    phi = doss.solve_phi(sg.constant(1.0), 0.0, (-8, 8), tol=TOL)
    val = doss.pushforward_density(phi, 1.0, 0.75, 0.0)
    assert val == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)


def test_pushforward_constant_sigma_matches_gaussian():
    c, x0, t, h = 2.0, 1.0, 1.5, 0.3
    phi = doss.solve_phi(sg.constant(c), x0, (-10, 10), tol=TOL)
    var = c * c * t ** (2 * h)
    xs = x0 + np.linspace(-3, 3, 41) * np.sqrt(var)
    exact = np.exp(-0.5 * (xs - x0) ** 2 / var) / np.sqrt(2 * np.pi * var)
    got = doss.pushforward_density(phi, t, h, xs)
    assert np.max(np.abs(got - exact) / exact) <= 1e-10


def test_pushforward_normalizes(phi_sinh):
    t, h = 0.5, 0.75   # z_domain edge sits at 6.7 std of B^H_t, tail < 1e-10
    lo, hi = phi_sinh.x_range
    mass, _ = quad(lambda x: doss.pushforward_density(phi_sinh, t, h, x),
                   lo, hi, limit=200,
                   points=np.sinh(np.linspace(-3, 3, 9)))
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_pushforward_nonnegative(phi_sinh):
    xs = np.linspace(*phi_sinh.x_range, 1001)
    assert np.all(doss.pushforward_density(phi_sinh, 1.0, 0.5, xs) >= 0)


def test_t_zero_degenerate(phi_sinh):
    with pytest.raises(DegenerateTimeError):
        doss.pushforward_density(phi_sinh, 0.0, 0.5, 0.0)


def test_flow_escape():
    s = sg.sqrt_one_plus_square(domain=(-5, 5))
    with pytest.raises(FlowEscapeError):
        doss.solve_phi(s, 0.0, (-6, 6), tol=TOL)


def test_pushforward_matches_mc_histogram(phi_sinh):
    # X = sinh(Z), Z ~ N(0,1): histogram of 1e6 draws vs integrated density
    rng = np.random.default_rng(99)
    n = 1_000_000
    x = np.sinh(rng.standard_normal(n))
    edges = np.sinh(np.linspace(-3.0, 3.0, 31))
    counts, _ = np.histogram(x, bins=edges)
    for i in range(len(edges) - 1):
        p, _ = quad(lambda u: doss.pushforward_density(phi_sinh, 1.0, 0.5, u),
                    edges[i], edges[i + 1], limit=100)
        expect = n * p
        se = np.sqrt(n * p * (1 - p))
        assert abs(counts[i] - expect) <= 4 * se
