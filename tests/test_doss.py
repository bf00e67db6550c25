import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from fbm_infoflow import channels as ch, doss, sigma as sg
from fbm_infoflow.errors import DegenerateTimeError, FlowEscapeError

TOL = 1e-10


def _flat(c):
    """sigma = c as a custom model, so that its channels take the flow route."""
    return sg.custom(lambda x: np.full_like(np.asarray(x, float), c),
                     lambda x: np.zeros_like(np.asarray(x, float)),
                     lambda x: np.zeros_like(np.asarray(x, float)), (-1e9, 1e9))


def _flow_field(sigma, x0, t, h):
    field = ch.density_at(ch.multiplicative(sigma, x0, h), t)
    assert isinstance(field, ch.FlowField)
    return field


@pytest.fixture(scope="module")
def phi_sinh():
    return doss.solve_phi(sg.sqrt_one_plus_square(), 0.0, (-4, 4))


def test_unit_sigma_flow_is_shift():
    phi = doss.solve_phi(sg.constant(1.0), 3.0, (-5, 5))
    zs = np.linspace(-5, 5, 101)
    assert np.max(np.abs(phi(zs) - (3.0 + zs))) <= TOL


def test_constant_sigma_flow_is_linear():
    phi = doss.solve_phi(sg.constant(2.5), -1.0, (-3, 3))
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


def test_lamperti_table(phi_sinh):
    # each node's z is the Lamperti integral int_0^x dy/sqrt(1 + y^2) = asinh x
    assert np.max(np.abs(phi_sinh.z_grid - np.arcsinh(phi_sinh.phi_grid))) <= 1e-12


def test_flow_accuracy_against_sinh():
    phi = doss.solve_phi(sg.sqrt_one_plus_square(), 0.0, (-16, 16))
    zs = np.linspace(-13.5, 13.5, 100_001)
    assert np.max(np.abs(np.arcsinh(phi(zs)) - zs)) <= 1e-12
    assert np.max(np.abs(doss.invert_phi(phi, np.sinh(zs)) - zs)) <= 1e-12


@pytest.mark.parametrize("reach, bound", [(4.0, 1e-14), (1e6, 1e-13)])
def test_inverse_on_sqrt1p_table_is_asinh(reach, bound):
    # phi^-1 is the Lamperti integral: a node's z plus one Gauss-Legendre panel to x.
    # On the table every sqrt1p field reads it is asinh to the table's own rounding;
    # a Hermite interpolant of the same table was 3.1e-13 and 4.4e-13 off.
    table = ch._lamperti(sg.sqrt_one_plus_square())
    nodes = np.abs(table.phi_grid) <= reach
    r = math.asinh(reach)
    x = np.concatenate([np.linspace(-reach, reach, 100_001),
                        np.sinh(np.linspace(-r, r, 100_001)), table.phi_grid[nodes]])
    assert np.max(np.abs(doss.invert_phi(table, x) - np.arcsinh(x))) <= bound
    assert np.array_equal(doss.invert_phi(table, table.phi_grid[nodes]), table.z_grid[nodes])


@pytest.mark.parametrize("x0", [0.0, 1.0])
def test_wider_table_extends_narrower(x0):
    # Both tables start from x0 with the same steps, so how far a table runs
    # changes none of the values it shares with a shorter one.
    s = sg.sqrt_one_plus_square()
    narrow, wide = doss.solve_phi(s, x0, (-8, 8)), doss.solve_phi(s, x0, (-16, 16))
    rng = np.random.default_rng(3)
    inner = np.abs(narrow.z_grid) <= 8.0
    zs = np.concatenate([rng.uniform(-8.0, 8.0, 20_000), narrow.z_grid[inner], [-8.0, 8.0]])
    assert np.array_equal(narrow(zs), wide(zs))
    lo, hi = narrow(-8.0), narrow(8.0)
    xs = np.concatenate([rng.uniform(lo, hi, 20_000), narrow.phi_grid[inner]])
    assert np.array_equal(doss.invert_phi(narrow, xs), doss.invert_phi(wide, xs))


def test_table_stops_at_the_asked_end():
    # With sigma = 1 the nodes' z sum to 7.999999999999999 at the end of +-8, a
    # rounding short of it; that end is reached, with no coarse step past it.
    phi = doss.solve_phi(sg.constant(1.0), 0.0, (-8, 8))
    assert phi.z_grid.size == 2 * 8 * 500 + 1 and phi.z_domain == (-8.0, 8.0)
    assert np.max(np.abs(phi.z_grid[[0, -1]] - [-8.0, 8.0])) <= 1e-12
    assert phi(8.0) == pytest.approx(8.0, abs=1e-12)


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
    phi = doss.solve_phi(sg.constant(1.0), 3.0, (-5, 5))
    assert doss.invert_phi(phi, 3.0) == pytest.approx(0.0, abs=1e-12)


def _reference(coeffs, q):
    """The interpolant by binary search and the nested Hermite formula."""
    knots, c0, c1, c2, c3 = coeffs
    i = np.minimum(np.searchsorted(knots, q, side="right") - 1, c0.size - 1)
    u = q - knots[i]
    return c0[i] + u * (c1[i] + u * (c2[i] + u * c3[i]))


def _inverse_reference(phi, x):
    """phi^-1 by binary search and one Gauss-Legendre node at a time: the node at or
    below each x and its z, plus 8 panel terms of 1/sigma from it to x."""
    flat = np.ravel(x)
    k = np.searchsorted(phi.phi_grid, flat, side="right") - 1
    a = phi.phi_grid[k]
    half = 0.5 * (flat - a)
    total = 0
    for node, weight in zip(*np.polynomial.legendre.leggauss(8)):
        total = total + weight * (1.0 / phi.sigma.fn(a + half + half * node))
    return (phi.z_grid[k] + half * total).reshape(np.shape(x))


def test_ascending_evaluation_is_bit_identical(phi_sinh):
    # phi and invert_phi evaluate the points in the order and shape given, to the
    # bits of a binary search and the nested formula, or the panel term by term; a
    # node maps exactly to its node
    rng = np.random.default_rng(5)
    shuffled = rng.uniform(-3.9, 3.9, 4000)
    nodes = rng.permutation(phi_sinh.z_grid[np.abs(phi_sinh.z_grid) <= 4.0])
    for z in (shuffled, nodes, shuffled[:600].reshape(20, 30), np.sort(shuffled)):
        x = phi_sinh(z)
        assert x.shape == z.shape
        assert np.array_equal(x, np.clip(_reference(phi_sinh._forward, z), *phi_sinh.x_range))
        back = doss.invert_phi(phi_sinh, x)
        assert back.shape == z.shape
        assert np.array_equal(back, _inverse_reference(phi_sinh, x))
    idx = rng.permutation(phi_sinh.z_grid.size)[:2000]     # a node maps to its node
    inside = idx[np.abs(phi_sinh.z_grid[idx]) <= 4.0]
    assert np.array_equal(phi_sinh(phi_sinh.z_grid[inside]), phi_sinh.phi_grid[inside])
    assert np.array_equal(doss.invert_phi(phi_sinh, phi_sinh.phi_grid[idx]),
                          phi_sinh.z_grid[idx])


def _steep(edge):
    """sigma = 1 + x^2 on (-edge, edge): its nodes crowd toward sigma's edges."""
    return sg.custom(lambda x: 1.0 + np.square(x), lambda x: 2.0 * np.asarray(x, float),
                     lambda x: np.full_like(np.asarray(x, float), 2.0), (-edge, edge))


@pytest.mark.parametrize("sigma, depth", [
    (sg.sqrt_one_plus_square(), 1),    # to sigma's edge: 21 751 nodes
    (sg.constant(1.0), 1),             # nodes on multiples of 2e-3, +-8 short by a rounding
    (_steep(20.0), 2),                 # two nodes to a bucket
    (_steep(1e3), 36),                 # gaps 8e-6 to 6e-3: 36 compares, still exact
], ids=["sqrt1p", "unit", "steep", "crowded"])
def test_interval_index_is_a_binary_search(sigma, depth):
    # phi's bucketed interval search finds the interval searchsorted does at every
    # node, a rounding either side of it and both ends of the domain, in any
    # order and shape; a point of the domain below the first node gets interval 0.
    phi = doss.solve_phi(sigma, 0.0, (-8, 8) if sigma.kind == "constant" else (-64, 64))
    knots, index = phi.z_grid, phi._index
    assert index.depth == depth
    lo, hi = phi.z_domain
    q = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                        [lo, hi]])
    q = np.random.default_rng(2).permutation(q[(lo <= q) & (q <= hi)])
    last = knots.size - 2
    expected = np.minimum(np.searchsorted(knots, q, side="right") - 1, last)
    assert np.array_equal(index(q), np.maximum(expected, 0))
    assert np.array_equal(expected < 0, q < knots[0])
    assert np.any(q < knots[0]) == (sigma.kind == "constant")
    for shaped in (q[:600].reshape(20, 30), q[0], q[1:2].reshape(())):
        got = index(shaped)
        assert np.shape(got) == np.shape(shaped)
        assert np.array_equal(got, np.clip(np.searchsorted(knots, shaped, side="right") - 1,
                                           0, last))
    ascending = np.sort(q[q >= knots[0]])
    assert np.array_equal(phi(ascending), np.clip(_reference(phi._forward, ascending),
                                                  *phi.x_range))


def test_evaluation_does_not_depend_on_order(phi_sinh):
    rng = np.random.default_rng(6)
    z = np.sort(rng.uniform(-3.9, 3.9, 4000))
    x = phi_sinh(z)
    perm = rng.permutation(z.size)
    assert np.array_equal(phi_sinh(z[perm]), x[perm])
    assert np.array_equal(doss.invert_phi(phi_sinh, x[perm]), doss.invert_phi(phi_sinh, x)[perm])


def test_invert_out_of_range(phi_sinh):
    with pytest.raises(FlowEscapeError, match=r"x = 1e\+06 lies more than 4 in z from its "
                       r"Lamperti table's anchor \(x = 0\)"):
        doss.invert_phi(phi_sinh, 1e6)
    with pytest.raises(FlowEscapeError, match=r"x = -1e\+06 lies more than 4 in z"):
        doss.invert_phi(phi_sinh, np.array([0.0, -1e6]))
    with pytest.raises(FlowEscapeError, match="outside sigma's working domain"):
        doss.invert_phi(phi_sinh, 2e9)


def test_nan_is_out_of_range(phi_sinh):
    # A NaN has no interval: both directions reject it, as they do a point outside.
    for f, message in ((phi_sinh, "or not a number"),
                       (lambda x: doss.invert_phi(phi_sinh, x), "x = nan is not a point")):
        for bad in (np.array([0.0, np.nan]), np.nan):
            with pytest.raises(FlowEscapeError, match=message):
                f(bad)
        assert f(np.array([])).size == 0


# The push-forward of N(0, t^{2H}) through the flow is the flow field's pdf.

def test_pushforward_gaussian_value():
    val = _flow_field(_flat(1.0), 0.0, 1.0, 0.75).pdf(0.0)
    assert val == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)


def test_pushforward_constant_sigma_matches_gaussian():
    # x0 = 1 lies z0 = 1/c from the table's anchor 0: the field is a shift in z.
    c, x0, t, h = 2.0, 1.0, 1.5, 0.3
    var = c * c * t ** (2 * h)
    xs = x0 + np.linspace(-3, 3, 41) * np.sqrt(var)
    exact = np.exp(-0.5 * (xs - x0) ** 2 / var) / np.sqrt(2 * np.pi * var)
    got = _flow_field(_flat(c), x0, t, h).pdf(xs)
    assert np.max(np.abs(got - exact) / exact) <= 1e-10


def test_pushforward_normalizes():
    field = _flow_field(sg.sqrt_one_plus_square(), 0.0, 0.5, 0.75)
    mass, _ = quad(field.pdf, field.lo, field.hi, limit=200,
                   points=np.sinh(np.linspace(-3, 3, 9)))
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_pushforward_nonnegative():
    field = _flow_field(sg.sqrt_one_plus_square(), 0.0, 1.0, 0.5)
    assert np.all(field.pdf(np.linspace(field.lo, field.hi, 1001)) >= 0)


def test_t_zero_degenerate():
    with pytest.raises(DegenerateTimeError):
        ch.density_at(ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.5), 0.0)


def test_flow_escape():
    # The table stops at sigma's edge, asinh 5 = 2.31 in z, and says so; a field
    # whose window would drop more than ABS_TOL of its mass there raises.
    s = sg.sqrt_one_plus_square(domain=(-5, 5))
    phi = doss.solve_phi(s, 0.0, (-6, 6))
    assert phi.x_range == (-5.0, 5.0)
    assert phi.z_domain == pytest.approx((-math.asinh(5.0), math.asinh(5.0)), abs=1e-12)
    with pytest.raises(FlowEscapeError, match=r"drops 0\.0208 of the mass"):
        ch.density_at(ch.multiplicative(s, 0.0, 0.5), 1.0)
    field = ch.density_at(ch.multiplicative(s, 0.0, 0.5), 0.09)   # 7.7 std: 1.4e-14
    assert field.z_edge == pytest.approx(math.asinh(5.0), abs=1e-12)


def test_flow_inside_domain_builds():
    # z(5) = asinh 5 = 2.31 passes the z-range's end 2 before the domain's edge
    phi = doss.solve_phi(sg.sqrt_one_plus_square(domain=(-5, 5)), 0.0, (-2, 2))
    assert -5.0 < phi.x_range[0] and phi.x_range[1] < 5.0
    assert phi.z_domain == (-2.0, 2.0)
    assert phi(2.0) == pytest.approx(np.sinh(2.0), rel=1e-12)


@pytest.mark.parametrize("x0", [0.0, 7.0])
def test_flow_start_outside_domain(x0):
    s = sg.sqrt_one_plus_square(domain=(2, 5))
    with pytest.raises(FlowEscapeError, match=f"x0 = {x0:g} lies outside"):
        doss.solve_phi(s, x0, (-1, 1))
    with pytest.raises(FlowEscapeError, match="outside sigma's working domain"):
        ch.density_at(ch.multiplicative(s, x0, 0.5), 1.0)


@pytest.mark.parametrize("x0", [2.0, 5.0])
@pytest.mark.parametrize("z_domain", [(0, 1), (-1, 0), (-1, 1)])
def test_flow_from_the_edge_covers_no_interval(x0, z_domain):
    # The flow stops at sigma's edge, so from x0 on it the table would hold x0
    # alone, which nothing interpolates: solve_phi says so, whichever side is asked.
    s = sg.sqrt_one_plus_square(domain=(2, 5))
    with pytest.raises(FlowEscapeError, match=f"x0 = {x0:g} lies at sigma's edge"):
        doss.solve_phi(s, x0, z_domain)


def test_flow_escape_names_z_reached():
    s = sg.sqrt_one_plus_square(domain=(-5, 5))
    phi = doss.solve_phi(s, 0.0, (-2.4, 1.0))
    assert phi.z_domain[0] == pytest.approx(-2.31244, abs=1e-5) and phi.z_domain[1] == 1.0
    assert phi(phi.z_domain[0]) == -5.0
    with pytest.raises(FlowEscapeError, match=r"z outside flow domain \[-2\.31244, 1\]"):
        phi(-2.4)


def test_pushforward_matches_mc_histogram():
    # X = sinh(Z), Z ~ N(0,1): histogram of 1e6 draws vs integrated density
    pdf = _flow_field(sg.sqrt_one_plus_square(), 0.0, 1.0, 0.5).pdf
    rng = np.random.default_rng(99)
    n = 1_000_000
    x = np.sinh(rng.standard_normal(n))
    edges = np.sinh(np.linspace(-3.0, 3.0, 31))
    counts, _ = np.histogram(x, bins=edges)
    for i in range(len(edges) - 1):
        p, _ = quad(pdf, edges[i], edges[i + 1], limit=100)
        expect = n * p
        se = np.sqrt(n * p * (1 - p))
        assert abs(counts[i] - expect) <= 4 * se
