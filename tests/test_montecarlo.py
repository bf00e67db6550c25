import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbm_infoflow import channels as ch, montecarlo as mc, sigma as sg
from fbm_infoflow.errors import DomainError


def test_constant_function_zero_error():
    chan = ch.multiplicative(sg.constant(1.0), 0.0, 0.5)
    est = mc.mc_expectation(chan, 1.0, lambda x: np.ones_like(x), 1000, 0)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_gaussian_second_moment():
    chan = ch.multiplicative(sg.constant(1.0), 0.0, 0.75)
    est = mc.mc_expectation(chan, 1.0, lambda x: x ** 2, 200_000, 17)
    assert abs(est.mean - 1.0) <= 4 * est.std_error


def test_additive_gaussian_moments():
    chan = ch.additive(ch.gaussian_law(2.0, 0.5), 0.5)
    est = mc.mc_expectation(chan, 1.0, lambda x: x, 200_000, 5)
    assert abs(est.mean - 2.0) <= 4 * est.std_error


def test_gaussian_law_draws_no_component_index():
    # One component: B^H_t, then the law's own noise, and nothing else.
    chan = ch.additive(ch.gaussian_law(2.0, 0.5), 0.75)
    x = mc.sample_endpoint(chan, 1.5, 1000, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    z = rng.standard_normal(1000) * 1.5 ** 0.75
    assert np.array_equal(x, 2.0 + np.sqrt(0.5) * rng.standard_normal(1000) + z)


def test_grid_law_mixture_sampling():
    grid = np.linspace(-1, 1, 2001)
    chan = ch.additive(ch.grid_law(grid, np.full(grid.size, 0.5)), 0.5)
    est = mc.mc_expectation(chan, 1.0, lambda x: x ** 2, 200_000, 29)
    # Var(U[-1,1]) + t^{2H} = 1/3 + 1
    assert abs(est.mean - (1.0 / 3.0 + 1.0)) <= 4 * est.std_error


def test_bit_identical_reproducibility():
    chan = ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.6),
    chan = chan[0]
    a = mc.mc_expectation(chan, 1.0, lambda x: x ** 2, 50_000, 123)
    b = mc.mc_expectation(chan, 1.0, lambda x: x ** 2, 50_000, 123)
    assert a == b
    c = mc.mc_expectation(chan, 1.0, lambda x: x ** 2, 50_000, 124)
    assert c.mean != a.mean


def test_n_too_small_rejected():
    chan = ch.multiplicative(sg.constant(1.0), 0.0, 0.5)
    with pytest.raises(DomainError):
        mc.mc_expectation(chan, 1.0, lambda x: x, 10, 0)


def test_running_moments_matches_numpy():
    rng = np.random.default_rng(0)
    data = rng.standard_normal(10_000)
    acc = mc.RunningMoments()
    for chunk in np.array_split(data, 13):
        acc.update(chunk)
    assert acc.n == data.size
    assert acc.mean == pytest.approx(np.mean(data), abs=1e-13)
    assert acc.variance == pytest.approx(np.var(data, ddof=1), rel=1e-12)


def test_running_moments_merge_associative():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(5000), rng.standard_normal(3000)
    left = mc.RunningMoments()
    left.update(a)
    right = mc.RunningMoments()
    right.update(b)
    left.merge(right)
    combined = mc.RunningMoments()
    combined.update(np.concatenate([a, b]))
    assert left.mean == pytest.approx(combined.mean, abs=1e-13)
    assert left.variance == pytest.approx(combined.variance, rel=1e-12)


def test_mc_entropy_matches_quadrature(canonical_pairs):
    mc_fn, quad_fn = canonical_pairs["mult-sqrt1p-entropy"]
    est = mc_fn(200_000, 31)
    assert abs(est.mean - quad_fn()) <= 4 * est.std_error


def test_canonical_pairs_quick(canonical_pairs):
    # full-scale run (n = 1e6) is the acceptance criterion; smoke it at 1e5
    assert len(canonical_pairs) == 12
    hits = 0
    for mc_fn, quad_fn in canonical_pairs.values():
        est = mc_fn(100_000, 2024)
        if abs(est.mean - quad_fn()) <= 4 * est.std_error:
            hits += 1
    assert hits >= 11


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(-1e3, 1e3), max_size=20), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_running_moments_merge_is_order_invariant(batches, rnd):
    def merged(order):
        acc = mc.RunningMoments()
        for i in order:
            part = mc.RunningMoments()
            part.update(batches[i])
            acc.merge(part)
        return acc

    order = list(range(len(batches)))
    shuffled = order[:]
    rnd.shuffle(shuffled)
    a, b = merged(order), merged(shuffled)
    assert a.n == b.n == sum(len(x) for x in batches)
    assert b.mean == pytest.approx(a.mean, rel=1e-9, abs=1e-9)
    assert b.m2 == pytest.approx(a.m2, rel=1e-9, abs=1e-6)
