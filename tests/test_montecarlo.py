import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbm_infoflow import channels as ch, doss, identities as idn, infofunc as nf
from fbm_infoflow import montecarlo as mc, sigma as sg
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


def test_flow_samples_are_clipped_normals():
    # A flow channel's draws stay in z, in draw order, cut at the window: X_t = flow.x(z).
    chan = ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.75)
    t, n = 2.0, 5000
    draws = mc.sample_endpoint(chan, t, n, np.random.default_rng(8))
    z_edge = ch.density_at(chan, t).z_edge
    z = np.random.default_rng(8).standard_normal(n) * t ** 0.75
    assert np.array_equal(draws, np.clip(z, -z_edge, z_edge))


@pytest.mark.parametrize("chan", [
    ch.additive(ch.gaussian_law(0.5, 2.0), 0.75),
    ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.6)], ids=["gaussian", "flow"])
def test_blocked_oracle_is_the_plain_estimator(chan):
    # The oracle evaluates g on blocks of _BLOCK draws and merges their moments: the
    # same estimate as one mean and standard error over all the batches' draws.
    n, seed, t = 2 * mc._BATCH + 5, 13, 1.5
    field = ch.density_at(chan, t)

    def g(x):
        return np.sin(x) + x ** 2
    est = mc.mc_expectation(chan, t, g, n, seed)
    streams = np.random.SeedSequence(seed).spawn(3)
    draws = np.concatenate([mc.sample_endpoint(chan, t, nb, np.random.default_rng(ss))
                            for ss, nb in zip(streams, (mc._BATCH, mc._BATCH, 5))])
    values = g(field.x(draws) if isinstance(field, ch.FlowField) else draws)
    assert est.mean == pytest.approx(np.mean(values), rel=1e-13)
    assert est.std_error == pytest.approx(np.std(values, ddof=1) / math.sqrt(n), rel=1e-10)


def test_sampled_path_inverts_only_the_starts(monkeypatch):
    # The z rule and the oracle read a flow field's ln p and score from z, so the
    # only point phi^-1 sees is the start x0 of the fields density_at builds, once
    # a start: every later field from it reads the z0 kept for it.
    ch._z0.cache_clear()
    inverted, built = [], []
    invert, density_at = doss.invert_phi, ch.density_at
    monkeypatch.setattr(doss, "invert_phi",
                        lambda phi, x: inverted.append(np.size(x)) or invert(phi, x))
    monkeypatch.setattr(ch, "density_at",
                        lambda channel, t: built.append(t) or density_at(channel, t))
    s = sg.sqrt_one_plus_square()
    x, y = ch.multiplicative(s, 0.0, 0.75), ch.multiplicative(s, 1.0, 0.75)
    n = mc._BATCH + mc._BLOCK + 3
    for rhs in (idn.debruijn_rhs(x, 1.0), idn.kl_flow_rhs(x, y, 1.0)):
        assert math.isfinite(rhs.value())
        est = mc.mc_expectation(x, 1.0, rhs.g, n, 5, rhs.fields)
        assert math.isfinite(est.mean) and est.std_error > 0
    mc.mc_expectation(x, 1.0, np.square, n, 5)
    p, q = ch.density_at(x, 1.0), ch.density_at(y, 1.0)
    assert nf.entropy(p) > 0 and nf.kl_divergence(p, q) > 0
    assert len(built) > 2 and inverted == [1, 1]      # x0 = 0 and y0 = 1


@pytest.fixture
def memo():
    """The oracle's memo of normal blocks, emptied before and after the test."""
    mc._normal_block.cache_clear()
    yield mc._normal_block
    mc._normal_block.cache_clear()


def _plain_endpoint(law, t, h, n, rng):
    """X_t of an additive channel from plain generator draws: B^H_t, then the law's
    own noise, normal for a Gaussian law; for a grid law the grid-point counts by
    trapezoid weight, then triangular noise about each point."""
    z = rng.standard_normal(n) * t ** h
    if law.kind == "gaussian":
        return rng.standard_normal(n) * math.sqrt(law.variance) + law.mean + z
    y = law.grid
    weights = law.values * np.convolve(np.diff(y), [1.0, 1.0])   # neighbouring intervals
    k = np.repeat(np.arange(y.size), rng.multinomial(n, weights / weights.sum()))
    return rng.triangular(y[np.maximum(k - 1, 0)], y[k], y[np.minimum(k + 1, y.size - 1)]) + z


@pytest.mark.parametrize("law, blocks", [
    (ch.gaussian_law(2.0, 0.5), 2),
    (ch.grid_law(np.linspace(-1, 1, 2001), np.full(2001, 0.5)), 1)], ids=["gaussian", "grid"])
def test_memo_hit_is_a_fresh_draw(memo, law, blocks):
    # A Gaussian law draws two normal blocks (B^H_t and its own noise), a grid law
    # one (its own noise is triangular).
    chan = ch.additive(law, 0.75)
    rng = np.random.default_rng(4)
    ref = _plain_endpoint(law, 1.5, 0.75, 1000, rng)
    for _ in range(2):                  # a miss for each normal block, then hits
        gen = np.random.default_rng(4)
        x = mc.sample_endpoint(chan, 1.5, 1000, gen)
        assert memo.cache_info().misses == blocks
        assert np.array_equal(x, ref)
        assert gen.bit_generator.state == rng.bit_generator.state


def test_one_seed_draws_each_block_once(memo, monkeypatch):
    # Three batches, two normal blocks each; a second estimate with the same
    # seed at another (t, H) draws nothing new.  Both equal the estimates
    # drawn through a memo that keeps nothing.
    n = 2 * mc._BATCH + 5
    law = ch.gaussian_law(0.0, 1.0)
    a = mc.mc_expectation(ch.additive(law, 0.3), 0.5, np.square, n, 3)
    assert memo.cache_info().misses == 6
    b = mc.mc_expectation(ch.additive(law, 0.75), 2.0, np.square, n, 3)
    assert memo.cache_info().misses == 6
    nothing_kept = functools.lru_cache(maxsize=0)(memo.__wrapped__)
    monkeypatch.setattr(mc, "_normal_block", nothing_kept)
    assert b == mc.mc_expectation(ch.additive(law, 0.75), 2.0, np.square, n, 3)
    assert a == mc.mc_expectation(ch.additive(law, 0.3), 0.5, np.square, n, 3)
    assert nothing_kept.cache_info().misses == 12


def test_flow_and_gaussian_channels_share_blocks(memo):
    # A flow channel's draws are its normals times sd, cut at the window.  A second
    # cell with the same seed at another (t, H) draws nothing new; a Gaussian
    # channel on the same seed reads the flow's block for B^H_t and draws only
    # its own noise.
    sig = sg.sqrt_one_plus_square()
    for t, h in ((0.5, 0.3), (2.0, 0.75)):
        chan = ch.multiplicative(sig, 0.0, h)
        rng, gen = np.random.default_rng(8), np.random.default_rng(8)
        z = mc.sample_endpoint(chan, t, 1000, gen)
        z_edge = ch.density_at(chan, t).z_edge
        ref = np.clip(rng.standard_normal(1000) * t ** h, -z_edge, z_edge)
        assert np.array_equal(z, ref) and gen.bit_generator.state == rng.bit_generator.state
        mc.mc_expectation(chan, t, np.square, 1000, 8)
        assert memo.cache_info().misses == 2          # this draw's block and the seed's
    law = ch.gaussian_law(0.0, 1.0)
    x = mc.sample_endpoint(ch.additive(law, 0.5), 2.0, 1000, np.random.default_rng(8))
    assert memo.cache_info().misses == 3
    assert np.array_equal(x, _plain_endpoint(law, 2.0, 0.5, 1000, np.random.default_rng(8)))


def test_memo_memory_is_bounded(memo):
    # ROADMAP: memory stays bounded whatever the sample count.  4e6 samples
    # draw 62 blocks; the memo keeps the last _MEMO_BLOCKS, and a batch's own
    # arrays (B^H_t, the law's noise, the component means, their sum) come on top.
    block = 8 * mc._BATCH
    chan = ch.additive(ch.gaussian_law(0.0, 1.0), 0.5)
    tracemalloc.start()
    try:
        mc.mc_expectation(chan, 1.0, lambda x: x, 4_000_000, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert memo.cache_info().misses == 62
    assert memo.cache_info().currsize == mc._MEMO_BLOCKS
    assert peak <= (mc._MEMO_BLOCKS + 8) * block, peak       # 20 blocks measured


def test_oracle_working_set_is_bounded(memo):
    # A flow channel's block holds about seven block-sized arrays at once (phi's
    # index and Horner temporaries, x, sigma, sigma', the score, g's products);
    # blocks of 2^14 draws keep one 1e5-draw estimate below 2 MiB of temporaries
    # (1.77 MiB measured; 2.52 MiB with blocks of 2^15).
    chan = ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.5)
    rhs = idn.debruijn_rhs(chan, 1.0)
    warm = mc.mc_expectation(chan, 1.0, rhs.g, 100_000, 1, rhs.fields)    # memo warm
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        est = mc.mc_expectation(chan, 1.0, rhs.g, 100_000, 1, rhs.fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est == warm and memo.cache_info().hits == 1
    assert peak - start <= 2 * 2 ** 20, peak - start


def test_draw_above_batch_is_not_kept(memo):
    chan = ch.multiplicative(sg.constant(1.0), 0.0, 0.5)
    x = mc.sample_endpoint(chan, 1.0, mc._BATCH + 1, np.random.default_rng(6))
    assert np.array_equal(x, np.random.default_rng(6).standard_normal(mc._BATCH + 1))
    assert memo.cache_info().misses == memo.cache_info().currsize == 0


def test_grid_law_mixture_sampling():
    grid = np.linspace(-1, 1, 2001)
    chan = ch.additive(ch.grid_law(grid, np.full(grid.size, 0.5)), 0.5)
    est = mc.mc_expectation(chan, 1.0, lambda x: x ** 2, 200_000, 29)
    # Var(U[-1,1]) + t^{2H} = 1/3 + 1
    assert abs(est.mean - (1.0 / 3.0 + 1.0)) <= 4 * est.std_error


def test_grid_law_samples_its_interpolant():
    # The 9-point uniform law on [-1, 1] at t = 1e-6: E[X^2] is 1/3 for the
    # interpolant, the uniform law, and 0.34375 for the point masses at the grid
    # points, about 15 standard errors away.
    grid = np.linspace(-1.0, 1.0, 9)
    chan = ch.additive(ch.grid_law(grid, np.full(grid.size, 0.5)), 0.5)
    est = mc.mc_expectation(chan, 1e-6, np.square, 200_000, 41)
    assert abs(est.mean - 1.0 / 3.0) <= 4 * est.std_error
    assert abs(est.mean - 0.34375) >= 10 * est.std_error


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


def test_running_moments_block_m2_is_two_pass():
    # A block's m2 is centred on its own mean first, so a mean of 1e6 against an
    # sd of 1 costs nothing; the reference sums exactly (fsum) about the exact mean.
    x = np.random.default_rng(3).normal(1e6, 1.0, 1 << 15)
    acc = mc.RunningMoments()
    acc.update(x)
    mean = math.fsum(x) / x.size
    m2 = math.fsum(((x - mean) ** 2).tolist())
    assert acc.mean == np.mean(x)
    assert abs(acc.m2 - m2) <= 1e-14 * m2


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


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
def test_non_finite_or_nonpositive_time_rejected(t):
    # t = nan once gave McEstimate(mean=nan, std_error=nan).
    chan = ch.multiplicative(sg.constant(1.0), 0.0, 0.5)
    with pytest.raises(DomainError):
        mc.mc_expectation(chan, t, lambda x: x, 1000, 0)
