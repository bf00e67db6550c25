import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbm_infoflow import channels as ch, doss, identities as idn, infofunc as nf
from fbm_infoflow import montecarlo as mc, sigma as sg
from fbm_infoflow.errors import DomainError


def _x_squared(v):
    """g = x^2, read from the Values the oracle hands g."""
    return v.x ** 2


def test_constant_function_zero_error():
    chan = ch.multiplicative(sg.constant(1.0), 0.0, 0.5)
    est = mc.mc_expectation(chan, 1.0, lambda v: np.ones_like(v.x), 1000, 0)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_gaussian_second_moment():
    chan = ch.multiplicative(sg.constant(1.0), 0.0, 0.75)
    est = mc.mc_expectation(chan, 1.0, lambda v: v.x ** 2, 200_000, 17)
    assert abs(est.mean - 1.0) <= 4 * est.std_error


def test_additive_gaussian_moments():
    chan = ch.additive(ch.gaussian_law(2.0, 0.5), 0.5)
    est = mc.mc_expectation(chan, 1.0, lambda v: v.x, 200_000, 5)
    assert abs(est.mean - 2.0) <= 4 * est.std_error


def test_gaussian_law_draws_no_component_index():
    # X_t ~ N(m, v + t^{2H}) from one block of normals, and nothing else: X_0 and
    # B^H_t were once two blocks.
    chan = ch.additive(ch.gaussian_law(2.0, 0.5), 0.75)
    gen = np.random.default_rng(4)
    x = mc.sample_endpoint(chan, 1.5, 1000, gen)
    rng = np.random.default_rng(4)
    assert np.array_equal(x, rng.standard_normal(1000) * math.sqrt(0.5 + 1.5 ** 1.5) + 2.0)
    assert gen.bit_generator.state == rng.bit_generator.state


def test_the_law_not_the_channel_decides_the_draws():
    # An additive Gaussian channel and a constant-sigma one with the same law of X_t
    # draw the same samples on one seed.
    a = ch.additive(ch.gaussian_law(0.0, 1.0), 0.5), 1.0
    b = ch.multiplicative(sg.constant(1.0), 0.0, 0.5), 2.0
    assert ch.density_at(*a) == ch.density_at(*b) == ch.GaussianField(0.0, 2.0)
    xa, xb = (mc.sample_endpoint(c, t, 1000, np.random.default_rng(7)) for c, t in (a, b))
    assert np.array_equal(xa, xb)


def test_flow_samples_are_clipped_normals():
    # A flow channel's draws stay in z, in draw order, cut at the window: X_t = flow.x(z).
    chan = ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.75)
    t, n = 2.0, 5000
    draws = mc.sample_endpoint(chan, t, n, np.random.default_rng(8))
    field = ch.density_at(chan, t)
    z = np.random.default_rng(8).standard_normal(n) * math.sqrt(field.var)
    assert np.array_equal(draws, np.clip(z, -field.z_edge, field.z_edge))


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
    est = mc.mc_expectation(chan, t, lambda v: g(v.x), n, seed)
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
        est = mc.mc_expectation(x, 1.0, rhs.g, n, 5, *rhs.fields[1:])
        assert math.isfinite(est.mean) and est.std_error > 0
    mc.mc_expectation(x, 1.0, lambda v: np.square(v.x), n, 5)
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
    """X_t of an additive channel from plain generator draws: one block of normals,
    X_t's own for a Gaussian law; for a grid law B^H_t's, then the grid-point
    counts by trapezoid weight and triangular noise about each point."""
    s = t ** (2 * h)
    if isinstance(law, ch.GaussianLaw):
        return rng.standard_normal(n) * math.sqrt(law.variance + s) + law.mean
    z = rng.standard_normal(n) * math.sqrt(s)
    y = law.grid
    weights = law.values * np.convolve(np.diff(y), [1.0, 1.0])   # neighbouring intervals
    k = np.repeat(np.arange(y.size), rng.multinomial(n, weights / weights.sum()))
    return rng.triangular(y[np.maximum(k - 1, 0)], y[k], y[np.minimum(k + 1, y.size - 1)]) + z


@pytest.mark.parametrize("law", [
    ch.gaussian_law(2.0, 0.5),
    ch.grid_law(np.linspace(-1, 1, 2001), np.full(2001, 0.5))], ids=["gaussian", "grid"])
def test_memo_hit_is_a_fresh_draw(memo, law):
    # Each law draws one normal block (a grid law's own noise is triangular).
    chan = ch.additive(law, 0.75)
    rng = np.random.default_rng(4)
    ref = _plain_endpoint(law, 1.5, 0.75, 1000, rng)
    for _ in range(2):                  # a miss, then a hit
        gen = np.random.default_rng(4)
        x = mc.sample_endpoint(chan, 1.5, 1000, gen)
        assert memo.cache_info().misses == 1
        assert np.array_equal(x, ref)
        assert gen.bit_generator.state == rng.bit_generator.state


def test_one_seed_draws_each_block_once(memo, monkeypatch):
    # Three batches, one normal block each; a second estimate with the same
    # seed at another (t, H) draws nothing new.  Both equal the estimates
    # drawn through a memo that keeps nothing.
    n = 2 * mc._BATCH + 5
    law = ch.gaussian_law(0.0, 1.0)
    a = mc.mc_expectation(ch.additive(law, 0.3), 0.5, _x_squared, n, 3)
    assert memo.cache_info().misses == 3
    b = mc.mc_expectation(ch.additive(law, 0.75), 2.0, _x_squared, n, 3)
    assert memo.cache_info().misses == 3
    nothing_kept = functools.lru_cache(maxsize=0)(memo.__wrapped__)
    monkeypatch.setattr(mc, "_normal_block", nothing_kept)
    assert b == mc.mc_expectation(ch.additive(law, 0.75), 2.0, _x_squared, n, 3)
    assert a == mc.mc_expectation(ch.additive(law, 0.3), 0.5, _x_squared, n, 3)
    assert nothing_kept.cache_info().misses == 6


def test_flow_and_gaussian_channels_share_blocks(memo):
    # A flow channel's draws are its normals times sd, cut at the window.  A second
    # cell with the same seed at another (t, H) draws nothing new, nor does a
    # Gaussian channel on the same seed: it reads the flow's block.
    sig = sg.sqrt_one_plus_square()
    for t, h in ((0.5, 0.3), (2.0, 0.75)):
        chan = ch.multiplicative(sig, 0.0, h)
        rng, gen = np.random.default_rng(8), np.random.default_rng(8)
        z = mc.sample_endpoint(chan, t, 1000, gen)
        field = ch.density_at(chan, t)
        ref = np.clip(rng.standard_normal(1000) * math.sqrt(field.var), -field.z_edge,
                      field.z_edge)
        assert np.array_equal(z, ref) and gen.bit_generator.state == rng.bit_generator.state
        mc.mc_expectation(chan, t, _x_squared, 1000, 8)
        assert memo.cache_info().misses == 2          # this draw's block and the seed's
    law = ch.gaussian_law(0.0, 1.0)
    x = mc.sample_endpoint(ch.additive(law, 0.5), 2.0, 1000, np.random.default_rng(8))
    assert memo.cache_info().misses == 2
    assert np.array_equal(x, _plain_endpoint(law, 2.0, 0.5, 1000, np.random.default_rng(8)))


def test_memo_memory_is_bounded(memo):
    # ROADMAP: memory stays bounded whatever the sample count.  4e6 samples
    # draw 31 blocks, one a batch; the memo keeps the last _MEMO_BLOCKS, and a
    # batch's own arrays (its samples, g's values, a block's moments) come on top.
    block = 8 * mc._BATCH
    chan = ch.additive(ch.gaussian_law(0.0, 1.0), 0.5)
    tracemalloc.start()
    try:
        mc.mc_expectation(chan, 1.0, lambda v: v.x, 4_000_000, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert memo.cache_info().misses == 31
    assert memo.cache_info().currsize == mc._MEMO_BLOCKS
    assert peak <= (mc._MEMO_BLOCKS + 8) * block, peak       # 18 blocks measured


def test_oracle_working_set_is_bounded(memo):
    # A flow channel's block holds about seven block-sized arrays at once (phi's
    # index and Horner temporaries, x, sigma, sigma', the score, g's products);
    # blocks of 2^14 draws keep one 1e5-draw estimate below 2 MiB of temporaries
    # (1.77 MiB measured; 2.52 MiB with blocks of 2^15).
    chan = ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.5)
    rhs = idn.debruijn_rhs(chan, 1.0)
    warm = mc.mc_expectation(chan, 1.0, rhs.g, 100_000, 1)     # memo warm
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        est = mc.mc_expectation(chan, 1.0, rhs.g, 100_000, 1)
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
    est = mc.mc_expectation(chan, 1.0, _x_squared, 200_000, 29)
    # Var(U[-1,1]) + t^{2H} = 1/3 + 1
    assert abs(est.mean - (1.0 / 3.0 + 1.0)) <= 4 * est.std_error


def test_grid_law_samples_its_interpolant():
    # The 9-point uniform law on [-1, 1] at t = 1e-6: E[X^2] is 1/3 for the
    # interpolant, the uniform law, and 0.34375 for the point masses at the grid
    # points, about 15 standard errors away.
    grid = np.linspace(-1.0, 1.0, 9)
    chan = ch.additive(ch.grid_law(grid, np.full(grid.size, 0.5)), 0.5)
    est = mc.mc_expectation(chan, 1e-6, _x_squared, 200_000, 41)
    assert abs(est.mean - 1.0 / 3.0) <= 4 * est.std_error
    assert abs(est.mean - 0.34375) >= 10 * est.std_error


def test_bit_identical_reproducibility():
    chan = ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.6),
    chan = chan[0]
    a = mc.mc_expectation(chan, 1.0, _x_squared, 50_000, 123)
    b = mc.mc_expectation(chan, 1.0, _x_squared, 50_000, 123)
    assert a == b
    c = mc.mc_expectation(chan, 1.0, _x_squared, 50_000, 124)
    assert c.mean != a.mean


def test_n_too_small_rejected():
    chan = ch.multiplicative(sg.constant(1.0), 0.0, 0.5)
    with pytest.raises(DomainError):
        mc.mc_expectation(chan, 1.0, lambda v: v.x, 10, 0)


@pytest.mark.parametrize("n, seed", [(100.5, 0), (99, 0), (True, 0), ("1000", 0),
                                     (1000, -1), (1000, 1.5), (1000, math.nan)])
def test_bad_count_or_seed_rejected(n, seed):
    # numpy's TypeError or ValueError once, from inside the batch loop.
    chan = ch.multiplicative(sg.constant(1.0), 0.0, 0.5)
    with pytest.raises(DomainError, match="mc_expectation needs a whole"):
        mc.mc_expectation(chan, 1.0, lambda v: v.x, n, seed)


def test_whole_float_count_and_seed_are_their_ints():
    chan = ch.multiplicative(sg.constant(1.0), 0.0, 0.5)
    assert (mc.mc_expectation(chan, 1.0, _x_squared, 1e3, 2.0)
            == mc.mc_expectation(chan, 1.0, _x_squared, 1000, np.int64(2)))


def test_oracle_reads_the_law_it_samples():
    # One law of X_t, density_at(channel, t), for the draws and for g's Values: the
    # De Bruijn g at t = 1 on sqrt1p, H = 0.75, has E[g] = 1.606.  Draws at t = 1
    # read through the fields of t = 2 once gave -0.054.
    chan = ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, 0.75)
    rhs = idn.debruijn_rhs(chan, 1.0)
    est = mc.mc_expectation(chan, 1.0, rhs.g, 100_000, 3)
    assert abs(rhs.scale * est.mean - rhs.value()) <= 4 * abs(rhs.scale) * est.std_error


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
        mc.mc_expectation(chan, t, lambda v: v.x, 1000, 0)
