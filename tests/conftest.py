import numpy as np
import pytest

from fbm_infoflow import channels as ch, infofunc as nf, montecarlo as mc, sigma as sg


def _uniform_grid_law():
    grid = np.linspace(-1.0, 1.0, 2001)
    return ch.grid_law(grid, np.full_like(grid, 0.5))


def _neg_log_density(channel, t):
    """x -> -ln P_t(x) from the analytic density: its mean under P_t is the entropy."""
    field = ch.density_at(channel, t)
    return lambda x: -np.log(np.maximum(field.pdf(x), 1e-300))


@pytest.fixture(scope="session")
def canonical_pairs():
    """The 12 canonical (channel, functional) pairs of the MC-vs-quadrature check:
    a dict name -> (mc_fn, quad_fn), where mc_fn(n, seed) gives an McEstimate of
    E[g(X_t)] and quad_fn() the quadrature value of the same expectation."""
    s1, s2, s_half = sg.constant(1.0), sg.constant(2.0), sg.constant(0.5)
    s_nl = sg.sqrt_one_plus_square()
    cases = [
        ("mult-c1-x2", ch.multiplicative(s1, 0.0, 0.75), 1.0, lambda x: x ** 2),
        ("mult-c2-x", ch.multiplicative(s2, 1.0, 0.5), 1.0, lambda x: x),
        ("mult-c05-x4", ch.multiplicative(s_half, 0.0, 0.25), 2.0, lambda x: x ** 4),
        ("mult-sqrt1p-curv", ch.multiplicative(s_nl, 0.0, 0.5), 1.0, s_nl.curvature),
        ("mult-sqrt1p-x2", ch.multiplicative(s_nl, 0.0, 0.75), 1.0, lambda x: x ** 2),
        ("mult-sqrt1p-sigma", ch.multiplicative(s_nl, 1.0, 0.3), 0.5,
         lambda x: np.sqrt(1.0 + x ** 2)),
        ("add-gauss-x2", ch.additive(ch.gaussian_law(0.0, 1.0), 0.5), 1.0,
         lambda x: x ** 2),
        ("add-gauss-x", ch.additive(ch.gaussian_law(2.0, 0.5), 0.75), 1.0,
         lambda x: x),
        ("add-gauss-bump", ch.additive(ch.gaussian_law(0.0, 1.0), 0.3), 2.0,
         lambda x: np.exp(-x ** 2 / 8.0)),
        ("add-grid-x2", ch.additive(_uniform_grid_law(), 0.5), 1.0, lambda x: x ** 2),
        ("add-grid-sin", ch.additive(_uniform_grid_law(), 0.75), 0.5, np.sin),
    ]
    ent_channel = ch.multiplicative(s_nl, 0.0, 0.6)
    # The oracle hands g the Values at its samples, x among them.
    pairs = {name: (lambda n, seed, c=channel, tt=t, gg=g:
                    mc.mc_expectation(c, tt, lambda v: gg(v.x), n, seed),
                    lambda c=channel, tt=t, gg=g: nf.expectation(ch.density_at(c, tt), gg))
             for name, channel, t, g in cases}
    # The plug-in entropy estimate -mean[ln P_t(X)] against the entropy functional.
    neg_log = _neg_log_density(ent_channel, 1.0)
    pairs["mult-sqrt1p-entropy"] = (
        lambda n, seed: mc.mc_expectation(ent_channel, 1.0, lambda v: neg_log(v.x), n, seed),
        lambda: nf.entropy(ch.density_at(ent_channel, 1.0)))
    return pairs
