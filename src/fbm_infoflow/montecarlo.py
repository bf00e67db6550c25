"""Sampling-based oracle for the quadrature path.

Because X_t = phi(B^H_t), only the endpoint B^H_t ~ N(0, t^{2H}) is ever
sampled; no path simulation is needed.  Estimates are reproducible per seed
and accumulated with a streaming mean/variance merge so batches can be
processed independently.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import infofunc as nf
from .errors import DomainError

_BATCH = 1 << 17


@dataclass
class RunningMoments:
    """Streaming mean/variance with an associative merge (Chan et al.)."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, batch):
        batch = np.asarray(batch, dtype=float)
        nb = batch.size
        if nb == 0:
            return
        mb = float(np.mean(batch))
        m2b = float(np.sum((batch - mb) ** 2))
        self._merge(nb, mb, m2b)

    def merge(self, other):
        self._merge(other.n, other.mean, other.m2)

    def _merge(self, nb, mb, m2b):
        if nb == 0:
            return
        n_new = self.n + nb
        delta = mb - self.mean
        self.mean += delta * nb / n_new
        self.m2 += m2b + delta * delta * self.n * nb / n_new
        self.n = n_new

    @property
    def variance(self):
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def std_error(self):
        return math.sqrt(self.variance / self.n) if self.n > 1 else 0.0


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float


def sample_endpoint(channel, t, n, rng):
    """Draw n samples of X_t."""
    hv = channel.hurst.value
    sd = float(t) ** hv
    z = rng.standard_normal(n) * sd
    if channel.variant == "multiplicative":
        sig = channel.sigma
        if sig.kind == "constant":
            return channel.x0 + sig.c * z
        phi = ch._phi_for(channel, t)
        z_lo, z_hi = phi.z_domain
        return phi(np.clip(z, z_lo, z_hi))
    means, variance, weights = ch._components(channel.initial)
    counts = rng.multinomial(n, weights)    # a component each; no draw for one alone
    x0 = rng.standard_normal(n) * math.sqrt(variance)
    x0 += np.repeat(means, counts)
    return x0 + z


def mc_expectation(channel, t, g, n, seed):
    """Monte Carlo estimate of E[g(X_t)] with n samples."""
    if n < 100:
        raise DomainError("mc_expectation needs n >= 100")
    if t <= 0:
        raise DomainError("mc_expectation needs t > 0")
    acc = RunningMoments()
    streams = np.random.SeedSequence(seed).spawn((n + _BATCH - 1) // _BATCH)
    remaining = n
    for ss in streams:
        nb = min(_BATCH, remaining)
        remaining -= nb
        x = sample_endpoint(channel, t, nb, np.random.default_rng(ss))
        acc.update(g(x))
    return McEstimate(mean=acc.mean, std_error=acc.std_error)


def mc_entropy(channel, t, n, seed):
    """Plug-in entropy estimate -mean[ln P_t(X)] using the analytic density."""
    field = ch.density_at(channel, t)

    def neg_log_density(x):
        return -np.log(np.maximum(field.pdf(x), 1e-300))

    return mc_expectation(channel, t, neg_log_density, n, seed)


def canonical_pairs():
    """The 12 canonical (channel, functional) pairs used for the
    MC-vs-quadrature acceptance check.

    Returns a list of (name, mc_fn, quad_fn) where mc_fn(n, seed) gives an
    McEstimate and quad_fn() the quadrature-path value.
    """
    from . import sigma as sg

    s1 = sg.constant(1.0)
    s2 = sg.constant(2.0)
    s_half = sg.constant(0.5)
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
        ("add-grid-x2", ch.additive(_uniform_grid_law(), 0.5), 1.0,
         lambda x: x ** 2),
        ("add-grid-sin", ch.additive(_uniform_grid_law(), 0.75), 0.5, np.sin),
    ]

    pairs = []
    for name, channel, t, g in cases:
        pairs.append((
            name,
            lambda n, seed, c=channel, tt=t, gg=g: mc_expectation(c, tt, gg, n, seed),
            lambda c=channel, tt=t, gg=g: nf.expectation(ch.density_at(c, tt), gg),
        ))

    ent_channel = ch.multiplicative(s_nl, 0.0, 0.6)
    pairs.append((
        "mult-sqrt1p-entropy",
        lambda n, seed: mc_entropy(ent_channel, 1.0, n, seed),
        lambda: nf.entropy(ch.density_at(ent_channel, 1.0)),
    ))
    return pairs


def _uniform_grid_law():
    grid = np.linspace(-1.0, 1.0, 2001)
    return ch.grid_law(grid, np.full_like(grid, 0.5))
