"""Sampling-based oracle for the quadrature path.

Because X_t = phi(B^H_t), only the endpoint B^H_t ~ N(0, t^{2H}) is ever
sampled; no path simulation is needed.  A flow channel's draws stay in z, and
g reads the FlowField's Values from them (`channels.FlowField.at`), so no draw
inverts phi.  Each batch is evaluated in blocks of _BLOCK draws: on a flow
channel a block holds about seven block-sized float arrays at once (phi's
index and Horner temporaries, x, sigma, sigma', the score and g's products),
and one 1e5-draw estimate of the De Bruijn rhs on sqrt1p peaks at 1.8 MiB
(tracemalloc), so that the allocator keeps its memory between calls rather
than returning it and faulting it in again.  Estimates are reproducible per
seed and accumulated with a streaming mean/variance merge so batches can be
processed independently.

Estimates with one seed share their normal draws (common random numbers):
batch j of every call is seeded by child j of SeedSequence(seed), whatever the
channel, t or H.  Each block of standard normals is therefore drawn once and
kept in a memo keyed by the generator's exact state and the count, at most
_MEMO_BLOCKS blocks of at most _BATCH normals (16 MiB); a hit returns the same
numbers and leaves the generator where a fresh draw would.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
# numpy loads these lazily; loading them with the package keeps that cost
# in set-up, not in the first cell that draws.
import numpy.random

from . import channels as ch
from .errors import DomainError

_BATCH = 1 << 17
_BLOCK = 1 << 14        # draws g sees at once: 128 kB a float array
_MEMO_BLOCKS = 16


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
        mb = float(np.sum(batch) / nb)         # np.mean's own arithmetic
        d = batch - mb
        # einsum's loop, not d @ d: a BLAS ddot may wake OpenBLAS's threads, which
        # stall some fresh processes for most of a second.
        self._merge(nb, mb, float(np.einsum("i,i->", d, d)))

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


@functools.lru_cache(maxsize=_MEMO_BLOCKS)
def _normal_block(state, inc, has_uint32, uinteger, n):
    """n standard normals from a PCG64 generator in the given state, read-only,
    and the generator's state after the draw."""
    bg = np.random.PCG64(0)          # its state is set next
    bg.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                "has_uint32": has_uint32, "uinteger": uinteger}
    normals = np.random.Generator(bg).standard_normal(n)
    normals.flags.writeable = False
    return normals, bg.state


def _standard_normal(rng, n):
    """rng.standard_normal(n).  A PCG64 block of at most _BATCH normals is drawn
    once: a repeat returns the same read-only block and sets rng where the draw
    left it."""
    bg = rng.bit_generator
    if n > _BATCH or type(bg) is not np.random.PCG64:
        return rng.standard_normal(n)
    st = bg.state
    normals, bg.state = _normal_block(st["state"]["state"], st["state"]["inc"],
                                      st["has_uint32"], st["uinteger"], n)
    return normals


def sample_endpoint(channel, t, n, rng):
    """Draw n samples of X_t in the coordinate its field's `at` reads: for a flow
    channel the offsets z of X_t = field.x(z), cut at the field's window; x for
    every other channel."""
    z = _standard_normal(rng, n) * float(t) ** channel.hurst.value
    sig = channel.sigma
    if channel.variant == "multiplicative" and sig.kind != "constant":
        z_edge = ch.density_at(channel, t).z_edge
        return np.clip(z, -z_edge, z_edge, out=z)
    if channel.variant == "multiplicative":
        z *= sig.c
        z += channel.x0
        return z
    law = channel.initial
    if law.kind == "gaussian":
        x0 = _standard_normal(rng, n) * math.sqrt(law.variance)
        x0 += law.mean
        x0 += z
        return x0
    # The interpolant of a grid law is a mixture of hat functions, one per grid
    # point, weighted by its trapezoid weight: a grid point each, then triangular
    # noise over its two neighbouring intervals.
    y = law.grid
    k = np.repeat(np.arange(y.size), rng.multinomial(n, law.hat_weights))
    x0 = rng.triangular(y[np.maximum(k - 1, 0)], y[k], y[np.minimum(k + 1, y.size - 1)])
    x0 += z
    return x0


def mc_expectation(channel, t, g, n, seed, fields=None):
    """Monte Carlo estimate of E[g(X_t)] with n samples.  g takes the samples x; or,
    given `fields`, the law of X_t and for a divergence its q, g takes their
    channels.Values at the samples, as an identities.Rhs g does."""
    if n < 100:
        raise DomainError("mc_expectation needs n >= 100")
    if not 0.0 < t < math.inf:
        raise DomainError(f"mc_expectation needs 0 < t < inf, not {t}")
    p, *q = fields or (ch.density_at(channel, t),)
    read = g if fields else lambda v: g(v.x)
    acc = RunningMoments()
    streams = np.random.SeedSequence(seed).spawn((n + _BATCH - 1) // _BATCH)
    remaining = n
    for ss in streams:
        nb = min(_BATCH, remaining)
        remaining -= nb
        draws = sample_endpoint(channel, t, nb, np.random.default_rng(ss))
        for i in range(0, nb, _BLOCK):
            acc.update(read(p.at(draws[i:i + _BLOCK], *q)))
    return McEstimate(mean=acc.mean, std_error=acc.std_error)

