"""Sampling-based oracle for the quadrature path.

Because X_t = Phi(z0 + B^H_t), or X_0 + B^H_t, only the law of the endpoint is
sampled, by the `draw` of the field `channels.density_at` builds; no path
simulation is needed.  The oracle reads its draws through that same field's
`at`, as `channels.Values`, so the law it samples is the law it reads.  A flow
field's draws stay in z, which its `at` reads, so no draw inverts phi.  Each
batch is evaluated in blocks of _BLOCK draws: on a flow channel a block holds
about seven block-sized float arrays at once (phi's index and Horner
temporaries, x, sigma, sigma', the score and g's products), and one 1e5-draw
estimate of the De Bruijn rhs on sqrt1p peaks at 1.8 MiB (tracemalloc), so that
the allocator keeps its memory between calls rather than returning it and
faulting it in again.  Estimates are reproducible per seed and accumulated with
a streaming mean/variance merge so batches can be processed independently.

Estimates with one seed share their normal draws (common random numbers):
batch j of every call is seeded by child j of SeedSequence(seed), whatever the
channel, t or H, and draws one block of standard normals.  Each block is drawn
once and kept in a memo keyed by the generator's exact state and the count, at
most _MEMO_BLOCKS blocks of at most _BATCH normals (16 MiB); a hit returns the
same numbers and leaves the generator where a fresh draw would.
"""

import functools
import math
import numbers
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
    """n samples of X_t, in the coordinate its field's `at` reads, from one block
    of n standard normals (and, for a grid law, rng's later draws)."""
    return ch.density_at(channel, t).draw(_standard_normal(rng, n), rng)


def _whole(what, value, least):
    """value as an int; DomainError unless it is a whole number >= least."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and value == int(value) >= least)):
        raise DomainError(f"mc_expectation needs a whole {what} >= {least}, not {value!r}")
    return int(value)


def mc_expectation(channel, t, g, n, seed, q=None):
    """Monte Carlo estimate of E[g(v)] from n samples of X_t, v the channels.Values
    at them of X_t's law density_at(channel, t), and for a divergence of its q, as
    an identities.Rhs g reads them.  n is a whole number >= 100, seed one >= 0."""
    n, seed = _whole("n", n, 100), _whole("seed", seed, 0)
    if not 0.0 < t < math.inf:
        raise DomainError(f"mc_expectation needs 0 < t < inf, not {t}")
    p = ch.density_at(channel, t)
    acc = RunningMoments()
    streams = np.random.SeedSequence(seed).spawn((n + _BATCH - 1) // _BATCH)
    remaining = n
    for ss in streams:
        nb = min(_BATCH, remaining)
        remaining -= nb
        draws = sample_endpoint(channel, t, nb, np.random.default_rng(ss))
        for i in range(0, nb, _BLOCK):
            acc.update(g(p.at(draws[i:i + _BLOCK], q)))
    return McEstimate(mean=acc.mean, std_error=acc.std_error)
