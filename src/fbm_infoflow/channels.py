"""Channel models and the density interface they share.

Two channel variants are supported: the multiplicative model
dX = sigma(X) o dB^H with X_0 = x0 (density by push-forward through the
Doss-Sussmann flow) and the additive model X_t = X_0 + B^H_t, the same
equation with sigma = 1 and a random start.  Every additive initial law is a
Gaussian mixture whose components share one variance: a Gaussian law is one
component, a grid law its trapezoid rule, one point mass per grid point.  X_t
is then the mixture with B^H_t's variance added to the shared one.

A DensityField bundles the density, its log-gradient (score) and domain
metadata; pdf and score_fn take an array of points and return an array of
the same shape.  Additive fields also carry the x-derivative of the score.
Every field carries a tag for the trapezoid rule of `infofunc`: flow fields
X = phi(Z), Z ~ N(0, var), a (phi, var, z_edge) tag for the rule in z, Gaussian
and mixture fields a step, the base step of the rule in x (a quarter of the
components' shared std).
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from . import doss
from .errors import DegenerateTimeError, DomainError, ResolutionError
from .fbm import HurstParameter, as_hurst
from .sigma import SigmaModel, constant

_TINY = 1e-300
_Z_STD = 8.0            # flow tabulated out to this many std of B^H_t
_FLOWS = 8              # flow tabulations kept, shared by every channel
_FIELD_STD = 10.0       # additive field domain: mean +/- 10 std
_KERNEL_ENTRIES = 1 << 16   # mixture kernel entries per block: 512 kB a buffer, two fit in L2
UNIT_SIGMA = constant(1.0)  # the additive channel's sigma


@dataclass(frozen=True)
class InitialLaw:
    """Initial distribution of X_0 for the additive channel."""

    kind: str                                   # 'gaussian' | 'grid'
    mean: float = 0.0
    variance: float = 1.0
    grid: Optional[np.ndarray] = None           # support points, strictly increasing
    values: Optional[np.ndarray] = None         # density values on grid

    def __post_init__(self):
        if self.kind == "gaussian":
            if self.variance <= 0:
                raise DomainError("Gaussian initial law needs variance > 0")
        elif self.kind == "grid":
            g = np.asarray(self.grid, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if g.ndim != 1 or g.shape != v.shape or g.size < 8:
                raise DomainError("grid initial law needs matching 1-d arrays (>= 8 points)")
            if np.any(np.diff(g) <= 0):
                raise DomainError("grid must be strictly increasing")
            if np.any(v < 0):
                raise DomainError("grid density must be nonnegative")
            mass = np.trapezoid(v, g)
            if abs(mass - 1.0) > 1e-8:
                raise DomainError(f"grid density integrates to {mass:.10g}, not 1")
            object.__setattr__(self, "grid", g)
            object.__setattr__(self, "values", v)
        else:
            raise DomainError(f"unknown initial law kind {self.kind!r}")


def gaussian_law(mean, variance):
    return InitialLaw(kind="gaussian", mean=float(mean), variance=float(variance))


def grid_law(grid, values):
    return InitialLaw(kind="grid", grid=np.asarray(grid, float),
                      values=np.asarray(values, float))


@dataclass
class ChannelSpec:
    """Either a multiplicative channel (sigma, x0) or an additive one (initial law).
    An additive channel's sigma is UNIT_SIGMA, or any other constant 1."""

    variant: str                       # 'multiplicative' | 'additive'
    hurst: HurstParameter
    sigma: Optional[SigmaModel] = None
    x0: Optional[float] = None
    initial: Optional[InitialLaw] = None

    def __post_init__(self):
        self.hurst = as_hurst(self.hurst)
        if self.variant == "multiplicative":
            if self.sigma is None or self.x0 is None:
                raise DomainError("multiplicative channel needs sigma and x0")
        elif self.variant == "additive":
            if self.initial is None:
                raise DomainError("additive channel needs an initial law")
            if self.sigma is None:
                self.sigma = UNIT_SIGMA
            elif (self.sigma.kind, self.sigma.c) != ("constant", 1.0):
                raise DomainError("additive channel has sigma = 1; it takes no other sigma")
        else:
            raise DomainError(f"unknown channel variant {self.variant!r}")


def multiplicative(sigma, x0, hurst):
    return ChannelSpec(variant="multiplicative", hurst=as_hurst(hurst),
                       sigma=sigma, x0=float(x0))


def additive(initial, hurst):
    """X_t = X_0 + B^H_t with X_0 ~ initial: dX = sigma(X) o dB^H with sigma = 1."""
    return ChannelSpec(variant="additive", hurst=as_hurst(hurst), initial=initial)


@dataclass(frozen=True)
class DensityField:
    """A one-dimensional density on [lo, hi]: pdf, score and, for additive fields,
    the score's x-derivative.  `step` or `flow` picks the trapezoid rule of
    `infofunc`; a field with neither goes to QUADPACK over [lo, hi]."""

    lo: float
    hi: float
    pdf: Callable = field(repr=False)
    score_fn: Callable = field(repr=False)
    step: Optional[float] = None                      # base step of the x rule
    dscore_fn: Optional[Callable] = field(default=None, repr=False)  # d/dx score
    flow: Optional[Tuple[doss.PhiSolution, float, float]] = field(
        default=None, repr=False, compare=False)   # (phi, var, z_edge): X = phi(Z), Z ~ N(0, var)


def gaussian_field(mean, variance):
    mean, variance = float(mean), float(variance)
    if variance <= 0:
        raise DomainError("Gaussian field needs variance > 0")
    sd = math.sqrt(variance)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * (x - mean) ** 2 / variance) / math.sqrt(2 * math.pi * variance)

    def score(x):
        return -(np.asarray(x, dtype=float) - mean) / variance

    def dscore(x):
        return np.full(np.shape(x), -1.0 / variance)[()]

    return DensityField(
        lo=mean - _FIELD_STD * sd, hi=mean + _FIELD_STD * sd,
        pdf=pdf, score_fn=score,
        step=sd / 4, dscore_fn=dscore,
    )


def _phi_for(channel, t):
    """Cached Doss-Sussmann flow wide enough for 8 std of B^H_t."""
    z_need = _Z_STD * float(t) ** channel.hurst.value
    bucket = 2.0 ** math.ceil(math.log2(max(1.02 * z_need, 1.0)))
    return _flow(channel.sigma, channel.x0, bucket)


@functools.lru_cache(maxsize=_FLOWS)
def _flow(sigma, x0, bucket):
    """The flow on [-bucket, bucket]; it does not depend on H, so channels that
    differ only in H share it."""
    return doss.solve_phi(sigma, x0, (-bucket, bucket))


def _multiplicative_field(channel, t):
    sig = channel.sigma
    h = channel.hurst.value
    var = float(t) ** (2.0 * h)
    if sig.kind == "constant":
        return gaussian_field(channel.x0, sig.c ** 2 * var)
    phi = _phi_for(channel, t)
    sd = math.sqrt(var)
    z_edge = min(_Z_STD * sd, -phi.z_domain[0], phi.z_domain[1])
    lo, hi = phi(np.array([-z_edge, z_edge])).tolist()

    def pdf(x):
        return doss.pushforward_density(phi, t, channel.hurst, x)

    def score(x):
        z = doss.invert_phi(phi, x)
        x = np.asarray(x, dtype=float)
        s = sig.fn(x)
        return -z / (var * s) - sig.d1(x) / s

    return DensityField(lo=lo, hi=hi, pdf=pdf, score_fn=score, flow=(phi, var, z_edge))


def _components(law):
    """The initial law as a Gaussian mixture (means, shared variance, weights summing to 1);
    a grid law is a point mass at each grid point, weighted by trapezoid weight times density."""
    if law.kind == "gaussian":
        return np.array([law.mean]), law.variance, np.ones(1)
    dy = np.diff(law.grid)
    w = law.values * (np.append(dy, 0.0) + np.insert(dy, 0, 0.0)) / 2.0
    return law.grid, 0.0, w / w.sum()


def _mixture_field(law, s):
    """Law of X_0 + N(0, s) for an initial law given as a Gaussian mixture."""
    means, variance, weights = _components(law)
    var = variance + s
    if means.size == 1:
        return gaussian_field(means[0], var)
    sd = math.sqrt(var)
    dy = np.max(np.diff(means))
    if sd < 2.0 * dy:
        raise ResolutionError(
            f"Gaussian kernel std {sd:g} below 2 grid steps ({dy:g}); refine the grid")
    wn = weights / math.sqrt(2 * math.pi * var)
    rows = max(1, _KERNEL_ENTRIES // means.size)

    def _derivatives(x, order):
        """The density and its first `order` x-derivatives, numpy scalars for a scalar x.
        Row j of `sums` is sum_k wn_k e_k u_k^j, u = x - means and e = exp(-u^2 / 2 var)."""
        xa = np.asarray(x, dtype=float).ravel()
        sums = np.empty((order + 1, xa.size))
        u = np.empty((min(rows, xa.size), means.size))
        e = np.empty_like(u) if order else u
        for i in range(0, xa.size, rows):
            r = min(rows, xa.size - i)
            ub, eb = u[:r], e[:r]
            ub[...] = xa[i:i + r, None]
            ub -= means
            np.square(ub, out=eb)
            eb *= -0.5 / var
            np.exp(eb, out=eb)
            np.matmul(eb, wn, out=sums[0, i:i + r])
            for j in range(1, order + 1):
                eb *= ub
                np.matmul(eb, wn, out=sums[j, i:i + r])
        out = [sums[0]]
        if order > 0:
            out.append(-sums[1] / var)
        if order > 1:
            out.append((sums[2] / var - sums[0]) / var)
        return [o.reshape(np.shape(x))[()] for o in out]

    def pdf(x):
        return _derivatives(x, 0)[0]

    def score(x):
        f, df = _derivatives(x, 1)
        return df / np.maximum(f, _TINY)

    def dscore(x):
        f, df, d2f = _derivatives(x, 2)
        f = np.maximum(f, _TINY)
        return d2f / f - (df / f) ** 2

    return DensityField(lo=float(means[0] - _FIELD_STD * sd),
                        hi=float(means[-1] + _FIELD_STD * sd), pdf=pdf, score_fn=score,
                        step=sd / 4, dscore_fn=dscore)


def density_at(channel, t):
    """Law of X_t as a DensityField. Requires t > 0."""
    if t <= 0:
        raise DegenerateTimeError("density_at requires t > 0")
    if channel.variant == "multiplicative":
        return _multiplicative_field(channel, t)
    return _mixture_field(channel.initial, float(t) ** (2.0 * channel.hurst.value))
