"""Channel models and the density interface they share.

Two channel variants are supported: the multiplicative model
dX = sigma(X) o dB^H with X_0 = x0 (density by push-forward through the
Doss-Sussmann flow) and the additive model X_t = X_0 + B^H_t, the same
equation with sigma = 1 and a random start.  A Gaussian initial law gives the
Gaussian with B^H_t's variance added.  A grid law is read as its
piecewise-linear interpolant, and its convolution with N(0, t^{2H}) is exact:
one Gaussian CDF term per jump of the interpolant's value and one Bachelier
ramp term per jump of its slope, with erfc from Cody's (1969) rational
approximations in numpy.

A DensityField bundles the density, its log-gradient (score) and domain
metadata; pdf and score_fn take an array of points and return an array of
the same shape.  Additive fields also carry the x-derivative of the score.
Every field carries a tag for the trapezoid rule of `infofunc`: flow fields
X = flow_map(Z), Z ~ N(0, var), a (flow_map, var, z_edge) tag for the rule in z,
additive fields a step, the base step of the rule in x (a quarter of the std of
the Gaussian or of B^H_t).  Every flow field of one sigma reads one Lamperti
table, which `channels` alone builds and grows.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from . import doss
from .errors import DegenerateTimeError, DomainError, FlowEscapeError, RangeError
from .fbm import HurstParameter, as_hurst
from .sigma import SigmaModel, constant

_TINY = 1e-300
_SQRT_1_PI = 0.56418958354775628695      # 1 / sqrt(pi), as Cody gives it
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_XBIG = 26.543                  # Cody's: erfc and exp(-w^2) are below 1e-306 past it
ABS_TOL = 1e-10         # mass a flow window may drop; infofunc's absolute tolerance
_Z_STD = 8.0            # a flow field's window: this many std of B^H_t about z0
_FLOWS = 8              # Lamperti tables kept, one per sigma
_Z_REACH = 64.0         # a table runs at most this far each way from its anchor in z:
                        # 64 000 nodes at doss's 2e-3 spacing, 3x sqrt1p's whole table
_FIELD_STD = 10.0       # additive field domain: mean +/- 10 std
_KERNEL_ENTRIES = 1 << 16   # entries of one block's buffers in all: 512 kB, in L2
UNIT_SIGMA = constant(1.0)  # the additive channel's sigma


@dataclass(frozen=True)
class InitialLaw:
    """Initial distribution of X_0 for the additive channel."""

    kind: str                                   # 'gaussian' | 'grid'
    mean: float = 0.0
    variance: float = 1.0
    grid: Optional[np.ndarray] = None           # support points, strictly increasing
    values: Optional[np.ndarray] = None         # density values on grid, linear between

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
    `infofunc`; a field with neither goes to its adaptive Gauss-Kronrod rule in x
    over [lo, hi]."""

    lo: float
    hi: float
    pdf: Callable = field(repr=False)
    score_fn: Callable = field(repr=False)
    step: Optional[float] = None                      # base step of the x rule
    dscore_fn: Optional[Callable] = field(default=None, repr=False)  # d/dx score
    flow: Optional[Tuple[Callable, float, float]] = field(
        default=None, repr=False, compare=False)   # (flow_map, var, z_edge), X = flow_map(Z)


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


@functools.lru_cache(maxsize=_FLOWS)     # _Lamperti(sigma): one table per sigma
class _Lamperti:
    """The Lamperti table z(x) = int_a^x dy / sigma(y), a the midpoint of sigma's
    working domain: two starts under one sigma differ by a shift in z, so it serves
    every start, H and t.  It is made longer whenever a field reaches past its end,
    up to _Z_REACH from a; a longer table repeats a shorter one node for node, so
    no value changes, and a field made earlier reads the longer one too."""

    def __init__(self, sigma):
        self.sigma, self.phi, self.asked = sigma, None, (0.0, 0.0)

    def cover(self, z_lo, z_hi):
        """The table, built out to [z_lo, z_hi] in z, or to sigma's edge or _Z_REACH
        from the anchor where either comes first."""
        a, b = self.asked
        z_lo, z_hi = max(z_lo, -_Z_REACH), min(z_hi, _Z_REACH)
        if z_lo < a or z_hi > b:
            self.asked = min(a, z_lo), max(b, z_hi)
            self.phi = doss.solve_phi(self.sigma, sum(self.sigma.domain) / 2, self.asked)
        return self.phi

    def z_of(self, x):
        """z at the points x of sigma's domain.  Where x lies past the table's end,
        the table's z range doubles toward that end until it gets there, or raises
        FlowEscapeError once it has reached _Z_REACH."""
        while True:
            try:
                return doss.invert_phi(self.phi, x)
            except RangeError:
                (lo, hi), (a, b) = self.sigma.domain, self.asked
                if np.min(x) < lo or np.max(x) > hi:
                    raise FlowEscapeError(f"x outside sigma's working domain [{lo:g}, {hi:g}]")
                x_lo, x_hi = self.phi.x_range
                below, above = np.min(x) < x_lo, np.max(x) > x_hi
                if (below and a == -_Z_REACH) or (above and b == _Z_REACH):
                    raise FlowEscapeError(
                        f"x = {np.min(x) if below else np.max(x):g} lies more than "
                        f"{_Z_REACH:g} in z from the midpoint of sigma's domain, "
                        "past the end of its Lamperti table")
                self.cover(min(2.0 * a, -1.0) if below else a, max(2.0 * b, 1.0) if above else b)


def _multiplicative_field(channel, t):
    """X_t = Phi(z0 + Z), Z ~ N(0, var), Phi the flow of sigma's table, z0 = Phi^-1(x0),
    on the window z0 +- z_edge: _Z_STD std, or less where the table's end, sigma's
    edge or _Z_REACH, is nearer.  FlowEscapeError if the N(0, var) mass beyond
    z_edge is above ABS_TOL."""
    sig = channel.sigma
    var = float(t) ** (2.0 * channel.hurst.value)
    if sig.kind == "constant":
        return gaussian_field(channel.x0, sig.c ** 2 * var)
    sd = math.sqrt(var)
    table = _Lamperti(sig)
    table.cover(-_Z_STD * sd, _Z_STD * sd)      # a table to start from, about its anchor
    z0 = float(table.z_of(channel.x0))
    z_lo, z_hi = table.cover(z0 - _Z_STD * sd, z0 + _Z_STD * sd).z_domain
    z_edge = min(_Z_STD * sd, z0 - z_lo, z_hi - z0)
    dropped = math.erfc(z_edge / math.sqrt(2.0 * var))
    if dropped > ABS_TOL:
        raise FlowEscapeError(
            f"sigma's table ends {z_edge / sd:.4g} std from x0 = {channel.x0:g} in z, at "
            f"sigma's edge or {_Z_REACH:g} from its midpoint: the window drops {dropped:.3g} "
            f"of the mass of X_t, above {ABS_TOL:g}")

    def flow_map(z):
        return table.phi(z0 + z)
    lo, hi = flow_map(np.array([-z_edge, z_edge])).tolist()

    def pdf(x):
        x = np.asarray(x, dtype=float)
        z = table.z_of(x) - z0
        return np.exp(-0.5 * z ** 2 / var) / math.sqrt(2.0 * math.pi * var) / sig.fn(x)

    def score(x):
        z = table.z_of(x) - z0
        x = np.asarray(x, dtype=float)
        s = sig.fn(x)
        return -z / (var * s) - sig.d1(x) / s

    return DensityField(lo=lo, hi=hi, pdf=pdf, score_fn=score, flow=(flow_map, var, z_edge))


# Cody (1969), Rational Chebyshev approximations for the error function, Math.
# Comp. 23: the coefficients of his CALERF, for erf on [0, 0.46875] and erfc on
# (0.46875, 4] and beyond 4; each list ends with the coefficient the loop adds last.
_ERF_NUM = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
            3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_DEN = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
            2.84423683343917062e03)
_ERFC_NUM = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
             2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
             2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_DEN = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
             1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
             3.43936767414372164e03, 1.23033935480374942e03)
_TAIL_NUM = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
             1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_TAIL_DEN = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
             6.05183413124413191e-2, 2.33520497626869185e-3)


def _rational(x, num, den):
    """Cody's ratio of polynomials in x: num[-1] leads, den is monic."""
    top, bottom = num[-1] * x, x.copy()
    for a, b in zip(num[:-2], den[:-1]):
        top += a
        top *= x
        bottom += b
        bottom *= x
    top += num[-2]
    bottom += den[-1]
    top /= bottom
    return top


def _exp_minus_square(w):
    """exp(-w^2), and 0 from _XBIG on, where it is below 1e-306: numpy's exp is
    slow on subnormal results."""
    c = np.minimum(w, _XBIG)
    np.square(c, out=c)
    np.negative(c, out=c)
    np.exp(c, out=c)
    c[w >= _XBIG] = 0.0
    return c


def _erfc(w, e):
    """erfc(w) and its integral ierfc(w) = int_w^inf erfc = exp(-w^2)/sqrt(pi) - w erfc(w),
    for an array w >= 0 and e = _exp_minus_square(w), by Cody's approximations: erfc
    within (w^2 + 4) ulp where it is above 1e-300, the w^2 from the rounding of w^2 in
    e, and ierfc from the same tail form, so that it does not cancel; both are 0 from
    _XBIG on."""
    erfc, ierfc = np.empty_like(w), np.empty_like(w)
    near = w <= 0.46875
    y = w[near]
    erfc[near] = c = 1.0 - y * _rational(y * y, _ERF_NUM, _ERF_DEN)
    ierfc[near] = e[near] * _SQRT_1_PI - y * c
    mid = ~near
    mid &= w <= 4.0
    y = w[mid]
    c = _rational(y, _ERFC_NUM, _ERFC_DEN)         # erfc = e c
    ey = e[mid]
    erfc[mid] = ey * c
    c *= y
    np.subtract(_SQRT_1_PI, c, out=c)
    ierfc[mid] = ey * c
    far = w > 4.0
    y = w[far]
    r = 1.0 / (y * y)
    r *= _rational(r, _TAIL_NUM, _TAIL_DEN)        # erfc = e (1/sqrt(pi) - r) / y
    ey = e[far]
    ierfc[far] = ey * r
    np.subtract(_SQRT_1_PI, r, out=r)
    r /= y
    erfc[far] = ey * r
    return erfc, ierfc


def _grid_field(law, s):
    """Law of X_0 + N(0, s) for a grid law, read as its piecewise-linear interpolant
    p0 = sum_k J_k 1{x >= y_k} + S_k (x - y_k)_+ over the kinks y_k, with value jumps
    J_k and slope jumps S_k.  With u_k = x - y_k, sd = sqrt(s) and a_k = u_k / sd, a
    kink adds J_k Phi(a_k) and Bachelier's ramp S_k (u_k Phi(a_k) + sd phi(a_k)).  A
    kink at or left of x (u_k >= 0) enters through Q = 1 - Phi around p0(x), so that
    every term is a tail and none cancels:
        p  = p0(x) + sum_k S_k sd psi(|a_k|) - sgn(u_k) J_k Q(|a_k|)
        p' = p0'(x) + sum_k J_k phi(a_k) / sd - sgn(u_k) S_k Q(|a_k|)
        p" = sum_k (S_k - J_k a_k / sd) phi(a_k) / sd
    with psi(a) = phi(a) - a Q(a), sgn(0) = +1, and p0, p0' right-continuous, so a
    point on a kink takes the same side in both."""
    y, v = law.grid, law.values
    slope = np.diff(v) / np.diff(y)
    jump = np.zeros_like(v)
    jump[0], jump[-1] = v[0], -v[-1]
    bend = np.diff(slope, prepend=0.0, append=0.0)
    kink = (jump != 0.0) | (bend != 0.0)
    yk, jk, sk = y[kink], jump[kink], bend[kink]
    sd = math.sqrt(s)
    rows = max(1, _KERNEL_ENTRIES // (8 * yk.size))     # about 8 rows x kinks buffers live

    def _derivatives(x, order):
        """p and its first `order` x-derivatives, numpy scalars for a scalar x."""
        xa = np.asarray(x, dtype=float).ravel()
        sums = np.empty((order + 1, xa.size))
        for i in range(0, xa.size, rows):
            xb = xa[i:i + rows]
            j = np.searchsorted(y, xb, side="right") - 1
            inside = (j >= 0) & (j < slope.size)        # p0 is 0 off [y_0, y_last)
            j[~inside] = 0
            m0 = np.where(inside, slope[j], 0.0)
            u = np.subtract.outer(xb, yk)
            w = np.abs(u)
            w *= 1.0 / (sd * math.sqrt(2.0))            # |a| / sqrt 2
            e = _exp_minus_square(w)                    # sqrt(2 pi) phi(a)
            q, ramp = _erfc(w, e)                       # 2 Q(|a|), sqrt(2) psi(|a|)
            np.copysign(q, u, out=q)
            sums[0, i:i + rows] = (np.where(inside, v[j] + m0 * (xb - y[j]), 0.0)
                                   + (sd / math.sqrt(2.0)) * (ramp @ sk) - 0.5 * (q @ jk))
            if order > 0:
                sums[1, i:i + rows] = m0 + (e @ jk) / (_SQRT_2PI * sd) - 0.5 * (q @ sk)
            if order > 1:
                u *= e
                sums[2, i:i + rows] = ((e @ sk) - (u @ jk) / s) / (_SQRT_2PI * sd)
        return [o.reshape(np.shape(x))[()] for o in sums]

    def pdf(x):
        return _derivatives(x, 0)[0]

    def score(x):
        f, df = _derivatives(x, 1)
        return df / np.maximum(f, _TINY)

    def dscore(x):
        f, df, d2f = _derivatives(x, 2)
        f = np.maximum(f, _TINY)
        return d2f / f - (df / f) ** 2

    return DensityField(lo=float(y[0] - _FIELD_STD * sd), hi=float(y[-1] + _FIELD_STD * sd),
                        pdf=pdf, score_fn=score, step=sd / 4, dscore_fn=dscore)


def density_at(channel, t):
    """Law of X_t as a DensityField. Requires t > 0."""
    if t <= 0:
        raise DegenerateTimeError("density_at requires t > 0")
    if channel.variant == "multiplicative":
        return _multiplicative_field(channel, t)
    s = float(t) ** (2.0 * channel.hurst.value)
    law = channel.initial
    if law.kind == "gaussian":
        return gaussian_field(law.mean, law.variance + s)
    return _grid_field(law, s)
