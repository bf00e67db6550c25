"""Channel models and the density fields they give.

Two channel variants are supported: the multiplicative model
dX = sigma(X) o dB^H with X_0 = x0 (density by push-forward through the
Doss-Sussmann flow) and the additive model X_t = X_0 + B^H_t, the same
equation with sigma = 1 and a random start.  A Gaussian initial law gives the
Gaussian with B^H_t's variance added.  A grid law is read as its
piecewise-linear interpolant, and its convolution with N(0, t^{2H}) is exact:
one Gaussian CDF term per jump of the interpolant's value and one Bachelier
ramp term per jump of its slope, with erfc from Cody's (1969) rational
approximations in numpy.

`density_at` gives a GaussianField, a FlowField (X = Phi(z0 + Z), Z ~ N(0, var),
under a non-constant sigma) or a GridField (a grid law plus N(0, s)), each
holding only what it means; a DensityField is a plain density, for tests and
user code.  Every field has a window [lo, hi], the array callables pdf and
score_fn, and `at`, which reads its law as `Values`: ln p, the score and, for a
divergence, ln(p/q) and q's score, in closed form where the type has one; the
three that density_at builds also `draw` samples in the coordinate `at` reads.
Every flow field of one sigma reads one Lamperti table, which `channels` alone
builds, once, out to sigma's edge or _Z_REACH.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import doss
from .errors import DegenerateTimeError, DomainError, FlowEscapeError, SupportError
from .fbm import HurstParameter, as_hurst
from .sigma import SigmaModel, constant

_TINY = 1e-300
_LOG_P_MASS = math.log(1e-12)   # ln p at and above which p has mass that q must hold
_SQRT_1_PI = 0.56418958354775628695      # 1 / sqrt(pi), as Cody gives it
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_XBIG = 26.543                  # Cody's: erfc and exp(-w^2) are below 1e-306 past it
ABS_TOL = 1e-10         # mass a flow window may drop; infofunc's absolute tolerance
_Z_STD = 8.0            # a flow field's window: this many std of B^H_t about z0
_FLOWS = 8              # Lamperti tables kept, one per sigma
_STARTS = 64            # starts x0 whose z0 on their sigma's table are kept
_Z_REACH = 64.0         # a table runs at most this far each way from its anchor in z:
                        # 64 000 nodes at doss's 2e-3 spacing, 3x sqrt1p's whole table
_FIELD_STD = 10.0       # additive field domain: mean +/- 10 std
_KERNEL_ENTRIES = 1 << 16   # entries of one block's buffers in all: 512 kB, in L2
UNIT_SIGMA = constant(1.0)  # the additive channel's sigma


def _check_normal(what, mean, variance):
    if not (math.isfinite(mean) and 0.0 < variance < math.inf):
        raise DomainError(f"{what} needs a finite mean and 0 < variance < inf, "
                          f"not N({mean}, {variance})")


@dataclass(frozen=True)
class GaussianLaw:
    """X_0 ~ N(mean, variance): a finite mean and 0 < variance < inf."""

    mean: float
    variance: float

    def __post_init__(self):
        _check_normal("Gaussian initial law", self.mean, self.variance)


@dataclass(frozen=True, eq=False)
class GridLaw:
    """X_0 with the piecewise-linear density through (grid, values), 0 off the grid.
    The law keeps read-only float copies of grid and values and, computed once when
    it is built, its decomposition: the slopes of its interpolant on the grid's
    intervals, its kinks (y_k, J_k, S_k) as GridField reads them, and the weights
    of its hat mixture, which GridField.draw samples from.  Two grid laws are equal
    when their grids and values are."""

    grid: np.ndarray            # support points, strictly increasing
    values: np.ndarray          # density values on grid, linear between

    def __post_init__(self):
        g = np.array(self.grid, dtype=float)
        v = np.array(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 8:
            raise DomainError("grid initial law needs matching 1-d arrays (>= 8 points)")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
            raise DomainError("grid and density values must be finite")
        dy = np.diff(g)
        if np.any(dy <= 0):
            raise DomainError("grid must be strictly increasing")
        if np.any(v < 0):
            raise DomainError("grid density must be nonnegative")
        mass = np.trapezoid(v, g)
        if abs(mass - 1.0) > 1e-8:
            raise DomainError(f"grid density integrates to {mass:.10g}, not 1")
        slopes = np.diff(v) / dy
        jump = np.zeros_like(v)
        jump[0], jump[-1] = v[0], -v[-1]
        bend = np.diff(slopes, prepend=0.0, append=0.0)
        kink = (jump != 0.0) | (bend != 0.0)
        kinks = (g[kink], jump[kink], bend[kink])
        hats = v * np.convolve(dy, [1.0, 1.0])
        hats /= hats.sum()
        for a in (g, v, slopes, hats, *kinks):
            a.flags.writeable = False
        # Into the instance's dict, since a frozen dataclass refuses setattr.
        vars(self).update(grid=g, values=v, slopes=slopes, kinks=kinks, hat_weights=hats)

    def __eq__(self, other):
        if not isinstance(other, GridLaw):
            return NotImplemented
        return (np.array_equal(self.grid, other.grid)
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((tuple(self.grid.tolist()), tuple(self.values.tolist())))


def gaussian_law(mean, variance):
    return GaussianLaw(float(mean), float(variance))


def grid_law(grid, values):
    return GridLaw(grid, values)


@dataclass(frozen=True)
class ChannelSpec:
    """A multiplicative channel, started at the point x0 under sigma, or an additive
    one, started from an initial law: it holds exactly one of x0 and initial, and
    `variant` follows from which.  An additive channel's sigma is UNIT_SIGMA, or any
    other constant 1."""

    hurst: HurstParameter
    sigma: Optional[SigmaModel] = None
    x0: Optional[float] = None
    initial: Optional[GaussianLaw | GridLaw] = None

    def __post_init__(self):
        if (self.x0 is None) == (self.initial is None):
            raise DomainError("a channel holds a start x0 or an initial law, exactly one")
        if self.initial is None:
            if self.sigma is None or not math.isfinite(self.x0):
                raise DomainError("multiplicative channel needs sigma and a finite x0, "
                                  f"not x0 = {self.x0}")
        elif self.sigma is not None and (self.sigma.kind, self.sigma.c) != ("constant", 1.0):
            raise DomainError("additive channel has sigma = 1; it takes no other sigma")
        vars(self).update(hurst=as_hurst(self.hurst),
                          sigma=UNIT_SIGMA if self.sigma is None else self.sigma)

    @property
    def variant(self):
        """'additive' when the channel starts from an initial law, else 'multiplicative'."""
        return "multiplicative" if self.initial is None else "additive"


def multiplicative(sigma, x0, hurst):
    return ChannelSpec(hurst, sigma=sigma, x0=float(x0))


def additive(initial, hurst):
    """X_t = X_0 + B^H_t with X_0 ~ initial: dX = sigma(X) o dB^H with sigma = 1."""
    return ChannelSpec(hurst, initial=initial)


class Values:
    """A field p read at points x by p.at(u, q), u the field's own coordinate, with a
    divergence's second field q: p's density, ln p and score there, and ln(p/q) and
    q's score, each computed on first use, here from the fields' pdf and score_fn."""

    def __init__(self, x, p, q=None):
        self.x, self._p, self._q = x, p, q

    @functools.cached_property
    def pdf(self):
        return self._p.pdf(self.x)

    @functools.cached_property
    def logp(self):
        return np.log(np.maximum(self.pdf, _TINY))

    @functools.cached_property
    def score(self):
        return self._p.score_fn(self.x)

    @functools.cached_property
    def log_ratio(self):
        """ln(p/q): against a Gaussian q, the difference of ln p and its closed-form
        ln q; against any other, ln q from q's density clamped at _TINY, so
        SupportError where p has mass and that density is at most _TINY."""
        q = self._q
        if isinstance(q, GaussianField):
            return self.logp - q.at(self.x).logp
        qx = q.pdf(self.x)
        self._check_support(qx <= _TINY)
        return self.logp - np.log(np.maximum(qx, _TINY))

    @functools.cached_property
    def score_q(self):
        """q's score; a grid q's is q'/q from its density clamped at _TINY, so
        SupportError where p has mass and that density is at most _TINY."""
        q = self._q
        if isinstance(q, GridField):
            f, df = q.derivatives(self.x, 1)
            self._check_support(f <= _TINY)
            return _score(f, df)
        self._check_support()
        return q.score_fn(self.x)

    def _check_support(self, empty=False):
        """SupportError at the points x where p has mass (density at least 1e-12) and
        q none: where `empty` holds, or outside a plain q's support [lo, hi]."""
        q = self._q
        if isinstance(q, DensityField):
            empty = empty | (self.x < q.lo) | (self.x > q.hi)
        if np.any(empty) and np.any(empty & (self.logp >= _LOG_P_MASS)):
            raise SupportError("support of p not contained in support of q")

    def sigma(self, model):
        """model's sigma and sigma' at x."""
        return model.fn(self.x), model.d1(self.x)


class _GaussianValues(Values):
    """A Gaussian field's Values at x: ln p and the score's derivative in closed form."""

    @functools.cached_property
    def logp(self):
        m, v = self._p.mean, self._p.variance
        return -0.5 * (self.x - m) ** 2 / v - 0.5 * math.log(2.0 * math.pi * v)

    @functools.cached_property
    def dscore(self):
        return np.full(np.shape(self.x), -1.0 / self._p.variance)[()]


class _FlowValues(Values):
    """A flow field's Values at x = Phi(z0 + z), in closed form from the offsets z:
    ln p = -z^2/(2 var) - ln sqrt(2 pi var) - ln sigma(x) and
    score = -z/(var sigma(x)) - sigma'(x)/sigma(x).  A q of the same table and var
    sits at the offset z + dz, dz = z0(p) - z0(q), so ln(p/q) = dz (z + dz/2) / var,
    where sigma cancels and nothing underflows; any other q is read as Values reads
    it, at x."""

    def __init__(self, z, p, q=None):
        super().__init__(p.x(z), p, q)
        self.z = z
        shared = isinstance(q, FlowField) and q.table is p.table and q.var == p.var
        self._dz = p.z0 - q.z0 if shared else None

    @functools.cached_property
    def _sigma(self):
        sig = self._p.table.sigma
        return sig.fn(self.x), sig.d1(self.x)

    def sigma(self, model):
        """model's sigma and sigma' at x: for the field's own sigma, those its score took."""
        return self._sigma if model == self._p.table.sigma else super().sigma(model)

    def _score_at(self, z):
        s, d1 = self._sigma
        return -z / (self._p.var * s) - d1 / s

    @functools.cached_property
    def logp(self):
        var = self._p.var
        return (-0.5 * self.z ** 2 / var - 0.5 * math.log(2.0 * math.pi * var)
                - np.log(self._sigma[0]))

    @functools.cached_property
    def score(self):
        return self._score_at(self.z)

    @functools.cached_property
    def log_ratio(self):
        if self._dz is None:
            return super().log_ratio
        return self._dz * (self.z + 0.5 * self._dz) / self._p.var

    @functools.cached_property
    def score_q(self):
        if self._dz is None:
            return super().score_q
        return self._score_at(self.z + self._dz)


class _GridValues(Values):
    """A grid field's Values at x: its density, score and the score's derivative
    from one pass of its kernel, which gives p, p' and p" at once."""

    @functools.cached_property
    def _derivatives(self):
        return self._p.derivatives(self.x, 2)

    @functools.cached_property
    def pdf(self):
        return self._derivatives[0]

    @functools.cached_property
    def score(self):
        return _score(*self._derivatives[:2])

    @functools.cached_property
    def dscore(self):
        return _dscore(*self._derivatives)


@dataclass(frozen=True)
class DensityField:
    """A plain one-dimensional density with support [lo, hi]: its pdf and score,
    which infofunc integrates by its adaptive Gauss-Kronrod rule over [lo, hi]."""

    lo: float
    hi: float
    pdf: Callable = field(repr=False)
    score_fn: Callable = field(repr=False)

    def at(self, x, q=None):
        return Values(x, self, q)


@dataclass(frozen=True)
class GaussianField:
    """N(mean, variance) on the window mean +- _FIELD_STD std, with the x rule's step std/4."""

    mean: float
    variance: float

    def __post_init__(self):
        _check_normal("Gaussian field", self.mean, self.variance)
        sd = math.sqrt(self.variance)
        vars(self).update(lo=self.mean - _FIELD_STD * sd, hi=self.mean + _FIELD_STD * sd,
                          step=sd / 4)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return (np.exp(-0.5 * (x - self.mean) ** 2 / self.variance)
                / math.sqrt(2 * math.pi * self.variance))

    def score_fn(self, x):
        return (self.mean - np.asarray(x, dtype=float)) / self.variance

    def at(self, x, q=None):
        return _GaussianValues(x, self, q)

    def draw(self, normals, rng):
        """Samples x = mean + sd N, N a block of standard normals."""
        x = normals * math.sqrt(self.variance)
        x += self.mean
        return x


def gaussian_field(mean, variance):
    return GaussianField(float(mean), float(variance))


@functools.lru_cache(maxsize=_FLOWS)
def _lamperti(sigma):
    """The Lamperti table z(x) = int_a^x dy / sigma(y), a the midpoint of sigma's
    working domain, out to sigma's edge or _Z_REACH from a in z: two starts under one
    sigma differ by a shift in z, so it serves every start, H and t."""
    return doss.solve_phi(sigma, sum(sigma.domain) / 2, (-_Z_REACH, _Z_REACH))


@functools.lru_cache(maxsize=_STARTS)
def _z0(sigma, x0):
    """z0 = Phi^-1(x0) on sigma's Lamperti table, read once for every field from x0."""
    return float(doss.invert_phi(_lamperti(sigma), x0))


def _multiplicative_field(channel, t):
    """X_t = Phi(z0 + Z), Z ~ N(0, var), Phi the flow of sigma's table, z0 = Phi^-1(x0),
    on the window z0 +- z_edge: _Z_STD std, or less where the table ends nearer, at
    sigma's edge or _Z_REACH.  FlowEscapeError if z0 lies past the table's reach, or
    the N(0, var) mass beyond z_edge is above ABS_TOL.  Under a constant sigma = c,
    X_t ~ N(x0, c^2 var), and FlowEscapeError if x0 lies outside sigma's working
    domain or that law's mass past it is above ABS_TOL."""
    sig = channel.sigma
    var = float(t) ** (2.0 * channel.hurst.value)
    if sig.kind == "constant":
        (lo, hi), x0 = sig.domain, channel.x0
        if not lo <= x0 <= hi:
            raise FlowEscapeError(
                f"x0 = {x0:g} lies outside sigma's working domain [{lo:g}, {hi:g}]")
        law = gaussian_field(x0, sig.c ** 2 * var)
        w = math.sqrt(2.0 * law.variance)
        dropped = 0.5 * (math.erfc((x0 - lo) / w) + math.erfc((hi - x0) / w))
        if dropped > ABS_TOL:
            raise FlowEscapeError(
                f"sigma's working domain [{lo:g}, {hi:g}] cuts {dropped:.3g} of the mass "
                f"of X_t from x0 = {x0:g}, above {ABS_TOL:g}")
        return law
    sd = math.sqrt(var)
    table = _lamperti(sig)
    z0 = _z0(sig, channel.x0)
    z_lo, z_hi = table.z_domain
    if not z_lo <= z0 <= z_hi:      # x0 on the last knot's overshoot of _Z_REACH
        raise FlowEscapeError(
            f"x0 = {channel.x0:g} lies more than {_Z_REACH:g} in z from its Lamperti "
            f"table's anchor (x = {table.x0:g}), past the table's end")
    z_edge = min(_Z_STD * sd, z0 - z_lo, z_hi - z0)
    while not z_lo <= z0 - z_edge <= z0 + z_edge <= z_hi:   # rounded past the table's end
        z_edge = math.nextafter(z_edge, 0.0)
    dropped = math.erfc(z_edge / math.sqrt(2.0 * var))
    if dropped > ABS_TOL:
        raise FlowEscapeError(
            f"sigma's table ends {z_edge / sd:.4g} std from x0 = {channel.x0:g} in z, at "
            f"sigma's edge or {_Z_REACH:g} from its midpoint: the window drops {dropped:.3g} "
            f"of the mass of X_t, above {ABS_TOL:g}")
    return FlowField(table, z0, var, z_edge)


@dataclass(frozen=True, eq=False)
class FlowField:
    """X = Phi(z0 + Z), Z ~ N(0, var) cut at +-z_edge, Phi the flow of sigma's Lamperti
    table, on the window [lo, hi] = Phi(z0 -+ z_edge).  Its Values are read at offsets
    z, in closed form.  Two flow fields are equal when they are one object."""

    table: doss.PhiSolution
    z0: float
    var: float
    z_edge: float

    def __post_init__(self):
        lo, hi = self.x(np.array([-self.z_edge, self.z_edge])).tolist()
        vars(self).update(lo=lo, hi=hi)

    def x(self, z):
        return self.table(self.z0 + z)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = doss.invert_phi(self.table, x) - self.z0
        return (np.exp(-0.5 * z ** 2 / self.var) / math.sqrt(2.0 * math.pi * self.var)
                / self.table.sigma.fn(x))

    def score_fn(self, x):
        z = doss.invert_phi(self.table, x) - self.z0
        x, sig = np.asarray(x, dtype=float), self.table.sigma
        s = sig.fn(x)
        return -z / (self.var * s) - sig.d1(x) / s

    def at(self, z, q=None):
        return _FlowValues(z, self, q)

    def draw(self, normals, rng):
        """Offsets z = sd N, N a block of standard normals, cut at +-z_edge."""
        z = normals * math.sqrt(self.var)
        return np.clip(z, -self.z_edge, self.z_edge, out=z)


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


@dataclass(frozen=True)
class GridField:
    """Law of X_0 + N(0, s) for a grid law, read as its piecewise-linear interpolant
    p0 = sum_k J_k 1{x >= y_k} + S_k (x - y_k)_+ over the kinks y_k, with value jumps
    J_k and slope jumps S_k, on the grid +- _FIELD_STD sd, sd = sqrt(s), with the x
    rule's step sd/4.  With u_k = x - y_k and a_k = u_k / sd, a kink adds J_k Phi(a_k)
    and Bachelier's ramp S_k (u_k Phi(a_k) + sd phi(a_k)).  A kink at or left of x
    (u_k >= 0) enters through Q = 1 - Phi around p0(x), so that every term is a tail
    and none cancels:
        p  = p0(x) + sum_k S_k sd psi(|a_k|) - sgn(u_k) J_k Q(|a_k|)
        p' = p0'(x) + sum_k J_k phi(a_k) / sd - sgn(u_k) S_k Q(|a_k|)
        p" = sum_k (S_k - J_k a_k / sd) phi(a_k) / sd
    with psi(a) = phi(a) - a Q(a), sgn(0) = +1, and p0, p0' right-continuous, so a
    point on a kink takes the same side in both."""

    law: GridLaw
    s: float

    def __post_init__(self):
        sd, y = math.sqrt(self.s), self.law.grid
        vars(self).update(sd=sd, step=sd / 4, lo=float(y[0] - _FIELD_STD * sd),
                          hi=float(y[-1] + _FIELD_STD * sd),
                          _rows=max(1, _KERNEL_ENTRIES // (8 * self.law.kinks[0].size)))

    def derivatives(self, x, order):
        """p and its first `order` x-derivatives, numpy scalars for a scalar x; a
        block of _rows points at a time, about 8 rows x kinks buffers live."""
        y, v, slope = self.law.grid, self.law.values, self.law.slopes
        yk, jk, sk = self.law.kinks
        s, sd, rows = self.s, self.sd, self._rows
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

    def pdf(self, x):
        return self.derivatives(x, 0)[0]

    def score_fn(self, x):
        return _score(*self.derivatives(x, 1))

    def at(self, x, q=None):
        return _GridValues(x, self, q)

    def draw(self, normals, rng):
        """Samples x = X_0 + sd N, N a block of standard normals and X_0, from rng, the
        law's interpolant, a mixture of hat functions: a grid point each by its
        hat weight, then triangular noise over its two neighbouring intervals."""
        x, y = normals * self.sd, self.law.grid
        k = np.repeat(np.arange(y.size), rng.multinomial(normals.size, self.law.hat_weights))
        x += rng.triangular(y[np.maximum(k - 1, 0)], y[k], y[np.minimum(k + 1, y.size - 1)])
        return x


def _score(f, df):
    """The score p'/p from p and p', p clamped at _TINY."""
    return df / np.maximum(f, _TINY)


def _dscore(f, df, d2f):
    """The score's x-derivative p"/p - (p'/p)^2 from p, p' and p", p clamped at _TINY."""
    f = np.maximum(f, _TINY)
    return d2f / f - (df / f) ** 2


def density_at(channel, t):
    """Law of X_t as a GaussianField, FlowField or GridField. Requires 0 < t < inf."""
    if not math.isfinite(t):
        raise DomainError(f"density_at requires a finite t, not {t}")
    if t <= 0:
        raise DegenerateTimeError("density_at requires t > 0")
    if channel.variant == "multiplicative":
        return _multiplicative_field(channel, t)
    s = float(t) ** (2.0 * channel.hurst.value)
    law = channel.initial
    if isinstance(law, GaussianLaw):
        return gaussian_field(law.mean, law.variance + s)
    return GridField(law, s)
