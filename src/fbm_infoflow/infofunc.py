"""Information functionals over density fields.

Entropy, generalized Fisher information, KL divergence, relative Fisher
information and entropy power.  Each functional is one expectation E_p[g(v)],
v the fields' `channels.Values` at X (x, ln p, the score and, for a divergence,
ln(p/q) and q's score), evaluated by `expect_values` by a rule its fields' types
pick.  Flow fields take the trapezoid rule `_trapezoid`, whose step halves until
two sums agree to the tolerances, in z, where their Values are closed forms;
Gaussian and grid fields take it in x over p's own window.  It converges
geometrically on these integrands.  Any other pair goes to `expect_gauss_kronrod`,
an adaptive Gauss-Kronrod rule in x over p's own window and the reference the
trapezoid rule is tested against.  A weight b is an array callable, None meaning 1.
"""

import math
import types

import numpy as np

from . import channels as ch
from .channels import _TINY, ABS_TOL   # the density floor; both rules' absolute tolerance
from .errors import QuadratureError

REL_TOL = 1e-8          # relative tolerance of both rules
_LIMIT = 200            # subintervals at which the Gauss-Kronrod rule gives up
_MAX_POINTS = 1 << 14   # trapezoid nodes at which the rule gives up


def expect_values(p, g, q=None):
    """E_p[g(v)], v the fields' channels.Values at X ~ p; q, when given, is the
    second field of a divergence and must contain p's support.  Every rule
    integrates over p's own window and reads q there."""
    fields = (p,) if q is None else (p, q)
    if all(isinstance(f, ch.FlowField) for f in fields):
        norm = 1.0 / math.sqrt(2.0 * math.pi * p.var)

        def weighted(z):
            return norm * np.exp(-0.5 * z * z / p.var) * g(p.at(z, q))
        return _trapezoid(weighted, -p.z_edge, p.z_edge, math.sqrt(p.var) / 4.0)
    if all(isinstance(f, (ch.GaussianField, ch.GridField)) for f in fields):
        return _trapezoid(_weighted_x(p, g, q), p.lo, p.hi, min(f.step for f in fields))
    return expect_gauss_kronrod(p, g, q)


def expect_gauss_kronrod(p, g, q=None):
    """expect_values by the adaptive Gauss-Kronrod rule in x over p's window, for fields
    of any type: pairs with no common rule, and the runner's cross-check of the z rule."""
    value, _, _, *failure = integrate.quad(_weighted_x(p, g, q), p.lo, p.hi, epsabs=ABS_TOL,
                                           epsrel=REL_TOL, limit=_LIMIT)
    if failure:
        raise QuadratureError(f"quadrature did not converge: {failure[0]}")
    return value


def _weighted_x(p, g, q):
    """x -> p(x) g(v), v p's Values at x (a flow p's from pdf, score_fn), 0 at p(x) <= _TINY."""
    def weighted(x):
        v = ch.Values(x, p, q) if isinstance(p, ch.FlowField) else p.at(x, q)
        f = v.pdf
        return np.where(f > _TINY, f * g(v), 0.0)
    return weighted


def _trapezoid(weighted, a, b, step0):
    """int_a^b weighted by the trapezoid rule: the step starts at most step0 and
    halves until two sums agree within ABS_TOL + REL_TOL |I|.  No sum is accepted
    before the first halving, so one call of weighted takes the base nodes (the
    even points) with the first halving's midpoints (the odd ones)."""
    n = max(2, math.ceil((b - a) / step0))
    step = (b - a) / n
    if 2 * n + 1 <= _MAX_POINTS:
        vals = weighted(np.linspace(a, b, 2 * n + 1))
        total = np.sum(vals[::2]) - 0.5 * (vals[0] + vals[-1])
        value, mids = step * total, vals[1::2]
        while True:
            total += np.sum(mids)
            n, step = 2 * n, step / 2
            previous, value = value, step * total
            if abs(value - previous) <= ABS_TOL + REL_TOL * abs(value):
                return float(value)
            if 2 * n + 1 > _MAX_POINTS:
                break
            mids = weighted(a + step * (np.arange(n) + 0.5))
    raise QuadratureError(f"trapezoid rule: no two sums agreed within {_MAX_POINTS} points")


# The 21-point Kronrod rule and the 10-point Gauss rule inside it on [-1, 1]
# (Piessens et al. 1983, QUADPACK, routine QK21): nodes ascending, the Gauss
# weights 0 at the Kronrod-only nodes.
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WK0 = 0.149445554002916905664936468389821
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_NODES = np.array([-x for x in _XK] + [0.0] + list(_XK[::-1]))
_KRONROD = np.array(_WK + (_WK0,) + _WK[::-1])
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[11::2] = _WG[::-1]
_EPS = np.finfo(float).eps


def _kronrod(f, a, b):
    """The 21-point Kronrod values of int f on the intervals [a, b] and QUADPACK's
    error estimates of them, from one call of f on all their nodes."""
    half = 0.5 * (b - a)
    fv = f(((a + half)[:, None] + half[:, None] * _NODES).ravel()).reshape(a.size, 21)
    kronrod = fv @ _KRONROD
    error = half * np.abs(kronrod - fv @ _GAUSS)
    spread = half * (np.abs(fv - 0.5 * kronrod[:, None]) @ _KRONROD)
    s = spread != 0.0
    error[s] = spread[s] * np.minimum(1.0, (200.0 * error[s] / spread[s]) ** 1.5)
    return half * kronrod, np.maximum(50.0 * _EPS * half * (np.abs(fv) @ _KRONROD), error)


def _gauss_kronrod(f, a, b, epsabs, epsrel, limit):
    """int_a^b f by globally adaptive bisection with the 21-point Gauss-Kronrod pair.
    Each round bisects the intervals of largest error until those left hold at most
    half of max(epsabs, epsrel |I|), and evaluates f on all new intervals at once.
    Returns (value, error estimate, {"neval": n}), and a message as a fourth
    element when limit intervals do not reach the tolerance."""
    lo, hi = np.array([float(a)]), np.array([float(b)])
    area, error = _kronrod(f, lo, hi)
    neval = 21
    while True:
        value, total = float(np.sum(area)), float(np.sum(error))
        tol = max(epsabs, epsrel * abs(value))
        if total <= tol:
            return value, total, {"neval": neval}
        worst = np.argsort(error)[::-1]
        left = total - np.cumsum(error[worst])          # error left after each bisection
        count = min(int(np.searchsorted(-left, -0.5 * tol)) + 1, lo.size, limit - lo.size)
        if count <= 0:
            return value, total, {"neval": neval}, (
                f"{limit} subintervals leave an error estimate of {total:.3g}, above {tol:.3g}")
        split = worst[:count]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
        new_area, new_error = _kronrod(f, new_lo, new_hi)
        neval += 21 * new_lo.size
        lo, hi, area, error = (np.concatenate((np.delete(old, split), new)) for old, new in (
            (lo, new_lo), (hi, new_hi), (area, new_area), (error, new_error)))


# The rule keeps QUADPACK's call shape, integrate.quad(f, a, b, ...) -> (value,
# error, {"neval": n}[, message]), because the benchmark's tracer wraps it there
# and its tests pin that shape; the benchmark change of ROADMAP direction 1
# retires this seam.
integrate = types.SimpleNamespace(quad=_gauss_kronrod)


def expectation(field, g):
    """E[g(X)] for X with the given density field."""
    return expect_values(field, lambda v: g(v.x))


def entropy(field):
    """Shannon differential entropy -int f ln f."""
    return expect_values(field, lambda v: -v.logp)


def generalized_fisher(field, b=None):
    """J_b = E[b(X) (d/dx ln f(X))^2] >= 0."""
    def g(v):
        s2 = v.score ** 2
        return s2 if b is None else b(v.x) * s2
    return expect_values(field, g)


def kl_divergence(p, q):
    """K(p || q) = int p ln(p/q) >= 0."""
    return expect_values(p, lambda v: v.log_ratio, q)


def relative_fisher(p, q, b=None):
    """J_b(p || q) = E_p[b(X) (d/dx ln(p/q)(X))^2] >= 0."""
    def g(v):
        ds2 = (v.score - v.score_q) ** 2
        return ds2 if b is None else b(v.x) * ds2
    return expect_values(p, g, q)


def entropy_power(field):
    """N(X) = exp(2 h(X)) / (2 pi e); equals the variance for Gaussian fields."""
    return math.exp(2.0 * entropy(field)) / (2.0 * math.pi * math.e)
