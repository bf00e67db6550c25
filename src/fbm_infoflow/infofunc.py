"""Information functionals over DensityFields.

Entropy, generalized Fisher information, KL divergence, relative Fisher
information and entropy power.  Each functional is one expectation
E_p[g(X, f(X))], f being p's density, evaluated by `_expect` along one of three
routes: a 128-node Gauss-Hermite rule when every field involved carries a
Gaussian tag (exact for the Gaussian entropy, Fisher and KL integrands); when
every field is a flow field X = phi(Z), Z ~ N(0, var), a trapezoid rule in z,
whose step halves until two sums agree to the tolerances; and adaptive
quadrature in x (scipy QUADPACK) otherwise.  A weight b is an array callable,
None meaning 1.
"""

import functools
import math

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy import integrate

from . import doss
from .errors import QuadratureError, SupportError

ABS_TOL = 1e-10         # absolute tolerance of QUADPACK and the z rule
REL_TOL = 1e-8          # relative tolerance of QUADPACK and the z rule
_LIMIT = 200            # QUADPACK subdivisions, at least the breakpoints + 2
_Z_MAX_POINTS = 1 << 14     # z-rule nodes at which the rule gives up
_TINY = 1e-300
_SUPPORT_P_MIN = 1e-12


@functools.cache
def _hermite():
    u, w = hermgauss(128)
    return u, w / math.sqrt(math.pi)


def gauss_hermite_nodes(mean, variance):
    """Nodes x and weights w of the cached 128-node Gauss-Hermite rule for
    Y ~ N(mean, variance): E[h(Y)] ~ sum(w * h(x))."""
    u, w = _hermite()
    return mean + math.sqrt(2.0 * variance) * u, w


def _check_support(p, q):
    xs = np.linspace(max(p.lo, q.lo), min(p.hi, q.hi), 65)
    if np.any((p.pdf(xs) >= _SUPPORT_P_MIN) & (q.pdf(xs) <= _TINY)):
        raise SupportError("support of p not contained in support of q")


def _expect(g, p, q=None):
    """E_p[g(X, f(X))] with f = p.pdf; q, when given, is the second field of a
    divergence and must contain p's support."""
    fields = (p,) if q is None else (p, q)
    if all(fl.gaussian is not None for fl in fields):
        x, w = gauss_hermite_nodes(*p.gaussian)
        return float(np.sum(w * g(x, p.pdf(x))))
    if q is not None:
        _check_support(p, q)
    lo, hi = max(fl.lo for fl in fields), min(fl.hi for fl in fields)
    if all(fl.flow is not None for fl in fields):
        return _z_trapezoid(g, p, lo, hi)
    pts = sorted(b for fl in fields for b in fl.breakpoints if lo < b < hi)

    def integrand(x):
        f = p.pdf(x)
        return float(f * g(x, f)) if f > _TINY else 0.0

    result = integrate.quad(
        integrand, lo, hi, epsabs=ABS_TOL, epsrel=REL_TOL,
        limit=max(_LIMIT, len(pts) + 2), points=pts or None, full_output=1,
    )
    if len(result) > 3:
        raise QuadratureError(f"quadrature did not converge: {result[3]}",
                              estimate=result[0], error_estimate=result[1])
    return result[0]


def _z_trapezoid(g, p, lo, hi):
    """E_p[g(X, f(X))] for the flow field p, X = phi(Z), Z ~ N(0, var), over
    lo <= X <= hi: the trapezoid rule on the pre-image of [lo, hi] in
    [-z_edge, z_edge], from step sd/4, halved until two sums agree."""
    phi, var, z_edge = p.flow
    a = -z_edge if lo <= p.lo else float(doss.invert_phi(phi, lo))
    b = z_edge if hi >= p.hi else float(doss.invert_phi(phi, hi))

    def weighted(z):
        x = phi(z)
        return np.exp(-0.5 * z * z / var) * g(x, p.pdf(x))

    n = max(2, math.ceil(4.0 * (b - a) / math.sqrt(var)))
    step = (b - a) / n
    vals = weighted(np.linspace(a, b, n + 1))
    total = np.sum(vals) - 0.5 * (vals[0] + vals[-1])
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)
    value = norm * step * total
    while True:
        if 2 * n + 1 > _Z_MAX_POINTS:
            raise QuadratureError(f"z rule: no two sums agreed within {_Z_MAX_POINTS} points",
                                  estimate=value)
        total += np.sum(weighted(a + step * (np.arange(n) + 0.5)))
        n, step = 2 * n, step / 2
        previous, value = value, norm * step * total
        if abs(value - previous) <= ABS_TOL + REL_TOL * abs(value):
            return float(value)


def expectation(field, g):
    """E[g(X)] for X with the given density field."""
    return _expect(lambda x, f: g(x), field)


def entropy(field):
    """Shannon differential entropy -int f ln f."""
    return _expect(lambda x, f: -np.log(f), field)


def generalized_fisher(field, b=None):
    """J_b = E[b(X) (d/dx ln f(X))^2] >= 0."""
    def g(x, f):
        s2 = field.score_fn(x) ** 2
        return s2 if b is None else b(x) * s2
    return _expect(g, field)


def kl_divergence(p, q):
    """K(p || q) = int p ln(p/q) >= 0."""
    return _expect(lambda x, f: np.log(f / np.maximum(q.pdf(x), _TINY)), p, q)


def relative_fisher(p, q, b=None):
    """J_b(p || q) = E_p[b(X) (d/dx ln(p/q)(X))^2] >= 0."""
    def g(x, f):
        ds2 = (p.score_fn(x) - q.score_fn(x)) ** 2
        return ds2 if b is None else b(x) * ds2
    return _expect(g, p, q)


def entropy_power(field):
    """N(X) = exp(2 h(X)) / (2 pi e); equals the variance for Gaussian fields."""
    return math.exp(2.0 * entropy(field)) / (2.0 * math.pi * math.e)
