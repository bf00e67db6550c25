"""Information functionals over DensityFields.

Entropy, generalized Fisher information, KL divergence, relative Fisher
information and entropy power.  Each functional is one expectation
E_p[g(X, f(X))], f being p's density, evaluated by `_expect` with one trapezoid
rule, `_trapezoid`, whose step halves until two sums agree to the tolerances:
in z for flow fields X = flow_map(Z), Z ~ N(0, var), and in x over p's own
domain for Gaussian and grid-law fields, which carry the base step.  It
converges geometrically on these integrands.  Adaptive quadrature in x (scipy QUADPACK)
takes fields with no common tag and is the reference the rule is tested
against.  A weight b is an array callable, None meaning 1.
"""

import math

import numpy as np
from scipy import integrate

from .channels import ABS_TOL      # absolute tolerance of QUADPACK and the trapezoid rule
from .errors import QuadratureError, SupportError

REL_TOL = 1e-8          # relative tolerance of QUADPACK and the trapezoid rule
_LIMIT = 200            # QUADPACK subdivisions
_MAX_POINTS = 1 << 14   # trapezoid nodes at which the rule gives up
_TINY = 1e-300
_SUPPORT_P_MIN = 1e-12


def _check_support(p, q):
    xs = np.linspace(max(p.lo, q.lo), min(p.hi, q.hi), 65)
    if np.any((p.pdf(xs) >= _SUPPORT_P_MIN) & (q.pdf(xs) <= _TINY)):
        raise SupportError("support of p not contained in support of q")


def _expect(g, p, q=None):
    """E_p[g(X, f(X))] with f = p.pdf; q, when given, is the second field of a
    divergence and must contain p's support.  A flow q is read on p's window."""
    fields = (p,) if q is None else (p, q)
    if all(fl.flow is not None for fl in fields):
        flow_map, var, z_edge = p.flow
        norm = 1.0 / math.sqrt(2.0 * math.pi * var)

        def weighted(z):
            x = flow_map(z)
            return norm * np.exp(-0.5 * z * z / var) * g(x, p.pdf(x))
        return _trapezoid(weighted, -z_edge, z_edge, math.sqrt(var) / 4.0)
    if q is not None:
        _check_support(p, q)
    if all(fl.step is not None for fl in fields):
        # A Gaussian or grid-law q has a density on all of R, so p's own domain is kept.
        def weighted(x):
            f = p.pdf(x)
            return np.where(f > _TINY, f * g(x, np.maximum(f, _TINY)), 0.0)
        return _trapezoid(weighted, p.lo, p.hi, min(fl.step for fl in fields))

    def integrand(x):
        f = p.pdf(x)
        return float(f * g(x, f)) if f > _TINY else 0.0

    lo, hi = max(fl.lo for fl in fields), min(fl.hi for fl in fields)
    result = integrate.quad(integrand, lo, hi, epsabs=ABS_TOL, epsrel=REL_TOL,
                            limit=_LIMIT, full_output=1)
    if len(result) > 3:
        raise QuadratureError(f"quadrature did not converge: {result[3]}")
    return result[0]


def _trapezoid(weighted, a, b, step0):
    """int_a^b weighted by the trapezoid rule: the step starts at most step0 and
    halves until two sums agree within ABS_TOL + REL_TOL |I|."""
    n = max(2, math.ceil((b - a) / step0))
    step = (b - a) / n
    vals = weighted(np.linspace(a, b, n + 1))
    total = np.sum(vals) - 0.5 * (vals[0] + vals[-1])
    value = step * total
    while 2 * n + 1 <= _MAX_POINTS:
        total += np.sum(weighted(a + step * (np.arange(n) + 0.5)))
        n, step = 2 * n, step / 2
        previous, value = value, step * total
        if abs(value - previous) <= ABS_TOL + REL_TOL * abs(value):
            return float(value)
    raise QuadratureError(f"trapezoid rule: no two sums agreed within {_MAX_POINTS} points")


def expectation(field, g, q=None):
    """E[g(X)] for X with the given density field; q, when given, is the second
    field of a divergence, which must contain the field's support."""
    return _expect(lambda x, f: g(x), field, q)


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
