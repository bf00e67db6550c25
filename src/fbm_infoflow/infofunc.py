"""Information functionals over DensityFields.

Entropy, generalized Fisher information, KL divergence, relative Fisher
information and entropy power, all by adaptive quadrature with exact branches
when the field carries a Gaussian tag.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy import integrate

from .errors import QuadratureError, SupportError, TailError
from .sigma import SigmaModel

_TINY = 1e-300
_SUPPORT_P_MIN = 1e-12


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive quadrature settings (scipy QUADPACK under the hood)."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("quadrature tolerances must be > 0")


DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class WeightFunction:
    """Positive weight b(x) for generalized / relative Fisher information."""

    kind: str                              # 'one' | 'sigma_squared' | 'custom'
    sigma: Optional[SigmaModel] = None
    fn: Optional[Callable] = None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "one":
            out = np.ones_like(x)
        elif self.kind == "sigma_squared":
            out = np.asarray(self.sigma.fn(x), dtype=float) ** 2
        else:
            out = np.asarray(self.fn(x), dtype=float)
        return float(out) if out.ndim == 0 else out

    @property
    def constant_value(self):
        """The constant b if the weight is constant, else None."""
        if self.kind == "one":
            return 1.0
        if self.kind == "sigma_squared" and self.sigma is not None \
                and self.sigma.kind in ("constant", "identity"):
            return self.sigma.c ** 2
        return None


WEIGHT_ONE = WeightFunction(kind="one")


def sigma_squared_weight(sigma):
    return WeightFunction(kind="sigma_squared", sigma=sigma)


def custom_weight(fn):
    return WeightFunction(kind="custom", fn=fn)


def _quad(fn, lo, hi, quad, points=()):
    pts = sorted(p for p in points if lo < p < hi)
    result = integrate.quad(
        fn, lo, hi, epsabs=quad.abs_tol, epsrel=quad.rel_tol,
        limit=max(quad.max_subdivisions, len(pts) + 2),
        points=pts or None, full_output=1,
    )
    if len(result) > 3:
        value, err = result[0], result[1]
        raise QuadratureError(
            f"quadrature did not converge: {result[3]}",
            estimate=value, error_estimate=err,
        )
    return result[0]


@functools.cache
def gauss_hermite_rule():
    """128-node Gauss-Hermite rule (nodes, weights), built once."""
    return hermgauss(128)


def _gauss_expect(mean, variance, g):
    """E[g(Y)], Y ~ N(mean, variance), by Gauss-Hermite quadrature."""
    u, w = gauss_hermite_rule()
    x = mean + math.sqrt(2.0 * variance) * u
    return float(np.sum(w * np.asarray(g(x), dtype=float)) / math.sqrt(math.pi))


def expectation(field, g, quad=DEFAULT_QUAD):
    """E[g(X)] for X with the given density field."""
    if field.gaussian is not None:
        return _gauss_expect(*field.gaussian, g)
    return _quad(lambda x: field.pdf(x) * g(x), field.lo, field.hi, quad,
                 points=field.breakpoints)


def entropy(field, quad=DEFAULT_QUAD):
    """Shannon differential entropy -int f ln f."""
    if field.gaussian is not None:
        _, var = field.gaussian
        return 0.5 * math.log(2.0 * math.pi * math.e * var)

    def integrand(x):
        f = field.pdf(x)
        if f <= _TINY:
            return 0.0
        return -f * math.log(f)

    return _quad(integrand, field.lo, field.hi, quad, points=field.breakpoints)


def generalized_fisher(field, b=WEIGHT_ONE, quad=DEFAULT_QUAD):
    """J_b = E[b(X) (d/dx ln f(X))^2] >= 0."""
    if field.gaussian is not None:
        mean, var = field.gaussian
        cb = b.constant_value
        if cb is not None:
            return cb / var
        return _gauss_expect(mean, var, lambda x: b(x) * ((x - mean) / var) ** 2)

    def integrand(x):
        f = field.pdf(x)
        if f <= _TINY:
            return 0.0
        return f * b(x) * field.score_fn(x) ** 2

    return _quad(integrand, field.lo, field.hi, quad, points=field.breakpoints)


def _check_support(p, q):
    xs = np.linspace(max(p.lo, q.lo), min(p.hi, q.hi), 65)
    pv = np.atleast_1d(p.pdf(xs))
    qv = np.atleast_1d(q.pdf(xs))
    if np.any((pv >= _SUPPORT_P_MIN) & (qv <= _TINY)):
        raise SupportError("support of p not contained in support of q")


def kl_divergence(p, q, quad=DEFAULT_QUAD):
    """K(p || q) = int p ln(p/q) >= 0."""
    if p is q:
        return 0.0
    if p.gaussian is not None and q.gaussian is not None:
        m1, v1 = p.gaussian
        m2, v2 = q.gaussian
        return 0.5 * (math.log(v2 / v1) + (v1 + (m1 - m2) ** 2) / v2 - 1.0)
    _check_support(p, q)
    lo, hi = max(p.lo, q.lo), min(p.hi, q.hi)

    def integrand(x):
        fp = p.pdf(x)
        if fp <= _TINY:
            return 0.0
        fq = max(q.pdf(x), _TINY)
        return fp * math.log(fp / fq)

    return _quad(integrand, lo, hi, quad,
                 points=tuple(p.breakpoints) + tuple(q.breakpoints))


def relative_fisher(p, q, b=WEIGHT_ONE, quad=DEFAULT_QUAD):
    """J_b(p || q) = E_p[b(X) (d/dx ln(p/q)(X))^2] >= 0."""
    if p is q:
        return 0.0
    cb = b.constant_value
    if p.gaussian is not None and q.gaussian is not None and cb is not None:
        m1, v1 = p.gaussian
        m2, v2 = q.gaussian
        # score difference is linear: a x + c
        a = 1.0 / v2 - 1.0 / v1
        c = m1 / v1 - m2 / v2
        return cb * (a * a * (v1 + m1 * m1) + 2 * a * c * m1 + c * c)
    _check_support(p, q)
    lo, hi = max(p.lo, q.lo), min(p.hi, q.hi)

    def integrand(x):
        fp = p.pdf(x)
        if fp <= _TINY:
            return 0.0
        ds = p.score_fn(x) - q.score_fn(x)
        return fp * b(x) * ds * ds

    return _quad(integrand, lo, hi, quad,
                 points=tuple(p.breakpoints) + tuple(q.breakpoints))


def entropy_power(field, quad=DEFAULT_QUAD):
    """N(X) = exp(2 h(X)) / (2 pi e); equals the variance for Gaussian fields."""
    h = entropy(field, quad=quad)
    return math.exp(2.0 * h) / (2.0 * math.pi * math.e)
