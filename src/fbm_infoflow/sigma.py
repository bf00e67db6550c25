"""Diffusion coefficient models with analytic first and second derivatives.

Every formula downstream needs at most sigma, sigma' and sigma''. Models are
validated at construction: a finite working domain, sigma finite and positive
on a grid scan of it, and agreement of the analytic derivatives with central
finite differences at 64 probe points.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError

_N_PROBES = 64
_FD_RTOL = 1e-6
_POSITIVITY_FLOOR = 1e-12


@dataclass(frozen=True)
class SigmaModel:
    """A positive diffusion coefficient on a finite working domain.

    Use the module-level constructors (:func:`constant`,
    :func:`sqrt_one_plus_square`, :func:`custom`) rather than instantiating
    directly.  sigma, sigma' and sigma'' are the array callables fn, d1 and d2.
    """

    kind: str                      # 'constant' | 'sqrt1p' | 'custom'
    fn: Callable
    d1: Callable
    d2: Callable
    domain: Tuple[float, float]
    c: Optional[float] = None

    def __post_init__(self):
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError(f"working domain [{lo}, {hi}] is not finite and nonempty")
        _check_positivity(self)
        _check_derivatives(self)

    def curvature(self, x):
        """sigma''(x) sigma(x) + sigma'(x)^2, i.e. (sigma^2)''(x) / 2: 0 for a constant."""
        if self.kind == "constant":
            return np.zeros_like(np.asarray(x, float))
        return (np.asarray(self.d2(x)) * np.asarray(self.fn(x))
                + np.asarray(self.d1(x)) ** 2)


def constant(c, domain=(-1e9, 1e9)):
    """sigma(x) = c > 0."""
    c = float(c)
    return SigmaModel(
        kind="constant",
        fn=lambda x: np.full_like(np.asarray(x, float), c),
        d1=lambda x: np.zeros_like(np.asarray(x, float)),
        d2=lambda x: np.zeros_like(np.asarray(x, float)),
        domain=(float(domain[0]), float(domain[1])),
        c=c,
    )


# sqrt1p's sigma, sigma' and sigma'', defined once so that two models of one
# domain compare equal and share every table cached on sigma.
def _sqrt1p(x):
    return np.sqrt(1.0 + np.asarray(x, float) ** 2)


def _sqrt1p_d1(x):
    return np.asarray(x, float) / np.sqrt(1.0 + np.asarray(x, float) ** 2)


def _sqrt1p_d2(x):
    return (1.0 + np.asarray(x, float) ** 2) ** -1.5


def sqrt_one_plus_square(domain=(-1e9, 1e9)):
    """sigma(x) = sqrt(1 + x^2).

    Canonical nonconstant test case: its flow has the closed form sinh, so
    every downstream quantity has an independent oracle.
    """
    return SigmaModel(kind="sqrt1p", fn=_sqrt1p, d1=_sqrt1p_d1, d2=_sqrt1p_d2,
                      domain=(float(domain[0]), float(domain[1])))


def custom(fn, d1, d2, domain):
    """User-supplied sigma with analytic first and second derivatives.

    Analytic derivative callbacks are mandatory; a finite-difference fallback
    would pollute the Fokker-Planck residuals downstream.
    """
    if d1 is None or d2 is None:
        raise DomainError("custom sigma requires analytic d1 and d2 callbacks")
    return SigmaModel(
        kind="custom", fn=fn, d1=d1, d2=d2,
        domain=(float(domain[0]), float(domain[1])),
    )


def _probe_points(domain, n):
    lo, hi = domain
    # Compress huge domains through asinh so probes also cover the center.
    if hi - lo > 1e4:
        u = np.linspace(np.arcsinh(lo), np.arcsinh(hi), n)
        return np.sinh(u)
    return np.linspace(lo, hi, n)


def _check_positivity(model):
    xs = _probe_points(model.domain, 257)
    vals = np.asarray(model.fn(xs), dtype=float)
    bad = ~(np.isfinite(vals) & (vals >= _POSITIVITY_FLOOR))     # a NaN compares false
    if bad.any():
        i = np.argmax(bad)
        raise DomainError(
            f"sigma({xs[i]:g}) = {vals[i]:g}: not finite or below the positivity "
            f"floor {_POSITIVITY_FLOOR:g}"
        )


def _check_derivatives(model):
    xs = _probe_points(model.domain, _N_PROBES)
    scale = 1.0 + np.abs(xs)
    h1 = 1e-6 * scale
    h2 = 1e-4 * scale
    lo, hi = model.domain
    inner = (xs - 2 * h2 >= lo) & (xs + 2 * h2 <= hi)
    if not inner.any():
        raise DomainError(f"working domain [{lo:g}, {hi:g}] is too narrow to probe sigma's "
                          "derivatives: no probe point lies 2e-4 (1 + |x|) inside both ends")
    xs, h1, h2, scale = xs[inner], h1[inner], h2[inner], scale[inner]

    f = lambda x: np.asarray(model.fn(x), dtype=float)
    fd1 = (f(xs + h1) - f(xs - h1)) / (2 * h1)
    fd2 = (f(xs + h2) - 2 * f(xs) + f(xs - h2)) / h2 ** 2
    a1 = np.asarray(model.d1(xs), dtype=float)
    a2 = np.asarray(model.d2(xs), dtype=float)
    err1 = np.max(np.abs(fd1 - a1) / (1.0 + np.abs(a1)))
    err2 = np.max(np.abs(fd2 - a2) / (1.0 + np.abs(a2)))
    if not (err1 <= _FD_RTOL and err2 <= _FD_RTOL):     # a NaN compares false
        raise DomainError(
            f"analytic derivatives disagree with finite differences "
            f"(rel err d1={err1:.2e}, d2={err2:.2e})"
        )
