"""Numerical verification of the entropy-flow identities.

Each check builds the left- and right-hand side of one identity by
independent numerical routes (finite differences in time on one side,
quadrature of Fisher-type functionals on the other) and reports the
discrepancy against a tolerance.  Every check takes one channel and one time
t and returns an `IdentityReport`.  There is one De Bruijn check for both
channel families: the additive channel X_0 + B^H_t is the unit-sigma case.
The De Bruijn and KL identities write their rhs once, as an `Rhs` definition
rhs = scale * E[g(v)], v the fields' `channels.Values` at X_t: the check
integrates it and hands it to the runner on its report, as `definition`, so that
the runner's x-space cross-check and Monte Carlo oracle evaluate the object the
check integrated.  g reads the score from v, which a flow field gives in closed
form from z.  The Fokker-Planck check reads its residual on a grid about the
start x0, where X_t has its mass.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import channels as ch
from . import infofunc as nf
from .errors import DegenerateTimeError, DomainError, StepError

# The default tolerance of each identity's row, on |lhs - rhs|: each check's tol
# and the runner's `tolerances` config block default to it.
DEFAULT_TOLERANCES = {
    "debruijn-mult": 1e-4,
    "debruijn-additive": 1e-6,
    "kl-flow": 1e-5,
    "fokker-planck": 1e-3,
    "stein": 1e-10,
    "entropy-power": 1e-4,
    "fbm-stats": 5.0,
}


@dataclass
class IdentityReport:
    """LHS/RHS of one identity at one (t, H), with pass/fail verdict."""

    identity_name: str
    t: float
    hurst: float
    lhs: float
    rhs: float
    abs_discrepancy: float
    tolerance: float
    passed: bool
    method_notes: str = ""
    extras: dict = field(default_factory=dict)
    # The Rhs the check integrated, for a De Bruijn or KL row; no part of row().
    definition: "Rhs | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # numpy scalars leak into reports otherwise and break serialization
        for name in ("t", "hurst", "lhs", "rhs", "abs_discrepancy", "tolerance"):
            setattr(self, name, float(getattr(self, name)))
        self.passed = bool(self.passed)

    def row(self):
        return {
            "identity": self.identity_name,
            "t": self.t,
            "hurst": self.hurst,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_discrepancy": self.abs_discrepancy,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "method_notes": self.method_notes,
        }


def _report(name, t, hurst, lhs, rhs, tol, notes="", extras=None, definition=None):
    disc = abs(lhs - rhs)
    return IdentityReport(
        identity_name=name, t=t, hurst=hurst, lhs=lhs, rhs=rhs, abs_discrepancy=disc,
        tolerance=tol, passed=disc <= tol, method_notes=notes, extras=extras or {},
        definition=definition,
    )


def _default_step(t):
    """1e-3 max(t, 1), or t / 200 where that is smaller (t < 0.2): below t always."""
    return min(t / 200.0, 1e-3 * max(t, 1.0))


def _check_step(t, fd_step):
    """fd_step, or _default_step(t) for None, once t is a time with a density:
    DomainError for a t that is not finite, DegenerateTimeError for t <= 0, as
    density_at raises, and StepError unless 0 < fd_step < t."""
    if not math.isfinite(t):
        raise DomainError(f"the check requires a finite t, not {t}")
    if t <= 0:
        raise DegenerateTimeError(f"the check requires t > 0, not {t}")
    if fd_step is None:
        fd_step = _default_step(t)
    if not 0.0 < fd_step < t:
        raise StepError(f"fd_step {fd_step:g} must satisfy 0 < fd_step < t = {t:g}")
    return fd_step


def _rate(hv, t):
    """H t^{2H-1}, the factor every flow identity carries: (d/dt t^{2H}) / 2."""
    return hv * t ** (2.0 * hv - 1.0)


class Rhs(NamedTuple):
    """rhs = scale * E[g(v)], v the fields' channels.Values at X, X distributed as
    fields[0]; for a divergence, fields[1] is its q."""

    scale: float
    g: Callable
    fields: tuple

    def value(self):
        p, *q = self.fields
        return self.scale * nf.expect_values(p, self.g, *q)


def richardson_derivative(f, t, step, order=1):
    """The first or second derivative of f at t from central differences D at steps
    delta and delta/2, Richardson-combined to fourth order: (4 D(delta/2) - D(delta)) / 3
    cancels D's leading truncation error, delta^2 f^(3)(t) / 6 or delta^2 f^(4)(t) / 12."""
    def central(d):
        if order == 1:
            return (f(t + d) - f(t - d)) / (2.0 * d)
        return (f(t + d) - 2.0 * f(t) + f(t - d)) / d ** 2
    return (4.0 * central(step / 2) - central(step)) / 3.0


def debruijn_check(channel, t, fd_step=None, tol=None):
    """Entropy flow of dX = sigma(X) o dB^H against its Fisher-information form.

    rhs = H t^{2H-1} { J_{sigma^2}(X_t) - E[sigma''(X_t) sigma(X_t) + sigma'(X_t)^2] };
    on an additive channel sigma = 1 and rhs = H t^{2H-1} J_1(X_t).  tol defaults
    to the row's DEFAULT_TOLERANCES entry, debruijn-mult's or debruijn-additive's.
    """
    fd_step = _check_step(t, fd_step)
    lhs = richardson_derivative(
        lambda s: nf.entropy(ch.density_at(channel, s)), t, fd_step)
    definition = debruijn_rhs(channel, t)
    name = "debruijn-mult" if channel.variant == "multiplicative" else "debruijn-additive"
    tol = DEFAULT_TOLERANCES[name] if tol is None else tol
    return _report(name, t, channel.hurst.value, lhs, definition.value(), tol,
                   notes=f"richardson fd_step={fd_step:g}", definition=definition)


def debruijn_rhs(channel, t):
    """debruijn_check's rhs, g = sigma^2 score^2 - (sigma'' sigma + sigma'^2): c^2 score^2
    for a constant sigma = c.  g takes sigma and sigma' from v, which on a flow
    field has them from its score, and evaluates sigma'' once."""
    sig = channel.sigma
    field_t = ch.density_at(channel, t)
    if sig.kind == "constant":
        c2 = sig.c * sig.c

        def g(v):
            return c2 * v.score ** 2
    else:
        def g(v):
            s, d1 = v.sigma(sig)
            return s ** 2 * v.score ** 2 - (sig.d2(v.x) * s + d1 ** 2)
    return Rhs(_rate(channel.hurst.value, t), g, (field_t,))


def kl_flow_check(x_channel, y_channel, t, fd_step=None,
                  tol=DEFAULT_TOLERANCES["kl-flow"]):
    """d/dt K(X_t || Y_t) against -H t^{2H-1} J_{sigma^2}(X_t || Y_t).

    Both channels must be multiplicative with the same diffusion coefficient
    and Hurst parameter; a custom coefficient counts as the same only when it
    is the same model object.  Also records whether the KL values at
    t - delta, t, t + delta are non-increasing.
    """
    for c in (x_channel, y_channel):
        if c.variant != "multiplicative":
            raise DomainError("kl_flow_check needs multiplicative channels")
    if x_channel.hurst.value != y_channel.hurst.value:
        raise DomainError("channels must share the Hurst parameter")
    sx, sy = x_channel.sigma, y_channel.sigma
    if sx is not sy and (sx.kind == "custom" or (sx.kind, sx.c) != (sy.kind, sy.c)):
        raise DomainError("channels must share the diffusion coefficient")
    fd_step = _check_step(t, fd_step)
    hv = x_channel.hurst.value

    @functools.cache    # the stencil and the monotone record share t +/- delta
    def kl_at(s):
        return nf.kl_divergence(ch.density_at(x_channel, s),
                                ch.density_at(y_channel, s))

    lhs = richardson_derivative(kl_at, t, fd_step)
    definition = kl_flow_rhs(x_channel, y_channel, t)

    kls = [kl_at(t - fd_step), kl_at(t), kl_at(t + fd_step)]
    slack = 10 * nf.ABS_TOL
    monotone = kls[0] + slack >= kls[1] and kls[1] + slack >= kls[2]
    notes = (f"richardson fd_step={fd_step:g}; KL(t-d,t,t+d)="
             f"{kls[0]:.9g},{kls[1]:.9g},{kls[2]:.9g}; "
             f"monotone={'yes' if monotone else 'NO'}")
    return _report("kl-flow", t, hv, lhs, definition.value(), tol, notes,
                   extras={"kl_values": kls, "monotone": monotone}, definition=definition)


def kl_flow_rhs(x_channel, y_channel, t):
    """kl_flow_check's rhs, g = sigma^2 (score_X - score_Y)^2 under X_t, with q the law of
    Y_t; sigma as debruijn_rhs takes it."""
    sig = x_channel.sigma
    px, py = ch.density_at(x_channel, t), ch.density_at(y_channel, t)
    if sig.kind == "constant":
        c2 = sig.c * sig.c

        def g(v):
            return c2 * (v.score - v.score_q) ** 2
    else:
        def g(v):
            return v.sigma(sig)[0] ** 2 * (v.score - v.score_q) ** 2
    return Rhs(-_rate(x_channel.hurst.value, t), g, (px, py))


def fokker_planck_residual(channel, t, x_grid, fd_step=None):
    """Residual of the marginal-density PDE for dX = sigma(X) o dB^H:

        dP/dt - H t^{2H-1} ( -(sigma' sigma P)_x + (sigma^2 P)_xx )

    evaluated on x_grid.  Each derivative of P is richardson_derivative's: in t
    at fd_step, in x at step 5e-3; sigma's derivatives are analytic.
    """
    if channel.variant != "multiplicative":
        raise DomainError("fokker_planck_residual needs a multiplicative channel")
    fd_step = _check_step(t, fd_step)
    x = np.asarray(x_grid, dtype=float)
    sig = channel.sigma
    field_t = ch.density_at(channel, t)
    dx = 5e-3

    @functools.cache    # P, P_x and P_xx share the shifts 0, +-dx, +-dx/2
    def p_shifted(u):
        return field_t.pdf(x + u)

    dp_dt = richardson_derivative(lambda s: ch.density_at(channel, s).pdf(x), t, fd_step)
    p_x = richardson_derivative(p_shifted, 0.0, dx)
    p_xx = richardson_derivative(p_shifted, 0.0, dx, order=2)

    s0 = sig.fn(x)
    s1 = sig.d1(x)
    # -(sigma' sigma P)_x + (sigma^2 P)_xx, expanded in P, P_x, P_xx
    spatial = (sig.curvature(x) * p_shifted(0.0)
               + 3.0 * s0 * s1 * p_x
               + s0 ** 2 * p_xx)
    return dp_dt - _rate(channel.hurst.value, t) * spatial


def fokker_planck_check(channel, t, fd_step=None, tol=DEFAULT_TOLERANCES["fokker-planck"]):
    """The largest |fokker_planck_residual| on 81 points x0 + [-4, 4], against 0."""
    if channel.variant != "multiplicative":
        raise DomainError("fokker_planck_check needs a multiplicative channel")
    fd_step = _check_step(t, fd_step)
    x = channel.x0 + np.linspace(-4.0, 4.0, 81)
    worst = float(np.max(np.abs(fokker_planck_residual(channel, t, x, fd_step))))
    return _report("fokker-planck", t, channel.hurst.value, worst, 0.0, tol,
                   notes=f"max |residual| over x in [{x[0]:g},{x[-1]:g}], {x.size} pts; "
                         f"richardson fd_step={fd_step:g}")


def stein_check(mu, variance, r, r_prime, tol=DEFAULT_TOLERANCES["stein"]):
    """Stein's identity E[r(Y)(Y-mu)] = variance * E[r'(Y)], Y ~ N(mu, variance),
    both sides by infofunc's expectation on the Gaussian field."""
    y_field = ch.gaussian_field(mu, variance)
    lhs = nf.expectation(y_field, lambda y: r(y) * (y - mu))
    rhs = variance * nf.expectation(y_field, r_prime)
    return _report("stein", 0.0, 0.0, lhs, rhs, tol, "trapezoid rule")


def entropy_power_check(channel, t, fd_step=None, tol=DEFAULT_TOLERANCES["entropy-power"]):
    """d^2N/dt^2 of the entropy power N(X_t) of an additive channel, by
    richardson_derivative at fd_step, against 2 N g with
    g(t, H, X_t) = H(2H-1) t^{2H-2} J_1 - 2 H^2 t^{4H-2} Var[d_x^2 ln p_t(X_t)];
    g > 0 makes N convex at t, else concave.  g uses J_1 = -E[d_x^2 ln p_t] and
    dJ_1/dt = -2H t^{2H-1} E[(d_x^2 ln p_t)^2], not a time difference of J_1.  The
    tolerance is tol * max(1, |2 N g|)."""
    if channel.variant != "additive":
        raise DomainError("entropy_power_check needs an additive channel")
    fd_step = _check_step(t, fd_step)
    hv = channel.hurst.value

    @functools.cache    # the rhs and both second differences share N(X_t)
    def n_at(s):
        return nf.entropy_power(ch.density_at(channel, s))

    field_t = ch.density_at(channel, t)
    mean_d2 = nf.expect_values(field_t, lambda v: v.dscore)
    var_d2 = nf.expect_values(field_t, lambda v: (v.dscore - mean_d2) ** 2)
    g = (hv * (2.0 * hv - 1.0) * t ** (2.0 * hv - 2.0) * -mean_d2
         - 2.0 * hv ** 2 * t ** (4.0 * hv - 2.0) * var_d2)
    n = n_at(t)
    rhs = 2.0 * n * g
    d2n = richardson_derivative(n_at, t, fd_step, order=2)
    kind = "convex" if g > 0 else "concave"
    return _report("entropy-power", t, hv, d2n, rhs, tol * max(1.0, abs(rhs)),
                   notes=f"g={g:.9g} -> {kind}; N={n:.9g}; richardson fd_step={fd_step:g}",
                   extras={"entropy_power": n, "g": g, "classification": kind})
