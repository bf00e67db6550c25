"""Doss-Sussmann flow: solve phi' = sigma(phi), phi(0) = x0, invert it and
push the Gaussian marginal of B^H_t through it.

The flow is solved once with a high-order adaptive integrator, tabulated
densely and interpolated monotonically.  A query then costs an interpolation
(plus a Newton polish for the inverse) instead of an ODE solve; both are
evaluated on ascending points, where the interpolant's interval search is
fastest.
"""

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from . import sigma as sigma_mod
from .errors import (DegenerateTimeError, DomainError, FlowEscapeError, InversionError,
                     RangeError)
from .fbm import as_hurst

_TABLE_STEP = 2e-3          # target z spacing of the tabulation
_INVERT_ATOL = 1e-12
_INVERT_STEPS = 60


def _ascending(fn, x):
    """fn(x) for an elementwise fn, evaluated on the points of x in ascending order:
    a PCHIP interpolant searches for each point's interval forward from the last."""
    flat = x.ravel()
    order = np.argsort(flat)
    out = np.empty_like(flat)
    out[order] = fn(flat[order])
    return out.reshape(x.shape)


@dataclass
class PhiSolution:
    """Tabulated, invertible solution of phi' = sigma(phi), phi(0) = x0."""

    sigma: sigma_mod.SigmaModel
    x0: float
    z_domain: Tuple[float, float]
    z_grid: np.ndarray
    phi_grid: np.ndarray
    _interp: PchipInterpolator = field(repr=False, default=None)
    _inv_interp: PchipInterpolator = field(repr=False, default=None)

    def __post_init__(self):
        if self._interp is None:
            self._interp = PchipInterpolator(self.z_grid, self.phi_grid)
            self._inv_interp = PchipInterpolator(self.phi_grid, self.z_grid)

    @property
    def x_range(self):
        return float(self.phi_grid[0]), float(self.phi_grid[-1])

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        lo, hi = self.z_domain
        if np.any(z < lo) or np.any(z > hi):
            raise RangeError(f"z outside flow domain [{lo:g}, {hi:g}]")
        # PCHIP is monotone; only rounding at the table's ends can leave x_range,
        # where invert_phi would reject the value.
        return np.clip(_ascending(self._interp, z), *self.x_range)


def solve_phi(sigma, x0, z_domain, tol=1e-10):
    """Integrate the flow over z_domain (which must contain 0)."""
    z_lo, z_hi = float(z_domain[0]), float(z_domain[1])
    if not (z_lo <= 0.0 <= z_hi) or z_lo == z_hi:
        raise DomainError("z_domain must be a nondegenerate interval containing 0")
    if tol <= 0:
        raise DomainError("tol must be > 0")

    dom_lo, dom_hi = sigma.domain

    def rhs(_z, y):
        return [sigma.fn(np.clip(y[0], dom_lo, dom_hi))]

    def escape(_z, y):
        return min(y[0] - dom_lo, dom_hi - y[0])
    escape.terminal = True

    n = max(9, int(math.ceil((z_hi - z_lo) / _TABLE_STEP)) + 1)
    z_grid = np.linspace(z_lo, z_hi, n)

    pieces = []
    for z_end, nodes in (
        (z_lo, z_grid[z_grid < 0][::-1]),
        (z_hi, z_grid[z_grid > 0]),
    ):
        if nodes.size == 0 or z_end == 0.0:
            pieces.append((nodes, np.empty(0)))
            continue
        sol = solve_ivp(
            rhs, (0.0, z_end), [float(x0)], method="DOP853",
            t_eval=nodes, rtol=tol, atol=tol * (1.0 + abs(x0)),
            events=escape, dense_output=False,
        )
        if sol.status == 1:  # escape event fired
            raise FlowEscapeError(
                f"flow left sigma working domain at z = {sol.t_events[0][0]:g}",
                exit_z=float(sol.t_events[0][0]),
            )
        if not sol.success:
            raise FlowEscapeError(f"ODE solve failed: {sol.message}")
        pieces.append((nodes, sol.y[0]))

    (neg_nodes, neg_vals), (pos_nodes, pos_vals) = pieces
    phi_grid = np.concatenate([neg_vals[::-1], [float(x0)], pos_vals])
    z_full = np.concatenate([neg_nodes[::-1], [0.0], pos_nodes])
    if np.any(np.diff(phi_grid) <= 0):
        raise FlowEscapeError("tabulated flow is not strictly increasing")
    return PhiSolution(
        sigma=sigma, x0=float(x0), z_domain=(z_lo, z_hi),
        z_grid=z_full, phi_grid=phi_grid,
    )


def invert_phi(phi, x):
    """Solve phi(z) = x for an array x; z has the shape of x.

    Initial guess from the inverse interpolant, then Newton with the analytic
    derivative phi'(z) = sigma(phi(z)); InversionError if it has not converged
    after _INVERT_STEPS steps.
    """
    arr = np.asarray(x, dtype=float)
    lo, hi = phi.x_range
    if np.any(arr < lo) or np.any(arr > hi):
        raise RangeError(f"x outside flow range [{lo:g}, {hi:g}]")
    return _ascending(lambda xs: _newton(phi, xs), arr)


def _newton(phi, xs):
    z = phi._inv_interp(xs)
    z_lo, z_hi = phi.z_domain
    target = _INVERT_ATOL * (1.0 + np.abs(xs))
    for _ in range(_INVERT_STEPS):
        f = phi._interp(z)
        resid = f - xs
        if np.all(np.abs(resid) <= target):
            return z
        z = np.clip(z - resid / phi.sigma.fn(f), z_lo, z_hi)
    worst = np.argmax(np.abs(resid) - target)
    raise InversionError(
        f"Newton inversion of phi did not converge in {_INVERT_STEPS} steps: residual "
        f"{abs(resid[worst]):.3g} at x = {xs[worst]:g} against {target[worst]:.3g}")


def pushforward_density(phi, t, h, x):
    """Density of X_t = phi(B^H_t) at x: N(0, t^{2H}) density of phi^{-1}(x)
    divided by sigma(x), in the shape of the array x."""
    h = as_hurst(h)
    if t <= 0:
        raise DegenerateTimeError("t = 0: the law of X_t is a point mass")
    var = float(t) ** (2.0 * h.value)
    z = invert_phi(phi, x)
    gauss = np.exp(-0.5 * z ** 2 / var) / math.sqrt(2.0 * math.pi * var)
    return gauss / phi.sigma.fn(np.asarray(x, dtype=float))
