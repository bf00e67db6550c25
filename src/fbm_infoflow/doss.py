"""Doss-Sussmann flow: tabulate phi' = sigma(phi), phi(0) = x0, and invert it.

The flow needs no ODE solver: its inverse is the Lamperti integral
z(x) = int_{x0}^x dy / sigma(y).  The table holds z at x nodes about
_TABLE_STEP apart in z, each node's z a cumulative sum of 8-point
Gauss-Legendre panels of 1/sigma.  phi and its inverse are the cubic Hermite
interpolants of that one table with exact slopes, dx/dz = sigma(x) one way and
dz/dx = 1/sigma(x) the other; both evaluate the points in the order given, and
their callers pass ascending points, where the interval search is fastest.

The nodes follow midpoint steps of _COARSE_STEP in z from x0, each cut into
equal x pieces, so they depend on sigma and x0 alone, and a node's z on the
nodes before it alone: how far a table runs changes none of its values.  A
table's arrays are read-only, since every flow field of a sigma reads one.
"""

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from . import sigma as sigma_mod
from .errors import DomainError, FlowEscapeError, RangeError

_TABLE_STEP = 2e-3          # target z spacing of the table's nodes
_COARSE_STEP = 0.25         # z step of the midpoint rule that places the nodes
_PIECES = math.ceil(_COARSE_STEP / _TABLE_STEP)   # equal x pieces per coarse step
_FRACTIONS = np.arange(_PIECES) / _PIECES          # the nodes of a coarse step
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_ROUNDING = 1e-12           # relative shortfall of a node's z that counts as rounding


def _hermite(knots, values, slopes):
    """The cubic Hermite interpolant as (knots, c0, c1, c2, c3): on interval i it
    is c0 + u (c1 + u (c2 + u c3)) with u = q - knots[i]."""
    h = np.diff(knots)
    secant = np.diff(values) / h
    m0, m1 = slopes[:-1], slopes[1:]
    return (knots, values[:-1], m0, (3.0 * secant - 2.0 * m0 - m1) / h,
            (m0 + m1 - 2.0 * secant) / (h * h))


def _evaluate(coeffs, q):
    """The interpolant at points q >= knots[0], in any order and shape; a knot gets its value."""
    knots, c0, c1, c2, c3 = coeffs
    i = np.minimum(np.searchsorted(knots, q, side="right") - 1, c0.size - 1)
    u = q - knots[i]
    return c0[i] + u * (c1[i] + u * (c2[i] + u * c3[i]))


@dataclass
class PhiSolution:
    """Tabulated, invertible solution of phi' = sigma(phi), phi(0) = x0: the table
    (z_grid, phi_grid) covers z_domain and z_grid[k] = int_{x0}^{phi_grid[k]} dy/sigma.
    z_domain is the range asked for, cut where the flow reaches sigma's edge."""

    sigma: sigma_mod.SigmaModel
    x0: float
    z_domain: Tuple[float, float]
    z_grid: np.ndarray
    phi_grid: np.ndarray
    _forward: tuple = field(init=False, repr=False)
    _inverse: tuple = field(init=False, repr=False)

    def __post_init__(self):
        s = self.sigma.fn(self.phi_grid)
        self._forward = _hermite(self.z_grid, self.phi_grid, s)
        self._inverse = _hermite(self.phi_grid, self.z_grid, 1.0 / s)
        for a in self._forward + self._inverse:     # z_grid and phi_grid are the knots
            a.flags.writeable = False

    @property
    def x_range(self):
        return float(self.phi_grid[0]), float(self.phi_grid[-1])

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        lo, hi = self.z_domain
        if np.any(z < lo) or np.any(z > hi):
            raise RangeError(f"z outside flow domain [{lo:g}, {hi:g}]")
        # Only rounding on the table's last interval can leave x_range.
        return np.clip(_evaluate(self._forward, z), *self.x_range)


def solve_phi(sigma, x0, z_domain):
    """Tabulate the flow over z_domain (which must contain 0), or to sigma's edge."""
    z_lo, z_hi = float(z_domain[0]), float(z_domain[1])
    if not (z_lo <= 0.0 <= z_hi) or z_lo == z_hi:
        raise DomainError("z_domain must be a nondegenerate interval containing 0")
    x0, (lo, hi) = float(x0), sigma.domain
    if not lo <= x0 <= hi:
        raise FlowEscapeError(f"x0 = {x0:g} lies outside sigma's working domain [{lo:g}, {hi:g}]")
    (x_neg, z_neg, end_neg), (x_pos, z_pos, end_pos) = (
        _lamperti_nodes(sigma, x0, z_end) for z_end in (z_lo, z_hi))
    return PhiSolution(
        sigma=sigma, x0=x0, z_domain=(end_neg, end_pos),
        z_grid=np.concatenate([z_neg[::-1], z_pos[1:]]),
        phi_grid=np.concatenate([x_neg[::-1], x_pos[1:]]),
    )


def _lamperti_nodes(sigma, x0, z_end):
    """The x nodes from x0 (first) toward z_end, z(x) at each, and the z they reach:
    z_end, or less where x reaches sigma's edge first.  Midpoint steps of _COARSE_STEP
    in z place the coarse nodes; each is cut into _PIECES equal x pieces, whose z
    increments are 8-point Gauss-Legendre panels of 1/sigma, summed outward from x0.
    A z within _ROUNDING of z_end, relative, has reached it: its sum's rounding
    must not cost another coarse step."""
    lo, hi = sigma.domain
    step = math.copysign(_COARSE_STEP, z_end)
    coarse, s = [x0], sigma.fn(np.array([x0]))[0]
    xs, dzs, z = [np.array([x0])], [np.zeros(1)], np.zeros(1)
    reach = abs(z_end) * (1.0 - _ROUNDING)
    while abs(z[-1]) < reach and coarse[-1] not in (lo, hi):
        start = len(coarse) - 1
        for _ in range(math.ceil((abs(z_end) - abs(z[-1])) / _COARSE_STEP)):
            half = min(max(coarse[-1] + 0.5 * step * s, lo), hi)
            half_s = sigma.fn(np.array([half]))[0]
            coarse.append(min(max(coarse[-1] + step * half_s, lo), hi))
            s = sigma.fn(np.array([coarse[-1]]))[0]
            if coarse[-1] in (lo, hi):
                break
        # The new coarse steps' pieces, from the last node so far.
        c = np.array(coarse[start:])
        x = np.append((c[:-1, None] + np.diff(c)[:, None] * _FRACTIONS).ravel(), c[-1])
        width = np.diff(x)
        if not np.all(width * step > 0):
            raise FlowEscapeError(f"flow stalls near x = {x[np.argmin(width * step)]:g}: "
                                  "its nodes do not advance")
        inv = 1.0 / sigma.fn(((x[:-1] + 0.5 * width)[:, None]
                              + (0.5 * width)[:, None] * _GL_NODES).ravel())
        xs.append(x[1:])
        dzs.append(0.5 * width * sum(w * inv[j::8] for j, w in enumerate(_GL_WEIGHTS)))
        # A fixed order of sums: a node's z does not depend on how far the table runs.
        z = np.cumsum(np.concatenate(dzs))
    return np.concatenate(xs), z, z_end if abs(z[-1]) >= reach else z[-1]


def invert_phi(phi, x):
    """Solve phi(z) = x for an array x; z has the shape of x.  It is the Hermite
    interpolant of the table's Lamperti integral z(x), whose slope is 1/sigma."""
    arr = np.asarray(x, dtype=float)
    lo, hi = phi.x_range
    if np.any(arr < lo) or np.any(arr > hi):
        raise RangeError(f"x outside flow range [{lo:g}, {hi:g}]")
    return _evaluate(phi._inverse, arr)
