"""Doss-Sussmann flow: tabulate phi' = sigma(phi), phi(0) = x0, and invert it.

The flow needs no ODE solver: its inverse is the Lamperti integral
z(x) = int_{x0}^x dy / sigma(y).  The table holds z at x nodes about
_TABLE_STEP apart in z, each node's z a cumulative sum of 8-point
Gauss-Legendre panels of 1/sigma.  phi is the cubic Hermite interpolant of that
table with exact slopes dx/dz = sigma(x); phi^-1 is the integral itself, a node's
z plus one more panel from it to x.  Both evaluate the points in the order and
shape given.  phi finds a point's interval in O(1), from a bucket table over its
z knots, which lie about _TABLE_STEP apart (_IntervalIndex): on sqrt1p's table
no bucket holds two knots, so a lookup is one compare.  The x knots spread over
orders of magnitude, so phi^-1 keeps a binary search.

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
from .errors import DomainError, FlowEscapeError

_TABLE_STEP = 2e-3          # target z spacing of the table's nodes
_COARSE_STEP = 0.25         # z step of the midpoint rule that places the nodes
_PIECES = math.ceil(_COARSE_STEP / _TABLE_STEP)   # equal x pieces per coarse step
_FRACTIONS = np.arange(_PIECES) / _PIECES          # the nodes of a coarse step
_GL_NODES, _GL_WEIGHTS = (c[:, None] for c in np.polynomial.legendre.leggauss(8))  # columns
_ROUNDING = 1e-12           # relative shortfall of a node's z that counts as rounding
_BUCKETS_PER_KNOT = 4       # the most buckets of phi's interval index per knot


def _hermite(knots, values, slopes):
    """The cubic Hermite interpolant as (knots, c0, c1, c2, c3): on interval i it
    is c0 + u (c1 + u (c2 + u c3)) with u = q - knots[i]."""
    h = np.diff(knots)
    secant = np.diff(values) / h
    m0, m1 = slopes[:-1], slopes[1:]
    return (knots, values[:-1], m0, (3.0 * secant - 2.0 * m0 - m1) / h,
            (m0 + m1 - 2.0 * secant) / (h * h))


def _evaluate(coeffs, q, i):
    """The interpolant at points q, in any order and shape, on their intervals i:
    Horner's rule in place, the operations of c0 + u (c1 + u (c2 + u c3)) in their order."""
    knots, c0, c1, c2, c3 = coeffs
    u = q - knots[i]
    r = c3[i]
    r *= u
    r += c2[i]
    r *= u
    r += c1[i]
    r *= u
    r += c0[i]
    return r


class _IntervalIndex:
    """q's interval, searchsorted(knots, q, 'right') - 1 kept to 0 .. size - 2, in O(1)
    for every q in [lo, hi], for knots about evenly spaced.  It is the count of the
    keys knots[1:] that are <= q, kept to the last interval.  q's bucket is
    int((q - origin) * inv_width), the expression that places each key, so it is
    monotone in q: every key of an earlier bucket is <= q, and every key of a later
    one > q.  The count is therefore the keys before q's bucket plus at most `depth`
    compares with the bucket's own; a compare past the last key reads the last key,
    which counts only where the clamp to the last interval applies.  A bucket is the
    smallest knot gap wide, or wider where that makes more than _BUCKETS_PER_KNOT
    buckets a knot, so the table stays bounded for any sigma; where knots crowd into
    a bucket, each more costs one compare.  sqrt1p's table of 21 751 knots gets
    58 323 buckets (233 kB of int32) of at most one knot each."""

    def __init__(self, knots, lo, hi):
        origin, end = min(lo, knots[0]), max(hi, knots[-1])
        width = max(np.min(np.diff(knots)), (end - origin) / (_BUCKETS_PER_KNOT * knots.size))
        self.origin, self.inv_width = origin, 1.0 / width
        self.keys, self.last = knots[1:], knots.size - 2
        counts = np.bincount(self._bucket(self.keys), minlength=self._bucket(end) + 1)
        self.depth = int(counts.max())
        # int32 halves the table; one intp copy a call costs less than the
        # memory, and int32 indices would be converted by every take.
        self.before = (np.cumsum(counts) - counts).astype(np.int32)
        self.before.flags.writeable = False

    def _bucket(self, q):
        return ((q - self.origin) * self.inv_width).astype(np.intp)

    def __call__(self, q):
        key = np.take(self.before, self._bucket(q)).astype(np.intp)
        i = key + (np.take(self.keys, key, mode="clip") <= q)
        for _ in range(1, self.depth):
            key += 1
            i += np.take(self.keys, key, mode="clip") <= q
        return np.minimum(i, self.last)


def _within(a, lo, hi):
    """Whether every point of a lies in [lo, hi]; a NaN does not."""
    return a.size == 0 or (lo <= a.min() and a.max() <= hi)


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
    _index: _IntervalIndex = field(init=False, repr=False)

    def __post_init__(self):
        self._forward = _hermite(self.z_grid, self.phi_grid, self.sigma.fn(self.phi_grid))
        for a in self._forward + (self.phi_grid,):     # z_grid is _forward's knots
            a.flags.writeable = False
        self._index = _IntervalIndex(self.z_grid, *self.z_domain)

    @property
    def x_range(self):
        return float(self.phi_grid[0]), float(self.phi_grid[-1])

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        lo, hi = self.z_domain
        if not _within(z, lo, hi):
            raise FlowEscapeError(f"z outside flow domain [{lo:g}, {hi:g}], or not a number")
        # Only rounding on the table's last interval can leave x_range.
        return np.clip(_evaluate(self._forward, z, self._index(z)), *self.x_range)


def solve_phi(sigma, x0, z_domain):
    """Tabulate the flow over z_domain (which must contain 0), or to sigma's edge."""
    z_lo, z_hi = float(z_domain[0]), float(z_domain[1])
    if not (z_lo <= 0.0 <= z_hi) or z_lo == z_hi:
        raise DomainError("z_domain must be a nondegenerate interval containing 0")
    x0, (lo, hi) = float(x0), sigma.domain
    if not lo <= x0 <= hi:
        raise FlowEscapeError(f"x0 = {x0:g} lies outside sigma's working domain [{lo:g}, {hi:g}]")
    if x0 in (lo, hi):      # the table would hold x0 alone, which nothing interpolates
        raise FlowEscapeError(f"x0 = {x0:g} lies at sigma's edge: the flow covers no interval")
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
        xs.append(x[1:])
        dzs.append(_panels(sigma, x[:-1], x[1:]))
        # A fixed order of sums: a node's z does not depend on how far the table runs.
        z = np.cumsum(np.concatenate(dzs))
    return np.concatenate(xs), z, z_end if abs(z[-1]) >= reach else z[-1]


def _panels(sigma, a, b):
    """int_a^b dy / sigma(y) for each pair of points of the 1-d arrays a and b: one
    8-point Gauss-Legendre panel each, its terms summed in node order by one call."""
    half = 0.5 * (b - a)
    inv = 1.0 / sigma.fn((a + half + half * _GL_NODES).ravel())
    return half * (_GL_WEIGHTS * inv.reshape(8, -1)).cumsum(axis=0)[-1]


def invert_phi(phi, x):
    """Solve phi(z) = x for an array x; z has the shape of x.  It is the Lamperti
    integral: the z of the table's node at or below x plus a panel from it to x, so
    a node maps exactly to its z.  FlowEscapeError for a NaN, a point outside sigma's
    working domain, or one past the table's end, at sigma's edge or z_domain's."""
    arr = np.asarray(x, dtype=float)
    if not _within(arr, *phi.x_range):
        domain = "sigma's working domain [{:g}, {:g}]".format(*phi.sigma.domain)
        if np.isnan(arr).any():
            raise FlowEscapeError(f"x = nan is not a point of {domain}")
        if not _within(arr, *phi.sigma.domain):
            raise FlowEscapeError(f"x outside {domain}")
        end = int(np.max(arr) > phi.x_range[1])
        raise FlowEscapeError(f"x = {np.max(arr) if end else np.min(arr):g} lies more than "
                              f"{abs(phi.z_domain[end]):g} in z from its Lamperti table's "
                              f"anchor (x = {phi.x0:g}), past the table's end")
    flat = arr.ravel()
    k = np.searchsorted(phi.phi_grid[1:], flat, side="right")    # the node at or below
    return (phi.z_grid[k] + _panels(phi.sigma, phi.phi_grid[k], flat)).reshape(arr.shape)[()]
