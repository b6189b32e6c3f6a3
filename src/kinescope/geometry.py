"""Convex shapes and their support heights under rotation.

A shape spins about a fixed pole while we record, for each rotation angle
theta, the highest and lowest points of its silhouette measured along the
lab Y axis.  For smooth contours those heights come from the two boundary
points whose tangent turns horizontal after rotation; for polygons they
come from the extreme vertices.  Trace synthesis is built on
``support_heights``, and the n-gon closed forms and identification on
the regular n-gon's support function ``ngon_upper``, both defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import ConvexityViolation

TWO_PI = 2.0 * math.pi

# Grid density for bracketing tangency roots, made once per call.  At each
# angle the highest and the lowest of 720 boundary samples each sit within
# one grid cell of a root, so the two cells around the sample bracket it;
# 720 is far more than a strictly convex contour needs, and cheap.
SCAN_SAMPLES = 720

# Absolute tolerance on each root's angle, passed to brentq.  The support
# height is stationary at the root, so an angle error of 1e-14 perturbs
# the height at second order, far below every tolerance we quote.
ROOT_XTOL = 1e-14

Vec2 = NDArray[np.float64]


def _poly_mul(p: NDArray[np.float64], q: NDArray[np.float64]) -> NDArray[np.float64]:
    # Product of piecewise polynomials given as coefficient rows, highest power first.
    out = np.zeros((len(p) + len(q) - 1, p.shape[1]))
    for i, row in enumerate(p):
        out[i : i + len(q)] += row * q
    return out


def _as_vec2(p: ArrayLike, name: str = "point") -> Vec2:
    v = np.asarray(p, dtype=float)
    if v.shape != (2,):
        raise ValueError(f"{name} must be a 2-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def reduce_angle(theta):
    """Reduce an angle (scalar or array) to the interval [0, 2*pi).

    numpy's mod can return the full period for inputs a hair below zero,
    so the result is folded back to 0.0 explicitly.
    """
    t = np.mod(theta, TWO_PI)
    return np.where(t >= TWO_PI, 0.0, t)


def rot_proj(p: ArrayLike, theta):
    """Y component of p rotated counterclockwise by theta: x*sin(theta) + y*cos(theta).

    theta may be a scalar or an array; the result matches its shape.
    This is the only projection the film ever sees, so it gets a name.
    """
    v = _as_vec2(p)
    return v[0] * np.sin(theta) + v[1] * np.cos(theta)


@dataclass(frozen=True, eq=False)
class SmoothContour:
    """A strictly convex smooth boundary in body coordinates.

    The contour is parametrized by an angle beta in [0, 2*pi).  The pole
    (rotation centre) sits at the body origin; ``pole_offset`` is the
    vector from the pole to the natural centre of the contour, so the
    boundary point at parameter beta lies at ``pole_offset + point(beta)``
    relative to the pole.

    There are two kinds: ``"ellipse"`` (semi-axes a >= b) and ``"polar"``
    (a periodic spline r(beta)).  Use the classmethods ``ellipse``,
    ``circle`` (the ellipse with a = b) and ``from_polar``; the raw
    constructor does not check a polar spline's convexity.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    pole_offset: Vec2 = field(default_factory=lambda: np.zeros(2))
    _r: Optional[CubicSpline] = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pole_offset", _as_vec2(self.pole_offset, "pole_offset"))
        if self.kind not in ("ellipse", "polar"):
            raise ValueError(f"unknown contour kind {self.kind!r}")
        if self.kind == "polar" and self._r is None:
            raise ValueError("a polar contour needs its spline; build it with from_polar")
        if self.kind == "ellipse":
            if not all(0 < x < math.inf for x in (self.a, self.b)):
                raise ValueError("semi-axes (a circle's radius) must be positive and finite")
            if self.a < self.b:
                raise ValueError("ellipse is parametrized with a >= b; swap the axes")

    @classmethod
    def circle(cls, radius: float, pole_offset: ArrayLike = (0.0, 0.0)) -> "SmoothContour":
        """The ellipse with a = b = radius, centre at ``pole_offset`` from the pole."""
        return cls.ellipse(radius, radius, pole_offset)

    @classmethod
    def ellipse(cls, a: float, b: float, pole_offset: ArrayLike = (0.0, 0.0)) -> "SmoothContour":
        """Axis-aligned ellipse with semi-axes a (along x) and b (along y)."""
        return cls(kind="ellipse", a=float(a), b=float(b), pole_offset=pole_offset)

    @classmethod
    def from_polar(
        cls,
        beta: ArrayLike,
        r: ArrayLike,
        pole_offset: ArrayLike = (0.0, 0.0),
    ) -> "SmoothContour":
        """Build a contour from polar samples r(beta) about the contour centre.

        ``beta`` must be strictly increasing within [0, 2*pi) and the radii
        strictly positive; the samples are closed up periodically with a
        cubic spline, which wraps any beta into its own period.  Raises
        ConvexityViolation if the interpolated curve is not strictly convex
        (the polar criterion r^2 + 2 r'^2 - r r'' > 0 is checked exactly,
        by the roots of that piecewise polynomial).
        """
        beta = np.asarray(beta, dtype=float)
        r = np.asarray(r, dtype=float)
        if beta.ndim != 1 or beta.shape != r.shape:
            raise ValueError("beta and r must be 1-d arrays of equal length")
        if beta.size < 16:
            raise ValueError("need at least 16 polar samples")
        if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(r))):
            raise ValueError("polar samples must be finite")
        if not np.all(np.diff(beta) > 0):
            raise ValueError("beta samples must be strictly increasing")
        if beta[0] < 0 or beta[-1] >= beta[0] + TWO_PI:
            raise ValueError("beta samples must span less than one full turn")
        if not np.all(r > 0):
            raise ValueError("polar radii must be positive")
        from scipy.interpolate import CubicSpline, PPoly

        knots = np.concatenate([beta, [beta[0] + TWO_PI]])
        values = np.concatenate([r, [r[0]]])
        spline = CubicSpline(knots, values, bc_type="periodic")

        # Signed curvature of a polar curve is proportional to the turning term
        # r^2 + 2 r'^2 - r r''; it must keep one sign for the tangent direction
        # never to reverse.  On each knot interval it is a degree-6 polynomial,
        # built from the spline's coefficient rows over the largest radius (the
        # same sign, at any scale without overflow).
        rr, r1, r2 = (d.c / r.max() for d in (spline, spline.derivative(1), spline.derivative(2)))
        turn = _poly_mul(rr, rr)
        turn[2:] += 2.0 * _poly_mul(r1, r1) - _poly_mul(rr, r2)
        roots = PPoly(turn, knots).roots(extrapolate=False)
        if roots.size or not turn[-1, 0] > 0:
            where = roots[0] if roots.size else knots[0]
            raise ConvexityViolation(
                f"polar contour is not strictly convex (turning term is not positive at beta {where:.4f})"
            )
        return cls(kind="polar", pole_offset=pole_offset, _r=spline)


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """A strictly convex polygon, counterclockwise vertices in body coordinates.

    Vertices are measured from the polygon's own frame origin;
    ``pole_offset`` is the vector from the rotation pole to that origin,
    exactly as for SmoothContour.  ``_normals`` holds the unwrapped angles
    of the edges' outward normals, edge i running from vertex i to i + 1.
    ConvexityViolation is raised unless no edge has zero length and each
    turn between consecutive normals, the closing turn included, lies
    strictly between 0 and pi; that also rejects a star that winds twice,
    and it holds at any scale.  The vertex array is frozen.
    """

    vertices: NDArray[np.float64]
    pole_offset: Vec2 = field(default_factory=lambda: np.zeros(2))
    _normals: NDArray[np.float64] = field(init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("vertices must be an (n, 2) array with n >= 3")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        ex, ey = (np.roll(v, -1, axis=0) - v).T
        normals = np.unwrap(np.arctan2(-ex, ey))
        turns = np.diff(normals, append=normals[0] + TWO_PI)
        if not (np.all((ex != 0) | (ey != 0)) and np.all((turns > 0) & (turns < math.pi))):
            raise ConvexityViolation(
                "vertices do not form a strictly convex counterclockwise polygon"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "pole_offset", _as_vec2(self.pole_offset, "pole_offset"))
        object.__setattr__(self, "_normals", normals)

    def __len__(self) -> int:
        return self.vertices.shape[0]


Shape = Union[SmoothContour, ConvexPolygon]


def regular_ngon(n: int, circumradius: float) -> ConvexPolygon:
    """Regular n-gon centred on the pole, top edge horizontal.

    The first vertex sits at angle pi/2 - pi/n so the edge between the
    first two vertices is centred on the +Y axis.  With that phase the
    square of side a has vertices (+-a/2, +-a/2) and its trace starts,
    at theta = 0, flat side up.  n must be an int or numpy integer.
    """
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise ValueError(f"a regular polygon needs an integer n >= 3, got {n!r}")
    if not circumradius > 0:
        raise ValueError("circumradius must be positive")
    k = np.arange(n)
    ang = math.pi / 2 - math.pi / n + TWO_PI * k / n
    return ConvexPolygon(circumradius * np.column_stack([np.cos(ang), np.sin(ang)]))


def _sector_offset(n: int, theta, out=None, floor_out=None):
    f = np.divide(theta, TWO_PI / n, out=out)
    f -= np.floor(f, out=floor_out)
    f -= 0.5
    f *= TWO_PI / n
    return f


def ngon_upper(n: int, circumradius: float, theta, out=None):
    """Upper support height of ``regular_ngon(n, circumradius)`` at theta.

    The vertex nearest the top is u = mod(theta, s) - s/2 off vertical,
    s = 2*pi/n, so the height is R*cos(u); u is taken as s*(f - floor(f)
    - 1/2), f = theta/s, within 1 ulp of max(|theta|, 1).  The lower
    curve is ``-ngon_upper(n, R, theta + pi)``.  ``out``, an array shaped
    like theta (theta itself is fine), receives the heights in place.
    """
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise ValueError(f"a regular polygon needs an integer n >= 3, got {n!r}")
    return np.multiply(circumradius, np.cos(_sector_offset(n, theta, out), out=out), out=out)


def contour_point(c: SmoothContour, beta):
    """Boundary point at parameter beta, relative to the contour centre.

    beta may be a scalar (returns shape (2,)) or an array (returns
    (..., 2) with the components stacked on the last axis).
    """
    b = np.asarray(beta, dtype=float)
    if c.kind == "ellipse":
        x = c.a * np.cos(b)
        y = c.b * np.sin(b)
    else:
        r = c._r(b)
        x = r * np.cos(b)
        y = r * np.sin(b)
    return np.stack([x, y], axis=-1)


def contour_tangent(c: SmoothContour, beta):
    """Derivative of ``contour_point`` with respect to beta (not normalized)."""
    b = np.asarray(beta, dtype=float)
    if c.kind == "ellipse":
        x = -c.a * np.sin(b)
        y = c.b * np.cos(b)
    else:
        r = c._r(b)
        r1 = c._r(b, 1)
        x = r1 * np.cos(b) - r * np.sin(b)
        y = r1 * np.sin(b) + r * np.cos(b)
    return np.stack([x, y], axis=-1)


def tangency_roots(c: SmoothContour, theta: ArrayLike) -> NDArray[np.float64]:
    """Boundary parameters ``(beta_upper, beta_lower)`` whose tangent is
    horizontal after rotation by theta, in [0, 2*pi): one array of shape
    ``(2,) + theta.shape`` for a scalar or an array theta.

    The projected tangent g(beta) = tx*sin(theta) + ty*cos(theta) is the
    derivative of the rotated point's Y coordinate, so its roots are the
    support points.  On a strictly convex contour the highest and the
    lowest of 720 grid points, made once per call, each sit within one
    grid cell of a root at every angle; scipy's ``brentq`` closes it over
    the two cells around that point to 1e-14.  g is measured in a
    power-of-two unit of the contour's size, so the heights scale exactly
    with the contour and brentq's steps neither underflow nor overflow.
    """
    th = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(th)):
        raise ValueError("theta must be finite")
    from scipy.optimize import brentq

    grid = TWO_PI * np.arange(SCAN_SAMPLES) / SCAN_SAMPLES
    lo, hi = grid - TWO_PI / SCAN_SAMPLES, grid + TWO_PI / SCAN_SAMPLES
    p = contour_point(c, grid)
    exponent = -int(np.frexp(np.abs(p).max())[1])

    def g(beta, s, co):
        t = np.ldexp(contour_tangent(c, beta), exponent)
        return t[0] * s + t[1] * co

    def roots(s, co):
        y = p[:, 0] * s + p[:, 1] * co
        return [brentq(g, lo[k], hi[k], args=(s, co), xtol=ROOT_XTOL) for k in (y.argmax(), y.argmin())]

    beta = [roots(math.sin(t), math.cos(t)) for t in th.flat]
    return reduce_angle(np.reshape(np.transpose(beta), (2,) + th.shape))


def polygon_envelope(p: ConvexPolygon, theta):
    """Upper and lower silhouette heights of a rotated polygon.

    Returns ``(y_s, y_i, idx_upper, idx_lower)``, each of theta's shape,
    where the indices say which vertex realizes each extreme.  Vertex i
    is the highest while (sin theta, cos theta) lies between the outward
    normals of edges i - 1 and i, so one sorted search over the normals
    finds it; a direction exactly on a normal goes to the lower vertex
    index, which is vertex 0 on the last normal.
    """
    th = np.asarray(theta, dtype=float)
    s, co = np.sin(th), np.cos(th)
    base = p.pole_offset[0] * s + p.pole_offset[1] * co
    normals = p._normals

    def vertex(angle):
        # Lift the angle, from arctan2's [-pi, pi], to normals[0] or above.
        angle = np.where(angle < normals[0], angle + TWO_PI, angle)
        return np.where(angle < normals[-1], np.searchsorted(normals, angle), 0)

    iu = vertex(np.arctan2(co, s))
    il = vertex(np.arctan2(-co, -s))
    vx, vy = p.vertices.T
    return vx[iu] * s + vy[iu] * co + base, vx[il] * s + vy[il] * co + base, iu, il


def support_heights(shape: Shape, theta):
    """Upper and lower heights (Y_s, Y_i) of the silhouette at angle theta.

    theta may be a scalar, which gives two floats, or an array, which
    gives two arrays of its shape.  Heights are measured from the pole,
    which is the origin of body coordinates.  For a SmoothContour one
    ``tangency_roots`` call finds the tangency points of every angle;
    the pole offset is then projected and added over the whole array.
    A non-finite angle raises ValueError.
    """
    th = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(th)):
        raise ValueError("theta must be finite")
    if isinstance(shape, ConvexPolygon):
        ys, yi, _, _ = polygon_envelope(shape, th)
    else:
        pts = contour_point(shape, tangency_roots(shape, th))
        ys, yi = rot_proj(shape.pole_offset, th) + (pts[..., 0] * np.sin(th) + pts[..., 1] * np.cos(th))
    if th.ndim == 0:
        return float(ys), float(yi)
    return ys, yi
