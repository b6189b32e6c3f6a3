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

# Grid density for bracketing tangency roots.  The highest and the lowest
# of 720 boundary samples each sit in or next to the grid cell that holds
# a root, and that cell is then bisected; 720 is far more than a strictly
# convex contour needs, and cheap.
SCAN_SAMPLES = 720

# Bisection stops when the bracket is narrower than this.  The support
# height is stationary at the root, so an angle error of 1e-14 perturbs
# the height at second order, far below every tolerance we quote.
BISECT_TOL = 1e-14

# Points at which a sampled-polar contour is tested for strict convexity.
CONVEXITY_SAMPLES = 2048

Vec2 = NDArray[np.float64]


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
    if np.ndim(t) == 0:
        t = float(t)
        return 0.0 if t >= TWO_PI else t
    t = np.asarray(t, dtype=float)
    t[t >= TWO_PI] = 0.0
    return t


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
    constructor is not validated for the polar case.
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
        cubic spline, which wraps any beta into its own period.  Raises ConvexityViolation if the interpolated curve
        is not strictly convex (the polar criterion
        r^2 + 2 r'^2 - r r'' > 0 is checked on a dense grid).
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
        from scipy.interpolate import CubicSpline

        knots = np.concatenate([beta, [beta[0] + TWO_PI]])
        values = np.concatenate([r, [r[0]]])
        spline = CubicSpline(knots, values, bc_type="periodic")

        probe = beta[0] + TWO_PI * np.arange(CONVEXITY_SAMPLES) / CONVEXITY_SAMPLES
        rr = spline(probe)
        r1 = spline(probe, 1)
        r2 = spline(probe, 2)
        # Signed curvature of a polar curve is proportional to this; it must
        # keep one sign for the tangent direction never to reverse.
        turn = rr * rr + 2.0 * r1 * r1 - rr * r2
        if not np.all(turn > 0):
            raise ConvexityViolation(
                "polar contour is not strictly convex "
                f"(min turning term {turn.min():.3e} at beta {probe[np.argmin(turn)]:.4f})"
            )
        return cls(kind="polar", pole_offset=pole_offset, _r=spline)


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """A strictly convex polygon, counterclockwise vertices in body coordinates.

    Vertices are measured from the polygon's own frame origin;
    ``pole_offset`` is the vector from the rotation pole to that origin,
    exactly as for SmoothContour.  A clockwise winding, a reflex corner
    or collinear consecutive vertices raise ConvexityViolation.  The
    vertex array is frozen after construction.
    """

    vertices: NDArray[np.float64]
    pole_offset: Vec2 = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("vertices must be an (n, 2) array with n >= 3")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        if not np.all(_edge_cross(v) > 0):
            raise ConvexityViolation(
                "vertices do not form a strictly convex counterclockwise polygon"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "pole_offset", _as_vec2(self.pole_offset, "pole_offset"))

    def __len__(self) -> int:
        return self.vertices.shape[0]


Shape = Union[SmoothContour, ConvexPolygon]


def _edge_cross(v: np.ndarray) -> np.ndarray:
    """Cross products of consecutive edge pairs, one per corner."""
    edges = np.roll(v, -1, axis=0) - v
    nxt = np.roll(edges, -1, axis=0)
    return edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]


def regular_ngon(n: int, circumradius: float) -> ConvexPolygon:
    """Regular n-gon centred on the pole, top edge horizontal.

    The first vertex sits at angle pi/2 - pi/n so the edge between the
    first two vertices is centred on the +Y axis.  With that phase the
    square of side a has vertices (+-a/2, +-a/2) and its trace starts,
    at theta = 0, flat side up.
    """
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    if not circumradius > 0:
        raise ValueError("circumradius must be positive")
    k = np.arange(n)
    ang = math.pi / 2 - math.pi / n + TWO_PI * k / n
    return ConvexPolygon(circumradius * np.column_stack([np.cos(ang), np.sin(ang)]))


def ngon_upper(n: int, circumradius: float, theta):
    """Upper support height of ``regular_ngon(n, circumradius)`` at theta.

    The vertex nearest the top is mod(theta, s) - s/2 off vertical, with
    s = 2*pi/n, so the height is R*cos of that.  The lower curve is
    ``-ngon_upper(n, R, theta + pi)``.
    """
    s = TWO_PI / n
    return circumradius * np.cos(np.mod(theta, s) - 0.5 * s)


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


def _bisect(g, lo: float, hi: float, rising: float) -> float:
    # Plain bisection; the caller guarantees g has rising's sign at lo, not at hi.
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0) == (rising > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tangency_roots(c: SmoothContour, theta: float) -> tuple[float, float]:
    """Find the two boundary parameters ``(beta_upper, beta_lower)`` whose
    tangent is horizontal after rotation by theta.

    The projected tangent g(beta) = tx*sin(theta) + ty*cos(theta) is the
    derivative of the rotated point's Y coordinate, so its roots are the
    support points.  On a strictly convex contour that height has one
    maximum and one minimum over a turn, so the highest and the lowest
    of 720 grid points each sit next to one root.  The sign of g there
    says whether the root lies in the grid cell after or before it, and
    that one cell is closed down by bisection to a width of 1e-14.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    s, co = math.sin(theta), math.cos(theta)

    def g(beta):
        t = contour_tangent(c, beta)
        return t[..., 0] * s + t[..., 1] * co

    grid = TWO_PI * np.arange(SCAN_SAMPLES) / SCAN_SAMPLES

    def root(k: int, rising: float) -> float:
        # rising is +1 at the maximum, -1 at the minimum.  While the height still
        # moves toward the extreme at grid[k], the root is in the cell after it;
        # else in the cell before (grid[-1] wraps).  Either way g at the cell's
        # start has the sign of rising.
        g_k = float(g(grid[k]))
        if g_k == 0.0:
            return float(grid[k])
        lo = float(grid[k]) if g_k * rising > 0 else float(grid[k - 1])
        return _bisect(g, lo, lo + TWO_PI / SCAN_SAMPLES, rising)

    p = contour_point(c, grid)
    y = p[:, 0] * s + p[:, 1] * co
    return root(int(np.argmax(y)), 1.0), root(int(np.argmin(y)), -1.0)


def polygon_envelope(p: ConvexPolygon, theta):
    """Upper and lower silhouette heights of a rotated polygon.

    Returns ``(y_s, y_i, idx_upper, idx_lower)`` where the indices say
    which vertex realizes each extreme.  theta may be a scalar or an
    array; exact ties go to the lowest vertex index (np.argmax's rule).
    """
    th = np.asarray(theta, dtype=float)
    s = np.sin(th)
    co = np.cos(th)
    # heights[i, ...] = Y of vertex i after rotation, measured from the pole
    base = p.pole_offset[0] * s + p.pole_offset[1] * co
    heights = np.multiply.outer(p.vertices[:, 0], s) + np.multiply.outer(p.vertices[:, 1], co) + base
    if th.ndim == 0:
        iu = int(np.argmax(heights))
        il = int(np.argmin(heights))
        return float(heights[iu]), float(heights[il]), iu, il
    iu = np.argmax(heights, axis=0)
    il = np.argmin(heights, axis=0)
    ys = np.take_along_axis(heights, iu[None, ...], axis=0)[0]
    yi = np.take_along_axis(heights, il[None, ...], axis=0)[0]
    return ys, yi, iu, il


def support_heights(shape: Shape, theta):
    """Upper and lower heights (Y_s, Y_i) of the silhouette at angle theta.

    theta may be a scalar, which gives two floats, or an array, which
    gives two arrays of its shape.  Heights are measured from the pole,
    which is the origin of body coordinates.  For a SmoothContour the
    tangency points are found one angle at a time; the pole offset is
    then projected and added to their heights over the whole array.
    A non-finite angle raises ValueError.
    """
    th = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(th)):
        raise ValueError("theta must be finite")
    if isinstance(shape, ConvexPolygon):
        ys, yi, _, _ = polygon_envelope(shape, th)
        return ys, yi
    beta = np.array([tangency_roots(shape, t) for t in th.flat]).T.reshape((2,) + th.shape)
    pts = contour_point(shape, beta)
    ys, yi = rot_proj(shape.pole_offset, th) + (pts[..., 0] * np.sin(th) + pts[..., 1] * np.cos(th))
    if th.ndim == 0:
        return float(ys), float(yi)
    return ys, yi
