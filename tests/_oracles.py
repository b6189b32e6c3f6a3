"""Independent oracles and random-shape factories for the tests.

Heights are cross-checked by dense sampling of the rotated boundary and
motion integrals by midpoint quadrature on a fine grid, so agreement is
between two different derivations, not one code path called twice.
"""

import math

import numpy as np
from scipy.spatial import ConvexHull

from kinescope import ConvexPolygon, SmoothContour, contour_point
# The tests and ``kinescope check`` draw their random ellipses from one place.
from kinescope.cli import _random_ellipse as random_ellipse  # noqa: F401
from kinescope.errors import ConvexityViolation

TWO_PI = 2.0 * math.pi


def brute_heights(contour: SmoothContour, theta: float, n: int = 100_000):
    """Max/min rotated Y over n dense boundary samples, pole included."""
    beta = TWO_PI * np.arange(n) / n
    pts = contour_point(contour, beta)
    x = pts[:, 0] + contour.pole_offset[0]
    y = pts[:, 1] + contour.pole_offset[1]
    proj = x * math.sin(theta) + y * math.cos(theta)
    return float(proj.max()), float(proj.min())


def brute_polygon_heights(p: ConvexPolygon, theta):
    """Max and min over every vertex of its rotated height, pole included.

    The n x S search over all vertices at once.  Also returns, per angle,
    the gaps between the two highest and between the two lowest heights:
    where a gap is tiny, two vertices tie up to rounding.
    """
    th = np.asarray(theta, dtype=float)
    s, co = np.sin(th), np.cos(th)
    base = p.pole_offset[0] * s + p.pole_offset[1] * co
    vx, vy = p.vertices.T
    heights = np.multiply.outer(vx, s) + np.multiply.outer(vy, co) + base
    heights.sort(axis=0)
    return heights[-1], heights[0], heights[-1] - heights[-2], heights[1] - heights[0]


def midpoint_integral(pairs, t: float, steps: int = 400_000) -> float:
    """Midpoint-rule integral of a piecewise-constant profile over [0, t]."""
    breaks = np.array([p[0] for p in pairs])
    values = np.array([p[1] for p in pairs])
    h = t / steps
    mid = (np.arange(steps) + 0.5) * h
    j = np.searchsorted(breaks, mid, side="right") - 1
    return float(np.sum(values[j]) * h)


def random_convex_polygon(rng: np.random.Generator, n_pts: int = 10) -> ConvexPolygon:
    """Convex hull of gaussian points; retried until strictly convex."""
    while True:
        pts = rng.normal(size=(n_pts, 2))
        hull = ConvexHull(pts)
        try:
            return ConvexPolygon(pts[hull.vertices])
        except ConvexityViolation:
            continue


def random_convex_polar(rng: np.random.Generator, n_pts: int = 48) -> SmoothContour:
    """Low-harmonic wobble on a circle, rejected until strictly convex."""
    beta = TWO_PI * np.arange(n_pts) / n_pts
    while True:
        r0 = rng.uniform(0.8, 1.5)
        r = np.full(n_pts, r0)
        for k in range(1, int(rng.integers(2, 5)) + 1):
            amp = rng.uniform(0.0, 0.06) * r0 / (k * k)
            r += amp * np.cos(k * beta + rng.uniform(0.0, TWO_PI))
        try:
            return SmoothContour.from_polar(beta, r)
        except ConvexityViolation:
            continue


def reentrant_polar_table(n_pts: int = 64):
    """(beta, r) samples of a contour with three deep reentrant lobes."""
    beta = TWO_PI * np.arange(n_pts) / n_pts
    return beta, 1.0 + 0.6 * np.cos(3.0 * beta)


def shape_diameter(shape) -> float:
    if isinstance(shape, ConvexPolygon):
        v = shape.vertices
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(d2.max()))
    if shape.kind == "ellipse":
        return 2.0 * shape.a
    beta = TWO_PI * np.arange(720) / 720
    pts = contour_point(shape, beta)
    return float(2.0 * np.hypot(pts[:, 0], pts[:, 1]).max())
