"""Trace synthesis and the worked closed-form solutions.

``trace`` drives the generic machinery: integrate the motion, then query
the support heights at all sampled angles in one call.  ``closed_form``
evaluates the five cases that admit explicit formulas (circle about its
centre, circle about a rim point, centred ellipse, centred square,
centred equilateral triangle); ``oracle_check(case)`` pits the generic
path on ``case.shape()`` against the formula and reports the worst
disagreement, which is the main validation tool of the whole package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional

import numpy as np

from .geometry import (
    TWO_PI,
    ConvexPolygon,
    Shape,
    SmoothContour,
    reduce_angle,
    regular_ngon,
    support_heights,
)
from .motion import MotionProfile, TimeGrid, integrate

VARIANTS = ("circle_center", "circle_rim", "ellipse_center", "square_center", "triangle_center")


@dataclass(frozen=True, eq=False)
class KinematicImage:
    """Sampled trace: film positions z with upper/lower heights at each.

    z must be strictly increasing and y_s >= y_i at every sample; the
    arrays are copied and frozen.  ``meta`` optionally records how the
    image was produced (shape description, profile, grid) and is carried
    along untouched.
    """

    z: np.ndarray
    y_s: np.ndarray
    y_i: np.ndarray
    meta: Optional[Mapping[str, Any]] = None

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        ys = np.asarray(self.y_s, dtype=float)
        yi = np.asarray(self.y_i, dtype=float)
        if not (z.ndim == 1 and z.shape == ys.shape == yi.shape):
            raise ValueError("z, y_s, y_i must be 1-d arrays of equal length")
        if z.size < 2:
            raise ValueError("an image needs at least 2 samples")
        for name, arr in (("z", z), ("y_s", ys), ("y_i", yi)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if not np.all(np.diff(z) > 0):
            raise ValueError("z must be strictly increasing")
        if not np.all(ys >= yi):
            raise ValueError("y_s must not fall below y_i")
        for name, arr in (("z", z), ("y_s", ys), ("y_i", yi)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.z.size

    @property
    def width(self) -> np.ndarray:
        """Silhouette width H(z) = y_s - y_i; independent of the pole."""
        return self.y_s - self.y_i


@dataclass(frozen=True)
class ClosedFormCase:
    """One of the five shapes whose trace has an explicit formula.

    ``a`` is the radius for the circle variants, the larger semi-axis for
    the ellipse, and the side length for the square and the triangle;
    ``b`` is the smaller semi-axis and only the ellipse uses it.
    """

    variant: str
    a: float
    b: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not self.a > 0:
            raise ValueError("dimension a must be positive")
        if self.variant == "ellipse_center":
            if not self.b > 0:
                raise ValueError("ellipse needs b > 0")
            if self.a < self.b:
                raise ValueError("ellipse closed form expects a >= b")

    @classmethod
    def circle_center(cls, a: float) -> "ClosedFormCase":
        return cls("circle_center", float(a))

    @classmethod
    def circle_rim(cls, a: float) -> "ClosedFormCase":
        return cls("circle_rim", float(a))

    @classmethod
    def ellipse_center(cls, a: float, b: float) -> "ClosedFormCase":
        return cls("ellipse_center", float(a), float(b))

    @classmethod
    def square_center(cls, side: float) -> "ClosedFormCase":
        return cls("square_center", float(side))

    @classmethod
    def triangle_center(cls, side: float) -> "ClosedFormCase":
        return cls("triangle_center", float(side))

    def shape(self) -> Shape:
        """The shape this case's formula describes, pole included."""
        a = self.a
        if self.variant == "circle_center":
            return SmoothContour.circle(a)
        if self.variant == "circle_rim":
            return SmoothContour.circle(a, (a, 0.0))
        if self.variant == "ellipse_center":
            return SmoothContour.ellipse(a, self.b)
        if self.variant == "square_center":
            return regular_ngon(4, a * math.sqrt(2.0) / 2.0)
        return regular_ngon(3, a * math.sqrt(3.0) / 3.0)


def trace(shape: Shape, m: MotionProfile, grid: TimeGrid) -> KinematicImage:
    """Kinematic image of ``shape`` under motion ``m`` on the given grid.

    Each sample is computed independently from the instantaneous angle;
    nothing is propagated between samples, so there is no drift and
    polygon corner switches cost nothing.
    """
    t = grid.times()
    theta, z = integrate(m, t)
    ys, yi = support_heights(shape, theta)
    meta = {"shape": _describe(shape), "profile": m, "grid": grid}
    return KinematicImage(z=z, y_s=ys, y_i=yi, meta=meta)


def _describe(shape: Shape) -> str:
    if isinstance(shape, ConvexPolygon):
        return f"polygon[{len(shape)}]"
    return shape.kind


def closed_form(case: ClosedFormCase, theta):
    """(Y_s, Y_i) for a worked case; theta is a scalar or an array.

    Angles are reduced to [0, 2*pi) first so the piecewise branches can
    compare against their interval bounds directly.
    """
    th = reduce_angle(np.asarray(theta, dtype=float))
    th = np.asarray(th, dtype=float)
    scalar = th.ndim == 0
    if scalar:
        th = th[None]

    a = case.a
    if case.variant == "circle_center":
        ys = np.full_like(th, a)
        yi = -ys
    elif case.variant == "circle_rim":
        ys = a * (np.sin(th) + 1.0)
        yi = a * (np.sin(th) - 1.0)
    elif case.variant == "ellipse_center":
        ys = np.sqrt(a**2 * np.sin(th) ** 2 + case.b**2 * np.cos(th) ** 2)
        yi = -ys
    elif case.variant == "square_center":
        ys = _square_upper(a, th)
        yi = -ys
    else:
        ys, yi = _triangle_heights(a, th)

    if scalar:
        return float(ys[0]), float(yi[0])
    return ys, yi


def _square_upper(a: float, th: np.ndarray) -> np.ndarray:
    # One controlling corner per quarter turn; the four projections are
    # (a/2)(+-sin +- cos) with the sign pattern cycling A, D, C, B.
    q = np.clip((th // (math.pi / 2)).astype(int), 0, 3)
    sx = np.array([1.0, 1.0, -1.0, -1.0])[q]
    sy = np.array([1.0, -1.0, -1.0, 1.0])[q]
    return 0.5 * a * (sx * np.sin(th) + sy * np.cos(th))


def _triangle_heights(a: float, th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = a * math.sqrt(3.0) / 6.0
    f_a = c * (math.sqrt(3.0) * np.sin(th) + np.cos(th))
    f_b = c * (-math.sqrt(3.0) * np.sin(th) + np.cos(th))
    f_c = -2.0 * c * np.cos(th)

    third = TWO_PI / 3.0
    ju = np.clip((th // third).astype(int), 0, 2)
    ys = np.choose(ju, [f_a, f_c, f_b])

    jl = np.digitize(th, [math.pi / 3.0, math.pi, 5.0 * math.pi / 3.0])
    yi = np.choose(jl, [f_c, f_b, f_a, f_c])
    return ys, yi


def oracle_check(case: ClosedFormCase, n_theta: int = 1000) -> float:
    """Worst componentwise gap between the generic path and the closed form.

    Compares ``support_heights(case.shape(), theta)`` with
    ``closed_form(case, theta)`` at n_theta angles uniform over a full
    turn; the case builds its own shape, so the pair always matches.
    """
    if n_theta < 1:
        raise ValueError("n_theta must be >= 1")
    thetas = TWO_PI * np.arange(n_theta) / n_theta
    ys, yi = support_heights(case.shape(), thetas)
    cs, ci = closed_form(case, thetas)
    return float(max(np.max(np.abs(ys - cs)), np.max(np.abs(yi - ci))))
