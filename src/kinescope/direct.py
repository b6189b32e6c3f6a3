"""Trace synthesis and the worked closed-form solutions.

``trace`` drives the generic machinery: integrate the motion, then query
the support heights at all sampled angles in one call.  ``closed_form``
evaluates the five cases that admit explicit formulas with two support
functions: the ellipse's for the conics (circle about its centre, circle
about a rim point, centred ellipse) and the regular n-gon's for the
centred square and equilateral triangle.  ``oracle_check(case)`` pits
the generic path on ``case.shape()`` against the formula and reports the
worst disagreement, which is the main validation tool of the whole
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    TWO_PI,
    Shape,
    SmoothContour,
    ngon_upper,
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
    arrays are copied and frozen.
    """

    z: np.ndarray
    y_s: np.ndarray
    y_i: np.ndarray

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


@dataclass(frozen=True)
class ClosedFormCase:
    """One of the five shapes whose trace has an explicit formula.

    ``a`` is the radius for the circle variants, the larger semi-axis for
    the ellipse, and the side length for the square and the triangle;
    ``b`` is the ellipse's smaller semi-axis; the other variants have no
    second dimension and take b = 0.
    """

    variant: str
    a: float
    b: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        # The conic formula squares a; a float multiply overflows to inf.
        if not (self.a > 0 and self.a * self.a < math.inf):
            raise ValueError("dimension a must be positive, with a finite square")
        if self.variant == "ellipse_center":
            if not self.b > 0:
                raise ValueError("ellipse needs b > 0")
            if self.a < self.b:
                raise ValueError("ellipse closed form expects a >= b")
        elif self.b != 0:
            raise ValueError(f"only the ellipse takes b; {self.variant} got b={self.b!r}")

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

    def _ngon(self) -> tuple[int, float]:
        """(n, circumradius) of the square or the triangle of side a."""
        if self.variant == "square_center":
            return 4, self.a * math.sqrt(2.0) / 2.0
        return 3, self.a * math.sqrt(3.0) / 3.0

    def shape(self) -> Shape:
        """The shape this case's formula describes, pole included."""
        a = self.a
        if self.variant in ("square_center", "triangle_center"):
            return regular_ngon(*self._ngon())
        if self.variant == "ellipse_center":
            return SmoothContour.ellipse(a, self.b)
        return SmoothContour.circle(a, (a, 0.0) if self.variant == "circle_rim" else (0.0, 0.0))


def trace(shape: Shape, m: MotionProfile, grid: TimeGrid) -> KinematicImage:
    """Kinematic image of ``shape`` under motion ``m`` on the given grid.

    Each sample is computed independently from the instantaneous angle;
    nothing is propagated between samples, so there is no drift and
    polygon corner switches cost nothing.
    """
    t = grid.times()
    theta, z = integrate(m, t)
    ys, yi = support_heights(shape, theta)
    return KinematicImage(z=z, y_s=ys, y_i=yi)


def closed_form(case: ClosedFormCase, theta):
    """(Y_s, Y_i) for a worked case; theta is a scalar or an array.

    Each case is one of two support functions.  The square and the
    triangle use the regular n-gon's ``ngon_upper``, whose lower curve is
    the upper one half a turn on.  The conics use the centred ellipse's
    sqrt(a^2 sin^2 + b^2 cos^2), with b = a for both circles, and are
    symmetric.  A rim pole lifts both curves by a*sin(theta).  Angles are
    reduced to [0, 2*pi) first, so the result is exactly 2*pi-periodic.
    """
    th = reduce_angle(np.asarray(theta, dtype=float))
    a = case.a
    if case.variant in ("square_center", "triangle_center"):
        n, R = case._ngon()
        up, down = ngon_upper(n, R, th), ngon_upper(n, R, th + math.pi)
    else:
        b = case.b if case.variant == "ellipse_center" else a
        up = down = np.sqrt(a**2 * np.sin(th) ** 2 + b**2 * np.cos(th) ** 2)
    lift = a * np.sin(th) if case.variant == "circle_rim" else 0.0
    return lift + up, lift - down


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
