import math
from dataclasses import replace

import numpy as np
import pytest

from kinescope import (
    ClosedFormCase,
    ConvexPolygon,
    KinematicImage,
    MotionProfile,
    SmoothContour,
    TimeGrid,
    closed_form,
    oracle_check,
    regular_ngon,
    trace,
)

from _oracles import random_convex_polar, random_convex_polygon

TWO_PI = 2.0 * math.pi

UNIT_MOTION = MotionProfile(omega=1.0, film_speed=1.0)


def test_trace_circle_center_is_strip():
    img = trace(SmoothContour.circle(1.0), UNIT_MOTION, TimeGrid(duration=TWO_PI, samples=512))
    assert len(img) == 512
    assert np.max(np.abs(img.y_s - 1.0)) < 1e-12
    assert np.max(np.abs(img.y_i + 1.0)) < 1e-12
    assert np.max(np.abs(img.y_s - img.y_i - 2.0)) < 1e-12


def test_trace_circle_rim_is_sine_wave():
    rim = SmoothContour.circle(1.0, pole_offset=(1.0, 0.0))
    img = trace(rim, UNIT_MOTION, TimeGrid(duration=2 * TWO_PI, samples=1024))
    assert np.max(np.abs(img.y_s - (1.0 + np.sin(img.z)))) < 1e-9
    assert np.max(np.abs(img.y_i - (img.y_s - 2.0))) < 1e-9


def test_trace_ellipse_matches_closed_curve():
    img = trace(SmoothContour.ellipse(2.0, 1.0), UNIT_MOTION, TimeGrid(duration=TWO_PI, samples=256))
    want = np.sqrt(4.0 * np.sin(img.z) ** 2 + np.cos(img.z) ** 2)
    assert np.max(np.abs(img.y_s - want)) < 1e-8


def test_trace_sample_count():
    grid = TimeGrid(duration=1.0, samples=33)
    img = trace(regular_ngon(5, 1.0), UNIT_MOTION, grid)
    assert len(img) == grid.samples


def test_rim_wave_spans_zero_to_two_a():
    a = 1.4
    rim = SmoothContour.circle(a, pole_offset=(a, 0.0))
    img = trace(rim, UNIT_MOTION, TimeGrid(duration=TWO_PI, samples=4096))
    assert abs(float(img.y_s.max()) - 2.0 * a) < 1e-5
    assert abs(float(img.y_s.min())) < 1e-5


def test_width_identical_for_center_and_rim_poles():
    grid = TimeGrid(duration=TWO_PI, samples=777)
    center = trace(SmoothContour.circle(1.0), UNIT_MOTION, grid)
    rim = trace(SmoothContour.circle(1.0, pole_offset=(1.0, 0.0)), UNIT_MOTION, grid)
    assert np.max(np.abs((center.y_s - center.y_i) - (rim.y_s - rim.y_i))) < 1e-10


def test_trace_periodicity_of_symmetric_shapes():
    # k-fold symmetry about the pole gives Y_s a period of 2*pi*v/(k*omega)
    cases = [
        (regular_ngon(4, 0.9), 4),
        (regular_ngon(3, 1.1), 3),
        (SmoothContour.ellipse(2.0, 1.0), 2),
    ]
    for shape, k in cases:
        n_per = 256
        grid = TimeGrid(duration=TWO_PI, samples=k * n_per + 1)
        img = trace(shape, UNIT_MOTION, grid)
        shifted = img.y_s[n_per:]
        assert np.max(np.abs(shifted - img.y_s[: len(shifted)])) < 1e-9



def polar_table(p: SmoothContour):
    """The (beta, r) knots of a polar contour's spline."""
    beta = p._r.x[:-1]
    return beta, p._r(beta)


def turned(p, a: float):
    """The shape, pole offset included, turned by a about the pole.

    A polar contour's table must be uniform from beta = 0, and a a whole
    number of its knot steps: r(beta - a) is then the table shifted.
    """
    c, s = math.cos(a), math.sin(a)
    turn = np.array([[c, s], [-s, c]])  # a row vector times this is turned by a
    if isinstance(p, ConvexPolygon):
        return ConvexPolygon(p.vertices @ turn, p.pole_offset @ turn)
    beta, r = polar_table(p)
    return SmoothContour.from_polar(beta, np.roll(r, round(a / beta[1])), p.pole_offset @ turn)


def mirrored(p):
    """The shape reflected in its vertical axis (a polygon still counterclockwise).

    A polar contour's table must be uniform from beta = 0, of even length:
    r(pi - beta) is then the table read backwards from beta = pi.
    """
    if isinstance(p, ConvexPolygon):
        return ConvexPolygon(p.vertices[::-1] * [-1.0, 1.0], p.pole_offset * [-1.0, 1.0])
    beta, r = polar_table(p)
    return SmoothContour.from_polar(beta, r[(beta.size // 2 - np.arange(beta.size)) % beta.size],
                                    p.pole_offset * [-1.0, 1.0])


def check_invariance(shape, change: str, rng, turns: int, samples: int) -> None:
    # Each change of the motion is a known change of the trace: theta0 + a
    # traces the polygon turned by a; z0 shifts z and a film four times as
    # fast stretches it, both exactly, with the heights untouched; -omega
    # traces the mirror image; a moved pole keeps the width; half a turn
    # swaps the curves.  Tolerances are those of the height oracles.  A
    # turned or mirrored polar table is a new spline, equal to the old one
    # moved only up to rounding, so it is turned by whole knot steps and
    # held to the same 1e-10.
    omega, speed, theta0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, TWO_PI)
    motion = MotionProfile(omega=omega, film_speed=speed, theta0=theta0)
    grid = TimeGrid(duration=turns * TWO_PI / omega, samples=samples)
    base = trace(shape, motion, grid)
    if change == "pole":
        got = trace(replace(shape, pole_offset=rng.uniform(-5.0, 5.0, size=2)), motion, grid)
        assert np.array_equal(got.z, base.z)
        assert np.max(np.abs((got.y_s - got.y_i) - (base.y_s - base.y_i))) < 1e-9
        return
    if change == "theta0":
        a = rng.uniform(0.0, TWO_PI)
        if isinstance(shape, SmoothContour):
            step = polar_table(shape)[0][1]
            a = step * round(a / step)
        got = trace(shape, replace(motion, theta0=theta0 + a), grid)
        want, tol = trace(turned(shape, a), motion, grid), 1e-10
    elif change == "z0":
        c = rng.uniform(-50.0, 50.0)
        got = trace(shape, replace(motion, z0=c), grid)
        want, tol = KinematicImage(z=c + base.z, y_s=base.y_s, y_i=base.y_i), 0.0
    elif change == "film_speed":
        got = trace(shape, replace(motion, film_speed=4.0 * speed), grid)
        want, tol = KinematicImage(z=4.0 * base.z, y_s=base.y_s, y_i=base.y_i), 0.0
    elif change == "omega_sign":
        got = trace(shape, replace(motion, omega=-omega, theta0=-theta0), grid)
        want, tol = trace(mirrored(shape), motion, grid), 1e-10
    else:
        got = trace(shape, replace(motion, theta0=theta0 + math.pi), grid)
        want, tol = KinematicImage(z=base.z, y_s=-base.y_i, y_i=-base.y_s), 1e-10
    assert np.array_equal(got.z, want.z)
    assert np.max(np.abs(got.y_s - want.y_s)) <= tol
    assert np.max(np.abs(got.y_i - want.y_i)) <= tol


@pytest.mark.parametrize("change", ["theta0", "z0", "film_speed", "omega_sign", "pole", "reflection"])
def test_trace_invariances_on_random_polygons(change):
    rng = np.random.default_rng(61)
    for _ in range(10):
        shape = replace(random_convex_polygon(rng), pole_offset=rng.uniform(-5.0, 5.0, size=2))
        check_invariance(shape, change, rng, turns=2, samples=1000)


@pytest.mark.parametrize("change", ["theta0", "z0", "film_speed", "omega_sign", "pole", "reflection"])
def test_trace_invariances_on_contours(change):
    # Seeded wobble contours and offset ellipses.  An axis-aligned ellipse
    # turns into itself only by the half turn of "reflection", so only the
    # wobbles, uniform 48-knot tables, are turned and mirrored.
    rng = np.random.default_rng(67)
    shapes = [random_convex_polar(rng) for _ in range(2)]
    shapes += [SmoothContour.ellipse(a, a * rng.uniform(0.3, 0.95)) for a in rng.uniform(1.0, 3.0, 2)]
    if change in ("theta0", "omega_sign"):
        shapes = shapes[:2]
    for shape in shapes:
        shape = replace(shape, pole_offset=rng.uniform(-5.0, 5.0, size=2))
        check_invariance(shape, change, rng, turns=1, samples=150)


def test_closed_form_circle_cases():
    ys, yi = closed_form(ClosedFormCase.circle_center(2.0), 1.3)
    assert (ys, yi) == (2.0, -2.0)
    ys, yi = closed_form(ClosedFormCase.circle_rim(2.0), 0.4)
    assert abs(ys - 2.0 * (math.sin(0.4) + 1.0)) < 1e-15
    assert abs(yi - 2.0 * (math.sin(0.4) - 1.0)) < 1e-15


def test_closed_form_ellipse_values():
    case = ClosedFormCase.ellipse_center(2.0, 1.0)
    assert closed_form(case, 0.0) == (1.0, -1.0)
    ys, _ = closed_form(case, math.pi / 4)
    assert abs(ys - math.sqrt(2.5)) < 1e-15


def test_closed_form_square_quarter_point():
    ys, yi = closed_form(ClosedFormCase.square_center(1.0), math.pi / 4)
    assert abs(ys - math.sqrt(2.0) / 2.0) < 1e-15
    assert abs(yi + math.sqrt(2.0) / 2.0) < 1e-15


def test_closed_form_triangle_worked_values():
    case = ClosedFormCase.triangle_center(1.0)
    ys, yi = closed_form(case, math.pi / 3)
    assert abs(ys - math.sqrt(3.0) / 3.0) < 1e-12
    assert abs(yi + math.sqrt(3.0) / 6.0) < 1e-12
    ys0, yi0 = closed_form(case, 0.0)
    assert abs(ys0 - math.sqrt(3.0) / 6.0) < 1e-15
    assert abs(yi0 + math.sqrt(3.0) / 3.0) < 1e-15


def test_closed_form_array_agrees_with_scalar():
    th = np.linspace(0.0, TWO_PI, 97, endpoint=False)
    for case in (
        ClosedFormCase.circle_rim(1.5),
        ClosedFormCase.ellipse_center(2.0, 0.5),
        ClosedFormCase.square_center(1.2),
        ClosedFormCase.triangle_center(0.8),
    ):
        ys, yi = closed_form(case, th)
        for k in (0, 13, 50, 96):
            s, i = closed_form(case, float(th[k]))
            assert ys[k] == s and yi[k] == i


def test_closed_form_reduces_angle():
    case = ClosedFormCase.triangle_center(1.0)
    assert closed_form(case, 0.25) == closed_form(case, 0.25 + TWO_PI)


def test_oracle_check_worked_cases():
    # ``kinescope check``'s measure, the gap over 512 angles relative to a,
    # holds at its tolerances from tiny sizes to large ones.
    for case, tol in (
        (ClosedFormCase.circle_center(1.0), 1e-12),
        (ClosedFormCase.square_center(1.0), 1e-12),
        (ClosedFormCase.ellipse_center(2.0, 1.0), 1e-8),
        (ClosedFormCase.ellipse_center(3.0, 1.5), 1e-8),
        (ClosedFormCase.circle_rim(2.5), 1e-8),
        (ClosedFormCase.square_center(3.0), 1e-12),
        (ClosedFormCase.triangle_center(2.5), 1e-12),
        (ClosedFormCase.circle_center(0.7), 1e-12),
        (ClosedFormCase.square_center(1e6), 1e-12),
        (ClosedFormCase.triangle_center(1e5), 1e-12),
        (ClosedFormCase.circle_center(1e6), 1e-12),
        # Below 1e-154 the squares of a and b underflow; the closed form
        # takes no square of its own.
        (ClosedFormCase.circle_center(1e-200), 1e-12),
        (ClosedFormCase.circle_rim(2.5e-200), 1e-8),
        (ClosedFormCase.ellipse_center(3e-200, 1.5e-200), 1e-8),
    ):
        assert oracle_check(case) / case.a <= tol, case.variant


def test_closed_form_case_shape_geometry():
    square = ClosedFormCase.square_center(1.0).shape()
    corners = {(float(x), float(y)) for x, y in np.round(square.vertices, 12)}
    assert corners == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}
    assert np.array_equal(square.pole_offset, [0.0, 0.0])
    rim = ClosedFormCase.circle_rim(2.5).shape()
    assert (rim.kind, rim.a, rim.b) == ("ellipse", 2.5, 2.5)
    assert np.array_equal(rim.pole_offset, [2.5, 0.0])
    centre = ClosedFormCase.circle_center(0.7).shape()
    assert (centre.kind, centre.a, centre.b) == ("ellipse", 0.7, 0.7)
    assert np.array_equal(centre.pole_offset, [0.0, 0.0])
    ellipse = ClosedFormCase.ellipse_center(3.0, 1.5).shape()
    assert (ellipse.kind, ellipse.a, ellipse.b) == ("ellipse", 3.0, 1.5)
    triangle = ClosedFormCase.triangle_center(2.5).shape()
    sides = np.linalg.norm(triangle.vertices - np.roll(triangle.vertices, 1, axis=0), axis=1)
    assert np.max(np.abs(sides - 2.5)) < 1e-12


def test_closed_form_case_validation():
    with pytest.raises(ValueError):
        ClosedFormCase("pentagon_center", 1.0)
    with pytest.raises(ValueError):
        ClosedFormCase.circle_center(0.0)
    with pytest.raises(ValueError):
        ClosedFormCase.ellipse_center(1.0, 2.0)
    for bad in (math.inf, math.nan, 1e200):
        with pytest.raises(ValueError):
            ClosedFormCase.circle_center(bad)
    with pytest.raises(ValueError):
        ClosedFormCase.ellipse_center(1e200, 1.0)  # a**2 would overflow
    # Only the ellipse has a second dimension.
    with pytest.raises(ValueError):
        ClosedFormCase("square_center", 1.0, 5.0)
    with pytest.raises(ValueError):
        ClosedFormCase("circle_rim", 1.0, -3.0)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="b > 0"):
            ClosedFormCase.ellipse_center(1.0, bad)
    assert ClosedFormCase("square_center", 1.0) == ClosedFormCase.square_center(1.0)


def test_kinematic_image_validation():
    z = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        KinematicImage(z=z[::-1].copy(), y_s=np.ones(3), y_i=-np.ones(3))
    with pytest.raises(ValueError):
        KinematicImage(z=z, y_s=-np.ones(3), y_i=np.ones(3))
    with pytest.raises(ValueError):
        KinematicImage(z=z[:1], y_s=np.ones(1), y_i=np.zeros(1))
    with pytest.raises(ValueError, match="1-d arrays of equal length"):
        KinematicImage(z=z, y_s=np.ones(2), y_i=np.zeros(2))
    with pytest.raises(ValueError, match="1-d arrays of equal length"):
        KinematicImage(z=z[None], y_s=np.ones((1, 3)), y_i=np.zeros((1, 3)))
    img = KinematicImage(z=z, y_s=np.ones(3), y_i=np.zeros(3))
    assert np.array_equal(img.y_s - img.y_i, np.ones(3))
    with pytest.raises(ValueError):
        img.z[0] = 5.0  # frozen
