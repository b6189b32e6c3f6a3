"""Acceptance suite: one test per shipping criterion, run at the quoted
tolerances.  Each test prints a PASS line with the measured worst error so
the log doubles as a numeric report.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from _oracles import (
    brute_heights,
    random_convex_polygon,
    random_ellipse,
    random_convex_polar,
    reentrant_polar_table,
    shape_diameter,
)
from kinescope import (
    CIRCLE,
    ConvexPolygon,
    MotionProfile,
    SmoothContour,
    TimeGrid,
    extremes,
    identify,
    polygon_envelope,
    regular_ngon,
    side_count,
    support_heights,
    trace,
)
from kinescope.cli import run
from kinescope.errors import ConvexityViolation

TWO_PI = 2.0 * math.pi

UNIT = MotionProfile(omega=1.0, film_speed=1.0)

# Axis-aligned unit square with exactly representable corners, labelled
# A, B, C, D counterclockwise from the upper right.
SQUARE = ConvexPolygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])


def shapes_with_offsets():
    """The shared random population for the pole-invariance criteria:
    50 convex polygons and 50 ellipses, each with a random pole offset of
    magnitude up to 10 diameters."""
    rng = np.random.default_rng(2026)
    shapes = [random_convex_polygon(rng) for _ in range(50)]
    shapes += [random_ellipse(rng) for _ in range(50)]
    offsets = []
    for shape in shapes:
        mag = rng.uniform(0.0, 10.0) * shape_diameter(shape)
        ang = rng.uniform(0.0, TWO_PI)
        offsets.append(mag * np.array([math.cos(ang), math.sin(ang)]))
    return shapes, offsets


def test_criterion_01_circle_strip():
    img = trace(SmoothContour.circle(1.0), UNIT, TimeGrid(duration=TWO_PI, samples=2048))
    err = max(
        float(np.max(np.abs(img.y_s - 1.0))),
        float(np.max(np.abs(img.y_i + 1.0))),
        float(np.max(np.abs(img.y_s - img.y_i - 2.0))),
    )
    assert err <= 1e-12
    print(f"PASS criterion 1: circle strip, max error {err:.3e} (tol 1e-12)")


def test_criterion_02_circle_rim_wave():
    rim = SmoothContour.circle(1.0, pole_offset=(1.0, 0.0))
    img = trace(rim, UNIT, TimeGrid(duration=2 * TWO_PI, samples=2048))
    err = float(np.max(np.abs(img.y_s - (1.0 + np.sin(img.z)))))
    assert err <= 1e-9
    print(f"PASS criterion 2: rim wave over two periods, max error {err:.3e} (tol 1e-9)")


def test_criterion_03_ellipse_closed_form():
    thetas = TWO_PI * np.arange(1000) / 1000.0
    worst = 0.0
    # The two flat ellipses: their inscribed 720-gons are rejected as not
    # strictly convex (edge normals round to equal angles along the flat
    # sides), so brackets must not come from a polygon search over them.
    for a, b in [(2.0, 1.0), (5.0, 0.5), (1.0, 1.0), (1.0, 1e-13), (1.0, 1e-300)]:
        contour = SmoothContour.ellipse(a, b)
        want = np.sqrt(a * a * np.sin(thetas) ** 2 + b * b * np.cos(thetas) ** 2)
        for th, w in zip(thetas, want):
            ys, yi = support_heights(contour, float(th))
            worst = max(worst, abs(ys - w), abs(yi + w))
            if a == b == 1.0:
                worst = max(worst, abs(ys - 1.0), abs(yi + 1.0))  # strip case
    assert worst <= 1e-8
    print(f"PASS criterion 3: ellipse solver vs closed form, max error {worst:.3e} (tol 1e-8)")


def test_criterion_04_square_envelope():
    th = TWO_PI * np.arange(10_000) / 10_000.0
    s, c = np.sin(th), np.cos(th)
    quarter = np.minimum(np.floor(th / (math.pi / 2.0)).astype(int), 3)
    upper_ctrl = np.array([0, 3, 2, 1])[quarter]  # A, D, C, B
    lower_ctrl = np.array([2, 1, 0, 3])[quarter]  # antipodes
    v = SQUARE.vertices
    want_ys = v[upper_ctrl, 0] * s + v[upper_ctrl, 1] * c
    want_yi = v[lower_ctrl, 0] * s + v[lower_ctrl, 1] * c

    ys, yi, _, _ = polygon_envelope(SQUARE, th)
    err = max(float(np.max(np.abs(ys - want_ys))), float(np.max(np.abs(yi - want_yi))))
    assert err <= 1e-12

    # The control vertex hands over exactly at pi/2, pi, 3pi/2.
    worst_switch = 0.0
    for target, before in [(math.pi / 2, 0), (math.pi, 3), (3 * math.pi / 2, 2)]:
        lo, hi = target - 0.01, target + 0.01
        assert polygon_envelope(SQUARE, lo)[2] == before
        assert polygon_envelope(SQUARE, hi)[2] != before
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if polygon_envelope(SQUARE, mid)[2] == before:
                lo = mid
            else:
                hi = mid
        worst_switch = max(worst_switch, abs(0.5 * (lo + hi) - target))
    assert worst_switch <= 1e-12
    print(
        f"PASS criterion 4: square envelope error {err:.3e} (tol 1e-12), "
        f"switch offset {worst_switch:.3e} (tol 1e-12)"
    )


def test_criterion_05_triangle_schedule():
    tri = regular_ngon(3, math.sqrt(3.0) / 3.0)  # side 1
    # (upper, lower, hidden) on the six sixths of a turn; 0, 1, 2 are the
    # vertices counterclockwise from the upper right.
    table = [(0, 2, 1), (0, 1, 2), (2, 1, 0), (2, 0, 1), (1, 0, 2), (1, 2, 0)]
    step = math.pi / 3.0
    for k, (u, lo_v, hidden) in enumerate(table):
        for th in (k * step + 1e-9, (k + 0.5) * step, (k + 1) * step - 1e-9):
            _, _, iu, il = polygon_envelope(tri, th)
            assert (iu, il) == (u, lo_v), f"interval {k} at theta={th}"
            assert 3 - iu - il == hidden

    th = TWO_PI * np.arange(4096) / 4096.0
    s, c = np.sin(th), np.cos(th)
    f_a = (math.sqrt(3.0) / 6.0) * (math.sqrt(3.0) * s + c)
    f_b = (math.sqrt(3.0) / 6.0) * (-math.sqrt(3.0) * s + c)
    f_c = -(math.sqrt(3.0) / 3.0) * c
    upper = np.choose(np.minimum((th // (TWO_PI / 3.0)).astype(int), 2), [f_a, f_c, f_b])
    lower = np.choose(np.digitize(th, [math.pi / 3.0, math.pi, 5.0 * math.pi / 3.0]),
                      [f_c, f_b, f_a, f_c])
    ys, yi, _, _ = polygon_envelope(tri, th)
    err = max(float(np.max(np.abs(ys - upper))), float(np.max(np.abs(yi - lower))))
    assert err <= 1e-12
    print(f"PASS criterion 5: triangle schedule and formulas, max error {err:.3e} (tol 1e-12)")


def test_criterion_06_pole_invariance():
    shapes, offsets = shapes_with_offsets()
    thetas = TWO_PI * np.arange(256) / 256.0
    worst = 0.0
    for shape, offset in zip(shapes, offsets):
        ys0, yi0 = support_heights(shape, thetas)
        ys1, yi1 = support_heights(replace(shape, pole_offset=offset), thetas)
        worst = max(worst, float(np.max(np.abs((ys1 - yi1) - (ys0 - yi0)))))
    assert worst <= 1e-9
    print(f"PASS criterion 6: height pole-invariance on 100 shapes, max dev {worst:.3e} (tol 1e-9)")


def test_criterion_07_reflection_identity():
    shapes, offsets = shapes_with_offsets()
    thetas = TWO_PI * np.arange(64) / 64.0
    worst = 0.0
    for shape, offset in zip(shapes, offsets):
        moved = replace(shape, pole_offset=offset)
        _, yi = support_heights(moved, thetas)
        ys_pi, _ = support_heights(moved, thetas + math.pi)
        worst = max(worst, float(np.max(np.abs(yi + ys_pi))))
    assert worst <= 1e-10
    print(f"PASS criterion 7: reflection identity on 100 shapes, max dev {worst:.3e} (tol 1e-10)")


def test_criterion_08_inverse_worked_examples():
    # The exact worked values first.
    assert side_count(0.5, math.sqrt(2.0) / 2.0) == 4
    assert side_count(math.sqrt(3.0) / 6.0, math.sqrt(3.0) / 3.0) == 3

    # Then the same numbers measured from synthesized traces.  Sample
    # counts are multiples of the symmetry order so the grid lands on the
    # envelope cusps and the refined extremes are exact to rounding.
    worst = 0.0
    for n, R, samples in [(4, math.sqrt(2.0) / 2.0, 8193), (3, math.sqrt(3.0) / 3.0, 6145)]:
        img = trace(regular_ngon(n, R), UNIT, TimeGrid(duration=TWO_PI, samples=samples))
        m, M, _ = extremes(img)
        assert side_count(m, M) == n
        raw = math.pi / math.acos(m / M)
        worst = max(worst, abs(raw - n))
    assert worst <= 1e-6
    print(f"PASS criterion 8: inverse worked examples, pre-rounding off by {worst:.3e} (tol 1e-6)")


def test_criterion_09_round_trip():
    rng = np.random.default_rng(9)
    worst_R = 0.0
    worst_w = 0.0
    for n in range(3, 13):
        R = float(rng.uniform(0.1, 10.0))
        omega = float(rng.uniform(0.5, 2.0))
        grid = TimeGrid(duration=TWO_PI / omega, samples=1024 * n + 1)
        img = trace(regular_ngon(n, R), MotionProfile(omega=omega, film_speed=1.0), grid)
        rep = identify(img)
        assert rep.n == n, f"n={n} identified as {rep.n}"
        worst_R = max(worst_R, abs(rep.circumradius_M - R) / R)
        worst_w = max(worst_w, abs(rep.omega_over_v - omega) / omega)
    assert worst_R <= 1e-4
    assert worst_w <= 1e-3
    print(
        f"PASS criterion 9: n=3..12 round trip exact, |dR|/R {worst_R:.3e} (tol 1e-4), "
        f"|dw|/w {worst_w:.3e} (tol 1e-3)"
    )


def test_criterion_10_parity_classification():
    for n in range(3, 13):
        img = trace(regular_ngon(n, 1.0), UNIT, TimeGrid(duration=TWO_PI, samples=1024 * n + 1))
        want = "even" if n % 2 == 0 else "odd"
        assert identify(img).parity == want, f"n={n}"
    circle = trace(SmoothContour.circle(1.0), UNIT, TimeGrid(duration=TWO_PI, samples=512))
    rep = identify(circle)
    assert rep.parity == "circle"
    assert rep.n == CIRCLE
    print("PASS criterion 10: parity matches n mod 2 for n=3..12; circle classified CIRCLE")


def test_criterion_11_brute_force_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        contour = random_convex_polar(rng)
        for th in rng.uniform(0.0, TWO_PI, 6):
            hi, lo = brute_heights(contour, float(th), 100_000)
            ys, yi = support_heights(contour, float(th))
            worst = max(worst, abs(ys - hi), abs(yi - lo))
    assert worst <= 1e-6
    print(f"PASS criterion 11: brute-force agreement on 20 contours, max gap {worst:.3e} (tol 1e-6)")


def test_criterion_12_nonconvex_rejection(tmp_path):
    beta, r = reentrant_polar_table()
    with pytest.raises(ConvexityViolation):
        SmoothContour.from_polar(beta, r)

    table = tmp_path / "reentrant.csv"
    table.write_text("beta,r\n" + "".join(f"{b},{v}\n" for b, v in zip(beta, r)))
    rc = run(["direct", "--shape", "polar", "--polar-file", str(table),
              "--duration", "6.0", "--out", str(tmp_path / "out.csv")])
    assert rc == 3
    print("PASS criterion 12: reentrant contour rejected; CLI exit code 3")
