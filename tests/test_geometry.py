import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kinescope import (
    ConvexPolygon,
    SmoothContour,
    contour_point,
    polygon_envelope,
    regular_ngon,
    support_heights,
)
from kinescope.errors import ConvexityViolation
from kinescope.geometry import contour_tangent, ngon_upper, reduce_angle, rot_proj, tangency_roots

from _oracles import (
    brute_heights,
    brute_polygon_heights,
    random_convex_polar,
    random_convex_polygon,
    reentrant_polar_table,
)

TWO_PI = 2.0 * math.pi

EXACT_SQUARE = np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])


def test_rotate_adds_angles_on_circle_points():
    # a*(cos b, sin b) rotated by t projects to a*sin(t+b)
    a = 1.7
    for beta in (0.0, 0.4, 2.0, 5.5):
        for th in (0.1, 1.2, 4.0):
            got = rot_proj((a * math.cos(beta), a * math.sin(beta)), th)
            assert abs(got - a * math.sin(th + beta)) < 1e-12


def test_rot_proj_values():
    assert rot_proj((0.0, 1.0), 0.0) == 1.0
    assert abs(rot_proj((1.0, 0.0), math.pi / 2) - 1.0) < 1e-15
    # square corner projection (a/2)(sin + cos)
    th = 0.83
    want = 0.5 * (math.sin(th) + math.cos(th))
    assert abs(rot_proj((0.5, 0.5), th) - want) < 1e-15


def test_rot_proj_accepts_theta_array():
    th = np.linspace(0, TWO_PI, 7)
    out = rot_proj((2.0, -1.0), th)
    assert out.shape == th.shape
    assert abs(out[0] - (-1.0)) < 1e-15


def test_reduce_angle_range_and_negative_underflow():
    # a hair below zero must fold to 0.0, not to the full period
    assert reduce_angle(-1e-20) == 0.0
    assert reduce_angle(0.0) == 0.0
    assert abs(reduce_angle(TWO_PI + 0.25) - 0.25) < 1e-12
    arr = reduce_angle(np.array([-1e-20, -0.5, 7.0]))
    assert np.all(arr >= 0.0) and np.all(arr < TWO_PI)


def test_contour_point_circle_and_ellipse():
    c = SmoothContour.circle(2.0)
    assert np.allclose(contour_point(c, 0.0), [2.0, 0.0], atol=1e-15)
    e = SmoothContour.ellipse(2.0, 1.0)
    assert np.allclose(contour_point(e, math.pi / 2), [0.0, 1.0], atol=1e-15)


def test_contour_point_polar_constant_is_circle():
    beta = np.linspace(0, TWO_PI, 32, endpoint=False)
    c = SmoothContour.from_polar(beta, np.ones_like(beta))
    for b in (0.3, 2.0, 5.9):
        assert np.allclose(contour_point(c, b), [math.cos(b), math.sin(b)], atol=1e-9)


def test_polar_table_off_zero_wraps_its_period():
    # Tables elsewhere start at beta = 0; here the spline's own period
    # starts at 0.3, so queries below it and past the last knot must wrap.
    beta = 0.3 + TWO_PI * np.arange(48) / 48
    r = 1.0 + 0.05 * np.cos(2.0 * beta + 0.4) + 0.02 * np.cos(3.0 * beta)
    c = SmoothContour.from_polar(beta, r, (0.2, -0.1))
    for b in (0.1, -0.7, beta[-1] + 0.05, 6.55):
        for j in (-2, 1, 3):
            assert np.allclose(contour_point(c, b + TWO_PI * j), contour_point(c, b), rtol=0.0, atol=1e-12)
    for th in np.linspace(-3.0, 9.0, 6):
        ys, yi = support_heights(c, float(th))
        bs, bi = brute_heights(c, float(th))
        assert abs(ys - bs) < 1e-6
        assert abs(yi - bi) < 1e-6


def test_contour_tangent_values():
    assert np.allclose(contour_tangent(SmoothContour.circle(1.0), 0.0), [0.0, 1.0], atol=1e-15)
    assert np.allclose(contour_tangent(SmoothContour.ellipse(2.0, 1.0), 0.0), [0.0, 1.0], atol=1e-15)
    assert np.allclose(
        contour_tangent(SmoothContour.circle(3.0), math.pi / 2), [-3.0, 0.0], atol=1e-12
    )


def test_tangency_roots_circle_closed_form():
    c = SmoothContour.circle(1.3)
    # pi/2 + 1e-9 puts the upper root in the wrap cell [2*pi - h, 2*pi)
    for th in (0.0, 0.3, 1.9, 4.4, 6.1, math.pi / 2, math.pi / 2 - 1e-9, math.pi / 2 + 1e-9):
        beta_upper, beta_lower = tangency_roots(c, th)
        want_u = reduce_angle(math.pi / 2 - th)
        want_l = reduce_angle(3 * math.pi / 2 - th)
        assert abs(beta_upper - want_u) < 1e-12
        assert abs(beta_lower - want_l) < 1e-12


def test_tangency_roots_ellipse_axis_aligned():
    beta_upper, beta_lower = tangency_roots(SmoothContour.ellipse(2.0, 1.0), 0.0)
    assert abs(beta_upper - math.pi / 2) < 1e-12
    assert abs(beta_lower - 3 * math.pi / 2) < 1e-12


def test_tangency_roots_ellipse_quarter_angle():
    # at theta = pi/4 the upper root solves tan(beta) = b/a * cot(theta) = 0.5
    beta_upper, _ = tangency_roots(SmoothContour.ellipse(2.0, 1.0), math.pi / 4)
    assert abs(beta_upper - 0.4636476090008062) < 1e-12


def test_tangency_residual_ellipse():
    # the root must satisfy a sin(t) sin(b) = b cos(t) cos(b)
    a, b = 2.0, 1.0
    e = SmoothContour.ellipse(a, b)
    for th in np.linspace(0.05, TWO_PI - 0.05, 17):
        beta_upper, _ = tangency_roots(e, float(th))
        res = a * math.sin(th) * math.sin(beta_upper) - b * math.cos(th) * math.cos(beta_upper)
        assert abs(res) < 1e-10 * (a + b)


def test_tangency_upper_label_has_larger_height():
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = random_convex_polar(rng)
        th = float(rng.uniform(0, TWO_PI))
        beta_upper, beta_lower = tangency_roots(c, th)
        yu = rot_proj(contour_point(c, beta_upper), th)
        yl = rot_proj(contour_point(c, beta_lower), th)
        assert yu > yl


def test_support_heights_circle_center_and_rim():
    c = SmoothContour.circle(1.5)
    ys, yi = support_heights(c, 2.2)
    assert abs(ys - 1.5) < 1e-12 and abs(yi + 1.5) < 1e-12
    rim = SmoothContour.circle(1.5, pole_offset=(1.5, 0.0))
    for th in (0.0, 0.7, 3.0, 5.2):
        ys, yi = support_heights(rim, th)
        assert abs(ys - 1.5 * (math.sin(th) + 1.0)) < 1e-12
        assert abs(yi - 1.5 * (math.sin(th) - 1.0)) < 1e-12


def test_support_heights_ellipse_value():
    ys, yi = support_heights(SmoothContour.ellipse(2.0, 1.0), math.pi / 4)
    assert abs(ys - math.sqrt(2.5)) < 1e-12
    assert abs(yi + math.sqrt(2.5)) < 1e-12


def test_height_worked_values():
    cases = [
        (SmoothContour.circle(2.0, (0.3, -0.9)), 1.1, 4.0),
        (SmoothContour.ellipse(2.0, 1.0), 0.0, 2.0),
        (ConvexPolygon(EXACT_SQUARE), math.pi / 4, math.sqrt(2.0)),
    ]
    for shape, th, want in cases:
        ys, yi = support_heights(shape, th)
        assert abs((ys - yi) - want) < 1e-12


def test_support_heights_array_matches_scalar():
    rng = np.random.default_rng(31)
    shapes = [
        replace(regular_ngon(5, 1.2), pole_offset=(0.3, -0.4)),
        SmoothContour.circle(1.5, (1.5, 0.0)),
        SmoothContour.ellipse(2.0, 1.0, (0.4, 0.1)),
        random_convex_polar(rng),
    ]
    th = rng.uniform(-TWO_PI, 2 * TWO_PI, 64)
    # pi/2 +- 1e-9 puts a root in the wrap cell; the grid angles k * 2 pi / 720
    # put the circle's roots on the scan's own grid points.
    edges = np.concatenate([[math.pi / 2 - 1e-9, math.pi / 2 + 1e-9], TWO_PI * np.arange(720) / 720])
    for shape in shapes:
        scalar = np.array([support_heights(shape, float(t)) for t in th])
        for grid in (th, th.reshape(8, 8)):
            ys, yi = support_heights(shape, grid)
            assert ys.shape == yi.shape == grid.shape
            assert np.array_equal(ys.ravel(), scalar[:, 0])
            assert np.array_equal(yi.ravel(), scalar[:, 1])
        ys, yi = support_heights(shape, float(th[0]))
        assert type(ys) is float and type(yi) is float
        if isinstance(shape, SmoothContour):
            for grid in (th, th.reshape(8, 8), edges):
                beta = tangency_roots(shape, grid)
                assert beta.shape == (2,) + grid.shape
                roots = np.array([tangency_roots(shape, float(t)) for t in grid.flat]).T
                assert np.array_equal(beta.reshape(2, -1), roots)
            assert tangency_roots(shape, float(th[0])).shape == (2,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_support_heights_rejects_non_finite_angle(bad):
    for shape in (regular_ngon(5, 1.2), SmoothContour.ellipse(2.0, 1.0)):
        with pytest.raises(ValueError):
            support_heights(shape, bad)
        with pytest.raises(ValueError):
            support_heights(shape, np.array([0.0, bad]))
    with pytest.raises(ValueError):
        tangency_roots(SmoothContour.ellipse(2.0, 1.0), bad)
    with pytest.raises(ValueError):
        tangency_roots(SmoothContour.ellipse(2.0, 1.0), np.array([[0.0, 1.0], [bad, 2.0]]))


def test_polygon_envelope_square_at_zero_ties_to_lowest_index():
    # exact coordinates tie at theta = 0; index 0 must win
    ys, yi, iu, il = polygon_envelope(ConvexPolygon(EXACT_SQUARE), 0.0)
    assert (ys, yi) == (0.5, -0.5)
    assert (iu, il) == (0, 2)
    # At pi/2 the top is on the last edge's normal, between vertices 3 and 0.
    assert polygon_envelope(ConvexPolygon(EXACT_SQUARE), math.pi / 2)[2] == 0


def test_polygon_envelope_square_first_quarter_formula():
    sq = ConvexPolygon(EXACT_SQUARE)
    for th in np.linspace(0.01, math.pi / 2 - 0.01, 25):
        ys, yi, iu, il = polygon_envelope(sq, float(th))
        assert iu == 0 and il == 2
        assert abs(ys - 0.5 * (math.sin(th) + math.cos(th))) < 1e-15
        assert abs(yi + ys) < 1e-15


def test_polygon_envelope_array_input():
    sq = ConvexPolygon(EXACT_SQUARE)
    th = np.linspace(0, TWO_PI, 64, endpoint=False)
    ys, yi, iu, il = polygon_envelope(sq, th)
    assert ys.shape == th.shape and iu.shape == th.shape
    assert np.all(ys > 0) and np.all(yi < 0)


def test_polygon_envelope_triangle_at_zero():
    tri = regular_ngon(3, math.sqrt(3.0) / 3.0)
    ys, yi, _, _ = polygon_envelope(tri, 0.0)
    assert abs(ys - math.sqrt(3.0) / 6.0) < 1e-12
    assert abs(yi + math.sqrt(3.0) / 3.0) < 1e-12


def test_polygon_envelope_includes_pole_offset():
    base = ConvexPolygon(EXACT_SQUARE)
    moved = ConvexPolygon(EXACT_SQUARE, pole_offset=(2.0, -1.0))
    th = 0.77
    ys0, yi0, _, _ = polygon_envelope(base, th)
    ys1, yi1, _, _ = polygon_envelope(moved, th)
    shift = rot_proj((2.0, -1.0), th)
    assert abs(ys1 - ys0 - shift) < 1e-12
    assert abs(yi1 - yi0 - shift) < 1e-12


def test_regular_ngon_square_and_triangle_coordinates():
    sq = regular_ngon(4, math.sqrt(2.0) / 2.0)
    assert np.allclose(sq.vertices, EXACT_SQUARE, atol=1e-15)
    tri = regular_ngon(3, math.sqrt(3.0) / 3.0)
    want = np.array([[0.5, math.sqrt(3) / 6], [-0.5, math.sqrt(3) / 6], [0.0, -math.sqrt(3) / 3]])
    assert np.allclose(tri.vertices, want, atol=1e-15)
    assert (len(sq), len(tri), len(regular_ngon(11, 1.0))) == (4, 3, 11)


def test_regular_ngon_hexagon_apothem():
    hexa = regular_ngon(6, 1.0)
    mids = 0.5 * (hexa.vertices + np.roll(hexa.vertices, -1, axis=0))
    apothem = np.hypot(mids[:, 0], mids[:, 1]).min()
    assert abs(apothem - math.cos(math.pi / 6)) < 1e-12


def test_regular_ngon_rejects_bad_args():
    with pytest.raises(ValueError):
        regular_ngon(2, 1.0)
    with pytest.raises(ValueError):
        regular_ngon(5, 0.0)


def test_ngon_upper_matches_polygon_envelope():
    # Every side count identify can return at its default n_max = 64, over
    # negative angles and several turns.
    theta = np.linspace(-3.0 * TWO_PI, 4.0 * TWO_PI, 2001)
    for n in range(3, 65):
        for radius in (0.3, 1.0, 2.7):
            ys, yi, _, _ = polygon_envelope(regular_ngon(n, radius), theta)
            assert np.max(np.abs(ngon_upper(n, radius, theta) - ys)) < 1e-12
            assert np.max(np.abs(-ngon_upper(n, radius, theta + math.pi) - yi)) < 1e-12


def test_ngon_upper_in_place_keeps_the_bits():
    rng = np.random.default_rng(5)
    theta = rng.uniform(-20.0, 20.0, 1001)
    for n in (3, 7, 64):
        want = ngon_upper(n, 1.7, theta)
        out = np.empty_like(theta)
        assert ngon_upper(n, 1.7, theta, out=out) is out
        assert np.array_equal(out, want)
        same = theta.copy()
        ngon_upper(n, 1.7, same, out=same)
        assert np.array_equal(same, want)
        assert ngon_upper(n, 1.7, float(theta[3])) == want[3]


def test_smooth_contour_sizes_must_be_positive_and_finite():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SmoothContour.circle(bad)
        with pytest.raises(ValueError):
            SmoothContour.ellipse(bad, 1.0)
        with pytest.raises(ValueError):
            SmoothContour.ellipse(2.0, bad)
    with pytest.raises(ValueError):
        SmoothContour.ellipse(1.0, 2.0)  # a < b
    with pytest.raises(ValueError, match="pole_offset must be a 2-vector"):
        SmoothContour.circle(1.0, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="pole_offset must be finite"):
        SmoothContour.circle(1.0, (math.nan, 0.0))
    with pytest.raises(ValueError, match="unknown contour kind"):
        SmoothContour("spline", 1.0, 1.0)
    with pytest.raises(ValueError, match="polar contour needs its spline"):
        SmoothContour("polar")


def test_convex_polygon_requires_strict_ccw():
    with pytest.raises(ConvexityViolation):
        ConvexPolygon(EXACT_SQUARE[::-1])
    with pytest.raises(ConvexityViolation):
        ConvexPolygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    with pytest.raises(ConvexityViolation):
        ConvexPolygon([(0, 0), (1, 0), (1, 0)])  # repeated vertex
    with pytest.raises(ValueError):
        ConvexPolygon([(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="vertices must be finite"):
        ConvexPolygon([(0, 0), (1, 0), (math.inf, 1)])
    # A {5/2} pentagram turns left at every corner but winds twice.
    star = np.radians(90.0 + 144.0 * np.arange(5))
    with pytest.raises(ConvexityViolation):
        ConvexPolygon(np.column_stack([np.cos(star), np.sin(star)]))
    # A repeated vertex whose zero-length edge would fit between its neighbours' normals.
    with pytest.raises(ConvexityViolation):
        ConvexPolygon([(1, 0), (1, 0), (0, 1), (-1, 0), (0, -1)])
    with pytest.raises(ConvexityViolation):
        ConvexPolygon([(0, 0), (2, 0), (1, 0), (1, 1)])  # 180-degree spike
    # A needle so thin that the turn at its tip rounds to 180 degrees.
    with pytest.raises(ConvexityViolation):
        ConvexPolygon([(0, 0), (1, 0), (0.5, 5e-17)])


def test_heights_scale_bit_for_bit_at_extreme_sizes():
    # Scaling every input by 2**k is exact, so the heights must scale exactly too.
    th = np.random.default_rng(37).uniform(0.0, TWO_PI, 12)
    pentagon = np.array([(2.0, 0.0), (1.0, 1.5), (-1.0, 1.25), (-1.5, -0.5), (0.5, -1.5)])
    beta = TWO_PI * np.arange(48) / 48
    r = 1.2 + 0.05 * np.cos(3.0 * beta)
    pole = np.array([0.75, -0.5])

    def shapes(scale):
        polar = SmoothContour.from_polar(beta, scale * r, scale * pole)
        return ConvexPolygon(scale * pentagon, scale * pole), polar

    unscaled = [support_heights(shape, th) for shape in shapes(1.0)]
    for k in (-1000, -700, 600, 1000):
        for (ys0, yi0), shape in zip(unscaled, shapes(2.0**k)):
            ys, yi = support_heights(shape, th)
            assert np.array_equal(ys, np.ldexp(ys0, k)) and np.array_equal(yi, np.ldexp(yi0, k))


def test_polygon_envelope_matches_brute_force_search():
    rng = np.random.default_rng(43)
    eps = np.finfo(float).eps
    for _ in range(50):
        # Vertices on a random ellipse, in angle order, are in convex position.
        ang = np.sort(rng.uniform(0.0, TWO_PI, int(rng.integers(3, 41))))
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        pts = np.column_stack([a * np.cos(ang), a * rng.uniform(0.2, 1.0) * np.sin(ang)])
        rot = rng.uniform(0.0, TWO_PI)
        pts = pts @ np.array([[math.cos(rot), math.sin(rot)], [-math.sin(rot), math.cos(rot)]])
        p = ConvexPolygon(pts + a * rng.uniform(-1.0, 1.0, 2), a * rng.uniform(-3.0, 3.0, 2))
        size = float(np.max(np.hypot(*(p.vertices + p.pole_offset).T)))
        for th in (rng.uniform(-7.0, 30.0, 2000), rng.uniform(1e5, 1e6, 2000)):
            ys, yi, _, _ = polygon_envelope(p, th)
            bs, bi, gap_s, gap_i = brute_polygon_heights(p, th)
            assert np.max(np.abs(ys - bs)) <= 4 * eps * size
            assert np.max(np.abs(yi - bi)) <= 4 * eps * size
            assert np.array_equal(ys[gap_s > 1e-12 * size], bs[gap_s > 1e-12 * size])
            assert np.array_equal(yi[gap_i > 1e-12 * size], bi[gap_i > 1e-12 * size])


def test_polygon_envelope_memory_does_not_grow_with_vertex_count():
    # An n x S height matrix would take 8 * n bytes per angle, 512 at n = 64.
    th = np.linspace(-7.0, 30.0, 200_000)
    p = replace(regular_ngon(64, 1.0), pole_offset=(0.3, -0.2))
    tracemalloc.start()
    try:
        polygon_envelope(p, th)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * th.size


def test_from_polar_validation():
    beta = np.linspace(0, TWO_PI, 32, endpoint=False)
    with pytest.raises(ValueError):
        SmoothContour.from_polar(beta[:8], np.ones(8))
    with pytest.raises(ValueError):
        SmoothContour.from_polar(beta[::-1], np.ones(32))
    with pytest.raises(ValueError):
        SmoothContour.from_polar(beta, np.zeros(32))
    with pytest.raises(ValueError, match="1-d arrays of equal length"):
        SmoothContour.from_polar(beta, np.ones(31))
    with pytest.raises(ValueError, match="must be finite"):
        SmoothContour.from_polar(beta, np.where(beta > 3.0, math.nan, 1.0))
    with pytest.raises(ValueError, match="less than one full turn"):
        SmoothContour.from_polar(np.linspace(0, TWO_PI, 32), np.ones(32))
    with pytest.raises(ValueError, match="less than one full turn"):
        SmoothContour.from_polar(beta - 0.1, np.ones(32))


def test_from_polar_rejects_reentrant_lobe():
    beta, r = reentrant_polar_table()
    with pytest.raises(ConvexityViolation):
        SmoothContour.from_polar(beta, r)
    # A narrow dent: r r'' reaches 1e-3 / sigma^2 = 2.5e4 at its centre, so the
    # contour turns back there, yet its radius is 1 to 1e-15 at every multiple
    # of 2 pi / 2048 around it.
    beta = TWO_PI * np.arange(65536) / 65536
    r = 1.0 - 1e-3 * np.exp(-0.5 * ((beta - math.pi / 2048) / 2e-4) ** 2)
    with pytest.raises(ConvexityViolation):
        SmoothContour.from_polar(beta, r)


def test_tangency_two_roots_on_random_convex_contours():
    rng = np.random.default_rng(7)
    for _ in range(15):
        c = random_convex_polar(rng)
        beta_upper, beta_lower = tangency_roots(c, float(rng.uniform(0, TWO_PI)))
        assert 0.0 <= beta_upper < TWO_PI
        assert 0.0 <= beta_lower < TWO_PI
        assert beta_upper != beta_lower


def test_support_heights_match_brute_force_sampling():
    rng = np.random.default_rng(19)
    for _ in range(6):
        c = random_convex_polar(rng)
        for th in rng.uniform(0, TWO_PI, 4):
            ys, yi = support_heights(c, float(th))
            bs, bi = brute_heights(c, float(th), n=50_000)
            assert abs(ys - bs) < 1e-6
            assert abs(yi - bi) < 1e-6


def test_reflection_identity_random_shapes():
    rng = np.random.default_rng(23)
    shapes = [random_convex_polygon(rng) for _ in range(5)]
    shapes += [SmoothContour.ellipse(2.0, 1.0, (0.4, 0.1)), random_convex_polar(rng)]
    for shape in shapes:
        for th in rng.uniform(0, TWO_PI, 16):
            _, yi = support_heights(shape, float(th))
            ys_pi, _ = support_heights(shape, float(th) + math.pi)
            assert abs(yi + ys_pi) < 1e-10


def test_height_is_pole_invariant():
    rng = np.random.default_rng(29)
    for _ in range(8):
        shape = random_convex_polygon(rng)
        moved = replace(shape, pole_offset=rng.uniform(-5, 5, size=2))
        for th in rng.uniform(0, TWO_PI, 8):
            ys0, yi0 = support_heights(shape, float(th))
            ys1, yi1 = support_heights(moved, float(th))
            assert abs((ys0 - yi0) - (ys1 - yi1)) < 1e-9
