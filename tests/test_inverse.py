import math
import pickle
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from kinescope import (
    CIRCLE,
    InverseReport,
    KinematicImage,
    MotionProfile,
    SmoothContour,
    TimeGrid,
    extremes,
    identify,
    inverse,
    regular_ngon,
    side_count,
    trace,
)
from kinescope.errors import DegenerateImage, InsufficientData

TWO_PI = 2.0 * math.pi


def ngon_image(n, circumradius=1.0, omega=1.0, speed=1.0, duration=TWO_PI, samples=4096):
    shape = regular_ngon(n, circumradius)
    profile = MotionProfile(omega=omega, film_speed=speed)
    return trace(shape, profile, TimeGrid(duration=duration, samples=samples))


def test_extremes_square():
    m, M, mid = extremes(ngon_image(4, math.sqrt(2.0) / 2.0))
    assert abs(m - 0.5) < 1e-9
    assert abs(M - math.sqrt(2.0) / 2.0) < 1e-9
    assert abs(mid) < 1e-9


def test_extremes_triangle():
    m, M, mid = extremes(ngon_image(3, math.sqrt(3.0) / 3.0))
    assert abs(m - math.sqrt(3.0) / 6.0) < 1e-9
    assert abs(M - math.sqrt(3.0) / 3.0) < 1e-9
    assert abs(mid) < 1e-9


def test_extremes_circle_strip():
    img = trace(SmoothContour.circle(1.5), MotionProfile(1.0, 1.0), TimeGrid(duration=4.0, samples=64))
    m, M, mid = extremes(img)
    assert abs(m - 1.5) < 1e-12 and abs(M - 1.5) < 1e-12
    assert abs(mid) < 1e-12


def test_extremes_degenerate():
    z = np.linspace(0.0, 1.0, 16)
    with pytest.raises(DegenerateImage):
        extremes(KinematicImage(z=z, y_s=np.zeros(16), y_i=np.zeros(16)))
    # A top sample with a flat parabola through it: 1 - 2**-53 - 2 rounds to
    # -1, so the second difference is 0 and the sample itself is kept.
    z = np.arange(5.0)
    ys = np.array([0.0, 1.0 - 2.0**-53, 1.0, 1.0, 0.0])
    assert extremes(KinematicImage(z=z, y_s=ys, y_i=ys - 3.0)) == (1.0, 2.0, -1.0)
    # Near the float range the parabola's sums overflow and its vertex is
    # nan; the raw sample is kept, so the extremes stay finite.
    ys = np.array([0.0, 1.5e308, 1.7e308, -1.5e308, 0.0])
    assert extremes(KinematicImage(z=z, y_s=ys, y_i=np.full(5, -1.7e308))) == (-1.5e308, 1.7e308, 0.0)


def test_side_count_worked_values():
    assert side_count(0.5, math.sqrt(2.0) / 2.0) == 4
    assert side_count(math.sqrt(3.0) / 6.0, math.sqrt(3.0) / 3.0) == 3
    assert side_count(math.cos(math.pi / 5.0), 1.0) == 5
    assert side_count(1.0, 1.0) == CIRCLE


def test_side_count_recovers_each_n():
    for n in range(3, 65):
        assert side_count(math.cos(math.pi / n), 1.0, n_max=64) == n
    assert side_count(math.cos(math.pi / 65), 1.0, n_max=64) == CIRCLE
    # a tighter gate turns a crisp 12-gon ratio into a circle call
    assert side_count(math.cos(math.pi / 12), 1.0, n_max=8) == CIRCLE
    assert side_count(0.5, 1.0, n_max=3) == 3


def test_side_count_rejects_bad_inputs():
    with pytest.raises(ValueError):
        side_count(0.0, 1.0)
    with pytest.raises(ValueError):
        side_count(-0.1, 1.0)
    with pytest.raises(ValueError):
        side_count(1.1, 1.0)
    with pytest.raises(ValueError):
        side_count(0.5, 1.0, n_max=2)


def test_side_count_rejects_n_max_past_circle_gate():
    # cos(pi/n_max) rounds to 1 past 298156826, so CIRCLE could never fire
    # and m = M would round an infinite count
    assert side_count(1.0, 1.0, n_max=298156826) == CIRCLE
    with pytest.raises(ValueError):
        side_count(1.0, 1.0, n_max=298156827)
    with pytest.raises(ValueError):
        side_count(1.0, 1.0, n_max=10**9)


def test_parity_square_even():
    assert identify(ngon_image(4)).parity == "even"


def test_parity_triangle_odd():
    assert identify(ngon_image(3)).parity == "odd"


def test_parity_pentagon_odd():
    assert identify(ngon_image(5)).parity == "odd"


def test_parity_scores_are_the_masked_scores_on_uneven_z(monkeypatch):
    # _parity takes the shifted samples as a prefix of the record; on an
    # unevenly sampled trace its two scores keep the bits of the boolean-mask
    # form, yic[keep] + interp(zq[keep]) against yic + ysc.
    rng = np.random.default_rng(17)
    for n, period in ((3, 0.7), (4, 0.5), (5, 2.9), (6, 40.0), (7, math.inf)):
        z = np.cumsum(rng.uniform(0.2, 1.8, 3001)) * 0.01
        period = min(period, 2.0 * (z[-1] - z[0]))  # the last keeps 1 sample, under 8
        img = trace(regular_ngon(n, 1.3), MotionProfile(1.0, 1.0), TimeGrid(duration=float(z[-1]), samples=3001))
        img = KinematicImage(z=z, y_s=img.y_s + rng.normal(0, 1e-3, 3001), y_i=img.y_i)
        midline = 0.01
        ysc, yic, zq = img.y_s - midline, img.y_i - midline, img.z + 0.5 * period
        keep = zq <= img.z[-1]
        want = [inverse._rms(yic[keep] + np.interp(zq[keep], img.z, ysc)), inverse._rms(yic + ysc)]
        seen = []
        rms = inverse._rms
        monkeypatch.setattr(inverse, "_rms", lambda x, out=None: seen.append(rms(x, out)) or seen[-1])
        inverse._parity(img, midline, period)
        monkeypatch.undo()
        assert seen == (want if keep.sum() >= 8 else [])


def test_parity_circle():
    img = trace(SmoothContour.circle(2.0), MotionProfile(1.0, 1.0), TimeGrid(duration=5.0, samples=128))
    assert identify(img).parity == "circle"


@pytest.mark.parametrize("k", [-60, -40, 0, 100, 300, 511, 1000])
def test_identify_is_exact_under_power_of_two_scaling(k):
    # A tiny image is scaled, not flat: only an exactly flat one is degenerate.
    img = ngon_image(5)
    base = identify(img)
    rep = identify(KinematicImage(z=np.ldexp(img.z, k), y_s=np.ldexp(img.y_s, k), y_i=np.ldexp(img.y_i, k)))
    assert (rep.n, rep.parity, rep.warnings) == (base.n, base.parity, base.warnings)
    for name in ("apothem_m", "circumradius_M", "midline", "residual"):
        assert getattr(rep, name) == math.ldexp(getattr(base, name), k), name
    assert rep.omega_over_v == math.ldexp(base.omega_over_v, -k)


@pytest.mark.parametrize("change", ["z0", "film_speed", "theta0", "mirror"])
def test_identify_is_invariant_on_random_polygons(change):
    # A regular polygon about its centre gives the same trace after a shift of
    # the film, a turn by one side, or a mirror (its axis is vertical); a film
    # four times as fast stretches z exactly.
    rng = np.random.default_rng(59)
    for _ in range(60):
        n = int(rng.integers(3, 17))
        omega, speed, theta0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, TWO_PI)
        shape = regular_ngon(n, rng.uniform(0.5, 2.0))
        grid = TimeGrid(duration=3 * TWO_PI / omega, samples=3 * n * int(rng.choice([16, 64, 256])))
        motion = MotionProfile(omega=omega, film_speed=speed, theta0=theta0)
        moved = {
            "z0": replace(motion, z0=rng.uniform(-50.0, 50.0)),
            "film_speed": replace(motion, film_speed=4.0 * speed),
            "theta0": replace(motion, theta0=theta0 + TWO_PI / n),
            "mirror": replace(motion, omega=-omega, theta0=-theta0),
        }[change]
        base, rep = (identify(trace(shape, m, grid)) for m in (motion, moved))
        assert (rep.n, rep.parity, rep.warnings) == (base.n, base.parity, base.warnings)
        if change == "film_speed":
            assert rep == replace(base, omega_over_v=base.omega_over_v / 4)
            continue
        for name in ("apothem_m", "circumradius_M", "midline", "residual"):
            assert abs(getattr(rep, name) - getattr(base, name)) <= 1e-12 * base.circumradius_M, name
        for name in ("omega_over_v", "n_raw"):
            assert abs(getattr(rep, name) - getattr(base, name)) <= 1e-12 * getattr(base, name), name


def test_interior_maxima_hysteresis_and_end_drop():
    # cos z over three turns, with chatter on alternate samples near both
    # thresholds: the 75% level is crossed upward many times per peak, but
    # each excursion ends only below 50%, so there is one maximum per peak.
    z = np.linspace(0.0, 3 * TWO_PI, 3001)
    ys = np.cos(z)
    near = (np.abs(ys - 0.5) < 0.05) | (np.abs(ys) < 0.05)
    ys = ys + 0.03 * near * np.where(np.arange(z.size) % 2 == 0, 1.0, -1.0)
    high = ys >= 0.5
    assert int(np.count_nonzero(high[1:] & ~high[:-1])) == 33
    peaks = inverse._interior_maxima(KinematicImage(z=z, y_s=ys, y_i=ys - 3.0))
    # The peaks at 0 and 6*pi touch the ends of the record and are dropped.
    assert np.allclose(peaks, [TWO_PI, 2 * TWO_PI], rtol=0.0, atol=1e-9)


def measured_period(rep):
    return TWO_PI / (rep.n * rep.omega_over_v)


def test_period_square_unit_motion():
    # four-fold symmetry, omega/v = 1: maxima every pi/2 along the film
    assert abs(measured_period(identify(ngon_image(4))) - math.pi / 2.0) < 1e-6


def test_period_scales_with_omega():
    assert abs(measured_period(identify(ngon_image(3, omega=2.0))) - math.pi / 3.0) < 1e-6


def test_period_single_maximum_raises():
    z = np.linspace(0.0, TWO_PI, 200)
    ys = 0.6 + 0.4 * np.cos(z - math.pi)
    with pytest.raises(InsufficientData, match="found 1 interior maxima"):
        identify(KinematicImage(z=z, y_s=ys, y_i=-ys))
    # Two maxima but fewer than 8 samples overlap at half a period: the
    # parity test has no odd evidence, says even, and the 3-gon is flagged,
    # although the lower curve is the upper one shifted by half a period.
    ys = np.array([0.6, 1.0, 0.6, 1.0, 0.6])
    rep = identify(KinematicImage(z=np.arange(5.0), y_s=ys, y_i=-(1.6 - ys)))
    assert (rep.n, rep.parity) == (3, "even")
    assert rep.warnings == ("parity test says even but a 3-gon is odd",)


def test_period_warns_on_uneven_spacing():
    shape = regular_ngon(4, 1.0)
    profile = MotionProfile(omega=[(0.0, 1.0), (TWO_PI, 3.0)], film_speed=1.0)
    img = trace(shape, profile, TimeGrid(duration=2 * TWO_PI, samples=8192))
    notes = [w for w in identify(img).warnings if "spread" in w]
    assert len(notes) == 1


def test_identify_square():
    rep = identify(ngon_image(4, math.sqrt(2.0) / 2.0))
    assert rep.n == 4
    assert rep.parity == "even"
    assert abs(rep.apothem_m - 0.5) < 1e-9
    assert abs(rep.circumradius_M - math.sqrt(2.0) / 2.0) < 1e-9
    assert abs(rep.omega_over_v - 1.0) < 1e-6
    assert rep.residual < 1e-8
    assert rep.warnings == ()
    assert abs(rep.n_raw - 4.0) < 1e-9


def test_identify_triangle():
    rep = identify(ngon_image(3, omega=0.5, duration=2 * TWO_PI))
    assert rep.n == 3
    assert rep.parity == "odd"
    assert abs(rep.omega_over_v - 0.5) < 1e-6
    assert rep.residual < 1e-8
    assert rep.warnings == ()


@pytest.mark.parametrize("spp", [8, 16])
@pytest.mark.parametrize("n", range(3, 17))
def test_identify_residual_at_rounding_on_cusp_grid(n, spp):
    # 3 rotations sampled spp times per side from theta = 0: every
    # envelope cusp lands on a sample, so M is exact and so is the fit
    img = trace(
        regular_ngon(n, 1.3),
        MotionProfile(0.7, 1.0),
        TimeGrid(duration=3 * TWO_PI / 0.7, samples=3 * n * spp + 1),
    )
    rep = identify(img)
    assert rep.n == n
    assert rep.residual <= 1e-9 * rep.circumradius_M


def test_identify_residual_finds_the_phase():
    # At a random starting angle the envelope must be re-synthesized at the
    # right phase; with either sign of it flipped the gap is about 0.17 M.
    # On a noiseless trace the peaks' phase is already close, the squared
    # gap is a parabola around it, and one parabolic step lands on the
    # phase to rounding: the worst of these draws reads about 1e-11 M.
    rng = np.random.default_rng(61)
    for n in range(3, 17):
        for _ in range(3):
            omega, speed = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            motion = MotionProfile(omega=omega, film_speed=speed, theta0=rng.uniform(0.0, TWO_PI))
            grid = TimeGrid(duration=16 * TWO_PI / (n * omega), samples=16 * 1000)
            rep = identify(trace(regular_ngon(n, rng.uniform(0.5, 2.0)), motion, grid))
            assert rep.n == n
            assert rep.residual <= 1e-10 * rep.circumradius_M, f"n={n}"


def test_identify_residual_is_the_gap_at_the_best_phase_under_noise():
    # Noise moves the peaks, so their phase alone can leave the gap a few
    # percent above its minimum.  The residual must be within 1% of the
    # smallest RMS gap that a dense scan of phases around theta0 finds.
    rng = np.random.default_rng(71)
    for n in (3, 5, 8, 11, 16):
        R, omega, theta0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, TWO_PI)
        motion = MotionProfile(omega=omega, film_speed=1.0, theta0=theta0)
        img = trace(regular_ngon(n, R), motion, TimeGrid(duration=16 * TWO_PI / (n * omega), samples=16 * 64))
        noise = rng.normal(0.0, 1e-3 * R, (2, len(img)))
        rep = identify(KinematicImage(img.z, img.y_s + noise[0], img.y_i + noise[1]))
        s = TWO_PI / n
        theta = rep.omega_over_v * (img.z - img.z[0])
        upper = img.y_s + noise[0] - rep.midline
        gaps = [math.sqrt(np.mean(np.square(upper - rep.circumradius_M * np.cos(np.mod(theta + phi, s) - s / 2))))
                for phi in theta0 + np.linspace(-s / 20, s / 20, 801)]
        assert rep.residual <= 1.01 * min(gaps), f"n={n}"


def test_identify_gives_a_report_or_value_error_on_any_trace():
    # Walks, sawtooths, sines, spikes and noise, half of them as upper and
    # lower bands about a midline, at every height scale a float holds.
    rng = np.random.default_rng(67)
    for i in range(3000):
        size = int(rng.integers(16, 600))
        z = np.cumsum(rng.uniform(0.5, 1.5, size))
        kind = i % 5
        curves = []
        for _ in range(2):
            if kind == 0:
                c = np.cumsum(rng.normal(size=size))
            elif kind == 1:
                c = np.mod(z * rng.uniform(0.01, 0.5), 1.0)
            elif kind == 2:
                c = np.sin(z * rng.uniform(0.01, 1.0) + rng.uniform(0.0, TWO_PI))
            elif kind == 3:
                c = np.zeros(size)
                c[rng.integers(0, size, int(rng.integers(1, 8)))] = rng.uniform(-1.0, 1.0)
            else:
                c = rng.uniform(-1.0, 1.0, size)
            curves.append(c)
        if rng.random() < 0.5:
            lo = rng.uniform(0.0, 0.95)
            curves = [lo + (1.0 - lo) * (c - c.min()) / (np.ptp(c) or 1.0) for c in curves]
            curves[1] = -curves[1]
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        img = KinematicImage(z=z, y_s=scale * np.maximum(*curves), y_i=scale * np.minimum(*curves))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                identify(img)
            except ValueError:
                pass


def test_identify_extracts_features_once(monkeypatch):
    calls = {"extremes": 0, "_interior_maxima": 0}
    for name in calls:
        original = getattr(inverse, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(inverse, name, counted)
    assert identify(ngon_image(5, samples=2048)).n == 5
    assert calls == {"extremes": 1, "_interior_maxima": 1}


def test_identify_circle():
    img = trace(SmoothContour.circle(0.7), MotionProfile(1.0, 1.0), TimeGrid(duration=6.0, samples=256))
    rep = identify(img)
    assert rep.n == CIRCLE
    assert rep.parity == "circle"
    assert math.isnan(rep.omega_over_v)
    assert abs(rep.apothem_m - 0.7) < 1e-12
    assert abs(rep.circumradius_M - 0.7) < 1e-12
    assert rep.residual < 1e-12


def test_identify_scale_invariance():
    img = ngon_image(5, samples=2048)
    base = identify(img)
    k = 3.7
    scaled = identify(KinematicImage(z=k * img.z, y_s=k * img.y_s, y_i=k * img.y_i))
    assert scaled.n == base.n == 5
    assert scaled.parity == base.parity
    assert abs(scaled.apothem_m - k * base.apothem_m) < 1e-9 * k
    assert abs(scaled.circumradius_M - k * base.circumradius_M) < 1e-9 * k
    assert abs(scaled.omega_over_v - base.omega_over_v / k) < 1e-9 / k
    assert abs(scaled.residual - k * base.residual) < 1e-3 * k * base.residual + 1e-13 * k


def test_identify_survives_measurement_noise():
    rng = np.random.default_rng(7)
    for n in (3, 4, 5, 6, 7, 8):
        img = ngon_image(n, samples=8192)
        eps = 1e-3
        ys = img.y_s + rng.uniform(-eps, eps, len(img))
        yi = img.y_i + rng.uniform(-eps, eps, len(img))
        rep = identify(KinematicImage(z=img.z, y_s=ys, y_i=yi))
        assert rep.n == n
        assert rep.parity == ("even" if n % 2 == 0 else "odd")


def test_identify_parity_survives_measurement_noise():
    # noise makes large n undercount, so only the parity is asserted
    rng = np.random.default_rng(31)
    R = 1.0
    for n in range(3, 17):
        img = ngon_image(n, circumradius=R, samples=8192)
        sigma = 3e-3 * R
        ys = img.y_s + rng.normal(0.0, sigma, len(img))
        yi = img.y_i + rng.normal(0.0, sigma, len(img))
        rep = identify(KinematicImage(z=img.z, y_s=ys, y_i=yi))
        assert rep.parity == ("even" if n % 2 == 0 else "odd"), f"n={n}"


def test_identify_warns_on_offset_midline():
    img = ngon_image(4)
    rep = identify(KinematicImage(z=img.z, y_s=img.y_s + 0.1, y_i=img.y_i + 0.1))
    assert rep.n == 4
    assert abs(rep.midline - 0.1) < 1e-6
    assert any("midline" in w for w in rep.warnings)
    # Lifted by a whole circumradius, odd curves still match only half a
    # period apart once the midline is taken out.
    for n in range(7, 16, 2):
        img = ngon_image(n)
        rep = identify(KinematicImage(z=img.z, y_s=img.y_s + 1.0, y_i=img.y_i + 1.0))
        assert rep.parity == "odd", f"n={n}"
        assert any("midline" in w for w in rep.warnings)


def test_identify_clamps_sub_triangle_ratio():
    # m/M = 0.3 would round to n = 2, which no convex polygon produces
    z = np.linspace(0.0, 3 * math.pi, 2000)
    ys = 0.65 + 0.35 * np.cos(2.0 * z)
    rep = identify(KinematicImage(z=z, y_s=ys, y_i=-ys))
    assert rep.n == 3
    assert any("clamped to 3" in w for w in rep.warnings)
    assert rep.n_raw < 2.5


def test_report_validation():
    ok = dict(
        n=4,
        apothem_m=0.5,
        circumradius_M=0.7,
        parity="even",
        omega_over_v=1.0,
        midline=0.0,
        residual=0.0,
    )
    rep = InverseReport(**ok)
    assert isinstance(rep.n, int) and rep.warnings == ()
    assert InverseReport(**{**ok, "n": CIRCLE, "parity": "circle"}).n == CIRCLE
    with pytest.raises(ValueError):
        InverseReport(**{**ok, "n": 2})
    with pytest.raises(ValueError):
        InverseReport(**{**ok, "apothem_m": 0.0})
    with pytest.raises(ValueError):
        InverseReport(**{**ok, "apothem_m": 0.9})
    with pytest.raises(ValueError):
        InverseReport(**{**ok, "parity": "sideways"})
    with pytest.raises(ValueError):
        InverseReport(**{**ok, "residual": -1.0})
    listed = InverseReport(**{**ok, "warnings": ["a", "b"]})
    assert listed.warnings == ("a", "b")


def test_report_survives_replace_and_pickle():
    # The report is a frozen, slotted dataclass whose __post_init__ writes
    # through object.__setattr__; replace and pickle must still rebuild it.
    rep = identify(ngon_image(5, 1.3, omega=0.7, duration=6 * TWO_PI / (5 * 0.7)))
    assert rep.n == 5 and not hasattr(rep, "__dict__")
    moved = replace(rep, residual=2.0, warnings=["w"])
    assert (moved.residual, moved.warnings) == (2.0, ("w",))
    assert moved == replace(rep, residual=2.0, warnings=("w",))
    assert pickle.loads(pickle.dumps(rep)) == rep
    with pytest.raises(FrozenInstanceError):
        rep.n = 6
