import math

import numpy as np
import pytest

from kinescope import MotionProfile, TimeGrid, integrate

from _oracles import midpoint_integral


def test_constant_profile_closed_form():
    m = MotionProfile(omega=1.0, film_speed=1.0)
    theta, z = integrate(m, math.pi)
    assert theta == math.pi
    assert z == math.pi


def test_constant_profile_is_exact_at_every_t():
    m = MotionProfile(omega=0.7, film_speed=2.5, theta0=0.3, z0=-1.0)
    t = np.linspace(0.0, 9.0, 101)
    theta, z = integrate(m, t)
    assert np.array_equal(theta, 0.3 + 0.7 * t)
    assert np.array_equal(z, -1.0 + 2.5 * t)


def test_theta_proportional_to_z_for_constant_rates():
    # theta = (omega/v) * z when both start at zero
    m = MotionProfile(omega=3.0, film_speed=2.0)
    theta, z = integrate(m, 1.7)
    assert abs(theta - 1.5 * z) < 1e-12


def test_piecewise_omega_exact_value():
    m = MotionProfile(omega=[(0.0, 1.0), (1.0, 2.0)], film_speed=1.0)
    theta, z = integrate(m, 2.0)
    assert theta == 3.0
    assert z == 2.0


def test_piecewise_against_quadrature_oracle():
    pairs = [(0.0, 0.5), (1.5, 2.0), (4.0, -1.0)]
    m = MotionProfile(omega=pairs, film_speed=1.0)
    for t in (0.7, 1.5, 3.3, 6.0):
        theta, _ = integrate(m, t)
        assert abs(theta - midpoint_integral(pairs, t)) < 1e-4


def test_additivity_of_theta():
    pairs = [(0.0, 1.0), (1.0, -0.5), (2.5, 2.0)]
    m = MotionProfile(omega=pairs, film_speed=1.0, theta0=0.2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        t1, t2 = rng.uniform(0.0, 2.0, size=2)
        whole, _ = integrate(m, t1 + t2)
        first, _ = integrate(m, t1)
        # profile as seen from t1 onward
        shifted = []
        for k, (tb, v) in enumerate(pairs):
            end = pairs[k + 1][0] if k + 1 < len(pairs) else math.inf
            if end <= t1:
                continue
            shifted.append((max(tb - t1, 0.0), v))
        m2 = MotionProfile(omega=shifted, film_speed=1.0, theta0=0.0)
        second, _ = integrate(m2, t2)
        assert abs(whole - (first + second - 0.0)) < 1e-12


def test_z_strictly_increasing_for_random_speeds():
    rng = np.random.default_rng(13)
    for _ in range(10):
        breaks = np.sort(rng.uniform(0.1, 5.0, size=3))
        table = [(0.0, float(rng.uniform(0.1, 3.0)))]
        table += [(float(b), float(rng.uniform(0.1, 3.0))) for b in breaks]
        m = MotionProfile(omega=0.0, film_speed=table)
        _, z = integrate(m, np.linspace(0.0, 8.0, 300))
        assert np.all(np.diff(z) > 0)


def test_profile_validation():
    with pytest.raises(ValueError):
        MotionProfile(film_speed=0.0)
    with pytest.raises(ValueError):
        MotionProfile(film_speed=[(0.0, 1.0), (1.0, -2.0)])
    with pytest.raises(ValueError):
        MotionProfile(omega=[(0.5, 1.0)])  # must start at t = 0
    with pytest.raises(ValueError):
        MotionProfile(omega=[(0.0, 1.0), (0.0, 2.0)])
    with pytest.raises(ValueError):
        MotionProfile(omega=math.nan)
    for table in ([(0.0, 1.0, 2.0)], [0.0, 1.0], []):
        with pytest.raises(ValueError, match=r"sequence of \(t, value\) pairs"):
            MotionProfile(omega=table)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            MotionProfile(theta0=bad)
        with pytest.raises(ValueError):
            MotionProfile(z0=bad)


def test_integrate_rejects_negative_time():
    m = MotionProfile()
    with pytest.raises(ValueError):
        integrate(m, -0.1)
    with pytest.raises(ValueError):
        integrate(m, np.array([0.0, -1.0]))
    for bad in (math.nan, math.inf, np.array([0.0, math.nan])):
        with pytest.raises(ValueError, match="t must be finite"):
            integrate(m, bad)


def test_time_grid():
    g = TimeGrid(duration=2.0, samples=5)
    assert np.allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0], atol=0.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="duration"):
            TimeGrid(duration=bad, samples=8)
    with pytest.raises(ValueError):
        TimeGrid(duration=1.0, samples=1)
