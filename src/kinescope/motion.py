"""Rotation and film-advance profiles.

Both the angular rate and the film speed are piecewise constant in time,
which makes the integrals piecewise linear and lets us accumulate them
exactly with cumulative sums; there is no quadrature error anywhere in
the kinematics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

ProfileSpec = Union[float, Sequence[tuple[float, float]]]


def _normalize_profile(spec: ProfileSpec, name: str):
    """Turn a constant or a list of (t_start, value) pairs into break arrays."""
    if np.isscalar(spec):
        breaks = np.array([0.0])
        values = np.array([float(spec)])
    else:
        arr = np.asarray(spec, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError(f"{name} must be a number or a sequence of (t, value) pairs")
        breaks = arr[:, 0].copy()
        values = arr[:, 1].copy()
        if breaks[0] != 0.0:
            raise ValueError(f"{name} profile must start at t = 0")
        if not np.all(np.diff(breaks) > 0):
            raise ValueError(f"{name} break times must be strictly increasing")
    if not (np.all(np.isfinite(breaks)) and np.all(np.isfinite(values))):
        raise ValueError(f"{name} profile must be finite")
    return breaks, values


@dataclass(frozen=True, eq=False)
class MotionProfile:
    """Piecewise-constant angular rate and film speed, plus initial offsets.

    ``omega`` and ``film_speed`` are either plain numbers (constant for all
    time) or sequences of (t_start, value) pairs whose first entry starts
    at t = 0.  The film must always move forward (every speed value > 0)
    so that film position is invertible to time; omega may take any sign.
    ``theta0`` and ``z0`` must be finite.
    """

    omega: ProfileSpec = 1.0
    film_speed: ProfileSpec = 1.0
    theta0: float = 0.0
    z0: float = 0.0

    def __post_init__(self):
        ob, ov = _normalize_profile(self.omega, "omega")
        sb, sv = _normalize_profile(self.film_speed, "film_speed")
        if not np.all(sv > 0):
            raise ValueError("film_speed must be positive everywhere")
        if not np.all(np.isfinite([self.theta0, self.z0])):
            raise ValueError("theta0 and z0 must be finite")
        object.__setattr__(self, "_omega_breaks", ob)
        object.__setattr__(self, "_omega_values", ov)
        object.__setattr__(self, "_speed_breaks", sb)
        object.__setattr__(self, "_speed_values", sv)


def _accumulate(breaks: np.ndarray, values: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Integral of the step function from 0 to each t, segment by segment.
    cum = np.concatenate([[0.0], np.cumsum(values[:-1] * np.diff(breaks))])
    j = np.searchsorted(breaks, t, side="right") - 1
    return cum[j] + values[j] * (t - breaks[j])


def integrate(profile: MotionProfile, t):
    """Angle theta(t) and film position z(t) for scalar or array t >= 0.

    Constant profiles reduce to theta0 + omega*t and z0 + v*t with no
    rounding beyond the final multiply.
    """
    tt = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(tt)):
        raise ValueError("t must be finite")
    if np.any(tt < 0):
        raise ValueError("profiles are defined for t >= 0 only")
    theta = profile.theta0 + _accumulate(profile._omega_breaks, profile._omega_values, tt)
    z = profile.z0 + _accumulate(profile._speed_breaks, profile._speed_values, tt)
    if tt.ndim == 0:
        return float(theta), float(z)
    return theta, z


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling times: ``samples`` (an integer >= 2) points from 0 over a finite ``duration``."""

    duration: float
    samples: int

    def __post_init__(self):
        if not 0 < self.duration < np.inf:
            raise ValueError("duration must be positive and finite")
        if not isinstance(self.samples, (int, np.integer)) or self.samples < 2:
            raise ValueError(f"samples must be an integer >= 2, got {self.samples!r}")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.duration, self.samples)
