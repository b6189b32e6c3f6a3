"""Identification of regular polygons (and circles) from a trace.

The method works entirely off the upper and lower curves of the image.
Relative to the midline, the minimum m of the upper curve is the apothem
of the generating polygon and the maximum M is its circumradius, so the
side count follows from n = pi/arccos(m/M).  Odd polygons betray
themselves by upper and lower curves that are shifted copies rather than
mirror images; circles leave m and M indistinguishable.  Everything here
assumes rotation about the centroid at constant rates; other inputs are
reported with warnings or rejected, never silently misread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .direct import KinematicImage
from .errors import DegenerateImage, InsufficientData
from .geometry import TWO_PI, ngon_upper

# Sentinel side count for images whose m/M ratio is beyond the resolvable
# polygon range.  Compared with `is` or `==`; it is a plain string so it
# survives serialization.
CIRCLE = "CIRCLE"

# Relative slack when comparing the even score against the half-period
# shifted score.  Large enough that measurement noise on a genuinely even
# image cannot push the shifted score below the unshifted one, small enough
# that a real half-period shift (whose even score is worse by orders of
# magnitude) is never missed.
EPS_PARITY = 1e-3

# Largest n_max: past it cos(pi/n_max) rounds to 1 and the CIRCLE gate
# could never fire, so m = M would ask for an infinite side count.
N_MAX_LIMIT = 298156826


@dataclass(frozen=True, slots=True)
class InverseReport:
    """Result of ``identify``: side count, sizes, parity, motion, fit.

    ``n`` is an integer side count or the string CIRCLE.  ``n_raw`` is the
    value of pi/arccos(m/M) before rounding (inf when m = M); its distance
    to ``n`` is a confidence proxy.  ``omega_over_v`` is nan when the image
    gives no period to measure (the circle case).  Warnings carry every
    soft diagnostic the pipeline produced, in order.
    """

    n: Union[int, str]
    apothem_m: float
    circumradius_M: float
    parity: str
    omega_over_v: float
    midline: float
    residual: float
    warnings: tuple[str, ...] = ()
    n_raw: float = math.nan

    def __post_init__(self):
        if self.n != CIRCLE:
            if not isinstance(self.n, (int, np.integer)) or self.n < 3:
                raise ValueError("n must be an integer >= 3 or CIRCLE")
            object.__setattr__(self, "n", int(self.n))
        # Plain Python floats so repr-based serialization stays clean.
        for name in ("apothem_m", "circumradius_M", "omega_over_v", "midline", "residual", "n_raw"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.apothem_m <= self.circumradius_M:
            raise ValueError("report requires 0 < m <= M")
        if self.parity not in ("even", "odd", "circle"):
            raise ValueError("parity must be even, odd, or circle")
        if self.residual < 0:
            raise ValueError("residual must be >= 0")
        object.__setattr__(self, "warnings", tuple(self.warnings))


def _rms(x: np.ndarray, out: Optional[np.ndarray] = None) -> float:
    # Squares past 1e154 overflow; only then is x taken in a power-of-two unit
    # of its size, so every input that does not overflow keeps its bits.
    # ``out`` (not x itself) takes the squares instead of a new array.
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(np.square(x, out=out))))
    if rms == math.inf:
        e = int(np.frexp(np.max(np.abs(x)))[1])
        rms = math.ldexp(float(np.sqrt(np.mean(np.square(np.ldexp(x, -e))))), e)
    return rms


def _parabolic_refine(x: np.ndarray, y: np.ndarray, k: int) -> tuple[float, float]:
    """Extremum location and value from a parabola through samples k-1..k+1.

    Falls back to the raw sample at the array ends, on a flat triple, or
    when the fitted vertex leaves the neighbouring samples (which means
    the triple does not bracket an extremum).
    """
    if k <= 0 or k >= len(y) - 1:
        return float(x[k]), float(y[k])
    y0, y1, y2 = float(y[k - 1]), float(y[k]), float(y[k + 1])
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(x[k]), y1
    delta = 0.5 * (y0 - y2) / denom
    if not -1.0 <= delta <= 1.0:
        return float(x[k]), y1
    h = 0.5 * (float(x[k + 1]) - float(x[k - 1]))
    return float(x[k]) + delta * h, y1 - 0.25 * (y0 - y2) * delta


def extremes(img: KinematicImage) -> tuple[float, float, float]:
    """(m, M, midline) of the image, refined past the sampling grid.

    midline is halfway between the top of the upper curve and the bottom
    of the lower one; m and M are the refined minimum and maximum of the
    upper curve measured from the midline.  Assumes the image spans at
    least one full period of the upper curve, which is the caller's
    responsibility to ensure.  Raises DegenerateImage only when M is 0,
    on an exactly flat image; a tiny image is just scaled.
    """
    z, ys, yi = img.z, img.y_s, img.y_i
    _, top = _parabolic_refine(z, ys, int(np.argmax(ys)))
    _, low = _parabolic_refine(z, ys, int(np.argmin(ys)))
    _, bot = _parabolic_refine(z, yi, int(np.argmin(yi)))
    midline = 0.5 * (top + bot)
    m = low - midline
    big = top - midline
    if big == 0.0:
        raise DegenerateImage("image is flat; nothing to identify")
    return m, big, midline


def _raw_side_count(ratio: float) -> float:
    if ratio >= 1.0:
        return math.inf
    return math.pi / math.acos(ratio)


def side_count(m: float, M: float, n_max: int = 64):
    """Rounded side count n = round(pi/arccos(m/M)), or CIRCLE.

    CIRCLE is returned when m/M exceeds cos(pi/n_max): past that point
    one sampling-noise quantum moves the answer by a whole side, so a
    count would be meaningless.  Raises ValueError unless 0 < m <= M and
    3 <= n_max <= N_MAX_LIMIT (past which cos(pi/n_max) rounds to 1).
    """
    if not m > 0:
        raise ValueError("m must be positive")
    if m > M:
        raise ValueError("m must not exceed M")
    if not 3 <= n_max <= N_MAX_LIMIT:
        raise ValueError(f"n_max must be at least 3 and at most {N_MAX_LIMIT}")
    ratio = m / M
    if ratio > math.cos(math.pi / n_max):
        return CIRCLE
    return int(round(_raw_side_count(ratio)))


def _interior_maxima(img: KinematicImage) -> np.ndarray:
    """Refined z of each maximum of the upper curve.

    A maximum is the peak of an excursion above 75% of the curve's band.
    The excursion only ends once the curve drops below 50% of the band:
    without that hysteresis, noise hovering at a single threshold chops
    one peak into several.  One ordered scan of the samples that enter
    either band finds them.  Excursions cut off by either end of the
    record are dropped, since their peak may lie outside the window.
    """
    z, ys = img.z, img.y_s
    lo = float(ys.min())
    band = float(ys.max()) - lo
    high = ys >= lo + 0.75 * band
    low = ys < lo + 0.50 * band
    peaks_z = []
    start: Optional[int] = 0 if high[0] else None
    for k in np.flatnonzero(high[1:] & ~high[:-1] | low[1:] & ~low[:-1]) + 1:
        if high[k]:
            if start is None:
                start = int(k)
        elif start is not None:
            if start > 0:
                peak = start + int(np.argmax(ys[start:k]))
                peaks_z.append(_parabolic_refine(z, ys, peak)[0])
            start = None
    return np.asarray(peaks_z)


def _period(peaks_z: np.ndarray, warnings: list) -> float:
    """Mean z-distance between successive maxima of the upper curve.

    Needs at least two interior maxima, else InsufficientData.  When the
    individual spacings disagree by more than 1% of their mean, a note is
    appended to ``warnings``: either the motion was not constant or the
    record is noisy, and the mean is then only a summary.
    """
    if len(peaks_z) < 2:
        raise InsufficientData(
            f"found {len(peaks_z)} interior maxima; need at least 2 to measure a period"
        )
    spacings = np.diff(peaks_z)
    period = float(np.mean(spacings))
    if len(spacings) > 1:
        spread = float(spacings.max() - spacings.min()) / period
        if spread > 0.01:
            warnings.append(
                f"maxima spacings spread {spread:.2%} of the mean; "
                "the motion may be non-constant or the record noisy"
            )
    return period


def _parity(img: KinematicImage, midline: float, period: float) -> str:
    """Even or odd, from how the lower curve matches the upper one.

    Mirror-image curves mean an even side count; curves that only match
    after sliding the upper one by half the measured period mean an odd
    count (the peak spacing measures the period far more finely than a
    scan of offsets would).  Under 8 overlapping samples there is no odd
    evidence.  The unshifted score wins ties within EPS_PARITY relative.
    """
    # One block holds the S-long rows (see _aligned_residual).
    ysc, yic, zq = np.empty((3, len(img)))
    np.subtract(img.y_s, midline, out=ysc)
    np.subtract(img.y_i, midline, out=yic)
    np.add(img.z, 0.5 * period, out=zq)
    # z increases, so the shifted samples still on the record are a prefix.
    keep = int(np.searchsorted(zq, img.z[-1], side="right"))
    if keep < 8:
        return "even"
    odd = np.interp(zq[:keep], img.z, ysc)
    s_odd = _rms(np.add(yic[:keep], odd, out=odd), out=zq[:keep])
    s_even = _rms(np.add(yic, ysc, out=ysc), out=zq)
    return "even" if s_even <= s_odd * (1.0 + EPS_PARITY) else "odd"


def _aligned_residual(
    img: KinematicImage, n: int, M: float, midline: float, omega_over_v: float, peaks_z: np.ndarray
) -> float:
    """RMS gap between the upper curve and a re-synthesized n-gon envelope.

    That envelope is ``ngon_upper(n, M, theta + phi)``; its phase phi is
    free.  Each maximum of the upper curve is an angle at which a vertex
    points straight up, where theta + phi = pi/n modulo the sector
    2*pi/n; the circular mean of those phases is the starting phase phi0.
    Near the best phase the squared gap is a parabola in phi, so one
    parabola through phi0 and phi0 +- a fiftieth of a sector gives a
    vertex; the gap is taken there too when it lies inside that bracket,
    and the smallest gap seen is returned, never more than phi0's.
    """
    # The call's S-long rows share one block, filled in place.  As some 30
    # separate temporaries a call, they were trimmed from the heap and
    # page-faulted back in on most calls, as often as the heap's layout
    # allowed, so their cost changed from run to run.  (Freeing one block
    # past glibc's 128 KiB mmap threshold also raises its trim threshold.)
    ysc, theta, env, sq = np.empty((4, len(img)))
    np.subtract(img.y_s, midline, out=ysc)
    np.multiply(omega_over_v, np.subtract(img.z, img.z[0], out=theta), out=theta)
    step = TWO_PI / n / 50

    def gap(phi: float) -> float:
        ngon_upper(n, M, np.add(theta, phi, out=env), out=env)
        return _rms(np.subtract(ysc, env, out=env), out=sq)

    peak_theta = omega_over_v * (peaks_z - img.z[0])
    # n * (pi/n - theta) wraps the sector once around the unit circle.
    phi0 = float(np.angle(np.mean(np.exp(1j * (math.pi - n * peak_theta))))) / n
    mid, left, right = gap(phi0), gap(phi0 - step), gap(phi0 + step)
    best = min(mid, left, right)
    if mid > 0.0:
        # Squared gaps as ratios to the middle one: no gap is squared, so
        # none overflows, and a power-of-two scale of the trace leaves the
        # vertex's bits alone.  An infinite ratio gives a nan vertex, skipped.
        a, b = (left / mid) * (left / mid), (right / mid) * (right / mid)
        if a + b > 2.0:
            vertex = 0.5 * (a - b) / (a + b - 2.0)
            if -1.0 < vertex < 1.0:
                best = min(best, gap(phi0 + vertex * step))
    return best


def identify(img: KinematicImage, n_max: int = 64) -> InverseReport:
    """Full identification pipeline for a centred regular polygon or circle.

    One pass: the extremes and midline come first and settle the side
    count (or CIRCLE); for a polygon the maxima of the upper curve are
    found once and give the period, hence the motion ratio, and the
    phase of the residual against the implied polygon; the parity test
    reuses the midline and period.  Degenerate or too-short images raise;
    model mismatches that can still be summarized (large midline, parity
    disagreeing with n) come back as warnings on the report instead.
    """
    warnings: list[str] = []
    m, M, midline = extremes(img)
    if abs(midline) > 1e-6 * M:
        warnings.append(
            f"midline {midline:.6g} exceeds 1e-6 of M; the pole may not be the centroid"
        )
    if not m > 0:
        raise InsufficientData(
            "upper curve dips below the midline (m <= 0); "
            "this is not the image of a centred regular polygon"
        )
    n = side_count(m, M, n_max=n_max)
    n_raw = _raw_side_count(m / M)

    if n == CIRCLE:
        parity = "circle"
        omega_over_v = math.nan
        residual = _rms(img.y_s - (midline + M))
    else:
        if n < 3:
            warnings.append(
                f"side-count formula gave {n}; clamped to 3 (m/M is below the triangle ratio)"
            )
            n = 3
        peaks_z = _interior_maxima(img)
        period = _period(peaks_z, warnings)
        parity = _parity(img, midline, period)
        omega_over_v = TWO_PI / (n * period)
        residual = _aligned_residual(img, n, M, midline, omega_over_v, peaks_z)
        want = "even" if n % 2 == 0 else "odd"
        if parity != want:
            warnings.append(f"parity test says {parity} but a {n}-gon is {want}")

    return InverseReport(
        n=n,
        apothem_m=m,
        circumradius_M=M,
        parity=parity,
        omega_over_v=omega_over_v,
        midline=midline,
        residual=residual,
        warnings=tuple(warnings),
        n_raw=n_raw,
    )
