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
from .geometry import TWO_PI, _sector_offset, ngon_upper

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
        if not self.residual >= 0:
            raise ValueError("residual must be >= 0")
        object.__setattr__(self, "warnings", tuple(self.warnings))
        if any(";" in w or "\n" in w for w in self.warnings):
            raise ValueError("a warning may not contain ';' or a newline")


def _rms(x: np.ndarray, out: Optional[np.ndarray] = None) -> float:
    # ``out`` (not x itself) takes the squares instead of a new array.
    return float(np.sqrt(np.mean(np.square(x, out=out))))


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
    n_max is an integer from 3 to N_MAX_LIMIT (past it, cos(pi/n_max) is 1).
    """
    if not m > 0:
        raise ValueError("m must be positive")
    if m > M:
        raise ValueError("m must not exceed M")
    if not isinstance(n_max, (int, np.integer)) or not 3 <= n_max <= N_MAX_LIMIT:
        raise ValueError(f"n_max must be an integer from 3 to {N_MAX_LIMIT}")
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


def _fit(img: KinematicImage, n: int, M: float, midline: float, warnings: list) -> tuple[str, float, float]:
    """(parity, omega_over_v, residual) of the n-gon fitted to the upper curve.

    The period is the mean spacing of the upper curve's maxima: at least
    two are needed, else InsufficientData, and spacings that disagree by
    more than 1% of their mean append a note to ``warnings`` (non-constant
    motion or a noisy record).  Both curves are centred on the midline
    and taken over M.  The parity is odd when the lower curve matches the
    upper one slid by half the period better than its mirror image, by
    more than EPS_PARITY relative; under 8 overlapping samples there is
    no odd evidence.  The upper curve is fitted by least squares to
    c + ngon_upper(n, R, a*t + phi), t = (z - z0)/span: from c = 0,
    R = 1, the period's a and the maxima's phase phi0 (their circular
    mean, at a*t + phi = pi/n modulo 2*pi/n), two Gauss-Newton steps on
    the start's Jacobian rows (1, cos u, t sin u, sin u), with u
    ngon_upper's sector offset, give omega_over_v = |a|/span and the
    residual, the fit's RMS times M; rows too few for four keep the start.
    """
    peaks_z = _interior_maxima(img)
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
                f"maxima spacings spread {spread:.2%} of the mean, "
                "so the motion may be non-constant or the record noisy"
            )

    # The call's S-long rows share one block, filled in place.  As some 30
    # separate temporaries a call, they were trimmed from the heap and
    # page-faulted back in on most calls, as often as the heap's layout
    # allowed, so their cost changed from run to run.  (Freeing one block
    # past glibc's 128 KiB mmap threshold also raises its trim threshold.)
    block = np.empty((9, len(img)))
    ysc, yic, t, r, sq, jac = *block[:5], block[5:]
    # Over M the curves lie in [-1, 1]: no square below overflows or loses
    # the trace to underflow, and a power-of-two scale keeps every bit.
    np.divide(np.subtract(img.y_s, midline, out=ysc), M, out=ysc)
    np.divide(np.subtract(img.y_i, midline, out=yic), M, out=yic)

    # The half-period shifted z increases, so the samples still on the
    # record are a prefix.
    zq = np.add(img.z, 0.5 * period, out=t)
    keep = int(np.searchsorted(zq, img.z[-1], side="right"))
    parity = "even"
    if keep >= 8:
        odd = np.interp(zq[:keep], img.z, ysc)
        s_odd = _rms(np.add(yic[:keep], odd, out=odd), out=sq[:keep])
        if not _rms(np.add(yic, ysc, out=r), out=sq) <= s_odd * (1.0 + EPS_PARITY):
            parity = "odd"

    span = float(img.z[-1] - img.z[0])
    omega_over_v = TWO_PI / (n * period)
    # At each maximum, n * (pi/n - theta) wraps the sector once around the unit circle.
    phi = float(np.angle(np.mean(np.exp(1j * (math.pi - n * omega_over_v * (peaks_z - img.z[0])))))) / n
    c, R, a = 0.0, 1.0, omega_over_v * span
    # u is ngon_upper's sector offset (sq takes its floor); the a and phi
    # columns are -t*sin(u), -sin(u).
    np.divide(np.subtract(img.z, img.z[0], out=t), span, out=t)
    u = _sector_offset(n, np.add(np.multiply(a, t, out=r), phi, out=r), out=r, floor_out=sq)
    jac[0] = 1.0
    np.multiply(t, np.sin(u, out=jac[3]), out=jac[2])
    np.subtract(ysc, np.cos(u, out=jac[1]), out=r)
    try:
        inv = np.linalg.inv(jac @ jac.T)
    except np.linalg.LinAlgError:  # rows too few to fix four parameters
        inv = np.zeros((4, 4))  # zero steps keep the start
    for _ in range(2):
        dc, dR, da, dphi = inv @ (jac @ r)
        c, R, a, phi = c + dc, R + dR, a - da, phi - dphi
        ngon_upper(n, R, np.add(np.multiply(a, t, out=r), phi, out=r), out=r)
        np.subtract(np.subtract(ysc, c, out=sq), r, out=r)
    return parity, abs(a) / span, M * _rms(r, out=sq)


def identify(img: KinematicImage, n_max: int = 64) -> InverseReport:
    """Full identification pipeline for a centred regular polygon or circle.

    One pass: the extremes and midline come first and settle the side
    count (or CIRCLE); for a polygon ``_fit`` finds the maxima of the
    upper curve once, and on one block of the curves, centred on the
    midline and taken over M, they give the parity test's half-period
    shift and the start of one least-squares fit of the n-gon, which
    gives the motion ratio and the residual.  Degenerate or too-short
    images raise; model mismatches that can still be summarized (large
    midline, parity disagreeing with n) come back as warnings instead.
    """
    warnings: list[str] = []
    m, M, midline = extremes(img)
    if abs(midline) > 1e-6 * M:
        warnings.append(
            f"midline {midline:.6g} exceeds 1e-6 of M, so the pole may not be the centroid"
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
        residual = M * _rms((img.y_s - midline) / M - 1.0)
    else:
        if n < 3:
            warnings.append(
                f"side-count formula gave {n}, clamped to 3 (m/M is below the triangle ratio)"
            )
            n = 3
        parity, omega_over_v, residual = _fit(img, n, M, midline, warnings)
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
