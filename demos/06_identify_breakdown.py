"""Where identify is right and where it breaks: one seeded row per input.

In model: regular n-gons, n = 3..16, at 8, 64 and 1000 samples per side
over 16 periods of the upper curve, with R, theta0, omega (either sign)
and film speed drawn from the seed, and Gaussian noise of sigma/R = 0,
1e-4, 1e-3, 3e-3, 1e-2 and 3e-2 on both curves (252 rows).  Out of
model: centred ellipses at b/a = 0.5, 0.7, 0.9 and 0.95, the 2x1.9 and
2x1.4 ellipses, irregular convex polygons (hulls of Gaussian points) and
regular polygons spun about an off-centre pole.

Each row gives the input's parameters, then identify's n, parity,
|dR|/R, |d omega|/omega, residual/M and warning count, or the name of
the exception it raised.  Floats keep 3 significant digits, and the
three relative errors read <1e-12 below 1e-12, so the file changes only
when a result does.  Seed 6; the whole run takes a few seconds.
"""

import csv
import math
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

from kinescope import (
    CIRCLE,
    ClosedFormCase,
    ConvexityViolation,
    ConvexPolygon,
    KinematicImage,
    MotionProfile,
    TimeGrid,
    closed_form,
    identify,
    integrate,
    regular_ngon,
    trace,
)

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

TWO_PI = 2.0 * math.pi
SIDES = range(3, 17)
SAMPLES_PER_SIDE = (8, 64, 1000)
PERIODS = 16
NOISE = (0.0, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2)
COLUMNS = ("kind", "n", "R", "b_a", "pole_off", "omega", "speed", "theta0", "samples", "sigma_R",
           "n_hat", "parity", "dR_R", "domega_omega", "residual_M", "warnings", "error")

rng = np.random.default_rng(6)


def fmt(x):
    return "" if x is None else f"{x:.3g}"


def rel(x):
    # Rounding-level errors differ with the libm's last bit; they all read <1e-12.
    return "<1e-12" if x < 1e-12 else fmt(x)


def motion(turns, samples):
    omega = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
    profile = MotionProfile(omega=omega, film_speed=float(rng.uniform(0.5, 2.0)),
                            theta0=float(rng.uniform(0.0, TWO_PI)))
    return profile, TimeGrid(duration=turns * TWO_PI / abs(omega), samples=samples)


def row(kind, img, profile, n=None, R=None, b_a=None, pole_off=None, sigma_R=None):
    cells = {"kind": kind, "n": n, "R": fmt(R), "b_a": fmt(b_a), "pole_off": fmt(pole_off),
             "omega": fmt(profile.omega), "speed": fmt(profile.film_speed), "theta0": fmt(profile.theta0),
             "samples": len(img), "sigma_R": fmt(sigma_R)}
    try:
        rep = identify(img)
    except ValueError as exc:
        return {**cells, "error": type(exc).__name__}
    cells.update(n_hat=rep.n, parity=rep.parity, residual_M=rel(rep.residual / rep.circumradius_M),
                 warnings=len(rep.warnings))
    if kind == "ngon":
        omega_v = abs(profile.omega) / profile.film_speed
        cells.update(dR_R=rel(abs(rep.circumradius_M - R) / R),
                     domega_omega=rel(abs(rep.omega_over_v - omega_v) / omega_v))
    return cells


def ellipse(a, b_a, turns, samples):
    profile, grid = motion(turns, samples)
    theta, z = integrate(profile, grid.times())
    ys, yi = closed_form(ClosedFormCase.ellipse_center(a, b_a * a), theta)
    return row("ellipse", KinematicImage(z, ys, yi), profile, R=a, b_a=b_a)


def irregular():
    while True:
        pts = rng.normal(size=(10, 2))
        try:
            poly = ConvexPolygon(pts[ConvexHull(pts).vertices])
            break
        except ConvexityViolation:
            continue
    profile, grid = motion(3.0, 3072)
    return row("irregular", trace(poly, profile, grid), profile, n=len(poly))


def off_centre():
    n = int(rng.integers(3, 17))
    R = float(rng.uniform(0.5, 2.0))
    off, phi = float(rng.uniform(0.1, 0.3)), float(rng.uniform(0.0, TWO_PI))
    poly = ConvexPolygon(regular_ngon(n, R).vertices, off * R * np.array([math.cos(phi), math.sin(phi)]))
    profile, grid = motion(3.0, 3072)
    return row("off-centre", trace(poly, profile, grid), profile, n=n, R=R, pole_off=off)


rows = []
for sigma in NOISE:
    for spp in SAMPLES_PER_SIDE:
        for n in SIDES:
            R = float(rng.uniform(0.5, 2.0))
            samples = spp * PERIODS
            profile, grid = motion(PERIODS / n, samples)
            img = trace(regular_ngon(n, R), profile, grid)
            if sigma:
                img = KinematicImage(img.z, img.y_s + rng.normal(0.0, sigma * R, samples),
                                     img.y_i + rng.normal(0.0, sigma * R, samples))
            rows.append(row("ngon", img, profile, n=n, R=R, sigma_R=sigma))
for b_a in (0.5, 0.7, 0.9, 0.95):
    rows.append(ellipse(float(rng.uniform(0.5, 2.0)), b_a, 3.0, 3072))
for b_a in (0.95, 0.7):  # the 2x1.9 and 2x1.4 ellipses
    rows.append(ellipse(2.0, b_a, 2.0, 4096))
rows += [irregular() for _ in range(4)]
rows += [off_centre() for _ in range(4)]

with open(out / "identify_breakdown.csv", "w", newline="", encoding="ascii") as f:
    writer = csv.DictWriter(f, COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)

print("sigma/R   right n   right parity   (of %d per level)" % (len(SIDES) * len(SAMPLES_PER_SIDE)))
for sigma in NOISE:
    level = [r for r in rows if r["kind"] == "ngon" and r["sigma_R"] == fmt(sigma)]
    right_n = sum(r.get("n_hat") == r["n"] for r in level)
    right_parity = sum(r.get("parity") == ("even" if r["n"] % 2 == 0 else "odd") for r in level)
    print(f"{sigma:<9g} {right_n:>7}   {right_parity:>12}")
# Out of model, a raised error, any warning or CIRCLE is a flag; a bare polygon answer is a misread.
ood = [r for r in rows if r["kind"] != "ngon"]
flagged = sum("error" in r or r["warnings"] > 0 or r["n_hat"] == CIRCLE for r in ood)
print(f"out of model: {flagged} of {len(ood)} flagged")
print("wrote", out / "identify_breakdown.csv")
