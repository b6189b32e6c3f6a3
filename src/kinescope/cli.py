"""Command-line front end.

Four subcommands: ``direct`` synthesizes a trace from shape and motion
flags, ``inverse`` identifies a polygon from a trace CSV, ``render``
replots an existing CSV as SVG, and ``check`` runs the built-in
verification suite.  Exit codes: 0 success, 1 check failure, 2 bad
usage/config/input file, 3 convexity violation, 4 trace unusable for
the inverse problem.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from .direct import ClosedFormCase, trace, oracle_check
from .errors import ConvexityViolation, DegenerateImage, InsufficientData
from .geometry import (
    TWO_PI,
    Shape,
    SmoothContour,
    regular_ngon,
    support_heights,
)
from .inverse import N_MAX_LIMIT, identify
from .io import _read_table, format_report, read_trace_csv, write_svg, write_trace_csv
from .motion import MotionProfile, TimeGrid, integrate


def n_max(text: str) -> int:
    """argparse type of ``--n-max``, so a bad value is never blamed on the trace."""
    n = int(text)
    if not 3 <= n <= N_MAX_LIMIT:
        raise argparse.ArgumentTypeError(f"must be from 3 to {N_MAX_LIMIT}, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinescope",
        description="Trace rotating convex shapes onto a moving film, and identify "
        "regular polygons from such traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("direct", help="synthesize a trace and write it as CSV (and SVG)")
    p.add_argument("--shape", required=True, choices=["circle", "ellipse", "ngon", "polar"])
    p.add_argument("--radius", type=float, help="circle radius")
    p.add_argument("--a", type=float, help="ellipse semi-axis along x (a >= b)")
    p.add_argument("--b", type=float, help="ellipse semi-axis along y")
    p.add_argument("--sides", type=int, help="ngon side count")
    size = p.add_mutually_exclusive_group()
    size.add_argument("--side-length", type=float, help="ngon side length")
    size.add_argument("--circumradius", type=float, help="ngon circumradius")
    p.add_argument("--polar-file", help="CSV of beta,r samples for --shape polar")
    p.add_argument("--pole", choices=["center", "rim"], default="center",
                   help="rotation pole: shape center, or a rim point (circle only)")
    p.add_argument("--pole-x", type=float, default=None, help="explicit pole offset x")
    p.add_argument("--pole-y", type=float, default=None, help="explicit pole offset y")
    p.add_argument("--omega", type=float, default=1.0, help="constant angular rate (rad/time)")
    p.add_argument("--omega-file", help="piecewise table: lines of 't value'")
    p.add_argument("--speed", type=float, default=1.0, help="constant film speed")
    p.add_argument("--speed-file", help="piecewise table: lines of 't value'")
    p.add_argument("--theta0", type=float, default=0.0, help="initial angle (rad)")
    span = p.add_mutually_exclusive_group()
    span.add_argument("--periods", type=float, default=None,
                      help="duration as a count of full rotations (constant omega only)")
    span.add_argument("--duration", type=float, default=None, help="duration in time units")
    p.add_argument("--samples", type=int, default=None,
                   help="sample count (default: 1024 per rotation)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", help="also plot to this SVG path")

    p = sub.add_parser("inverse", help="identify a regular polygon or circle from a trace CSV")
    p.add_argument("--in", dest="inp", required=True, help="input trace CSV")
    p.add_argument("--report", help="write the full key=value report here")
    p.add_argument("--n-max", type=n_max, default=64,
                   help=f"largest resolvable side count, 3..{N_MAX_LIMIT}")

    p = sub.add_parser("render", help="replot a trace CSV as SVG")
    p.add_argument("--in", dest="inp", required=True, help="input trace CSV")
    p.add_argument("--svg", required=True, help="output SVG path")

    p = sub.add_parser("check", help="run the built-in verification suite")
    p.add_argument("--case", choices=list(CHECKS), help="run a single check")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--side", type=float, default=1.0)
    return parser


def _read_pairs(path: str, flag: str) -> list[tuple[float, float]]:
    # Piecewise profile table: one 't value' pair per line, '#' comments allowed.
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise ValueError(f"{flag}: cannot read {path}: {exc}") from None
    pairs = []
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        ln = raw.split("#", 1)[0].strip()
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{flag}: {path}:{ln_no}: expected 't value', got '{raw.strip()}'")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ValueError(f"{flag}: {path}:{ln_no}: non-numeric entry") from None
    if not pairs:
        raise ValueError(f"{flag}: {path} holds no samples")
    return pairs


def _pole_offset(ns: argparse.Namespace, default: tuple[float, float]) -> np.ndarray:
    x, y = default
    return np.array([x if ns.pole_x is None else ns.pole_x, y if ns.pole_y is None else ns.pole_y])


def _build_shape(ns: argparse.Namespace) -> Shape:
    kind = ns.shape
    if kind == "circle":
        if ns.radius is None or not ns.radius > 0:
            raise ValueError("--radius must be given and positive for --shape circle")
        default = (ns.radius, 0.0) if ns.pole == "rim" else (0.0, 0.0)
        return SmoothContour.circle(ns.radius, _pole_offset(ns, default))
    if ns.pole == "rim":
        raise ValueError("--pole rim only applies to --shape circle")
    if kind == "ellipse":
        if ns.a is None or ns.b is None:
            raise ValueError("--a and --b are required for --shape ellipse")
        return SmoothContour.ellipse(ns.a, ns.b, _pole_offset(ns, (0.0, 0.0)))
    if kind == "ngon":
        n = ns.sides
        if n is None or n < 3:
            raise ValueError("--sides of at least 3 is required for --shape ngon")
        side, circ = ns.side_length, ns.circumradius
        if side is None and circ is None:
            raise ValueError("--side-length or --circumradius is required for --shape ngon")
        if circ is None:
            if not side > 0:
                raise ValueError("--side-length must be positive")
            circ = side / (2.0 * math.sin(math.pi / n))
        return replace(regular_ngon(n, circ), pole_offset=_pole_offset(ns, (0.0, 0.0)))
    if ns.polar_file is None:
        raise ValueError("--polar-file is required for --shape polar")
    try:
        beta, r = _read_table(ns.polar_file, "beta,r")
    except (OSError, ValueError) as exc:
        raise ValueError(f"--polar-file: {exc}") from None
    return SmoothContour.from_polar(beta, r, _pole_offset(ns, (0.0, 0.0)))


def _build_profile(ns: argparse.Namespace) -> MotionProfile:
    omega = _read_pairs(ns.omega_file, "--omega-file") if ns.omega_file else ns.omega
    speed = _read_pairs(ns.speed_file, "--speed-file") if ns.speed_file else ns.speed
    try:
        return MotionProfile(omega=omega, film_speed=speed, theta0=ns.theta0)
    except ValueError as exc:
        raise ValueError(f"--omega/--speed/--theta0: {exc}") from None


def _build_grid(ns: argparse.Namespace, profile: MotionProfile) -> TimeGrid:
    periods, duration = ns.periods, ns.duration
    if (periods is None) and (duration is None):
        periods = 1.0
    if periods is not None:
        if ns.omega_file:
            raise ValueError("--periods needs a constant --omega; use --duration instead")
        omega = ns.omega
        if omega == 0.0:
            raise ValueError("--periods is undefined for --omega 0; use --duration")
        if not periods > 0:
            raise ValueError("--periods must be positive")
        duration = periods * TWO_PI / abs(omega)
        rotations = periods
    else:
        if not duration > 0:
            raise ValueError("--duration must be positive")
        # Rotations are counted as the integral of |omega| over the record.
        rates = [(t, abs(w)) for t, w in profile.omega] if ns.omega_file else abs(ns.omega)
        turned, _ = integrate(MotionProfile(omega=rates), duration)
        rotations = max(1.0, turned / TWO_PI)
    samples = ns.samples
    if samples is None:
        samples = max(2, int(round(1024 * rotations)))
    return TimeGrid(duration=duration, samples=samples)


def cmd_direct(ns: argparse.Namespace) -> int:
    """Build shape, motion, and grid from flags; trace; write CSV/SVG."""
    shape = _build_shape(ns)
    profile = _build_profile(ns)
    grid = _build_grid(ns, profile)
    img = trace(shape, profile, grid)
    write_trace_csv(img, ns.out)
    if ns.svg:
        write_svg(img, ns.svg)
    return 0


def cmd_inverse(ns: argparse.Namespace) -> int:
    """Identify the polygon behind a trace CSV; print n, optionally report."""
    img = read_trace_csv(ns.inp)
    rep = identify(img, n_max=ns.n_max)
    print(f"n={rep.n}")
    if ns.report:
        Path(ns.report).write_text(format_report(rep), encoding="ascii")
    return 0


def cmd_render(ns: argparse.Namespace) -> int:
    """Replot an existing trace CSV as an SVG."""
    img = read_trace_csv(ns.inp)
    write_svg(img, ns.svg)
    return 0


def _check_closed_form(case: ClosedFormCase) -> tuple[float, str]:
    return oracle_check(case, n_theta=512) / case.a, "max |generic - closed form| / a"


def _random_ellipse(rng: np.random.Generator) -> SmoothContour:
    """Centred ellipse with a ~ U(0.5, 3) and b/a ~ U(0.2, 1), as the tests draw it."""
    a = rng.uniform(0.5, 3.0)
    b = rng.uniform(0.2, 1.0) * a
    return SmoothContour.ellipse(a, b)


def _random_test_shapes(rng: np.random.Generator, count: int) -> list[Shape]:
    shapes: list[Shape] = []
    for k in range(count):
        if k % 2 == 0:
            shapes.append(_random_ellipse(rng))
        else:
            n = int(rng.integers(3, 9))
            radii = rng.uniform(0.5, 2.0)
            shapes.append(regular_ngon(n, radii))
    return shapes


def _check_reflection() -> tuple[float, str]:
    rng = np.random.default_rng(0)
    worst = 0.0
    for shape in _random_test_shapes(rng, 12):
        th = rng.uniform(0.0, TWO_PI, 24)
        ys_pi, _ = support_heights(shape, th + math.pi)
        _, yi = support_heights(shape, th)
        worst = max(worst, float(np.max(np.abs(yi + ys_pi))))
    return worst, "max |Y_i(t) + Y_s(t+pi)|"


def _check_pole_invariance() -> tuple[float, str]:
    rng = np.random.default_rng(1)
    worst = 0.0
    for shape in _random_test_shapes(rng, 12):
        moved = replace(shape, pole_offset=rng.uniform(-10.0, 10.0, size=2))
        th = rng.uniform(0.0, TWO_PI, 16)
        ys0, yi0 = support_heights(shape, th)
        ys1, yi1 = support_heights(moved, th)
        worst = max(worst, float(np.max(np.abs((ys1 - yi1) - (ys0 - yi0)))))
    return worst, "max width deviation under pole moves"


def _check_roundtrip() -> tuple[float, str]:
    worst_rel = 0.0
    for n in range(3, 9):
        radius = 1.0 + 0.1 * n
        profile = MotionProfile(omega=1.0, film_speed=1.0)
        grid = TimeGrid(duration=TWO_PI, samples=1024 * n)
        rep = identify(trace(regular_ngon(n, radius), profile, grid))
        if rep.n != n:
            return math.inf, f"n={n} identified as {rep.n}; |M-R|/R"
        worst_rel = max(worst_rel, abs(rep.circumradius_M - radius) / radius)
    return worst_rel, "n=3..8 exact; max |M-R|/R"


# Each check takes the parsed ``check`` flags and returns (worst, what it
# measures), and passes when worst <= tol; closed-form gaps are relative to a.
CHECKS = {
    "circle-center": (lambda ns: _check_closed_form(ClosedFormCase.circle_center(ns.radius)), 1e-12),
    "circle-rim": (lambda ns: _check_closed_form(ClosedFormCase.circle_rim(ns.radius)), 1e-8),
    "ellipse": (lambda ns: _check_closed_form(ClosedFormCase.ellipse_center(ns.a, ns.b)), 1e-8),
    "square": (lambda ns: _check_closed_form(ClosedFormCase.square_center(ns.side)), 1e-12),
    "triangle": (lambda ns: _check_closed_form(ClosedFormCase.triangle_center(ns.side)), 1e-12),
    "reflection": (lambda ns: _check_reflection(), 1e-10),
    "pole-invariance": (lambda ns: _check_pole_invariance(), 1e-9),
    "roundtrip": (lambda ns: _check_roundtrip(), 1e-4),
}


def cmd_check(ns: argparse.Namespace) -> int:
    """Run verification cases; print one PASS/FAIL line each."""
    names = [ns.case] if ns.case else list(CHECKS)
    failures = 0
    for name in names:
        check, tol = CHECKS[name]
        worst, what = check(ns)
        ok = worst <= tol
        print(f"{'PASS' if ok else 'FAIL'} {name}: {what} = {worst:.3e} (tol {tol:.0e})")
        if not ok:
            failures += 1
    return 1 if failures else 0


def run(argv: Optional[list[str]] = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        handler = {
            "direct": cmd_direct,
            "inverse": cmd_inverse,
            "render": cmd_render,
            "check": cmd_check,
        }[ns.command]
        return handler(ns)
    except ConvexityViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DegenerateImage, InsufficientData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
