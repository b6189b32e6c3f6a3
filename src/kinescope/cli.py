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
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Optional

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
from .io import _lines, _read_table, format_report, read_trace_csv, write_svg, write_trace_csv
from .motion import MotionProfile, TimeGrid, integrate

# The size flags each --shape needs; "x|y" takes either one.
SIZE_FLAGS = {"circle": ("--radius",), "ellipse": ("--a", "--b"),
              "ngon": ("--sides", "--side-length|--circumradius"), "polar": ("--polar-file",)}

# Largest sample count `direct` accepts: one float64 array of 1 GiB.
MAX_SAMPLES = 2**27

# Largest --sides: building the polygon peaks near 96 bytes per vertex, 0.8 GiB at the limit.
MAX_SIDES = 2**23


def _checked(kind: type, ok: Callable[[float], bool], why: str) -> Callable[[str], float]:
    """An argparse type: ``kind(text)``, refused with ``why`` unless ``ok`` holds for it."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{why}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -5 and -.5 as negative numbers; -1e-3, -inf and
        # -nan would be read as flags.  No kinescope flag looks like a number.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)

    def error(self, message: str):
        # One line, "error: --flag: why", as the commands print their own errors.
        self.exit(2, f"error: {message.removeprefix('argument ')}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kinescope",
        description="Trace rotating convex shapes onto a moving film, and identify "
        "regular polygons from such traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _checked(float, lambda x: 0 < x < math.inf, "must be positive and finite")
    finite = _checked(float, math.isfinite, "must be finite")

    p = sub.add_parser("direct", help="synthesize a trace and write it as CSV (and SVG)")
    p.add_argument("--shape", required=True, choices=["circle", "ellipse", "ngon", "polar"])
    p.add_argument("--radius", type=positive, help="circle radius")
    p.add_argument("--a", type=positive, help="ellipse semi-axis along x (a >= b)")
    p.add_argument("--b", type=positive, help="ellipse semi-axis along y")
    p.add_argument("--sides", help=f"ngon side count, 3..{MAX_SIDES}",
                   type=_checked(int, lambda n: 3 <= n <= MAX_SIDES, f"must be from 3 to {MAX_SIDES}"))
    size = p.add_mutually_exclusive_group()
    size.add_argument("--side-length", type=positive, help="ngon side length")
    size.add_argument("--circumradius", type=positive, help="ngon circumradius")
    p.add_argument("--polar-file", help="CSV of beta,r samples for --shape polar")
    p.add_argument("--pole-x", type=finite, default=0.0, help="pole offset x (default: the shape centre)")
    p.add_argument("--pole-y", type=finite, default=0.0, help="pole offset y")
    p.add_argument("--omega", type=finite, default=1.0, help="constant angular rate (rad/time)")
    p.add_argument("--omega-file", help="piecewise table: lines of 't value'")
    p.add_argument("--speed", type=positive, default=1.0, help="constant film speed")
    p.add_argument("--speed-file", help="piecewise table: lines of 't value'")
    p.add_argument("--theta0", type=finite, default=0.0, help="initial angle (rad)")
    span = p.add_mutually_exclusive_group()
    span.add_argument("--periods", type=positive, default=1.0,
                      help="duration as a count of full rotations (constant omega only; default 1)")
    span.add_argument("--duration", type=positive, default=None, help="duration in time units")
    p.add_argument("--samples", type=_checked(int, lambda n: n >= 2, "must be at least 2"), default=None,
                   help=f"sample count (default: 1024 per rotation; at most {MAX_SAMPLES})")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", help="also plot to this SVG path")
    p.set_defaults(handler=cmd_direct)

    p = sub.add_parser("inverse", help="identify a regular polygon or circle from a trace CSV")
    p.add_argument("--in", dest="inp", required=True, help="input trace CSV")
    p.add_argument("--report", help="write the full key=value report here")
    p.add_argument("--n-max", default=64, help=f"largest resolvable side count, 3..{N_MAX_LIMIT}",
                   type=_checked(int, lambda n: 3 <= n <= N_MAX_LIMIT, f"must be from 3 to {N_MAX_LIMIT}"))
    p.set_defaults(handler=cmd_inverse)

    p = sub.add_parser("render", help="replot a trace CSV as SVG")
    p.add_argument("--in", dest="inp", required=True, help="input trace CSV")
    p.add_argument("--svg", required=True, help="output SVG path")
    p.set_defaults(handler=cmd_render)

    p = sub.add_parser("check", help="run the built-in verification suite")
    p.add_argument("--case", choices=list(CHECKS), help="run a single check")
    p.set_defaults(handler=cmd_check)
    return parser


def _read_pairs(path: str, flag: str) -> list[tuple[float, float]]:
    # Piecewise profile table: one 't value' pair per line, '#' comments allowed.
    pairs = []
    try:
        for ln_no, raw in _lines(path):
            if not (parts := raw.split("#", 1)[0].split()):
                continue
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln_no}: expected 't value', got '{raw}'")
            try:
                pairs.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(f"{path}:{ln_no}: non-numeric entry") from None
    except OSError as exc:
        raise ValueError(f"{flag}: cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    if not pairs:
        raise ValueError(f"{flag}: {path} holds no samples")
    return pairs


def _build_shape(ns: argparse.Namespace) -> Shape:
    kind = ns.shape
    missing = [need.replace("|", " or ") for need in SIZE_FLAGS[kind]
               if all(getattr(ns, flag[2:].replace("-", "_")) is None for flag in need.split("|"))]
    if missing:
        raise ValueError(f"--shape {kind} needs {' and '.join(missing)}")
    pole = (ns.pole_x, ns.pole_y)
    flags = "/".join(SIZE_FLAGS[kind]).replace("|", "/")
    try:
        if kind == "circle":
            return SmoothContour.circle(ns.radius, pole)
        if kind == "ellipse":
            return SmoothContour.ellipse(ns.a, ns.b, pole)
        if kind == "ngon":
            circ = ns.circumradius or ns.side_length / (2.0 * math.sin(math.pi / ns.sides))
            return replace(regular_ngon(ns.sides, circ), pole_offset=pole)
        beta, r = _read_table(ns.polar_file, "beta,r")
        return SmoothContour.from_polar(beta, r, pole)
    except ConvexityViolation as exc:
        raise ConvexityViolation(f"{flags}: {exc}") from None
    except (OSError, ValueError) as exc:
        raise ValueError(f"{flags}: {exc}") from None


def _build_profile(ns: argparse.Namespace) -> MotionProfile:
    omega = _read_pairs(ns.omega_file, "--omega-file") if ns.omega_file else ns.omega
    speed = _read_pairs(ns.speed_file, "--speed-file") if ns.speed_file else ns.speed
    try:
        return MotionProfile(omega=omega, film_speed=speed, theta0=ns.theta0)
    except ValueError as exc:
        raise ValueError(f"--omega-file/--speed-file: {exc}") from None


def _build_grid(ns: argparse.Namespace, profile: MotionProfile) -> TimeGrid:
    if ns.duration is None:
        if ns.omega_file or ns.omega == 0.0:
            raise ValueError("--periods needs a constant, nonzero --omega; use --duration instead")
        duration, turns, span = ns.periods * TWO_PI / abs(ns.omega), ns.periods, "--periods"
    else:
        # Turns are the integral of |omega| over the record; table times are never negative.
        with np.errstate(over="ignore"):
            turned, _ = integrate(MotionProfile(omega=np.abs(profile.omega)), ns.duration)
        duration, turns, span = ns.duration, max(1.0, turned / TWO_PI), "--duration"
    # 1024 per turn by default, clamped past the limit so that an infinite count rounds.
    samples = max(2, round(min(1024 * turns, MAX_SAMPLES + 1))) if ns.samples is None else ns.samples
    if samples > MAX_SAMPLES:
        flag = span if ns.samples is None else "--samples"
        raise ValueError(f"{flag} asks for more than {MAX_SAMPLES} samples")
    if duration == math.inf:
        raise ValueError("--periods/--omega: the duration 2*pi*periods/|omega| overflows")
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
    return oracle_check(case) / case.a, "max |generic - closed form| / a"


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


# Each check returns (worst, what it measures) and passes when worst <= tol; gaps are relative to a.
CHECKS = {
    "circle-center": (lambda: _check_closed_form(ClosedFormCase.circle_center(1.0)), 1e-12),
    "circle-rim": (lambda: _check_closed_form(ClosedFormCase.circle_rim(1.0)), 1e-8),
    "ellipse": (lambda: _check_closed_form(ClosedFormCase.ellipse_center(2.0, 1.0)), 1e-8),
    "square": (lambda: _check_closed_form(ClosedFormCase.square_center(1.0)), 1e-12),
    "triangle": (lambda: _check_closed_form(ClosedFormCase.triangle_center(1.0)), 1e-12),
    "reflection": (_check_reflection, 1e-10),
    "pole-invariance": (_check_pole_invariance, 1e-9),
    "roundtrip": (_check_roundtrip, 1e-4),
}


def cmd_check(ns: argparse.Namespace) -> int:
    """Run verification cases; print one PASS/FAIL line each."""
    names = [ns.case] if ns.case else list(CHECKS)
    failed = False
    for name in names:
        check, tol = CHECKS[name]
        worst, what = check()
        ok = worst <= tol
        print(f"{'PASS' if ok else 'FAIL'} {name}: {what} = {worst:.3e} (tol {tol:.0e})")
        failed |= not ok
    return int(failed)


def run(argv: Optional[list[str]] = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.handler(ns)
    except ConvexityViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DegenerateImage, InsufficientData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
