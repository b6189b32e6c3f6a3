"""One kinescope benchmark workload, run in a fresh interpreter by run.py.

    python3 perfbench/workloads.py WORKLOAD --seed N --seconds T --trace 0|1 \
        --spawned-at WALLCLOCK [--setup-only] [--tiny]

The process builds the workload's inputs from the seed, prints ``READY``,
runs one caller in a closed loop (each operation starts when the last one
has returned; no threads, no parallel processes) for T seconds, checks
every answer against the independent oracles outside the timed loop, and
prints one ``RESULT {json}`` line.  ``--spawned-at`` is the wall clock
when run.py started this interpreter, so set-up time includes interpreter
start and ``import kinescope``.

Every module is timed from outside through its public functions:
``direct.trace`` (geometry, motion, direct), ``inverse.identify``
(inverse) and ``python -m kinescope`` processes (cli, io).  With
``--trace 1`` the loop runs twice over the same operations, untraced then
traced, and the spans of tracing.py give the per-layer numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# The checkout's own sources, and the oracles of its test suite, by import.
sys.path[:0] = [str(SRC), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import kinescope  # noqa: E402
from kinescope import direct, geometry, inverse, motion  # noqa: E402
from kinescope import io as kio  # noqa: E402

import _oracles  # noqa: E402
from tracing import Tracer  # noqa: E402

TWO_PI = 2.0 * math.pi

E2E_UNITS = {
    "throughput_sps": "samples/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_ratio": "ratio",
    "flagged_ratio": "ratio",
    "peak_rss_mb": "MiB",
}

LAYER_UNITS = {
    "geometry.support_heights.calls": "count",
    "geometry.support_heights.busy_s": "s",
    "geometry.support_heights.us_per_angle": "us",
    "geometry.polygon_envelope.angles": "count",
    "geometry.polygon_envelope.busy_s": "s",
    "geometry.from_polar.busy_s": "s",
    "motion.integrate.busy_s": "s",
    "direct.trace.calls": "count",
    "direct.trace.samples": "count",
    "direct.trace.busy_s": "s",
    "direct.trace.self_s": "s",
    "direct.oracle_gap_max": "length",
    "inverse.identify.busy_s": "s",
    "inverse.extremes.busy_s": "s",
    "inverse.period_estimate.busy_s": "s",
    "inverse.parity_test.busy_s": "s",
    "inverse.residual_s": "s",
    "inverse.correct_ratio": "ratio",
    "inverse.residual_rel_max": "ratio",
    "inverse.misread_ratio": "ratio",
    "io.write_trace_csv.busy_s": "s",
    "io.write_trace_csv.bytes": "bytes",
    "io.read_trace_csv.busy_s": "s",
    "io.write_svg.busy_s": "s",
    "io.write_svg.bytes": "bytes",
    "io.format_report.busy_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.direct_s": "s",
    "cli.inverse_s": "s",
    "cli.render_s": "s",
    "tracing.overhead_s": "s",
    "tracing.overhead_ratio": "ratio",
}

# The public inverse stages ``identify`` calls; what is left of its time
# is the phase-aligned residual (inverse.residual_s).
INVERSE_STAGES = {"inverse.extremes", "inverse.period_estimate", "inverse.parity_test", "inverse.side_count"}


@dataclass(frozen=True)
class Size:
    synth_blocks: int  # blocks of SynthSmooth.KINDS, one trace each
    synth_samples: int  # samples per smooth trace
    poly_blocks: int  # blocks of 15 regular-polygon traces plus 8 out-of-model ones
    poly_spp: tuple  # samples per polygon side, one trace per density and noise level
    poly_periods: int  # upper-curve periods per regular-polygon trace
    ood_samples: int  # samples per out-of-model trace (3 rotations)
    brute_angles: int  # angles per trace checked against brute_heights
    cli_samples: int  # samples of each `kinescope direct` call
    cli_rounds: int  # distinct direct/render/inverse rounds drawn from the seed
    cli_inverse_files: int  # polygon CSVs written at set-up for `kinescope inverse`
    cli_inverse_spp: int  # their samples per side, over 8 upper-curve periods


FULL = Size(6, 128, 6, (8, 32, 128, 384, 1000), 16, 3072, 4, 100_000, 16, 8, 512)
TINY = Size(1, 12, 1, (8, 32), 16, 512, 1, 2_000, 2, 1, 64)
CLI_INVERSE_PERIODS = 8


@dataclass(frozen=True)
class Raised:
    """An operation that raised instead of answering."""

    kind: str
    message: str
    expected: bool  # a ValueError: kinescope's way to reject an input

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass
class Verdict:
    hard: list = field(default_factory=list)  # oracle violations: the run is not correct
    ok: bool = True  # answer within the acceptance tolerances
    flagged: Optional[bool] = None  # out-of-model input: warned about or rejected


class Workload:
    """Inputs built from the seed at set-up, one operation per input.

    A workload has ``inputs``; ``run(k)`` answers input k, ``samples(k)``
    is its size in trace samples, ``check(k, answer)`` judges an answer,
    ``fingerprint(answer)`` identifies it so that repeats can be compared,
    and ``layer_stats(ops)`` gives the per-layer numbers it measures itself.
    """

    answer_all = True  # answer the inputs the timed loop did not reach, untimed
    ops_per_round = 1  # the timed loop stops only after whole rounds

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def diagnose(self) -> None:
        """Extra in-process calls for the per-layer numbers (traced run only)."""

    def close(self) -> None:
        pass


def _constant_motion(rng, rotations: float, samples: int):
    omega = float(rng.uniform(0.5, 2.0))
    profile = motion.MotionProfile(
        omega=omega,
        film_speed=float(rng.uniform(0.5, 2.0)),
        theta0=float(rng.uniform(0.0, TWO_PI)),
        z0=float(rng.uniform(-5.0, 5.0)),
    )
    return profile, motion.TimeGrid(rotations * TWO_PI / omega, samples)


class SynthSmooth(Workload):
    """synth_smooth: the direct half on smooth contours.

    Offset-pole and centred ellipses, rim-pole circles and seeded
    ``from_polar`` wobble contours, under constant or piecewise-constant
    omega and film speed, at 512-1024 samples per rotation.  Each trace
    covers 128 samples (an eighth to a quarter turn) so that a run holds
    about seventy operations and the polar traces, the slowest per
    sample, fill the top of the latency distribution.

    Why: ``geometry.support_heights`` (a 720-point scan plus bisection per
    angle) does nearly all the work here and none in the other workloads,
    so this is where a batched smooth solver shows.  Should move:
    geometry.support_heights.busy_s/.us_per_angle, direct.trace.busy_s and
    with them throughput_sps, op_p50_s, op_tail_s, peak_rss_mb.  The
    inverse and io layers do no work here: their per-layer numbers stay 0.
    """

    KINDS = ("ellipse_centred", "ellipse_offset", "circle_rim", "polar", "polar")

    def __init__(self, seed: int, size: Size):
        rng = np.random.default_rng([seed, 1])
        self.inputs = []
        for b in range(size.synth_blocks):
            for j, kind in enumerate(self.KINDS):
                shape, case = self._shape(kind, rng)
                profile, grid = self._motion(rng, size.synth_samples, piecewise=(b + j) % 2 == 1)
                self.inputs.append((kind, shape, case, profile, grid))
        self.check_rng = np.random.default_rng([seed, 1, 1])
        self.brute_angles = size.brute_angles
        self.gap_max = 0.0

    @staticmethod
    def _shape(kind: str, rng):
        if kind == "circle_rim":
            r = float(rng.uniform(0.5, 2.0))
            return geometry.SmoothContour.circle(r, (r, 0.0)), direct.ClosedFormCase.circle_rim(r)
        if kind.startswith("ellipse"):
            a = float(rng.uniform(1.0, 3.0))
            b = a * float(rng.uniform(0.3, 0.95))
            if kind == "ellipse_centred":
                return geometry.SmoothContour.ellipse(a, b), direct.ClosedFormCase.ellipse_center(a, b)
            return geometry.SmoothContour.ellipse(a, b, rng.uniform(-1.5, 1.5, 2)), None
        return _oracles.random_convex_polar(rng), None

    @staticmethod
    def _motion(rng, samples: int, piecewise: bool):
        per_rotation = float(rng.uniform(512.0, 1024.0))
        omega = float(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)))
        speed = float(rng.uniform(0.5, 2.0))
        duration = samples / per_rotation * TWO_PI / abs(omega)
        if piecewise:
            t1, t2 = np.sort(rng.uniform(0.2, 0.8, 2)) * duration
            omega = [
                (0.0, omega),
                (float(t1), omega * float(rng.uniform(0.5, 1.5))),
                (float(t2), omega * float(rng.uniform(0.5, 1.5))),
            ]
            speed = [(0.0, speed), (float(rng.uniform(0.3, 0.7)) * duration, speed * float(rng.uniform(0.5, 1.5)))]
        profile = motion.MotionProfile(
            omega=omega,
            film_speed=speed,
            theta0=float(rng.uniform(0.0, TWO_PI)),
            z0=float(rng.uniform(-5.0, 5.0)),
        )
        return profile, motion.TimeGrid(duration, samples)

    def samples(self, k: int) -> int:
        return self.inputs[k][4].samples

    def op_name(self, k: int) -> str:
        return "op.trace"

    def run(self, k: int):
        _, shape, _, profile, grid = self.inputs[k]
        return direct.trace(shape, profile, grid)

    @staticmethod
    def fingerprint(img) -> str:
        return hashlib.sha256(img.z.tobytes() + img.y_s.tobytes() + img.y_i.tobytes()).hexdigest()

    def check(self, k: int, img) -> Verdict:
        kind, shape, case, profile, grid = self.inputs[k]
        if isinstance(img, Raised):
            return Verdict([f"synth #{k} ({kind}): trace raised {img}"], ok=False)
        theta, _ = motion.integrate(profile, grid.times())
        if case is not None:
            # Closed form at every sample.
            cs, ci = direct.closed_form(case, theta)
            gap = float(max(np.abs(img.y_s - cs).max(), np.abs(img.y_i - ci).max()))
            tol = 1e-8 if kind.startswith("ellipse") else 1e-9
        else:
            # Brute force (100k boundary samples) on a seeded subsample of angles.
            gap = 0.0
            for i in self.check_rng.choice(len(theta), self.brute_angles, replace=False):
                bs, bi = _oracles.brute_heights(shape, float(theta[i]))
                gap = max(gap, abs(img.y_s[i] - bs), abs(img.y_i[i] - bi))
            tol = 1e-6
        self.gap_max = max(self.gap_max, gap)
        if not gap <= tol:
            return Verdict([f"synth #{k} ({kind}): oracle gap {gap:.3e} > {tol:.0e}"], ok=False)
        return Verdict()

    def layer_stats(self, ops) -> dict:
        return {"direct.oracle_gap_max": self.gap_max}


def _balanced_sides(rng, count: int) -> list:
    """``count`` side counts from 3..16, each about equally often, shuffled."""
    sides = np.arange(3, 17)
    whole, extra = divmod(count, len(sides))
    return [int(n) for n in rng.permutation(np.concatenate([np.tile(sides, whole), rng.choice(sides, extra, replace=False)]))]


@dataclass(frozen=True)
class PolyInput:
    img: direct.KinematicImage
    label: str
    truth: Optional[tuple] = None  # (n, R, omega/v) of an in-model trace
    noise: float = 0.0  # sigma / R of the Gaussian noise on both curves


class IdentifyPolygon(Workload):
    """identify_polygon: the inverse half on regular-polygon traces.

    Per block, 15 in-model traces: one per density (8 to 1000 samples per
    side, 16 upper-curve periods, so S from 128 to 16000) and noise level
    (sigma/M = 0, 1e-4, 1e-3), with circumradius, theta0, z0, film speed
    and omega/v drawn from the seed.  n is drawn from 3..16 as a shuffled,
    balanced sequence per noise level, so that every seed holds about as
    many of the large n that noise defeats.  The cost of
    ``_aligned_residual`` grows as S * samples-per-side, which the fixed
    period count makes independent of n, so the seed moves the answers but
    not the work.  Plus 8 out-of-model traces: centred ellipses at b/a =
    0.5, 0.7, 0.9, 0.95 (synthesized with ``closed_form``), two irregular
    convex polygons and two regular polygons with the pole off the centre.
    The out-of-model set is fixed (its own seed, OOD_SEED, not the
    workload seed), so misread_ratio is a property of the program rather
    than of the draw.  All traces are synthesized at set-up (polygons are
    vectorized).

    Why: ``_aligned_residual`` dominates, and the S = 20000 traces set
    op_tail_s.  Should move: inverse.identify.busy_s, inverse.residual_s,
    inverse.residual_rel_max, inverse.misread_ratio and with them
    op_tail_s, throughput_sps, ok_ratio and flagged_ratio.  The smooth
    solver and io do no work here (geometry.support_heights.* and io.*
    stay 0); only polygon_envelope runs, at set-up.
    """

    NOISE = (0.0, 1e-4, 1e-3)
    ELLIPSE_RATIOS = (0.5, 0.7, 0.9, 0.95)
    OOD_SEED = 0

    def __init__(self, seed: int, size: Size):
        rng = np.random.default_rng([seed, 2])
        fixed = np.random.default_rng([self.OOD_SEED, 2])
        per_noise = size.poly_blocks * len(size.poly_spp)
        sides = {noise: iter(_balanced_sides(rng, per_noise)) for noise in self.NOISE}
        self.inputs: list[PolyInput] = []
        for _ in range(size.poly_blocks):
            in_model = [
                self._regular(rng, size, next(sides[noise]), spp, noise)
                for noise in self.NOISE
                for spp in size.poly_spp
            ]
            ood = [self._ellipse(fixed, size, ratio) for ratio in self.ELLIPSE_RATIOS]
            ood += [self._irregular(fixed, size) for _ in range(2)]
            ood += [self._off_centre(fixed, size) for _ in range(2)]
            # Spread the out-of-model traces through the block.
            step = math.ceil(len(in_model) / len(ood))
            for i, x in enumerate(in_model):
                self.inputs.append(x)
                if i % step == step - 1 and ood:
                    self.inputs.append(ood.pop(0))
            self.inputs += ood
        self.resid_rel_max = 0.0
        self.in_model = [0, 0]  # answered, right

    @staticmethod
    def _regular(rng, size: Size, n: int, spp: int, noise: float) -> PolyInput:
        R = float(rng.uniform(0.5, 2.0))
        samples = spp * size.poly_periods
        profile, grid = _constant_motion(rng, size.poly_periods / n, samples)
        img = direct.trace(geometry.regular_ngon(n, R), profile, grid)
        if noise:
            img = direct.KinematicImage(
                img.z, img.y_s + rng.normal(0.0, noise * R, samples), img.y_i + rng.normal(0.0, noise * R, samples)
            )
        truth = (n, R, profile.omega / profile.film_speed)
        return PolyInput(img, f"{n}-gon spp={spp} noise={noise:g}", truth, noise)

    @staticmethod
    def _ellipse(rng, size: Size, ratio: float) -> PolyInput:
        a = float(rng.uniform(0.5, 2.0))
        profile, grid = _constant_motion(rng, 3.0, size.ood_samples)
        theta, z = motion.integrate(profile, grid.times())
        ys, yi = direct.closed_form(direct.ClosedFormCase.ellipse_center(a, ratio * a), theta)
        return PolyInput(direct.KinematicImage(z, ys, yi), f"ellipse b/a={ratio}")

    @staticmethod
    def _irregular(rng, size: Size) -> PolyInput:
        poly = _oracles.random_convex_polygon(rng)
        profile, grid = _constant_motion(rng, 3.0, size.ood_samples)
        return PolyInput(direct.trace(poly, profile, grid), f"irregular {len(poly)}-gon")

    @staticmethod
    def _off_centre(rng, size: Size) -> PolyInput:
        n = int(rng.integers(3, 17))
        R = float(rng.uniform(0.5, 2.0))
        phi = float(rng.uniform(0.0, TWO_PI))
        offset = R * float(rng.uniform(0.1, 0.3)) * np.array([math.cos(phi), math.sin(phi)])
        poly = geometry.ConvexPolygon(geometry.regular_ngon(n, R).vertices, offset)
        profile, grid = _constant_motion(rng, 3.0, size.ood_samples)
        return PolyInput(direct.trace(poly, profile, grid), f"{n}-gon off-centre pole")

    def samples(self, k: int) -> int:
        return len(self.inputs[k].img)

    def op_name(self, k: int) -> str:
        return "op.identify"

    def run(self, k: int):
        return inverse.identify(self.inputs[k].img)

    @staticmethod
    def fingerprint(report) -> str:
        return repr(report)

    def check(self, k: int, out) -> Verdict:
        x = self.inputs[k]
        if isinstance(out, Raised) and not out.expected:
            return Verdict([f"identify #{k} ({x.label}): crashed with {out}"], ok=False)
        if x.truth is None:
            # Out of model: a ValueError or any warning is the promised flag.
            misread = not isinstance(out, Raised) and out.n != inverse.CIRCLE and not out.warnings
            return Verdict(flagged=not misread)
        n, R, w = x.truth
        self.in_model[0] += 1
        if isinstance(out, Raised):
            hard = [f"identify #{k} ({x.label}): raised {out}"] if x.noise == 0 else []
            return Verdict(hard, ok=False)
        right = out.n == n and out.parity == ("even" if n % 2 == 0 else "odd")
        self.in_model[1] += right
        if x.noise:
            return Verdict(ok=right)
        err_R = abs(out.circumradius_M - R) / R
        err_w = abs(out.omega_over_v - w) / w
        self.resid_rel_max = max(self.resid_rel_max, out.residual / out.circumradius_M)
        # Criterion 9 tolerances on noiseless traces.
        if right and err_R <= 1e-4 and err_w <= 1e-3:
            return Verdict()
        got = f"n={out.n} {out.parity} |dR|/R={err_R:.2e} |dw|/w={err_w:.2e}"
        return Verdict([f"identify #{k} ({x.label}): {got}"], ok=False)

    def layer_stats(self, ops) -> dict:
        answered, right = self.in_model
        return {"inverse.residual_rel_max": self.resid_rel_max, "inverse.correct_ratio": right / answered}


@dataclass(frozen=True)
class CliOutcome:
    returncode: int
    output: str


class CliRoundtrip(Workload):
    """cli_roundtrip: the user path, as separate ``python -m kinescope`` processes.

    Each round runs ``direct --shape ngon`` (100k samples, CSV and SVG),
    ``render`` of that CSV, and ``inverse --report`` on one of eight
    4096-row polygon CSVs written at set-up.  Round flags (sides,
    circumradius, omega, speed, theta0, periods) are drawn from the seed.

    Why: every process pays ``import kinescope``, and the 100k-row files
    make CSV write/read and SVG write the main cost; identify is a small
    share and geometry runs only as ``polygon_envelope``.  Should move:
    cli.import_s, cli.direct_s, cli.render_s, io.write_svg.busy_s/.bytes,
    io.*_trace_csv.busy_s and with them op_p50_s, op_tail_s and
    throughput_sps.  Predicted unchanged by work on the inverse residual
    or the smooth solver.
    """

    STAGES = ("direct", "render", "inverse")
    answer_all = False
    # A round is one direct, render and inverse process; stopping between
    # rounds keeps their mix, and so throughput_sps and op_p50_s, the
    # same in every run.
    ops_per_round = len(STAGES)

    def __init__(self, seed: int, size: Size):
        rng = np.random.default_rng([seed, 3])
        self.dir = OUT / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.inverse_files = []
        for j in range(size.cli_inverse_files):
            n = int(rng.integers(3, 17))
            samples = size.cli_inverse_spp * CLI_INVERSE_PERIODS
            profile, grid = _constant_motion(rng, CLI_INVERSE_PERIODS / n, samples)
            img = direct.trace(geometry.regular_ngon(n, float(rng.uniform(0.5, 2.0))), profile, grid)
            path = self.dir / f"inverse{j}.csv"
            kio.write_trace_csv(img, path)
            self.inverse_files.append((path, n, samples))
        self.rounds = [
            {
                "sides": int(rng.integers(3, 17)),
                "circumradius": float(rng.uniform(0.5, 2.0)),
                "omega": float(rng.uniform(0.5, 2.0)),
                "speed": float(rng.uniform(0.5, 2.0)),
                "theta0": float(rng.uniform(0.0, TWO_PI)),
                "periods": float(rng.uniform(1.0, 4.0)),
                "samples": size.cli_samples,
            }
            for _ in range(size.cli_rounds)
        ]
        self.inputs = [(r, stage) for r in range(size.cli_rounds) for stage in self.STAGES]
        self.child_rss = []
        self.rounds_run = set()
        self.inverse_checks = [0, 0]  # answered, right

    def _argv(self, r: int, stage: str) -> list:
        if stage == "direct":
            flags = [f"--{key}={val!r}" for key, val in self.rounds[r].items()]
            return ["direct", "--shape=ngon", *flags, f"--out=round{r}.csv", f"--svg=round{r}.svg"]
        if stage == "render":
            return ["render", f"--in=round{r}.csv", f"--svg=round{r}-render.svg"]
        path = self.inverse_files[r % len(self.inverse_files)][0]
        return ["inverse", f"--in={path.name}", f"--report=round{r}-report.txt"]

    def samples(self, k: int) -> int:
        r, stage = self.inputs[k]
        if stage == "inverse":
            return self.inverse_files[r % len(self.inverse_files)][2]
        return self.rounds[r]["samples"]

    def _spawn(self, argv: list) -> tuple:
        proc = subprocess.Popen(
            argv, cwd=self.dir, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        with proc.stdout:
            output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, output, usage.ru_maxrss / 1024.0

    def op_name(self, k: int) -> str:
        return f"cli.{self.inputs[k][1]}"

    def run(self, k: int):
        r, stage = self.inputs[k]
        code, output, rss = self._spawn([sys.executable, "-m", "kinescope", *self._argv(r, stage)])
        self.child_rss.append(rss)
        self.rounds_run.add(r)
        return CliOutcome(code, output)

    @staticmethod
    def fingerprint(out) -> str:
        return f"{out.returncode}\n{out.output}"

    def check(self, k: int, out) -> Verdict:
        r, stage = self.inputs[k]
        where = f"cli round {r} {stage}"
        if isinstance(out, Raised) or out.returncode != 0:
            detail = out if isinstance(out, Raised) else f"exit {out.returncode}: {out.output.strip()[-300:]}"
            return Verdict([f"{where}: {detail}"], ok=False)
        problems = []
        if stage == "direct":
            problems += self._check_csv(r)
            problems += _svg_problems(self.dir / f"round{r}.svg")
        elif stage == "render":
            problems += _svg_problems(self.dir / f"round{r}-render.svg")
            if (self.dir / f"round{r}-render.svg").read_bytes() != (self.dir / f"round{r}.svg").read_bytes():
                problems.append("render SVG differs from the direct SVG of the same trace")
        else:
            n = self.inverse_files[r % len(self.inverse_files)][1]
            report = (self.dir / f"round{r}-report.txt").read_text(encoding="ascii").splitlines()
            if f"n={n}" not in out.output.splitlines() or not report or report[0] != f"n={n}":
                problems.append(f"expected n={n}, printed {out.output.strip()!r}, report {report[:1]}")
            self.inverse_checks[0] += 1
            self.inverse_checks[1] += not problems
        return Verdict([f"{where}: {p}" for p in problems], ok=not problems)

    def _check_csv(self, r: int) -> list:
        # Bit-exact against an in-process trace of the same flags, read
        # back with numpy's parser rather than kinescope's.
        f = self.rounds[r]
        want = direct.trace(
            geometry.regular_ngon(f["sides"], f["circumradius"]),
            motion.MotionProfile(omega=f["omega"], film_speed=f["speed"], theta0=f["theta0"]),
            motion.TimeGrid(f["periods"] * TWO_PI / abs(f["omega"]), f["samples"]),
        )
        path = self.dir / f"round{r}.csv"
        with path.open(encoding="ascii") as fh:
            header = fh.readline().strip()
        got = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if header != "z,ys,yi" or got.shape != (len(want), 3):
            return [f"CSV header {header!r}, shape {got.shape}, want {len(want)} rows"]
        for col, name in enumerate(("z", "y_s", "y_i")):
            if np.ascontiguousarray(got[:, col]).tobytes() != getattr(want, name).tobytes():
                return [f"CSV column {name} is not bit-exact against an in-process trace"]
        return []

    def layer_stats(self, ops) -> dict:
        stats = {"cli.interpreter_s": self.interpreter_s, "cli.import_s": self.import_s}
        for stage in self.STAGES:
            lat = [dt for k, dt, _ in ops if self.inputs[k][1] == stage]
            stats[f"cli.{stage}_s"] = statistics.median(lat) if lat else 0.0
        answered, right = self.inverse_checks
        stats["inverse.correct_ratio"] = right / answered if answered else 0.0
        return stats

    def peak_rss_mb(self) -> float:
        return max(self.child_rss)

    def diagnose(self) -> None:
        """io numbers in-process on the same files, and interpreter start-up."""
        for r in sorted(self.rounds_run):
            csv = self.dir / f"round{r}.csv"
            if csv.exists():
                img = kio.read_trace_csv(csv)
                kio.write_trace_csv(img, self.dir / "diag.csv")
                kio.write_svg(img, self.dir / "diag.svg")
        for path, _, _ in self.inverse_files:
            kio.format_report(inverse.identify(kio.read_trace_csv(path)))
        bare = [self._timed([sys.executable, "-c", "pass"]) for _ in range(3)]
        imported = [self._timed([sys.executable, "-c", "import kinescope"]) for _ in range(3)]
        self.interpreter_s = statistics.median(bare)
        self.import_s = statistics.median(imported) - self.interpreter_s

    def _timed(self, argv: list) -> float:
        start = time.perf_counter()
        code, output, _ = self._spawn(argv)
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}: {output}")
        return time.perf_counter() - start

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _svg_problems(path: Path) -> list:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{path.name} does not parse as XML: {exc}"]
    ns = "{http://www.w3.org/2000/svg}"
    polygons = root.findall(f"{ns}polygon")
    polylines = root.findall(f"{ns}polyline")
    if root.tag != f"{ns}svg" or len(polygons) != 1 or len(polylines) != 2:
        return [f"{path.name}: want one polygon and two polylines, got {len(polygons)} and {len(polylines)}"]
    return []


WORKLOADS = {"synth_smooth": SynthSmooth, "identify_polygon": IdentifyPolygon, "cli_roundtrip": CliRoundtrip}


def install_spans(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, as their callers see them."""

    def angles(args, result):
        return np.size(args[1])

    def written(args, result):
        return os.path.getsize(args[1])

    for mod in (direct, geometry):
        tracer.wrap(mod, "support_heights", "geometry.support_heights", angles)
    for mod in (direct, geometry, inverse):
        tracer.wrap(mod, "polygon_envelope", "geometry.polygon_envelope", angles)
    tracer.wrap(geometry.SmoothContour, "from_polar", "geometry.from_polar")
    for mod in (direct, motion):
        tracer.wrap(mod, "integrate", "motion.integrate")
    tracer.wrap(direct, "trace", "direct.trace", lambda args, img: len(img))
    for stage in ("identify", "extremes", "period_estimate", "parity_test", "side_count"):
        tracer.wrap(inverse, stage, f"inverse.{stage}")
    tracer.wrap(kio, "write_trace_csv", "io.write_trace_csv", written)
    tracer.wrap(kio, "read_trace_csv", "io.read_trace_csv")
    tracer.wrap(kio, "write_svg", "io.write_svg", written)
    tracer.wrap(kio, "format_report", "io.format_report")


def run_op(wl, k: int):
    try:
        return wl.run(k)
    except ValueError as exc:
        return Raised(type(exc).__name__, str(exc), True)
    except Exception as exc:  # recorded and judged by the checks; the loop goes on
        return Raised(type(exc).__name__, str(exc), False)


def closed_loop(wl, seconds: Optional[float], max_ops: Optional[int] = None, tracer: Optional[Tracer] = None):
    """Issue operations one after another, cycling through the inputs.

    Stops at the first round boundary after ``seconds`` (at least one
    round runs) or after ``max_ops`` operations.  With a tracer, each
    operation is a top-level span.  Returns (ops, wall seconds), ops being
    (input index, latency, outcome).
    """
    ops = []
    start = time.perf_counter()
    while True:
        if max_ops is None:
            if ops and len(ops) % wl.ops_per_round == 0 and time.perf_counter() - start >= seconds:
                break
        elif len(ops) >= max_ops:
            break
        k = len(ops) % len(wl.inputs)
        t0 = time.perf_counter()
        if tracer is None:
            out = run_op(wl, k)
        else:
            with tracer.span(wl.op_name(k)):
                out = run_op(wl, k)
        ops.append((k, time.perf_counter() - t0, out))
    return ops, time.perf_counter() - start


def _fingerprint(wl, out) -> str:
    return str(out) if isinstance(out, Raised) else wl.fingerprint(out)


def _check(wl, k: int, out) -> Verdict:
    try:
        return wl.check(k, out)
    except (OSError, ValueError) as exc:  # e.g. an output file that is missing or unreadable
        return Verdict([f"input #{k}: the check could not read the answer: {exc}"], ok=False)


def evaluate(wl, ops) -> dict:
    """Check every distinct input once; repeats must reproduce its answer."""
    first = {}
    for k, _, out in ops:
        first.setdefault(k, out)
    if wl.answer_all:
        for k in range(len(wl.inputs)):
            if k not in first:
                first[k] = run_op(wl, k)
    verdicts = {k: _check(wl, k, first[k]) for k in sorted(first)}
    prints = {k: _fingerprint(wl, out) for k, out in first.items()}
    violations = [msg for v in verdicts.values() for msg in v.hard]
    failed = 0
    for k, _, out in ops:
        same = _fingerprint(wl, out) == prints[k]
        if not same and len(violations) < 50:
            violations.append(f"input #{k}: a repeated operation gave a different answer")
        failed += bool(verdicts[k].hard) or not same
    ood = [v.flagged for v in verdicts.values() if v.flagged is not None]
    return {
        "violations": violations,
        "failed": failed,
        "answered": len(verdicts),
        "wrong": sum(not v.ok for v in verdicts.values()),
        "ood": len(ood),
        "misread": ood.count(False),
    }


def tail_latency(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with ten operations
    beyond it, or the median when fewer than 21 operations ran."""
    s = sorted(latencies)
    n = len(s)
    if n < 21:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(wl, ops, wall: float, ev: dict, peak_rss_mb: float) -> tuple:
    latencies = [dt for _, dt, _ in ops]
    tail, pct = tail_latency(latencies)
    fail_ratio = ev["wrong"] / ev["answered"]
    misread_ratio = ev["misread"] / ev["ood"] if ev["ood"] else 0.0
    values = {
        "throughput_sps": sum(wl.samples(k) for k, _, _ in ops) / wall,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "ok_ratio": 1.0 - fail_ratio,
        "flagged_ratio": 1.0 - misread_ratio,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"op_tail_s is p{pct:.1f} of {len(ops)} operations over {wall:.2f} s",
        f"fail_ratio = {fail_ratio:.6g} ({ev['wrong']} of {ev['answered']} distinct inputs answered wrong)",
        f"misread_ratio = {misread_ratio:.6g} ({ev['misread']} of {ev['ood']} out-of-model inputs "
        "returned as a polygon with no warning)",
    ]
    return values, notes


def per_layer(wl, tracer: Tracer, ops, ev: dict, walls: tuple) -> tuple:
    layers = tracer.layers({"inverse.identify": INVERSE_STAGES})

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    sh_busy, sh_angles = get("geometry.support_heights", "busy_s"), get("geometry.support_heights", "count")
    values = {name: 0.0 for name in LAYER_UNITS}
    values.update(
        {
            "geometry.support_heights.calls": get("geometry.support_heights", "calls"),
            "geometry.support_heights.busy_s": sh_busy,
            "geometry.support_heights.us_per_angle": 1e6 * sh_busy / sh_angles if sh_angles else 0.0,
            "geometry.polygon_envelope.angles": get("geometry.polygon_envelope", "count"),
            "geometry.polygon_envelope.busy_s": get("geometry.polygon_envelope", "busy_s"),
            "geometry.from_polar.busy_s": get("geometry.from_polar", "busy_s"),
            "motion.integrate.busy_s": get("motion.integrate", "busy_s"),
            "direct.trace.calls": get("direct.trace", "calls"),
            "direct.trace.samples": get("direct.trace", "count"),
            "direct.trace.busy_s": get("direct.trace", "busy_s"),
            "direct.trace.self_s": get("direct.trace", "self_s"),
            "inverse.identify.busy_s": get("inverse.identify", "busy_s"),
            "inverse.extremes.busy_s": get("inverse.extremes", "busy_s"),
            "inverse.period_estimate.busy_s": get("inverse.period_estimate", "busy_s"),
            "inverse.parity_test.busy_s": get("inverse.parity_test", "busy_s"),
            "inverse.residual_s": get("inverse.identify", "stage_self_s"),
            "io.write_trace_csv.busy_s": get("io.write_trace_csv", "busy_s"),
            "io.write_trace_csv.bytes": get("io.write_trace_csv", "count"),
            "io.read_trace_csv.busy_s": get("io.read_trace_csv", "busy_s"),
            "io.write_svg.busy_s": get("io.write_svg", "busy_s"),
            "io.write_svg.bytes": get("io.write_svg", "count"),
            "io.format_report.busy_s": get("io.format_report", "busy_s"),
            "tracing.overhead_s": walls[1] - walls[0],
            "tracing.overhead_ratio": (walls[1] - walls[0]) / walls[0],
        }
    )
    if ev["ood"]:
        values["inverse.misread_ratio"] = ev["misread"] / ev["ood"]
    values.update(wl.layer_stats(ops))
    return values, layers


def machine_meta() -> dict:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        cpu = next(ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or platform.machine()
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + text)
        lines += text.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha,
        "src_lines": lines,
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.time() when run.py spawned us")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the harness smoke test")
    args = parser.parse_args(argv)

    if not Path(kinescope.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"kinescope imported from {kinescope.__file__}, not from {SRC}")

    tracer = Tracer()
    if args.trace:
        install_spans(tracer)
    wl = WORKLOADS[args.workload](args.seed, TINY if args.tiny else FULL)
    tracer.unwrap_all()
    setup_s = time.time() - args.spawned_at
    print("READY", flush=True)
    try:
        if args.setup_only:
            print("RESULT " + json.dumps({"setup_s": setup_s}), flush=True)
            return 0
        meta = machine_meta()
        if not args.trace:
            ops, wall = closed_loop(wl, args.seconds)
            peak = wl.peak_rss_mb()
            ev = evaluate(wl, ops)
            values, notes = end_to_end(wl, ops, wall, ev, peak)
            units = E2E_UNITS
        else:
            ops0, wall0 = closed_loop(wl, args.seconds / 2)
            install_spans(tracer)
            ops1, wall1 = closed_loop(wl, None, len(ops0), tracer)
            wl.diagnose()
            tracer.unwrap_all()
            ops = ops0 + ops1
            ev = evaluate(wl, ops)
            values, layers = per_layer(wl, tracer, ops, ev, (wall0, wall1))
            spans_path = write_spans(args, meta, tracer, layers, values)
            units = LAYER_UNITS
            notes = [
                f"{len(ops0)} operations untraced in {wall0:.3f} s, the same ones traced in {wall1:.3f} s",
                f"spans and per-layer self time written to {spans_path.relative_to(ROOT)}",
            ]
        result = {
            "correct": not ev["violations"],
            "attempted": len(ops),
            "failed": ev["failed"],
            "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
            "setup_s": setup_s,
            "violations": ev["violations"][:20],
            "notes": notes,
            "meta": meta,
        }
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        wl.close()


def write_spans(args, meta: dict, tracer: Tracer, layers: dict, metrics: dict) -> Path:
    """The traced run's spans, per-layer totals (calls, busy, self, count)
    and the per-layer metrics, tracing overhead included, as one file."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "meta": meta,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in LAYER_UNITS.items()},
        "layers": layers,
        "span_fields": ["name", "start_s", "end_s", "parent", "count"],
        "spans": [[n, round(s - t0, 9), round(e - t0, 9), p, c] for n, s, e, p, c in tracer.spans],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return path

if __name__ == "__main__":
    sys.exit(main())
