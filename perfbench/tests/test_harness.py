"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/tests -q

Every metric named in BENCHMARK.json is printed with its unit, on every
workload and in both modes; a corrupted answer trips the checks; and
without the package sources the benchmark fails without a result.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if len(line.split()) == 3}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed.get(m["name"]) == m["unit"], m["name"]


def _answer_all(wl):
    ops, _ = W.closed_loop(wl, None, len(wl.inputs))
    assert not W.evaluate(wl, ops)["violations"]
    return ops


def _corrupt(wl, ops, k, bad):
    ops = list(ops)
    ops[k] = (k, ops[k][1], bad)
    return W.evaluate(wl, ops)


def test_corrupted_trace_trips_the_oracles():
    wl = W.SynthSmooth(3, W.TINY)
    ops = _answer_all(wl)
    for k, _, img in ops:
        ev = _corrupt(wl, ops, k, W.direct.KinematicImage(img.z, img.y_s + 1e-5, img.y_i))
        assert ev["violations"] and ev["failed"] == 1, wl.inputs[k][0]


def test_corrupted_report_trips_the_criterion_check():
    wl = W.IdentifyPolygon(3, W.TINY)
    ops = _answer_all(wl)
    k = next(i for i, x in enumerate(wl.inputs) if x.truth and x.noise == 0)
    rep = ops[k][2]
    for bad in (dataclasses.replace(rep, n=rep.n + 1), dataclasses.replace(rep, circumradius_M=rep.circumradius_M * 1.001)):
        ev = _corrupt(wl, ops, k, bad)
        assert ev["violations"] and ev["failed"] == 1


def test_repeat_with_a_different_answer_fails():
    wl = W.IdentifyPolygon(3, W.TINY)
    ops = _answer_all(wl)
    k, dt, rep = ops[0]
    ev = W.evaluate(wl, ops + [(k, dt, dataclasses.replace(rep, residual=rep.residual * 2))])
    assert ev["violations"] and ev["failed"] == 1


def test_corrupted_cli_files_trip_the_checks():
    wl = W.CliRoundtrip(3, W.TINY)
    try:
        ops, _ = W.closed_loop(wl, None, 3)
        assert not W.evaluate(wl, ops)["violations"]
        csv = wl.dir / "round0.csv"
        rows = csv.read_text().splitlines()
        z, ys, yi = map(float, rows[2].split(","))
        rows[2] = f"{z!r},{ys!r},{yi - 1e-9!r}"
        csv.write_text("\n".join(rows) + "\n")
        assert any("bit-exact" in v for v in W.evaluate(wl, ops)["violations"])
        (wl.dir / "round0-report.txt").write_text("n=99\n")
        assert any("expected n=" in v for v in W.evaluate(wl, ops)["violations"])
    finally:
        wl.close()


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "synth_smooth", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
