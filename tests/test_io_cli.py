import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kinescope
from kinescope import (
    KinematicImage,
    MotionProfile,
    SmoothContour,
    TimeGrid,
    identify,
    regular_ngon,
    trace,
)
from kinescope import cli
from kinescope.cli import run
from kinescope.io import format_report, read_trace_csv, write_svg, write_trace_csv

TWO_PI = 2.0 * math.pi


def square_image(samples=512):
    return trace(
        regular_ngon(4, math.sqrt(2.0) / 2.0),
        MotionProfile(omega=1.0, film_speed=1.0),
        TimeGrid(duration=TWO_PI, samples=samples),
    )


def test_csv_round_trip_is_bit_exact(tmp_path):
    img = square_image()
    path = tmp_path / "trace.csv"
    write_trace_csv(img, path)
    back = read_trace_csv(path)
    assert np.array_equal(back.z, img.z)
    assert np.array_equal(back.y_s, img.y_s)
    assert np.array_equal(back.y_i, img.y_i)


def test_csv_read_errors_name_the_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("z,ys,whoops\n0,1,-1\n")
    with pytest.raises(ValueError, match="header"):
        read_trace_csv(p)
    p.write_text("z,ys,yi\n0,1,-1\n1,oops,-1\n")
    with pytest.raises(ValueError, match=":3:"):
        read_trace_csv(p)
    p.write_text("z,ys,yi\n\n0,1,-1\n1,oops,-1\n")  # a blank line still counts
    with pytest.raises(ValueError, match=":4:"):
        read_trace_csv(p)
    p.write_text("z,ys,yi\n0,1\n")
    with pytest.raises(ValueError, match=":2:"):
        read_trace_csv(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_trace_csv(p)
    p.write_text("z,ys,yi\n0,1,-1\n1,-1,1\n")  # upper below lower
    with pytest.raises(ValueError, match="bad.csv"):
        read_trace_csv(p)


ROWS = [[0.0, 1.0], [1.0, 1.0], [-1.0, -1.0]]  # z, ys, yi of "0,1,-1" then "1,1,-1"

# What read_trace_csv makes of each file: its columns, or its error message
# with {p} for the path.  The reader takes what Python's float takes, and
# names the file line of the first bad row.
READER_CASES = {
    "blank line between rows": ("z,ys,yi\n0,1,-1\n\n1,1,-1\n", ROWS),
    "whitespace-only line": ("z,ys,yi\n0,1,-1\n   \n1,1,-1\n", ROWS),
    "tab-only line": ("z,ys,yi\n0,1,-1\n\t\n1,1,-1\n", ROWS),
    "CRLF endings": ("z,ys,yi\r\n0,1,-1\r\n1,1,-1\r\n", ROWS),
    "blank lines before the header": ("\n \nz,ys,yi\n0,1,-1\n1,1,-1\n", ROWS),
    "spaced header and fields": (" z , ys , yi \n 0 , 1 , -1 \n1,1,-1\n", ROWS),
    "underscore": ("z,ys,yi\n0,1,-1\n1_0,1,-1\n", [[0.0, 10.0], [1.0, 1.0], [-1.0, -1.0]]),
    "plus sign": ("z,ys,yi\n+0,+1,-1\n+1,1,-1\n", ROWS),
    "comment line": ("z,ys,yi\n# note\n0,1,-1\n1,1,-1\n", "{p}:2: expected 3 comma-separated values"),
    "comment fields": ("z,ys,yi\n0,1,-1\n#,#,#\n", "{p}:3: non-numeric value in '#,#,#'"),
    "trailing comma": ("z,ys,yi\n0,1,-1\n1,1,-1,\n", "{p}:3: expected 3 comma-separated values"),
    "empty field": ("z,ys,yi\n0,1,-1\n1,,-1\n", "{p}:3: non-numeric value in '1,,-1'"),
    "quoted field": ('z,ys,yi\n0,1,-1\n"1",1,-1\n', """{p}:3: non-numeric value in '"1",1,-1'"""),
    "hex float": ("z,ys,yi\n0,1,-1\n0x1p0,1,-1\n", "{p}:3: non-numeric value in '0x1p0,1,-1'"),
    "every row too narrow": ("z,ys,yi\n0,1\n1,1\n", "{p}:2: expected 3 comma-separated values"),
    "wrong header": ("z,ys\n0,1\n1,1\n", "{p}: expected header 'z,ys,yi', got 'z,ys'"),
    "header only": ("z,ys,yi\n", "{p}: an image needs at least 2 samples"),
    "header and blank lines": ("z,ys,yi\n\n\n", "{p}: an image needs at least 2 samples"),
    "one row": ("z,ys,yi\n0,1,-1\n", "{p}: an image needs at least 2 samples"),
    "nan": ("z,ys,yi\n0,nan,-1\n1,1,-1\n", "{p}: y_s must be finite"),
    "Infinity": ("z,ys,yi\n0,1,-1\n1,Infinity,-1\n", "{p}: y_s must be finite"),
    "empty file": ("", "{p}: empty file"),
    "blank file": ("\n \t\n", "{p}: empty file"),
}


@pytest.mark.parametrize("text, want", READER_CASES.values(), ids=READER_CASES.keys())
def test_csv_reader_edge_cases(tmp_path, text, want):
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode("ascii"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning turned into an error could be swallowed
        if isinstance(want, str):
            with pytest.raises(ValueError) as exc:
                read_trace_csv(p)
            assert str(exc.value) == want.format(p=p)
        else:
            img = read_trace_csv(p)
            assert [img.z.tolist(), img.y_s.tolist(), img.y_i.tolist()] == want
    assert not caught, [str(w.message) for w in caught]


def test_csv_reader_names_a_late_line_and_takes_a_late_underscore(tmp_path):
    # Past the first few thousand rows the reader's answer is still the file's.
    rows = "".join(f"{k},1,-1\n" for k in range(5000))
    p = tmp_path / "t.csv"
    p.write_text("z,ys,yi\n" + rows + "5000,1,oops\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:5002: non-numeric value in '5000,1,oops'")):
        read_trace_csv(p)
    p.write_bytes(("z,ys,yi\n" + rows).encode("ascii") + b"5000,1,-1 \xff\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:5002: not ASCII")):
        read_trace_csv(p)
    p.write_text("z,ys,yi\n" + rows + "\t\n5_000,1,-1\n")
    img = read_trace_csv(p)
    assert np.array_equal(img.z, np.arange(5001.0))


def reference_csv(img):
    """The trace CSV one row at a time, as it has always been written."""
    return "z,ys,yi\n" + "".join(
        f"{z:.17g},{ys:.17g},{yi:.17g}\n" for z, ys, yi in zip(img.z.tolist(), img.y_s.tolist(), img.y_i.tolist())
    )


@pytest.mark.parametrize("rows", [2, 4095, 4096, 4097, 8193])
def test_csv_writer_matches_the_row_by_row_reference(tmp_path, rows):
    # Values where %g is most likely to go wrong: subnormals, 2^+-1000, -0.0,
    # and magnitudes each side of the switch to exponent form.
    stress = np.array([5e-324, 3 * 5e-324, 2.2250738585072014e-308, 2.0**-1000, 2.0**1000, 0.0, -0.0,
                       9999999999999998.0, 1e16, 1.0000000000000002e16, 99999999999999984.0, 1e17,
                       1.0000000000000002e17, 1.2345678901234568e17, 9.999999999999999e-05, 1e-4, 0.1, 1 / 3])
    rng = np.random.default_rng(rows)
    pool = np.concatenate((stress, -stress, rng.normal(size=4 * rows) * 10.0 ** rng.integers(-300, 300, 4 * rows)))
    z = np.unique(rng.choice(pool, size=3 * rows))[:rows]
    a, b = rng.choice(pool, size=(2, rows))
    img = KinematicImage(z=z, y_s=np.maximum(a, b), y_i=np.minimum(a, b))
    assert len(img) == rows
    p = tmp_path / "t.csv"
    write_trace_csv(img, p)
    assert p.read_bytes() == reference_csv(img).encode("ascii")
    back = read_trace_csv(p)
    for name in ("z", "y_s", "y_i"):
        assert getattr(back, name).tobytes() == getattr(img, name).tobytes()


def test_svg_structure(tmp_path):
    p = tmp_path / "plot.svg"
    write_svg(square_image(), p)
    text = p.read_text()
    assert text.startswith("<svg ")
    assert 'viewBox="0 0 800 300"' in text
    assert text.count("<polyline") == 2
    assert text.count("<polygon") == 1
    assert 'fill-opacity="0.25"' in text


def test_svg_points_follow_the_pixel_map(tmp_path):
    z = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    wide = (np.array([0.3, 0.1, 0.25, 0.05, 0.3]), np.array([-0.3, -0.1, -0.2, -0.05, -0.3]))
    flat = (np.ones(5), np.ones(5))
    for ys, yi in (wide, flat):  # the width sets the scale, then the height
        # 800x300 less a 5% margin on each side is 720x270; one scale for
        # both axes (a flat image counts as 1 unit tall), centred drawing.
        dy = (ys.max() - yi.min()) or 1.0
        scale = min(720.0 / (z[-1] - z[0]), 270.0 / dy)
        zmid, ymid = 0.5 * (z[0] + z[-1]), 0.5 * (yi.min() + ys.max())

        def points(y):
            return " ".join(f"{400.0 + (a - zmid) * scale:.3f},{150.0 - (b - ymid) * scale:.3f}"
                            for a, b in zip(z, y))

        p = tmp_path / "plot.svg"
        write_svg(KinematicImage(z=z, y_s=ys, y_i=yi), p)
        text = p.read_text()
        upper, lower = re.findall(r'<polyline points="([^"]*)"', text)
        assert upper == points(ys)
        assert lower == points(yi)
        ribbon = re.search(r'<polygon points="([^"]*)"', text).group(1)
        assert ribbon.split(" ") == upper.split(" ") + lower.split(" ")[::-1]


def test_svg_keeps_each_pixel_columns_extremes(tmp_path):
    # 100k samples over 720 pixel columns: each curve keeps at most a column's
    # first, last, lowest and highest samples, the first and the last always,
    # and its drawn extent is theirs.
    img = trace(regular_ngon(7, 1.0), MotionProfile(omega=1.0, film_speed=1.0),
                TimeGrid(duration=20.0, samples=100_000))
    p = tmp_path / "plot.svg"
    write_svg(img, p)
    z = img.z
    scale = min(720.0 / (z[-1] - z[0]), 270.0 / (img.y_s.max() - img.y_i.min()))
    zmid, ymid = 0.5 * (z[0] + z[-1]), 0.5 * (img.y_i.min() + img.y_s.max())
    x = 400.0 + (z - zmid) * scale
    col = np.floor(x)
    sample_of = {f"{a:.3f}": i for i, a in enumerate(x.tolist())}  # x steps by 0.0072
    assert len(sample_of) == len(x)
    for y, written in zip((img.y_s, img.y_i), re.findall(r'<polyline points="([^"]*)"', p.read_text())):
        y = 150.0 - (y - ymid) * scale
        xs, ws = zip(*(pt.split(",") for pt in written.split(" ")))
        kept = np.array([sample_of[a] for a in xs])
        assert np.all(np.diff(kept) > 0)
        cols, counts = np.unique(col[kept], return_counts=True)
        assert np.array_equal(cols, np.unique(col)) and counts.max() <= 4
        runs = np.flatnonzero(np.diff(col, prepend=-np.inf))
        # A column's first and last samples join it to its neighbours.
        assert np.all(np.isin(runs, kept)) and np.all(np.isin(np.append(runs[1:] - 1, x.size - 1), kept))
        kept_runs = np.flatnonzero(np.diff(col[kept], prepend=-np.inf))
        wy = np.array(ws, dtype=float)
        for reduce in (np.minimum, np.maximum):
            want = [float(f"{v:.3f}") for v in reduce.reduceat(y, runs).tolist()]
            assert np.array_equal(reduce.reduceat(wy, kept_runs), want)


def test_svg_is_deterministic(tmp_path):
    img = square_image()
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    write_svg(img, a)
    write_svg(img, b)
    assert a.read_bytes() == b.read_bytes()


def test_svg_tolerates_flat_image(tmp_path):
    z = np.linspace(0.0, 1.0, 8)
    flat = KinematicImage(z=z, y_s=np.ones(8), y_i=np.ones(8))
    p = tmp_path / "flat.svg"
    write_svg(flat, p)
    assert "<svg " in p.read_text()


def test_format_report_keys_and_parsability():
    rep = identify(square_image(samples=4096))
    lines = format_report(rep).splitlines()
    keys = [ln.split("=", 1)[0] for ln in lines]
    assert keys == ["n", "parity", "m", "M", "midline", "omega_over_v",
                    "residual", "warnings", "n_raw", "n_raw_delta"]
    fields = dict(ln.split("=", 1) for ln in lines)
    assert fields["n"] == "4"
    assert fields["parity"] == "even"
    assert fields["warnings"] == ""
    assert abs(float(fields["m"]) - rep.apothem_m) == 0.0  # repr round-trips
    assert float(fields["n_raw_delta"]) < 1e-9


def test_format_report_circle():
    from kinescope import CIRCLE, SmoothContour

    img = trace(SmoothContour.circle(1.0), MotionProfile(1.0, 1.0),
                TimeGrid(duration=4.0, samples=64))
    rep = identify(img)
    assert rep.n == CIRCLE
    text = format_report(rep)
    assert "n=CIRCLE" in text.splitlines()[0]
    fields = dict(ln.split("=", 1) for ln in text.splitlines())
    assert math.isnan(float(fields["omega_over_v"]))
    # m/M is 1 up to rounding, so the raw count is huge or infinite
    assert float(fields["n_raw"]) > 1000.0
    float(fields["n_raw_delta"])  # parseable either way


def test_cli_direct_then_inverse(tmp_path, capsys):
    csv = tmp_path / "pentagon.csv"
    report = tmp_path / "report.txt"
    rc = run(["direct", "--shape", "ngon", "--sides", "5", "--side-length", "1.0",
              "--out", str(csv)])
    assert rc == 0
    rc = run(["inverse", "--in", str(csv), "--report", str(report)])
    assert rc == 0
    assert "n=5" in capsys.readouterr().out
    fields = dict(ln.split("=", 1) for ln in report.read_text().splitlines())
    assert fields["n"] == "5" and fields["parity"] == "odd"
    assert abs(float(fields["M"]) - 0.5 / math.sin(math.pi / 5)) < 1e-6  # side 1
    assert run(["inverse", "--in", str(csv), "--n-max", "16"]) == 0
    assert capsys.readouterr().out == "n=5\n"


def test_cli_direct_is_deterministic(tmp_path):
    args = ["direct", "--shape", "ellipse", "--a", "2.0", "--b", "1.0", "--samples", "333"]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert run(args + ["--out", str(p1)]) == 0
    assert run(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_direct_writes_svg_too(tmp_path):
    csv, svg = tmp_path / "t.csv", tmp_path / "t.svg"
    rc = run(["direct", "--shape", "circle", "--radius", "1.0", "--pole-x", "1.0",
              "--out", str(csv), "--svg", str(svg)])
    assert rc == 0
    assert svg.read_text().startswith("<svg ")


def test_cli_piecewise_omega_file(tmp_path):
    table = tmp_path / "omega.txt"
    table.write_text("# rate schedule\n0 1.0\n3.0 2.0\n")
    csv = tmp_path / "t.csv"
    rc = run(["direct", "--shape", "circle", "--radius", "1.0",
              "--omega-file", str(table), "--duration", "6.0", "--out", str(csv)])
    assert rc == 0
    assert read_trace_csv(csv).z[-1] == 6.0


def test_cli_omega_file_sets_default_sample_count(tmp_path):
    # 1024 samples per rotation, counted from the rate table as from --omega
    table = tmp_path / "omega.txt"
    table.write_text("0 10.0\n")
    args = ["direct", "--shape", "ngon", "--sides", "4", "--side-length", "1", "--duration", "6"]
    from_table, constant = tmp_path / "table.csv", tmp_path / "constant.csv"
    assert run(args + ["--omega-file", str(table), "--out", str(from_table)]) == 0
    assert run(args + ["--omega", "10", "--out", str(constant)]) == 0
    assert len(read_trace_csv(from_table)) == len(read_trace_csv(constant)) == 9778
    # Turns are counted from |omega|, so spinning backwards takes as many samples.
    table.write_text("0 -10.0\n")
    assert run(args + ["--omega-file", str(table), "--out", str(from_table)]) == 0
    assert run(args + ["--omega", "-10", "--out", str(constant)]) == 0
    assert len(read_trace_csv(from_table)) == len(read_trace_csv(constant)) == 9778


def test_cli_render(tmp_path):
    csv, svg = tmp_path / "t.csv", tmp_path / "replot.svg"
    assert run(["direct", "--shape", "ngon", "--sides", "6", "--circumradius", "1.0",
                "--out", str(csv)]) == 0
    assert run(["render", "--in", str(csv), "--svg", str(svg)]) == 0
    assert "<polyline" in svg.read_text()
    # The plot is a function of the trace, and its size one of the canvas.
    direct_svg = tmp_path / "t.svg"
    assert run(["direct", "--shape", "ngon", "--sides", "11", "--circumradius", "1.0",
                "--samples", "100000", "--out", str(csv), "--svg", str(direct_svg)]) == 0
    assert run(["render", "--in", str(csv), "--svg", str(svg)]) == 0
    assert svg.read_bytes() == direct_svg.read_bytes()
    assert direct_svg.stat().st_size < 100_000


def test_cli_check_single_case(tmp_path, capsys):
    assert run(["check", "--case", "square"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS square")


def test_cli_check_runs_every_case_and_fails_past_a_tolerance(monkeypatch, capsys):
    assert run(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [f"PASS {name}" for name in cli.CHECKS]
    # The same case, with its tolerance put at half the gap it printed.
    line = lines[list(cli.CHECKS).index("reflection")]
    gap = float(re.search(r"= (\S+) \(tol", line).group(1))
    assert gap > 0.0
    check, _ = cli.CHECKS["reflection"]
    monkeypatch.setitem(cli.CHECKS, "reflection", (check, gap / 2))
    assert run(["check", "--case", "reflection"]) == 1
    assert capsys.readouterr().out.startswith(f"FAIL reflection: max |Y_i(t) + Y_s(t+pi)| = {gap:.3e}")


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    assert run(["inverse"]) == 2  # missing --in
    assert run(["direct", "--shape", "circle", "--out", str(csv)]) == 2  # no --radius
    assert run(["direct", "--shape", "ngon", "--sides", "4", "--side-length", "1",
                "--circumradius", "1", "--out", str(csv)]) == 2
    assert run(["direct", "--shape", "circle", "--radius", "1", "--periods", "1",
                "--duration", "1", "--out", str(csv)]) == 2
    assert run(["direct", "--shape", "ngon", "--sides", "0", "--side-length", "1",
                "--out", str(csv)]) == 2
    # an infinite size is a usage error, not a convexity violation
    assert run(["direct", "--shape", "circle", "--radius", "inf", "--out", str(csv)]) == 2
    assert run(["direct", "--shape", "ellipse", "--a", "inf", "--b", "1", "--out", str(csv)]) == 2
    assert run(["check", "--case", "circle-center", "--radius", "inf"]) == 2
    assert run(["direct", "--shape", "circle", "--radius", "1", "--theta0", "nan",
                "--out", str(csv)]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,1\n")
    assert run(["inverse", "--in", str(bad)]) == 2
    # --n-max is range-checked before the trace is read, so a flat trace
    # (exit 4 with a valid --n-max) still exits 2 here
    flat = tmp_path / "flat.csv"
    flat.write_text("z,ys,yi\n0,0,0\n1,0,0\n2,0,0\n")
    assert run(["inverse", "--in", str(flat), "--n-max", "2"]) == 2
    assert run(["inverse", "--in", str(flat), "--n-max", "298156827"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("span", [["--periods", "inf"], ["--omega", "1e-320"]])
def test_cli_infinite_duration_is_one_usage_error(tmp_path, capsys, span):
    # 2*pi*periods/|omega| overflows to inf; no trace can last that long.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["direct", "--shape", "ngon", "--sides", "5", "--circumradius", "1", *span,
                    "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("span, flag", [
    (["--periods", "1e300"], "--periods"),
    (["--periods", "1e6"], "--periods"),
    (["--periods", "1e308"], "--periods"),
    (["--omega", "1", "--duration", "1e12"], "--duration"),
    (["--omega", "1e300", "--duration", "1e10"], "--duration"),
    (["--samples", "1000000000000"], "--samples"),
])
def test_cli_sample_count_is_bounded(tmp_path, capsys, span, flag):
    # Each count is refused before anything of its size is allocated.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["direct", "--shape", "ngon", "--sides", "5", "--circumradius", "1", *span,
                    "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == f"error: {flag} asks for more than {cli.MAX_SAMPLES} samples\n"
    assert not (tmp_path / "t.csv").exists()


def test_cli_side_limit_is_inclusive(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_SIDES", 8)
    args = ["direct", "--shape", "ngon", "--circumradius", "1", "--samples", "64", "--out", str(tmp_path / "t.csv")]
    assert run(args + ["--sides", "8"]) == 0
    assert run(args + ["--sides", "9"]) == 2
    assert capsys.readouterr().err == "error: --sides: must be from 3 to 8, got 9\n"


def test_cli_sample_limit_is_inclusive(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_SAMPLES", 100)
    args = ["direct", "--shape", "circle", "--radius", "1", "--out", str(tmp_path / "t.csv")]
    assert run(args + ["--samples", "100"]) == 0
    assert len(read_trace_csv(tmp_path / "t.csv")) == 100
    assert run(args + ["--samples", "101"]) == 2
    assert run(args) == 2  # 1024 per turn by default
    assert capsys.readouterr().err.splitlines()[-1] == "error: --periods asks for more than 100 samples"


def test_cli_polar_file_goes_through_the_trace_reader(tmp_path, capsys):
    beta = TWO_PI * np.arange(48) / 48
    rows = [f"{b!r},1.5" for b in beta.tolist()]
    clean, messy, bad = tmp_path / "clean.csv", tmp_path / "messy.csv", tmp_path / "bad.csv"
    clean.write_text("beta,r\n" + "\n".join(rows) + "\n")
    # blank, whitespace-only and tab-only lines, CRLF endings and an underscore
    messy.write_bytes(("\r\nbeta , r\r\n" + "\r\n \r\n".join(rows[:-1]) + "\r\n\t\r\n"
                       + rows[-1].replace("1.5", "1.5_0") + "\r\n").encode("ascii"))
    bad.write_text("beta,r\n" + "\n".join(rows[:2]) + "\n\n0.5,1.5,\n")
    traces = []
    for table in (clean, messy):
        out = tmp_path / f"{table.stem}-trace.csv"
        assert run(["direct", "--shape", "polar", "--polar-file", str(table), "--samples", "64",
                    "--out", str(out)]) == 0
        traces.append(out.read_bytes())
    assert traces[0] == traces[1]
    assert run(["direct", "--shape", "polar", "--polar-file", str(bad), "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == f"error: --polar-file: {bad}:5: expected 2 comma-separated values\n"


@pytest.mark.parametrize("args, flag", [
    (["--shape", "circle", "--radius", "1", "--omega-file", "{d}/missing.txt", "--duration", "1"],
     "--omega-file"),
    (["--shape", "circle", "--radius", "1", "--omega-file", "{d}/letters.txt", "--duration", "1"],
     "--omega-file"),
    (["--shape", "circle", "--radius", "1", "--omega-file", "{d}/wide.txt", "--duration", "1"],
     "--omega-file"),
    (["--shape", "circle", "--radius", "1", "--speed-file", "{d}/empty.txt"], "--speed-file"),
    (["--shape", "circle", "--radius", "1", "--speed", "0"], "--speed"),
    (["--shape", "circle", "--radius", "1", "--pole", "rim"], "--pole"),
    (["--shape", "ellipse", "--a", "2"], "--b"),
    (["--shape", "ngon", "--sides", "4"], "--side-length"),
    (["--shape", "ngon", "--sides", "4", "--side-length", "-1"], "--side-length"),
    (["--shape", "polar"], "--polar-file"),
    (["--shape", "polar", "--polar-file", "{d}/missing.csv"], "--polar-file"),
    (["--shape", "circle", "--radius", "1", "--omega-file", "{d}/good.txt", "--periods", "1"],
     "--periods"),
    (["--shape", "circle", "--radius", "1", "--omega", "0", "--periods", "1"], "--periods"),
    (["--shape", "circle", "--radius", "1", "--periods", "-1"], "--periods"),
    (["--shape", "circle", "--radius", "1", "--duration", "-1"], "--duration"),
    (["--shape", "circle", "--radius", "1", "--omega", "1e-320"], "--periods/--omega"),
    (["--shape", "ellipse", "--a", "1", "--b", "2"], "--a/--b"),
    (["--shape", "polar", "--polar-file", "{d}/short.csv"], "--polar-file"),
    (["--shape", "ngon", "--sides", "2.5", "--circumradius", "1"], "--sides"),
    # A file that is not ASCII is named with its flag and the line.
    (["--shape", "circle", "--radius", "1", "--omega-file", "{d}/utf8.txt", "--duration", "1"],
     "--omega-file: {d}/utf8.txt:2: not ASCII"),
    (["--shape", "circle", "--radius", "1", "--speed-file", "{d}/binary.txt"], "--speed-file: {d}/binary.txt:2: not ASCII"),
    (["--shape", "polar", "--polar-file", "{d}/utf8.csv"], "--polar-file: {d}/utf8.csv"),
    (["--shape", "polar", "--polar-file", "{d}/binary.csv"], "--polar-file: {d}/binary.csv"),
    # A form feed is not a line break, as in the trace reader.
    (["--shape", "circle", "--radius", "1", "--omega-file", "{d}/formfeed.txt", "--duration", "1"],
     "--omega-file: {d}/formfeed.txt:1: expected 't value'"),
])
def test_cli_direct_usage_errors_name_the_flag(tmp_path, capsys, args, flag):
    (tmp_path / "letters.txt").write_text("0 fast\n")
    (tmp_path / "wide.txt").write_text("0 1 2\n")
    (tmp_path / "empty.txt").write_text("# no rows\n")
    (tmp_path / "good.txt").write_text("0 1\n")
    (tmp_path / "short.csv").write_text("beta,r\n" + "".join(f"{b},1\n" for b in range(10)))
    (tmp_path / "utf8.txt").write_bytes("0 1\n1 2 # \u00e9\n".encode("utf-8"))
    (tmp_path / "binary.txt").write_bytes(b"0 1\n\xff\n")
    (tmp_path / "utf8.csv").write_bytes("beta,r\n0,1 # \u00e9\n".encode("utf-8"))
    (tmp_path / "binary.csv").write_bytes(b"beta,r\n\xff\n")
    (tmp_path / "formfeed.txt").write_bytes(b"0 1\f2 3\n")
    argv = ["direct", *(a.format(d=tmp_path) for a in args), "--out", str(tmp_path / "t.csv")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag.format(d=tmp_path) in err and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["inverse", "render"])
@pytest.mark.parametrize("body", [b"z,ys,yi\n0,1,-1 \xc3\xa9\n", b"\xff"])
def test_cli_non_ascii_trace_names_the_file(tmp_path, capsys, command, body):
    csv, svg = tmp_path / "t.csv", tmp_path / "t.svg"
    csv.write_bytes(body)
    assert run([command, "--in", str(csv), *(["--svg", str(svg)] if command == "render" else [])]) == 2
    line = 1 if body == b"\xff" else 2
    assert capsys.readouterr().err == f"error: {csv}:{line}: not ASCII\n"


@pytest.mark.parametrize("flag, value, why", [
    *((flag, value, "must be positive and finite") for flag, value in (
        ("--radius", "-1"), ("--radius", "inf"), ("--a", "0"), ("--b", "nan"), ("--side-length", "-0.0"),
        ("--circumradius", "-1"), ("--speed", "0"), ("--periods", "inf"), ("--duration", "0"))),
    *((flag, value, "must be finite") for flag, value in (
        ("--omega", "nan"), ("--theta0", "-inf"), ("--pole-x", "nan"), ("--pole-y", "inf"))),
    ("--sides", "2", f"must be from 3 to {cli.MAX_SIDES}"),
    ("--samples", "1", "must be at least 2"),
])
def test_cli_numbers_are_checked_where_parsed(tmp_path, capsys, flag, value, why):
    out = tmp_path / "t.csv"
    assert run(["direct", "--shape", "circle", "--radius", "1", f"{flag}={value}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag}: {why}, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--omega", "-1e-3"), ("--pole-x", "-1e0"), ("--omega", "-.5e1"),
                                         ("--theta0", "-2.5E+1"), ("--pole-y", "-3.")])
def test_cli_negative_numbers_in_any_float_form_are_values(tmp_path, flag, value):
    # argparse on its own reads only -5 and -.5 as numbers; "flag value" must
    # give the same trace as "flag=value", which is never read as a flag.
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    base = ["direct", "--shape", "circle", "--radius", "1", "--samples", "64"]
    assert run([*base, flag, value, "--out", str(spaced)]) == 0
    assert run([*base, f"{flag}={value}", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize("flag, value", [("--theta0", "-inf"), ("--omega", "-nan"), ("--pole-x", "-Infinity"),
                                         ("--pole-y", "-1e999")])
def test_cli_negative_non_finite_values_reach_their_check(tmp_path, capsys, flag, value):
    out = tmp_path / "t.csv"
    assert run(["direct", "--shape", "circle", "--radius", "1", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag}: must be finite, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["inverse", "--in", "t.csv", "--n-max", "2"], "--n-max"),
    (["inverse", "--in", "t.csv", "--n-max", "many"], "--n-max"),
    (["check", "--radius", "2"], "--radius"),
    (["check", "--case", "cube"], "--case"),
])
def test_cli_inverse_and_check_usage_errors_are_one_line(capsys, argv, flag):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and err.count("\n") == 1, err


def test_cli_pole_x_y_override_the_default_pole(tmp_path):
    csv = tmp_path / "t.csv"
    assert run(["direct", "--shape", "circle", "--radius", "1", "--pole-x", "0.5",
                "--pole-y", "-0.25", "--samples", "256", "--out", str(csv)]) == 0
    want = trace(SmoothContour.circle(1.0, (0.5, -0.25)), MotionProfile(omega=1.0, film_speed=1.0),
                 TimeGrid(duration=TWO_PI, samples=256))
    got = read_trace_csv(csv)
    for name in ("z", "y_s", "y_i"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    # A rim pole is --pole-x with the radius.
    assert run(["direct", "--shape", "circle", "--radius", "1.5", "--pole-x", "1.5", "--pole-y", "0.5",
                "--samples", "256", "--out", str(csv)]) == 0
    want = trace(SmoothContour.circle(1.5, (1.5, 0.5)), MotionProfile(omega=1.0, film_speed=1.0),
                 TimeGrid(duration=TWO_PI, samples=256))
    got = read_trace_csv(csv)
    for name in ("z", "y_s", "y_i"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_import_kinescope_loads_no_scipy():
    src = str(Path(kinescope.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import kinescope; "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_identify_loads_no_scipy():
    # The residual's phase is closed by one parabolic step, not a scipy
    # minimizer; neither the polygon's trace nor identify needs scipy.
    src = str(Path(kinescope.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import math; import kinescope as k; "
            "img = k.trace(k.regular_ngon(7, 1.3), k.MotionProfile(omega=0.8, film_speed=1.1, theta0=0.4), "
            "k.TimeGrid(duration=8 * 2 * math.pi / (7 * 0.8), samples=8000)); "
            "print(k.identify(img).n, any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "7 False"


def test_cli_inverse_loads_no_scipy(tmp_path):
    csv = tmp_path / "square.csv"
    write_trace_csv(square_image(4096), csv)
    src = str(Path(kinescope.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); from kinescope.cli import run; "
            f"code = run(['inverse', '--in', {str(csv)!r}]); "
            "print(code, any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[0] == "n=4"
    assert out.stdout.splitlines()[-1] == "0 False"


def test_write_svg_loads_no_masked_arrays(tmp_path):
    # Nothing here uses numpy.ma, and loading it would cost every direct and
    # render process.  Only modules that the call itself loads count, since
    # older numpy releases load numpy.ma with numpy.
    src = str(Path(kinescope.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import numpy as np; import kinescope.io as kio; "
            "z = np.linspace(0.0, 20.0, 5000); "
            "img = kio.KinematicImage(z=z, y_s=np.sin(z) + 1.0, y_i=np.sin(z) - 1.0); "
            f"before = set(sys.modules); kio.write_svg(img, {str(tmp_path / 'wave.svg')!r}); "
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.ma')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_python_m_kinescope_exits_with_run_code(tmp_path):
    src = str(Path(kinescope.__file__).parents[1])
    out = subprocess.run([sys.executable, "-m", "kinescope", "render", "--in", "missing.csv", "--svg", "out.svg"],
                         capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert not (tmp_path / "out.svg").exists()


def test_run_config_validation(capsys):
    # argparse rejects an unknown command and a missing required flag
    assert run(["bogus"]) == 2
    assert run(["render", "--in", "x.csv"]) == 2  # missing --svg
    assert run(["direct", "--shape", "circle", "--radius", "1"]) == 2  # missing --out
    capsys.readouterr()
    assert run(["direct", "-h"]) == 0  # help still prints the usage
    assert capsys.readouterr().out.startswith("usage: kinescope direct [-h] --shape")


def test_cli_nonconvex_polar_exits_3(tmp_path, capsys):
    from _oracles import reentrant_polar_table

    beta, r = reentrant_polar_table()
    lines = ["beta,r"] + [f"{b},{v}" for b, v in zip(beta, r)]
    polar = tmp_path / "reentrant.csv"
    polar.write_text("\n".join(lines) + "\n")
    rc = run(["direct", "--shape", "polar", "--polar-file", str(polar),
              "--duration", "6.0", "--out", str(tmp_path / "t.csv")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: --polar-file: polar contour is not strictly convex")


def test_cli_degenerate_trace_exits_4(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text("z,ys,yi\n" + "".join(f"{z},0,0\n" for z in range(8)))
    assert run(["inverse", "--in", str(flat)]) == 4
    capsys.readouterr()
