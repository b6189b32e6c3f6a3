"""File formats: trace CSV, plot SVG, and the key=value report.

CSV values are written with 17 significant digits, which round-trips
IEEE doubles bit-exactly, so write-then-read is the identity on traces.
Writing formats each block of 4096 rows with one ``%``.  Reading checks
the header, then hands the rest of the file to numpy's ``loadtxt``.  If
that parser refuses it, a line-by-line loop rereads the file from the
start: it names the bad line, and it still takes what Python's ``float``
takes and ``loadtxt`` does not (``1_0``, whitespace-only lines).  So the
parser makes reading faster and changes nothing that is accepted.
"""

from __future__ import annotations

import math
import warnings
from array import array
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from .direct import KinematicImage
from .inverse import InverseReport

PathLike = Union[str, Path]

CSV_HEADER = "z,ys,yi"
CSV_ROW = "%.17g,%.17g,%.17g\n"
CSV_BLOCK = 4096  # rows per formatted string

SVG_W = 800
SVG_H = 300
SVG_MARGIN = 0.05

RIBBON_COLOR = "#4c78a8"
UPPER_COLOR = "#4c78a8"
LOWER_COLOR = "#e45756"


def write_trace_csv(img: KinematicImage, path: PathLike) -> None:
    """Write the trace as CSV with header ``z,ys,yi``, one sample per line."""
    table = np.column_stack((img.z, img.y_s, img.y_i))
    with open(path, "w", encoding="ascii") as f:
        f.write(CSV_HEADER + "\n")
        for start in range(0, len(table), CSV_BLOCK):
            block = table[start:start + CSV_BLOCK]
            f.write(CSV_ROW * len(block) % tuple(block.ravel().tolist()))


def _read_table(path: PathLike, header: str) -> np.ndarray:
    """Columns of a comma-separated table under the given header line.

    Blank lines are skipped.  Raises ValueError on a non-ASCII or empty
    file, a wrong header, or a row of the wrong width or with a
    non-numeric field, naming the file (and the line).  Returns an array
    of shape (columns, rows).
    """
    names = header.split(",")
    with open(path, encoding="ascii") as f, warnings.catch_warnings():
        # A header-only file warns "input contained no data".
        warnings.simplefilter("error", UserWarning)
        try:
            if [name.strip() for name in f.readline().split(",")] == names:
                table = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
                if table.shape[1] == len(names):
                    return table.T
        except (ValueError, UserWarning):
            pass
    # Everything else, leading blank lines included, is the loop's to accept
    # or to reject with the line's number: slow, but it can say which line is bad.
    values = array("d")
    rows = _lines(path)
    _, head = next(rows, (0, ""))
    if not head:
        raise ValueError(f"{path}: empty file")
    if [name.strip() for name in head.split(",")] != names:
        raise ValueError(f"{path}: expected header '{header}', got '{head}'")
    for ln_no, ln in rows:
        fields = ln.split(",")
        if len(fields) != len(names):
            raise ValueError(f"{path}:{ln_no}: expected {len(names)} comma-separated values")
        try:
            values.extend(map(float, fields))
        except ValueError:
            raise ValueError(f"{path}:{ln_no}: non-numeric value in '{ln}'") from None
    return np.frombuffer(values).reshape(-1, len(names)).T


def _lines(path: PathLike) -> Iterator[tuple[int, str]]:
    # (line number, stripped line) for each non-blank line.  A non-ASCII byte
    # decodes to a lone surrogate, so the line that holds it is named.
    with open(path, encoding="ascii", errors="surrogateescape") as f:
        for ln_no, ln in enumerate(f, start=1):
            if not ln.isascii():
                raise ValueError(f"{path}:{ln_no}: not ASCII")
            if ln := ln.strip():
                yield ln_no, ln


def read_trace_csv(path: PathLike) -> KinematicImage:
    """Read a trace CSV back into a KinematicImage.

    Raises ValueError on a wrong header, a malformed row, a non-ASCII
    byte, or data that violates the image invariants (non-increasing z,
    y_s < y_i).  The message names the file, and the line for a
    malformed row or a non-ASCII byte.
    """
    z, ys, yi = _read_table(path, CSV_HEADER)
    try:
        return KinematicImage(z=z, y_s=ys, y_i=yi)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_svg(img: KinematicImage, path: PathLike) -> None:
    """Render the trace to a fixed 800x300 SVG.

    z runs along the horizontal axis; both axes share one scale factor
    (equal units per pixel) chosen so the drawing fits inside a 5%
    margin, and the drawing is centred in the leftover space.  The area
    between the curves is filled with a translucent ribbon under two
    solid strokes.
    """
    z = img.z
    ys = img.y_s
    yi = img.y_i
    dz = float(z[-1] - z[0])
    ylo = float(yi.min())
    yhi = float(ys.max())
    dy = yhi - ylo
    if dy <= 0.0:
        dy = 1.0
    usable_w = SVG_W * (1.0 - 2.0 * SVG_MARGIN)
    usable_h = SVG_H * (1.0 - 2.0 * SVG_MARGIN)
    scale = min(usable_w / dz, usable_h / dy)

    zmid = 0.5 * float(z[0] + z[-1])
    ymid = 0.5 * (ylo + yhi)
    x = SVG_W / 2.0 + (z - zmid) * scale
    # x grows with z, so each pixel column is one run of samples.
    col = np.floor(x)
    first = np.flatnonzero(np.diff(col, prepend=-np.inf))
    last = np.append(first[1:] - 1, x.size - 1)

    def points(y):
        # A column's first, last, lowest and highest samples, kept once each in
        # z order, draw it as all of them would (M4 aggregation); sorted by
        # height, a run starts at its lowest sample and ends at its highest.
        y = SVG_H / 2.0 - (y - ymid) * scale
        order = np.lexsort((y, col))
        keep = np.zeros(x.size, dtype=bool)
        keep[np.concatenate((first, last, order[first], order[last]))] = True
        return list(map("{:.3f},{:.3f}".format, x[keep].tolist(), y[keep].tolist()))

    upper, lower = points(ys), points(yi)
    curves = (
        ("polygon", upper + lower[::-1], f'fill="{RIBBON_COLOR}" fill-opacity="0.25" stroke="none"'),
        ("polyline", upper, f'fill="none" stroke="{UPPER_COLOR}" stroke-width="1.5"'),
        ("polyline", lower, f'fill="none" stroke="{LOWER_COLOR}" stroke-width="1.5"'),
    )
    Path(path).write_text(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_W} {SVG_H}" '
        f'width="{SVG_W}" height="{SVG_H}">\n'
        f'  <rect width="{SVG_W}" height="{SVG_H}" fill="white"/>\n'
        + "".join(f'  <{tag} points="{" ".join(pts)}" {style}/>\n' for tag, pts, style in curves)
        + "</svg>\n",
        encoding="ascii",
    )


def format_report(rep: InverseReport) -> str:
    """Serialize an InverseReport as key=value lines.

    Keys, in order: n, parity, m, M, midline, omega_over_v, residual,
    warnings (semicolon-joined), then the rounding diagnostics n_raw and
    n_raw_delta (distance from n_raw to the nearest integer).
    """
    delta = math.nan if not math.isfinite(rep.n_raw) else abs(rep.n_raw - round(rep.n_raw))
    lines = [
        f"n={rep.n}",
        f"parity={rep.parity}",
        f"m={rep.apothem_m!r}",
        f"M={rep.circumradius_M!r}",
        f"midline={rep.midline!r}",
        f"omega_over_v={rep.omega_over_v!r}",
        f"residual={rep.residual!r}",
        "warnings=" + ";".join(rep.warnings),
        f"n_raw={rep.n_raw!r}",
        f"n_raw_delta={delta!r}",
    ]
    return "\n".join(lines) + "\n"
