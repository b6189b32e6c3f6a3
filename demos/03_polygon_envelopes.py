"""Polygon traces are piecewise sinusoids: one vertex at a time controls
each curve, and the control vertex hands over at fixed angles.  Print the
hand-over schedule for a square and a triangle and plot both traces.
"""

import math
from pathlib import Path

import numpy as np

from kinescope import MotionProfile, TimeGrid, polygon_envelope, regular_ngon, trace
from kinescope.io import write_svg

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
motion = MotionProfile(omega=1.0, film_speed=1.0)


def schedule(poly, n_steps=720):
    """(theta_start, upper, lower) for each control interval over a turn.

    Each grid cell is sampled at its midpoint, away from the exact
    hand-over angles where two vertices tie, and an interval is printed
    from the start of the cell where its vertices take over.
    """
    step = 2.0 * math.pi / n_steps
    _, _, iu, il = polygon_envelope(poly, step * (np.arange(n_steps) + 0.5))
    runs = [(0.0, int(iu[0]), int(il[0]))]
    for k in range(1, n_steps):
        if (iu[k], il[k]) != (runs[-1][1], runs[-1][2]):
            runs.append((step * k, int(iu[k]), int(il[k])))
    return runs


for n, name in [(4, "square"), (3, "triangle")]:
    poly = regular_ngon(n, 1.0)
    print(f"{name}: vertex (upper, lower) control intervals")
    for start, u, lo in schedule(poly):
        print(f"  from theta = {start:7.4f}: upper vertex {u}, lower vertex {lo}")
    img = trace(poly, motion, TimeGrid(duration=2.0 * math.pi, samples=2048))
    write_svg(img, out / f"{name}.svg")
    print(f"  Y_s swings between apothem {img.y_s.min():.6f} and circumradius {img.y_s.max():.6f}")
    print("  wrote", out / f"{name}.svg")
