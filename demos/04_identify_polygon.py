"""Round trip: synthesize the trace of a heptagon nobody told the
identifier about, add measurement noise, and recover the polygon.
"""

import math
from pathlib import Path

import numpy as np

from kinescope import KinematicImage, MotionProfile, TimeGrid, identify, regular_ngon, trace
from kinescope.io import format_report, write_svg

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

n, R, omega = 7, 1.3, 0.8
img = trace(regular_ngon(n, R), MotionProfile(omega=omega, film_speed=1.0),
            TimeGrid(duration=2.0 * math.pi / omega, samples=7168))

rng = np.random.default_rng(4)
noisy = KinematicImage(
    z=img.z,
    y_s=img.y_s + rng.uniform(-1e-3, 1e-3, len(img)),
    y_i=img.y_i + rng.uniform(-1e-3, 1e-3, len(img)),
)
write_svg(noisy, out / "heptagon_noisy.svg")

rep = identify(noisy)
(out / "heptagon_noisy.txt").write_text(format_report(rep), encoding="ascii")
print(f"true shape: {n}-gon, R = {R}, omega/v = {omega}")
print(format_report(rep), end="")
print("R recovered to %.2e relative, omega/v to %.2e relative"
      % (abs(rep.circumradius_M - R) / R, abs(rep.omega_over_v - omega) / omega))
print("wrote", out / "heptagon_noisy.svg", "and", out / "heptagon_noisy.txt")
