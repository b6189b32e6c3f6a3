"""Non-constant motion stretches the image along the film.  Spin a square
up through three rates and watch the wavelength shrink; the identifier
notices the uneven spacing and says so in its warnings.
"""

import math
from pathlib import Path

from kinescope import MotionProfile, TimeGrid, identify, integrate, regular_ngon, trace
from kinescope.io import format_report, write_svg

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

# Piecewise-constant spin-up: one turn at each rate.
two_pi = 2.0 * math.pi
profile = MotionProfile(
    omega=[(0.0, 0.5), (2.0 * two_pi, 1.0), (3.0 * two_pi, 2.0)],
    film_speed=1.0,
)
duration = 3.0 * two_pi + 0.5 * two_pi  # half a turn at the last rate

img = trace(regular_ngon(4, 1.0), profile, TimeGrid(duration=duration, samples=8192))
write_svg(img, out / "square_spinup.svg")
print("theta advanced %.3f turns over the record" % (integrate(profile, duration)[0] / two_pi))

rep = identify(img)
(out / "square_spinup.txt").write_text(format_report(rep), encoding="ascii")
print(f"identified n = {rep.n} (parity {rep.parity})")
for w in rep.warnings:
    print("warning:", w)
print("wrote", out / "square_spinup.svg", "and", out / "square_spinup.txt")
