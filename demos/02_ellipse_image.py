"""Trace an ellipse and check the generic tangency solver against the
closed-form envelope sqrt(a^2 sin^2 + b^2 cos^2).
"""

from pathlib import Path

import numpy as np

from kinescope import (
    ClosedFormCase,
    MotionProfile,
    SmoothContour,
    TimeGrid,
    oracle_check,
    trace,
)
from kinescope.io import write_svg, write_trace_csv

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

a, b = 2.0, 1.0
ellipse = SmoothContour.ellipse(a, b)
img = trace(ellipse, MotionProfile(omega=1.0, film_speed=1.0),
            TimeGrid(duration=2.0 * np.pi, samples=1024))

write_trace_csv(img, out / "ellipse.csv")
write_svg(img, out / "ellipse.svg")

want = np.sqrt(a * a * np.sin(img.z) ** 2 + b * b * np.cos(img.z) ** 2)
print("max |Y_s - closed form| over the trace: %.3e" % np.max(np.abs(img.y_s - want)))
print("oracle_check on 512 angles:             %.3e"
      % oracle_check(ClosedFormCase.ellipse_center(a, b)))
print("height swings between 2b = %.1f and 2a = %.1f: [%.6f, %.6f]"
      % (2 * b, 2 * a, (img.y_s - img.y_i).min(), (img.y_s - img.y_i).max()))
print("wrote", out / "ellipse.csv", "and", out / "ellipse.svg")
