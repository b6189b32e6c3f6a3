"""Silhouette traces of rotating convex shapes, and their inversion.

A planar convex shape spins about a pole while a film slides past; the
shape's shadow prints a ribbon (the trace) bounded by an upper and a
lower curve.  This package computes that trace for circles, ellipses,
polygons, and sampled convex contours (the direct problem) and recovers
side count, size, parity, and motion ratio of a regular polygon from a
trace (the inverse problem).
"""

from .errors import ConvexityViolation, DegenerateImage, InsufficientData
from .geometry import (
    ConvexPolygon,
    SmoothContour,
    contour_point,
    polygon_envelope,
    regular_ngon,
    support_heights,
)
from .motion import MotionProfile, TimeGrid, integrate
from .direct import ClosedFormCase, KinematicImage, closed_form, oracle_check, trace
from .inverse import CIRCLE, InverseReport, extremes, identify, side_count
from .io import format_report, read_trace_csv, write_svg, write_trace_csv

__version__ = "0.1.0"

__all__ = [
    "CIRCLE",
    "ClosedFormCase",
    "ConvexPolygon",
    "ConvexityViolation",
    "DegenerateImage",
    "InsufficientData",
    "InverseReport",
    "KinematicImage",
    "MotionProfile",
    "SmoothContour",
    "TimeGrid",
    "closed_form",
    "contour_point",
    "extremes",
    "format_report",
    "identify",
    "integrate",
    "oracle_check",
    "polygon_envelope",
    "read_trace_csv",
    "regular_ngon",
    "side_count",
    "support_heights",
    "trace",
    "write_svg",
    "write_trace_csv",
]
