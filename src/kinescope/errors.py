"""Exception types shared across the package.

All of these derive from ValueError so callers that only care about
"bad input" can catch one thing; the subtypes exist because the command
line maps them to distinct exit codes.
"""


class ConvexityViolation(ValueError):
    """The shape is not strictly convex, so the trace is not well defined."""


class DegenerateImage(ValueError):
    """The trace is flat (or empty) and carries no shape information."""


class InsufficientData(ValueError):
    """The trace does not cover enough structure for the requested estimate."""
