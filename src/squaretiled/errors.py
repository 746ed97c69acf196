"""
Exception hierarchy shared across the package.

All exceptions derive from :class:`SquareTiledError` so callers can catch
everything this library raises with a single clause; validation-style
errors additionally derive from ``ValueError``.
"""


class SquareTiledError(Exception):
    """Base class for all errors raised by this package."""


class NotTransitive(SquareTiledError, ValueError):
    """The two permutations generate an intransitive group (disconnected surface)."""


class NotAStabilizer(SquareTiledError, ValueError):
    """The given word does not stabilize the origami up to relabeling."""


class GenusMismatch(SquareTiledError, ValueError):
    """The operation requires a surface of a specific genus."""


class InvariantViolation(SquareTiledError):
    """An internal consistency check failed: a malformed cylinder diagram,
    a homology computation that breaks its own invariants, or a verdict
    whose evidence does not support it.  Raised explicitly, so the check
    also runs under ``python -O``."""
