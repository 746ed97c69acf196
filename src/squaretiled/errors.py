"""
Exception hierarchy shared across the package, and :class:`Checked`, the
base through which a validated record raises.

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


class Checked:
    """Base of a record that validates its fields, listed before the
    ``NamedTuple`` that holds them (whose body may not define
    ``__new__``).  The constructor builds the tuple and runs the record's
    ``_check``, which raises on bad input.  ``_make``, and so
    ``_replace``, go through the constructor rather than
    ``tuple.__new__``, so neither builds a record the constructor
    rejects."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
