"""Exception types shared across the package.

Every failure mode raised by the library is a subclass of CoulombError so
callers (and the CLI) can map problems to exit codes without string matching.
"""

from __future__ import annotations


class CoulombError(Exception):
    """Base class for all library errors."""


class InvalidParams(CoulombError):
    """Parameter pair sits on the polar set of the recurrence or is malformed."""


class NoConvergence(CoulombError):
    """Series truncation could not be certified below tolerance within the cap."""


class PoleError(CoulombError):
    """Gamma factor evaluated at a nonpositive integer."""


class BranchPoint(CoulombError):
    """Evaluation requested at the branch point z = 0 for non-integer order."""


class NearZeroOfG(CoulombError):
    """Logarithmic-derivative evaluation too close to a zero of the function."""


class WindingMismatch(CoulombError):
    """Argument-principle count disagrees with the list of located zeros."""


class DomainError(CoulombError):
    """Argument outside the admissible domain of a boundary-locus function."""
