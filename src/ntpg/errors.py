"""Exception hierarchy shared by all ntpg modules.

Every exception carries a ``details`` dict with the minimal witness data
(first violating element, pair or triple under element-index order), so the
CLI can serialize failures without string parsing.
"""


def is_int(x):
    """An integer as inputs mean it: int and its subclasses, except bool,
    which is what JSON true and false load as."""
    return isinstance(x, int) and not isinstance(x, bool)


def all_ints(values):
    """``is_int`` for every value, read off the set of their types, so
    MB-scale inputs skip the per-entry call."""
    return all(issubclass(t, int) and not issubclass(t, bool)
               for t in set(map(type, values)))


class AlgebraError(Exception):
    """Base class: a structured failure with witness details."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details

    def report(self):
        return {"error": type(self).__name__,
                "message": str(self),
                "details": self.details}


class InvalidInput(AlgebraError):
    """Malformed input data (bad shapes, out-of-range indices, bad JSON)."""


# -- group validation ------------------------------------------------------

class NotLatinSquare(AlgebraError):
    pass


class NonAssociative(AlgebraError):
    pass


class NoIdentity(AlgebraError):
    pass


class NoInverse(AlgebraError):
    pass


class ParentMismatch(AlgebraError):
    pass


class NotNormal(AlgebraError):
    pass


class NotAnAction(AlgebraError):
    pass


class ClosureCapExceeded(AlgebraError):
    pass


# the closure cap of every input group, also the CLI's --max-order default
DEFAULT_CLOSURE_CAP = 10_000
# the cap of every search grid, also the CLI's --max-candidates default
DEFAULT_CANDIDATE_CAP = 10 ** 6


# -- groupoids -------------------------------------------------------------

class ActionNotFree(AlgebraError):
    pass


class NotCompatible(AlgebraError):
    pass


class NotFree(AlgebraError):
    pass


class NotMultiplicative(AlgebraError):
    pass


# -- graded polynomial maps ------------------------------------------------

class SignatureMismatch(AlgebraError):
    pass


class NotInvertible(AlgebraError):
    pass


class IllegalMonomial(AlgebraError):
    pass


class NotInvertibleChart(AlgebraError):
    pass


class EnumerationCapExceeded(AlgebraError):
    pass


# -- cocycles ----------------------------------------------------------------

class ActionIncompatibleWithFibration(AlgebraError):
    pass


class SearchCapExceeded(AlgebraError):
    pass


# -- theory oracles ----------------------------------------------------------

class InternalInconsistency(AlgebraError):
    """A consequence of the theory failed.  Indicates a bug in this library,
    never bad user input; the CLI reports it as such."""


class InternalDisagreement(InternalInconsistency):
    """Two independent criteria that must agree returned different verdicts."""
