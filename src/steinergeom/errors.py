"""Exception types shared across the package, and the one check of an int argument."""


class SteinerGeomError(Exception):
    """Base class for all package errors."""


class AxiomViolation(SteinerGeomError):
    """Two points lie on two distinct nontrivial lines, or a clique fails to close.

    Attributes:
        pair: the offending point pair.
        witnesses: the conflicting lines or triples.
    """

    def __init__(self, pair, witnesses, message=None):
        self.pair = tuple(sorted(pair))
        self.witnesses = witnesses
        super().__init__(message or f"pair {self.pair} lies on conflicting lines: {witnesses}")


class FormatError(SteinerGeomError):
    """Malformed text input; carries a 1-based line number."""

    def __init__(self, lineno, message):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class SizeLimit(SteinerGeomError):
    """A search or a structure exceeded its configured size bound."""


class TooManyPoints(FormatError, SizeLimit):
    """A text input names more points than space.MAX_POINTS, or lines on
    more point pairs than space.MAX_PAIRS; raised on a row of the text
    before either is allocated."""


class NotStrong(SteinerGeomError):
    """A precondition `lo <= hi` (strong substructure) failed."""

    def __init__(self, lo, hi, violating=None):
        self.lo = frozenset(lo)
        self.hi = frozenset(hi)
        self.violating = None if violating is None else frozenset(violating)
        msg = f"{sorted(self.lo)} is not strong in {sorted(self.hi)}"
        if violating is not None:
            msg += f" (witness {sorted(self.violating)})"
        super().__init__(msg)


class NotZeroPrimitive(SteinerGeomError):
    """The given (base, extension) pair is not a 0-primitive extension."""


class BaseMismatch(SteinerGeomError):
    """The shared part of two structures disagrees."""


class BoundTooSmall(SteinerGeomError):
    """A violation involves a configuration larger than the search bound."""

    def __init__(self, bound, message):
        self.bound = bound
        super().__init__(message)


class PairNotOnTriple(SteinerGeomError):
    """Cycle-graph base pair does not lie on a 3-point line."""


def check_int(name: str, value, *, signed: bool = False) -> None:
    """A TypeError unless `value` is an int, not a bool; a ValueError if negative and not `signed`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not {value!r}")
    if value < 0 and not signed:
        raise ValueError(f"{name} must be >= 0, not {value}")
