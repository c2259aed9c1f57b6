"""Exception types shared across the package."""


class PartcatError(Exception):
    """Base class for all package-specific errors."""


class OverlapError(PartcatError):
    """A point was assigned to more than one block."""


class CoverageError(PartcatError):
    """The blocks do not cover every point of the partition."""


class PointRangeError(PartcatError):
    """A point index lies outside the declared row sizes."""


class ParseError(PartcatError):
    """The partition text does not match the grammar."""


class ArityMismatchError(PartcatError):
    """Vertical composition of partitions with incompatible row sizes."""


class EmptyRowError(PartcatError):
    """A rotation tried to move a point out of an empty row."""


class CycleOnTwoRowsError(PartcatError):
    """Cyclic rotation is only defined for one-row partitions."""


class CapExceededError(PartcatError):
    """An exhaustive enumeration (of partitions or of a group) exceeded its cap."""


class BudgetError(PartcatError):
    """Closure budgets are inconsistent or too small for the request."""


class NoPredicateError(PartcatError):
    """The catalog has no membership predicate for this category."""


class BadParamError(PartcatError):
    """Invalid parameter for a named constructor, a sequence or a representation."""


class IndexRangeError(PartcatError):
    """A tensor index lies outside 1..n."""


class MemoryCapError(PartcatError):
    """A requested vector or matrix would exceed the byte cap."""


class UndefinedBlockValueError(PartcatError):
    """A cumulant specification does not cover a block shape it was asked for."""
