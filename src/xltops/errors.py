"""Exception hierarchy shared by all xltops modules."""


class XltError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(XltError):
    """A table's shape disagrees with the station/train catalogs."""


class RowSumViolation(XltError):
    """A classification row (delta or epsilon) does not sum to exactly 1."""


class NonConsecutiveSection(XltError):
    """A section's units are not a consecutive run."""


class NeverAlignedViolation(XltError):
    """A section containing doorless end units carries an alignment flag."""


class BadSectionCount(XltError):
    """A protocol constructor received the wrong number of section sizes."""


class NonIntegralStep(XltError):
    """The requested step-family layout does not land on whole units."""


class UnreachableError(XltError):
    """No feasible route exists between the requested station types."""


class UnknownStationType(XltError, KeyError):
    """A label names a station type that the catalog or chart does not have."""

    __str__ = Exception.__str__  # the message, not KeyError's quoted repr of it


class UnknownMode(XltError, ValueError):
    """A mode or rule string names none of the options the function offers."""


class SubsetCoverage(XltError):
    """Skip-stop subsets fail to cover the station-type universe."""


class AmbiguousAssignment(XltError):
    """More than one section presents a demanded origin-destination pair."""


class InfeasibleMinRates(XltError):
    """The minimum entry rates alone overcrowd some train section."""


class SearchSpaceTooLarge(XltError):
    """The outer enumeration exceeds the configured candidate cap."""


class NonpositiveSpeed(XltError):
    """Cruise speed must be strictly positive."""


class SchemaError(XltError):
    """A JSON document does not match the expected file schema."""
