"""Exception types shared across the package."""


class DimersError(Exception):
    """Base class for all package errors."""


class InvalidRegion(DimersError):
    """Region construction violated a precondition."""


class InvalidTiling(DimersError):
    """A tiling value failed validation where a valid one was required."""


class RegionMismatch(DimersError):
    """Two tilings that must share a region do not."""


class NoBaseTiling(DimersError):
    """The region admits no all-vertical base tiling."""


class DecodeError(DimersError):
    """Byte string is not a canonical encoding of a tiling of the region."""


class MoveNotApplicable(DimersError):
    """The requested flip or trit does not apply to this tiling."""


class WidthGuardExceeded(DimersError):
    """Profile or disk width exceeds the configured counting guard."""


class CapExceeded(DimersError):
    """Enumeration would exceed the configured tiling cap."""


class NotReachable(DimersError):
    """No flip/trit path to the target was found under the search cap."""


class CalibrationError(DimersError):
    """A twist came out non-integral, or a trit stepped it by other than
    +-1, under the declared normalization."""


class UnbalancedRegion(DimersError):
    """Operation requires equal numbers of white and black cells."""


class InflationError(DimersError):
    """No pair twist: an unknown pair, an invalid slab tiling, a
    non-integral value or a broken relation."""


class IdenticalTilings(DimersError):
    """A binomial of two tilings requires the tilings to differ."""
