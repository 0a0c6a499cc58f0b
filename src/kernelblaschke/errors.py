"""Exception types shared across the package."""


class KernelSpaceError(Exception):
    """Base class for all package-specific failures."""


class DivergentSeries(KernelSpaceError):
    """A kernel pairing or expansion series does not converge."""


class ToleranceUnreachable(KernelSpaceError):
    """The term budget ran out before the tail bound closed below tolerance."""


class UnboundedTail(KernelSpaceError):
    """An operation needs a finite tail bound but none is available."""


class SingularGram(KernelSpaceError):
    """Kernel Gram matrix is numerically rank deficient (e.g. near-coincident points)."""


class IllConditioned(KernelSpaceError):
    """A spanning-set Gram is not definite, has a pivot ratio below the
    constant ``construct.PIVOT_FLOOR`` or is singular to working precision; or
    the zero scan cannot certify a zero count, in the scan circle or a disk."""


class InadmissibleMultiset(KernelSpaceError):
    """A multiset asks for more derivative orders than a point supports."""


class DegenerateResidueSystem(KernelSpaceError):
    """Residue-vanishing conditions are rank deficient."""


class ZeroFunction(KernelSpaceError):
    """An input that must be a nonzero function is numerically zero."""


class TruncationDominatesResidual(KernelSpaceError):
    """Truncation error on the scan circle exceeds the residual tolerance."""


class MissingReproducibility(KernelSpaceError):
    """A custom space has no reproducibility entry for the queried point."""


class UnsupportedRoute(KernelSpaceError):
    """A construction route needs structure the space lacks (kernel routes
    need a diagonal space)."""


class ConfigError(KernelSpaceError):
    """An experiment configuration is malformed or incomplete."""
