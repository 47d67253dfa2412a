"""Typed exceptions and warnings shared by all toolkit modules."""


class GaborToolkitError(Exception):
    """Base class for every error raised by this package."""


class DomainError(GaborToolkitError):
    """An argument lies outside the domain an operation is defined on."""


class DivisibilityError(DomainError):
    """A step or block size fails a required divisibility constraint."""


class GridMismatchError(GaborToolkitError):
    """Two signals that must share a grid do not."""


class LatticeError(GaborToolkitError):
    """A lattice is invalid or mismatched for the requested operation."""


class DimensionError(GaborToolkitError):
    """An array's shape does not match the object it is attached to."""


class SizeError(GaborToolkitError):
    """A dense matrix, fiber stack or bench double sum above its size cap."""


class ParseError(GaborToolkitError):
    """A window sample file or configuration value could not be parsed."""


class NotAFrameError(GaborToolkitError):
    """The system has no positive lower frame bound; inversion is undefined."""


class ConvergenceError(GaborToolkitError):
    """An iterative solver exhausted its iteration or node budget."""


class ContractViolationError(GaborToolkitError):
    """A verified identity failed its tolerance; signals an implementation bug."""


class NotAFrameWarning(UserWarning):
    """Emitted when computed frame bounds indicate the system is not a frame."""
