"""Exception types shared across the package.

InputError and FormatError mark problems with user-supplied data (the CLI
maps them to exit code 1); ContractError and DimensionError mark caller
bugs and NumericalError a model that computed a non-finite value, and all
three surface as internal errors (exit code 2).
"""


class SpoofVaeError(Exception):
    """Base class for all package errors."""


class ContractError(SpoofVaeError):
    """A documented precondition was violated by the caller."""


class DimensionError(SpoofVaeError):
    """Tensor/matrix shapes or extents are inconsistent."""


class InputError(SpoofVaeError):
    """User-supplied data cannot be used (empty corpus, single class, ...)."""


class FormatError(SpoofVaeError):
    """A file's bytes do not match the expected format."""


class NumericalError(SpoofVaeError):
    """A model computed a non-finite value where a finite one is required."""
