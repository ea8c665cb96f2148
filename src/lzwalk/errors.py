"""Exception types shared across the package."""


class SingularityError(ValueError):
    """A series division met a (numerically) vanishing constant term."""


class BranchAmbiguityError(ValueError):
    """Root selection cannot decide which branch continues the z=0 germ."""


class DelocalizedError(ValueError):
    """An edge-state quantity was requested outside the localized regime."""


class ResourceLimitError(RuntimeError):
    """A hard cap (path length, step count) would be exceeded."""
