"""Exception types shared across the package."""


class FracmvError(RuntimeError):
    """Base class for package-specific runtime failures."""


class ToleranceError(FracmvError):
    """A truncation/tail estimate exceeded the requested tolerance."""

    def __init__(self, message, estimate, tol):
        super().__init__(f"{message}: estimate {estimate:.3e} > tol {tol:.3e}")
        self.estimate = estimate
        self.tol = tol


class EvaluationError(FracmvError):
    """An integrand produced a non-finite value at a quadrature node."""

    def __init__(self, node):
        super().__init__(f"non-finite integrand value at node {node}")
        self.node = node


class FieldRejectedError(FracmvError):
    """A scalar field does not satisfy the required growth condition."""


class TableMismatchError(FracmvError):
    """A kernel table does not match the requested parameters."""
