"""Exception hierarchy shared across the toolkit."""


class BnecertError(Exception):
    """Base class for all toolkit errors."""


class ExprSyntaxError(BnecertError):
    """Malformed expression text; offset is the index in the text (in
    characters) where the problem is."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExprSyntaxError):
    """A name that is neither a variable nor a function: a kind of syntax
    error, which keeps the name."""

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier {name!r}", offset)
        self.name = name


class DomainError(BnecertError):
    """Evaluation left the real domain (log/sqrt of a negative, x/0, ...)."""


class NegativePrior(BnecertError):
    """Prior density is negative at a validation grid point."""


class ZeroMarginal(BnecertError):
    """A marginal density is zero or negative where positivity is required."""


class NonFinite(BnecertError):
    """A value is NaN or infinite: an expression on the validation grid,
    a payoff tensor, a fictitious play gap or a Simpson estimate."""


class QuadratureFailure(BnecertError):
    """Adaptive quadrature could not reach the tolerance within its budget."""


class Prop1Violation(BnecertError):
    """User-supplied multipliers fail the linearization identity on the grid."""


class Infeasible(BnecertError):
    """Simplex found the LP infeasible.  The slack LP is feasible, so
    there this means numerical drift in the tableau."""


class UnboundedObjective(BnecertError):
    """Simplex found the LP unbounded.  The slack LP is bounded (z >= 0
    and alpha > 0), so there this means numerical drift in the tableau."""


class SimplexStall(BnecertError):
    """Simplex stopped short of optimality: it hit its pivot cap, or its
    basis matrix became numerically singular."""


class NoConvergence(BnecertError):
    """Fictitious play missed the target gap; carries the best iterate."""

    def __init__(self, result):
        g = max(result.finite_gap1, result.finite_gap2)
        super().__init__(f"fictitious play stopped with best gap {g:.3e}")
        self.result = result
