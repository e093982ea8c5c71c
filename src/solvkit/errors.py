"""Exception hierarchy for the toolkit.

Every error raised on bad mathematical input derives from SolvkitError so
callers (and the CLI) can distinguish "your data is wrong" from genuine bugs.
InternalCheckFailed is reserved for post-hoc validation of our own results;
it firing means the library is broken, not the input.
"""


class SolvkitError(Exception):
    pass


class SchemaError(SolvkitError):
    """Malformed JSON input or scalar literal."""


class NotSolvable(SolvkitError):
    pass


class NotNilpotent(SolvkitError):
    pass


class NotIntegrable(SolvkitError):
    """Almost complex structure fails the bracket-closure test."""


class NotTransverse(SolvkitError):
    """Subspace does not meet its conjugate in a direct sum."""


class NotReciprocal(SolvkitError):
    """Integer matrix has no admissible eigenvalue pair (g, 1/g)."""


class NotSemisimple(SolvkitError):
    """Matrix has a repeated factor in its minimal polynomial."""


class NonCommutingHolonomy(SolvkitError):
    pass


class BadHolonomy(SolvkitError, ValueError):
    """Holonomy generator that is singular or of the wrong size."""


class TraceTooSmall(SolvkitError):
    pass


class NotSpecialLinear(SolvkitError):
    pass


class DegenerateEigenvectors(SolvkitError):
    """Numeric eigenvector set is not linearly independent over R."""


class DegreeTooHigh(SolvkitError):
    """Cochain or form degree outside the supported range."""


class NonSemisimpleGenerator(NotSemisimple):
    """Holonomy generator whose minimal polynomial is not squarefree."""


class NoNonRealEigenvalue(SolvkitError):
    pass


class NotSquarefree(SolvkitError):
    pass


class BoundTooLarge(SolvkitError):
    pass


class NoGroupLaw(SolvkitError):
    pass


class UnknownName(SolvkitError):
    pass


class ParamOutOfRange(SolvkitError):
    pass


class InternalCheckFailed(SolvkitError):
    pass
