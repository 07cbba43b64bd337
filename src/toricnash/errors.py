"""Exception hierarchy; the three subtrees map onto the CLI exit-code contract."""


class ToricNashError(Exception):
    """Base class for every error raised by this package."""


class InputError(ToricNashError):
    """Bad input: parse failures or violated domain invariants (exit code 1)."""


class ParseError(InputError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(InputError):
    """A domain invariant named in the message was violated."""


class ZeroVector(ValidationError):
    pass


class DependentGenerators(ValidationError):
    pass


class NonPointed(ValidationError):
    pass


class NotSimplicial(ValidationError):
    pass


class NotInCone(ValidationError):
    pass


class NotInRegion(ValidationError):
    pass


class NotPrimitive(ValidationError):
    pass


class NotInSupport(ValidationError):
    pass


class WrongDimension(ValidationError):
    pass


class SupportMismatch(ValidationError):
    pass


class NotProper(ValidationError):
    """The marked locus would contain the dense orbit (zero face seeded)."""


class EmptyLocus(ValidationError):
    """The cone is smooth and no face was marked, so no proper locus exists."""


class CertificationError(ToricNashError):
    """A certification step failed or could not be completed (exit code 3)."""


class MinimalPoint(CertificationError):
    """Avoidance was requested for a minimal point; no avoiding resolution exists."""


class ConstructionFailed(CertificationError):
    """An avoidance construction failed.

    `point` is the ray to avoid, when known; `attempts` holds one
    (n1, n2, error) per decomposition point = n1 + n2 that was tried.
    """

    def __init__(self, message, point=None, attempts=()):
        self.point = point
        self.attempts = tuple(attempts)
        super().__init__(message)


class ForbiddenBlocksResolution(CertificationError):
    """Every admissible subdivision center of `cone` was in `forbidden`."""

    def __init__(self, message, cone=None, forbidden=()):
        self.cone = cone
        self.forbidden = tuple(sorted(forbidden))
        super().__init__(message)


class InternalError(ToricNashError):
    """An internal consistency assertion failed (exit code 4)."""
