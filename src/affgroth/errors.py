"""Exception types shared across the package."""


class AffGrothError(Exception):
    pass


class BadShape(AffGrothError):
    """Matrix is not a generalized Cartan matrix (shape/entry violations)."""


class NotSymmetrizable(AffGrothError):
    pass


class NotAffine(AffGrothError):
    """Matrix is a GCM but not of affine type (corank 1, positive null vector,
    valid basepoint node)."""


class BadLabel(AffGrothError):
    """Node index out of range."""


class UnknownNode(BadLabel):
    pass


class NonQInput(AffGrothError):
    """Operation requires a weight in the root lattice (zero Lambda part)."""


class BadWord(AffGrothError):
    pass


class CocycleViolation(AffGrothError):
    """Input family fails the twisted 1-cocycle conditions."""

    def __init__(self, violations):
        self.violations = violations
        super().__init__("cocycle conditions violated: %s" %
                         ", ".join(str(v[0]) for v in violations[:4]))


class Inconsistent(AffGrothError):
    """Coboundary system has no solution on the maximal support tried."""


class WindowViolation(AffGrothError):
    """Support escaped the level window it is guaranteed to stay inside."""


class SupportGrowthExceeded(AffGrothError):
    """Coboundary support closure did not stabilize within the growth bound."""


class NotDominant(AffGrothError):
    pass


class NotNonNegativeLevel(AffGrothError):
    """Weight has negative level where a non-negative one is required."""


class CacheMismatch(AffGrothError):
    """Cache file is unreadable, unwritable, malformed, or was produced for
    different Cartan data."""


class ParseError(AffGrothError):
    def __init__(self, message, text=None, pos=None):
        self.text = text
        self.pos = pos
        if text is not None and pos is not None:
            message = "%s at position %d: ...%s" % (message, pos, text[pos:pos + 16])
        super().__init__(message)
