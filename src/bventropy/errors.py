"""Exception hierarchy shared by all modules."""


class BVEntropyError(Exception):
    """Base class for all library-specific errors."""


# --- metric space validation ---

class AsymmetricMatrix(BVEntropyError):
    pass


class NonzeroDiagonal(BVEntropyError):
    pass


class TriangleViolation(BVEntropyError):
    def __init__(self, i, j, via, lhs, rhs):
        self.triple = (i, j, via)
        super().__init__(
            f"triangle inequality fails at ({i},{j},{via}): "
            f"d[{i}][{j}]={lhs} > d[{i}][{via}]+d[{via}][{j}]={rhs}"
        )


# --- covering / packing ---

class ExactModeTooLarge(BVEntropyError):
    pass


class EmptyWindow(BVEntropyError, ValueError):
    """An invalid or empty scale window: bad input, not a broken invariant."""


class ScaleViolation(BVEntropyError):
    pass


# --- gauges ---

class GaugeViolation(BVEntropyError):
    check = ""          # the name of the failed check in GaugeReport.checks


class NotConvex(GaugeViolation):
    check = "convex"


class NotVanishingAtZero(GaugeViolation):
    check = "zero"


class NotPositive(GaugeViolation):
    check = "positive"


class InverseMismatch(GaugeViolation):
    check = "inverse"


class ScaleUnderflow(BVEntropyError, ValueError):
    """psi underflows to 0 at a positive scale: bad input, not a broken invariant."""


# --- codec ---

class EpsilonTooLarge(BVEntropyError, ValueError):
    """An accuracy coarser than the class admits: bad input, not a broken invariant."""


class EpsilonTooSmall(BVEntropyError, ValueError):
    """An accuracy so fine that a count it sets overflows a float: bad input,
    not a broken invariant."""


class NetIncomplete(BVEntropyError):
    pass


class NetTooLarge(BVEntropyError, ValueError):
    """A uniform net above ``MAX_NET_SIZE``: bad input, not a broken invariant."""


class BudgetViolation(BVEntropyError):
    pass


class CorruptStream(BVEntropyError):
    pass


# --- witness families ---

class DegenerateBall(BVEntropyError):
    pass


class InfeasibleConstraint(BVEntropyError):
    pass


class SeparationFailure(BVEntropyError):
    pass


class FamilyTooLarge(BVEntropyError, ValueError):
    """A witness family above ``MAX_FAMILY_WORK``: bad input, not a broken invariant."""


# --- ensembles ---

class DomainMismatch(BVEntropyError):
    pass


class InsufficientRows(BVEntropyError):
    pass


# --- conservation laws ---

class OutOfRange(BVEntropyError):
    pass


class UnstableConfig(BVEntropyError, ValueError):
    """A CFL number outside (0, 0.9]: bad input, not a broken invariant."""


class InvalidGrid(BVEntropyError, ValueError):
    """A bad step, time or cell-centre count: bad input, not a broken invariant."""


class DomainTooSmall(BVEntropyError):
    pass


class GaugeDegenerate(BVEntropyError, ValueError):
    """A flux whose gauge vanishes: bad input, not a broken invariant."""


class InfiniteDegeneracy(BVEntropyError):
    pass


# --- CLI ---

class ConfigError(BVEntropyError):
    pass
