"""Exception types raised by the library.

Every validation failure carries enough context (a witness flat or pair) to
reconstruct what went wrong; the CLI maps these to exit code 2.
"""


class ChowpolyError(Exception):
    """Base class for all library errors."""


class InvalidMatroid(ChowpolyError):
    pass


class BadParameters(ChowpolyError):
    pass


class NotAFlat(ChowpolyError):
    pass


class NotSimple(ChowpolyError):
    pass


class NotUpwardClosed(ChowpolyError):
    pass


class NotMeetClosed(ChowpolyError):
    pass


class MissingIrreducible(ChowpolyError):
    pass


class JoinClosureViolation(ChowpolyError):
    pass


class NotGCompatible(ChowpolyError):
    pass


class ImproperCut(ChowpolyError):
    pass


class CutContainsAtom(ChowpolyError):
    pass


class NotContained(ChowpolyError):
    pass


class NotFlag(ChowpolyError):
    pass


class Stuck(ChowpolyError):
    pass


class NotNestedLocal(ChowpolyError):
    pass


class NotUnique(ChowpolyError):
    pass


class RankNotOne(ChowpolyError):
    pass


class NotMaximal(ChowpolyError):
    pass


class NotIrreducible(ChowpolyError):
    pass


class MixedFactorStep(ChowpolyError):
    pass


class NoBinaryFiltration(ChowpolyError):
    pass


class TooLarge(ChowpolyError):
    pass


class FiberMismatch(ChowpolyError):
    pass


class NotPalindromic(ChowpolyError):
    pass
