"""Exception types shared across the engine.

Every error raised by engine operations derives from EngineError, so callers
(CLI, tests) can distinguish input problems from genuine bugs.
"""


class EngineError(Exception):
    """`witness`, when given, is the failing check's dict, kept as
    ``.witness``."""

    def __init__(self, *args, witness=None):
        super().__init__(*args)
        self.witness = witness


# -- coefficient rings -------------------------------------------------------

class MixedRings(EngineError):
    pass


class NonGridExponent(EngineError):
    pass


class WrongRing(EngineError):
    pass


# -- chain complexes ---------------------------------------------------------

class NotADifferential(EngineError):
    pass


class DegreeMismatch(EngineError):
    pass


class UnsupportedRing(EngineError):
    pass


class NotAcyclic(EngineError):
    pass


class NoLift(EngineError):
    """Internal error: an order-by-order lift failed on a degreewise-free complex."""


# -- symmetric groups --------------------------------------------------------

class GroupTooLarge(EngineError):
    pass


class GroupMismatch(EngineError):
    pass


class NonPermutationAction(EngineError):
    pass


# -- multicategories / bar ---------------------------------------------------

class TruncationTooSmall(EngineError):
    pass


class ModuleMismatch(EngineError):
    pass


class NonComposable(EngineError):
    pass


class NonCommutingSquare(EngineError):
    pass


class NonTorsionFree(EngineError):
    """Flag-style error: carried in reports, not raised fatally."""
