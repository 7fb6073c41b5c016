"""Exception taxonomy.

Every library error derives from FusionRepError and carries an exit_code used
by the CLI: 1 = input/parse problem, 2 = mathematical validation failure,
3 = a configured cap was exceeded.
"""

from __future__ import annotations


class FusionRepError(Exception):
    exit_code = 2

    def __init__(self, *args, row=None):
        super().__init__(*args)
        self.row = row  # the first failing row of a batched check, if any


class InputError(FusionRepError):
    """Malformed input (files, notation, names)."""

    exit_code = 1


class CapExceeded(FusionRepError):
    """A configured size/iteration cap was hit before completion."""

    exit_code = 3


# --- input / parsing ---------------------------------------------------------

class ParseError(InputError):
    def __init__(self, line: int, col: int, msg: str):
        super().__init__(f"line {line}, col {col}: {msg}")


class NotAPermutation(InputError):
    pass


class UnknownName(InputError):
    pass


# --- groups ------------------------------------------------------------------

class OrderCapExceeded(CapExceeded):
    pass


class SubgroupEnumerationCapExceeded(CapExceeded):
    pass


class EvenPrime(FusionRepError):
    """p = 2 rejected where odd extraspecial structure is required."""


class GroupMismatch(FusionRepError):
    """Objects attached to different parent groups were combined."""


class NotAHomomorphism(FusionRepError):
    pass


class NotInjective(FusionRepError):
    pass


# --- characters --------------------------------------------------------------

class NotAPrimePowerGroup(FusionRepError):
    pass


# --- fusion ------------------------------------------------------------------

class DomainNotSubgroup(FusionRepError):
    pass


class MorphismCapExceeded(CapExceeded):
    pass


# --- invariants --------------------------------------------------------------

class HilbertCapExceeded(CapExceeded):
    pass


class NotInvariant(FusionRepError):
    pass


class NotInSpan(FusionRepError):
    pass


# --- ring presentations ------------------------------------------------------

class DecompositionNotIntegral(FusionRepError):
    pass


class AmbientMismatch(FusionRepError):
    """A module and a presentation on different generators."""


class ExponentCapExceeded(CapExceeded):
    pass


# --- extension and twisted ---------------------------------------------------

class InvalidCocycle(FusionRepError):
    pass


class NotCentral(FusionRepError):
    pass


class NotCyclicKernel(FusionRepError):
    pass


class GeneratorMovesA(FusionRepError):
    """A fusion generator fails to fix the central coefficient subgroup pointwise."""


class QuotientMismatch(FusionRepError):
    """Quotient of the twisted fusion system does not match the given base system."""
