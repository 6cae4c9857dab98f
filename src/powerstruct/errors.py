"""Exception types shared across the package."""


class PowerStructError(Exception):
    """Base class for every domain error raised by this package."""


class AlphabetMismatchError(PowerStructError):
    """Two values over different variable alphabets were combined."""


class InexactDivisionError(PowerStructError):
    """An exact division failed: a nonzero remainder, or a divisor (such as
    a non-constant symmetric function) that the ring cannot divide by."""


class SubstitutionError(PowerStructError):
    """A substitution was impossible (missing variable, or a non-unit value
    raised to a negative exponent)."""


class GeneratorBoundError(PowerStructError):
    """A power-sum index exceeded the generator bound of a symmetric function."""


class ConstantTermError(PowerStructError):
    """A series operation required an invertible (usually 1) or zero constant
    term and the input did not have one."""


class IntegralityError(PowerStructError):
    """A Moebius sum that must be exactly divisible by n was not.

    This always signals an internal inconsistency; results are never rounded.
    """


class HomogeneityError(PowerStructError):
    """An operation defined only for homogeneous symmetric functions was
    applied to a non-homogeneous one."""


class ParseError(PowerStructError):
    """A textual expression could not be parsed."""


class LimitError(PowerStructError):
    """A value exceeded a documented size limit, such as the integer
    exponent of ``^`` in the value grammar; raised before the work it
    would have started."""
