"""Exception types shared across the package, the field check of every
value read from JSON, and the int check of every key of a term map."""


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


def _require_int(value, field: str) -> None:
    """Refuse anything but an int (a bool is not one) for ``field``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{field} must be an int, got {value!r}")


_JSON_KINDS = {int: "integer", dict: "object", list: "array", bool: "boolean", str: "string"}


def _is_kind(value, kind: type) -> bool:
    """Whether value has JSON type kind; a boolean is no integer."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def json_field(obj, key: str, where: str, kind: type, of: type | None = None):
    """obj[key] from the JSON object obj, of JSON type kind, or an array of
    JSON type ``of`` when that is given; a ValueError names the missing or
    ill-typed field and where it sits."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r} field")
    value = obj[key]
    if not _is_kind(value, kind) or (of and not all(_is_kind(v, of) for v in value)):
        name = _JSON_KINDS[kind] + (f" of {_JSON_KINDS[of]}s" if of else "")
        article = "an" if name[0] in "aeiou" else "a"
        raise ValueError(f"{where} field {key!r} must be {article} {name}, got {value!r}")
    return value
