"""Exception hierarchy shared by every module in the toolkit, and the type rule
of every config field."""

import math


class TsfoError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(TsfoError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(TsfoError):
    """A model or experiment configuration violates its invariants."""


class InputError(TsfoError):
    """A runtime argument (label, schedule step, dataset, ...) is invalid."""


class CapacityError(TsfoError):
    """An operation would exceed a documented numeric capacity bound."""


class ParseError(TsfoError):
    """A data file could not be parsed; message carries the line number."""


class CalibrationError(TsfoError):
    """Quantization calibration is missing or invalid for a required site."""


class PruneSpecError(ConfigError):
    """A pruning request cannot be applied to the given model."""


# what a config or report field of each annotated type must hold: the names of the
# types of its value and, for a list, of each item's; a bool is not an int here
FIELD_TYPES = {
    "int": ("an int", ("int",), None), "float": ("a number", ("int", "float"), None),
    "str": ("a string", ("str",), None), "str | None": ("a string or null", ("str", "NoneType"), None),
    "float | None": ("a number or null", ("int", "float", "NoneType"), None),
    "dict[str, float]": ("an object", ("dict",), None),
    "list[list[str]]": ("a list of op lists", ("list",), ("list",)),
    "tuple[int, ...] | None": ("a list of ints or null", ("list", "tuple", "NoneType"), ("int",)),
    "dict | None": ("an object or null", ("dict", "NoneType"), None),
    "SynthSpec | dict | None": ("an object or null", ("SynthSpec", "dict", "NoneType"), None),
    "EnergyParams | dict": ("an object", ("EnergyParams", "dict"), None),
}


def check_types(config, label: str) -> None:
    """Raise ConfigError, naming ``label`` and the field, unless each field of dataclass
    ``config`` holds its annotated type in ``FIELD_TYPES`` and each number is finite."""
    for name, kind in type(config).__annotations__.items():
        what, types, items = FIELD_TYPES[kind]
        value = getattr(config, name)
        if (type(value).__name__ not in types or type(value) is float and not math.isfinite(value)
                or items and value is not None and any(type(v).__name__ not in items for v in value)):
            raise ConfigError(f"{label} {name} must be {what}, got {value!r}")
