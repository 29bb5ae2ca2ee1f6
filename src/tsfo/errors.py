"""Exception hierarchy shared by every module in the toolkit."""


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
