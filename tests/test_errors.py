"""The type rule of every config field: ``errors.FIELD_TYPES`` and ``check_types``,
which each config dataclass calls first when it is built, from JSON or in Python."""

import math
from dataclasses import fields

import pytest

from tsfo.bench import ExperimentConfig
from tsfo.data import SynthSpec, synth_generate
from tsfo.errors import FIELD_TYPES, ConfigError
from tsfo.metrics import EnergyParams
from tsfo.model import ModelConfig
from tsfo.pruning import PruneSpec
from tsfo.training import TrainConfig

# each config dataclass with the arguments of one valid instance; none reads data
VALID = {
    ExperimentConfig: {"dataset_path": "data.tsv"},
    SynthSpec: {"classes": 3, "per_class": 4, "length": 16},
    EnergyParams: {},
    ModelConfig: {"num_layers": 1, "num_heads": 1, "model_dim": 4, "ffn_dim": 4,
                  "patch_size": 4, "patch_stride": 4, "seq_len": 16},
    TrainConfig: {},
    PruneSpec: {},
}


def wrong_values(kind: str) -> list:
    """Values of the wrong type for a field annotated ``kind``: a string (an int
    where a string is right), a bool where an int is, NaN and infinity where a
    number is, and a list of the wrong items where a list is."""
    values = [2] if "str" in FIELD_TYPES[kind][1] else ["2"]
    if kind == "int":
        values.append(True)
    if kind == "float":
        values += [math.nan, math.inf]
    if FIELD_TYPES[kind][2]:
        values.append(["2"])
    return values


CASES = [
    pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")
    for cls in VALID
    for f in fields(cls)
    for value in wrong_values(f.type)
]


def test_every_config_field_type_has_a_check():
    """``check_types`` looks each field's annotation up in ``FIELD_TYPES``, so a
    field of a type it does not list would escape its type check."""
    unchecked = [f"{cls.__name__}.{f.name}: {f.type}"
                 for cls in VALID for f in fields(cls) if f.type not in FIELD_TYPES]
    assert not unchecked, f"config fields of a type FIELD_TYPES does not list: {unchecked}"


@pytest.mark.parametrize("cls, name, value", CASES)
def test_a_wrong_type_given_in_python_is_a_config_error_naming_the_field(cls, name, value):
    with pytest.raises(ConfigError, match=rf" {name} must be "):
        cls(**{**VALID[cls], name: value})


def test_synth_generate_checks_its_argument_types():
    with pytest.raises(ConfigError, match="synth noise must be a number, got '0.1'"):
        synth_generate(3, 12, 96, "0.1", 0)

