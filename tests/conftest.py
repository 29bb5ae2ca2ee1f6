"""Helpers shared by the test modules."""

import contextlib
import sys

import numpy as np
import pytest

import tsfo.model as model_mod
from tsfo import tensor
from tsfo.tensor import seeded_rng


def count_calls(fn, *args, **kwargs):
    """Python and C function calls made by ``fn(*args, **kwargs)``.

    ``fn`` runs once first, so caches and lazy imports are warm, and the
    calls of the second run are counted: the fixed per-call cost of a warm
    model, which the call budgets bound. The profiler reports calls of Python
    functions and of builtin functions, not of ufuncs or ``lru_cache``
    wrappers, so a typed constant in place of a Python scalar counts nothing.
    """
    fn(*args, **kwargs)
    events = []

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            events.append(event)

    sys.setprofile(count)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return len(events)


@contextlib.contextmanager
def python_scalars():
    """Run the kernels on the Python scalars they read before their typed 0-d
    constants: ``tensor.constant``, which ``compile_linear`` also calls, returns
    the plain value, as the literal or Python number it replaced."""
    def plain(value, dtype):
        return value

    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((tensor, "constant"), (model_mod, "constant")):
            patch.setattr(module, name, plain)
        yield


def with_random_vectors(model, seed):
    """``model`` with every 1-D parameter drawn at random, so that each bias and
    norm vector differs from column to column and from every other one."""
    rng = seeded_rng(seed)
    for name, v in model.params.items():
        if v.ndim == 1:
            centre = 1.0 if name.endswith(".gamma") else 0.0
            model.params[name] = rng.normal(centre, 0.2, size=v.shape).astype(np.float32)
    return model
