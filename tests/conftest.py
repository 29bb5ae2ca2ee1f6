"""Helpers shared by the test modules."""

import contextlib
import sys

import pytest

import tsfo.model as model_mod
from tsfo import tensor


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
