"""Helpers shared by the test modules."""

import sys


def count_calls(fn, *args, **kwargs):
    """Python and C function calls made by ``fn(*args, **kwargs)``.

    ``fn`` runs once first, so caches and lazy imports are warm, and the
    calls of the second run are counted: the fixed per-call cost of a warm
    model, which the call budgets bound.
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
