"""Span tracing from outside the program.

``Tracer.install`` wraps every public function of the traced ``tsfo``
modules and rebinds the wrapper wherever a ``tsfo`` module holds the
original (``from .tensor import softmax`` copies the reference, so each
importing module is patched too). ``uninstall`` puts the originals back.

Each span records its name, start, end, parent span and op id in flat
arrays that stay in memory until ``save``. Op id -1 marks set-up. Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import array
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

TRACED_MODULES = (
    "tensor", "model", "quantization", "pruning", "training", "bench", "serialize", "data",
)
SETUP_OP = -1


def _int8_matmul_work(args, originals):
    a, b = args[0], args[1]
    m, k = a.data.shape
    n = b.data.shape[1]
    # operand payloads are int8, the product is returned as float32
    return {"flops": 2.0 * m * k * n, "bytes": m * k + k * n + 4.0 * m * n}


def _forward_work(args, originals):
    model, xs = args[0], args[1]
    flops = originals["model.flop_breakdown"](model.config)["total"]
    return {"flops": float(flops) * len(xs)}


def _saved_bytes(args, originals):
    return {"bytes": float(os.path.getsize(args[1]))}


# Work counted at a boundary, computed from the call's arguments.
WORK = {
    "tensor.int8_matmul": _int8_matmul_work,
    "model.forward_batch": _forward_work,
    "serialize.save_model": _saved_bytes,
    "serialize.save_quantized": _saved_bytes,
    "serialize.save_dataset": _saved_bytes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[int] = []
        self.current_op = SETUP_OP
        # (name, phase) -> {"flops": .., "bytes": ..}; phase is "setup" or "loop"
        self.work: dict[tuple[str, str], dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself, around a call it makes."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        work = WORK.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if work is not None:
                phase = "setup" if tracer.current_op == SETUP_OP else "loop"
                for key, value in work(args, tracer._originals).items():
                    tracer.work[(name, phase)][key] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Rebind every public function of the traced modules to a wrapper."""
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"tsfo.{short}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                self._originals[name] = obj
                wrappers[id(obj)] = self._wrap(name, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "tsfo" and not modname.startswith("tsfo."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ----- analysis -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def totals(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and inclusive seconds in a phase.

        Inclusive time counts only the outermost span of a name, so a
        function that calls itself is not counted twice.
        """
        a = self.arrays()
        in_phase = (a["op"] == SETUP_OP) if phase == "setup" else (a["op"] != SETUP_OP)
        outermost = np.ones(len(a["dur"]), dtype=bool)
        has_parent = a["parent"] >= 0
        outermost[has_parent] = a["name_id"][a["parent"][has_parent]] != a["name_id"][has_parent]
        k = len(self.names)
        ids = a["name_id"][in_phase]
        calls = np.bincount(ids, minlength=k)
        self_s = np.bincount(ids, weights=a["self"][in_phase], minlength=k)
        incl = np.bincount(
            a["name_id"][in_phase & outermost], weights=a["dur"][in_phase & outermost], minlength=k
        )
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(incl[i])}
            for i, name in enumerate(self.names)
        }

    def self_seconds(self, phase: str) -> float:
        a = self.arrays()
        in_phase = (a["op"] == SETUP_OP) if phase == "setup" else (a["op"] != SETUP_OP)
        return float(a["self"][in_phase].sum())

    def save(self, path_stem: str) -> None:
        """Write the spans (.npz) and the span-name table (.json)."""
        a = self.arrays()
        np.savez(path_stem + ".npz", **{k: a[k] for k in ("name_id", "parent", "op", "start", "end")})
        with open(path_stem + ".json", "w") as fh:
            json.dump({"names": self.names}, fh)
