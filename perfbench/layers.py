"""Per-layer metrics derived from a traced run.

Names are ``<module>.<function>.<statistic>`` for the ``tsfo`` function of
that name. Statistics:

- ``calls`` and ``self_ms``: calls and self time per request of the traced
  loop; set-up is not included.
- ``total_ms``: inclusive time per request where the loop calls the
  function, otherwise per set-up.
- ``gflops`` and ``mb``: work computed from operand shapes (``spans.WORK``),
  over the function's time, or per request. They are computed, not counted
  by hardware.

``model.gflops`` is the FLOPs of every ``model.forward_batch`` call (from
``flop_breakdown``) over its inclusive time; ``serialize.bytes`` is the size
of the files written per set-up. ``trace.overhead_pct`` compares the same
request sequence traced and untraced; ``trace.coverage_pct`` is the sum of
all self times over the traced loop's wall time.
"""

from __future__ import annotations

import numpy as np

# (metric, unit, better); BENCHMARK.json lists the same metrics.
PER_LAYER = [
    ("tensor.int8_matmul.calls", "calls/op", "lower"),
    ("tensor.int8_matmul.self_ms", "ms/op", "lower"),
    ("tensor.int8_matmul.gflops", "GFLOP/s", "higher"),
    ("tensor.int8_matmul.mb", "MB/op", "lower"),
    ("tensor.quantize_linear.calls", "calls/op", "lower"),
    ("tensor.quantize_linear.self_ms", "ms/op", "lower"),
    ("tensor.round_half_away.self_ms", "ms/op", "lower"),
    ("tensor.dequantize_linear.calls", "calls/op", "lower"),
    ("tensor.dequantize_linear.self_ms", "ms/op", "lower"),
    ("tensor.layer_norm.self_ms", "ms/op", "lower"),
    ("tensor.softmax.self_ms", "ms/op", "lower"),
    ("tensor.relu.self_ms", "ms/op", "lower"),
    ("tensor.im2col_batch.self_ms", "ms/op", "lower"),
    ("quantization.quantized_forward_batch.self_ms", "ms/op", "lower"),
    ("model.forward_batch.self_ms", "ms/op", "lower"),
    ("model.multi_head_attention.self_ms", "ms/op", "lower"),
    ("model.gflops", "GFLOP/s", "higher"),
    ("training.loss_and_grads.calls", "calls/op", "lower"),
    ("training.loss_and_grads.self_ms", "ms/op", "lower"),
    ("training.adam_step.self_ms", "ms/op", "lower"),
    ("training.clip_global_norm.self_ms", "ms/op", "lower"),
    ("training.train.total_ms", "ms", "lower"),
    ("training.evaluate.total_ms", "ms", "lower"),
    ("bench.measure_inference_seconds.total_ms", "ms", "lower"),
    ("quantization.calibrate.total_ms", "ms", "lower"),
    ("quantization.quantize_static.total_ms", "ms", "lower"),
    ("quantization.quantize_dynamic.total_ms", "ms", "lower"),
    ("pruning.prune_structured.total_ms", "ms", "lower"),
    ("pruning.prune_unstructured.total_ms", "ms", "lower"),
    ("serialize.save_model.total_ms", "ms", "lower"),
    ("serialize.save_quantized.total_ms", "ms", "lower"),
    ("serialize.save_dataset.total_ms", "ms", "lower"),
    ("serialize.load.total_ms", "ms", "lower"),
    ("serialize.bytes", "bytes", "lower"),
    ("data.synth_generate.total_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_pct", "%", "higher"),
]

# Below this share of the loop's wall time in spans, the per-layer
# numbers would leave too much unexplained to be trusted.
MIN_COVERAGE_PCT = 95.0

_ZERO = {"calls": 0, "self_s": 0.0, "total_s": 0.0}


def per_layer(tracer, untraced: dict, traced: dict) -> tuple[dict, dict]:
    """(metric -> (value, unit), summary) for a traced run."""
    loop = tracer.totals("loop")
    setup = tracer.totals("setup")
    ops = max(traced["attempted"], 1)

    def work(name, key, phase="loop"):
        return tracer.work.get((name, phase), {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    n = min(len(untraced["in_order"]), len(traced["in_order"]))
    base = sum(untraced["in_order"][:n])
    overhead = 100.0 * (ratio(sum(traced["in_order"][:n]), base) - 1.0) if n else 0.0
    coverage = 100.0 * ratio(tracer.self_seconds("loop"), traced["wall_s"])

    values = {}
    for metric, unit, _ in PER_LAYER:
        if metric == "trace.overhead_pct":
            value = overhead
        elif metric == "trace.coverage_pct":
            value = coverage
        elif metric == "model.gflops":
            fwd = loop.get("model.forward_batch", _ZERO)
            value = ratio(work("model.forward_batch", "flops"), fwd["total_s"]) / 1e9
        elif metric == "serialize.bytes":
            value = sum(work(name, "bytes", "setup") for name, _ in tracer.work if name.startswith("serialize."))
        else:
            fn, _, stat = metric.rpartition(".")
            in_loop = loop.get(fn, _ZERO)
            if stat == "calls":
                value = in_loop["calls"] / ops
            elif stat == "self_ms":
                value = in_loop["self_s"] * 1e3 / ops
            elif stat == "total_ms":
                if in_loop["calls"]:
                    value = in_loop["total_s"] * 1e3 / ops
                else:
                    value = setup.get(fn, _ZERO)["total_s"] * 1e3
            elif stat == "gflops":
                value = ratio(work(fn, "flops"), in_loop["self_s"]) / 1e9
            elif stat == "mb":
                value = work(fn, "bytes") / ops / 1e6
            else:
                raise ValueError(f"unknown statistic in {metric}")
        values[metric] = (float(value), unit)

    top = sorted(loop.items(), key=lambda kv: -kv[1]["self_s"])[:12]
    summary = {
        "ops": traced["attempted"],
        "spans": len(tracer.start),
        "overhead_pct": overhead,
        "coverage_pct": coverage,
        "coverage_ok": coverage >= MIN_COVERAGE_PCT,
        "top_self_ms_per_op": {name: t["self_s"] * 1e3 / ops for name, t in top},
        "self_share_pct_by_variant": shares_by_variant(tracer),
    }
    return values, summary


def shares_by_variant(tracer, top: int = 10) -> dict:
    """Per variant: each function's self time as a share of the request time.

    A request is an ``op.<variant>`` span; the spans below it carry its op id.
    """
    a = tracer.arrays()
    names = tracer.names
    request_ids = {i for i, name in enumerate(names) if name.startswith("op.")}
    outside = [i for i, name in enumerate(names) if name in ("reference", "oracle")]
    is_request = np.isin(a["name_id"], list(request_ids)) & (a["parent"] < 0)
    out = {}
    for nid in sorted(request_ids, key=lambda i: names[i]):
        mine = is_request & (a["name_id"] == nid)
        below = np.isin(a["op"], a["op"][mine]) & ~np.isin(a["name_id"], outside)
        total = a["dur"][mine].sum()
        self_by_name = np.bincount(a["name_id"][below], weights=a["self"][below], minlength=len(names))
        order = np.argsort(-self_by_name)[:top]
        out[names[nid][3:]] = {
            names[i]: 100.0 * self_by_name[i] / total for i in order if self_by_name[i] > 0
        }
    return out
