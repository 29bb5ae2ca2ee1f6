"""Command-line entry point: synth, train, prune, quantize, eval, bench, report.

Every command splits its dataset as recorded in the model (``_split_rows``):
``prune`` fine-tunes and ``quantize`` calibrates on the train side, and
``eval`` scores the test side.

Exit codes: 0 success, 2 configuration errors (every flag but --patch-size is
checked before a file is read), 3 data/input errors, 4 compute errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .bench import calibration_rows, emit_report, experiment_config, load_reports, run_experiment
from .data import check_train_fraction, normalize_dataset, subject_wise_split, synth_generate
from .errors import CalibrationError, ConfigError, InputError, ParseError, TsfoError
from .model import TransformerModel, build_model, preset_config
from .pruning import PruneSpec, prune_structured, prune_unstructured
from .quantization import QuantizedModel, calibrate, quantize_dynamic, quantize_static
from .serialize import load_any_dataset, load_kind, save_dataset, save_model, save_quantized
from .training import FINE_TUNE_LR, TrainConfig, evaluate, fit, history_to_csv, train

log = logging.getLogger("tsfo")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4


def _split_rows(path, split):
    """(train, test) sides of the dataset at ``path``, split as recorded in a model.

    ``split`` is a model's ``{"train_fraction", "seed"}``; a model without
    one gets fraction 0.7 and seed 0, the ``train`` defaults. Subject ids or
    a predefined archive split take precedence (``data.subject_wise_split``).
    """
    dataset = normalize_dataset(load_any_dataset(path))
    return subject_wise_split(dataset, **(split or {"train_fraction": 0.7, "seed": 0}))


def _cmd_synth(args) -> int:
    ds = synth_generate(args.classes, args.per_class, args.length, args.noise, args.seed)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {len(ds)} instances, {ds.num_classes} classes, T={ds.seq_len}")
    return EXIT_OK


def _cmd_train(args) -> int:
    if args.epochs < 1:
        raise ConfigError(f"--epochs must be >= 1, got {args.epochs}")
    train_cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, seed=args.seed)
    check_train_fraction(args.train_fraction)
    split = {"train_fraction": args.train_fraction, "seed": args.seed}
    train_ds, val_ds = _split_rows(args.data, split)
    cfg = preset_config(
        args.preset,
        seq_len=train_ds.seq_len,
        num_classes=train_ds.num_classes,
        in_channels=train_ds.channels,
        patch_size=args.patch_size,
    )
    model = build_model(cfg, args.seed)
    model.split = split
    model, history = train(model, train_ds, train_cfg, val_dataset=val_ds)
    os.makedirs(args.out, exist_ok=True)
    model_path = os.path.join(args.out, "model.tsfo")
    save_model(model, model_path)
    history_to_csv(history, os.path.join(args.out, "history.csv"))
    print(f"wrote {model_path}; final val_acc={history[-1]['val_acc']:.4f}")
    return EXIT_OK


def _cmd_prune(args) -> int:
    spec = PruneSpec(args.method, args.granularity, args.scope, args.sparsity)
    ft_cfg = TrainConfig(epochs=args.fine_tune_epochs, lr_max=FINE_TUNE_LR, seed=args.seed)
    if args.fine_tune_epochs and not args.data:
        raise InputError("fine-tuning needs --data to train on")
    model = load_kind(args.model, TransformerModel)
    prune = prune_unstructured if args.granularity == "weight" else prune_structured
    model, report = prune(model, spec)
    if args.fine_tune_epochs:
        train_ds, _ = _split_rows(args.data, model.split)
        model = fit(model, train_ds, ft_cfg)
    save_model(model, args.out)
    report_path = args.out + ".prune.json"
    with open(report_path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    print(f"wrote {args.out} and {report_path}")
    return EXIT_OK


def _cmd_quantize(args) -> int:
    if args.calibration_size < 1:
        raise ConfigError(f"--calibration-size must be >= 1, got {args.calibration_size}")
    if args.mode == "static" and not args.data:
        raise InputError("static quantization needs --data for calibration")
    model = load_kind(args.model, TransformerModel)
    if args.mode == "static":
        train_ds, _ = _split_rows(args.data, model.split)
        observers = calibrate(model, calibration_rows(train_ds, args.calibration_size))
        qmodel = quantize_static(model, observers)
    else:
        qmodel = quantize_dynamic(model)
    save_quantized(qmodel, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    obj = load_kind(args.model, TransformerModel, QuantizedModel)
    _, test_ds = _split_rows(args.data, obj.split)
    acc = evaluate(obj, test_ds)
    print(f"accuracy: {acc:.4f} ({len(test_ds)} instances, the test side of its split)")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"accuracy": acc, "instances": len(test_ds), "split": "test"}, fh)
    return EXIT_OK


def _parse_opt(values) -> list[list[str]]:
    return [v.split(",") for v in values]


def _cmd_bench(args) -> int:
    raw = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ConfigError(f"{args.config} is not valid UTF-8 JSON: {exc}") from exc
    overrides = {
        "seed": args.seed,
        "runs": args.runs,
        "preset": args.preset,
        "sparsity": args.sparsity,
        "optimizations": _parse_opt(args.opt) if args.opt else None,
        "out": args.out,
    }
    if isinstance(raw, dict):  # experiment_config rejects any other JSON value
        raw.update({k: v for k, v in overrides.items() if v is not None})
    config = experiment_config(raw)
    reports = [report.to_dict() for report in run_experiment(config)]
    written = []
    for fmt in ("json", "csv", "markdown"):
        written += emit_report(reports, fmt, config.out_dir)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    for path in emit_report(load_reports(args.reports), args.format, args.out):
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsfo",
        description="Transformer compression and benchmarking toolkit for time series classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset container")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--per-class", type=int, default=40)
    p.add_argument("--length", type=int, default=96)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--preset", default="T1", choices=["T1", "T2"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--patch-size", type=int, help="default: 16 from length 512 on, else 8")
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("prune", help="prune a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--method", default="l1", choices=["l1", "l2"])
    p.add_argument("--granularity", default="weight", choices=["weight", "neuron", "head"])
    p.add_argument("--scope", default="global", choices=["global", "layerwise"])
    p.add_argument("--sparsity", type=float, default=0.4)
    p.add_argument("--data", help="dataset for optional fine-tuning")
    p.add_argument("--fine-tune-epochs", type=int, default=0)
    p.add_argument("--seed", type=int, default=0, help="seed of fine-tuning")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("quantize", help="quantize a saved model to int8")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", default="static", choices=["static", "dynamic"])
    p.add_argument("--data", help="calibration dataset (static mode)")
    p.add_argument("--calibration-size", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("eval", help="evaluate a saved (possibly quantized) model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="run the full benchmark harness")
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--seed", type=int)
    p.add_argument("--runs", type=int)
    p.add_argument("--preset", choices=["T1", "T2", "custom"])
    p.add_argument("--sparsity", type=float)
    p.add_argument("--opt", action="append", help="pipeline, comma-separated ops; repeatable")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("report", help="re-emit saved reports in another format")
    p.add_argument("--reports", required=True, help="reports.json from a bench run")
    p.add_argument("--format", default="markdown", choices=["json", "csv", "markdown"])
    p.add_argument("--out", default="results")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except (ParseError, InputError, FileNotFoundError) as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except (CalibrationError, TsfoError) as exc:
        log.error("compute error: %s", exc)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
