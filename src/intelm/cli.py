"""Command-line entry point: train / quantize / classify / sweep / select.

Errors are reported as a single machine-parseable key=value line on
stderr. Exit codes: 0 success, 2 missing input file, 3 input/model shape
mismatch, 4 invalid config key, 1 anything else.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from intelm import data as dat
from intelm import experiments as exp
from intelm.elm import (
    GENERATORS,
    FloatModel,
    one_hot,
    predict_float_batch,
    scores_float,
    train,
    training_residual,
)
from intelm.intinfer import QuantizedModel, classify_int_batch, int_scores
from intelm.linalg import DimensionError
from intelm.modelio import load_model, save_model
from intelm.quantize import bit_width, reduce_precision_step

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_FILE = 2
EXIT_SHAPE_MISMATCH = 3
EXIT_BAD_CONFIG = 4


class CliError(Exception):
    def __init__(self, code: int, **fields):
        self.code = code
        self.fields = fields
        super().__init__(" ".join(f"{k}={v}" for k, v in fields.items()))


def _fail_line(subcommand: str, code: int, **fields) -> None:
    parts = [f"error subcommand={subcommand}", f"code={code}"]
    parts += [f"{k}={v}" for k, v in fields.items()]
    print(" ".join(parts), file=sys.stderr)


def _data_dir() -> Path:
    return Path(os.environ.get("INTELM_DATA_DIR", "."))


def _resolve(path: str) -> Path:
    p = Path(path)
    if not p.exists():
        candidate = _data_dir() / path
        if candidate.exists():
            return candidate
        raise CliError(EXIT_MISSING_FILE, reason="missing_file", path=path)
    return p


def _check_output(path: str, force: bool) -> Path:
    p = Path(path)
    if p.exists() and not force:
        raise CliError(EXIT_ERROR, reason="output_exists", path=path, hint="pass --force")
    return p


def _load_dataset(args) -> dat.RawDataset:
    if args.images:
        if not args.labels:
            raise CliError(EXIT_ERROR, reason="labels_required_with_images")
        return dat.load_idx(_resolve(args.images), _resolve(args.labels))
    if args.csv:
        return dat.load_csv(_resolve(args.csv), args.label_column)
    raise CliError(EXIT_ERROR, reason="no_input_dataset", hint="pass --images/--labels or --csv")


def _load_inputs(args, expect_n: int) -> np.ndarray:
    path = _resolve(args.input)
    is_csv = args.format == "csv" or (args.format == "auto" and path.suffix == ".csv")
    samples = dat.load_csv_samples(path) if is_csv else dat.load_idx_images(path)
    if samples.size and samples.shape[1] != expect_n:
        raise CliError(
            EXIT_SHAPE_MISMATCH,
            reason="feature_mismatch",
            input_features=samples.shape[1],
            model_features=expect_n,
        )
    return samples


# --- subcommands -------------------------------------------------------------


def cmd_train(args) -> int:
    raw = _load_dataset(args)
    steps = [s for s in args.preprocess.split(",") if s]
    if args.train_limit:
        raw = exp._limit(raw, args.train_limit, args.seed)
    norm = dat.preprocess(raw, steps)
    W = GENERATORS[args.weight_kind](norm.n, args.L, args.seed)
    out = _check_output(args.out, args.force)
    t0 = time.perf_counter()
    model = train(
        norm.samples,
        one_hot(norm.labels, norm.class_count),
        W,
        args.gamma,
        seed=args.seed,
        weight_kind=args.weight_kind,
        metadata={"preprocessing": steps, "dataset": raw.source},
    )
    elapsed = time.perf_counter() - t0
    save_model(model, out)
    if norm.N * model.L <= 20_000_000:
        residual = f"{training_residual(model, norm.samples, one_hot(norm.labels, norm.class_count)):.3e}"
    else:
        residual = "skipped"
    print(f"trained L={model.L} gamma={model.gamma} time_s={elapsed:.2f} residual={residual} out={out}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    model = load_model(_resolve(args.model))
    if not isinstance(model, FloatModel):
        raise CliError(EXIT_ERROR, reason="already_quantized", path=args.model)
    lo, hi = (int(v) for v in args.input_range.split(","))
    out = _check_output(args.out, args.force)
    qm = exp.make_quantized(model, (lo, hi), fit_headroom=True)
    ib = qm.int_beta
    for _ in range(args.ladder_steps):
        ib = reduce_precision_step(ib)
    save_model(dataclasses.replace(qm, int_beta=ib), out)
    print(
        f"quantized tau={ib.tau:.6g} ladder_step={ib.ladder_step} "
        f"bit_width={bit_width(ib)} out={out}"
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    model = load_model(_resolve(args.model))
    samples = _load_inputs(args, model.n)
    if samples.size == 0:
        return EXIT_OK
    if isinstance(model, QuantizedModel):
        classify, score = classify_int_batch, int_scores
    else:
        samples = samples.astype(np.float64)
        classify, score = predict_float_batch, scores_float
    preds = classify(model, samples)
    if args.scores:
        for label, row_scores in zip(preds, score(model, samples)):
            print(f"{int(label)}," + ",".join(str(v) for v in row_scores))
    else:
        for label in preds:
            print(int(label))
    return EXIT_OK


def cmd_sweep(args) -> int:
    config_path = _resolve(args.config)
    try:
        raw = json.loads(config_path.read_text())
    except json.JSONDecodeError as e:
        raise CliError(EXIT_BAD_CONFIG, reason="config_parse_error", detail=str(e).replace(" ", "_"))
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.jobs is not None:
        raw["jobs"] = args.jobs
    try:
        config = exp.ExperimentConfig.from_dict(raw)
    except exp.ConfigError as e:
        raise CliError(EXIT_BAD_CONFIG, reason="invalid_config_key", key=e.key)
    out = args.out or config.out_csv
    if out is None:
        raise CliError(EXIT_BAD_CONFIG, reason="invalid_config_key", key="out_csv")
    out_path = _check_output(out, args.force)
    report = exp.run_experiment(config)
    report.to_csv(out_path)
    print(f"sweep mode={config.mode} rows={len(report.rows)} out={out_path}")
    for row in report.rows:
        if row.get("note") == "aggregate" or row.get("arm") == "delta":
            print("  " + " ".join(f"{k}={v}" for k, v in row.items() if v != ""))
    return EXIT_OK


def cmd_select(args) -> int:
    raw = _load_dataset(args)
    steps = [s for s in args.preprocess.split(",") if s]
    norm = dat.preprocess(raw, steps)
    candidates = []
    for path in args.models:
        model = load_model(_resolve(path))
        if isinstance(model, QuantizedModel):
            raise CliError(EXIT_ERROR, reason="select_requires_float_models", path=path)
        pred = predict_float_batch(model, norm.samples)
        acc = float(np.mean(pred == norm.labels))
        candidates.append((model, acc, path))
    chosen = exp.select_model([(m, a) for m, a, _ in candidates], args.threshold)
    for model, acc, path in candidates:
        marker = "*" if model is chosen else " "
        print(f"{marker} {path} val_accuracy={acc:.4f} energy={exp.beta_energy(model):.4f}")
    return EXIT_OK


# --- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="intelm", description=__doc__)
    parser.add_argument("--verbose", "-v", action="count", default=0)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_dataset_args(p):
        p.add_argument("--images", help="IDX image file")
        p.add_argument("--labels", help="IDX label file")
        p.add_argument("--csv", help="labeled CSV file")
        p.add_argument("--label-column", default="label")
        p.add_argument("--preprocess", default="l2_normalize", help="comma-separated steps")

    p = sub.add_parser("train", help="train a model in closed form")
    add_dataset_args(p)
    p.add_argument("--L", type=int, required=True, help="hidden layer size")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--weight-kind", choices=sorted(GENERATORS), default="ternary")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-limit", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("quantize", help="integer output weights from a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ladder-steps", type=int, default=0)
    p.add_argument("--input-range", default="0,255")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("classify", help="classify samples from a file")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("auto", "idx", "csv"), default="auto")
    p.add_argument("--scores", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="run an experiment config, emit CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("select", help="pick the best model from candidates")
    add_dataset_args(p)
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--threshold", type=float, default=0.95)
    p.set_defaults(func=cmd_select)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        _fail_line(args.subcommand, e.code, **e.fields)
        return e.code
    except FileNotFoundError as e:
        _fail_line(args.subcommand, EXIT_MISSING_FILE, reason="missing_file", path=e.filename)
        return EXIT_MISSING_FILE
    except DimensionError as e:
        _fail_line(args.subcommand, EXIT_SHAPE_MISMATCH, reason="shape_mismatch", detail=str(e).replace(" ", "_"))
        return EXIT_SHAPE_MISMATCH
    except exp.ConfigError as e:
        _fail_line(args.subcommand, EXIT_BAD_CONFIG, reason="invalid_config_key", key=e.key)
        return EXIT_BAD_CONFIG
    except Exception as e:  # noqa: BLE001 - single catch-all for exit-code mapping
        _fail_line(args.subcommand, EXIT_ERROR, reason=type(e).__name__, detail=str(e).replace(" ", "_"))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
