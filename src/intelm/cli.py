"""Command-line entry point: train / quantize / classify / sweep / select.

Only train takes --preprocess: a model records its steps, and classify and
select give it raw samples, to which it applies those steps itself.
Errors are reported as a single machine-parseable key=value line on
stderr. Exit codes: 0 success, 2 missing input file, 3 input/model shape
mismatch, 4 invalid config key or option value, 1 anything else, as an
output that exists (output_exists) or whose directory does not (output_dir_missing).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
    class_labels,
    one_hot,
    predict_float_batch,
    scores_float,
    train,
)
from intelm.intinfer import QuantizedModel, int_scores
from intelm.linalg import DimensionError
from intelm.modelio import load_model, save_model
from intelm.quantize import bit_width, quantize_beta

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
    if not p.parent.is_dir():
        raise CliError(EXIT_ERROR, reason="output_dir_missing", path=path)
    if p.exists() and not force:
        raise CliError(EXIT_ERROR, reason="output_exists", path=path, hint="pass --force")
    return p


def _load_dataset(args) -> dat.RawDataset:
    if args.images:
        if not args.labels:
            raise CliError(EXIT_ERROR, reason="labels_required_with_images")
        raw = dat.load_idx(_resolve(args.images), _resolve(args.labels))
    elif args.csv:
        raw = dat.load_csv(_resolve(args.csv), args.label_column)
    else:
        raise CliError(EXIT_ERROR, reason="no_input_dataset", hint="pass --images/--labels or --csv")
    return raw


def _load_inputs(args) -> np.ndarray:
    """The samples to classify; the scorers check their width (DimensionError, exit 3)."""
    path = _resolve(args.input)
    is_csv = args.format == "csv" or (args.format == "auto" and path.suffix == ".csv")
    return dat.load_csv_samples(path) if is_csv else dat.load_idx_images(path)


# --- subcommands -------------------------------------------------------------


def _check_option(ok: bool, option: str) -> None:
    """An option value outside its range exits 4 naming the option, before any work starts."""
    if not ok:
        raise CliError(EXIT_BAD_CONFIG, reason="invalid_option", option=option)


def cmd_train(args) -> int:
    _check_option(dat.in_range("L", args.L), "--L")
    _check_option(dat.in_range("gamma", args.gamma), "--gamma")
    _check_option(dat.in_range("seed", args.seed), "--seed")
    _check_option(dat.in_range("train_limit", args.train_limit), "--train-limit")
    steps = [s for s in args.preprocess.split(",") if s]
    try:
        dat.check_steps(steps)
    except ValueError:
        _check_option(False, "--preprocess")
    out = _check_output(args.out, args.force)
    raw = dat.limit_rows(_load_dataset(args), args.train_limit, args.seed)
    norm = dat.preprocess(raw, steps)
    W = GENERATORS[args.weight_kind](norm.n, args.L, args.seed)
    t0 = time.perf_counter()
    model = train(
        norm.rows,
        one_hot(norm.labels, norm.class_count),
        W,
        args.gamma,
        seed=args.seed,
        weight_kind=args.weight_kind,
        metadata={"preprocessing": steps, "dataset": raw.source},
        row_scale=norm.row_scale,
    )
    elapsed = time.perf_counter() - t0
    save_model(model, out)
    print(
        f"trained L={model.L} gamma={model.gamma} time_s={elapsed:.2f} "
        f"residual={model.solve_residual:.3e} out={out}"
    )
    return EXIT_OK


def cmd_quantize(args) -> int:
    _check_option(args.ladder_steps >= 0, "--ladder-steps")
    try:
        lo, hi = (int(v) for v in args.input_range.split(","))
    except ValueError:
        lo, hi = 1, 0  # not two integers, as invalid as lo > hi
    _check_option(lo <= hi, "--input-range")
    out = _check_output(args.out, args.force)
    model = load_model(_resolve(args.model))
    if not isinstance(model, FloatModel):
        raise CliError(EXIT_ERROR, reason="already_quantized", path=args.model)
    qm = exp.make_quantized(model, (lo, hi), fit_headroom=True)
    if args.ladder_steps:
        qm = dataclasses.replace(qm, int_beta=quantize_beta(model.beta, qm.int_beta.ladder_step + args.ladder_steps))
    save_model(qm, out)
    ib = qm.int_beta
    print(
        f"quantized tau={ib.tau:.6g} ladder_step={ib.ladder_step} "
        f"bit_width={bit_width(ib)} out={out}"
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    model = load_model(_resolve(args.model))
    samples = _load_inputs(args)
    score = int_scores if isinstance(model, QuantizedModel) else scores_float
    scores = score(model, samples)
    labels = class_labels(model, samples, scores)  # every row is checked before anything is printed
    for label, row in zip(labels.tolist(), scores.tolist()):
        print(",".join(map(str, [label, *row])) if args.scores else label)
    return EXIT_OK


def cmd_sweep(args) -> int:
    config_path = _resolve(args.config)
    try:
        raw = json.loads(config_path.read_text())
    except json.JSONDecodeError as e:
        raise CliError(EXIT_BAD_CONFIG, reason="config_parse_error", detail=str(e).replace(" ", "_"))
    config = exp.ExperimentConfig.from_dict(raw)
    overrides = {"seed": args.seed, "jobs": args.jobs}
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
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
    _check_option(dat.in_range("selection_threshold", args.threshold), "--threshold")
    raw = _load_dataset(args)
    candidates = []
    for path in args.models:
        model = load_model(_resolve(path))
        if isinstance(model, QuantizedModel):
            raise CliError(EXIT_ERROR, reason="select_requires_float_models", path=path)
        pred = predict_float_batch(model, raw.samples)
        acc = float(np.mean(pred == raw.labels))
        candidates.append((model, acc, path))
    chosen = exp.select_model([(m, a) for m, a, _ in candidates], args.threshold)
    for model, acc, path in candidates:
        marker = "*" if model is chosen else " "
        print(f"{marker} {path} val_accuracy={acc:.4f} energy={exp.beta_energy(model):.4f}")
    return EXIT_OK


# --- argument parsing --------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use and shared by every main call.

    Callers must not modify it.
    """
    parser = argparse.ArgumentParser(prog="intelm", description=__doc__)
    parser.add_argument("--verbose", "-v", action="count", default=0)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_dataset_args(p):
        p.add_argument("--images", help="IDX image file")
        p.add_argument("--labels", help="IDX label file")
        p.add_argument("--csv", help="labeled CSV file")
        p.add_argument("--label-column", default="label")

    p = sub.add_parser("train", help="train a model in closed form")
    add_dataset_args(p)
    p.add_argument("--preprocess", default="l2_normalize", help="comma-separated steps")
    p.add_argument("--L", type=int, required=True, help="hidden layer size")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--weight-kind", choices=sorted(GENERATORS), default="ternary")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-limit", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("quantize", help="integer output weights from a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ladder-steps", type=int, default=0)
    p.add_argument("--input-range", default="0,255")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("classify", help="classify samples from a file")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("auto", "idx", "csv"), default="auto")
    p.add_argument("--scores", action="store_true")

    p = sub.add_parser("sweep", help="run an experiment config, emit CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("select", help="pick the best model from candidates")
    add_dataset_args(p)
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--threshold", type=float, default=0.95)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Resolved per call, not bound into the cached parser, so a later
    # rebinding of a module-level cmd_* name takes effect.
    command = globals()[f"cmd_{args.subcommand}"]
    try:
        return command(args)
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
