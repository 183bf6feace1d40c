"""Evaluation harness: model selection, accuracy sweeps, CSV reports.

Three experiment modes, each run at every hidden size L of the config's
L_list: continuous-vs-ternary weight comparison, bit-precision sweeps over
the output weight ladder, and the original float pipeline against the
integer-only pipeline with the 80/20 selection protocol.
Every evaluation, float or integer, scores raw samples, to which each
model applies its own recorded preprocessing (data.integer_rows).
"""

from __future__ import annotations

import csv
import inspect
import sys
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from intelm import data as dat
from intelm.elm import GENERATORS, INTEGER_WEIGHT_KINDS, FloatModel, one_hot, predict_float_batch, train
from intelm.intinfer import QuantizedModel, classify_int_batch, output_beta_limit
from intelm.modelio import BETA_STORAGE_MAX
from intelm.quantize import bit_width, precision_ladder, quantize_beta, reduce_precision_step
from intelm.seeding import split_seed

REPORT_COLUMNS = [
    "dataset",
    "arm",
    "L",
    "seed",
    "val_accuracy",
    "test_accuracy",
    "accuracy_delta",
    "beta_energy",
    "bit_width",
    "agreement_with_float",
    "summary",
    "note",
]

# The required and the optional keys of each dataset kind, each with the JSON type it takes.
DATASET_KEYS = {
    "textures": ({}, dict.fromkeys(("patch_size", "count", "seed", "size"), int)),
    "mnist": (dict.fromkeys(("train_images", "train_labels", "test_images", "test_labels"), str), {}),
    "cifar10": (dict.fromkeys(("train_batches", "test_batches"), list[str]), {"class_filter": tuple[str, str]}),
    "csv": ({"train_path": str, "test_path": str}, {"label_column": str}),
}
DATASET_KINDS = tuple(DATASET_KEYS)

# Defaults mirror the published protocol at desk scale; counts are
# configurable up to the original values (96 models, 50 pairs).
DEFAULT_MODELS_PER_L = 8
DEFAULT_PAIRS = 50

PAIR_COUNT_NOTE = (
    "weight-comparison pair count: the source protocol states both 100 and 50 "
    "repetitions in different places; default here is 50 and the count is configurable"
)


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(message)


# The range of each parameter, shared by the config keys, the dataset keys
# and the CLI options. A seed is stored as u64 in model files; gamma
# compares as is, so a JSON integer beyond float64 is refused, not cast.
RANGES = {
    **dict.fromkeys(("L", "models_per_L", "pairs", "jobs", "count", "patch_size", "train_limit"),
                    (lambda v: v >= 1, ">= 1")),
    "seed": (lambda v: 0 <= v < 2**64, "in [0, 2**64)"),
    "gamma": (lambda v: 0 < v <= sys.float_info.max, "finite and > 0"),
    "selection_threshold": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "split_fraction": (lambda v: 0 < v < 1, "in (0, 1)"),
    "class_filter": (lambda v: v[0] != v[1] and set(v) <= set(dat.CIFAR10_CLASSES), "two different CIFAR-10 classes"),
}


def in_range(param: str, value) -> bool:
    """Whether value lies in param's range; an absent (None) value always does."""
    return value is None or RANGES[param][0](value)


def _check_range(key: str, param: str, value) -> None:
    if not in_range(param, value):
        raise ConfigError(key, f"{key} must be {RANGES[param][1]}, got {value}")


@dataclass
class ExperimentConfig:
    mode: str
    dataset: dict
    L_list: list[int] = field(default_factory=lambda: [100])
    models_per_L: int = DEFAULT_MODELS_PER_L
    pairs: int = DEFAULT_PAIRS
    gamma: float = 1.0
    seed: int = 0
    selection_threshold: float = 0.95
    split_fraction: float = 0.8
    train_limit: int | None = None
    jobs: int = 1
    out_csv: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError("mode", f"invalid config key mode={self.mode!r}; one of {tuple(MODES)}")
        if not self.L_list or sorted(set(self.L_list)) != list(self.L_list):
            raise ConfigError("L_list", f"L_list must be nonempty strictly ascending, got {self.L_list}")
        for L in self.L_list:
            _check_range("L_list", "L", L)
        for f in fields(self):
            if f.name in RANGES:
                _check_range(f.name, f.name, getattr(self, f.name))
        kind = self.dataset.get("kind")
        if kind not in DATASET_KINDS:
            raise ConfigError("dataset.kind", f"unknown dataset kind {kind!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """A config from parsed JSON, whose keys _check_keys walks with mode and dataset required."""
        if not isinstance(raw, dict):
            raise ConfigError("config", f"config is a JSON {type(raw).__name__}, not an object")
        hints = typing.get_type_hints(cls)
        _check_keys(raw, required={key: hints.pop(key) for key in ("mode", "dataset")}, optional=hints)
        return cls(**raw)


def _json_types(hint) -> tuple[type, ...]:
    """The JSON value types a field annotation admits: int where it says float, None if optional."""
    options = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    admitted = tuple(typing.get_origin(t) or t for t in options)
    return admitted + (int,) if float in admitted else admitted


def _has_json_type(value, hint) -> bool:
    """Whether value fits hint: _json_types, with no bool a number; tuple[T, T] is a JSON list of two."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        return isinstance(value, list) and len(value) == len(args) and all(map(_has_json_type, value, args))
    if isinstance(value, bool) or not isinstance(value, _json_types(hint)):
        return False
    return origin is not list or all(_has_json_type(v, args[0]) for v in value)


@dataclass
class SweepReport:
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **kwargs) -> None:
        unknown = set(kwargs) - set(REPORT_COLUMNS)
        if unknown:
            raise ValueError(f"unknown report columns: {sorted(unknown)}")
        self.rows.append({c: kwargs.get(c, "") for c in REPORT_COLUMNS})

    def sort(self) -> None:
        """By dataset, arm and L, then widest bit width first, then seed."""
        self.rows.sort(
            key=lambda r: (str(r["dataset"]), str(r["arm"]), _num(r["L"]), -_num(r["bit_width"]), _num(r["seed"]))
        )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            for note in self.notes:
                fh.write(f"# {note}\n")
            writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
            writer.writeheader()
            writer.writerows(self.rows)


def _num(v):
    try:
        return float(v)
    except (TypeError, ValueError):
        return -1.0


# --- dataset resolution ------------------------------------------------------


def resolve_dataset(config: ExperimentConfig) -> tuple[dat.RawDataset, dat.RawDataset, list[str]]:
    """Build (train_raw, test_raw, preprocessing steps) from config.dataset, train_raw cut to config.train_limit."""
    spec = dict(config.dataset)
    kind = spec.pop("kind")
    default_steps = ["zero_mean", "l2_normalize"] if kind == "mnist" else ["l2_normalize"]
    steps = spec.pop("preprocessing", default_steps)
    try:
        steps = list(dat.check_steps(steps))
    except ValueError as e:
        raise ConfigError("dataset.preprocessing", str(e)) from None
    _check_keys(spec, *DATASET_KEYS[kind], prefix="dataset.")
    if kind == "textures":
        used = inspect.signature(dat.synthetic_textures).bind(**spec)
        used.apply_defaults()
        size, patch_size = used.arguments["size"], used.arguments["patch_size"]
        if size < 2 * patch_size:  # each half of the image must fit one patch
            raise ConfigError("dataset.size", f"dataset.size must be >= 2 * patch_size, got {size}")
        train_raw, test_raw = dat.synthetic_textures(**spec)
    elif kind == "mnist":
        train_raw = dat.load_idx(spec["train_images"], spec["train_labels"])
        test_raw = dat.load_idx(spec["test_images"], spec["test_labels"])
    elif kind == "cifar10":
        class_filter = tuple(spec["class_filter"]) if "class_filter" in spec else None
        train_raw = dat.load_cifar10(spec["train_batches"], class_filter)
        test_raw = dat.load_cifar10(spec["test_batches"], class_filter)
    else:
        label_column = spec.get("label_column", "label")
        train_raw = dat.load_csv(spec["train_path"], label_column)
        test_raw = dat.load_csv(spec["test_path"], label_column)
    train_raw = dat.limit_rows(train_raw, config.train_limit, config.seed)
    train_raw.check_all_classes_present()
    test_raw.check_all_classes_present()
    return train_raw, test_raw, steps


def _check_keys(obj: dict, required: dict, optional: dict, prefix: str = "") -> None:
    """Name prefix + the first key that is unknown, of the wrong type or out of RANGES, then the first missing one."""
    for key, value in obj.items():
        name = f"{prefix}{key}"
        hint = required.get(key, optional.get(key))
        if hint is None:
            raise ConfigError(name, f"invalid config key {name}")
        if not _has_json_type(value, hint):
            raise ConfigError(name, f"config key {name} has the wrong type: {value!r}")
        if key in RANGES:
            _check_range(name, key, value)
    for key in required:
        if key not in obj:
            raise ConfigError(f"{prefix}{key}", f"missing required config key {prefix}{key}")


# --- model selection ---------------------------------------------------------


def beta_energy(model: FloatModel) -> float:
    """Frobenius norm of the output weights (the selection tiebreaker)."""
    return float(np.linalg.norm(model.beta))


def select_model(candidates, threshold: float = 0.95):
    """Pick the lowest-energy model among those within threshold of the best.

    candidates: iterable of (model, val_accuracy). Ties on energy break by
    lowest seed, so the result is independent of candidate order.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("no candidate models to select from")
    best = max(acc for _, acc in candidates)
    kept = [(m, acc) for m, acc in candidates if acc >= threshold * best]
    return min(kept, key=lambda pair: (beta_energy(pair[0]), pair[0].seed))[0]


# --- shared pipeline pieces --------------------------------------------------


def _accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(pred == labels))


def make_quantized(
    model: FloatModel, input_range: tuple[int, int], fit_headroom: bool = False
) -> QuantizedModel:
    """Quantize a ternary-weight model's beta into the integer-only pipeline.

    With fit_headroom, the precision ladder is climbed until max |v| fits
    the 64-bit output accumulator and the file's 32-bit beta storage; a
    near-zero beta entry can otherwise make min-magnitude scaling explode it.
    """
    if model.weight_kind not in INTEGER_WEIGHT_KINDS:
        raise ValueError(f"integer path needs ternary weights, model has {model.weight_kind}")
    meta = dict(model.metadata)
    meta["gamma"] = model.gamma
    meta["prng_id"] = model.prng_id
    ib = quantize_beta(model.beta)
    if fit_headroom:
        centred = "zero_mean" in model.steps
        limit = min(output_beta_limit(model.n, model.L, input_range, centred), BETA_STORAGE_MAX)
        while ib.max_abs > max(1, limit):
            ib = reduce_precision_step(ib)
    return QuantizedModel(
        ternary_weights=model.input_weights,
        int_beta=ib,
        input_range=input_range,
        seed=model.seed,
        metadata=meta,
    )


def _train_one(
    train_norm: dat.NormalizedDataset, kind: str, L: int, gamma: float, seed: int
) -> FloatModel:
    W = GENERATORS[kind](train_norm.n, L, seed)
    targets = one_hot(train_norm.labels, train_norm.class_count)
    return train(
        train_norm.rows,
        targets,
        W,
        gamma,
        seed=seed,
        weight_kind=kind,
        metadata={"preprocessing": train_norm.preprocessing, "dataset": train_norm.source},
        row_scale=train_norm.row_scale,
    )


# --- experiment modes --------------------------------------------------------
# A mode prepares its training data once per sweep and returns the function
# that runs it at one hidden size L; run_experiment calls that function at
# each L of L_list and adds its rows with the dataset name and L.


def run_bit_sweep(model: FloatModel, test_raw: dat.RawDataset) -> SweepReport:
    """Accuracy at every rung of the output-weight precision ladder.

    The ladder starts at the first rung that fits the headroom and the
    beta storage. Rows are ordered by descending bit width;
    agreement_with_float counts the fraction of test samples where the
    rung's integer prediction matches the float model's prediction.
    """
    report = SweepReport()
    float_pred = predict_float_batch(model, test_raw.samples)
    base = make_quantized(model, test_raw.value_range, fit_headroom=True)
    for rung in precision_ladder(base.int_beta):
        pred = classify_int_batch(replace(base, int_beta=rung), test_raw.samples)
        report.add(
            dataset=test_raw.source,
            arm="proposed",
            L=model.L,
            seed=model.seed,
            test_accuracy=_accuracy(pred, test_raw.labels),
            bit_width=bit_width(rung),
            agreement_with_float=_accuracy(pred, float_pred),
            note=f"ladder_step={rung.ladder_step}",
        )
    return report


def _weight_comparison(config: ExperimentConfig, train_raw, test_raw, steps, notes: list[str]):
    """Continuous vs ternary input weights: config.pairs independent
    (continuous, ternary) pairs, per-pair test accuracies plus one
    aggregate mean/sd row per arm."""
    train_norm = dat.preprocess(train_raw, steps)
    notes.append(PAIR_COUNT_NOTE)
    seeds = split_seed(config.seed, config.pairs * 2)
    tasks = list(zip(("continuous", "ternary") * config.pairs, seeds))  # (kind, seed), pair by pair

    def at(L: int) -> list[dict]:
        notes.append(f"pairs={config.pairs} L={L}")

        def job(task):
            kind, seed = task
            model = _train_one(train_norm, kind, L, config.gamma, seed)
            return _accuracy(predict_float_batch(model, test_raw.samples), test_raw.labels)

        accs = _run_pool(job, tasks, config.jobs)
        rows = [dict(arm=kind, seed=seed, test_accuracy=acc) for (kind, seed), acc in zip(tasks, accs)]
        for arm in ("continuous", "ternary"):
            arm_accs = [acc for (kind, _), acc in zip(tasks, accs) if kind == arm]
            mean = float(np.mean(arm_accs))
            sd = float(np.std(arm_accs, ddof=1)) if len(arm_accs) > 1 else 0.0
            summary = f"{100 * mean:.2f} ({100 * sd:.2f})"
            rows.append(dict(arm=arm, test_accuracy=mean, summary=summary, note="aggregate"))
        return rows

    return at


def _bit_sweep(config: ExperimentConfig, train_raw, test_raw, steps, notes: list[str]):
    """run_bit_sweep on each of config.models_per_L ternary classifiers."""
    train_norm = dat.preprocess(train_raw, steps)
    seeds = split_seed(config.seed, config.models_per_L)

    def at(L: int) -> list[dict]:
        notes.append(f"bit sweep: {config.models_per_L} classifiers, L={L}")

        def job(seed):
            return run_bit_sweep(_train_one(train_norm, "ternary", L, config.gamma, seed), test_raw).rows

        return [row for rows in _run_pool(job, seeds, config.jobs) for row in rows]

    return at


def _predict(model: FloatModel, raw: dat.RawDataset, integer: bool):
    """Labels of raw's samples from the integer pipeline or the float model, and the QuantizedModel or None."""
    if not integer:
        return predict_float_batch(model, raw.samples), None
    qm = make_quantized(model, raw.value_range, fit_headroom=True)
    return classify_int_batch(qm, raw.samples), qm


def _size_sweep(config: ExperimentConfig, train_raw, test_raw, steps, notes: list[str]):
    """Original (continuous W, float beta) vs proposed (ternary W, integer
    beta) with the 80/20 selection protocol, plus their accuracy delta.

    A failing arm becomes an error row and the sweep continues.
    """
    notes.append(f"selection: threshold={config.selection_threshold}, models_per_L={config.models_per_L}")
    split_seeds = split_seed(config.seed, 2)
    fit_raw, val_raw = dat.split_train_val(train_raw, config.split_fraction, split_seeds[0])
    fit_norm = dat.preprocess(fit_raw, steps)

    def at(L: int) -> list[dict]:
        cand_seeds = split_seed(split_seeds[1] + L, config.models_per_L)
        rows = []
        for arm, kind, integer in (("original", "continuous", False), ("proposed", "ternary", True)):
            try:
                def job(seed):
                    model = _train_one(fit_norm, kind, L, config.gamma, seed)
                    return model, _accuracy(_predict(model, val_raw, integer)[0], val_raw.labels)

                candidates = _run_pool(job, cand_seeds, config.jobs)
                chosen = select_model(candidates, config.selection_threshold)
                pred, qm = _predict(chosen, test_raw, integer)
                row = dict(
                    arm=arm,
                    seed=chosen.seed,
                    val_accuracy=dict((m.seed, a) for m, a in candidates)[chosen.seed],
                    beta_energy=beta_energy(chosen),
                    test_accuracy=_accuracy(pred, test_raw.labels),
                )
                if qm is not None:
                    row["bit_width"] = bit_width(qm.int_beta)
                    row["agreement_with_float"] = _accuracy(pred, _predict(chosen, test_raw, False)[0])
                rows.append(row)
            except Exception as exc:  # noqa: BLE001 - error rows keep the sweep alive
                rows.append(dict(arm=arm, note=f"error: {exc}"))
        accs = [row["test_accuracy"] for row in rows if "test_accuracy" in row]
        if len(accs) == 2:
            rows.append(dict(arm="delta", accuracy_delta=accs[0] - accs[1]))
        return rows

    return at


MODES = {"size_sweep": _size_sweep, "bit_sweep": _bit_sweep, "weight_comparison": _weight_comparison}


def run_experiment(config: ExperimentConfig) -> SweepReport:
    """Run config.mode at each L of config.L_list, on one resolved dataset."""
    train_raw, test_raw, steps = resolve_dataset(config)
    report = SweepReport()
    at = MODES[config.mode](config, train_raw, test_raw, steps, report.notes)
    for L in config.L_list:
        for row in at(L):
            report.add(**{**row, "dataset": train_raw.source, "L": L})
    report.sort()
    return report


def _run_pool(fn, tasks, jobs: int):
    if jobs <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))
