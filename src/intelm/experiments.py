"""Evaluation harness: model selection, accuracy sweeps, CSV reports.

Three experiment modes are supported: continuous-vs-ternary weight
comparison at fixed hidden size, bit-precision sweeps over the output
weight ladder, and hidden-size sweeps comparing the original float
pipeline against the integer-only pipeline with the 80/20 selection
protocol.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from intelm import data as dat
from intelm.elm import GENERATORS, FloatModel, one_hot, predict_float_batch, train
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

MODES = ("size_sweep", "bit_sweep", "weight_comparison")

DATASET_KINDS = ("textures", "mnist", "cifar10", "csv")

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
            raise ConfigError("mode", f"invalid config key mode={self.mode!r}; one of {MODES}")
        if not self.L_list or sorted(self.L_list) != list(self.L_list):
            raise ConfigError("L_list", f"L_list must be nonempty ascending, got {self.L_list}")
        if self.models_per_L < 1:
            raise ConfigError("models_per_L", f"models_per_L must be >= 1, got {self.models_per_L}")
        if not 0.0 < self.selection_threshold <= 1.0:
            raise ConfigError(
                "selection_threshold",
                f"selection_threshold must be in (0, 1], got {self.selection_threshold}",
            )
        kind = self.dataset.get("kind")
        if kind not in DATASET_KINDS:
            raise ConfigError("dataset.kind", f"unknown dataset kind {kind!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        for key in raw:
            if key not in known:
                raise ConfigError(key, f"invalid config key {key!r}")
        if "mode" not in raw or "dataset" not in raw:
            missing = "mode" if "mode" not in raw else "dataset"
            raise ConfigError(missing, f"missing required config key {missing!r}")
        return cls(**raw)


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
        self.rows.sort(key=lambda r: (str(r["dataset"]), str(r["arm"]), _num(r["L"]), _num(r["seed"])))

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


def resolve_dataset(spec: dict) -> tuple[dat.RawDataset, dat.RawDataset, list[str]]:
    """Build (train_raw, test_raw, preprocessing steps) from a config dict."""
    spec = dict(spec)
    kind = spec.pop("kind")
    steps = spec.pop("preprocessing", None)
    if kind == "textures":
        allowed = {"patch_size", "count", "seed", "size"}
        _reject_unknown(spec, allowed, "dataset")
        train_raw, test_raw = dat.synthetic_textures(**spec)
        default_steps = ["l2_normalize"]
    elif kind == "mnist":
        _reject_unknown(
            spec, {"train_images", "train_labels", "test_images", "test_labels"}, "dataset"
        )
        train_raw = dat.load_idx(spec["train_images"], spec["train_labels"])
        test_raw = dat.load_idx(spec["test_images"], spec["test_labels"])
        default_steps = ["zero_mean", "l2_normalize"]
    elif kind == "cifar10":
        _reject_unknown(spec, {"train_batches", "test_batches", "class_filter"}, "dataset")
        class_filter = spec.get("class_filter")
        if class_filter is not None:
            class_filter = tuple(class_filter)
        train_raw = dat.load_cifar10(spec["train_batches"], class_filter)
        test_raw = dat.load_cifar10(spec["test_batches"], class_filter)
        default_steps = ["l2_normalize"]
    else:
        _reject_unknown(spec, {"train_path", "test_path", "label_column"}, "dataset")
        train_raw = dat.load_csv(spec["train_path"], spec["label_column"])
        test_raw = dat.load_csv(spec["test_path"], spec["label_column"])
        default_steps = ["l2_normalize"]
    train_raw.check_all_classes_present()
    test_raw.check_all_classes_present()
    return train_raw, test_raw, list(steps) if steps is not None else default_steps


def _reject_unknown(spec: dict, allowed: set, prefix: str) -> None:
    for key in spec:
        if key not in allowed:
            raise ConfigError(f"{prefix}.{key}", f"invalid config key {prefix}.{key}")


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
    if model.weight_kind not in ("ternary", "pm1"):
        raise ValueError(f"integer path needs ternary weights, model has {model.weight_kind}")
    meta = dict(model.metadata)
    meta["gamma"] = model.gamma
    meta["prng_id"] = model.prng_id
    ib = quantize_beta(model.beta)
    if fit_headroom:
        limit = min(output_beta_limit(model.n, model.L, input_range), BETA_STORAGE_MAX)
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
        train_norm.samples,
        targets,
        W,
        gamma,
        seed=seed,
        weight_kind=kind,
        metadata={"preprocessing": train_norm.preprocessing, "dataset": train_norm.source},
    )


def _limit(raw: dat.RawDataset, limit: int | None, seed: int) -> dat.RawDataset:
    if limit is None or raw.N <= limit:
        return raw
    kept, _ = dat.split_train_val(raw, fraction=limit / raw.N, seed=seed)
    return kept


# --- experiment modes --------------------------------------------------------


def run_weight_comparison(config: ExperimentConfig) -> SweepReport:
    """Continuous vs ternary input weights at fixed hidden size.

    Trains config.pairs independent (continuous, ternary) pairs and reports
    per-pair test accuracies plus one aggregate mean/sd row per arm.
    """
    train_raw, test_raw, steps = resolve_dataset(config.dataset)
    train_raw = _limit(train_raw, config.train_limit, config.seed)
    train_norm = dat.preprocess(train_raw, steps)
    test_norm = dat.preprocess(test_raw, steps)
    L = config.L_list[0]
    report = SweepReport(notes=[PAIR_COUNT_NOTE, f"pairs={config.pairs} L={L}"])
    seeds = split_seed(config.seed, config.pairs * 2)

    def job(args):
        arm, kind, seed = args
        model = _train_one(train_norm, kind, L, config.gamma, seed)
        acc = _accuracy(predict_float_batch(model, test_norm.samples), test_norm.labels)
        return arm, seed, acc

    tasks = []
    for i in range(config.pairs):
        tasks.append(("continuous", "continuous", seeds[2 * i]))
        tasks.append(("ternary", "ternary", seeds[2 * i + 1]))
    results = _run_pool(job, tasks, config.jobs)

    per_arm: dict[str, list[float]] = {"continuous": [], "ternary": []}
    for arm, seed, acc in results:
        per_arm[arm].append(acc)
        report.add(dataset=train_raw.source, arm=arm, L=L, seed=seed, test_accuracy=acc)
    for arm, accs in per_arm.items():
        mean = float(np.mean(accs))
        sd = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
        report.add(
            dataset=train_raw.source,
            arm=arm,
            L=L,
            test_accuracy=mean,
            summary=f"{100 * mean:.2f} ({100 * sd:.2f})",
            note="aggregate",
        )
    report.sort()
    return report


def run_bit_sweep(model: FloatModel, test_raw: dat.RawDataset) -> SweepReport:
    """Accuracy at every rung of the output-weight precision ladder.

    The ladder starts at the first rung that fits the headroom and the
    beta storage. Rows are ordered by descending bit width;
    agreement_with_float counts the fraction of test samples where the
    rung's integer prediction matches the float model's prediction.
    """
    report = SweepReport()
    float_pred = predict_float_batch(model, test_raw.samples.astype(np.float64))
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
    report.rows.sort(key=lambda r: -_num(r["bit_width"]))
    return report


def run_bit_sweep_config(config: ExperimentConfig) -> SweepReport:
    """Config-driven bit sweep: train models_per_L classifiers, sweep each."""
    train_raw, test_raw, steps = resolve_dataset(config.dataset)
    train_raw = _limit(train_raw, config.train_limit, config.seed)
    train_norm = dat.preprocess(train_raw, steps)
    L = config.L_list[0]
    seeds = split_seed(config.seed, config.models_per_L)
    merged = SweepReport(notes=[f"bit sweep: {config.models_per_L} classifiers, L={L}"])
    for seed in seeds:
        model = _train_one(train_norm, "ternary", L, config.gamma, seed)
        merged.rows.extend(run_bit_sweep(model, test_raw).rows)
    merged.rows.sort(key=lambda r: (-_num(r["bit_width"]), _num(r["seed"])))
    return merged


def run_size_sweep(config: ExperimentConfig) -> SweepReport:
    """Original (continuous W, float beta) vs proposed (ternary W, integer
    beta) over the hidden-size grid, with the 80/20 selection protocol.

    Per-(L, arm) failures become error rows and the sweep continues.
    """
    train_raw, test_raw, steps = resolve_dataset(config.dataset)
    train_raw = _limit(train_raw, config.train_limit, config.seed)
    test_norm = dat.preprocess(test_raw, steps)
    report = SweepReport(notes=[f"selection: threshold={config.selection_threshold}, "
                                f"models_per_L={config.models_per_L}"])
    if "zero_mean" in steps:
        report.notes.append(
            "training preprocessing includes a zero-mean shift; the integer path "
            "classifies raw unshifted signals (scale invariance covers the norm only)"
        )

    split_seeds = split_seed(config.seed, 2)
    fit_raw, val_raw = dat.split_train_val(train_raw, config.split_fraction, split_seeds[0])
    fit_norm = dat.preprocess(fit_raw, steps)
    val_norm = dat.preprocess(val_raw, steps)
    arm_specs = [("original", "continuous"), ("proposed", "ternary")]
    results: dict[tuple[str, int], float] = {}

    for L in config.L_list:
        cand_seeds = split_seed(split_seeds[1] + L, config.models_per_L)
        for arm, kind in arm_specs:
            try:
                def job(seed):
                    model = _train_one(fit_norm, kind, L, config.gamma, seed)
                    if arm == "proposed":
                        qm = make_quantized(model, val_raw.value_range, fit_headroom=True)
                        pred = classify_int_batch(qm, val_raw.samples)
                    else:
                        pred = predict_float_batch(model, val_norm.samples)
                    return model, _accuracy(pred, val_raw.labels)

                candidates = _run_pool(job, cand_seeds, config.jobs)
                chosen = select_model(candidates, config.selection_threshold)
                val_acc = dict((m.seed, a) for m, a in candidates)[chosen.seed]
                row = dict(
                    dataset=train_raw.source,
                    arm=arm,
                    L=L,
                    seed=chosen.seed,
                    val_accuracy=val_acc,
                    beta_energy=beta_energy(chosen),
                )
                if arm == "proposed":
                    qm = make_quantized(chosen, test_raw.value_range, fit_headroom=True)
                    pred = classify_int_batch(qm, test_raw.samples)
                    row["bit_width"] = bit_width(qm.int_beta)
                    row["agreement_with_float"] = _accuracy(
                        pred, predict_float_batch(chosen, test_raw.samples.astype(np.float64))
                    )
                else:
                    pred = predict_float_batch(chosen, test_norm.samples)
                test_acc = _accuracy(pred, test_raw.labels)
                row["test_accuracy"] = test_acc
                results[(arm, L)] = test_acc
                report.add(**row)
            except Exception as exc:  # noqa: BLE001 - error rows keep the sweep alive
                report.add(dataset=train_raw.source, arm=arm, L=L, note=f"error: {exc}")
        if ("original", L) in results and ("proposed", L) in results:
            report.add(
                dataset=train_raw.source,
                arm="delta",
                L=L,
                accuracy_delta=results[("original", L)] - results[("proposed", L)],
            )
    report.sort()
    return report


def run_experiment(config: ExperimentConfig) -> SweepReport:
    if config.mode == "weight_comparison":
        return run_weight_comparison(config)
    if config.mode == "bit_sweep":
        return run_bit_sweep_config(config)
    return run_size_sweep(config)


def _run_pool(fn, tasks, jobs: int):
    if jobs <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))
