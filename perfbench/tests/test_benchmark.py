"""The benchmark's own tests: its checks accept the program and reject wrong ones.

Run with ``python -m pytest perfbench/tests``. Workloads run here at the
sizes the benchmark runs; a wrong program is made by wrapping one of the
program's functions, and every operation that goes through it must be
counted as failed.
"""

import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

import checks as ck
import run
from checks import CheckFailed
from intelm import cli, elm, experiments, intinfer
from intelm.quantize import IntegerBeta
from tracer import Tracer
from workloads import WORKLOADS, ClassifyCli, ProgramFailed, ServeSingle, TrainCli, run_cli

def ready(cls, tmp_path, seed=3):
    tmp_path.mkdir(parents=True, exist_ok=True)
    wl = cls(seed, tmp_path)
    run.set_up(wl)
    return wl


def failures_of(wl, ops):
    outputs = {i: wl.op(i) for i in range(ops)}
    failures, _ = wl.check(outputs)
    return failures


# --- the contract between BENCHMARK.json and the code -------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


# --- correct program ------------------------------------------------------------


@pytest.mark.parametrize("cls", [TrainCli, ServeSingle, ClassifyCli])
def test_correct_program_has_no_failed_operation(cls, tmp_path):
    wl = ready(cls, tmp_path)
    assert failures_of(wl, 4) == {}
    assert wl.model_bytes() > 0


def test_same_seed_gives_same_inputs(tmp_path):
    a, b = ready(TrainCli, tmp_path / "a"), ready(TrainCli, tmp_path / "b")
    assert np.array_equal(a.X_train, b.X_train) and np.array_equal(a.op_seeds, b.op_seeds)
    c = ready(TrainCli, tmp_path / "c", seed=4)
    assert not np.array_equal(a.X_train, c.X_train)


def test_set_up_prepares_in_a_child_process(tmp_path):
    class Probe(TrainCli):
        def prepare(self):
            super().prepare()
            (self.dir / "pid").write_text(str(os.getpid()))

    wl = Probe(3, tmp_path)
    assert run.set_up(wl) > 0
    assert int((tmp_path / "pid").read_text()) != os.getpid()
    assert wl.X_train.shape == (TrainCli.n_train, 784)


# --- wrong programs --------------------------------------------------------------


def test_serve_single_counts_shifted_label_as_failed(tmp_path, monkeypatch):
    wl = ready(ServeSingle, tmp_path)
    real = intinfer.classify_int
    monkeypatch.setattr(intinfer, "classify_int", lambda m, x: (real(m, x) + 1) % m.m)
    assert len(failures_of(wl, 6)) == 6


def test_classify_cli_counts_perturbed_score_as_failed(tmp_path, monkeypatch):
    wl = ready(ClassifyCli, tmp_path)
    real = cli.int_scores

    def off_by_one(model, x):
        scores = real(model, x).copy()
        scores[-1] += 1
        return scores

    monkeypatch.setattr(cli, "int_scores", off_by_one)
    assert len(failures_of(wl, 4)) == 4


def test_classify_cli_counts_shifted_label_as_failed(tmp_path, monkeypatch):
    wl = ready(ClassifyCli, tmp_path)
    real = cli.classify_int_batch
    monkeypatch.setattr(cli, "classify_int_batch", lambda m, X: (real(m, X) + 1) % m.m)
    assert len(failures_of(wl, 4)) == 4


def test_train_cli_counts_wrong_quantizer_as_failed(tmp_path, monkeypatch):
    wl = ready(TrainCli, tmp_path)
    real = experiments.quantize_beta

    def coarse(beta):
        ib = real(beta)
        return IntegerBeta(values=(ib.values + 1) // 2, tau=ib.tau, ladder_step=0)

    monkeypatch.setattr(experiments, "quantize_beta", coarse)
    assert len(failures_of(wl, 3)) == 3


def test_train_cli_counts_unsolved_beta_as_failed(tmp_path, monkeypatch):
    wl = ready(TrainCli, tmp_path)
    real = cli.train

    def perturbed(*args, **kwargs):
        model = real(*args, **kwargs)
        model.beta = model.beta * (1 + 1e-6)
        return model

    monkeypatch.setattr(cli, "train", perturbed)
    # the residual is recomputed on every check_every-th model
    assert wl.check_every == 8
    assert sorted(failures_of(wl, 9)) == [0, 8]


def test_program_exit_code_is_a_failure(tmp_path):
    with pytest.raises(ProgramFailed, match="exit 2"):
        run_cli(["classify", "--model", tmp_path / "missing.ielm", "--input", tmp_path / "x.idx"])


def test_measure_counts_raising_operation(tmp_path, monkeypatch):
    wl = ready(ServeSingle, tmp_path)
    real = intinfer.classify_int
    calls = []

    def flaky(m, x):
        calls.append(1)
        if len(calls) % 3 == 0:
            raise RuntimeError("boom")
        return real(m, x)

    monkeypatch.setattr(intinfer, "classify_int", flaky)
    outputs, errors, latency, _, _ = run.measure(wl, seconds=0.0, min_ops=9)
    assert len(latency) == 9 and sorted(errors) == [2, 5, 8] and len(outputs) == 6


# --- reference computations ------------------------------------------------------


def test_python_int_scores_match_batch_reference_and_program():
    rng = np.random.default_rng(0)
    W = rng.integers(-1, 2, (50, 30)).astype(np.int8)
    V = rng.integers(-(2**30), 2**30, (30, 4))
    X = rng.integers(0, 256, (5, 50))
    batch = ck.int_scores_batch(W, V, X)
    for x, row in zip(X, batch):
        assert ck.int_scores_pyint(W, V, x) == [int(s) for s in row]
    # wide enough to overflow int64: the reference switches to Python ints
    V_wide = np.full((30, 4), 2**50, dtype=np.int64)
    wide = ck.int_scores_batch(W, V_wide, X)
    assert wide.dtype == object
    assert ck.int_scores_pyint(W, V_wide, X[0]) == list(wide[0])


def test_lowest_argmax():
    assert ck.lowest_argmax([3, 7, 7, 1]) == 1


def test_float_model_check_admits_integer_labels_and_rejects_wrong_ones():
    from intelm.quantize import quantize_beta

    rng = np.random.default_rng(4)
    X = rng.integers(0, 256, (300, 60))
    labels = (X[:, :30].sum(axis=1) > X[:, 30:].sum(axis=1)).astype(int) + 2 * (X[:, 0] > 127)
    W = elm.gen_weights_ternary(60, 40, 1)
    fm = elm.train(ck.l2_normalize(X), elm.one_hot(labels, 4), W, 1.0, weight_kind="ternary")
    ib = quantize_beta(fm.beta)
    integer = np.argmax(ck.int_scores_batch(W, ib.values, X), axis=1)
    float_labels, admitted = ck.float_model_check(W, fm.beta, X, integer, ib.tau)
    assert admitted.all() and np.mean(float_labels == integer) > 0.99
    _, admitted = ck.float_model_check(W, fm.beta, X, (integer + 1) % 4, ib.tau)
    assert admitted.mean() < 0.05
    # a beta whose hidden units are shuffled passes the exact-score check but not this one
    shuffled = ib.values[rng.permutation(40)]
    wrong = np.argmax(ck.int_scores_batch(W, shuffled, X), axis=1)
    _, admitted = ck.float_model_check(W, fm.beta, X, wrong, ib.tau)
    assert admitted.mean() < 0.8


def test_quantizer_check_accepts_program_and_rejects_off_by_one():
    from intelm.quantize import quantize_beta

    beta = np.random.default_rng(1).standard_normal((20, 3))
    ib = quantize_beta(beta)
    ck.check_quantizer(beta, ib.values, ib.tau)
    wrong = ib.values.copy()
    wrong[5, 1] += 1
    with pytest.raises(CheckFailed):
        ck.check_quantizer(beta, wrong, ib.tau)
    with pytest.raises(CheckFailed):
        ck.check_quantizer(beta, ib.values, ib.tau * 1.001)


def test_near_zero_beta_is_quantized_down_the_ladder_and_checked(tmp_path):
    from intelm.intinfer import HeadroomError
    from workloads import quantize_for_storage

    rng = np.random.default_rng(5)
    W = elm.gen_weights_ternary(784, 20, 1)
    fm = elm.FloatModel(W, rng.standard_normal((20, 3)), 1.0, "ternary", 1)
    fm.beta[4, 2] = 1e-17  # a hidden unit fed only by rounding noise
    with pytest.raises(HeadroomError):
        experiments.make_quantized(fm, (0, 255))
    qm = quantize_for_storage(fm)
    assert qm.int_beta.ladder_step > 0 and qm.int_beta.max_abs <= 2**31 - 1
    ck.check_quantizer(fm.beta, qm.int_beta.values, qm.int_beta.tau, qm.int_beta.ladder_step)
    with pytest.raises(CheckFailed):
        ck.check_quantizer(fm.beta, qm.int_beta.values, qm.int_beta.tau)


def test_unquantizable_beta_is_refused_and_would_fail_the_quantizer_check():
    from workloads import quantizable, quantize_for_storage

    rng = np.random.default_rng(5)
    W = elm.gen_weights_ternary(784, 20, 1)
    fm = elm.FloatModel(W, rng.standard_normal((20, 3)), 1.0, "ternary", 1)
    assert quantizable(fm.beta)
    fm.beta[4, 2] = 1e-20  # beta / tau passes 2**63
    assert not quantizable(fm.beta)
    with np.errstate(invalid="ignore"):
        qm = quantize_for_storage(fm)
    with pytest.raises(CheckFailed):
        ck.check_quantizer(fm.beta, qm.int_beta.values, qm.int_beta.tau, qm.int_beta.ladder_step)


def test_train_cli_skips_quantization_of_unquantizable_models(tmp_path, monkeypatch):
    import workloads

    wl = ready(TrainCli, tmp_path)
    monkeypatch.setattr(workloads, "quantizable", lambda beta: False)
    outputs = {i: wl.op(i) for i in range(2)}
    failures, reference = wl.check(outputs)
    assert failures == {} and reference["models_not_quantizable"] == [0, 1]
    assert reference["residual_max"] < 1e-9


def test_ielm_reader_matches_program_and_rejects_trailing_bytes(tmp_path):
    from intelm.modelio import save_model

    rng = np.random.default_rng(2)
    W = elm.gen_weights_ternary(12, 5, 1)
    X = rng.random((40, 12))
    fm = elm.train(X, elm.one_hot(rng.integers(0, 3, 40), 3), W, 1.0, weight_kind="ternary")
    path = tmp_path / "m.ielm"
    save_model(experiments.make_quantized(fm, (0, 255)), path)
    f = ck.read_ielm(path)
    assert f.integer and (f.n, f.L, f.m) == (12, 5, 3) and np.array_equal(f.W, W)
    ck.check_quantizer(fm.beta, f.beta, f.tau)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CheckFailed, match="trailing"):
        ck.read_ielm(path)


def test_idx_writer_round_trips_through_program(tmp_path):
    from intelm.data import load_idx

    images = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    ck.write_idx_images(tmp_path / "i.idx", images)
    ck.write_idx_labels(tmp_path / "l.idx", np.array([1, 0]))
    raw = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
    assert np.array_equal(raw.samples, images.reshape(2, 12)) and raw.labels.tolist() == [1, 0]
    assert struct.unpack(">I", (tmp_path / "i.idx").read_bytes()[:4])[0] == ck.IDX_IMAGES_MAGIC


# --- tracer ------------------------------------------------------------------------


def test_tracer_covers_from_imports_and_restores_bindings(tmp_path):
    originals = (cli.train, elm.train, elm.GENERATORS["ternary"], elm.hidden_features)
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        assert cli.train is not originals[0] and elm.GENERATORS["ternary"] is not originals[2]
        X = np.random.default_rng(0).random((30, 8))
        W = elm.GENERATORS["ternary"](8, 6, 1)
        cli.train(X, elm.one_hot(np.arange(30) % 2, 2), W, 1.0, weight_kind="ternary")
    finally:
        tracer.uninstall()
    assert (cli.train, elm.train, elm.GENERATORS["ternary"], elm.hidden_features) == originals
    names = [s[1] for s in tracer.spans]
    assert names[:2] == ["elm.gen_weights", "seeding.make_rng"] and "linalg.solve_spd" in names
    train_index = names.index("elm.train")
    children = [s for s in tracer.spans if s[4] == train_index]
    assert {s[1] for s in children} == {"elm.hidden_features", "linalg.accumulate_gram", "linalg.solve_spd"}
    agg = tracer.per_op()[0]
    child_total = sum(s[3] - s[2] for s in children)
    assert agg["elm.train"]["self"] == pytest.approx(agg["elm.train"]["total"] - child_total)
    assert agg["elm.hidden_features"]["count"] == 30
    assert agg["linalg.accumulate_gram"]["count"] == 2 * 30 * 6 * 6 + 2 * 30 * 6 * 2
