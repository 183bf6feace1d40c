"""The names the benchmark's tracer (perfbench/tracer.py) wraps must exist.

The tracer wraps each target function and rebinds every module-level name
bound to it, so a span covers calls made through ``from x import f`` too.
A target that no longer resolves breaks the benchmark, and a caller that
stops importing the defining module's function escapes its span. The
tracer is loaded by path, read only.
"""

import importlib
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from intelm import cli, elm, experiments, intinfer, linalg, modelio, quantize
from intelm.data import write_idx
from intelm.quantize import IntegerBeta
from intelm.seeding import make_rng

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    for name, module, attr, _ in _tracer_targets():
        assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_traced_callers_bind_the_defining_functions():
    assert cli.train is elm.train
    assert cli.int_scores is intinfer.int_scores
    assert cli.scores_float is elm.scores_float
    assert cli.class_labels is elm.class_labels
    assert experiments.quantize_beta is quantize.quantize_beta


# The benchmark's fault-injection tests (perfbench/tests) replace these
# names and expect the replacement to be called on the path each one pins;
# those tests sit outside tier-1's testpaths, so this checks the pins here.


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; return the list of calls."""
    real, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _tiny_task(tmp_path):
    labels = (np.arange(12) % 2).astype(np.uint8)
    images = make_rng(5).integers(1, 120, size=(12, 3, 3)) + 120 * labels[:, None, None]
    write_idx(images.astype(np.uint8), labels, tmp_path / "img.idx", tmp_path / "lbl.idx")
    return ["--images", str(tmp_path / "img.idx"), "--labels", str(tmp_path / "lbl.idx")]


def test_cmd_train_calls_cli_train(tmp_path, monkeypatch):
    calls = _counting(monkeypatch, cli, "train")
    argv = ["train", *_tiny_task(tmp_path), "--L", "4", "--out", str(tmp_path / "f.ielm")]
    assert cli.main(argv) == 0
    assert calls == ["train"]


def test_classify_scores_calls_cli_int_scores_once_and_labels_those_scores(tmp_path, monkeypatch, capsys):
    assert cli.main(["train", *_tiny_task(tmp_path), "--L", "4", "--out", str(tmp_path / "f.ielm")]) == 0
    assert cli.main(["quantize", "--model", str(tmp_path / "f.ielm"), "--out", str(tmp_path / "q.ielm")]) == 0
    real_scores, real_labels, calls = cli.int_scores, cli.class_labels, []

    def int_scores(*args):
        calls.append(("int_scores", real_scores(*args)))
        return calls[-1][1]

    def class_labels(model, X, scores):
        calls.append(("class_labels", scores))
        return real_labels(model, X, scores)

    monkeypatch.setattr(cli, "int_scores", int_scores)
    monkeypatch.setattr(cli, "class_labels", class_labels)
    capsys.readouterr()
    argv = ["classify", "--model", str(tmp_path / "q.ielm"), "--input", str(tmp_path / "img.idx"), "--scores"]
    assert cli.main(argv) == 0
    assert [name for name, _ in calls] == ["int_scores", "class_labels"]
    assert calls[1][1] is calls[0][1]  # the label step reads the very scores that are printed
    printed = [[int(v) for v in line.split(",")] for line in capsys.readouterr().out.splitlines()]
    assert [row[1:] for row in printed] == calls[0][1].tolist()


def test_train_folds_each_block_through_the_traced_calls(monkeypatch):
    # The tracer counts linalg.gram_flops from accumulate_gram's positional block and targets,
    # and elm.hidden_features_rows from each block's hidden_features call.
    counters = {name: count for name, _, _, count in _tracer_targets()}
    X = make_rng(10).integers(0, 256, size=(10, 6)).astype(np.uint8)
    targets = elm.one_hot(np.arange(10) % 3, 3)
    W = elm.gen_weights_ternary(6, 5, 11)
    blocks, folds = [], []
    real_hidden, real_fold = elm.hidden_features, elm.accumulate_gram

    def hidden(*args, **kwargs):
        blocks.append(real_hidden(*args, **kwargs))
        return blocks[-1]

    def fold(*args, **kwargs):
        folds.append((args, kwargs))
        return real_fold(*args, **kwargs)

    monkeypatch.setattr(elm, "hidden_features", hidden)
    monkeypatch.setattr(elm, "accumulate_gram", fold)
    elm.train(X, targets, W, weight_kind="ternary", block_size=4)
    assert [len(block) for block in blocks] == [4, 4, 2]
    assert len(folds) == 3
    for (args, kwargs), block, start in zip(folds, blocks, (0, 4, 8)):
        assert not kwargs and len(args) == 3 and args[0] is block
        np.testing.assert_array_equal(args[2], targets[start : start + 4])
    assert sum(counters["linalg.accumulate_gram"](*args) for args, _ in folds) == 2 * 10 * 5 * 5 + 2 * 10 * 5 * 3


def test_make_quantized_calls_experiments_quantize_beta(monkeypatch):
    calls = _counting(monkeypatch, experiments, "quantize_beta")
    W = make_rng(6).integers(-1, 2, size=(5, 4)).astype(np.int8)
    model = elm.FloatModel(W, make_rng(7).standard_normal((4, 2)), gamma=1.0, weight_kind="ternary", seed=0)
    experiments.make_quantized(model, (0, 255))
    assert calls == ["quantize_beta"]


def _served_shape_model(n, L, seed):
    W = elm.gen_weights_ternary(n, L, seed)
    values = make_rng(seed).integers(-(2**20), 2**20, size=(L, 10))
    return intinfer.QuantizedModel(W, IntegerBeta(values=values, tau=1.0), input_range=(0, 255))


# serve_single's 784x2000 model packs; classify_cli's 3072x500 model projects through float32.
@pytest.mark.parametrize("n, L, packed", [(784, 2000, True), (3072, 500, False)], ids=["packed", "float32"])
def test_integer_classifiers_reach_the_traced_kernel_layers(monkeypatch, n, L, packed):
    model = _served_shape_model(n, L, 8)
    assert isinstance(model.kernel_weights, intinfer.PackedKernel) == packed
    X = make_rng(9).integers(1, 256, size=(3, n))
    projections = _counting(monkeypatch, intinfer, "ternary_project")
    relus = _counting(monkeypatch, intinfer, "relu_int")
    labels = intinfer.classify_int_batch(model, X)
    assert projections == ["ternary_project"] and relus == ["relu_int"]
    assert intinfer.classify_int(model, X[0]) == labels[0]
    assert len(projections) == len(relus) == 2


def test_training_and_both_scorers_reach_the_one_exact_projection(monkeypatch):
    # linalg.FloatKernel.blocks is the one exact projection of integer rows: training's
    # hidden layer, the float scorer and the integer scorer of an unpacked model run it.
    calls = _counting(monkeypatch, linalg.FloatKernel, "blocks")
    X = make_rng(10).integers(0, 256, size=(10, 6)).astype(np.uint8)
    W = elm.gen_weights_ternary(6, 5, 11)
    model = elm.train(X, elm.one_hot(np.arange(10) % 3, 3), W, weight_kind="ternary", block_size=4)
    assert len(calls) == 3
    elm.scores_float(model, X)
    assert len(calls) == 4
    intinfer.int_scores(_served_shape_model(3072, 500, 8), X.repeat(512, axis=1)[:3])
    assert len(calls) == 5
    intinfer.int_scores(_served_shape_model(784, 2000, 8), X.repeat(131, axis=1)[:3, :784])
    assert len(calls) == 5  # the packed kernel has its own projection


# Per model kind, the kernel method that each projection of a classify input calls once.
KERNEL_PROJECTIONS = {"float32": (linalg.FloatKernel, "blocks"), "float": (linalg.FloatKernel, "blocks"),
                      "packed": (intinfer.PackedKernel, "project")}


@pytest.mark.parametrize("scores", [False, True], ids=["labels", "scores"])
@pytest.mark.parametrize("kind", sorted(KERNEL_PROJECTIONS))
def test_classify_projects_each_file_once(tmp_path, monkeypatch, capsys, kind, scores):
    # classify_cli's 3072x500 integer model, a float model of the same W, and serve_single's packed 784x2000.
    n, L, side = (784, 2000, 28) if kind == "packed" else (3072, 500, 32)
    if kind == "float":
        beta = make_rng(8).standard_normal((L, 10))
        model = elm.FloatModel(elm.gen_weights_ternary(n, L, 8), beta, gamma=1.0, weight_kind="ternary", seed=0)
    else:
        model = _served_shape_model(n, L, 8)
    modelio.save_model(model, tmp_path / "m.ielm")
    images = make_rng(9).integers(1, 256, size=(3, side, n // side)).astype(np.uint8)
    write_idx(images, np.zeros(3, np.uint8), tmp_path / "img.idx", tmp_path / "lbl.idx")
    calls = _counting(monkeypatch, *KERNEL_PROJECTIONS[kind])
    argv = ["classify", "--model", str(tmp_path / "m.ielm"), "--input", str(tmp_path / "img.idx")]
    assert cli.main(argv + ["--scores"] * scores) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert len(calls) == 1


def test_classify_int_allocates_no_copy_of_the_packed_kernel():
    # The benchmark records about 32 KB per call on the float32 kernel; the packed
    # kernel's words alone are 4.2 MB, so a per-call copy or rebuild fails this.
    model = _served_shape_model(784, 2000, 8)
    x = make_rng(9).integers(1, 256, size=784)
    label = intinfer.classify_int(model, x)  # the kernels are built on first use
    assert model.kernel_weights.words.nbytes > 4_000_000
    tracemalloc.start()
    try:
        assert intinfer.classify_int(model, x) == label
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_loading_and_scoring_a_wide_file_holds_one_float_kernel_and_w(tmp_path):
    # classify_cli's model: its float32 kernel would be 6.14 MB and its int8 W is 1.5 MB.
    # Loading keeps W as a view of the bytes read, and a few rows are projected through one
    # 512 KB block buffer per call, so a float W, a second copy of W or a float temporary of
    # W's size passes the bound.
    W = elm.gen_weights_ternary(3072, 500, 8)
    model = _served_shape_model(3072, 500, 8)
    assert not np.shares_memory(model.ternary_weights, W) and W.flags.writeable  # a caller's W is copied
    modelio.save_model(model, tmp_path / "q.ielm")
    X = make_rng(9).integers(1, 256, size=(4, 3072)).astype(np.uint8)
    tracemalloc.start()
    try:
        loaded = modelio.load_model(tmp_path / "q.ielm")
        labels = intinfer.classify_int_batch(loaded, X)
        scores = intinfer.int_scores(loaded, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3072 * 500 + intinfer.BUILD_BLOCK_BYTES + 2**20
    np.testing.assert_array_equal(scores, intinfer.int_scores(model, X))
    np.testing.assert_array_equal(labels, scores.argmax(axis=1))
    assert not loaded.ternary_weights.flags.owndata
    with pytest.raises(ValueError, match="WRITEABLE"):
        loaded.ternary_weights.setflags(write=True)
