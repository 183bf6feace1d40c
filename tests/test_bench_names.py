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

from intelm import cli, elm, experiments, intinfer, modelio, quantize
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
    assert cli.classify_int_batch is intinfer.classify_int_batch
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


def test_classify_scores_calls_cli_int_scores_and_classify_int_batch(tmp_path, monkeypatch, capsys):
    assert cli.main(["train", *_tiny_task(tmp_path), "--L", "4", "--out", str(tmp_path / "f.ielm")]) == 0
    assert cli.main(["quantize", "--model", str(tmp_path / "f.ielm"), "--out", str(tmp_path / "q.ielm")]) == 0
    scores = _counting(monkeypatch, cli, "int_scores")
    labels = _counting(monkeypatch, cli, "classify_int_batch")
    argv = ["classify", "--model", str(tmp_path / "q.ielm"), "--input", str(tmp_path / "img.idx"), "--scores"]
    assert cli.main(argv) == 0
    assert scores and labels


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


# serve_single's 784x2000 model packs; classify_cli's 3072x500 model keeps float32 W.
@pytest.mark.parametrize("n, L, packed", [(784, 2000, True), (3072, 500, False)], ids=["packed", "float32"])
def test_integer_classifiers_reach_the_traced_kernel_layers(monkeypatch, n, L, packed):
    model = _served_shape_model(n, L, 8)
    assert isinstance(model.kernel_weights, intinfer.PackedKernel) == packed
    X = make_rng(9).integers(1, 256, size=(3, n))
    projections = _counting(monkeypatch, intinfer, "ternary_project")
    relus = _counting(monkeypatch, intinfer, "relu_int")
    if not packed:  # the float kernel is cast inside the first call's projection span
        assert model.kernel_weights.weights is None
    label = intinfer.classify_int(model, X[0])
    assert projections == ["ternary_project"] and relus == ["relu_int"]
    if not packed:
        assert model.kernel_weights.weights.dtype == np.float32
    assert intinfer.classify_int_batch(model, X).tolist()[0] == label
    assert len(projections) == len(relus) == 2


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
    # classify_cli's model: its float32 kernel is 6.14 MB and its int8 W 1.5 MB. Loading keeps
    # W as a view of the bytes read, and the kernel is cast block by block, so a second copy
    # of W or a float temporary of W's size passes the bound.
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
    assert peak < 3072 * 500 * (4 + 1) + 2**20
    np.testing.assert_array_equal(scores, intinfer.int_scores(model, X))
    np.testing.assert_array_equal(labels, scores.argmax(axis=1))
    assert not loaded.ternary_weights.flags.owndata
    with pytest.raises(ValueError, match="WRITEABLE"):
        loaded.ternary_weights.setflags(write=True)
