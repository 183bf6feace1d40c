"""The names the benchmark's tracer (perfbench/tracer.py) wraps must exist.

The tracer wraps each target function and rebinds every module-level name
bound to it, so a span covers calls made through ``from x import f`` too.
A target that no longer resolves breaks the benchmark, and a caller that
stops importing the defining module's function escapes its span. The
tracer is loaded by path, read only.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from intelm import cli, elm, experiments, intinfer, quantize
from intelm.data import write_idx
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
