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

from intelm import cli, elm, experiments, intinfer, quantize

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
