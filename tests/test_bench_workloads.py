"""The benchmark's calls into src/ still run: each workload's prepare, load and first two operations.

perfbench/workloads.py drives the program through ``cli.main`` argv, the
library (``elm.train``, ``experiments.make_quantized(..., fit_headroom=True)``,
``intinfer.classify_int``) and ``modelio``; a change that breaks one of
those calls fails here instead of only in a benchmark run. The workloads
and their ``checks`` module are loaded by path, read only. ``check`` is not
run: its pure-Python references take tens of seconds.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
# What each workload's operation returns, checked only for its form.
FORMS = {
    "train_cli": lambda wl, out: out[1].startswith(f"trained L={wl.L} ") and out[2].is_file(),
    "serve_single": lambda wl, out: 0 <= out < wl.classes,
    "classify_cli": lambda wl, out: len(out[1].splitlines()) == wl.rows,
}


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # workloads.py runs `import checks`
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", list(FORMS))
def test_workload_prepares_loads_and_runs_two_operations(name, tmp_path, monkeypatch):
    _load("checks", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.WORKLOADS[name](1, tmp_path)
    workload.prepare()
    workload.load()
    for i in (0, 1):
        assert FORMS[name](workload, workload.op(i))
