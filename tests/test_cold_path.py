"""Only training loads scipy, and only LAPACK's extension from it.

linalg.load_lapack loads scipy.linalg._flapack (dpotrf and dpotrs) by its
file on the first training solve; the scipy.linalg package is never
imported. This pytest process may have imported scipy long ago, so these
checks run fresh interpreters; the source check reads every module's
import statements.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from intelm.cli import main
from intelm.data import write_idx
from intelm.seeding import make_rng

SRC = Path(__file__).resolve().parent.parent / "src"

COLD_PATH_SCRIPT = """
import json, sys
from pathlib import Path

import intelm, intelm.cli
from intelm import cli, elm, experiments, intinfer, linalg, modelio

d = Path(sys.argv[1])
images, labels = str(d / "imgs.idx"), str(d / "lbls.idx")
fpath, qpath = str(d / "float.ielm"), str(d / "int.ielm")
loaded = {}


def step(name, fn):
    fn()
    loaded[name] = ["scipy" in sys.modules, "scipy.linalg" in sys.modules]


def cli_step(name, argv):
    step(name, lambda: cli.main(argv) == 0 or sys.exit(f"intelm {name} failed"))


def train_argv(out):
    return ["train", "--images", images, "--labels", labels, "--L", "8", "--out", str(d / out)]


step("import", lambda: None)
cli_step("quantize", ["quantize", "--model", fpath, "--out", qpath])
for kind, path in (("float", fpath), ("int", qpath)):
    cli_step(f"classify {kind}", ["classify", "--model", path, "--input", images])
    cli_step(f"classify {kind} --scores", ["classify", "--model", path, "--input", images, "--scores"])
cli_step("select", ["select", "--images", images, "--labels", labels, "--models", fpath])
fm, qm = modelio.load_model(fpath), modelio.load_model(qpath)
X = intelm.data.load_idx_images(images)
step("float scorers", lambda: (elm.predict_float(fm, X[0]), elm.predict_float_batch(fm, X)))
step("integer scorers", lambda: (intinfer.classify_int(qm, X[0]), intinfer.classify_int_batch(qm, X),
                                 intinfer.int_scores(qm, X)))
step("make_quantized", lambda: experiments.make_quantized(fm, (0, 255), fit_headroom=True))
cli_step("train", train_argv("cold.ielm"))
extension_loaded = linalg.LAPACK_MODULE in sys.modules
from scipy.linalg import lapack
reused = lapack.dpotrf is linalg.load_lapack().dpotrf
cli.main(train_argv("warm.ielm")) == 0 or sys.exit("intelm train after scipy.linalg failed")
print(json.dumps({"loaded": loaded, "extension_loaded": extension_loaded, "reused": reused}))
"""

CONCURRENT_LOAD_SCRIPT = """
import importlib.machinery, json, sys, threading
from intelm import linalg

THREADS = 8
loads = []
exec_module = importlib.machinery.ExtensionFileLoader.exec_module


def counted_exec_module(self, module):
    if module.__name__ == linalg.LAPACK_MODULE:
        loads.append(module)
    return exec_module(self, module)


importlib.machinery.ExtensionFileLoader.exec_module = counted_exec_module
sys.setswitchinterval(1e-6)  # switch threads often, so that an unguarded check-and-load interleaves
barrier = threading.Barrier(THREADS)
modules = [None] * THREADS


def first_call(i):
    barrier.wait()
    modules[i] = linalg.load_lapack()


threads = [threading.Thread(target=first_call, args=(i,)) for i in range(THREADS)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(json.dumps({"distinct": len({id(m) for m in modules}), "loads": len(loads),
                  "registered": sys.modules[linalg.LAPACK_MODULE] is modules[0]}))
"""


@pytest.fixture
def idx_set(tmp_path):
    rng = make_rng(3)
    labels = (np.arange(20) % 2).astype(np.uint8)
    images = rng.integers(1, 256, size=(20, 4, 4)).astype(np.uint8)
    write_idx(images, labels, tmp_path / "imgs.idx", tmp_path / "lbls.idx")
    return tmp_path


def run_fresh(*args, check=True):
    """A fresh interpreter that imports intelm from this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=check,
                          timeout=120)


def test_only_training_loads_scipy(idx_set):
    d = idx_set
    assert main(["train", "--images", str(d / "imgs.idx"), "--labels", str(d / "lbls.idx"),
                 "--L", "8", "--weight-kind", "ternary", "--seed", "1",
                 "--out", str(d / "float.ielm")]) == 0
    result = json.loads(run_fresh("-c", COLD_PATH_SCRIPT, str(d)).stdout.splitlines()[-1])
    loaded = result["loaded"]
    assert loaded.pop("train") == [True, False]
    assert len(loaded) == 10 and loaded == dict.fromkeys(loaded, [False, False]), loaded
    assert result["extension_loaded"] is True
    assert result["reused"] is True
    assert (d / "warm.ielm").read_bytes() == (d / "cold.ielm").read_bytes()


def test_concurrent_first_calls_load_the_extension_once():
    result = json.loads(run_fresh("-c", CONCURRENT_LOAD_SCRIPT).stdout.splitlines()[-1])
    assert result == {"distinct": 1, "loads": 1, "registered": True}


def test_train_without_the_lapack_extension_fails_in_one_line(idx_set):
    import scipy

    d = idx_set
    script = ("import importlib.machinery, sys; importlib.machinery.EXTENSION_SUFFIXES[:] = ['.missing']; "
              "from intelm.cli import main; sys.exit(main(sys.argv[1:]))")
    run = run_fresh("-c", script, "train", "--images", str(d / "imgs.idx"), "--labels", str(d / "lbls.idx"),
                    "--L", "8", "--out", str(d / "t.ielm"), check=False)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    [line] = run.stderr.splitlines()
    assert "reason=ImportError" in line
    assert str(Path(scipy.__file__).parent / "linalg") in line
    assert not (d / "t.ielm").exists()


def _import_time_imports(tree):
    """The import statements a module runs when imported: all but those inside a function."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _imported_roots(node):
    names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module or ""]
    return {name.split(".")[0] for name in names}


def test_no_module_imports_scipy_when_imported():
    """One scipy import in the package, inside linalg.load_lapack."""
    scipy_imports = []
    for path in sorted((SRC / "intelm").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _import_time_imports(tree):
            assert "scipy" not in _imported_roots(node), f"{path.name}:{node.lineno} imports scipy at import time"
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "scipy" in _imported_roots(node):
                scipy_imports.append(path.name)
    assert scipy_imports == ["linalg.py"]
