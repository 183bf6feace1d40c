"""Only training loads scipy: serving processes never import it.

scipy (for LAPACK's Cholesky) is imported by the first training solve.
This pytest process has imported it long ago, so the cold-path check runs
a fresh interpreter; the source check reads every module's import
statements.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from intelm.cli import main
from intelm.data import write_idx
from intelm.seeding import make_rng

SRC = Path(__file__).resolve().parent.parent / "src"

COLD_PATH_SCRIPT = """
import json, sys
from pathlib import Path

import intelm, intelm.cli
from intelm import cli, elm, experiments, intinfer, modelio

d = Path(sys.argv[1])
images, labels = str(d / "imgs.idx"), str(d / "lbls.idx")
fpath, qpath = str(d / "float.ielm"), str(d / "int.ielm")
loaded = {}


def step(name, fn):
    fn()
    loaded[name] = "scipy" in sys.modules


def cli_step(name, argv):
    step(name, lambda: cli.main(argv) == 0 or sys.exit(f"intelm {name} failed"))


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
cli_step("train", ["train", "--images", images, "--labels", labels, "--L", "8", "--out", str(d / "t.ielm")])
print(json.dumps(loaded))
"""


def test_only_training_loads_scipy(tmp_path):
    rng = make_rng(3)
    labels = (np.arange(20) % 2).astype(np.uint8)
    images = rng.integers(1, 256, size=(20, 4, 4)).astype(np.uint8)
    write_idx(images, labels, tmp_path / "imgs.idx", tmp_path / "lbls.idx")
    assert main(["train", "--images", str(tmp_path / "imgs.idx"), "--labels", str(tmp_path / "lbls.idx"),
                 "--L", "8", "--weight-kind", "ternary", "--seed", "1",
                 "--out", str(tmp_path / "float.ielm")]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", COLD_PATH_SCRIPT, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded.pop("train") is True
    assert len(loaded) == 10 and not any(loaded.values()), loaded


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
