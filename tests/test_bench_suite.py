"""The benchmark's own tests fail nowhere but where ROADMAP item 1 says they do.

``python -m pytest perfbench/tests`` runs in a subprocess with the sources
on its path and no bytecode or cache writes, so it reads ``perfbench/``
and writes nothing under it. Two of its tests fail for reasons that only
a change to the benchmark can mend (ROADMAP item 1); any other failure or
error is new, and this test names it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOWN_FAILURES = {
    "perfbench/tests/test_benchmark.py::test_classify_cli_counts_shifted_label_as_failed",
    "perfbench/tests/test_benchmark.py::test_unquantizable_beta_is_refused_and_would_fail_the_quantizer_check",
}


def test_benchmark_tests_fail_only_where_known():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/tests", "-q", "-p", "no:cacheprovider", "-rfE"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode in (0, 1) and re.search(r"\d+ passed", run.stdout), run.stdout + run.stderr
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.M))
    new = sorted(failed - KNOWN_FAILURES)
    assert not new, "perfbench tests failing beyond ROADMAP item 1's two:\n" + "\n".join(new)
