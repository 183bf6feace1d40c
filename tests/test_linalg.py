import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import gauss_solve, naive_matmul
from intelm.linalg import (
    CholeskyError,
    DimensionError,
    SpdSystem,
    accumulate_gram,
    exact_dtype,
    solve_spd,
)


class TestAccumulateGram:
    def test_zero_block_leaves_accumulator_unchanged(self):
        acc = accumulate_gram([[0.0]], None, [[0.0]])
        np.testing.assert_array_equal(acc.gram, [[0.0]])
        np.testing.assert_array_equal(acc.rhs, [[0.0]])
        assert accumulate_gram([[0.0]], acc, [[0.0]]) is acc
        np.testing.assert_array_equal(acc.gram, [[0.0]])
        np.testing.assert_array_equal(acc.rhs, [[0.0]])

    def test_identity_block(self):
        acc = accumulate_gram(np.eye(2), None, [[1.0], [0.0]])
        np.testing.assert_allclose(acc.gram, np.eye(2))
        np.testing.assert_allclose(acc.rhs, [[1.0], [0.0]])

    def test_matches_naive_matmul_oracle(self, rng):
        block = rng.standard_normal((8, 5))
        targets = rng.standard_normal((8, 2))
        acc = accumulate_gram(block, None, targets)
        np.testing.assert_allclose(acc.gram, naive_matmul(block.T, block), atol=1e-12)
        np.testing.assert_allclose(acc.rhs, naive_matmul(block.T, targets), atol=1e-12)

    def test_dimension_mismatch_names_shapes(self):
        acc = accumulate_gram(np.ones((1, 3)), None, np.ones((1, 1)))
        with pytest.raises(DimensionError, match="4 columns"):
            accumulate_gram(np.ones((2, 4)), acc, np.ones((2, 1)))
        for start in (acc, None):
            with pytest.raises(DimensionError, match="rows"):
                accumulate_gram(np.ones((2, 3)), start, np.ones((5, 1)))
        with pytest.raises(DimensionError, match="2 columns"):
            accumulate_gram(np.ones((2, 3)), acc, np.ones((2, 2)))

    def test_streaming_equals_single_shot(self, rng):
        H = rng.standard_normal((60, 7))
        T = rng.standard_normal((60, 3))
        single = accumulate_gram(H, None, T)
        streamed = None
        for start, stop in [(0, 13), (13, 14), (14, 40), (40, 60)]:
            streamed = accumulate_gram(H[start:stop], streamed, T[start:stop])
        np.testing.assert_allclose(streamed.gram, single.gram, rtol=1e-10)
        np.testing.assert_allclose(streamed.rhs, single.rhs, rtol=1e-10)


class TestSolveSpd:
    def test_identity_system(self):
        system = SpdSystem(np.eye(2), np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(solve_spd(system), [[3.0], [4.0]])

    def test_diagonal_system(self):
        system = SpdSystem(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
        np.testing.assert_allclose(solve_spd(system), [[1.0], [2.0]])

    def test_matches_gaussian_elimination_oracle(self, rng):
        A = rng.standard_normal((5, 5))
        gram = A.T @ A + np.eye(5)
        rhs = rng.standard_normal((5, 2))
        beta = solve_spd(SpdSystem(gram, rhs))
        np.testing.assert_allclose(beta, gauss_solve(gram, rhs), atol=1e-10)

    def test_residual_bound(self, rng):
        for _ in range(20):
            L = int(rng.integers(2, 12))
            H = rng.standard_normal((30, L)) * 10
            gram = H.T @ H + np.eye(L)
            rhs = rng.standard_normal((L, 3))
            beta = solve_spd(SpdSystem(gram, rhs))
            resid = np.abs(gram @ beta - rhs).max()
            assert resid <= 1e-8 * max(1.0, np.abs(rhs).max())

    def test_keeps_its_checked_residual(self, rng):
        A = rng.standard_normal((6, 4))
        system = SpdSystem(A.T @ A + np.eye(4), rng.standard_normal((4, 2)))
        assert system.residual is None
        beta = solve_spd(system)
        assert system.residual == np.abs(system.gram @ beta - system.rhs).max()
        assert system.residual <= 1e-8 * max(1.0, np.abs(system.rhs).max())

    def test_ridge_shifted_gram_always_solvable(self, rng):
        # rank-deficient H: gram is singular without the shift, SPD with it
        for gamma in (0.1, 1.0, 100.0):
            H = np.outer(rng.standard_normal(10), rng.standard_normal(6))
            acc = accumulate_gram(H, None, rng.standard_normal((10, 2)))
            acc.add_ridge(gamma)
            solve_spd(acc)  # must not raise

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), 1e-320])
    def test_ridge_needs_a_finite_inverse(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive with a finite 1/gamma"):
            SpdSystem(np.zeros((2, 2)), np.zeros((2, 1))).add_ridge(gamma)

    def test_breakdown_names_pivot(self):
        gram = np.array([[1.0, 2.0], [2.0, 1.0]])  # positive diagonal, indefinite
        with pytest.raises(CholeskyError, match="pivot at index 1"):
            solve_spd(SpdSystem(gram, np.ones((2, 1))))

    def test_exactly_symmetric_gram_is_factored_as_is_and_left_unchanged(self, rng):
        acc = accumulate_gram(rng.standard_normal((9, 6)), None, rng.standard_normal((9, 2)))
        acc.add_ridge(1.0)
        assert np.array_equal(acc.gram, acc.gram.T)
        assert acc.symmetrized() is acc.gram
        before = acc.gram.copy()
        beta = solve_spd(acc)
        np.testing.assert_array_equal(acc.gram, before)
        assert acc.residual == np.abs(before @ beta - acc.rhs).max()

    def test_nearly_symmetric_gram_is_refused(self, rng):
        # Exact symmetry is a precondition of the solve: one ulp off is refused.
        A = rng.standard_normal((6, 4))
        gram = A.T @ A + np.eye(4)
        gram[0, 1] = np.nextafter(gram[0, 1], np.inf)
        with pytest.raises(ValueError, match="not exactly symmetric"):
            SpdSystem(gram, np.ones((4, 1))).symmetrized()
        with pytest.raises(ValueError, match="not exactly symmetric"):
            solve_spd(SpdSystem(gram, np.ones((4, 1))))

    def test_asymmetric_gram_rejected(self):
        gram = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            solve_spd(SpdSystem(gram, np.ones((2, 1))))

    def test_nan_rejected_on_accumulate(self):
        acc = accumulate_gram([[0.0, 1.0]], None, [[1.0]])
        for start in (acc, None):
            with pytest.raises(ValueError, match="NaN"):
                accumulate_gram([[np.nan, 1.0]], start, [[1.0]])


@pytest.mark.parametrize(
    "bound, dtype",
    [(0, np.float32), (2**24 - 1, np.float32), (2**24, np.float64), (2**53 - 1, np.float64),
     (2**53, np.int64), (2**63 - 1, np.int64), (2**63, None)],
)
def test_exact_dtype_limits(bound, dtype):
    assert exact_dtype(bound) is dtype


# Accumulates Grams over several shapes, block splits and memory orders; prints one line per
# Gram that is not exactly symmetric, or that symmetrized does not return as it is.
GRAM_SYMMETRY_SCRIPT = """
import numpy as np
from intelm.linalg import accumulate_gram
rng = np.random.default_rng(0)
for N, L in ((1, 1), (3, 2), (17, 9), (64, 33), (300, 200), (1000, 129), (2000, 300)):
    H, T = rng.standard_normal((N, L)) * 10, rng.standard_normal((N, 3))
    for block in (N, 97, 7):
        for order in ("C", "F"):
            acc = None
            for start in range(0, N, block):
                acc = accumulate_gram(np.array(H[start:start + block], order=order), acc, T[start:start + block])
            acc.add_ridge(1.0)
            if not (np.array_equal(acc.gram, acc.gram.T) and acc.symmetrized() is acc.gram):
                print(N, L, block, order)
print("done")
"""


def test_accumulated_gram_is_exactly_symmetric_across_blas_thread_counts():
    """symmetrized refuses an asymmetric Gram, so every Gram accumulate_gram forms must be
    exactly symmetric, whatever the shape, the block split or the BLAS thread count."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", GRAM_SYMMETRY_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        assert run.stdout == "done\n", f"asymmetric Grams at {threads} BLAS threads:\n{run.stdout}"
