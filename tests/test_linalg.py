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
    accumulate_gram,
    exact_dtype,
    solve_spd,
)


class TestAccumulateGram:
    def test_zero_block_leaves_accumulator_unchanged(self):
        acc = accumulate_gram([[0.0]], None, [[0.0]])
        np.testing.assert_array_equal(acc[0], [[0.0]])
        np.testing.assert_array_equal(acc[1], [[0.0]])
        assert accumulate_gram([[0.0]], acc, [[0.0]]) is acc
        np.testing.assert_array_equal(acc[0], [[0.0]])
        np.testing.assert_array_equal(acc[1], [[0.0]])

    def test_identity_block(self):
        gram, rhs = accumulate_gram(np.eye(2), None, [[1.0], [0.0]])
        np.testing.assert_allclose(gram, np.eye(2))
        np.testing.assert_allclose(rhs, [[1.0], [0.0]])

    def test_matches_naive_matmul_oracle(self, rng):
        block = rng.standard_normal((8, 5))
        targets = rng.standard_normal((8, 2))
        gram, rhs = accumulate_gram(block, None, targets)
        np.testing.assert_allclose(np.tril(gram), np.tril(naive_matmul(block.T, block)), atol=1e-12)
        np.testing.assert_allclose(rhs, naive_matmul(block.T, targets), atol=1e-12)

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
        np.testing.assert_allclose(np.tril(streamed[0]), np.tril(single[0]), rtol=1e-10)
        np.testing.assert_allclose(streamed[1], single[1], rtol=1e-10)


def full_residual(gram, beta, gamma, rhs):
    """max |G beta + beta/gamma - rhs| for G the symmetric matrix of gram's lower triangle, summed as dsymm sums it."""
    lower = np.tril(gram)
    return np.abs((lower + np.tril(lower, -1).T) @ beta + (beta / gamma - rhs)).max()


class TestSolveSpd:
    """solve_spd(gram, rhs, gamma) solves (gram + I/gamma) beta = rhs; gamma = 1 with gram - I solves gram."""

    def test_identity_system(self):
        beta, _ = solve_spd(np.zeros((2, 2)), np.array([[3.0], [4.0]]), 1.0)
        np.testing.assert_allclose(beta, [[3.0], [4.0]])

    def test_diagonal_system(self):
        beta, _ = solve_spd(np.diag([1.0, 3.0]), np.array([[2.0], [8.0]]), 1.0)
        np.testing.assert_allclose(beta, [[1.0], [2.0]])

    def test_matches_gaussian_elimination_oracle(self, rng):
        A = rng.standard_normal((5, 5))
        gram = A.T @ A
        rhs = rng.standard_normal((5, 2))
        beta, _ = solve_spd(gram, rhs, 1.0)
        np.testing.assert_allclose(beta, gauss_solve(gram + np.eye(5), rhs), atol=1e-10)

    def test_residual_bound(self, rng):
        for _ in range(20):
            L = int(rng.integers(2, 12))
            H = rng.standard_normal((30, L)) * 10
            gram = H.T @ H
            rhs = rng.standard_normal((L, 3))
            beta, _ = solve_spd(gram, rhs, 1.0)
            resid = np.abs((gram + np.eye(L)) @ beta - rhs).max()
            assert resid <= 1e-8 * max(1.0, np.abs(rhs).max())

    def test_returns_its_checked_residual(self, rng):
        A = rng.standard_normal((6, 4))
        gram, rhs = A.T @ A, rng.standard_normal((4, 2))
        beta, residual = solve_spd(gram, rhs, 1.0)
        assert residual == np.abs(gram @ beta + (beta / 1.0 - rhs)).max()
        assert residual <= 1e-8 * max(1.0, np.abs(rhs).max())

    def test_ridge_shifted_gram_always_solvable(self, rng):
        # rank-deficient H: gram is singular without the shift, SPD with it
        for gamma in (0.1, 1.0, 100.0):
            H = np.outer(rng.standard_normal(10), rng.standard_normal(6))
            solve_spd(*accumulate_gram(H, None, rng.standard_normal((10, 2))), gamma)  # must not raise

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), 1e-320])
    def test_ridge_needs_a_finite_inverse(self, gamma):
        with pytest.raises(ValueError, match=r"gamma must be > 0 with gamma and 1/gamma finite, got"):
            solve_spd(np.zeros((2, 2)), np.zeros((2, 1)), gamma)

    def test_breakdown_names_pivot(self):
        gram = np.array([[0.0, 2.0], [2.0, 0.0]])  # ridged at gamma = 1: positive diagonal, indefinite
        with pytest.raises(CholeskyError, match="pivot at index 1"):
            solve_spd(gram, np.ones((2, 1)), 1.0)

    def test_gram_is_factored_as_is_and_left_unchanged(self, rng):
        gram, rhs = accumulate_gram(rng.standard_normal((9, 6)), None, rng.standard_normal((9, 2)))
        before, rhs_before = gram.copy(), rhs.copy()
        beta, residual = solve_spd(gram, rhs, 1.0)
        np.testing.assert_array_equal(gram, before)
        np.testing.assert_array_equal(rhs, rhs_before)
        assert residual == full_residual(before, beta, 1.0, rhs)

    def test_strict_upper_triangle_is_never_read(self, rng):
        # The system is its lower triangle: NaN above the diagonal changes no bit of beta or the residual.
        A = rng.standard_normal((12, 7))
        rhs = rng.standard_normal((7, 3))
        gram = A.T @ A
        hidden = gram.copy()
        hidden[np.triu_indices(7, 1)] = np.nan
        (beta, residual), (hidden_beta, hidden_residual) = solve_spd(gram, rhs, 1.0), solve_spd(hidden, rhs, 1.0)
        assert hidden_beta.tobytes() == beta.tobytes()
        assert hidden_residual == residual
        assert np.isnan(hidden[np.triu_indices(7, 1)]).all()  # nor written

    def test_nearly_symmetric_gram_is_solved_from_its_lower_triangle(self, rng):
        # One ulp off above the diagonal is not read, so it changes nothing.
        A = rng.standard_normal((6, 4))
        gram = A.T @ A
        nudged = gram.copy()
        nudged[0, 1] = np.nextafter(nudged[0, 1], np.inf)
        beta, _ = solve_spd(gram, np.ones((4, 1)), 1.0)
        assert solve_spd(nudged, np.ones((4, 1)), 1.0)[0].tobytes() == beta.tobytes()

    def test_asymmetric_gram_is_read_as_its_lower_triangle(self):
        gram = np.array([[0.0, 0.5], [0.0, 0.0]])  # its lower triangle is zero: the identity once ridged
        np.testing.assert_array_equal(solve_spd(gram, np.array([[3.0], [4.0]]), 1.0)[0], [[3.0], [4.0]])

    def test_nan_rejected_on_accumulate(self):
        acc = accumulate_gram([[0.0, 1.0]], None, [[1.0]])
        for start in (acc, None):
            with pytest.raises(ValueError, match="NaN"):
                accumulate_gram([[np.nan, 1.0]], start, [[1.0]])

    def test_zero_gram_diagonal_solves(self):
        # A dead hidden unit: its Gram row is zero, and the ridge alone makes its pivot 1/gamma.
        beta, residual = solve_spd(np.diag([0.0, 1.0]), np.ones((2, 1)), 0.5)
        np.testing.assert_allclose(beta, [[0.5], [1 / 3]], rtol=1e-15)
        assert residual <= 1e-8

    def test_negative_diagonal_the_ridge_does_not_lift_breaks_down_at_its_pivot(self):
        with pytest.raises(CholeskyError, match="pivot at index 1"):
            solve_spd(np.diag([1.0, -2.0]), np.ones((2, 1)), 1.0)


@pytest.mark.parametrize(
    "bound, dtype",
    [(0, np.float32), (2**24 - 1, np.float32), (2**24, np.float64), (2**53 - 1, np.float64),
     (2**53, np.int64), (2**63 - 1, np.int64), (2**63, None)],
)
def test_exact_dtype_limits(bound, dtype):
    assert exact_dtype(bound) is dtype


# Accumulates Grams over several shapes, block splits and memory orders; prints one line per
# Gram whose lower triangle differs in any bit from numpy's block.T @ block folded the same way.
GRAM_TRIANGLE_SCRIPT = """
import numpy as np
from intelm.linalg import accumulate_gram
rng = np.random.default_rng(0)
for N, L in ((1, 1), (3, 2), (17, 9), (64, 33), (300, 200), (1000, 129), (2000, 300)):
    H, T = rng.standard_normal((N, L)) * 10, rng.standard_normal((N, 3))
    for block in (N, 97, 7):
        for order in ("C", "F"):
            acc, reference = None, np.zeros((L, L))
            for start in range(0, N, block):
                rows = np.array(H[start:start + block], order=order)
                acc = accumulate_gram(rows, acc, T[start:start + block])
                reference += rows.T @ rows
            if np.tril(acc[0]).tobytes() != np.tril(reference).tobytes():
                print(N, L, block, order)
print("done")
"""


def test_accumulated_gram_lower_triangle_matches_numpy_across_blas_thread_counts():
    """dsyrk's lower triangle is numpy's block.T @ block's, bit for bit, whatever the shape, the
    block split or the BLAS thread count: so a model trained from it is the one numpy's full
    Gram gave."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", GRAM_TRIANGLE_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        assert run.stdout == "done\n", f"Grams that differ from numpy's at {threads} BLAS threads:\n{run.stdout}"
