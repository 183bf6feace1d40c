"""Dense linear algebra for closed-form training.

Streaming Gram accumulation (so the hidden matrix never has to be held in
memory at once) and a symmetric-positive-definite solve via Cholesky.
Everything is float64 row-major; shapes are explicit and checked.
exact_dtype is the one rule for exact integer products, shared by the
training projection and the integer classifier's kernel.

The solve is the package's only use of scipy (LAPACK's dpotrf and
dpotrs). load_lapack imports it on first call, so a process that only
loads models and classifies never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Each dtype with the magnitude below which it holds every integer exactly.
EXACT_INTEGER_LIMITS = ((np.float32, 2**24), (np.float64, 2**53), (np.int64, 2**63))


class DimensionError(ValueError):
    """Shapes of the operands do not line up."""


class CholeskyError(RuntimeError):
    """Non-positive pivot during factorization.

    Usually means the ridge shift I/gamma was never added, or the input
    contained NaN/Inf.
    """

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"Cholesky breakdown: non-positive pivot at index {pivot_index}")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array, rejecting non-finite entries."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf")
    return m


def exact_dtype(bound: int) -> type | None:
    """Cheapest dtype whose GEMM is exact when every partial sum is at most bound.

    A float GEMM over integers rounds nothing, in any summation order, when
    every partial sum stays below the format's exact-integer limit (IEEE
    754): float32 below 2**24, float64 below 2**53, then int64 below 2**63.
    None when no fixed-width product is exact.
    """
    for dtype, limit in EXACT_INTEGER_LIMITS:
        if bound < limit:
            return dtype
    return None


def load_lapack():
    """scipy's LAPACK wrappers, imported on the first call.

    Importing scipy takes about 0.2 s and 27 MB of resident memory (2-core
    host), which only training needs. A trainer calls this before it
    allocates its large arrays, so that the import's transient allocations
    do not add to their peak. Python's import lock makes the first call
    thread-safe.
    """
    from scipy.linalg import lapack

    return lapack


@dataclass
class SpdSystem:
    """Normal-equation accumulator: gram (L x L, symmetric) and rhs (L x m).

    residual is set by solve_spd: the max-abs residual of the solved system.
    """

    gram: np.ndarray
    rhs: np.ndarray
    residual: float | None = None

    @classmethod
    def zeros(cls, size: int, targets: int) -> "SpdSystem":
        return cls(np.zeros((size, size)), np.zeros((size, targets)))

    @property
    def size(self) -> int:
        return self.gram.shape[0]

    def add_ridge(self, gamma: float) -> None:
        """Add the I/gamma shift that makes the system strictly positive definite."""
        if not gamma > 0 or np.isinf(1.0 / float(gamma)):
            raise ValueError(f"gamma must be positive with a finite 1/gamma, got {gamma}")
        self.gram[np.diag_indices(self.size)] += 1.0 / gamma

    def symmetrized(self) -> np.ndarray:
        """gram, once it is exactly symmetric with a positive diagonal; a ValueError otherwise.

        accumulate_gram's sums are (numpy forms block.T @ block from one triangle),
        and exact symmetry keeps dpotrf's result independent of the triangle it reads.
        """
        if not np.array_equal(self.gram, self.gram.T):
            raise ValueError("gram matrix is not exactly symmetric")
        if np.any(np.diag(self.gram) <= 0):
            raise ValueError("gram diagonal has non-positive entries (missing ridge shift?)")
        return self.gram


def accumulate_gram(row_block, acc: SpdSystem, target_block) -> SpdSystem:
    """Fold a block of rows into the accumulator.

    acc.gram += block^T block, acc.rhs += block^T targets. The block has
    acc.size columns; targets have the same row count as the block.
    """
    block = as_matrix(row_block, "row_block")
    targets = as_matrix(target_block, "target_block")
    if block.shape[1] != acc.size:
        raise DimensionError(
            f"row_block has {block.shape[1]} columns, accumulator expects {acc.size}"
        )
    if targets.shape[0] != block.shape[0]:
        raise DimensionError(
            f"target_block has {targets.shape[0]} rows, row_block has {block.shape[0]}"
        )
    if targets.shape[1] != acc.rhs.shape[1]:
        raise DimensionError(
            f"target_block has {targets.shape[1]} columns, accumulator expects {acc.rhs.shape[1]}"
        )
    acc.gram += block.T @ block
    acc.rhs += block.T @ targets
    return acc


def solve_spd(system: SpdSystem) -> np.ndarray:
    """Solve gram @ beta = rhs by Cholesky factorization.

    Raises CholeskyError naming the offending pivot if the matrix is not
    positive definite. The max-abs residual |gram @ beta - rhs| is checked
    against 1e-8 * max(1, max |rhs|) and kept as system.residual.
    """
    lapack = load_lapack()
    gram = system.symmetrized()
    # dpotrf factors this F-ordered copy in place; the residual reads gram.
    factor, info = lapack.dpotrf(np.array(gram, order="F"), lower=1, overwrite_a=1)
    if info > 0:
        raise CholeskyError(pivot_index=info - 1)
    if info < 0:
        raise RuntimeError(f"dpotrf: illegal argument {-info}")
    beta, info = lapack.dpotrs(factor, np.asfortranarray(system.rhs), lower=1)
    if info != 0:
        raise RuntimeError(f"dpotrs failed with info={info}")
    beta = np.ascontiguousarray(beta)
    residual = float(np.abs(gram @ beta - system.rhs).max())
    bound = 1e-8 * max(1.0, float(np.abs(system.rhs).max()))
    system.residual = residual
    if not residual <= bound:
        raise RuntimeError(f"solve residual {residual:.3e} exceeds bound {bound:.3e}")
    return beta
