"""Dense linear algebra for closed-form training.

Streaming Gram accumulation (so the hidden matrix never has to be held in
memory at once) and a symmetric-positive-definite solve via Cholesky.
Everything is float64 row-major; shapes are explicit and checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack


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


@dataclass
class SpdSystem:
    """Normal-equation accumulator: gram (L x L, symmetric) and rhs (L x m)."""

    gram: np.ndarray
    rhs: np.ndarray

    @classmethod
    def zeros(cls, size: int, targets: int) -> "SpdSystem":
        return cls(np.zeros((size, size)), np.zeros((size, targets)))

    @property
    def size(self) -> int:
        return self.gram.shape[0]

    def add_ridge(self, gamma: float) -> None:
        """Add the I/gamma shift that makes the system strictly positive definite."""
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        self.gram[np.diag_indices(self.size)] += 1.0 / gamma

    def check(self, rtol: float = 1e-12) -> None:
        scale = max(1.0, float(np.abs(self.gram).max()))
        if np.abs(self.gram - self.gram.T).max() > rtol * scale:
            raise ValueError("gram matrix is not symmetric")
        if np.any(np.diag(self.gram) <= 0):
            raise ValueError("gram diagonal has non-positive entries (missing ridge shift?)")


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
    positive definite.
    """
    system.check()
    # Exact symmetry keeps dpotrf's result independent of which triangle it reads.
    gram = 0.5 * (system.gram + system.gram.T)
    factor, info = lapack.dpotrf(gram, lower=1)
    if info > 0:
        raise CholeskyError(pivot_index=info - 1)
    if info < 0:
        raise RuntimeError(f"dpotrf: illegal argument {-info}")
    beta, info = lapack.dpotrs(factor, np.asfortranarray(system.rhs), lower=1)
    if info != 0:
        raise RuntimeError(f"dpotrs failed with info={info}")
    beta = np.ascontiguousarray(beta)
    residual = np.abs(gram @ beta - system.rhs).max()
    bound = 1e-8 * max(1.0, float(np.abs(system.rhs).max()))
    if residual > bound:
        raise RuntimeError(f"solve residual {residual:.3e} exceeds bound {bound:.3e}")
    return beta
