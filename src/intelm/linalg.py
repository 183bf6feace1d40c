"""Dense linear algebra for closed-form training.

Streaming Gram accumulation (so the hidden matrix never has to be held in
memory at once) and a symmetric-positive-definite solve via Cholesky. The
first block's products start the system, so training holds one L x L Gram
next to one block.
Everything is float64 row-major; shapes are explicit and checked.
exact_dtype is the one rule for exact integer products. FloatKernel is
the one exact projection of integer rows through integer W, for
training, the float scorer and the integer classifier: W cast to
exact_dtype of the rows' partial-sum bound, in which a GEMM rounds
nothing, whatever order BLAS sums in. Every projection casts W again
into arrays of its own, freed on return, so a kernel holds no float W
and takes no lock. A call whose rows' inputs and outputs each fit a
quarter of BUILD_BLOCK_BYTES casts W in blocks of its rows of that size
into one buffer and sums their products with the matching columns of
the rows while each block is in cache; every running sum is again a
subset sum, so this is exact too. Any other call casts W once and
projects BLOCK_ROWS rows at a time through two reused buffers, so
neither a cast copy of all rows nor the whole float projection exists.

The solve is the package's only use of scipy: LAPACK's dpotrf and dpotrs,
from the extension module scipy.linalg._flapack. load_lapack loads that
extension alone on the first call, never the scipy.linalg package, so a
process that only loads models and classifies never loads scipy and one
that trains loads only what the solve runs.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Each dtype with the magnitude below which it holds every integer exactly.
EXACT_INTEGER_LIMITS = ((np.float32, 2**24), (np.float64, 2**53), (np.int64, 2**63))
# Bytes of float W a few-row FloatKernel projection casts per block: half of a common 1 MB L2.
BUILD_BLOCK_BYTES = 512 * 1024
# Rows per block of every other FloatKernel projection, and of its two buffers.
BLOCK_ROWS = 128


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


@dataclass(frozen=True, eq=False)
class FloatKernel:
    """Integer W (a model's read-only int8 W) and the exact_dtype of its rows' bound; nothing else is kept."""

    ternary: np.ndarray  # (n, L) integer
    dtype: np.dtype

    @property
    def shape(self) -> tuple[int, int]:
        return self.ternary.shape

    def blocks(self, X: np.ndarray):
        """Yield (rows, P) over the 2-D integer rows X: P is X[rows] @ W, exact in dtype, valid until the next yield."""
        (n, L), size, N = self.ternary.shape, self.dtype.itemsize, X.shape[0]
        # Past a quarter of the budget, re-reading P per W block, or casting all of X, costs more than it saves.
        if N * max(n, L) * size <= BUILD_BLOCK_BYTES // 4:
            X = X.astype(self.dtype, copy=False)
            step = max(1, BUILD_BLOCK_BYTES // (L * size))
            block = np.empty((min(n, step), L), self.dtype)
            P = np.zeros((N, L), self.dtype)
            for start in range(0, n, step):
                W = block[: min(step, n - start)]
                W[...] = self.ternary[start : start + step]
                P += X[:, start : start + step] @ W
            yield slice(0, N), P
            return
        W = self.ternary.astype(self.dtype)
        most = min(N, BLOCK_ROWS)
        x_block, p_block = np.empty((most, n), self.dtype), np.empty((most, L), self.dtype)
        for start in range(0, N, BLOCK_ROWS):
            rows = slice(start, min(start + BLOCK_ROWS, N))
            x, P = x_block[: rows.stop - start], p_block[: rows.stop - start]
            np.copyto(x, X[rows])
            yield rows, np.matmul(x, W, out=P)

    def project(self, X: np.ndarray) -> np.ndarray:
        """The exact int64 product X @ W, for one row or rows X whose every partial sum is exact in dtype."""
        (n, L), out = self.shape, np.empty(X.shape[:-1] + self.shape[1:], np.int64)
        for rows, P in self.blocks(X.reshape(-1, n)):
            out.reshape(-1, L)[rows] = P
        return out


LAPACK_MODULE = "scipy.linalg._flapack"
_lapack_lock = threading.Lock()


def load_lapack():
    """scipy's LAPACK extension, scipy.linalg._flapack, loaded alone on the first call.

    The scipy.linalg package would add 26 MB resident, 85 scipy modules and
    0.18 s; the extension alone adds 3.3 MB, 11 modules and 0.013 s (2-core
    host, after `import intelm.cli`). It is registered under its own name,
    so a later `import scipy.linalg` reuses it. A trainer calls this before
    it allocates its large arrays, so that the load's transient allocations
    do not add to their peak. The lock makes concurrent first calls load it
    once. ImportError, naming the directory searched, if the file is missing.
    """
    with _lapack_lock:
        module = sys.modules.get(LAPACK_MODULE)
        if module is not None:
            return module
        import scipy  # a light init: sets up the paths of scipy's bundled libraries

        directory = Path(scipy.__file__).parent / "linalg"
        paths = (directory / f"_flapack{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES)
        path = next((path for path in paths if path.is_file()), None)
        if path is None:
            raise ImportError(f"no LAPACK extension _flapack in {directory}", name=LAPACK_MODULE)
        spec = importlib.util.spec_from_file_location(LAPACK_MODULE, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[LAPACK_MODULE] = module
        return module


@dataclass
class SpdSystem:
    """Normal-equation accumulator: gram (L x L, symmetric) and rhs (L x m).

    residual is set by solve_spd: the max-abs residual of the solved system.
    """

    gram: np.ndarray
    rhs: np.ndarray
    residual: float | None = None

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


def accumulate_gram(row_block, acc: SpdSystem | None, target_block) -> SpdSystem:
    """Fold a block of rows into the accumulator, or start one from the block when acc is None.

    acc.gram += block^T block, acc.rhs += block^T targets. The block has
    acc.size columns; targets have the same row count as the block. A new
    system is block^T block and block^T targets plus 0.0, in place: x + 0.0
    is 0.0 + x bit for bit (-0.0 becomes +0.0), so it equals folding the
    block into zeros without allocating them.
    """
    block = as_matrix(row_block, "row_block")
    targets = as_matrix(target_block, "target_block")
    if targets.shape[0] != block.shape[0]:
        raise DimensionError(
            f"target_block has {targets.shape[0]} rows, row_block has {block.shape[0]}"
        )
    if acc is None:
        acc = SpdSystem(block.T @ block, block.T @ targets)
        acc.gram += 0.0
        acc.rhs += 0.0
        return acc
    if block.shape[1] != acc.size:
        raise DimensionError(
            f"row_block has {block.shape[1]} columns, accumulator expects {acc.size}"
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
    # dpotrf factors this F-ordered copy in place; the residual reads gram. As gram ==
    # gram.T exactly, the copy is of gram.T, already F-ordered: a memcpy, not a transpose.
    factor, info = lapack.dpotrf(np.array(gram.T, order="F"), lower=1, overwrite_a=1)
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
