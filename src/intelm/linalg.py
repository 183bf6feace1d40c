"""Dense linear algebra for closed-form training.

Streaming Gram accumulation (so the hidden matrix never has to be held in
memory at once) into the normal equations (gram, rhs), started by the
first block's products, and their ridge solve by Cholesky. Accumulation
holds one L x L Gram next to one block; the solve factors a copy with
I/gamma added, so it holds two L x L matrices (training's peak where L
exceeds the first block's rows) and leaves the Gram for another gamma.
A Gram is its lower triangle (LAPACK's convention): BLAS dsyrk forms only
that triangle of each block's product, blocks fold by adding triangles,
and the factor, the solve and the residual read nothing else.
Everything is float64, row-major but for dsyrk's column-major Gram;
shapes are explicit and checked.
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

Training is the package's only use of scipy: BLAS's dsyrk and dsymm and
LAPACK's dpotrf and dpotrs, from the extension modules scipy.linalg._fblas
and scipy.linalg._flapack. load_extension loads each alone on its first
call, never the scipy.linalg package, so a process that only loads models
and classifies never loads scipy and one that trains loads only what the
Gram and the solve run.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from intelm.data import check_range

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

    Means the Gram has a negative direction the ridge I/gamma does not
    lift (a Gram of real rows has none), or contains NaN/Inf.
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


BLAS_MODULE = "scipy.linalg._fblas"
LAPACK_MODULE = "scipy.linalg._flapack"
_load_lock = threading.Lock()


def load_extension(name: str):
    """scipy's BLAS or LAPACK extension, BLAS_MODULE or LAPACK_MODULE, loaded alone on the first call.

    The scipy.linalg package would add 26 MB resident, 85 scipy modules and
    0.18 s; _flapack alone adds 3.3 MB, 11 modules and 0.013 s, and _fblas
    1.2 MB, one module and 0.001 s more (2-core host, after `import
    intelm.cli`). Each is registered under its own name, so a later `import
    scipy.linalg` reuses it. A trainer calls this before it allocates its
    large arrays, so that the load's transient allocations do not add to
    their peak. The lock makes concurrent first calls load each once.
    ImportError, naming the directory searched, if the file is missing.
    """
    with _load_lock:
        module = sys.modules.get(name)
        if module is not None:
            return module
        import scipy  # a light init: sets up the paths of scipy's bundled libraries

        directory, stem = Path(scipy.__file__).parent / "linalg", name.rpartition(".")[2]
        paths = (directory / f"{stem}{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES)
        path = next((path for path in paths if path.is_file()), None)
        if path is None:
            raise ImportError(f"no extension {stem} in {directory}", name=name)
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
        return module


def accumulate_gram(row_block, acc: tuple | None, target_block) -> tuple[np.ndarray, np.ndarray]:
    """Fold a block of rows into the normal equations acc = (gram, rhs), or start them from the block when acc is None.

    gram (L x L) += block^T block, its lower triangle from dsyrk, and rhs
    (L x m) += block^T targets, both in place. The block has L columns;
    targets have the same row count as the block. New normal equations are
    the block's two products.
    """
    block = as_matrix(row_block, "row_block")
    targets = as_matrix(target_block, "target_block")
    if targets.shape[0] != block.shape[0]:
        raise DimensionError(
            f"target_block has {targets.shape[0]} rows, row_block has {block.shape[0]}"
        )
    if acc is not None:
        widths = (("row_block", block.shape[1], acc[0].shape[0]), ("target_block", targets.shape[1], acc[1].shape[1]))
        for name, got, expected in widths:
            if got != expected:
                raise DimensionError(f"{name} has {got} columns, accumulator expects {expected}")
    # block.T is F-ordered, so dsyrk reads it in place; its upper triangle comes back zero.
    gram = load_extension(BLAS_MODULE).dsyrk(1.0, block.T, lower=1)
    if acc is None:
        return gram, block.T @ targets
    total, rhs = acc
    total += gram
    rhs += block.T @ targets
    return acc


def solve_spd(gram: np.ndarray, rhs: np.ndarray, gamma: float) -> tuple[np.ndarray, float]:
    """Solve the ridge normal equations (gram + I/gamma) beta = rhs: (beta, its max-abs residual).

    gamma lies in data.RANGES. The system is gram's lower triangle: dpotrf
    factors a copy of it with I/gamma added, in place, so the solve holds
    gram and that factor, and writes neither gram nor rhs; one Gram serves
    any number of gammas. Raises CholeskyError naming the offending pivot
    if gram + I/gamma is not positive definite. The residual
    max |gram @ beta + beta/gamma - rhs| is checked against
    1e-8 * max(1, max |rhs|).
    """
    check_range("gamma", gamma)
    blas, lapack = load_extension(BLAS_MODULE), load_extension(LAPACK_MODULE)
    factor = np.array(gram, order="F")  # a memcpy of accumulate_gram's F-ordered gram
    factor[np.diag_indices_from(factor)] += 1.0 / gamma
    # clean=0: no pass zeroes the copy's strict upper triangle, which nothing reads.
    factor, info = lapack.dpotrf(factor, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise CholeskyError(pivot_index=info - 1)
    if info < 0:
        raise RuntimeError(f"dpotrf: illegal argument {-info}")
    beta, info = lapack.dpotrs(factor, rhs, lower=1)
    if info != 0:
        raise RuntimeError(f"dpotrs failed with info={info}")
    beta = np.ascontiguousarray(beta)
    residual = float(np.abs(blas.dsymm(1.0, gram, beta, 1.0, beta / gamma - rhs, lower=1)).max())
    bound = 1e-8 * max(1.0, float(np.abs(rhs).max()))
    if not residual <= bound:
        raise RuntimeError(f"solve residual {residual:.3e} exceeds bound {bound:.3e}")
    return beta, residual
