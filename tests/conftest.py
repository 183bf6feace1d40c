"""Shared oracles and builders for the test suite.

Oracles are deliberately naive (triple loops, Gaussian elimination) and
independent of the library code paths they check.
"""

import numpy as np
import pytest

from intelm.data import synthetic_textures
from intelm.elm import FloatModel, gen_weights_ternary
from intelm.intinfer import FloatKernel, PackedKernel, QuantizedModel
from intelm.quantize import IntegerBeta
from intelm.seeding import make_rng


def naive_matmul(A, B):
    """Triple-loop matrix product."""
    A, B = np.asarray(A), np.asarray(B)
    out = np.zeros((A.shape[0], B.shape[1]))
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            s = 0.0
            for k in range(A.shape[1]):
                s += A[i, k] * B[k, j]
            out[i, j] = s
    return out


def gauss_solve(A, B):
    """Gaussian elimination with partial pivoting, no library solver."""
    A = np.asarray(A, dtype=np.float64).copy()
    B = np.atleast_2d(np.asarray(B, dtype=np.float64)).copy()
    if B.shape[0] != A.shape[0]:
        B = B.T.copy()
    n = A.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if A[pivot, col] == 0:
            raise ZeroDivisionError("singular matrix in oracle")
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            B[[col, pivot]] = B[[pivot, col]]
        for row in range(col + 1, n):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            B[row] -= f * B[col]
    X = np.zeros_like(B)
    for row in range(n - 1, -1, -1):
        X[row] = (B[row] - A[row, row + 1 :] @ X[row + 1 :]) / A[row, row]
    return X


def int64_project(W, X):
    """X @ W in int64: the exact product of integer rows and integer weights."""
    return np.asarray(X).astype(np.int64) @ np.asarray(W).astype(np.int64)


def naive_hidden(W, X):
    """Loop evaluation of max(0, w_i . x_j)."""
    W, X = np.asarray(W, dtype=np.float64), np.asarray(X, dtype=np.float64)
    H = np.zeros((X.shape[0], W.shape[1]))
    for j in range(X.shape[0]):
        for i in range(W.shape[1]):
            H[j, i] = max(0.0, float(W[:, i] @ X[j]))
    return H


def random_float_model(rng, n=6, L=8, m=3, weight_kind="continuous"):
    if weight_kind == "continuous":
        W = rng.random((n, L))
    else:
        W = rng.integers(-1, 2, size=(n, L)).astype(np.int8)
    beta = rng.standard_normal((L, m))
    return FloatModel(
        input_weights=W, beta=beta, gamma=1.0, weight_kind=weight_kind, seed=int(rng.integers(1 << 30))
    )


def near_zero_beta_model() -> FloatModel:
    """4x3 ternary model whose beta has one entry near 1e-12.

    Such an entry comes from a hidden unit fed only by rounding noise.
    Scaling by it gives max |v| = 1e16 at rung 0: past the 64-bit output
    headroom at n=4, L=3 and past the file's i32 beta storage.
    """
    W = np.array([[1, -1, 0], [0, 1, 1], [-1, 0, 1], [1, 1, -1]], dtype=np.int8)
    beta = np.array([[1e4, -3.0], [2.5, 1e-12], [0.7, -40.0]])
    return FloatModel(input_weights=W, beta=beta, gamma=1.0, weight_kind="ternary", seed=3)


def random_quantized_model(rng, n=8, L=6, m=3, beta_max=50, input_range=(0, 255), steps=()):
    W = gen_weights_ternary(n, L, int(rng.integers(1 << 30)))
    values = rng.integers(-beta_max, beta_max + 1, size=(L, m)).astype(np.int64)
    if not values.any():
        values[0, 0] = 1
    return QuantizedModel(
        ternary_weights=W,
        int_beta=IntegerBeta(values=values, tau=float(rng.random()) + 0.1),
        input_range=input_range,
        seed=int(rng.integers(1 << 30)),
        metadata={"preprocessing": list(steps)},
    )


def kernel_form(model):
    """PackedKernel when the model's projection kernel packs W, else the dtype of its FloatKernel."""
    kernel = model.kernel_weights
    if isinstance(kernel, PackedKernel):
        return PackedKernel
    assert isinstance(kernel, FloatKernel)
    return kernel.dtype


@pytest.fixture
def rng():
    return make_rng(12345)


def write_texture_csvs(tmp_path, blank_test_row=None):
    """The texture task as labeled CSV files; a dataset spec without label_column reads them."""
    paths = {}
    for name, raw in zip(("train_path", "test_path"), synthetic_textures(count=30, size=64, seed=4)):
        rows = np.column_stack([raw.samples, raw.labels])
        if name == "test_path" and blank_test_row is not None:
            rows[blank_test_row, :-1] = 0
        header = ",".join([f"p{j}" for j in range(raw.n)] + ["label"])
        paths[name] = str(tmp_path / f"{name}.csv")
        np.savetxt(paths[name], rows, fmt="%d", delimiter=",", header=header, comments="")
    return {"kind": "csv", **paths}
