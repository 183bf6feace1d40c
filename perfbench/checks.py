"""Reference computations made apart from the program under test.

Nothing here imports intelm. Model files are parsed from the IELM layout
documented in ``intelm.modelio``; expected labels and scores are recomputed
with numpy and with Python integers. Every check raises ``CheckFailed``
with a one-line reason.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IELM_MAGIC = b"IELM"
IELM_HEADER = struct.Struct("<4sIIIIdBBQ")
IELM_INT_EXTRA = struct.Struct("<dIqq")
IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
INT8_WEIGHT_CODES = (1, 2)  # ternary, pm1

# Float64 represents every integer below 2**53 exactly, so a matrix product
# whose partial sums stay below it is exact whatever the summation order.
FLOAT64_EXACT = 2**53
INT64_MAX = 2**63 - 1


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# --- files -------------------------------------------------------------------


def write_idx_images(path, images: np.ndarray) -> None:
    """IDX image file of a (count, rows, cols) u8 array."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">4I", IDX_IMAGES_MAGIC, *images.shape))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">2I", IDX_LABELS_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


@dataclass
class IelmFile:
    n: int
    L: int
    m: int
    gamma: float
    weight_code: int
    integer: bool
    seed: int
    tau: float | None
    ladder_step: int | None
    input_range: tuple[int, int] | None
    metadata: dict
    W: np.ndarray  # (n, L) int8 or float64
    beta: np.ndarray  # (L, m) int64 or float64


def read_ielm(path) -> IelmFile:
    """Parse an IELM model file; any deviation from the layout fails the check."""
    blob = Path(path).read_bytes()
    pos = 0

    def take(size: int, what: str) -> bytes:
        nonlocal pos
        require(pos + size <= len(blob), f"model file truncated in {what}")
        chunk = blob[pos : pos + size]
        pos += size
        return chunk

    magic, version, n, L, m, gamma, wcode, bcode, seed = IELM_HEADER.unpack(
        take(IELM_HEADER.size, "header")
    )
    require(magic == IELM_MAGIC and version == 1, f"bad IELM header {magic!r} v{version}")
    require(bcode in (0, 1) and wcode in (0, 1, 2, 3), f"bad kind codes {wcode}/{bcode}")
    tau = ladder_step = input_range = None
    if bcode == 1:
        tau, ladder_step, lo, hi = IELM_INT_EXTRA.unpack(take(IELM_INT_EXTRA.size, "int header"))
        input_range = (lo, hi)
    (prng_len,) = struct.unpack("<I", take(4, "prng length"))
    take(prng_len, "prng id")
    (meta_len,) = struct.unpack("<I", take(4, "metadata length"))
    metadata = json.loads(take(meta_len, "metadata") or b"{}")
    if wcode in INT8_WEIGHT_CODES:
        W = np.frombuffer(take(n * L, "weights"), dtype=np.int8).reshape(n, L)
    else:
        W = np.frombuffer(take(8 * n * L, "weights"), dtype="<f8").reshape(n, L)
    if bcode == 1:
        beta = np.frombuffer(take(4 * L * m, "beta"), dtype="<i4").reshape(L, m).astype(np.int64)
    else:
        beta = np.frombuffer(take(8 * L * m, "beta"), dtype="<f8").reshape(L, m)
    require(pos == len(blob), f"{len(blob) - pos} trailing bytes in model file")
    return IelmFile(
        n, L, m, gamma, wcode, bcode == 1, seed, tau, ladder_step, input_range, metadata, W, beta
    )


# --- reference scores --------------------------------------------------------


def l2_normalize(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def hidden_int(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Exact relu(X @ W) of integer samples and ternary weights, as int64.

    Computed with float64 BLAS, which is exact here because every partial
    sum is an integer bounded by n * max|x|.
    """
    X = np.atleast_2d(X)
    bound = W.shape[0] * int(np.abs(X).max(initial=0))
    require(bound < FLOAT64_EXACT, f"hidden bound {bound} too wide for the exact reference")
    H = np.asarray(X, dtype=np.float64) @ np.asarray(W, dtype=np.float64)
    return np.maximum(H, 0.0).astype(np.int64)


def int_scores_batch(W: np.ndarray, V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Exact integer class scores relu(X W) V for a batch of raw samples."""
    H = hidden_int(W, X)
    bound = W.shape[1] * int(H.max(initial=0)) * int(np.abs(V).max(initial=0))
    if bound <= INT64_MAX:
        return H @ np.asarray(V, dtype=np.int64)
    return H.astype(object) @ np.asarray(V).astype(object)


def int_scores_pyint(W: np.ndarray, V: np.ndarray, x: np.ndarray) -> list[int]:
    """Exact class scores of one sample: int64 projection, Python-int output layer."""
    h = np.maximum(np.asarray(x, dtype=np.int64) @ np.asarray(W, dtype=np.int64), 0).tolist()
    V = np.asarray(V).tolist()
    return [sum(row[k] * hi for row, hi in zip(V, h) if hi) for k in range(len(V[0]))]


def lowest_argmax(scores) -> int:
    """Index of the first maximal score."""
    best = 0
    for k, s in enumerate(scores):
        if s > scores[best]:
            best = k
    return best


def float_scores(W: np.ndarray, beta: np.ndarray, X_raw: np.ndarray) -> np.ndarray:
    """Float64 scores of the float model on l2-normalized samples."""
    H = np.maximum(l2_normalize(X_raw) @ np.asarray(W, dtype=np.float64), 0.0)
    return H @ np.asarray(beta, dtype=np.float64)


def float_model_check(W, beta, X_raw, labels, tau: float, ladder_step: int = 0):
    """The float model's labels, and which integer `labels` it admits.

    With ternary W, the float model's scores on a normalized sample are
    s_f = relu(x W) beta / ||x||, and the integer scores are s = relu(x W) V.
    The quantizer keeps every |v*tau - beta| within e, so
    |s_f[k] - tau*s[k]/||x||| <= e * sum(relu(x W)) / ||x|| = d, and an
    integer argmax j has s_f[j] >= max(s_f) - 2d. A label that falls short
    of this is not the integer argmax of any beta the quantizer may give.
    Returns the float argmax and, per sample, whether its label is admitted.
    """
    X = np.atleast_2d(X_raw)
    S = float_scores(W, beta, X)
    H = hidden_int(W, X) / np.linalg.norm(X.astype(np.float64), axis=1)[:, None]
    d = quantizer_error_bound(tau, ladder_step) * H.sum(axis=1)
    rounding = 1e-9 * (H @ np.abs(beta)).max(axis=1)
    labels = np.asarray(labels)
    admitted = S[np.arange(labels.size), labels] >= S.max(axis=1) - 2.0 * d - rounding
    return np.argmax(S, axis=1), admitted


# --- model properties --------------------------------------------------------


def quantizer_error_bound(tau: float, ladder_step: int = 0) -> float:
    """Largest |v*tau - beta| the quantizer allows `ladder_step` rungs down."""
    return tau * (1.0 - 2.0 ** -(ladder_step + 1))


def check_quantizer(beta: np.ndarray, V: np.ndarray, tau: float, ladder_step: int = 0) -> None:
    """Properties of integer beta V at scale tau, `ladder_step` rungs down.

    tau / 2**ladder_step is the minimum nonzero |beta|. At rung 0 that entry
    maps to +-1 with beta's sign and every |v*tau - beta| <= tau/2. Each
    rung halves and rounds again, so at rung k the error is at most
    tau * (1 - 2**-(k+1)). Float rounding gets a slack of 1e-12 |beta|.
    """
    require(V.shape == beta.shape, f"int beta shape {V.shape} != beta shape {beta.shape}")
    nz = np.flatnonzero(beta != 0.0)
    require(nz.size > 0, "beta is all zero")
    mags = np.abs(beta.ravel()[nz])
    k = nz[int(np.argmin(mags))]
    tau0 = tau / 2.0**ladder_step
    require(tau0 == float(mags.min()), f"tau {tau!r} at rung {ladder_step} != min |beta| {float(mags.min())!r}")
    if ladder_step == 0:
        require(
            int(V.ravel()[k]) == int(np.sign(beta.ravel()[k])),
            f"min-magnitude entry maps to {int(V.ravel()[k])}, not +-1",
        )
    bound = quantizer_error_bound(tau, ladder_step)
    err = np.abs(V.astype(np.float64) * tau - beta)
    require(bool(np.all(err <= bound + 1e-12 * np.abs(beta))),
            f"|v*tau - beta| up to {err.max():.3e} > {bound:.3e} at rung {ladder_step}")


def normal_equation_residual(
    X_raw: np.ndarray, labels: np.ndarray, W: np.ndarray, beta: np.ndarray, gamma: float
) -> float:
    """max|(H^T H + I/gamma) beta - H^T T| / max(1, max|H^T T|), recomputed."""
    H = np.maximum(l2_normalize(X_raw) @ np.asarray(W, dtype=np.float64), 0.0)
    T = np.zeros((labels.size, beta.shape[1]))
    T[np.arange(labels.size), labels] = 1.0
    rhs = H.T @ T
    lhs = H.T @ (H @ beta) + beta / gamma
    return float(np.abs(lhs - rhs).max() / max(1.0, float(np.abs(rhs).max())))
