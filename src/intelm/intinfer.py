"""Integer-only classification path.

Raw integer signals are projected through ternary weights (additions and
subtractions only), passed through integer ReLU, and accumulated against
integer output weights; the argmax is taken on exact integer scores.
Overflow is excluded up front by a headroom check on the model, never
detected (or missed) at inference time.

The rows projected are data.integer_rows of the raw samples under the
model's recorded preprocessing: x, or n*x - sum(x) under zero_mean, the
same integer rows training scaled. Every partial sum of z.w over ternary
w is a subset sum of the +/-z_j, so its magnitude is at most
hidden_bound(n, input_range, centred), and the model projects through
linalg.FloatKernel, training's exact projection, in exact_dtype of that
bound: float32 under 2**24, float64 otherwise (the proof caps it at
2**31 - 1).

An uncentred model whose columns are narrow enough packs three of them
into each float64 word instead (PackedKernel), so one dgemv reads a
third less memory than the float32 W. Over the input box every subset
sum of column j lies in [a_j, b_j]; with B = 2**k > max_j (b_j - a_j),
each partial sum BLAS forms of a word is an integer of magnitude at most
max_j max(b_j, -a_j) * (1 + B + B**2), and where that is below 2**53 it
is exact. Adding sum_d B**d * (-a_d) makes every base-B digit of the
result lie in [0, B), so shifts and masks recover the three columns.
The columns are counted only where one of the ternary generator's
density would pack, so a wide model pays no pass over W; b_j is
hidden_bound where they are not counted. The output layer takes
exact_dtype of max_k sum_j b_j * |v_jk|, which bounds every partial sum
of relu(z.W) @ v. A validated QuantizedModel chooses both on first use,
and its scores are bit-identical to the int64 reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from intelm.data import InputError, centred_rows_fit_int64, check_steps, integer_rows, reject_blank_rows
from intelm.elm import check_ternary, class_labels
from intelm.linalg import BUILD_BLOCK_BYTES, DimensionError, FloatKernel, exact_dtype  # noqa: F401 (re-exported)
from intelm.quantize import IntegerBeta

INT32_MAX = 2**31 - 1
INT64_MAX = 2**63 - 1


def hidden_bound(n: int, input_range: tuple[int, int], centred: bool = False) -> int:
    """Largest sum |z_j|, which bounds every partial sum of z.w over ternary w.

    The rows z of n in-range inputs x are x itself, with sum |x_j| at most
    n * max(|lo|, |hi|), or, centred, n*x - sum(x). Centred, z_j is the sum
    over k of x_j - x_k, and sum |z_j| (convex in x, so largest at a
    corner of the box) is 2*a*(n - a)*(hi - lo) with a inputs at hi and the
    rest at lo: at most 2 * floor(n/2) * ceil(n/2) * (hi - lo), attained.
    """
    lo, hi = int(input_range[0]), int(input_range[1])
    if centred:
        return 2 * (n // 2) * ((n + 1) // 2) * (hi - lo)
    return n * max(abs(lo), abs(hi))


def output_beta_limit(n: int, L: int, input_range: tuple[int, int], centred: bool = False) -> int:
    """Largest max |v| the proof admits: an i32 beta whose L * hidden_bound * max |v| fits in int64."""
    return min(INT32_MAX, INT64_MAX // max(1, L * hidden_bound(n, input_range, centred)))


def column_bounds(plus, minus, input_range: tuple[int, int]):
    """(b, -a) of ternary columns with these counts of +1 and -1 weights.

    Over the input box every subset sum of a column's terms z_i*w_i lies
    in [a, b], where b sums max(0, lo*w_i, hi*w_i) and a sums
    min(0, lo*w_i, hi*w_i): each +1 adds max(hi, 0) to b and max(-lo, 0)
    to -a, each -1 the reverse. b also bounds the column's ReLU output.
    """
    up, down = max(int(input_range[1]), 0), max(-int(input_range[0]), 0)
    return plus * up + minus * down, plus * down + minus * up


def packing_shift(width: int, magnitude: int) -> int | None:
    """k such that three columns pack exactly into float64 words of base B = 2**k, else None.

    width is the largest b - a of the columns and magnitude the largest
    max(b, -a). B is the least power of two above width; packing is exact
    when magnitude * (1 + B + B**2) is below 2**53.
    """
    k = width.bit_length()
    return k if magnitude * (1 + 2**k + 4**k) < 2**53 else None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _views_bytes(a: np.ndarray) -> bool:
    """Whether a's memory, through any chain of views, is an immutable bytes object."""
    while isinstance(a, np.ndarray):
        a = a.base
    return type(a) is bytes


@dataclass(frozen=True, eq=False)
class PackedKernel:
    """Ternary W, three columns to a float64 word, with the digits' offsets.

    For L padded with zero columns to 3w, word c holds columns c, c + w and
    c + 2w: words[:, c] = W[:, c] + B*W[:, c + w] + B**2*W[:, c + 2w]
    with B = 2**shift. bottom holds -a of each padded column, and offsets
    sum_d B**d * bottom[c + d*w] of each word, the bias that makes every
    digit of a projected word non-negative. Build it with pack.
    """

    words: np.ndarray  # (n, w) float64
    shift: int
    bottom: np.ndarray  # (3w,) int64
    offsets: np.ndarray  # (w,) int64
    L: int

    @classmethod
    def pack(cls, W: np.ndarray, top, bottom) -> PackedKernel | None:
        """Pack ternary W given its column_bounds, or None when packing_shift finds them too wide."""
        shift = packing_shift(int((top + bottom).max()), int(np.maximum(top, bottom).max()))
        if shift is None:
            return None
        n, L = W.shape
        w = -(-L // 3)
        padded = np.zeros((n, 3 * w), dtype=np.int8)
        padded[:, :L] = W
        words = padded[:, 2 * w :].astype(np.float64)
        for d in (1, 0):
            words *= 2**shift
            words += padded[:, d * w : (d + 1) * w]
        bottoms = np.zeros(3 * w, dtype=np.int64)
        bottoms[:L] = bottom
        offsets = bottoms[:w] + (bottoms[w : 2 * w] << shift) + (bottoms[2 * w :] << 2 * shift)
        return cls(_read_only(words), shift, _read_only(bottoms), _read_only(offsets), L)

    @property
    def shape(self) -> tuple[int, int]:
        return self.words.shape[0], self.L

    def project(self, X: np.ndarray) -> np.ndarray:
        """The exact int64 product X @ W, for rows X within the bounds the kernel was packed for."""
        w = self.words.shape[1]
        t = (X.astype(np.float64, copy=False) @ self.words).astype(np.int64)
        t += self.offsets
        mask = (1 << self.shift) - 1
        out = np.empty(t.shape[:-1] + (3 * w,), dtype=np.int64)
        np.bitwise_and(t, mask, out=out[..., :w])
        np.right_shift(t, self.shift, out=t)
        np.bitwise_and(t, mask, out=out[..., w : 2 * w])
        np.right_shift(t, self.shift, out=out[..., 2 * w :])
        out -= self.bottom
        return out[..., : self.L]


class HeadroomError(ValueError):
    """Declared input range could overflow the fixed accumulator widths."""


@dataclass
class OpCounter:
    """Instruction counter for the audited reference path."""

    int_adds: int = 0
    int_muls: int = 0
    float_ops: int = 0


@dataclass(frozen=True)
class QuantizedModel:
    """Ternary input weights plus integer output weights.

    input_range is the declared (lo, hi) of raw sample values, and
    metadata["preprocessing"] the steps training applied; the headroom
    check below proves that the integer rows of in-range inputs are exact
    int64 and that the 32-bit hidden accumulator and the 64-bit output
    accumulator cannot overflow for them.
    ternary_weights, int_beta.values and steps are kept as private copies
    (read-only int8 and int64, and a tuple), so no caller can change W,
    beta or the rows behind the proof. The one exception is an int8 W
    whose memory is an immutable bytes object, such as load_model's view
    of the bytes it read: nothing can write through it, so it is kept
    as it is. kernel_weights and output_weights are the kernels int_scores
    scores through, chosen from the proven bounds (see the module
    docstring) on first use; a model replace() makes chooses its own.
    """

    ternary_weights: np.ndarray  # (n, L) int8 in {-1, 0, 1}
    int_beta: IntegerBeta  # values (L, m)
    input_range: tuple[int, int] = (0, 255)
    seed: int = 0
    metadata: dict = field(default_factory=dict)
    steps: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_ternary(self.ternary_weights)
        W = self.ternary_weights
        if not (W.dtype == np.int8 and _views_bytes(W)):
            W = _read_only(W.astype(np.int8))
        if self.int_beta.values.shape[0] != W.shape[1]:
            raise DimensionError(
                f"int beta has {self.int_beta.values.shape[0]} rows, "
                f"weights have {W.shape[1]} columns"
            )
        if min(self.n, self.L, self.m) < 1:
            raise DimensionError(f"model has an empty dimension: n={self.n}, L={self.L}, m={self.m}")
        lo, hi = self.input_range
        if lo > hi:
            raise ValueError(f"input range ({lo}, {hi}) has lo > hi")
        values = self.int_beta.values.astype(np.int64)
        values.setflags(write=False)
        # Frozen: reassigning a field would bypass the proof the kernel rests on.
        object.__setattr__(self, "ternary_weights", W)
        object.__setattr__(self, "int_beta", replace(self.int_beta, values=values))
        object.__setattr__(self, "steps", check_steps(self.metadata.get("preprocessing", [])))
        self.validate_headroom()

    @property
    def _kernels(self) -> tuple[PackedKernel | FloatKernel, np.ndarray]:
        # setdefault publishes the first choice, so concurrent first callers share one kernel;
        # functools.cached_property has no lock from Python 3.12.
        kernels = self.__dict__.get("_kernel_pair")
        if kernels is None:
            kernels = self.__dict__.setdefault("_kernel_pair", self._choose_kernels())
        return kernels

    def _choose_kernels(self) -> tuple[PackedKernel | FloatKernel, np.ndarray]:
        hidden = hidden_bound(self.n, self.input_range, self.centred)
        W, top, kernel = self.ternary_weights, np.full(self.L, hidden), None
        # Count the columns only where one of the ternary generator's density,
        # a third +1 and a third -1, would pack.
        third, _ = column_bounds(self.n // 3, self.n // 3, self.input_range)
        if not self.centred and packing_shift(2 * third, third) is not None:
            nonzero, net = np.abs(W).sum(axis=0), W.sum(axis=0)
            top, bottom = column_bounds((nonzero + net) // 2, (nonzero - net) // 2, self.input_range)
            kernel = PackedKernel.pack(W, top, bottom)
        if kernel is None:
            kernel = FloatKernel(W, np.dtype(exact_dtype(hidden)))
        V = self.int_beta.values  # every partial sum of relu(z.W) @ v is within top @ |v|
        return kernel, _read_only(V.astype(exact_dtype(int((top @ np.abs(V)).max())), copy=False))

    @property
    def kernel_weights(self) -> PackedKernel | FloatKernel:
        return self._kernels[0]

    @property
    def output_weights(self) -> np.ndarray:
        return self._kernels[1]

    @property
    def n(self) -> int:
        return self.ternary_weights.shape[0]

    @property
    def L(self) -> int:
        return self.ternary_weights.shape[1]

    @property
    def m(self) -> int:
        return self.int_beta.values.shape[1]

    @property
    def centred(self) -> bool:
        return "zero_mean" in self.steps

    def validate_headroom(self) -> None:
        hidden = hidden_bound(self.n, self.input_range, self.centred)
        if hidden > INT32_MAX:
            raise HeadroomError(
                f"hidden accumulator can reach {hidden} > {INT32_MAX} "
                f"(n={self.n}, input range {self.input_range}, steps {list(self.steps)})"
            )
        lo, hi = self.input_range
        if self.centred and not centred_rows_fit_int64(self.n, max(abs(lo), abs(hi))):
            # integer_rows would centre such inputs in float64, which can round a row to zero.
            raise HeadroomError(
                f"centred rows of inputs in {self.input_range} can leave int64 (n={self.n})"
            )
        max_beta = self.int_beta.max_abs
        limit = output_beta_limit(self.n, self.L, self.input_range, self.centred)
        if max_beta > limit:
            raise HeadroomError(
                f"max |beta| = {max_beta} > {limit}, the limit of i32 beta and the output accumulator "
                f"(L={self.L}, hidden bound {hidden})"
            )


def _check_sample(model: QuantizedModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.integer):
        raise InputError(f"integer path requires integer samples, got dtype {x.dtype}")
    if x.ndim not in (1, 2):
        raise DimensionError(f"expected one sample or a matrix of rows, got shape {x.shape}")
    if x.shape[-1] != model.n:
        raise DimensionError(f"sample has {x.shape[-1]} values, model expects {model.n}")
    lo, hi = model.input_range
    if x.size and (x.min() < lo or x.max() > hi):
        raise InputError(
            f"sample values in [{x.min()}, {x.max()}] violate declared range [{lo}, {hi}]"
        )
    return x


def ternary_project(W, X) -> np.ndarray:
    """Project one integer sample, or each row of X, through a ternary kernel, exactly.

    Contractually this is per-column add/subtract/skip selection with no
    general multiply; the audited reference is ternary_project_counted and
    this vectorized form is integer-exact and produces identical results.

    W is a kernel, and the product is returned as int64. A FloatKernel
    takes BLAS sgemv/sgemm or dgemv/dgemm, exact only when every subset sum
    of |x_j| is below 2**24 (float32) or 2**53 (float64). A PackedKernel
    takes one dgemv/dgemm over its words, exact only within the column
    bounds it was packed for, and splits each word into its three columns
    with int64 shifts and masks. Pass a kernel only as a validated
    QuantizedModel's kernel_weights, with in-range X; any other W is an
    InputError.
    """
    if not isinstance(W, (PackedKernel, FloatKernel)):
        raise InputError(f"ternary_project takes a kernel, got {type(W).__name__}")
    X = np.asarray(X)
    if X.shape[-1] != W.shape[0]:
        raise DimensionError(f"sample has {X.shape[-1]} values, weights expect {W.shape[0]}")
    return W.project(X)


def relu_int(v) -> np.ndarray:
    """Entrywise max(0, .) on integers."""
    v = np.asarray(v)
    if not np.issubdtype(v.dtype, np.integer):
        raise InputError(f"relu_int requires integers, got dtype {v.dtype}")
    return np.maximum(v, 0)


def int_scores(model: QuantizedModel, X) -> np.ndarray:
    """Exact integer class scores, (m,) for one raw sample or (N, m) for the rows of X."""
    Z = integer_rows(_check_sample(model, X), model.steps)
    H = relu_int(ternary_project(model.kernel_weights, Z))
    V = model.output_weights
    return (H.astype(V.dtype, copy=False) @ V).astype(np.int64, copy=False)


def _one_sample(x, caller: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1:
        raise DimensionError(f"{caller} takes one sample, got shape {x.shape}")
    return x


def classify_int(model: QuantizedModel, x) -> int:
    """Predicted class of a raw integer sample, scored as a vector (gemv, not a one-row gemm).

    Ties break to the lowest index; a blank sample is an InputError, as in classify_int_batch.
    """
    x = _one_sample(x, "classify_int")
    label = int(np.argmax(int_scores(model, x)))
    reject_blank_rows(x, model.steps)
    return label


def classify_int_batch(model: QuantizedModel, X) -> np.ndarray:
    """Classify each row of an integer sample matrix (one 1-D sample is one row), checked by elm.class_labels."""
    X = np.asarray(X)
    X = X[None] if X.ndim == 1 else X
    return class_labels(model, X, int_scores(model, X))


# --- audited reference path ------------------------------------------------
#
# Pure-Python integer implementations that thread an OpCounter through
# every arithmetic step. Tests assert float_ops == 0 everywhere and
# int_muls == 0 in the input projection, and that results match the
# vectorized path exactly.


def ternary_project_counted(W, x, counter: OpCounter) -> list[int]:
    W = np.asarray(W)
    n, L = W.shape
    xs = [int(v) for v in x]
    out = []
    for i in range(L):
        acc = 0
        col = W[:, i]
        for j in range(n):
            w = int(col[j])
            if w == 1:
                acc += xs[j]
                counter.int_adds += 1
            elif w == -1:
                acc -= xs[j]
                counter.int_adds += 1
        out.append(acc)
    return out


def classify_int_counted(model: QuantizedModel, x, counter: OpCounter) -> int:
    x = _check_sample(model, _one_sample(x, "classify_int_counted"))
    reject_blank_rows(x, model.steps)
    xs = [int(v) for v in x]
    if model.centred:  # n*x - sum(x), one multiply per input
        total = 0
        for v in xs:
            total += v
            counter.int_adds += 1
        xs = [len(xs) * v - total for v in xs]
        counter.int_muls += len(xs)
        counter.int_adds += len(xs)
    h = ternary_project_counted(model.ternary_weights, xs, counter)
    h = [v if v > 0 else 0 for v in h]
    beta = model.int_beta.values
    best_class, best_score = 0, None
    for k in range(model.m):
        acc = 0
        for i in range(model.L):
            acc += int(beta[i, k]) * h[i]
            counter.int_muls += 1
            counter.int_adds += 1
        if best_score is None or acc > best_score:
            best_class, best_score = k, acc
    return best_class
