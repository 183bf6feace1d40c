import itertools
import sys
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import audited_counts, int64_project, kernel_form, pyint_label, random_float_model, random_quantized_model
from intelm import data, intinfer
from intelm.data import integer_rows
from intelm.elm import (
    FloatModel,
    check_ternary,
    gen_weights_ternary,
    predict_float,
    predict_float_batch,
    scores_float,
)
from intelm.experiments import make_quantized
from intelm.intinfer import (
    BUILD_BLOCK_BYTES,
    INT32_MAX,
    INT64_MAX,
    FloatKernel,
    HeadroomError,
    InputError,
    OpCounter,
    PackedKernel,
    QuantizedModel,
    classify_int,
    classify_int_batch,
    classify_int_counted,
    hidden_bound,
    int_scores,
    output_beta_limit,
    relu_int,
    ternary_project,
    ternary_project_counted,
)
from intelm.linalg import DimensionError, exact_dtype
from intelm.modelio import load_model, save_model
from intelm.quantize import IntegerBeta
from intelm.seeding import make_rng


def float_twin(model: QuantizedModel) -> FloatModel:
    """Float-path model carrying the same integer weights."""
    return FloatModel(
        input_weights=model.ternary_weights,
        beta=model.int_beta.values.astype(np.float64),
        gamma=1.0,
        weight_kind="ternary",
        seed=model.seed,
        metadata=dict(model.metadata),
    )


def random_sample(rng, model, lo=0, hi=255):
    x = rng.integers(lo, hi + 1, size=model.n)
    if not x.any():
        x[0] = 1
    return x


class TestTernaryProject:
    def test_hand_sum(self):
        W = np.array([[1], [-1], [0]], dtype=np.int8)
        assert int64_project(W, np.array([5, 3, 100]))[0] == 2

    def test_all_zero_weights(self):
        W = np.zeros((3, 4), dtype=np.int8)
        np.testing.assert_array_equal(int64_project(W, np.array([9, 9, 9])), np.zeros(4))

    def test_matches_float_matvec_oracle(self, rng):
        for _ in range(20):
            W = rng.integers(-1, 2, size=(8, 4)).astype(np.int8)
            x = rng.integers(0, 256, size=8)
            expected = W.astype(np.float64).T @ x.astype(np.float64)
            np.testing.assert_array_equal(int64_project(W, x), expected)

    def test_counted_path_matches_vectorized(self, rng):
        W = rng.integers(-1, 2, size=(10, 6)).astype(np.int8)
        x = rng.integers(0, 256, size=10)
        counter = OpCounter()
        assert ternary_project_counted(W, x, counter) == int64_project(W, x).tolist()

    def test_takes_only_a_kernel(self, rng):
        model = random_quantized_model(rng)
        x = random_sample(rng, model)
        expected = int64_project(model.ternary_weights, x)
        np.testing.assert_array_equal(ternary_project(model.kernel_weights, x), expected)
        for W in (model.ternary_weights, model.ternary_weights.astype(np.float64), model.ternary_weights.tolist()):
            with pytest.raises(InputError, match="takes a kernel"):
                ternary_project(W, x)


class TestReluInt:
    def test_mixed(self):
        np.testing.assert_array_equal(relu_int(np.array([-3, 0, 7])), [0, 0, 7])

    def test_all_negative(self):
        np.testing.assert_array_equal(relu_int(np.array([-5, -1])), [0, 0])

    def test_idempotent(self, rng):
        v = rng.integers(-100, 100, size=50)
        np.testing.assert_array_equal(relu_int(relu_int(v)), relu_int(v))

    def test_rejects_floats(self):
        with pytest.raises(InputError):
            relu_int(np.array([1.5]))


class TestClassifyInt:
    def test_single_class(self):
        model = QuantizedModel(
            ternary_weights=np.ones((3, 2), dtype=np.int8),
            int_beta=IntegerBeta(values=np.array([[2], [1]]), tau=1.0),
        )
        assert classify_int(model, np.array([1, 2, 3])) == 0

    def test_hand_traced_two_class(self):
        W = np.array([[1, 0], [0, -1]], dtype=np.int8)  # hidden = [3, 0] for x=[3, 4]
        model = QuantizedModel(
            ternary_weights=W,
            int_beta=IntegerBeta(values=np.array([[1, 0], [0, 1]]), tau=1.0),
        )
        assert classify_int(model, np.array([3, 4])) == 0

    def test_agrees_with_float_path(self, rng):
        for _ in range(50):
            model = random_quantized_model(rng)
            x = random_sample(rng, model)
            assert classify_int(model, x) == predict_float(float_twin(model), x.astype(np.float64))

    def test_integer_scale_invariance(self, rng):
        for _ in range(30):
            model = random_quantized_model(rng, input_range=(0, 10000))
            x = random_sample(rng, model, hi=20)
            base = classify_int(model, x)
            for c in (2, 7, 100):
                assert classify_int(model, c * x) == base

    def test_zero_vector_rejected(self, rng):
        model = random_quantized_model(rng)
        with pytest.raises(InputError, match="all-zero"):
            classify_int(model, np.zeros(model.n, dtype=np.int64))

    def test_range_violation_rejected(self, rng):
        model = random_quantized_model(rng, input_range=(0, 255))
        x = np.full(model.n, 300)
        with pytest.raises(InputError, match="declared range"):
            classify_int(model, x)

    def test_float_samples_rejected(self, rng):
        model = random_quantized_model(rng)
        with pytest.raises(InputError, match="integer"):
            classify_int(model, np.ones(model.n))

    def test_batch_matches_single(self, rng):
        model = random_quantized_model(rng)
        X = rng.integers(1, 256, size=(25, model.n))
        batch = classify_int_batch(model, X)
        assert [classify_int(model, x) for x in X] == batch.tolist()
        np.testing.assert_array_equal(int_scores(model, X), [int_scores(model, x) for x in X])

    def test_two_dimensional_sample_rejected(self, rng):
        model = random_quantized_model(rng)
        with pytest.raises(DimensionError):
            classify_int(model, rng.integers(1, 256, size=(2, model.n)))

    def test_scores_one_sample_as_a_vector(self, rng, monkeypatch):
        # A (1, n) matrix would take BLAS's matrix-matrix products where one vector takes gemv.
        model = random_quantized_model(rng)
        x = rng.integers(1, 256, size=model.n)
        label = classify_int_batch(model, x[None])[0]
        shapes, scores = [], intinfer.int_scores

        def recorded(model, X):
            shapes.append(np.shape(X))
            return scores(model, X)

        monkeypatch.setattr(intinfer, "int_scores", recorded)
        assert classify_int(model, x) == label
        assert shapes == [(model.n,)]

    def test_tie_breaks_to_lowest_index(self):
        W = np.eye(2, dtype=np.int8)
        model = QuantizedModel(
            ternary_weights=W,
            int_beta=IntegerBeta(values=np.array([[1, 1], [0, 0]]), tau=1.0),
        )
        # scores are equal for both classes
        assert classify_int(model, np.array([4, 0])) == 0


class TestHeadroom:
    def test_hidden_accumulator_bound(self):
        with pytest.raises(HeadroomError, match="hidden accumulator"):
            QuantizedModel(
                ternary_weights=np.ones((100, 2), dtype=np.int8),
                int_beta=IntegerBeta(values=np.ones((2, 2), dtype=np.int64), tau=1.0),
                input_range=(0, 2**31 - 1),
            )

    def test_output_accumulator_bound(self):
        with pytest.raises(HeadroomError, match="output accumulator"):
            QuantizedModel(
                ternary_weights=np.ones((1000, 1000), dtype=np.int8),
                int_beta=IntegerBeta(
                    values=np.full((1000, 2), 2**40, dtype=np.int64), tau=1.0
                ),
                input_range=(0, 255),
            )

    def test_centred_rows_beyond_int64_refused(self):
        # A narrow range near 2**62 passes the hidden bound, but 2n * max|x| passes 2**63:
        # integer_rows would centre in float64, where [2**62] * 99 + [2**62 + 1] rounds to zero.
        beta = IntegerBeta(values=np.ones((2, 2), dtype=np.int64), tau=1.0)
        centred = {"preprocessing": ["zero_mean"]}
        with pytest.raises(HeadroomError, match=r"centred rows of inputs in .* can leave int64 \(n=100\)"):
            QuantizedModel(np.ones((100, 2), dtype=np.int8), beta, (2**62, 2**62 + 7), metadata=centred)
        QuantizedModel(np.ones((100, 2), dtype=np.int8), beta, (2**55, 2**55 + 7), metadata=centred)

    @pytest.mark.parametrize("n, L, m, dim", [(0, 3, 2, "n"), (4, 0, 2, "L"), (4, 3, 0, "m")])
    def test_empty_dimension_refused(self, n, L, m, dim):
        with pytest.raises(DimensionError, match=f"^{dim} must be >= 1, got 0$"):
            QuantizedModel(np.zeros((n, L), dtype=np.int8), IntegerBeta(values=np.ones((L, m), dtype=np.int64),
                                                                        tau=1.0))

    @pytest.mark.parametrize("gamma", [-5, 0, float("inf"), 1e-320, "1.0", [1.0]])
    def test_metadata_gamma_outside_its_range_refused(self, gamma):
        # save_model writes metadata["gamma"] into the file header; a value that is no number is a ValueError too.
        beta = IntegerBeta(values=np.ones((2, 2), dtype=np.int64), tau=1.0)
        with pytest.raises(ValueError, match="gamma must be > 0 with gamma and 1/gamma finite"):
            QuantizedModel(np.ones((4, 2), dtype=np.int8), beta, metadata={"gamma": gamma})
        assert QuantizedModel(np.ones((4, 2), dtype=np.int8), beta, metadata={"gamma": 0.5}).metadata["gamma"] == 0.5

    def test_mnist_scale_model_passes(self, rng):
        QuantizedModel(
            ternary_weights=rng.integers(-1, 2, size=(784, 400)).astype(np.int8),
            int_beta=IntegerBeta(
                values=rng.integers(-10000, 10001, size=(400, 10)).astype(np.int64), tau=0.01
            ),
            input_range=(0, 255),
        )


@st.composite
def models_and_inputs(draw, centred=False):
    """A small ternary model, centred if asked, a range whose bound is on either side of 2**24, and rows in it."""
    n, L, m, rows = (draw(st.integers(1, k)) for k in (8, 6, 4, 4))
    W = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n * L, max_size=n * L)))
    V = np.array(draw(st.lists(st.integers(-(2**20), 2**20), min_size=L * m, max_size=L * m)))
    # The largest span the int32 proof admits; 2**k - 1 is odd, so from k = 25 on float32 cannot hold it.
    per_unit = max(1, hidden_bound(n, (0, 1), centred))
    span = min(2 ** draw(st.integers(0, 31)), INT32_MAX // per_unit + 1) - 1
    lo = -draw(st.integers(0, span))
    hi = lo + span if centred else span
    x = st.integers(lo, hi) | st.sampled_from([lo, hi])
    X = np.array(draw(st.lists(x, min_size=rows * n, max_size=rows * n)))
    model = QuantizedModel(
        ternary_weights=W.reshape(n, L).astype(np.int8),
        int_beta=IntegerBeta(values=V.reshape(L, m).astype(np.int64), tau=1.0),
        input_range=(lo, hi),
        metadata={"preprocessing": ["zero_mean"] if centred else []},
    )
    return model, X.reshape(rows, n).astype(np.int64)


def reference_rows(model, X):
    """n*x - sum(x) for a centring model, else x, in int64 without the library's transform."""
    X = np.asarray(X, dtype=np.int64)
    if "zero_mean" in model.metadata.get("preprocessing", []):
        return X.shape[-1] * X - X.sum(axis=-1, keepdims=True)
    return X


def int64_reference_scores(model, X):
    H = np.maximum(reference_rows(model, X) @ model.ternary_weights.astype(np.int64), 0)
    return H @ model.int_beta.values


def check_scores_against_int64_reference_and_audit(model, X):
    bound = hidden_bound(model.n, model.input_range, model.centred)
    Z = reference_rows(model, X)
    np.testing.assert_array_equal(integer_rows(X, model.steps), Z)
    assert (np.abs(Z).sum(axis=1) <= bound).all()
    reference = Z @ model.ternary_weights.astype(np.int64)
    np.testing.assert_array_equal(ternary_project(model.kernel_weights, Z), reference)
    np.testing.assert_array_equal(int_scores(model, X), int64_reference_scores(model, X))
    twin = float_twin(model)
    for x, z in zip(X, Z):
        if not z.any():
            for classify in (classify_int, lambda m, x: classify_int_counted(m, x, OpCounter())):
                with pytest.raises(InputError, match="constant" if model.centred else "all-zero"):
                    classify(model, x)
            continue
        label = classify_int(model, x)
        assert label == classify_int_counted(model, x, OpCounter())
        if model.int_beta.max_abs * model.L * bound < 2**53:  # the float64 scores are exact
            assert label == predict_float(twin, x)


class TestKernelExactness:
    @settings(max_examples=300, deadline=None, database=None)
    @given(models_and_inputs())
    def test_scores_match_int64_reference_and_audit(self, case):
        check_scores_against_int64_reference_and_audit(*case)

    @settings(max_examples=300, deadline=None, database=None)
    @given(models_and_inputs(centred=True))
    def test_centred_scores_match_int64_reference_and_audit(self, case):
        check_scores_against_int64_reference_and_audit(*case)

    @pytest.mark.parametrize(
        "n, input_range, form",
        [
            (1, (0, 2**17 - 1), PackedKernel),
            (1, (0, 2**17), np.float32),
            (1, (0, 2**24 - 1), np.float32),
            (3, (0, (2**24 - 1) // 3), np.float32),
            (1, (0, 2**24 + 1), np.float64),
            (1, (-(2**31 - 1), 2**31 - 1), np.float64),
        ],
        ids=["n1_below_2p17", "n1_at_2p17", "n1_below_2p24", "n3_below_2p24", "n1_above_2p24", "n1_int32_max"],
    )
    def test_bound_selects_exact_dtype(self, n, input_range, form):
        # Columns +1 and -1 with unit output weights score |sum(x)|, which
        # reaches the bound itself when every input sits at an end of the range.
        # At hi = 2**17 - 1 each column's width fits B = 2**17 and hi * (1 + B + B**2) < 2**53,
        # so W packs; at hi = 2**17, B doubles and that product passes 2**53.
        model = QuantizedModel(
            ternary_weights=np.tile(np.array([1, -1], dtype=np.int8), (n, 1)),
            int_beta=IntegerBeta(values=np.ones((2, 1), dtype=np.int64), tau=1.0),
            input_range=input_range,
        )
        assert kernel_form(model) == form
        kernel = model.kernel_weights
        X = np.array([[input_range[1]] * n, [input_range[0]] * n, [input_range[1]] + [0] * (n - 1)])
        exact = [abs(sum(row)) for row in X.tolist()]
        assert exact[0] == hidden_bound(n, input_range)
        assert int_scores(model, X)[:, 0].tolist() == exact
        assert [int(int_scores(model, x)[0]) for x in X] == exact
        np.testing.assert_array_equal(int_scores(model, X), int64_reference_scores(model, X))
        assert model.kernel_weights is kernel
        if form is not PackedKernel:  # the kernel holds the exact dtype and the model's read-only int8 W
            assert kernel.dtype == form and kernel.ternary is model.ternary_weights
            assert not kernel.ternary.flags.writeable

    def test_replace_across_2p24_switches_cached_dtype(self):
        model = QuantizedModel(
            ternary_weights=np.ones((1, 1), dtype=np.int8),
            int_beta=IntegerBeta(values=np.ones((1, 1), dtype=np.int64), tau=1.0),
            input_range=(0, 2**24 - 1),
        )
        assert kernel_form(model) == np.float32
        wide = replace(model, input_range=(0, 2**24))
        assert kernel_form(wide) == np.float64
        narrow = replace(wide, input_range=(0, 255))
        assert kernel_form(narrow) == PackedKernel
        assert kernel_form(wide) == np.float64 and kernel_form(model) == np.float32
        assert int(int_scores(wide, np.array([2**24]))[0]) == 2**24
        assert int(int_scores(narrow, np.array([255]))[0]) == 255
        # Each model keeps its own kernel, in the dtype of its own range, after it has scored.
        assert wide.kernel_weights is not model.kernel_weights
        assert wide.kernel_weights.dtype == np.float64
        assert int(int_scores(model, np.array([2**24 - 1]))[0]) == 2**24 - 1
        assert model.kernel_weights.dtype == np.float32

    def test_kernel_cache_cannot_be_desynchronised(self):
        W = np.array([[1, 0], [-1, 1]], dtype=np.int8)
        model = QuantizedModel(
            ternary_weights=W, int_beta=IntegerBeta(values=np.ones((2, 1), dtype=np.int64), tau=1.0)
        )
        # The caller's array stays writeable; the kernel, built on first use, packs the model's copy.
        W[0, 1] = 1
        kernel = model.kernel_weights
        assert isinstance(kernel, PackedKernel)
        assert ternary_project(kernel, np.array([3, 4])).tolist() == [-1, 4]
        for part in (kernel.words, kernel.bottom, kernel.offsets, model.output_weights):
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 5
        with pytest.raises(FrozenInstanceError):
            kernel.shift = 0
        # A wider range must go through replace(), which re-proves and rebuilds.
        with pytest.raises(FrozenInstanceError):
            model.input_range = (0, 2**24 + 1)
        assert model.kernel_weights is kernel
        assert ternary_project(kernel, np.array([3, 4])).tolist() == [-1, 4]
        # The same for a range too wide to pack: every projection casts the model's read-only
        # copy of W, and none of the kernel's fields can be replaced.
        W[0, 1] = 0
        model = replace(model, ternary_weights=W, input_range=(0, 2**20))
        W[0, 1] = 1
        kernel = model.kernel_weights
        assert isinstance(kernel, FloatKernel) and kernel.dtype == np.float32
        assert kernel.ternary is model.ternary_weights and kernel.ternary[0, 1] == 0
        assert ternary_project(kernel, np.array([3, 4])).tolist() == [-1, 4]
        for part in (kernel.ternary, model.output_weights):
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 5
        for name in ("ternary", "dtype"):
            with pytest.raises(FrozenInstanceError):
                setattr(kernel, name, None)
        assert model.kernel_weights is kernel
        assert ternary_project(kernel, np.array([3, 4])).tolist() == [-1, 4]


def reference_forms(model):
    """The kernel form and output dtype the model's bounds pick, from their definitions in Python ints.

    Columns are counted only when one with a third +1 and a third -1 weights
    would pack; b_j bounds column j's ReLU output, or hidden_bound for every
    column when the columns are not counted.
    """
    lo, hi = model.input_range
    hidden = hidden_bound(model.n, model.input_range, model.centred)

    def fits(tops, bottoms):
        B = 2 ** max(t + b for t, b in zip(tops, bottoms)).bit_length()
        return max(tops + bottoms) * (1 + B + B * B) < 2**53

    columns = model.ternary_weights.T.tolist()
    tops = [sum(max(0, lo * w, hi * w) for w in col) for col in columns]
    bottoms = [-sum(min(0, lo * w, hi * w) for w in col) for col in columns]
    third = model.n // 3 * (max(hi, 0) + max(-lo, 0))
    counted = not model.centred and fits([third], [third])
    if not counted:
        tops = [hidden] * model.L
    V = model.int_beta.values.tolist()
    output = max(sum(t * abs(row[k]) for t, row in zip(tops, V)) for k in range(model.m))
    kernel = PackedKernel if counted and fits(tops, bottoms) else exact_dtype(hidden)
    return kernel, exact_dtype(output)


def box_corners(model):
    """Every input at lo, every input at hi, and for each column the rows at its largest and least sums."""
    lo, hi = model.input_range
    W = model.ternary_weights
    return np.array([[lo] * model.n, [hi] * model.n, *np.where(W.T > 0, hi, lo), *np.where(W.T > 0, lo, hi)])


@st.composite
def packing_cases(draw):
    """A crafted model whose columns straddle the packing bound and whose output layer straddles 2**24 and 2**53.

    L runs through every residue mod 3, lo is often negative, and the rows
    are random in-range samples followed by the model's box corners.
    """
    n, L, m, rows = (draw(st.integers(1, k)) for k in (6, 9, 3, 3))
    centred = draw(st.integers(0, 3)) == 0
    W = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n * L, max_size=n * L))).reshape(n, L)
    # A column packs up to a magnitude of about 2**17; past 2**24 / n the unpacked W is float64.
    e = draw(st.integers(0, 23))
    hi = draw(st.integers(2**e // 2, 2**e) | st.sampled_from([2**17 - 1, 2**17, 2**17 // n]))
    lo = draw(st.sampled_from([0, -hi]) | st.integers(-hi, hi))
    limit = output_beta_limit(n, L, (lo, hi), centred)
    vmax = min(limit, 2 ** draw(st.sampled_from([8, 16, 31]) | st.integers(0, 31)))
    V = np.array(draw(st.lists(st.integers(-vmax, vmax) | st.sampled_from([vmax, -vmax]),
                               min_size=L * m, max_size=L * m)))
    model = QuantizedModel(
        ternary_weights=W.astype(np.int8),
        int_beta=IntegerBeta(values=V.reshape(L, m).astype(np.int64), tau=1.0),
        input_range=(lo, hi),
        metadata={"preprocessing": ["zero_mean"] if centred else []},
    )
    X = np.array(draw(st.lists(st.integers(lo, hi), min_size=rows * n, max_size=rows * n))).reshape(rows, n)
    return model, np.vstack([X, box_corners(model)]).astype(np.int64)


class TestPackedKernel:
    @settings(max_examples=400, deadline=None, database=None)
    @given(packing_cases())
    def test_scores_match_int64_reference_and_audit(self, case):
        model, X = case
        kernel, output = reference_forms(model)
        assert kernel_form(model) == kernel
        assert model.output_weights.dtype == output
        check_scores_against_int64_reference_and_audit(model, X)

    @pytest.mark.parametrize("L", [3, 7, 5])  # L = 0, 1 and 2 (mod 3)
    @pytest.mark.parametrize(
        "input_range, form",
        [((-(2**17 - 1), 2**17 - 1), PackedKernel), ((-(2**17 - 1), 2**17), np.float32),
         ((0, 2**17 + 1), np.float32)],
        ids=["packs", "past_2p53", "odd_past_2p53"],
    )
    def test_packing_margin(self, L, input_range, form):
        # One input and every weight +1: each column's sums span [lo, hi], so B = 2**18, and the
        # three columns of word 0 reach hi together. (2**17 - 1) * (1 + B + B**2) is
        # 2**53 - 2**35 - 2**17 - 1; at hi = 2**17 the magnitude times 1 + B + B**2 passes 2**53.
        # At hi = 2**17 + 1 that product is odd, so a packed kernel would round the row at hi.
        lo, hi = input_range
        model = QuantizedModel(
            ternary_weights=np.ones((1, L), dtype=np.int8),
            int_beta=IntegerBeta(values=np.arange(1, 2 * L + 1, dtype=np.int64).reshape(L, 2), tau=1.0),
            input_range=input_range,
        )
        assert kernel_form(model) == form
        X = np.array([[hi], [lo], [1], [max(lo, -1)], [0]])
        check_scores_against_int64_reference_and_audit(model, X)
        if form is PackedKernel:
            assert model.kernel_weights.shift == 18
            words = X.astype(np.float64) @ model.kernel_weights.words
            assert words[:2, 0].tolist() == [hi * (1 + 2**18 + 2**36), lo * (1 + 2**18 + 2**36)]
            assert abs(words[0, 0]) < 2**53

    @pytest.mark.parametrize(
        "hi, v, dtype",
        [(255, 65793, np.float32), (255, 65794, np.float64), (2**22, 2**31 - 1, np.float64),
         (2**22 + 1, 2**31 - 1, np.int64)],
    )
    def test_output_layer_dtype_follows_the_column_bounds(self, hi, v, dtype):
        # Column 1 (-1 over inputs >= 0) never leaves 0, so the bound is hi * v, not 2 * hi * v:
        # 255 * 65793 < 2**24 <= 255 * 65794, and 2**22 * (2**31 - 1) < 2**53 < (2**22 + 1) * (2**31 - 1).
        model = QuantizedModel(
            ternary_weights=np.array([[1, -1]], dtype=np.int8),
            int_beta=IntegerBeta(values=np.full((2, 1), v, dtype=np.int64), tau=1.0),
            input_range=(0, hi),
        )
        assert model.output_weights.dtype == dtype
        assert reference_forms(model)[1] == dtype
        assert int_scores(model, np.array([hi])).tolist() == [hi * v]
        check_scores_against_int64_reference_and_audit(model, np.array([[hi], [1], [hi - 1]]))

    def test_centred_models_keep_the_unpacked_kernel(self):
        model = centred_model(4)
        assert kernel_form(model) == np.float32
        assert kernel_form(replace(model, metadata={"preprocessing": []})) == PackedKernel

    def test_replace_with_a_new_range_rebuilds_the_kernel(self, rng):
        model = random_quantized_model(rng, n=6, L=8, input_range=(-255, 255))
        packed = model.kernel_weights
        assert isinstance(packed, PackedKernel)
        narrow = replace(model, input_range=(0, 255))
        wide = replace(model, input_range=(0, 2**20))
        assert narrow.kernel_weights is not packed and kernel_form(wide) == np.float32
        assert narrow.kernel_weights.offsets.tolist() != packed.offsets.tolist()
        X = np.vstack([box_corners(narrow), rng.integers(0, 256, size=(3, 6))])
        for m in (model, narrow, wide):
            np.testing.assert_array_equal(int_scores(m, X), int64_reference_scores(m, X))

    def test_mnist_width_packs(self, rng):
        model = random_quantized_model(rng, n=784, L=2000, m=10)
        kernel = model.kernel_weights
        assert isinstance(kernel, PackedKernel) and kernel.words.shape == (784, 667)
        assert kernel.words.nbytes < model.n * model.L * 4  # a third less than float32 W
        X = np.vstack([box_corners(model)[[0, 1, 2, 2002]], rng.integers(0, 256, size=(3, 784))])
        check_scores_against_int64_reference_and_audit(model, X)


@st.composite
def float_kernel_cases(draw, centred):
    """A fresh model whose W is too wide to pack, float32 uncentred or float64 centred, and its calls.

    L makes a block of W's rows 32 to 64 rows, and n is not a multiple of
    that. The calls are one 1-D sample, one (1, n) row, and matrices of 2
    rows, of the most rows summed block by block (an output of a quarter
    block) and of one row more, each starting with box corners; their
    order is drawn.
    """
    size = 8 if centred else 4
    L = draw(st.integers(BUILD_BLOCK_BYTES // (64 * size), BUILD_BLOCK_BYTES // (32 * size)))
    step = BUILD_BLOCK_BYTES // (L * size)
    fused = BUILD_BLOCK_BYTES // 4 // (L * size)
    n = draw(st.integers(step + 1, 3 * step).filter(lambda n: n % step))
    if centred:  # hidden_bound between 2**24 and the int32 limit
        pairs = 2 * (n // 2) * ((n + 1) // 2)
        width = draw(st.integers(2**24 // pairs + 1, INT32_MAX // pairs))
        lo = -draw(st.integers(0, width))
        hi = lo + width
    else:  # hidden_bound between 2**23 and 2**24, far past packing
        hi = draw(st.integers(2**23 // n, (2**24 - 1) // n))
        lo = -draw(st.integers(0, hi))
    seed = draw(st.integers(0, 2**32 - 1))
    model = QuantizedModel(
        ternary_weights=gen_weights_ternary(n, L, seed),
        int_beta=IntegerBeta(values=make_rng(seed).integers(-50, 51, size=(L, 3)), tau=1.0),
        input_range=(lo, hi),
        metadata={"preprocessing": ["zero_mean"] if centred else []},
    )
    corners = box_corners(model)[[1, 2, 2 + L, 3, 3 + L, 0]]  # all at hi first, all at lo last

    def rows(count):
        X = make_rng(seed + count).integers(lo, hi + 1, size=(count, n))
        X[: len(corners)] = corners[:count]
        return X

    return model, draw(st.permutations([rows(1)[0], rows(1), rows(2), rows(fused), rows(fused + 1)]))


def run_together(threads, call):
    """Run call(i) for i < threads, all released together by a barrier; return the results."""
    barrier, results = threading.Barrier(threads, timeout=60), [None] * threads

    def run(i):
        barrier.wait()
        results[i] = call(i)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
        assert not worker.is_alive()
    return results


class TestFloatKernel:
    @pytest.mark.parametrize("centred, dtype", [(False, np.float32), (True, np.float64)], ids=["float32", "float64"])
    @settings(max_examples=15, deadline=None, database=None)
    @given(data=st.data())
    def test_first_and_later_projections_match_int64_reference(self, centred, dtype, data):
        model, calls = data.draw(float_kernel_cases(centred))
        kernel = model.kernel_weights
        assert isinstance(kernel, FloatKernel) and kernel.dtype == dtype
        for X in calls:
            np.testing.assert_array_equal(int_scores(model, X), int64_reference_scores(model, X))
            # Whatever came before, a call finds the same kernel, holding nothing but its fields.
            assert model.kernel_weights is kernel and vars(kernel).keys() == {"ternary", "dtype"}

    def test_concurrent_first_calls_read_a_complete_kernel(self):
        # Eight threads make the first call on each fresh model together, switching as often
        # as the interpreter allows: a 1-D sample or a (1, n) row (summed per block), or one
        # row past the quarter block (row blocks through a whole cast W). Each call casts W
        # into arrays of its own, so one published to the kernel before its last block is
        # cast is read partly unwritten. Each round rolls W's columns, so an allocation
        # reusing the last round's cast does not hold this one.
        L, threads = 2000, 8
        step = BUILD_BLOCK_BYTES // (4 * L)
        quarter = BUILD_BLOCK_BYTES // 4 // (4 * L)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # one block, then three with a short last one
            for n, rounds in ((step - 1, 40), (5 * step // 2, 10)):
                base = random_quantized_model(make_rng(n), n=n, L=L, m=3, input_range=(0, 2**15))
                rows = make_rng(n).integers(0, 2**15 + 1, size=(threads, quarter + 1, n))
                shapes = (0, slice(1), slice(None))
                calls = [X[shapes[i % 3]] for i, X in enumerate(rows)]
                for shift in range(1, rounds + 1):
                    model = replace(base, ternary_weights=np.roll(base.ternary_weights, shift, axis=1))
                    kernel = model.kernel_weights
                    assert isinstance(kernel, FloatKernel) and kernel.dtype == np.float32
                    results = run_together(threads, lambda i, model=model: int_scores(model, calls[i]))
                    for X, scores in zip(calls, results):
                        np.testing.assert_array_equal(scores, int64_reference_scores(model, X))
                    assert model.kernel_weights is kernel and vars(kernel).keys() == {"ternary", "dtype"}
        finally:
            sys.setswitchinterval(interval)

    def test_concurrent_few_row_calls_keep_no_kernel(self):
        # Eight threads project four rows each through the same kernel together, switching as
        # often as the interpreter allows. Each casts W into a buffer of its own, so a buffer
        # shared between calls is overwritten under another's product.
        L, threads = 2000, 8
        step = BUILD_BLOCK_BYTES // (4 * L)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in (step - 1, 5 * step // 2):
                model = random_quantized_model(make_rng(n), n=n, L=L, m=3, input_range=(0, 2**15))
                X = make_rng(n + 1).integers(0, 2**15 + 1, size=(threads, 4, n))
                kernel = model.kernel_weights
                for _ in range(10):
                    results = run_together(threads, lambda i, model=model: int_scores(model, X[i]))
                    for rows, scores in zip(X, results):
                        np.testing.assert_array_equal(scores, int64_reference_scores(model, rows))
                    assert model.kernel_weights is kernel and vars(kernel).keys() == {"ternary", "dtype"}
        finally:
            sys.setswitchinterval(interval)

    def test_a_loaded_wide_model_holds_no_float_w_after_scoring(self, tmp_path):
        # classify_cli's model: its float32 W would be 6.1 MB. One sample is summed per block
        # and rows past the quarter block run in row blocks; neither leaves a float W behind.
        W = gen_weights_ternary(3072, 500, 8)
        values = make_rng(8).integers(-(2**20), 2**20, size=(500, 10))
        save_model(QuantizedModel(W, IntegerBeta(values=values, tau=1.0)), tmp_path / "q.ielm")
        model = load_model(tmp_path / "q.ielm")
        assert isinstance(model.kernel_weights, FloatKernel)
        rows = BUILD_BLOCK_BYTES // 4 // (4 * model.L) + 1
        X = make_rng(9).integers(1, 256, size=(rows, 3072))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            label = classify_int(model, X[0])
            scores = int_scores(model, X)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2**20
        assert label == scores[0].argmax()
        np.testing.assert_array_equal(scores, int64_reference_scores(model, X))

    def test_bulk_scoring_holds_no_float_copy_of_the_rows_or_of_the_projection(self):
        # 2,000 u8 rows of classify_cli's model project in row blocks: a float32 copy of all rows
        # (24.6 MB), or the whole float32 projection beside W's cast and its int64 result
        # (18.2 MB), passes the bound, which admits the int64 projection beside its ReLU.
        model = random_quantized_model(make_rng(10), n=3072, L=500, m=10)
        assert isinstance(model.kernel_weights, FloatKernel) and model.kernel_weights.dtype == np.float32
        X = make_rng(11).integers(1, 256, size=(2000, 3072)).astype(np.uint8)
        tracemalloc.start()
        try:
            scores = int_scores(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * X.shape[0] * model.L * 8 + 2**20
        np.testing.assert_array_equal(scores[::37], int64_reference_scores(model, X[::37]))  # a row of each block


class TestShapeRule:
    """The integer scorers take one sample (1-D) or rows of samples (2-D), and nothing else."""

    def test_zero_d_sample_is_a_dimension_error(self):
        # n = 1, so only the shape rule stands between a 0-d value and a score.
        model = QuantizedModel(np.ones((1, 2), dtype=np.int8), IntegerBeta(values=np.ones((2, 1), dtype=np.int64),
                                                                            tau=1.0))
        for score in (int_scores, classify_int, classify_int_batch,
                      lambda m, x: classify_int_counted(m, x, OpCounter())):
            with pytest.raises(DimensionError, match=r"shape \(\)"):
                score(model, np.int64(3))

    def test_three_d_samples_are_a_dimension_error(self, rng):
        model = random_quantized_model(rng)
        X = rng.integers(1, 256, size=(2, 3, model.n))
        for score in (int_scores, classify_int_batch):
            with pytest.raises(DimensionError, match=r"shape \(2, 3, 8\)"):
                score(model, X)

    def test_single_sample_classifiers_refuse_rows(self, rng):
        model = random_quantized_model(rng)
        X = rng.integers(1, 256, size=(2, model.n))
        with pytest.raises(DimensionError, match="classify_int_counted takes one sample"):
            classify_int_counted(model, X, OpCounter())
        with pytest.raises(DimensionError, match="classify_int takes one sample"):
            classify_int(model, X)
        for x in (X, X[0, 0]):  # predict_float shares the one-sample rule
            with pytest.raises(DimensionError, match=r"predict_float takes one sample, got shape \("):
                predict_float(float_twin(model), x)
        assert classify_int_batch(model, X).tolist() == [classify_int(model, x) for x in X]
        assert classify_int_batch(model, X[0]).tolist() == [classify_int(model, X[0])]


def centred_model(n, L=2, m=2, input_range=(0, 255), values=None):
    W = np.tile(np.array([1, -1] * L, dtype=np.int8)[:L], (n, 1))
    W[0] = 0
    if values is None:
        values = np.arange(L * m, dtype=np.int64).reshape(L, m) - 1
    return QuantizedModel(
        ternary_weights=W,
        int_beta=IntegerBeta(values=np.asarray(values, dtype=np.int64), tau=1.0),
        input_range=input_range,
        metadata={"preprocessing": ["zero_mean", "l2_normalize"]},
    )


class TestBlankRowRule:
    """data.reject_blank_rows, applied by both paths' classifiers after their sample checks."""

    def test_input_error_is_defined_once(self):
        assert InputError is data.InputError

    @pytest.mark.parametrize("steps", [(), ("l2_normalize",), ("zero_mean",), ("zero_mean", "l2_normalize")])
    def test_float_path_refuses_exactly_the_rows_the_integer_path_refuses(self, rng, steps):
        model = random_quantized_model(rng, steps=steps)
        twin = float_twin(model)
        X = rng.integers(1, 256, size=(5, model.n))
        X[2], X[3], X[4] = 0, 7, 9
        X[4, 0] = 10  # constant but for one value: blank under no steps
        blank = [False, False, True, "zero_mean" in steps, False]
        kind = "constant" if "zero_mean" in steps else "all-zero"
        for row, x in enumerate(X):
            if blank[row]:
                for classify in (classify_int, lambda m, x: predict_float(twin, x)):
                    with pytest.raises(InputError, match=f"cannot classify the {kind} sample at row 0"):
                        classify(model, x)
            else:
                assert classify_int(model, x) == predict_float(twin, x)
        with pytest.raises(InputError, match=f"{kind} sample at row 2"):
            classify_int_batch(model, X)
        with pytest.raises(InputError, match=f"{kind} sample at row 2"):
            predict_float_batch(twin, X)
        assert not int_scores(model, X)[blank].any() and not scores_float(twin, X)[blank].any()

    def test_sample_checks_come_before_the_rule(self, rng):
        model = random_quantized_model(rng, input_range=(1, 255))
        for classify in (classify_int, classify_int_batch):
            with pytest.raises(DimensionError):
                classify(model, np.zeros(model.n + 1, dtype=np.int64))
            with pytest.raises(InputError, match="integer samples"):
                classify(model, np.zeros(model.n))
            with pytest.raises(InputError, match="declared range"):
                classify(model, np.zeros(model.n, dtype=np.int64))
        twin = float_twin(model)
        for classify in (predict_float, predict_float_batch):
            with pytest.raises(DimensionError):
                classify(twin, np.zeros(model.n + 1))
        with pytest.raises(ValueError, match="NaN or Inf"):
            predict_float_batch(twin, np.where(np.arange(model.n) == 0, np.nan, 0.0)[None])


class TestCentredRows:
    @pytest.mark.parametrize("input_range", [(0, 3), (-2, 1), (5, 5)])
    def test_bound_is_attained_by_brute_force(self, input_range):
        lo, hi = input_range
        for n in range(1, 7):
            X = np.array(list(itertools.product(range(lo, hi + 1), repeat=n)))
            largest = int(np.abs(n * X - X.sum(axis=1, keepdims=True)).sum(axis=1).max())
            assert largest == hidden_bound(n, input_range, centred=True)

    @pytest.mark.parametrize("n, bound", [(784, 78_368_640), (3072, 1_203_240_960)])
    def test_mnist_and_cifar_widths_fit_int32_with_the_float64_kernel(self, n, bound):
        assert hidden_bound(n, (0, 255), centred=True) == bound < INT32_MAX
        model = centred_model(n)
        assert kernel_form(model) == np.float64
        X = np.tile([0, 255], (2, n // 2))
        X[1, 0] = 7
        np.testing.assert_array_equal(int_scores(model, X), int64_reference_scores(model, X))

    def test_constant_rows_rejected_by_all_three_paths_and_scored_zero(self):
        model = centred_model(4)
        X = np.array([[3, 1, 4, 1], [9, 9, 9, 9], [0, 0, 0, 0]])
        for row in (1, 2):
            with pytest.raises(InputError, match="constant sample at row 0"):
                classify_int(model, X[row])
            with pytest.raises(InputError, match="constant sample at row 0"):
                classify_int_counted(model, X[row], OpCounter())
        with pytest.raises(InputError, match="constant sample at row 1"):
            classify_int_batch(model, X)
        assert int_scores(model, X)[1:].tolist() == [[0, 0], [0, 0]]
        assert classify_int_batch(model, X[:1]).tolist() == [classify_int(model, X[0])]

    def test_all_zero_rows_rejected_by_all_three_paths(self, rng):
        model = random_quantized_model(rng)
        X = rng.integers(1, 256, size=(3, model.n))
        X[2] = 0
        with pytest.raises(InputError, match="all-zero sample at row 2"):
            classify_int_batch(model, X)
        with pytest.raises(InputError, match="all-zero"):
            classify_int_counted(model, X[2], OpCounter())
        assert not int_scores(model, X[2]).any()

    def test_audit_counts_the_centring_and_no_projection_multiply(self, rng):
        model = random_quantized_model(rng, n=6, L=5, m=3, steps=["zero_mean"])
        x = random_sample(rng, model)
        z = reference_rows(model, x)
        counter, projection = OpCounter(), OpCounter()
        assert classify_int_counted(model, x, counter) == classify_int(model, x)
        ternary_project_counted(model.ternary_weights, z, projection)
        assert projection.int_muls == 0
        assert counter.int_muls == model.n + model.L * model.m
        assert counter.int_adds == 2 * model.n + projection.int_adds + model.L * model.m
        assert counter.float_ops == 0

    def test_steps_are_the_models_own_copy(self, tmp_path):
        model = centred_model(4)
        x = np.array([3, 1, 4, 1])
        before = int_scores(model, x)
        model.metadata["preprocessing"].remove("zero_mean")
        assert model.steps == ("zero_mean", "l2_normalize") and model.centred
        np.testing.assert_array_equal(int_scores(model, x), before)
        with pytest.raises(FrozenInstanceError):
            model.steps = ()
        # The file records the steps the model was proved against, not the edited dict.
        for edited in (["l2_normalize"], [], ["whiten"]):
            model.metadata["preprocessing"] = edited
            save_model(model, tmp_path / "m.ielm")
            loaded = load_model(tmp_path / "m.ielm")
            assert loaded.steps == model.steps
            assert loaded.metadata == {**model.metadata, "preprocessing": list(model.steps)}
            np.testing.assert_array_equal(int_scores(loaded, x), before)

    @pytest.mark.parametrize("steps", ["zero_mean", ["whiten"], 7, ["zero_mean", "zero_mean"], [["zero_mean"]]])
    def test_hostile_steps_rejected_by_both_models(self, steps):
        with pytest.raises(ValueError, match="preprocessing"):
            QuantizedModel(np.eye(2, dtype=np.int8), IntegerBeta(values=np.eye(2, dtype=np.int64), tau=1.0),
                           metadata={"preprocessing": steps})
        with pytest.raises(ValueError, match="preprocessing"):
            FloatModel(np.eye(2, dtype=np.int8), np.eye(2), 1.0, "ternary", 0, metadata={"preprocessing": steps})

    def test_centred_headroom_is_proved_and_fitted(self):
        # max |v| = 1e9 at rung 0: inside the i32 storage and the uncentred output limit at
        # n=784, L=200, past the centred one.
        n, L = 784, 200
        assert output_beta_limit(n, L, (0, 255), True) < 10**9 < min(2**31, output_beta_limit(n, L, (0, 255)))
        beta = np.full((L, 2), 1e-9)
        beta[0, 0] = 1.0
        W = np.tile(np.array([1, -1], dtype=np.int8), (n, L // 2))
        for steps, fitted in (([], False), (["zero_mean"], True)):
            fm = FloatModel(W, beta, 1.0, "ternary", 0, metadata={"preprocessing": steps})
            qm = make_quantized(fm, (0, 255), fit_headroom=True)
            assert (qm.int_beta.ladder_step > 0) == fitted
            assert qm.int_beta.max_abs <= output_beta_limit(n, L, (0, 255), qm.centred)
        with pytest.raises(HeadroomError, match="output accumulator"):
            make_quantized(fm, (0, 255))
        assert INT64_MAX // (L * hidden_bound(n, (0, 255), True)) == output_beta_limit(n, L, (0, 255), True)


class TestOwnedWeights:
    def test_write_to_float_model_weights_leaves_quantized_model_intact(self, rng):
        fm = random_float_model(rng, n=6, L=4, m=2, weight_kind="ternary")
        qm = make_quantized(fm, (0, 255))
        before = qm.ternary_weights.copy()
        fm.input_weights[:, 0] *= -1
        fm.input_weights[0, 1] = 1 - fm.input_weights[0, 1]
        np.testing.assert_array_equal(qm.ternary_weights, before)
        assert qm.ternary_weights.dtype == np.int8
        with pytest.raises(ValueError, match="read-only"):
            qm.ternary_weights[0, 0] = 1
        X = rng.integers(0, 256, size=(5, 6))
        np.testing.assert_array_equal(int_scores(qm, X), int64_reference_scores(qm, X))
        np.testing.assert_array_equal(
            int_scores(qm, X), np.maximum(X @ before.astype(np.int64), 0) @ qm.int_beta.values
        )


    def test_int_beta_is_owned_and_read_only(self):
        # A write of 2**62 would pass the output headroom and wrap int_scores in int64.
        values = np.ones((2, 1), dtype=np.int64)
        qm = QuantizedModel(
            ternary_weights=np.ones((784, 2), dtype=np.int8),
            int_beta=IntegerBeta(values=values, tau=1.0),
        )
        with pytest.raises(ValueError, match="read-only"):
            qm.int_beta.values[0, 0] = 2**62
        with pytest.raises(FrozenInstanceError):
            qm.int_beta.values = np.full((2, 1), 2**62)
        values[0, 0] = 2**62  # the caller's array is not the model's
        X = np.full((1, 784), 255)
        assert int_scores(qm, X).tolist() == [[2 * 784 * 255]]
        np.testing.assert_array_equal(int_scores(qm, X), int64_reference_scores(qm, X))


class TestTernaryCheck:
    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    @pytest.mark.parametrize("bad", [2, -2])
    def test_rejects_codes_outside_ternary(self, dtype, bad):
        W = np.array([[1, 0], [-1, bad]], dtype=dtype)
        with pytest.raises(ValueError, match=r"lie in \{-1, 0, 1\}"):
            check_ternary(W)
        with pytest.raises(ValueError, match=r"lie in \{-1, 0, 1\}"):
            FloatModel(W, np.ones((2, 1)), 1.0, "ternary", 0)
        with pytest.raises(ValueError, match=r"lie in \{-1, 0, 1\}"):
            QuantizedModel(W, IntegerBeta(values=np.ones((2, 1), dtype=np.int64), tau=1.0))

    def test_rejects_float_codes(self):
        W = np.array([[1.0, 0.0], [-1.0, 1.0]])
        with pytest.raises(ValueError, match="must be integers, got float64"):
            check_ternary(W)
        with pytest.raises(ValueError, match="must be integers"):
            FloatModel(W, np.ones((2, 1)), 1.0, "ternary", 0)
        with pytest.raises(ValueError, match="must be integers"):
            QuantizedModel(W, IntegerBeta(values=np.ones((2, 1), dtype=np.int64), tau=1.0))

    def test_accepts_every_integer_width(self):
        for dtype in (np.int8, np.int16, np.int64, np.uint8):
            check_ternary(np.array([[1, 0], [0, 1]], dtype=dtype))
        check_ternary(np.zeros((0, 3), dtype=np.int8))

    def test_rejects_inverted_input_range(self):
        with pytest.raises(ValueError, match="lo > hi"):
            QuantizedModel(
                np.eye(2, dtype=np.int8),
                IntegerBeta(values=np.ones((2, 1), dtype=np.int64), tau=1.0),
                input_range=(5, 4),
            )


class TestFloatOpAudit:
    def test_zero_float_ops_and_no_projection_multiplies(self, rng):
        # Exact counts: nnz(W) + L*m adds and L*m multiplies, 2n and n more when centred.
        for steps in [()] * 10 + [("zero_mean",)] * 10:
            model = random_quantized_model(rng, n=6, L=5, m=3, steps=steps)
            x = random_sample(rng, model)
            proj_counter = OpCounter()
            ternary_project_counted(model.ternary_weights, x, proj_counter)
            assert proj_counter.float_ops == 0
            assert proj_counter.int_muls == 0

            full_counter = OpCounter()
            label = classify_int_counted(model, x, full_counter)
            assert (full_counter.int_adds, full_counter.int_muls, full_counter.float_ops) == (*audited_counts(model), 0)
            assert label == classify_int(model, x) == pyint_label(model, x)

    def test_scores_are_integers(self, rng):
        model = random_quantized_model(rng)
        s = int_scores(model, random_sample(rng, model))
        assert np.issubdtype(s.dtype, np.integer)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda m: ternary_project(m.kernel_weights, np.ones((2, m.n + 1), np.int64)), DimensionError,
         "sample has 9 values, weights expect 8"),
        (lambda m: QuantizedModel(m.ternary_weights, IntegerBeta(np.ones((m.L - 1, 2), np.int64), tau=1.0)),
         DimensionError, "beta has 5 rows, input weights have 6 columns"),
    ],
    ids=["project_width", "beta_rows"],
)
def test_typed_errors(rng, call, error, match):
    with pytest.raises(error, match=match):
        call(random_quantized_model(rng))
