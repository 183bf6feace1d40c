from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_float_model, random_quantized_model
from intelm.elm import FloatModel, check_ternary, predict_float
from intelm.experiments import make_quantized
from intelm.intinfer import (
    INT32_MAX,
    HeadroomError,
    InputError,
    OpCounter,
    QuantizedModel,
    classify_int,
    classify_int_batch,
    classify_int_counted,
    hidden_bound,
    int_scores,
    relu_int,
    ternary_project,
    ternary_project_counted,
)
from intelm.linalg import DimensionError
from intelm.quantize import IntegerBeta


def float_twin(model: QuantizedModel) -> FloatModel:
    """Float-path model carrying the same integer weights."""
    return FloatModel(
        input_weights=model.ternary_weights,
        beta=model.int_beta.values.astype(np.float64),
        gamma=1.0,
        weight_kind="ternary",
        seed=model.seed,
    )


def random_sample(rng, model, lo=0, hi=255):
    x = rng.integers(lo, hi + 1, size=model.n)
    if not x.any():
        x[0] = 1
    return x


class TestTernaryProject:
    def test_hand_sum(self):
        W = np.array([[1], [-1], [0]], dtype=np.int8)
        assert ternary_project(W, np.array([5, 3, 100]))[0] == 2

    def test_all_zero_weights(self):
        W = np.zeros((3, 4), dtype=np.int8)
        np.testing.assert_array_equal(ternary_project(W, np.array([9, 9, 9])), np.zeros(4))

    def test_matches_float_matvec_oracle(self, rng):
        for _ in range(20):
            W = rng.integers(-1, 2, size=(8, 4)).astype(np.int8)
            x = rng.integers(0, 256, size=8)
            expected = W.astype(np.float64).T @ x.astype(np.float64)
            np.testing.assert_array_equal(ternary_project(W, x), expected)

    def test_counted_path_matches_vectorized(self, rng):
        W = rng.integers(-1, 2, size=(10, 6)).astype(np.int8)
        x = rng.integers(0, 256, size=10)
        counter = OpCounter()
        assert ternary_project_counted(W, x, counter) == ternary_project(W, x).tolist()


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

    def test_mnist_scale_model_passes(self, rng):
        QuantizedModel(
            ternary_weights=rng.integers(-1, 2, size=(784, 400)).astype(np.int8),
            int_beta=IntegerBeta(
                values=rng.integers(-10000, 10001, size=(400, 10)).astype(np.int64), tau=0.01
            ),
            input_range=(0, 255),
        )


@st.composite
def models_and_inputs(draw):
    """A small ternary model, a declared range on either side of 2**24, and rows in it."""
    n, L, m, rows = (draw(st.integers(1, k)) for k in (8, 6, 4, 4))
    W = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n * L, max_size=n * L)))
    V = np.array(draw(st.lists(st.integers(-(2**20), 2**20), min_size=L * m, max_size=L * m)))
    # hi = 2**k - 1 is odd, so from k = 25 on float32 cannot hold it.
    hi = min(2 ** draw(st.integers(0, 31)), INT32_MAX // n + 1) - 1
    lo = -draw(st.integers(0, hi))
    x = st.integers(lo, hi) | st.sampled_from([lo, hi])
    X = np.array(draw(st.lists(x, min_size=rows * n, max_size=rows * n)))
    model = QuantizedModel(
        ternary_weights=W.reshape(n, L).astype(np.int8),
        int_beta=IntegerBeta(values=V.reshape(L, m).astype(np.int64), tau=1.0),
        input_range=(lo, hi),
    )
    return model, X.reshape(rows, n).astype(np.int64)


def int64_reference_scores(model, X):
    return np.maximum(X @ model.ternary_weights.astype(np.int64), 0) @ model.int_beta.values


class TestKernelExactness:
    @settings(max_examples=300, deadline=None, database=None)
    @given(models_and_inputs())
    def test_scores_match_int64_reference_and_audit(self, case):
        model, X = case
        reference = X @ model.ternary_weights.astype(np.int64)
        np.testing.assert_array_equal(ternary_project(model.kernel_weights, X), reference)
        np.testing.assert_array_equal(int_scores(model, X), int64_reference_scores(model, X))
        for x in X[np.any(X, axis=1)]:
            assert classify_int(model, x) == classify_int_counted(model, x, OpCounter())

    @pytest.mark.parametrize(
        "n, input_range, dtype",
        [
            (1, (0, 2**24 - 1), np.float32),
            (3, (0, (2**24 - 1) // 3), np.float32),
            (1, (0, 2**24 + 1), np.float64),
            (1, (-(2**31 - 1), 2**31 - 1), np.float64),
        ],
        ids=["n1_below_2p24", "n3_below_2p24", "n1_above_2p24", "n1_int32_max"],
    )
    def test_bound_selects_exact_dtype(self, n, input_range, dtype):
        # Columns +1 and -1 with unit output weights score |sum(x)|, which
        # reaches the bound itself when every input sits at an end of the range.
        model = QuantizedModel(
            ternary_weights=np.tile(np.array([1, -1], dtype=np.int8), (n, 1)),
            int_beta=IntegerBeta(values=np.ones((2, 1), dtype=np.int64), tau=1.0),
            input_range=input_range,
        )
        assert model.kernel_weights.dtype == dtype
        X = np.array([[input_range[1]] * n, [input_range[0]] * n, [input_range[1]] + [0] * (n - 1)])
        exact = [abs(sum(row)) for row in X.tolist()]
        assert exact[0] == hidden_bound(n, input_range)
        assert int_scores(model, X)[:, 0].tolist() == exact
        assert [int(int_scores(model, x)[0]) for x in X] == exact
        np.testing.assert_array_equal(int_scores(model, X), int64_reference_scores(model, X))

    def test_replace_across_2p24_switches_cached_dtype(self):
        model = QuantizedModel(
            ternary_weights=np.ones((1, 1), dtype=np.int8),
            int_beta=IntegerBeta(values=np.ones((1, 1), dtype=np.int64), tau=1.0),
            input_range=(0, 2**24 - 1),
        )
        assert model.kernel_weights.dtype == np.float32
        wide = replace(model, input_range=(0, 2**24))
        assert wide.kernel_weights.dtype == np.float64
        assert replace(wide, input_range=(0, 255)).kernel_weights.dtype == np.float32
        assert int(int_scores(wide, np.array([2**24]))[0]) == 2**24

    def test_kernel_cache_cannot_be_desynchronised(self):
        W = np.array([[1, 0], [-1, 1]], dtype=np.int8)
        model = QuantizedModel(
            ternary_weights=W, int_beta=IntegerBeta(values=np.ones((2, 1), dtype=np.int64), tau=1.0)
        )
        with pytest.raises(ValueError, match="read-only"):
            model.kernel_weights[0, 0] = 5.0
        # A wider range must go through replace(), which re-proves and rebuilds.
        with pytest.raises(FrozenInstanceError):
            model.input_range = (0, 2**24 + 1)
        # The caller's array stays writeable; the cache is a copy.
        W[0, 1] = 1
        assert model.kernel_weights[0, 1] == 0


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
        for kind in ("ternary", "pm1"):
            with pytest.raises(ValueError, match="must be integers"):
                FloatModel(W, np.ones((2, 1)), 1.0, kind, 0)
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
        for _ in range(10):
            model = random_quantized_model(rng, n=6, L=5, m=3)
            x = random_sample(rng, model)
            proj_counter = OpCounter()
            ternary_project_counted(model.ternary_weights, x, proj_counter)
            assert proj_counter.float_ops == 0
            assert proj_counter.int_muls == 0

            full_counter = OpCounter()
            label = classify_int_counted(model, x, full_counter)
            assert full_counter.float_ops == 0
            assert label == classify_int(model, x)

    def test_scores_are_integers(self, rng):
        model = random_quantized_model(rng)
        s = int_scores(model, random_sample(rng, model))
        assert np.issubdtype(s.dtype, np.integer)
