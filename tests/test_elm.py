import numpy as np
import pytest

from conftest import gauss_solve, naive_hidden, random_float_model
from intelm.elm import (
    FloatModel,
    gen_weights_continuous,
    gen_weights_pm1,
    gen_weights_ternary,
    hidden_features,
    one_hot,
    predict_float,
    predict_float_batch,
    train,
    training_residual,
)
from intelm.linalg import DimensionError
from intelm.modelio import load_model, save_model


class TestWeightGeneration:
    def test_continuous_deterministic(self):
        a = gen_weights_continuous(1, 1, seed=7)
        b = gen_weights_continuous(1, 1, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_continuous_open_interval(self):
        w = gen_weights_continuous(100, 100, seed=3)
        assert w.min() > 0.0 and w.max() < 1.0

    def test_continuous_mean(self):
        w = gen_weights_continuous(200, 200, seed=11)
        assert abs(w.mean() - 0.5) < 0.01

    def test_ternary_range(self):
        w = gen_weights_ternary(1, 1, seed=0)
        assert w[0, 0] in (-1, 0, 1)

    def test_ternary_deterministic(self):
        np.testing.assert_array_equal(
            gen_weights_ternary(100, 100, seed=5), gen_weights_ternary(100, 100, seed=5)
        )

    def test_ternary_symbol_frequencies(self):
        w = gen_weights_ternary(300, 300, seed=42)
        for symbol in (-1, 0, 1):
            freq = np.mean(w == symbol)
            assert 0.313 <= freq <= 0.353, (symbol, freq)

    def test_pm1_values(self):
        w = gen_weights_pm1(50, 50, seed=1)
        assert set(np.unique(w)) == {-1, 1}

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError):
            gen_weights_continuous(0, 5, seed=0)
        with pytest.raises(ValueError):
            gen_weights_ternary(5, 0, seed=0)


class TestHiddenFeatures:
    def test_relu_clamps_negative(self):
        H = hidden_features(np.array([[1.0], [1.0]]), np.array([[-1.0, -2.0]]))
        np.testing.assert_array_equal(H, [[0.0]])

    def test_identity_projection(self):
        H = hidden_features(np.eye(2), np.array([[3.0, -4.0]]))
        np.testing.assert_array_equal(H, [[3.0, 0.0]])

    def test_matches_loop_oracle(self, rng):
        W = rng.standard_normal((4, 3))
        X = rng.standard_normal((2, 4))
        np.testing.assert_allclose(hidden_features(W, X), naive_hidden(W, X), atol=1e-12)

    def test_nonnegative_output(self, rng):
        H = hidden_features(rng.standard_normal((6, 9)), rng.standard_normal((20, 6)))
        assert (H >= 0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            hidden_features(np.ones((3, 2)), np.ones((1, 4)))


class TestTrain:
    def test_scalar_hand_example(self):
        # H = [2], beta = (1 + 4)^-1 * 2 * 1 = 0.4
        model = train(np.array([[2.0]]), one_hot([0], 1), np.array([[1.0]]), gamma=1.0)
        np.testing.assert_allclose(model.beta, [[0.4]], atol=1e-12)

    def test_zero_targets_give_zero_beta(self, rng):
        targets = one_hot(np.zeros(10, dtype=int), 2)
        targets.onehot[:] = 0.0
        model = train(rng.standard_normal((10, 4)), targets, rng.random((4, 6)))
        np.testing.assert_array_equal(model.beta, np.zeros((6, 2)))

    def test_matches_dense_oracle(self, rng):
        X = rng.standard_normal((20, 6))
        W = rng.random((6, 4))
        targets = one_hot(rng.integers(0, 3, 20), 3)
        model = train(X, targets, W, gamma=1.0, block_size=7)
        H = naive_hidden(W, X)
        gram = np.eye(4) / 1.0 + H.T @ H
        expected = gauss_solve(gram, H.T @ targets.onehot)
        np.testing.assert_allclose(model.beta, expected, atol=1e-8)

    def test_blocking_does_not_change_result(self, rng):
        X = rng.standard_normal((33, 5))
        W = rng.random((5, 8))
        targets = one_hot(rng.integers(0, 2, 33), 2)
        betas = [train(X, targets, W, block_size=bs).beta for bs in (1, 4, 33, 1000)]
        for beta in betas[1:]:
            np.testing.assert_allclose(beta, betas[0], atol=1e-10)

    def test_residual_invariant(self, rng):
        for _ in range(10):
            X = rng.standard_normal((25, 5))
            W = rng.random((5, 7))
            targets = one_hot(rng.integers(0, 3, 25), 3)
            model = train(X, targets, W, gamma=float(rng.random() * 10 + 0.1))
            H = naive_hidden(W, X)
            bound = 1e-8 * max(1.0, np.abs(H.T @ targets.onehot).max())
            assert training_residual(model, X, targets) <= bound

    def test_integer_weights_need_their_kind(self, rng):
        W = gen_weights_ternary(3, 4, seed=1)
        with pytest.raises(ValueError, match="continuous weights must be floats"):
            train(rng.standard_normal((5, 3)), one_hot([0, 1, 0, 1, 0], 2), W)
        assert train(rng.standard_normal((5, 3)), one_hot([0, 1, 0, 1, 0], 2), W, weight_kind="ternary").L == 4

    def test_sample_count_mismatch(self, rng):
        with pytest.raises(DimensionError):
            train(rng.standard_normal((5, 3)), one_hot([0, 1], 2), rng.random((3, 2)))


class TestPredict:
    def _model_with_scores(self, scores):
        # identity hidden layer, beta column k selects score k for input of all ones
        L = len(scores)
        W = np.eye(L)
        beta = np.diag(np.asarray(scores, dtype=float))
        return FloatModel(input_weights=W, beta=beta, gamma=1.0, weight_kind="continuous", seed=0)

    def test_argmax(self):
        model = self._model_with_scores([1.0, 0.5])
        assert predict_float(model, np.ones(2)) == 0

    def test_tie_breaks_to_lowest_index(self):
        model = self._model_with_scores([0.7, 0.7])
        assert predict_float(model, np.ones(2)) == 0

    def test_scale_invariance(self, rng):
        model = random_float_model(rng)
        x = rng.standard_normal(model.n)
        assert predict_float(model, 5.0 * x) == predict_float(model, x)

    def test_batch_matches_single(self, rng):
        model = random_float_model(rng, weight_kind="ternary")
        X = rng.standard_normal((15, model.n))
        batch = predict_float_batch(model, X)
        assert [predict_float(model, x) for x in X] == batch.tolist()

    def test_length_mismatch(self, rng):
        model = random_float_model(rng)
        with pytest.raises(DimensionError):
            predict_float(model, np.ones(model.n + 1))
        with pytest.raises(DimensionError):
            predict_float(model, np.ones((2, model.n)))


class TestOneHot:
    def test_rows_sum_to_one_and_argmax_is_label(self, rng):
        labels = rng.integers(0, 4, 30)
        t = one_hot(labels, 4)
        np.testing.assert_array_equal(t.onehot.sum(axis=1), np.ones(30))
        np.testing.assert_array_equal(np.argmax(t.onehot, axis=1), labels)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            one_hot([0, 3], 3)


class TestModelFile:
    def test_float_model_roundtrip_bitwise(self, rng, tmp_path):
        model = random_float_model(rng, weight_kind="continuous")
        model.metadata["preprocessing"] = ["l2_normalize"]
        p1, p2 = tmp_path / "a.ielm", tmp_path / "b.ielm"
        save_model(model, p1)
        loaded = load_model(p1)
        np.testing.assert_array_equal(loaded.beta, model.beta)
        np.testing.assert_array_equal(loaded.input_weights, model.input_weights)
        assert loaded.gamma == model.gamma
        assert loaded.seed == model.seed
        assert loaded.metadata == model.metadata
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_ternary_model_roundtrip(self, rng, tmp_path):
        model = random_float_model(rng, weight_kind="ternary")
        save_model(model, tmp_path / "t.ielm")
        loaded = load_model(tmp_path / "t.ielm")
        assert loaded.weight_kind == "ternary"
        assert loaded.input_weights.dtype == np.int8
        np.testing.assert_array_equal(loaded.input_weights, model.input_weights)

    def test_identical_training_gives_identical_files(self, rng, tmp_path):
        X = rng.standard_normal((20, 4))
        targets = one_hot(rng.integers(0, 2, 20), 2)
        for name in ("a", "b"):
            W = gen_weights_ternary(4, 6, seed=9)
            model = train(X, targets, W, seed=9, weight_kind="ternary")
            save_model(model, tmp_path / name)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
