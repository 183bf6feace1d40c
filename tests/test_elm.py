import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import gauss_solve, kernel_form, naive_hidden, random_float_model
from intelm import elm
from intelm.data import DataFormatError, InputError, RawDataset, max_abs, preprocess
from intelm.elm import (
    FloatModel,
    gen_weights_continuous,
    gen_weights_ternary,
    hidden_features,
    one_hot,
    predict_float,
    predict_float_batch,
    scores_float,
    train,
    training_residual,
)
from intelm.intinfer import PackedKernel, QuantizedModel, classify_int_batch, int_scores
from intelm.linalg import (
    BLOCK_ROWS,
    BUILD_BLOCK_BYTES,
    DimensionError,
    FloatKernel,
    accumulate_gram,
    exact_dtype,
    solve_spd,
)
from intelm.modelio import load_model, save_model
from intelm.quantize import IntegerBeta
from intelm.seeding import make_rng


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

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (64, 33), (784, 500)])
    def test_ternary_stream_is_the_default_integer_draw(self, shape):
        # Every saved ternary model was drawn from this stream; its W must not change.
        for seed in (0, 1, 17, 2**31 - 1, 2**63 + 5):
            np.testing.assert_array_equal(
                gen_weights_ternary(*shape, seed=seed),
                make_rng(seed).integers(-1, 2, shape).astype(np.int8),
            )

    def test_ternary_symbol_frequencies(self):
        w = gen_weights_ternary(300, 300, seed=42)
        for symbol in (-1, 0, 1):
            freq = np.mean(w == symbol)
            assert 0.313 <= freq <= 0.353, (symbol, freq)

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


class TestBlockedProjection:
    """The exact projection fills H block by block, bit for bit the int64 reference."""

    B = BLOCK_ROWS

    @pytest.mark.parametrize("N", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("sample_dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize(
        "steps, kernel_dtype",
        [(["l2_normalize"], np.float32), (["zero_mean", "l2_normalize"], np.float64)],
    )
    def test_bit_identical_to_int64_reference(self, N, sample_dtype, steps, kernel_dtype):
        n, most = 784, 2 * self.B + 3
        samples = make_rng(N).integers(1, 256, size=(most, n)).astype(sample_dtype)
        norm = preprocess(RawDataset(samples, np.zeros(most), 1), steps)
        rows, row_scale = norm.rows[:N], norm.row_scale[:N]
        W = gen_weights_ternary(n, 24, seed=3)
        assert rows.dtype == (np.int64 if "zero_mean" in steps else sample_dtype)
        assert exact_dtype(n * max_abs(norm.rows) * max_abs(W)) is kernel_dtype
        P = np.maximum(rows @ W.astype(np.int64), 0)
        for scale, reference in [(row_scale, P * row_scale[:, None]), (None, P.astype(np.float64))]:
            H = hidden_features(W, rows, scale)
            assert H.dtype == np.float64 and H.flags.c_contiguous and H.shape == (N, 24)
            assert H.tobytes() == reference.tobytes()

    def test_peak_memory_is_H_and_the_cast_weights(self):
        # One GEMM, with a float32 copy of X and the whole projection beside H, traced 72 MB here.
        N, n, L = 3000, 784, 2000
        samples = make_rng(26).integers(0, 256, size=(N, n)).astype(np.uint8)
        norm = preprocess(RawDataset(samples, np.zeros(N), 1), ["l2_normalize"])
        W = gen_weights_ternary(n, L, 27)
        tracemalloc.start()
        try:
            H = hidden_features(W, norm.rows, norm.row_scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert H.shape == (N, L)
        assert peak < N * L * 8 + n * L * 4 + 4 * 2**20

    @staticmethod
    def spy_on_blocks(monkeypatch):
        """Record [dtype, blocks yielded] of each FloatKernel.blocks call."""
        real, calls = FloatKernel.blocks, []

        def blocks(kernel, X):
            calls.append([kernel.dtype, 0])
            for block in real(kernel, X):
                calls[-1][1] += 1
                yield block

        monkeypatch.setattr(FloatKernel, "blocks", blocks)
        return calls

    @pytest.mark.parametrize("N, blocks", [(3, 1), (300, 3)], ids=["few-rows", "row-blocks"])
    def test_bounds_from_2_53_to_2_63_take_the_int64_kernel(self, monkeypatch, N, blocks):
        # n * max|x| = 16 * 2**55: the sums reach 2**59, where float64 rounds and int64 does not.
        n, L = 16, 64
        X = make_rng(N).integers(-(2**55), 2**55, size=(N, n), endpoint=True)
        X[0, 0] = 2**55
        W = gen_weights_ternary(n, L, seed=5)
        scale = make_rng(N + 1).random(N) + 0.5
        assert exact_dtype(n * max_abs(X) * max_abs(W)) is np.int64
        calls = self.spy_on_blocks(monkeypatch)
        H = hidden_features(W, X, scale)
        assert calls == [[np.int64, blocks]]
        reference = np.maximum(X @ W.astype(np.int64), 0) * scale[:, None]
        assert H.tobytes() == reference.tobytes()
        rounded = np.maximum(X.astype(np.float64) @ W.astype(np.float64), 0) * scale[:, None]
        assert rounded.tobytes() != reference.tobytes()

    def test_bounds_past_2_63_take_the_float64_gemm(self, monkeypatch):
        X = make_rng(4).integers(2**61, 2**62, size=(3, 4))
        W = gen_weights_ternary(4, 8, seed=6)
        scale = make_rng(5).random(3) + 0.5
        assert exact_dtype(4 * max_abs(X) * max_abs(W)) is None
        calls = self.spy_on_blocks(monkeypatch)
        H = hidden_features(W, X, scale)
        assert calls == []
        expected = np.maximum(X.astype(np.float64) @ W.astype(np.float64), 0) * scale[:, None]
        assert H.tobytes() == expected.tobytes()

    def test_scoring_few_rows_of_a_wide_float_model_holds_no_float_w(self):
        # A float32 W of this model is 6.1 MB; four rows are summed through one block buffer.
        W = gen_weights_ternary(3072, 500, 8)
        beta = make_rng(8).standard_normal((500, 10))
        model = FloatModel(W, beta, gamma=1.0, weight_kind="ternary", seed=8,
                           metadata={"preprocessing": ["l2_normalize"]})
        X = make_rng(9).integers(1, 256, size=(4, 3072)).astype(np.uint8)
        tracemalloc.start()
        try:
            labels = predict_float_batch(model, X)
            scores = scores_float(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < BUILD_BLOCK_BYTES + 2**20
        np.testing.assert_array_equal(scores, np.maximum(X @ W.astype(np.int64), 0) @ beta)
        np.testing.assert_array_equal(labels, scores.argmax(axis=1))


class TestTrain:
    def test_scalar_hand_example(self):
        # H = [2], beta = (1 + 4)^-1 * 2 * 1 = 0.4
        model = train(np.array([[2.0]]), one_hot([0], 1), np.array([[1.0]]), gamma=1.0)
        np.testing.assert_allclose(model.beta, [[0.4]], atol=1e-12)

    def test_zero_targets_give_zero_beta(self, rng):
        targets = one_hot(np.zeros(10, dtype=int), 2)
        targets[:] = 0.0
        model = train(rng.standard_normal((10, 4)), targets, rng.random((4, 6)))
        np.testing.assert_array_equal(model.beta, np.zeros((6, 2)))

    def test_matches_dense_oracle(self, rng):
        X = rng.standard_normal((20, 6))
        W = rng.random((6, 4))
        targets = one_hot(rng.integers(0, 3, 20), 3)
        model = train(X, targets, W, gamma=1.0, block_size=7)
        H = naive_hidden(W, X)
        gram = np.eye(4) / 1.0 + H.T @ H
        expected = gauss_solve(gram, H.T @ targets)
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
            bound = 1e-8 * max(1.0, np.abs(H.T @ targets).max())
            assert training_residual(model, X, targets) <= bound

    def test_integer_weights_need_their_kind(self, rng):
        W = gen_weights_ternary(3, 4, seed=1)
        with pytest.raises(ValueError, match="continuous weights must be floats"):
            train(rng.standard_normal((5, 3)), one_hot([0, 1, 0, 1, 0], 2), W)
        assert train(rng.standard_normal((5, 3)), one_hot([0, 1, 0, 1, 0], 2), W, weight_kind="ternary").L == 4

    def test_sample_count_mismatch(self, rng):
        with pytest.raises(DimensionError):
            train(rng.standard_normal((5, 3)), one_hot([0, 1], 2), rng.random((3, 2)))


def zero_start_beta(W, X, targets, gamma, block_size, row_scale=None):
    """Reference: the training loop that folds every block into a zero-filled system."""
    L = W.shape[1]
    gram, rhs = np.zeros((L, L)), np.zeros((L, targets.shape[1]))
    for start in range(0, len(X), block_size):
        rows = slice(start, start + block_size)
        block = hidden_features(W, X[rows], None if row_scale is None else row_scale[rows])
        gram += block.T @ block
        rhs += block.T @ targets[rows]
    return solve_spd(gram, rhs, gamma)[0]


class TestFirstBlockStart:
    """train starts its system from the first block; every bit of beta is the zero start's."""

    N = 30

    def _case(self, case):
        rng = make_rng(21)
        labels = np.arange(self.N) % 3
        targets = 2 * one_hot(labels, 3) - 1  # negative targets: a dead unit's rhs terms are -0.0
        if case == "float":
            X = rng.random((self.N, 16))
            W = gen_weights_continuous(16, 12, 22)
            W[:, 5] *= -1  # no positive pre-activation on non-negative rows: a dead unit
            return X, targets, W, "continuous", None
        samples = rng.integers(0, 256, size=(self.N, 16)).astype(np.uint8)
        norm = preprocess(RawDataset(samples, labels, 3), [case])
        W = gen_weights_ternary(16, 12, 23)
        W[:, 5] = 0  # a dead unit
        return norm.rows, targets, W, "ternary", norm.row_scale

    @pytest.mark.parametrize("block_size", [1, 7, N])
    @pytest.mark.parametrize("case", ["l2_normalize", "zero_mean", "float"])
    def test_beta_is_bit_identical_to_the_zero_start(self, case, block_size):
        X, targets, W, kind, scale = self._case(case)
        model = train(X, targets, W, gamma=0.5, weight_kind=kind, block_size=block_size, row_scale=scale)
        reference = zero_start_beta(W, X, targets, 0.5, block_size, scale)
        assert np.all(model.beta[5] == 0)
        assert model.beta.tobytes() == reference.tobytes()

    def test_no_samples_give_zero_beta(self):
        model = train(np.zeros((0, 4)), np.zeros((0, 2)), gen_weights_continuous(4, 3, 1))
        assert model.beta.tobytes() == np.zeros((3, 2)).tobytes()

    def test_one_gram_serves_every_gamma_and_is_left_intact(self):
        X, targets, W, kind, scale = self._case("l2_normalize")
        gram, rhs = accumulate_gram(hidden_features(W, X, scale), None, targets)
        before = gram.tobytes(), rhs.tobytes()
        betas = {gamma: solve_spd(gram, rhs, gamma)[0] for gamma in (0.01, 1.0, 100.0)}
        assert (gram.tobytes(), rhs.tobytes()) == before
        for gamma, beta in betas.items():
            model = train(X, targets, W, gamma=gamma, weight_kind=kind, row_scale=scale)
            assert beta.tobytes() == model.beta.tobytes()

    @staticmethod
    def _traced_train_peak(N, n, L):
        rng = make_rng(24)
        labels = np.arange(N) % 10
        samples = rng.integers(0, 256, size=(N, n)).astype(np.uint8)
        norm = preprocess(RawDataset(samples, labels, 10), ["l2_normalize"])
        W, targets = gen_weights_ternary(n, L, 25), one_hot(labels, 10)
        tracemalloc.start()
        try:
            model = train(norm.rows, targets, W, weight_kind="ternary", row_scale=norm.row_scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.beta.shape == (L, 10)
        return peak

    def test_peak_memory_is_one_block_and_one_gram(self):
        # One block of H (N x L float64) and one L x L Gram, never both with a second L x L
        # matrix: 107 MB is traced when a zero-filled Gram and a block product coexist with H.
        N, n, L = 3000, 784, 2000
        assert self._traced_train_peak(N, n, L) < N * L * 8 + L * L * 8 + 2**20

    def test_peak_memory_with_fewer_rows_than_L_is_the_gram_and_its_factor(self):
        # Here the solve sets the peak: the Gram and the ridged copy dpotrf factors in place.
        # A copy of that copy inside dpotrf would trace a third L x L matrix, 92 MiB.
        N, n, L = 1000, 784, 2000
        assert self._traced_train_peak(N, n, L) < 2 * L * L * 8 + 2 * 2**20


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

    def test_row_that_float64_rounds_to_zero_rejected(self, rng):
        # 2n * max|x| passes 2**63, so integer_rows centres in float64, where 2**62 + 1 is 2**62.
        n = 100
        model = FloatModel(
            input_weights=gen_weights_ternary(n, 6, seed=0), beta=rng.standard_normal((6, 3)),
            gamma=1.0, weight_kind="ternary", seed=0, metadata={"preprocessing": ["zero_mean"]},
        )
        for row in ([2**62] * (n - 1) + [2**62 + 1], [2**62 + 7] + [2**62] * (n - 1)):
            X = np.array([np.arange(n), row])
            for classify in (scores_float, predict_float_batch):  # the scorer refuses it, before any label
                with pytest.raises(InputError, match="sample at row 1: its float64 integer row rounds"):
                    classify(model, X)
            # With a blank row as well, the rounded row is reported, whichever comes first.
            for X, at in ((np.array([[5] * n, row]), 1), (np.array([row, [5] * n]), 0)):
                with pytest.raises(InputError, match=f"sample at row {at}: its float64 integer row rounds"):
                    predict_float_batch(model, X)
        # float64 rows that do not round leave a blank row to class_labels
        with pytest.raises(InputError, match="constant sample at row 1"):
            predict_float_batch(model, np.array([[0] * (n - 1) + [2**62], [5] * n]))

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
        np.testing.assert_array_equal(t.sum(axis=1), np.ones(30))
        np.testing.assert_array_equal(np.argmax(t, axis=1), labels)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            one_hot([0, 3], 3)


class TestModelFile:
    @pytest.mark.parametrize("n, L, m, dim", [(0, 3, 2, "n"), (4, 0, 2, "L"), (4, 3, 0, "m")])
    def test_empty_dimension_refused(self, n, L, m, dim):
        with pytest.raises(DimensionError, match=f"^{dim} must be >= 1, got 0$"):
            FloatModel(np.zeros((n, L), dtype=np.int8), np.ones((L, m)), 1.0, "ternary", 0)

    def test_float_model_roundtrip_bitwise(self, rng, tmp_path):
        model = random_float_model(rng, weight_kind="continuous")
        model = dataclasses.replace(model, metadata={"preprocessing": ["l2_normalize"]})
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

    def test_float_model_saves_the_steps_it_scores_with(self, rng, tmp_path):
        model = random_float_model(rng, weight_kind="ternary")
        model = dataclasses.replace(model, metadata={"preprocessing": ["zero_mean", "l2_normalize"]})
        X = rng.integers(0, 256, size=(40, model.n))
        before = scores_float(model, X)
        for edited in (["l2_normalize"], [], ["whiten"]):
            model.metadata["preprocessing"] = edited
            save_model(model, tmp_path / "m.ielm")
            loaded = load_model(tmp_path / "m.ielm")
            assert loaded.steps == model.steps == ("zero_mean", "l2_normalize")
            assert loaded.metadata == {**model.metadata, "preprocessing": list(model.steps)}
            np.testing.assert_array_equal(scores_float(loaded, X), before)

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


# --- exact hidden layer on integer rows -----------------------------------------

STEP_LISTS = [[], ["l2_normalize"], ["zero_mean"], ["zero_mean", "l2_normalize"]]


@st.composite
def integer_cases(draw):
    """Small integer samples, ternary weights and a list of preprocessing steps."""
    N, n, L = (draw(st.integers(1, k)) for k in (5, 8, 6))
    # values up to 2**22 push the partial-sum bound past 2**24, onto the float64 kernel
    value = st.integers(-300, 300) | st.integers(-(2**22), 2**22)
    X = draw(st.lists(value, min_size=N * n, max_size=N * n))
    W = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n * L, max_size=n * L))
    steps = draw(st.sampled_from(STEP_LISTS))
    return np.array(X).reshape(N, n), np.array(W, dtype=np.int8).reshape(n, L), steps


def exact_signal(x: list[int], steps: list[str]) -> tuple[list[int], int, int]:
    """Integer signal z and (d, s) with sample = z / d / sqrt(s), computed in Python ints."""
    n = len(x)
    z, d, s = list(x), 1, 1
    if "zero_mean" in steps:
        z, d = [n * v - sum(x) for v in x], n
    if "l2_normalize" in steps:
        d, s = 1, sum(v * v for v in z)
    return z, d, s


class TestExactHiddenLayer:
    @settings(max_examples=300, deadline=None, database=None)
    @given(integer_cases())
    def test_within_two_ulp_of_exact_relu_times_scale(self, case):
        X, W, steps = case
        signals = [exact_signal(x, steps) for x in X.tolist()]
        assume(all(s > 0 for _, _, s in signals))
        norm = preprocess(RawDataset(X, np.zeros(len(X)), 1, value_range=(-(2**22), 2**22)), steps)
        assert norm.rows.dtype == np.int64
        H = hidden_features(W, norm.rows, norm.row_scale)
        for j, (z, d, s) in enumerate(signals):
            for i in range(W.shape[1]):
                v = max(0, sum(zk * int(wk) for zk, wk in zip(z, W[:, i])))
                h, ulp = Fraction(float(H[j, i])), Fraction(float(np.spacing(H[j, i])))
                if v == 0:
                    assert h == 0
                    continue
                # exact value t = v / d / sqrt(s) > 0; |h - t| <= 2 ulp <=> (h -/+ 2 ulp)^2 bracket t^2
                t2 = Fraction(v * v, d * d * s)
                assert max(h - 2 * ulp, 0) ** 2 <= t2 <= (h + 2 * ulp) ** 2

    def test_dead_unit_gets_exact_zero_activation_and_beta_row(self):
        # Unit 0 is x0 + x1 - x2, <= 0 on every row and exactly 0 on rows 0-2.
        # The float path projects l2-normalized floats, and 40/s + 6/s - 46/s
        # rounds to 1.1e-16 on row 0.
        X = np.array([[40, 6, 46], [3, 4, 7], [10, 20, 30], [1, 2, 9], [5, 0, 8], [2, 7, 12]])
        W = np.array([[1, 1, 0], [1, -1, 1], [-1, 0, 1]], dtype=np.int8)
        labels = [0, 1, 0, 1, 0, 1]
        targets = one_hot(labels, 2)
        float_rows = X / np.linalg.norm(X, axis=1)[:, None]
        assert hidden_features(W, float_rows)[0, 0] > 0
        assert np.any(train(float_rows, targets, W, weight_kind="ternary").beta[0] != 0)

        norm = preprocess(RawDataset(X, labels, 2, value_range=(0, 255)), ["l2_normalize"])
        H = hidden_features(W, norm.rows, norm.row_scale)
        assert np.all(H[:, 0] == 0)
        model = train(norm.rows, targets, W, weight_kind="ternary", row_scale=norm.row_scale)
        assert np.all(model.beta[0] == 0) and np.all(model.beta[1:] != 0)

    def test_float_rows_and_float_weights_take_the_float_path(self, rng):
        X = rng.integers(0, 256, size=(7, 5))
        W = gen_weights_ternary(5, 4, seed=2)
        scale = 1.0 / np.arange(1, 8)
        exact = hidden_features(W, X, scale)
        np.testing.assert_array_equal(exact, np.maximum(X @ W.astype(np.int64), 0) * scale[:, None])
        np.testing.assert_allclose(hidden_features(W, X * scale[:, None]), exact, rtol=1e-14)
        np.testing.assert_allclose(hidden_features(W.astype(np.float64), X, scale), exact, rtol=1e-14)

    def test_row_scale_length_checked(self):
        with pytest.raises(DimensionError, match="row_scale"):
            hidden_features(np.ones((2, 3), dtype=np.int8), np.ones((4, 2), dtype=np.int64), np.ones(3))

    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
    def test_row_scale_must_be_finite_and_positive(self, bad):
        # relu(x . w) * s is the hidden layer of s * x only for 0 < s < inf: a negative scale
        # would train on negative activations, a zero one on no signal at all.
        X = make_rng(26).integers(0, 256, size=(6, 4)).astype(np.uint8)
        W, targets = gen_weights_ternary(4, 3, 27), one_hot(np.arange(6) % 2, 2)
        scale = np.full(6, 0.5)
        scale[3] = bad
        for call in (lambda: hidden_features(W, X, scale),
                     lambda: train(X, targets, W, weight_kind="ternary", row_scale=scale),
                     lambda: hidden_features(W.astype(np.float64), X, scale)):
            with pytest.raises(ValueError, match=r"row_scale must be finite and > 0"):
                call()
        norm = preprocess(RawDataset(X, np.arange(6) % 2, 2), ["zero_mean", "l2_normalize"])
        for row_scale in (None, norm.row_scale):
            hidden_features(W, norm.rows, row_scale)

    def test_same_model_as_training_on_float_samples(self, rng):
        X = rng.integers(0, 256, size=(60, 16))
        labels = np.arange(60) % 3
        W = gen_weights_ternary(16, 12, seed=4)
        for steps in (["l2_normalize"], ["zero_mean", "l2_normalize"]):
            norm = preprocess(RawDataset(X, labels, 3), steps)
            exact = train(norm.rows, one_hot(labels, 3), W, weight_kind="ternary", row_scale=norm.row_scale)
            floats = train(norm.samples, one_hot(labels, 3), W, weight_kind="ternary")
            np.testing.assert_allclose(exact.beta, floats.beta, rtol=0, atol=1e-12 * np.abs(floats.beta).max())

    def test_solve_residual_matches_recomputed_residual(self, rng):
        X = rng.integers(0, 256, size=(50, 10))
        labels = np.arange(50) % 2
        targets = one_hot(labels, 2)
        norm = preprocess(RawDataset(X, labels, 2), ["l2_normalize"])
        model = train(norm.rows, targets, gen_weights_ternary(10, 8, seed=1), weight_kind="ternary",
                      row_scale=norm.row_scale, block_size=16)
        recomputed = training_residual(model, norm.rows, targets, norm.row_scale)
        assert model.solve_residual <= 1e-8 and abs(model.solve_residual - recomputed) <= 1e-12


# Hashes the training hidden layer of saved integer data (argv[1]), for both kernel dtypes.
HIDDEN_HASH_SCRIPT = """
import hashlib, sys
import numpy as np
from intelm.data import RawDataset, preprocess
from intelm.elm import hidden_features
with np.load(sys.argv[1]) as saved:
    X, W = saved["X"], saved["W"]
for steps in (["l2_normalize"], ["zero_mean", "l2_normalize"]):
    norm = preprocess(RawDataset(X, np.zeros(len(X)), 1), steps)
    print(hashlib.sha256(hidden_features(W, norm.rows, norm.row_scale).tobytes()).hexdigest())
"""


def test_hidden_layer_is_bit_identical_across_blas_thread_counts(tmp_path):
    """Every sum in the projection is exact and the scale is applied per element,
    so H cannot depend on how many threads BLAS splits the GEMM over."""
    X = np.random.default_rng(5).integers(0, 256, size=(600, 784))
    # Bright left halves through a left-half unit: zero-mean partial sums reach 3.6e7 > 2**24.
    X[:100, :392] |= 0xC1
    X[:100, 392:] &= 0x1F
    W = gen_weights_ternary(784, 400, seed=3)
    W[:, 0] = np.arange(784) < 392
    np.savez(tmp_path / "inputs.npz", X=X, W=W)
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", HIDDEN_HASH_SCRIPT, str(tmp_path / "inputs.npz")],
                             env=env, capture_output=True, text=True, check=True)
        outputs.append(run.stdout.split())
    reference = []
    for steps in (["l2_normalize"], ["zero_mean", "l2_normalize"]):
        norm = preprocess(RawDataset(X, np.zeros(600), 1), steps)
        H = np.maximum(norm.rows @ W.astype(np.int64), 0) * norm.row_scale[:, None]
        reference.append(hashlib.sha256(H.tobytes()).hexdigest())
    assert outputs[0] == outputs[1] == reference


# --- sample dtype invariance ------------------------------------------------------

SAMPLE_DTYPES = (np.uint8, np.uint16, np.int16, np.int64)


@st.composite
def u8_valued_cases(draw):
    """u8-valued samples, some rows box corners of 0s and 255s, with labels, steps and a seed.

    Under zero_mean a corner row has the widest centred values, n*255 - sum(x),
    so centring in the samples' own u8 width would wrap there.
    """
    N, n, L = draw(st.integers(2, 8)), draw(st.integers(2, 8)), draw(st.integers(1, 6))
    corner = st.lists(st.sampled_from([0, 255]), min_size=n, max_size=n)
    inner = st.lists(st.integers(0, 255), min_size=n, max_size=n)
    X = np.array(draw(st.lists(corner | inner, min_size=N, max_size=N)))
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=N, max_size=N)))
    return X, labels, L, draw(st.sampled_from(STEP_LISTS)), draw(st.integers(0, 2**31 - 1))


def _outcome(f, *args):
    """f(*args), or the message of the input error it raises."""
    try:
        return f(*args)
    except (InputError, DataFormatError) as e:
        return f"{type(e).__name__}: {e}"


class TestSampleDtypeInvariance:
    """The same values stored as u8, uint16, int16 or int64 give the same model files and scores."""

    @staticmethod
    def _trained_file(samples, labels, L, steps, seed, path) -> bytes:
        norm = preprocess(RawDataset(samples, labels, class_count=3), steps)
        W = gen_weights_ternary(norm.n, L, seed)
        model = train(norm.rows, one_hot(norm.labels, 3), W, seed=seed, weight_kind="ternary",
                      metadata={"preprocessing": steps}, row_scale=norm.row_scale)
        save_model(model, path)
        return path.read_bytes()

    @settings(max_examples=150, deadline=None, database=None)
    @given(u8_valued_cases())
    def test_trained_model_files_are_byte_identical(self, tmp_path_factory, case):
        X, labels, L, steps, seed = case
        path = tmp_path_factory.mktemp("dtype") / "model.ielm"
        files = [_outcome(self._trained_file, X.astype(dt), labels, L, steps, seed, path)
                 for dt in SAMPLE_DTYPES]
        assert all(f == files[-1] for f in files)

    @pytest.mark.parametrize("hi, kernel", [(255, np.float32), (2**23, np.float64)])
    @settings(max_examples=100, deadline=None, database=None)
    @given(case=u8_valued_cases())
    def test_scores_and_labels_are_equal(self, hi, kernel, case):
        X, _, L, steps, seed = case
        rng = make_rng(seed)
        W = gen_weights_ternary(X.shape[1], L, seed)
        qmodel = QuantizedModel(
            ternary_weights=W,
            int_beta=IntegerBeta(values=rng.integers(-50, 51, size=(L, 3)), tau=1.0),
            input_range=(0, hi),
            metadata={"preprocessing": steps},
        )
        # kernel is W's exact dtype for the bound n*hi, or its centred form, vs 2**24. Uncentred
        # models pack instead at hi = 255, where n*255 * (1 + B + B**2) < 2**53, and at 2**23 only
        # when W is all zero: one nonzero weight makes a column 2**23 wide, past 2**53 / B**2.
        packs = "zero_mean" not in steps and (hi == 255 or not W.any())
        assert kernel_form(qmodel) == (PackedKernel if packs else kernel)
        beta = rng.standard_normal((L, 3))
        float_models = [
            FloatModel(input_weights=w, beta=beta, gamma=1.0, weight_kind=kind, seed=seed,
                       metadata={"preprocessing": steps})
            for w, kind in ((W, "ternary"), (gen_weights_continuous(X.shape[1], L, seed), "continuous"))
        ]
        reference = X.astype(np.int64)
        expected_int = int_scores(qmodel, reference)
        expected_labels = _outcome(classify_int_batch, qmodel, reference)
        expected_float = [scores_float(m, reference).tobytes() for m in float_models]
        for dt in SAMPLE_DTYPES[:-1]:
            samples = X.astype(dt)
            scores = int_scores(qmodel, samples)
            assert scores.dtype == np.int64
            np.testing.assert_array_equal(scores, expected_int)
            labels = _outcome(classify_int_batch, qmodel, samples)
            if isinstance(expected_labels, str):
                assert labels == expected_labels
            else:
                np.testing.assert_array_equal(labels, expected_labels)
            assert [scores_float(m, samples).tobytes() for m in float_models] == expected_float


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: one_hot([[0, 1]], 2), ValueError, r"labels must be 1-D, got shape \(1, 2\)"),
        (lambda: FloatModel(np.ones((2, 3)), np.ones((3, 1)), 1.0, "binary", 0), ValueError,
         "unknown weight kind 'binary'"),
        (lambda: hidden_features(np.ones((3, 2), np.int8), np.zeros((1, 2, 3), np.int64)), DimensionError,
         r"X must be 2-D, got shape \(1, 2, 3\)"),
        (lambda: FloatModel(np.ones((2, 3)), np.ones((2, 1)), 1.0, "continuous", 0), DimensionError,
         "beta has 2 rows, input weights have 3 columns"),
    ],
    ids=["one_hot_2d", "weight_kind", "integer_x_3d", "beta_rows"],
)
def test_typed_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("gamma, seed", [(0.0, 0), (float("inf"), 0), (1e-320, 0), (1.0, -1), (1.0, 2**64)])
def test_train_refuses_gamma_and_seed_before_projecting(monkeypatch, gamma, seed):
    calls = []
    project = elm.hidden_features
    monkeypatch.setattr(elm, "hidden_features", lambda *args: calls.append(1) or project(*args))
    X, W = np.ones((4, 3)), np.ones((3, 2))
    with pytest.raises(ValueError, match="gamma must be|seed must be"):
        train(X, one_hot([0, 1, 0, 1], 2), W, gamma, seed=seed)
    assert calls == []
    train(X, one_hot([0, 1, 0, 1], 2), W, 1.0, seed=0)
    assert calls == [1]
