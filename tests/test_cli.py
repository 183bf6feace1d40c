import contextlib
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intelm
from conftest import near_zero_beta_model, write_texture_csvs
from intelm import cli
from intelm.cli import main
from intelm.data import load_idx, preprocess, write_cifar10_batch, write_idx
from intelm.elm import FloatModel, gen_weights_ternary, hidden_features, one_hot, predict_float_batch, training_residual
from intelm.experiments import make_quantized, select_model
from intelm.intinfer import QuantizedModel
from intelm.modelio import ModelFormatError, load_model, save_model
from intelm.quantize import IntegerBeta, precision_ladder, quantize_beta
from intelm.seeding import make_rng


@pytest.fixture
def rng():
    return make_rng(99)


@pytest.fixture
def idx_dataset(rng, tmp_path):
    # 40 tiny 4x4 "digit" images, two classes with distinct intensity bands
    labels = (np.arange(40) % 2).astype(np.uint8)
    images = np.where(
        labels[:, None, None] == 0,
        rng.integers(10, 80, size=(40, 4, 4)),
        rng.integers(150, 250, size=(40, 4, 4)),
    ).astype(np.uint8)
    write_idx(images, labels, tmp_path / "imgs.idx", tmp_path / "lbls.idx")
    return tmp_path / "imgs.idx", tmp_path / "lbls.idx"


def train_args(idx_dataset, out, seed=1, kind="ternary", extra=(), L=8):
    imgs, lbls = idx_dataset
    return [
        "train",
        "--images", str(imgs),
        "--labels", str(lbls),
        "--L", str(L),
        "--seed", str(seed),
        "--weight-kind", kind,
        "--out", str(out),
        *extra,
    ]


class TestTrain:
    def test_writes_model_and_reloads(self, idx_dataset, tmp_path, capsys):
        out = tmp_path / "model.ielm"
        assert main(train_args(idx_dataset, out)) == 0
        assert out.exists()
        model = load_model(out)
        assert model.L == 8
        assert "trained L=8" in capsys.readouterr().out

    def test_prints_the_residual_of_its_own_solve(self, idx_dataset, tmp_path, capsys):
        out = tmp_path / "model.ielm"
        assert main(train_args(idx_dataset, out)) == 0
        printed = float(capsys.readouterr().out.split("residual=")[1].split()[0])
        norm = preprocess(load_idx(*idx_dataset), ["l2_normalize"])
        targets = one_hot(norm.labels, norm.class_count)
        recomputed = training_residual(load_model(out), norm.rows, targets, norm.row_scale)
        assert printed <= 1e-8 and abs(printed - recomputed) <= 1e-12

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(
            [
                "train", "--images", str(tmp_path / "nope.idx"), "--labels",
                str(tmp_path / "nope2.idx"), "--L", "4", "--out", str(tmp_path / "m"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error subcommand=train" in err and "nope.idx" in err

    def test_train_limit_below_a_class_size(self, rng, tmp_path, capsys):
        # 21 rows whose class 2 has one sample: the limit need not keep every class
        labels = np.array([0, 1] * 10 + [2], dtype=np.uint8)
        images = rng.integers(1, 255, size=(21, 4, 4)).astype(np.uint8)
        write_idx(images, labels, tmp_path / "imgs.idx", tmp_path / "lbls.idx")
        out = tmp_path / "m.ielm"
        extra = ("--train-limit", "10")
        assert main(train_args((tmp_path / "imgs.idx", tmp_path / "lbls.idx"), out, extra=extra)) == 0
        assert out.exists()

    def test_deterministic_byte_identical(self, idx_dataset, tmp_path):
        a, b = tmp_path / "a.ielm", tmp_path / "b.ielm"
        assert main(train_args(idx_dataset, a)) == 0
        assert main(train_args(idx_dataset, b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("a,b,label\n1,2,0\n3,4\n", "line_3_has_2_fields,_expected_3"),
            ("a,b,label\n1,2,0\n3,4,1,99\n", "line_3_has_4_fields,_expected_3"),
            ("a,b,label\n1,2.5,0\n3,4,1\n", "line_2"),
            ("a,b,label\n", "has_no_samples"),
        ],
        ids=["short_row", "long_row", "non_integer", "header_only"],
    )
    def test_malformed_labeled_csv_exit_1(self, tmp_path, capsys, text, detail):
        data = tmp_path / "train.csv"
        data.write_text(text)
        args = ["train", "--csv", str(data), "--L", "4", "--out", str(tmp_path / "m.ielm")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "reason=DataFormatError" in err and detail in err
        assert not (tmp_path / "m.ielm").exists()

    def test_offers_exactly_the_two_weight_kinds(self, idx_dataset, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--help"])
        assert exit_info.value.code == 0
        assert "--weight-kind {continuous,ternary}" in capsys.readouterr().out
        out = tmp_path / "pm1.ielm"
        with pytest.raises(SystemExit) as exit_info:
            main(train_args(idx_dataset, out, kind="pm1"))
        assert exit_info.value.code == 2 and not out.exists()
        assert "invalid choice: 'pm1'" in capsys.readouterr().err

    def test_refuses_overwrite_without_force(self, idx_dataset, tmp_path, capsys):
        out = tmp_path / "model.ielm"
        assert main(train_args(idx_dataset, out)) == 0
        assert main(train_args(idx_dataset, out)) == 1
        assert "output_exists" in capsys.readouterr().err
        assert main(train_args(idx_dataset, out, extra=("--force",))) == 0


class TestQuantizeAndClassify:
    def _trained(self, idx_dataset, tmp_path):
        model_path = tmp_path / "float.ielm"
        main(train_args(idx_dataset, model_path))
        return model_path

    def test_quantize_then_classify_integer_path(self, idx_dataset, tmp_path, capsys):
        model_path = self._trained(idx_dataset, tmp_path)
        qpath = tmp_path / "quant.ielm"
        assert main(["quantize", "--model", str(model_path), "--out", str(qpath)]) == 0
        capsys.readouterr()
        imgs, _ = idx_dataset
        assert main(["classify", "--model", str(qpath), "--input", str(imgs)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 40
        assert set(lines) <= {"0", "1"}

    def test_classify_scores_flag(self, idx_dataset, tmp_path, capsys):
        model_path = self._trained(idx_dataset, tmp_path)
        qpath = tmp_path / "quant.ielm"
        assert main(["quantize", "--model", str(model_path), "--out", str(qpath)]) == 0
        imgs, _ = idx_dataset
        for path, parse in ((model_path, float), (qpath, int)):
            capsys.readouterr()
            assert main(["classify", "--model", str(path), "--input", str(imgs), "--scores"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 40
            for line in lines:
                label, *scores = line.split(",")
                assert len(scores) == 2  # one score per class
                # np.argmax picks the lowest index among tied scores
                assert int(label) == int(np.argmax([parse(v) for v in scores]))

    def test_tied_scores_print_the_lowest_index(self, rng, tmp_path, capsys):
        # Two equal beta columns tie both scores of every row; integer-valued floats keep the tie exact.
        W, column = gen_weights_ternary(16, 6, seed=0), rng.integers(1, 6, size=(6, 1))
        float_model = FloatModel(W, np.hstack([column, column]).astype(np.float64), gamma=1.0,
                                 weight_kind="ternary", seed=0)
        int_model = QuantizedModel(W, IntegerBeta(values=np.hstack([column, column]), tau=1.0))
        (tmp_path / "x.csv").write_text("\n".join(",".join(map(str, row)) for row in rng.integers(1, 256, (5, 16))))
        for model, parse in ((float_model, float), (int_model, int)):
            save_model(model, tmp_path / "m.ielm")
            capsys.readouterr()
            assert main(["classify", "--model", str(tmp_path / "m.ielm"), "--input", str(tmp_path / "x.csv"), "--scores"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 5
            for line in lines:
                label, *scores = line.split(",")
                scores = [parse(v) for v in scores]
                assert int(label) == 0 == int(np.argmax(scores))
                assert scores[0] == scores[1] > 0

    def test_truncated_idx_exit_1(self, idx_dataset, tmp_path, capsys):
        model_path = self._trained(idx_dataset, tmp_path)
        imgs, _ = idx_dataset
        cut = tmp_path / "cut.idx"
        cut.write_bytes(imgs.read_bytes()[:-100])
        capsys.readouterr()
        assert main(["classify", "--model", str(model_path), "--input", str(cut)]) == 1
        assert "reason=DataFormatError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, detail",
        [("1,2,3,4\n5,6,1.7,8\n", "line_2"), ("1,2,3,4\n\n5,6,7\n", "line_3_has_3_fields")],
        ids=["non_integer", "ragged"],
    )
    def test_malformed_csv_exit_1(self, idx_dataset, tmp_path, capsys, text, detail):
        model_path = self._trained(idx_dataset, tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        capsys.readouterr()
        assert main(["classify", "--model", str(model_path), "--input", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "reason=DataFormatError" in err and detail in err

    def test_malformed_model_exit_1(self, idx_dataset, tmp_path, capsys):
        model_path = self._trained(idx_dataset, tmp_path)
        blob = bytearray(model_path.read_bytes())
        blob[29] = 2  # beta kind code: 0 float, 1 integer
        model_path.write_bytes(bytes(blob))
        imgs, _ = idx_dataset
        capsys.readouterr()
        assert main(["classify", "--model", str(model_path), "--input", str(imgs)]) == 1
        assert "reason=ModelFormatError" in capsys.readouterr().err

    def test_nan_beta_model_exit_1(self, tmp_path, capsys):
        model = near_zero_beta_model()
        path = tmp_path / "nan.ielm"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        at = len(blob) - 8 * (model.beta.size - (model.m + 1))  # beta[1, 1], f8, row-major, last
        blob[at : at + 8] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        (tmp_path / "x.csv").write_text("1,2,3,4\n0,5,0,1\n9,9,9,9\n")
        code = main(["classify", "--model", str(path), "--input", str(tmp_path / "x.csv"), "--scores"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "reason=ModelFormatError" in captured.err and "NaN" in captured.err

    @pytest.mark.parametrize("integer", [False, True], ids=["float", "integer"])
    @pytest.mark.parametrize("dim", ["L", "m"])
    def test_model_with_an_empty_dimension_exit_1(self, tmp_path, capsys, dim, integer):
        fm = near_zero_beta_model()
        path = tmp_path / "empty.ielm"
        save_model(make_quantized(fm, (0, 255), fit_headroom=True) if integer else fm, path)
        beta_bytes = fm.L * fm.m * (4 if integer else 8)
        # Zero L (header offset 12) drops W (n*L i8) and beta; zero m (offset 16) drops beta.
        blob = bytearray(path.read_bytes()[: -beta_bytes - (fm.n * fm.L if dim == "L" else 0)])
        struct.pack_into("<I", blob, {"L": 12, "m": 16}[dim], 0)
        path.write_bytes(bytes(blob))
        (tmp_path / "x.csv").write_text("1,2,3,4\n0,5,0,1\n")
        code = main(["classify", "--model", str(path), "--input", str(tmp_path / "x.csv"), "--scores"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "reason=ModelFormatError" in captured.err and "empty_dimension" in captured.err

    def test_overflowing_float_scores_exit_1(self, tmp_path, capsys):
        # A beta entry near float64's largest value, as a flipped exponent bit in a file gives.
        model = near_zero_beta_model()
        model.beta[0, 1] = -1e308
        save_model(model, tmp_path / "big.ielm")
        (tmp_path / "x.csv").write_text("1,2,3,4\n0,5,0,1\n9,9,9,9\n")
        code = main(["classify", "--model", str(tmp_path / "big.ielm"), "--input", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "reason=ScoreOverflowError" in captured.err

    def test_feature_mismatch_exit_3(self, idx_dataset, rng, tmp_path, capsys):
        model_path = self._trained(idx_dataset, tmp_path)
        assert main(["quantize", "--model", str(model_path), "--out", str(tmp_path / "q.ielm")]) == 0
        write_idx(
            rng.integers(0, 256, size=(2, 5, 5)).astype(np.uint8),
            np.zeros(2, dtype=np.uint8),
            tmp_path / "wide.idx",
            tmp_path / "widelbl.idx",
        )
        (tmp_path / "narrow.csv").write_text("1,2,3\n4,5,6\n")
        for model in (model_path, tmp_path / "q.ielm"):
            for inputs in ("wide.idx", "narrow.csv"):
                capsys.readouterr()
                argv = ["classify", "--model", str(model), "--input", str(tmp_path / inputs)]
                for scores in ([], ["--scores"]):
                    assert main(argv + scores) == 3
                    captured = capsys.readouterr()
                    assert captured.out == "" and len(captured.err.splitlines()) == 1
                    assert {"code=3", "reason=shape_mismatch"} <= set(captured.err.split())

    def test_empty_input_exit_0(self, idx_dataset, tmp_path, capsys):
        model_path = self._trained(idx_dataset, tmp_path)
        capsys.readouterr()
        write_idx(
            np.zeros((0, 4, 4), dtype=np.uint8),
            np.zeros(0, dtype=np.uint8),
            tmp_path / "empty.idx",
            tmp_path / "emptylbl.idx",
        )
        assert main(["classify", "--model", str(model_path), "--input", str(tmp_path / "empty.idx")]) == 0
        assert capsys.readouterr().out == ""

    def test_zero_width_samples_exit_3_and_zero_rows_exit_0(self, idx_dataset, tmp_path, capsys):
        model_path = self._trained(idx_dataset, tmp_path)
        assert main(["quantize", "--model", str(model_path), "--out", str(tmp_path / "q.ielm")]) == 0
        # IDX image headers: 3 images of 0x0, and 0 images of 4x4
        (tmp_path / "zero_width.idx").write_bytes(struct.pack(">4I", 0x803, 3, 0, 0))
        (tmp_path / "zero_rows.idx").write_bytes(struct.pack(">4I", 0x803, 0, 4, 4))
        for model in (model_path, tmp_path / "q.ielm"):
            for scores in ([], ["--scores"]):
                capsys.readouterr()
                argv = ["classify", "--model", str(model), *scores, "--input"]
                assert main(argv + [str(tmp_path / "zero_width.idx")]) == 3
                captured = capsys.readouterr()
                assert captured.out == "" and {"code=3", "reason=shape_mismatch"} <= set(captured.err.split())
                assert main(argv + [str(tmp_path / "zero_rows.idx")]) == 0
                assert capsys.readouterr() == ("", "")

    def test_zero_rows_of_another_width_exit_3(self, idx_dataset, tmp_path, capsys):
        # The width rule holds for an empty file too: the scorers take 0 rows and check their width.
        model_path = self._trained(idx_dataset, tmp_path)
        assert main(["quantize", "--model", str(model_path), "--out", str(tmp_path / "q.ielm")]) == 0
        (tmp_path / "zero_rows_5x5.idx").write_bytes(struct.pack(">4I", 0x803, 0, 5, 5))
        for model in (model_path, tmp_path / "q.ielm"):
            for scores in ([], ["--scores"]):
                capsys.readouterr()
                argv = ["classify", "--model", str(model), *scores, "--input", str(tmp_path / "zero_rows_5x5.idx")]
                assert main(argv) == 3
                captured = capsys.readouterr()
                assert captured.out == "" and len(captured.err.splitlines()) == 1
                assert {"code=3", "reason=shape_mismatch"} <= set(captured.err.split())

    @pytest.mark.parametrize("code", [2, 3])
    def test_removed_weight_kind_code_exit_1(self, idx_dataset, tmp_path, capsys, code):
        model_path = self._trained(idx_dataset, tmp_path)
        blob = bytearray(model_path.read_bytes())
        blob[28] = code  # weight kind code: 0 continuous, 1 ternary
        model_path.write_bytes(bytes(blob))
        imgs, _ = idx_dataset
        capsys.readouterr()
        assert main(["classify", "--model", str(model_path), "--input", str(imgs)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "reason=ModelFormatError" in captured.err
        assert f"weight_kind_code_{code}" in captured.err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_weight_model_exit_1(self, idx_dataset, tmp_path, capsys, value):
        model_path = tmp_path / "float.ielm"
        assert main(train_args(idx_dataset, model_path, kind="continuous")) == 0
        model = load_model(model_path)
        blob = bytearray(model_path.read_bytes())
        at = len(blob) - 8 * (model.beta.size + model.input_weights.size)  # W[0, 0], f8, before beta
        blob[at : at + 8] = np.float64(value).tobytes()
        model_path.write_bytes(bytes(blob))
        imgs, _ = idx_dataset
        capsys.readouterr()
        assert main(["classify", "--model", str(model_path), "--input", str(imgs), "--scores"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "reason=ModelFormatError" in captured.err

    def test_float_int_paths_agree_on_same_weights(self, idx_dataset, tmp_path, capsys):
        model_path = self._trained(idx_dataset, tmp_path)
        qpath = tmp_path / "quant.ielm"
        main(["quantize", "--model", str(model_path), "--out", str(qpath)])
        capsys.readouterr()
        imgs, _ = idx_dataset
        main(["classify", "--model", str(model_path), "--input", str(imgs)])
        float_labels = capsys.readouterr().out
        main(["classify", "--model", str(qpath), "--input", str(imgs)])
        int_labels = capsys.readouterr().out
        float_list = float_labels.strip().splitlines()
        int_list = int_labels.strip().splitlines()
        agreement = np.mean([a == b for a, b in zip(float_list, int_list)])
        assert agreement >= 0.9  # quantized beta may flip near-ties only

    def test_quantize_near_zero_beta_climbs_to_storable_rung(self, tmp_path, capsys):
        fm = near_zero_beta_model()
        save_model(fm, tmp_path / "float.ielm")
        storable = next(
            r.ladder_step for r in precision_ladder(quantize_beta(fm.beta)) if r.max_abs <= 2**31 - 1
        )
        assert storable > 0
        for extra, step in (((), storable), (("--ladder-steps", "2"), storable + 2)):
            capsys.readouterr()
            args = ["quantize", "--model", str(tmp_path / "float.ielm"), "--out", str(tmp_path / "q.ielm")]
            assert main([*args, "--force", *extra]) == 0
            assert f"ladder_step={step} " in capsys.readouterr().out
            ib = load_model(tmp_path / "q.ielm").int_beta
            assert ib.ladder_step == step
            assert 0 < ib.max_abs <= 2**31 - 1


class TestSweep:
    def _config(self, tmp_path, **overrides):
        config = {
            "mode": "size_sweep",
            "dataset": {"kind": "textures", "count": 30, "size": 64},
            "L_list": [10],
            "models_per_L": 2,
            "seed": 3,
            "out_csv": str(tmp_path / "report.csv"),
        }
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_minimal_sweep_writes_csv(self, tmp_path, capsys):
        config = self._config(tmp_path)
        assert main(["sweep", "--config", str(config)]) == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        data_rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_rows) == 3  # original, proposed, delta

    def test_invalid_key_exit_4(self, tmp_path, capsys):
        config = self._config(tmp_path, atoms=2000)
        assert main(["sweep", "--config", str(config)]) == 4
        assert "key=atoms" in capsys.readouterr().err

    def test_rerun_identical_csv(self, tmp_path):
        config = self._config(tmp_path)
        assert main(["sweep", "--config", str(config)]) == 0
        first = (tmp_path / "report.csv").read_bytes()
        assert main(["sweep", "--config", str(config), "--force"]) == 0
        assert (tmp_path / "report.csv").read_bytes() == first

    @pytest.mark.parametrize("empty", ["train_path", "test_path"])
    def test_header_only_csv_exit_1(self, tmp_path, capsys, empty):
        dataset = write_texture_csvs(tmp_path)
        csv_path = Path(dataset[empty])
        csv_path.write_text(csv_path.read_text().splitlines()[0] + "\n")
        assert main(["sweep", "--config", str(self._config(tmp_path, dataset=dataset))]) == 1
        assert {"reason=DataFormatError", "detail=the_dataset_has_no_samples"} <= set(capsys.readouterr().err.split())
        assert not (tmp_path / "report.csv").exists()

    def test_train_limit_that_drops_a_class_exit_1(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(self._config(tmp_path, train_limit=1))]) == 1
        err = capsys.readouterr().err
        assert "reason=DataFormatError" in err.split() and "detail=classes_with_no_samples:_[" in err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("mode", ["size_sweep", "bit_sweep", "weight_comparison"])
    def test_test_set_of_another_width_exit_3(self, rng, tmp_path, capsys, mode):
        dataset = {"kind": "mnist"}
        for name, side in (("train", 8), ("test", 4)):
            labels = (np.arange(20) % 2).astype(np.uint8)
            paths = [str(tmp_path / f"{name}_{part}.idx") for part in ("images", "labels")]
            write_idx(rng.integers(1, 255, size=(20, side, side)).astype(np.uint8), labels, *paths)
            dataset.update({f"{name}_images": paths[0], f"{name}_labels": paths[1]})
        config = self._config(tmp_path, mode=mode, dataset=dataset)
        assert main(["sweep", "--config", str(config)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert {"code=3", "reason=shape_mismatch"} <= set(captured.err.split())
        assert "64_values,_test_samples_16" in captured.err
        assert not (tmp_path / "report.csv").exists()

    def test_bit_sweep_descending_widths(self, tmp_path, capsys):
        config = self._config(
            tmp_path, mode="bit_sweep", L_list=[24], models_per_L=1
        )
        assert main(["sweep", "--config", str(config)]) == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")]
        header = rows[0]
        widths = [int(r[header.index("bit_width")]) for r in rows[1:]]
        assert widths == sorted(widths, reverse=True)


class TestSelect:
    def test_marks_chosen_model(self, idx_dataset, tmp_path, capsys):
        paths = []
        for seed in (1, 2, 3):
            p = tmp_path / f"m{seed}.ielm"
            main(train_args(idx_dataset, p, seed=seed))
            paths.append(str(p))
        capsys.readouterr()
        imgs, lbls = idx_dataset
        assert (
            main(
                [
                    "select", "--images", str(imgs), "--labels", str(lbls),
                    "--models", *paths,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("*") == 1
        assert "val_accuracy=" in out


class TestSweepConfigTypes:
    @pytest.mark.parametrize(
        "text, key",
        [
            ("null", "config"),
            ('{"mode": "size_sweep", "dataset": []}', "dataset"),
            ('{"mode": "size_sweep", "dataset": {"kind": "textures"}, "models_per_L": "3"}', "models_per_L"),
            ('{"mode": "size_sweep", "dataset": {"kind": "textures"}, "L_list": "ab"}', "L_list"),
            ('{"mode": "size_sweep", "dataset": {"kind": "textures"}, "L_list": [10, true]}', "L_list"),
            ('{"mode": "size_sweep", "dataset": {"kind": "textures", "preprocessing": "zero_mean"}}',
             "dataset.preprocessing"),
            ('{"mode": "size_sweep", "dataset": {"kind": "textures", "count": "5"}}', "dataset.count"),
            ('{"mode": "size_sweep", "dataset": {"kind": "textures", "size": 64.0}}', "dataset.size"),
            ('{"mode": "size_sweep", "dataset": {"kind": "cifar10", "train_batches": "a.bin", "test_batches": []}}',
             "dataset.train_batches"),
            ('{"mode": "size_sweep", "dataset": {"kind": "cifar10", "train_batches": [], "test_batches": [], '
             '"class_filter": ["cat"]}}', "dataset.class_filter"),
            ('{"mode": "size_sweep", "dataset": {"kind": "mnist", "train_images": 3}}', "dataset.train_images"),
            ('{"mode": "size_sweep", "dataset": {"kind": "csv", "label_column": 0}}', "dataset.label_column"),
            ('{"dataset": {"kind": "textures"}}', "mode"),
            ('{"mode": "size_sweep"}', "dataset"),
        ],
        ids=["null", "dataset_list", "string_count", "string_L_list", "bool_in_L_list", "string_steps",
             "string_textures_count", "float_textures_size", "string_batches", "one_class", "fd_images",
             "int_label_column", "no_mode", "no_dataset"],
    )
    def test_wrong_type_exit_4_naming_the_key(self, tmp_path, capsys, text, key):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 4
        err = capsys.readouterr().err
        assert "reason=invalid_config_key" in err.split() and f"key={key}" in err.split()


def edit_metadata(path, out, **changes):
    """Write to out the model file at path with its metadata JSON changed, as an edited file has it."""
    data = path.read_bytes()
    meta = load_model(path).metadata
    old = json.dumps(meta, sort_keys=True).encode()
    new = json.dumps({**meta, **changes}, sort_keys=True).encode()
    at = data.index(struct.pack("<I", len(old)) + old)
    out.write_bytes(data[:at] + struct.pack("<I", len(new)) + new + data[at + 4 + len(old):])


def centred_task(rng, count, side=6):
    """Two classes told apart by a pattern on a random brightness offset, which centring removes."""
    labels = np.arange(count) % 2
    pattern = np.where(np.indices((side, side)).sum(axis=0) % 2, 40, -40)
    offset = rng.integers(60, 180, size=(count, 1, 1))
    noise = rng.integers(-30, 31, size=(count, side, side))
    images = offset + np.where(labels[:, None, None] == 0, pattern, -pattern) // 2 + noise
    return np.clip(images, 0, 255).astype(np.uint8), labels.astype(np.uint8)


class TestRecordedPreprocessing:
    """classify and select give models raw samples; each model applies its recorded steps."""

    @pytest.mark.parametrize("steps", ["zero_mean,l2_normalize", "zero_mean"])
    def test_classify_matches_the_exact_normalized_hidden_layer(self, rng, tmp_path, capsys, steps):
        images, labels = centred_task(rng, 600)
        write_idx(images[:400], labels[:400], tmp_path / "tr.idx", tmp_path / "trl.idx")
        write_idx(images[400:], labels[400:], tmp_path / "te.idx", tmp_path / "tel.idx")
        fpath, qpath = tmp_path / "f.ielm", tmp_path / "q.ielm"
        dataset = (tmp_path / "tr.idx", tmp_path / "trl.idx")
        assert main(train_args(dataset, fpath, extra=("--preprocess", steps), L=32)) == 0
        assert main(["quantize", "--model", str(fpath), "--out", str(qpath)]) == 0
        model = load_model(fpath)
        assert model.metadata["preprocessing"] == steps.split(",")
        norm = preprocess(load_idx(tmp_path / "te.idx", tmp_path / "tel.idx"), steps.split(","))
        exact = np.argmax(hidden_features(model.input_weights, norm.rows, norm.row_scale) @ model.beta, axis=1)
        for path in (fpath, qpath):
            capsys.readouterr()
            assert main(["classify", "--model", str(path), "--input", str(tmp_path / "te.idx")]) == 0
            got = np.array([int(v) for v in capsys.readouterr().out.split()])
            assert np.mean(got == exact) >= 0.99
            assert np.mean(got == norm.labels) >= 0.9

    def test_constant_sample_exit_1_under_zero_mean(self, idx_dataset, tmp_path, capsys):
        fpath, qpath = tmp_path / "f.ielm", tmp_path / "q.ielm"
        assert main(train_args(idx_dataset, fpath, extra=("--preprocess", "zero_mean"))) == 0
        assert main(["quantize", "--model", str(fpath), "--out", str(qpath)]) == 0
        (tmp_path / "x.csv").write_text(",".join(["3"] * 15 + ["4"]) + "\n" + ",".join(["7"] * 16) + "\n")
        for path in (qpath, fpath):
            capsys.readouterr()
            assert main(["classify", "--model", str(path), "--input", str(tmp_path / "x.csv")]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "reason=InputError" in captured.err
            assert "constant_sample_at_row_1" in captured.err

    def test_row_that_float64_rounds_to_zero_exit_1(self, rng, tmp_path, capsys):
        # As in test_elm: 2n * max|x| passes 2**63, so the centred row is formed in float64 and rounds to zero.
        n = 100
        model = FloatModel(gen_weights_ternary(n, 6, seed=0), rng.standard_normal((6, 3)), gamma=1.0,
                           weight_kind="ternary", seed=0, metadata={"preprocessing": ["zero_mean"]})
        save_model(model, tmp_path / "z.ielm")
        for row in ([2**62] * (n - 1) + [2**62 + 1], [2**62 + 7] + [2**62] * (n - 1)):
            (tmp_path / "x.csv").write_text(",".join(map(str, range(n))) + "\n" + ",".join(map(str, row)) + "\n")
            for flags in ([], ["--scores"]):
                capsys.readouterr()
                argv = ["classify", "--model", str(tmp_path / "z.ielm"), "--input", str(tmp_path / "x.csv"), *flags]
                assert main(argv) == 1
                captured = capsys.readouterr()
                assert captured.out == "" and "reason=InputError" in captured.err
                assert "sample_at_row_1:_its_float64_integer_row_rounds_to_all_zero" in captured.err

    def test_all_zero_sample_exit_1_for_float_and_integer_models(self, idx_dataset, tmp_path, capsys):
        fpath, qpath = tmp_path / "f.ielm", tmp_path / "q.ielm"
        assert main(train_args(idx_dataset, fpath)) == 0
        assert main(["quantize", "--model", str(fpath), "--out", str(qpath)]) == 0
        (tmp_path / "x.csv").write_text("\n".join([",".join(["9"] * 16), ",".join(["0"] * 16)] * 2) + "\n")
        for path in (fpath, qpath):
            capsys.readouterr()
            assert main(["classify", "--model", str(path), "--input", str(tmp_path / "x.csv"), "--scores"]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and len(captured.err.splitlines()) == 1
            assert "reason=InputError" in captured.err and "all-zero_sample_at_row_1" in captured.err

    @pytest.mark.parametrize("steps", ['"zero_mean"', '["whiten"]', "7", '["zero_mean", "zero_mean"]'])
    @pytest.mark.parametrize("quantized", [False, True], ids=["float", "integer"])
    def test_hostile_preprocessing_metadata_exit_1(self, idx_dataset, tmp_path, capsys, steps, quantized):
        fpath = tmp_path / "f.ielm"
        assert main(train_args(idx_dataset, fpath)) == 0
        if quantized:
            assert main(["quantize", "--model", str(fpath), "--out", str(tmp_path / "q.ielm")]) == 0
            fpath = tmp_path / "q.ielm"
        edit_metadata(fpath, tmp_path / "hostile.ielm", preprocessing=json.loads(steps))
        with pytest.raises(ModelFormatError, match="preprocessing"):
            load_model(tmp_path / "hostile.ielm")
        capsys.readouterr()
        imgs, _ = idx_dataset
        assert main(["classify", "--model", str(tmp_path / "hostile.ielm"), "--input", str(imgs)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "reason=ModelFormatError" in captured.err

    def test_select_marks_the_model_chosen_on_normalized_samples(self, idx_dataset, tmp_path, capsys):
        paths = []
        for seed in (1, 2, 3, 4):
            paths.append(str(tmp_path / f"m{seed}.ielm"))
            assert main(train_args(idx_dataset, paths[-1], seed=seed)) == 0
        norm = preprocess(load_idx(*idx_dataset), ["l2_normalize"])
        models = [load_model(p) for p in paths]
        accs = [float(np.mean(predict_float_batch(m, norm.samples) == norm.labels)) for m in models]
        chosen = select_model(list(zip(models, accs)))
        chosen = next(p for p, m in zip(paths, models) if m is chosen)
        capsys.readouterr()
        imgs, lbls = idx_dataset
        assert main(["select", "--images", str(imgs), "--labels", str(lbls), "--models", *paths]) == 0
        marked = [line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("*")]
        assert marked == [chosen]

    def test_select_takes_no_preprocess_option(self, idx_dataset, tmp_path, capsys):
        imgs, lbls = idx_dataset
        args = ["select", "--images", str(imgs), "--labels", str(lbls), "--preprocess", "zero_mean"]
        with pytest.raises(SystemExit) as exit_info:
            main([*args, "--models", str(tmp_path / "m.ielm")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --preprocess" in capsys.readouterr().err


class TestDatasetKeys:
    @pytest.mark.parametrize(
        "dataset, key",
        [
            ({"kind": "mnist"}, "train_images"),
            ({"kind": "mnist", "train_images": "a", "train_labels": "b", "test_images": "c"}, "test_labels"),
            ({"kind": "cifar10", "train_batches": ["a"]}, "test_batches"),
            ({"kind": "csv", "train_path": "a"}, "test_path"),
            ({"kind": "csv", "train_path": "a", "test_path": "b", "wat": 1}, "wat"),
            ({"kind": "cifar10", "train_batches": ["a"], "test_batches": ["b"], "class_filter": ["cat", "cat"]},
             "class_filter"),
            ({"kind": "cifar10", "train_batches": ["a"], "test_batches": ["b"], "class_filter": ["cat", "kitten"]},
             "class_filter"),
        ],
        ids=["mnist", "mnist_test_labels", "cifar10", "csv", "unknown_key", "repeated_class", "unknown_class"],
    )
    def test_missing_dataset_key_exit_4_naming_it(self, tmp_path, capsys, dataset, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mode": "size_sweep", "dataset": dataset}))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 4
        assert f"key=dataset.{key}" in capsys.readouterr().err.split()
        assert not (tmp_path / "r.csv").exists()

    def test_csv_label_column_defaults_to_label(self, tmp_path, capsys):
        config = {"mode": "bit_sweep", "dataset": write_texture_csvs(tmp_path), "L_list": [12], "models_per_L": 1}
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["sweep", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "r.csv")]) == 0
        assert "bit sweep: 1 classifiers" in (tmp_path / "r.csv").read_text()
        assert "rows=" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["mnist", "cifar10"])
    def test_file_kind_sweep(self, rng, tmp_path, capsys, kind):
        def images(labels, n):  # odd labels bright, even labels dark
            return (rng.integers(10, 80, size=(labels.size, n)) + 140 * (labels[:, None] % 2)).astype(np.uint8)

        if kind == "mnist":
            dataset = {"kind": "mnist"}
            for name, count in (("train", 40), ("test", 20)):
                labels = (np.arange(count) % 2).astype(np.uint8)
                paths = [str(tmp_path / f"{name}_{part}.idx") for part in ("images", "labels")]
                write_idx(images(labels, 16).reshape(-1, 4, 4), labels, *paths)
                dataset.update({f"{name}_images": paths[0], f"{name}_labels": paths[1]})
        else:
            batches = {name: str(tmp_path / f"{name}.bin") for name in ("train_1", "train_2", "test")}
            for path in batches.values():
                labels = np.resize(np.array([0, 3, 6], dtype=np.uint8), 18)  # airplane, cat, frog
                write_cifar10_batch(images(labels, 3072), labels, path)
            dataset = {"kind": "cifar10", "train_batches": [batches["train_1"], batches["train_2"]],
                       "test_batches": [batches["test"]], "class_filter": ["cat", "frog"]}
        config = {"mode": "size_sweep", "dataset": dataset, "L_list": [8], "models_per_L": 2}
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["sweep", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "r.csv")]) == 0
        lines = [l for l in (tmp_path / "r.csv").read_text().splitlines() if not l.startswith("#")]
        assert [row.split(",")[:2] for row in lines[1:]] == [[kind, "delta"], [kind, "original"], [kind, "proposed"]]
        assert "arm=delta" in capsys.readouterr().out


class TestErrorReasons:
    """Exit code and reason of each failure main reports that no other test reaches."""

    @pytest.mark.parametrize(
        "argv, code, fields",
        [
            ("quantize --model {q} --out {out}", 1, "reason=already_quantized"),
            ("select --images {imgs} --labels {lbls} --models {q}", 1, "reason=select_requires_float_models"),
            ("select --images {imgs} --models {f}", 1, "reason=labels_required_with_images"),
            ("train --L 4 --out {out}", 1, "reason=no_input_dataset"),
            ("select --images {wide} --labels {lbls} --models {f}", 3, "reason=shape_mismatch"),
            ("sweep --config {unparsable}", 4, "reason=config_parse_error"),
            ("sweep --config {no_out_csv}", 4, "reason=invalid_config_key key=out_csv"),
            ("sweep --config {no_images} --out {out}", 2, "reason=missing_file"),
            # an output in no directory is refused before training, quantizing or sweeping
            ("train --images {imgs} --labels {lbls} --L 4 --out {out_in_no_dir}", 1, "reason=output_dir_missing"),
            ("quantize --model {f} --out {out_in_no_dir}", 1, "reason=output_dir_missing"),
            ("sweep --config {no_out_csv} --out {out_in_no_dir}", 1, "reason=output_dir_missing"),
        ],
        ids=["already_quantized", "select_requires_float_models", "labels_required_with_images",
             "no_input_dataset", "shape_mismatch", "config_parse_error", "no_out_csv", "missing_file",
             "train_output_dir_missing", "quantize_output_dir_missing", "sweep_output_dir_missing"],
    )
    def test_exit_code_and_reason(self, idx_dataset, rng, tmp_path, capsys, argv, code, fields):
        imgs, lbls = idx_dataset
        paths = {name: tmp_path / name for name in ("f", "q", "out", "wide", "unparsable", "no_out_csv", "no_images")}
        paths["out_in_no_dir"] = tmp_path / "no_dir" / "out"
        assert main(train_args(idx_dataset, paths["f"])) == 0
        assert main(["quantize", "--model", str(paths["f"]), "--out", str(paths["q"])]) == 0
        wide_images = rng.integers(1, 255, size=(40, 5, 5)).astype(np.uint8)
        write_idx(wide_images, load_idx(imgs, lbls).labels.astype(np.uint8), paths["wide"], tmp_path / "wide_labels")
        paths["unparsable"].write_text("{")
        paths["no_out_csv"].write_text('{"mode": "size_sweep", "dataset": {"kind": "textures"}}')
        missing = dict.fromkeys(("train_images", "train_labels", "test_images", "test_labels"), str(tmp_path / "absent"))
        paths["no_images"].write_text(json.dumps({"mode": "size_sweep", "dataset": {"kind": "mnist", **missing}}))
        capsys.readouterr()
        assert main([arg.format(imgs=imgs, lbls=lbls, **paths) for arg in argv.split()]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert {f"code={code}", *fields.split()} <= set(captured.err.split())
        assert not paths["out"].exists() and not (tmp_path / "no_dir").exists()


class TestConfigRanges:
    @pytest.mark.parametrize(
        "text, key",
        [
            ('"pairs": 0', "pairs"),
            ('"gamma": -1', "gamma"),
            ('"gamma": 0', "gamma"),
            ('"gamma": NaN', "gamma"),
            ('"gamma": Infinity', "gamma"),
            ('"split_fraction": 1.5', "split_fraction"),
            ('"split_fraction": 0', "split_fraction"),
            ('"split_fraction": 1', "split_fraction"),
            ('"jobs": 0', "jobs"),
            ('"train_limit": 0', "train_limit"),
            ('"L_list": [0]', "L_list"),
            ('"L_list": [0, 5]', "L_list"),
            ('"L_list": [5, 5]', "L_list"),
            ('"seed": -1', "seed"),
            ('"seed": 18446744073709551616', "seed"),
            pytest.param('"gamma": 1' + "0" * 400, "gamma", id="gamma-integer-beyond-float64"),
            ('"gamma": 1e-320', "gamma"),
        ],
    )
    def test_out_of_range_exit_4_naming_the_key(self, tmp_path, capsys, text, key):
        path = tmp_path / "config.json"
        path.write_text('{"mode": "weight_comparison", "dataset": {"kind": "textures"}, ' + text + "}")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 4
        err = capsys.readouterr().err
        assert "reason=invalid_config_key" in err.split() and f"key={key}" in err.split()
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("seed", -1), ("count", -5), ("count", 0), ("patch_size", 0),
         ("size", 1), ("size", 0), ("size", -4), ("size", 23)],
    )
    def test_textures_key_out_of_range_exit_4_naming_it(self, tmp_path, capsys, key, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mode": "size_sweep", "dataset": {"kind": "textures", key: value}}))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert {"reason=invalid_config_key", f"key=dataset.{key}"} <= set(captured.err.split())
        assert not (tmp_path / "r.csv").exists()

    def test_jobs_override_checked_too(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"mode": "weight_comparison", "dataset": {"kind": "textures"}}')
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "r.csv"), "--jobs", "0"]
        assert main(argv) == 4
        assert "key=jobs" in capsys.readouterr().err.split()

    def test_seed_override_checked_too(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"mode": "weight_comparison", "dataset": {"kind": "textures"}}')
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "r.csv"), "--seed", "-3"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "key=seed" in err.split() and len(err.splitlines()) == 1
        assert not (tmp_path / "r.csv").exists()


# A valid value of each dataset key by kind, and a test of whether a value has the type a key takes.
DATASET_SPECS = {
    "textures": {"patch_size": 12, "count": 5, "seed": 0, "size": 64},
    "mnist": {"train_images": "a", "train_labels": "b", "test_images": "c", "test_labels": "d"},
    "cifar10": {"train_batches": ["a"], "test_batches": ["b"], "class_filter": ["cat", "dog"]},
    "csv": {"train_path": "a", "test_path": "b", "label_column": "label"},
}


def _strings(v):
    return type(v) is list and all(type(s) is str for s in v)


KEY_TAKES = {
    **dict.fromkeys(("kind", "train_images", "train_labels", "test_images", "test_labels",
                     "train_path", "test_path", "label_column"), lambda v: type(v) is str),
    **dict.fromkeys(("patch_size", "count", "seed", "size"), lambda v: type(v) is int),
    **dict.fromkeys(("train_batches", "test_batches", "preprocessing"), _strings),
    "class_filter": lambda v: _strings(v) and len(v) == 2,
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats(-10, 10) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5,
)


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_dataset_key_of_the_wrong_type_exits_4_naming_it(tmp_path_factory, data):
    kind = data.draw(st.sampled_from(sorted(DATASET_SPECS)))
    spec = {"kind": kind, "preprocessing": ["l2_normalize"], **DATASET_SPECS[kind]}
    key = data.draw(st.sampled_from(sorted(spec)))
    spec[key] = data.draw(json_values.filter(lambda v: not KEY_TAKES[key](v)))
    path = tmp_path_factory.getbasetemp() / "dataset-types.json"
    path.write_text(json.dumps({"mode": "size_sweep", "dataset": spec}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["sweep", "--config", str(path), "--out", str(path.with_suffix(".csv")), "--force"])
    assert code == 4 and len(err.getvalue().splitlines()) == 1, err.getvalue()
    assert f"key=dataset.{key}" in err.getvalue().split(), err.getvalue()


class TestOptionRanges:
    @pytest.mark.parametrize(
        "option, value",
        [("--train-limit", "0"), ("--train-limit", "-2"), ("--gamma", "nan"), ("--gamma", "inf"),
         ("--gamma", "0"), ("--gamma", "-1"), ("--gamma", "1e-320"), ("--L", "0"), ("--L", "-3"), ("--seed", "-1"),
         ("--seed", "18446744073709551616"), ("--preprocess", "bogus"),
         ("--preprocess", "l2_normalize,l2_normalize")],
    )
    def test_train_option_out_of_range_exit_4(self, idx_dataset, tmp_path, capsys, option, value):
        out = tmp_path / "m.ielm"
        assert main(train_args(idx_dataset, out, extra=(option, value))) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert {"reason=invalid_option", f"option={option}"} <= set(captured.err.split())
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value",
        [("--ladder-steps", "-3"), ("--input-range", "5"), ("--input-range", "5,1"), ("--input-range", "a,b"),
         ("--input-range", "0,1,2"), ("--input-range", "0.5,9")],
    )
    def test_quantize_option_out_of_range_exit_4(self, idx_dataset, tmp_path, capsys, option, value):
        fpath, out = tmp_path / "f.ielm", tmp_path / "q.ielm"
        assert main(train_args(idx_dataset, fpath)) == 0
        capsys.readouterr()
        assert main(["quantize", "--model", str(fpath), "--out", str(out), f"{option}={value}"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert {"reason=invalid_option", f"option={option}"} <= set(captured.err.split())
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "0", "1.5"])
    def test_select_threshold_out_of_range_exit_4(self, idx_dataset, tmp_path, capsys, value):
        fpath = tmp_path / "f.ielm"
        assert main(train_args(idx_dataset, fpath)) == 0
        capsys.readouterr()
        imgs, lbls = idx_dataset
        argv = ["select", "--images", str(imgs), "--labels", str(lbls), "--models", str(fpath)]
        assert main([*argv, "--threshold", value]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert {"reason=invalid_option", "option=--threshold"} <= set(captured.err.split())

    def test_checked_before_any_work_starts(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        argv = ["train", "--images", missing, "--labels", missing, "--L", "4", "--out", missing, "--gamma", "nan"]
        assert main(argv) == 4
        assert main([*argv[:-2], "--preprocess", "whiten"]) == 4
        assert main(["quantize", "--model", missing, "--out", missing, "--ladder-steps", "-1"]) == 4
        assert main(["select", "--images", missing, "--labels", missing, "--models", missing, "--threshold", "0"]) == 4

    def test_in_range_values_accepted(self, idx_dataset, tmp_path, capsys):
        fpath = tmp_path / "f.ielm"
        assert main(train_args(idx_dataset, fpath, extra=("--train-limit", "30", "--gamma", "0.5"))) == 0
        argv = ["quantize", "--model", str(fpath), "--ladder-steps", "0", "--input-range", " 0, 255"]
        assert main([*argv, "--out", str(tmp_path / "q.ielm")]) == 0
        assert main([*argv[:-1], "255,255", "--out", str(tmp_path / "q1.ielm")]) == 0
        assert main(train_args(idx_dataset, tmp_path / "s.ielm", seed=2**64 - 1, L=1)) == 0
        assert load_model(tmp_path / "s.ielm").seed == 2**64 - 1
        imgs, lbls = idx_dataset
        assert main(["select", "--images", str(imgs), "--labels", str(lbls), "--models", str(fpath),
                     "--threshold", "1"]) == 0


class TestRepeatedMain:
    """main may be called many times in one process; each call acts as a fresh one."""

    @pytest.fixture
    def classify_argv(self, idx_dataset, tmp_path):
        model_path, qpath = tmp_path / "float.ielm", tmp_path / "quant.ielm"
        assert main(train_args(idx_dataset, model_path)) == 0
        assert main(["quantize", "--model", str(model_path), "--out", str(qpath)]) == 0
        return ["classify", "--model", str(qpath), "--input", str(idx_dataset[0]), "--scores"]

    def test_parser_built_once(self, classify_argv, capsys):
        cli.build_parser.cache_clear()
        for _ in range(3):
            assert main(classify_argv) == 0
        with pytest.raises(SystemExit):
            main(["classify"])
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_rebound_subcommand_takes_effect_on_the_next_call(self, classify_argv, capsys, monkeypatch):
        assert main(classify_argv) == 0
        seen = []

        def wrapper(args):
            seen.append(args.subcommand)
            return cli.EXIT_ERROR

        monkeypatch.setattr(cli, "cmd_classify", wrapper)
        assert main(classify_argv) == cli.EXIT_ERROR
        assert seen == ["classify"]

    def test_usage_error_then_valid_call_prints_as_a_fresh_process(self, classify_argv, capsys):
        env = dict(os.environ, PYTHONPATH=str(Path(intelm.__file__).parents[1]))
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from intelm.cli import main; sys.exit(main(sys.argv[1:]))",
             *classify_argv],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main([*classify_argv, "--no-such-option"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        assert main(classify_argv) == 0
        assert capsys.readouterr().out == fresh

    def test_verbose_count_does_not_leak(self, classify_argv, capsys, monkeypatch):
        counts = []

        def wrapper(args):
            counts.append(args.verbose)
            return cli.EXIT_OK

        monkeypatch.setattr(cli, "cmd_classify", wrapper)
        main(["-v", "-v", *classify_argv])
        main(classify_argv)
        main(["-v", *classify_argv])
        assert counts == [2, 0, 1]

    def test_repeated_scores_byte_identical(self, classify_argv, capsysbinary):
        outputs = []
        for _ in range(3):
            capsysbinary.readouterr()
            assert main(classify_argv) == 0
            outputs.append(capsysbinary.readouterr().out)
        assert outputs[0] and outputs[0] == outputs[1] == outputs[2]


# --- damaged inputs through main ---------------------------------------------

# Reasons main may give for a damaged input: the program's typed errors and
# its documented reasons. A numpy or Python built-in error is never one.
TYPED_ERRORS = {
    "DataFormatError", "ModelFormatError", "InputError", "HeadroomError", "QuantizationError",
    "ScoreOverflowError",
}
DOCUMENTED_REASONS = {"shape_mismatch", "missing_file"}

# file name of each valid input, and the intelm command that reads it from a directory
COMMANDS = {
    "idx_images": ("img.idx", ["train", "--images", "{}", "--labels", "lbl.idx"]),
    "idx_labels": ("lbl.idx", ["train", "--images", "img.idx", "--labels", "{}"]),
    "csv": ("train.csv", ["train", "--csv", "{}"]),
    "input_idx": ("input.idx", ["classify", "--model", "q.ielm", "--input", "{}", "--scores"]),
    "input_csv": ("input.csv", ["classify", "--model", "f.ielm", "--input", "{}", "--format", "csv"]),
    "float_model": ("f.ielm", ["classify", "--model", "{}", "--input", "input.idx", "--scores"]),
    "integer_model": ("q.ielm", ["classify", "--model", "{}", "--input", "input.csv", "--scores"]),
    "centred_model": ("qz.ielm", ["classify", "--model", "{}", "--input", "input.idx"]),
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Directory holding one valid file of every input intelm train and classify read."""
    d = tmp_path_factory.mktemp("cli-valid")
    rng = make_rng(31)
    images, labels = centred_task(rng, 12, side=4)
    write_idx(images, labels, d / "img.idx", d / "lbl.idx")
    write_idx(images[:3], labels[:3], d / "input.idx", d / "input-labels.idx")
    (d / "train.csv").write_text("a,b,c,label\n12,250,3,0\n7,0,1,1\n\n-3,44,2,0\n9,9,1,1\n")
    (d / "input.csv").write_text("\n".join(",".join(map(str, row)) for row in images[3:6].reshape(3, -1)))
    for steps, f, q in (("l2_normalize", "f.ielm", "q.ielm"), ("zero_mean", "fz.ielm", "qz.ielm")):
        assert main(train_args((d / "img.idx", d / "lbl.idx"), d / f, extra=("--preprocess", steps))) == 0
        assert main(["quantize", "--model", str(d / f), "--out", str(d / q)]) == 0
    return d


@st.composite
def damaged_cli_input(draw):
    """One valid input of intelm train or classify cut short, or with a few bytes changed."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    cut = draw(st.none() | st.integers(0, 4000))
    flips = draw(st.lists(st.tuples(st.integers(0, 4000), st.integers(1, 255)), max_size=4))
    return name, cut, flips


@settings(max_examples=400, deadline=None, database=None)
@given(damaged_cli_input())
def test_damaged_input_through_main_exits_with_a_typed_reason(cli_inputs, tmp_path_factory, case):
    name, cut, flips = case
    file, command = COMMANDS[name]
    blob = bytearray((cli_inputs / file).read_bytes())
    for at, mask in flips:
        blob[at % len(blob)] ^= mask
    if cut is not None:
        blob = blob[: cut % len(blob)]
    path = tmp_path_factory.getbasetemp() / f"damaged-{file}"
    path.write_bytes(bytes(blob))
    argv = [str(path) if arg == "{}" else arg for arg in command]
    if argv[0] == "train":
        argv += ["--L", "4", "--out", str(tmp_path_factory.getbasetemp() / "fuzz.ielm"), "--force"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.MonkeyPatch.context() as mp:
        mp.setenv("INTELM_DATA_DIR", str(cli_inputs))
        mp.chdir(tmp_path_factory.getbasetemp())
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        return
    lines = err.getvalue().splitlines()
    assert code in (1, 2, 3) and len(lines) == 1 and lines[0].startswith("error "), err.getvalue()
    fields = dict(part.split("=", 1) for part in lines[0].split()[1:])
    assert fields["reason"] in TYPED_ERRORS | DOCUMENTED_REASONS, lines[0]
