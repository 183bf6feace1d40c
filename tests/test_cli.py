import json

import numpy as np
import pytest

from conftest import near_zero_beta_model
from intelm.cli import main
from intelm.data import write_idx
from intelm.modelio import load_model, save_model
from intelm.quantize import precision_ladder, quantize_beta
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


def train_args(idx_dataset, out, seed=1, kind="ternary", extra=()):
    imgs, lbls = idx_dataset
    return [
        "train",
        "--images", str(imgs),
        "--labels", str(lbls),
        "--L", "8",
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
        ],
        ids=["short_row", "long_row", "non_integer"],
    )
    def test_malformed_labeled_csv_exit_1(self, tmp_path, capsys, text, detail):
        data = tmp_path / "train.csv"
        data.write_text(text)
        args = ["train", "--csv", str(data), "--L", "4", "--out", str(tmp_path / "m.ielm")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "reason=DataFormatError" in err and detail in err
        assert not (tmp_path / "m.ielm").exists()

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

    def test_feature_mismatch_exit_3(self, idx_dataset, rng, tmp_path, capsys):
        model_path = self._trained(idx_dataset, tmp_path)
        write_idx(
            rng.integers(0, 256, size=(2, 5, 5)).astype(np.uint8),
            np.zeros(2, dtype=np.uint8),
            tmp_path / "wide.idx",
            tmp_path / "widelbl.idx",
        )
        code = main(["classify", "--model", str(model_path), "--input", str(tmp_path / "wide.idx")])
        assert code == 3
        assert "code=3" in capsys.readouterr().err

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
