import numpy as np
import pytest

from conftest import near_zero_beta_model, random_float_model, write_texture_csvs
from intelm import experiments
from intelm.data import InputError, RawDataset, synthetic_textures
from intelm.elm import gen_weights_ternary, one_hot, train
from intelm.quantize import bit_width, precision_ladder
from intelm.seeding import make_rng
from intelm.experiments import (
    ConfigError,
    ExperimentConfig,
    make_quantized,
    SweepReport,
    beta_energy,
    run_bit_sweep,
    run_experiment,
    select_model,
)


def texture_config(tmp_path=None, **overrides):
    base = dict(
        mode="size_sweep",
        dataset={"kind": "textures", "count": 40, "size": 64},
        L_list=[10],
        models_per_L=2,
        pairs=2,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"mode": "size_sweep", "dataset": {"kind": "textures"}, "atoms": 5})
        assert err.value.key == "atoms"

    def test_descending_L_list_rejected(self):
        with pytest.raises(ConfigError):
            texture_config(L_list=[100, 10])

    def test_unknown_dataset_kind(self):
        with pytest.raises(ConfigError):
            texture_config(dataset={"kind": "imagenet"})

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            texture_config(mode="grid_search")


class TestSelectModel:
    def _candidate(self, rng, energy, seed):
        model = random_float_model(rng, L=4, m=2)
        model.beta = model.beta / np.linalg.norm(model.beta) * energy
        model.seed = seed
        return model

    def test_single_candidate(self, rng):
        model = self._candidate(rng, 1.0, 0)
        assert select_model([(model, 0.5)]) is model

    def test_three_step_rule(self, rng):
        # 0.86 >= 0.95*0.90 passes, 0.80 fails; lowest energy among survivors wins
        models = [self._candidate(rng, e, i) for i, e in enumerate([5.0, 1.0, 0.1])]
        chosen = select_model(list(zip(models, [0.90, 0.86, 0.80])))
        assert chosen is models[1]

    def test_equal_accuracy_keeps_all_picks_min_energy(self, rng):
        models = [self._candidate(rng, e, i) for i, e in enumerate([3.0, 0.5, 2.0])]
        assert select_model([(m, 0.9) for m in models]) is models[1]

    def test_order_invariant_with_seed_tiebreak(self, rng):
        models = [self._candidate(rng, 1.0, seed) for seed in (5, 2, 9)]
        for m in models:
            m.beta = models[0].beta.copy()  # identical energies
        pairs = [(m, 0.9) for m in models]
        assert select_model(pairs).seed == 2
        assert select_model(pairs[::-1]).seed == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_model([])


class TestWeightComparison:
    def test_report_shape_and_aggregates(self):
        report = run_experiment(texture_config(mode="weight_comparison", pairs=2))
        aggregates = [r for r in report.rows if r["note"] == "aggregate"]
        assert len(aggregates) == 2
        assert {r["arm"] for r in aggregates} == {"continuous", "ternary"}
        per_pair = [r for r in report.rows if r["note"] != "aggregate"]
        assert len(per_pair) == 4
        for row in report.rows:
            assert 0.0 <= float(row["test_accuracy"]) <= 1.0

    def test_summary_format(self):
        report = run_experiment(texture_config(mode="weight_comparison", pairs=2))
        for row in report.rows:
            if row["note"] == "aggregate":
                assert "(" in row["summary"] and row["summary"].endswith(")")

    def test_deterministic(self):
        a = run_experiment(texture_config(mode="weight_comparison", pairs=2))
        b = run_experiment(texture_config(mode="weight_comparison", pairs=2))
        assert a.rows == b.rows


class TestBitSweep:
    def _trained_texture_model(self, L=24, seed=3):
        train_raw, test_raw = synthetic_textures(count=40, size=64, seed=1)
        from intelm.data import preprocess

        norm = preprocess(train_raw, ["l2_normalize"])
        W = gen_weights_ternary(norm.n, L, seed)
        model = train(
            norm.samples, one_hot(norm.labels, 2), W, seed=seed, weight_kind="ternary"
        )
        return model, test_raw

    def test_rows_cover_full_ladder_descending(self):
        model, test_raw = self._trained_texture_model()
        report = run_bit_sweep(model, test_raw)
        widths = [int(r["bit_width"]) for r in report.rows]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] == 2  # ladder runs to max |entry| = 1

    def test_single_row_when_already_exhausted(self):
        model, test_raw = self._trained_texture_model()
        # force a beta whose integer image is already all +/-1
        model.beta = np.where(model.beta >= 0, 0.5, -0.5)
        report = run_bit_sweep(model, test_raw)
        assert len(report.rows) == 1
        assert int(report.rows[0]["bit_width"]) == 2

    def test_ladder_length_from_max_entry(self):
        # max |beta^int| = 8 gives rungs for max 8, 4, 2, 1
        model, test_raw = self._trained_texture_model()
        L, m = model.beta.shape
        vals = np.zeros((L, m))
        vals[0, 0] = 8.0
        vals[1, 0] = 1.0
        vals[0, 1] = -3.0
        model.beta = vals
        report = run_bit_sweep(model, test_raw)
        assert len(report.rows) == 4

    def test_near_zero_beta_starts_at_first_fitting_rung(self):
        # Unfitted, rung 0 of this model has max |v| = 1e16 and fails the headroom check.
        model = near_zero_beta_model()
        samples = make_rng(4).integers(1, 256, size=(30, model.n))
        test_raw = RawDataset(samples, np.arange(30) % 2, class_count=2)
        fitted = make_quantized(model, test_raw.value_range, fit_headroom=True)
        assert fitted.int_beta.ladder_step > 0
        report = run_bit_sweep(model, test_raw)
        steps = [int(r["note"].removeprefix("ladder_step=")) for r in report.rows]
        assert steps == list(range(fitted.int_beta.ladder_step, fitted.int_beta.ladder_step + len(steps)))
        ladder = precision_ladder(model.beta)
        assert len(steps) == len(ladder) - fitted.int_beta.ladder_step
        assert [int(r["bit_width"]) for r in report.rows] == [bit_width(r) for r in ladder[steps[0] :]]
        assert int(report.rows[0]["bit_width"]) == bit_width(fitted.int_beta) <= 32

    def test_parallel_matches_serial(self, monkeypatch):
        pool_jobs, run_pool = [], experiments._run_pool

        def recording_pool(fn, tasks, jobs):
            pool_jobs.append(jobs)
            return run_pool(fn, tasks, jobs)

        monkeypatch.setattr(experiments, "_run_pool", recording_pool)
        config = dict(mode="bit_sweep", L_list=[16], models_per_L=3)
        serial = run_experiment(texture_config(jobs=1, **config))
        parallel = run_experiment(texture_config(jobs=2, **config))
        assert pool_jobs == [1, 2] and len({r["seed"] for r in serial.rows}) == 3
        assert serial.rows == parallel.rows

    def test_rung0_agreement_counts_float_matches(self):
        model, test_raw = self._trained_texture_model()
        report = run_bit_sweep(model, test_raw)
        agreement = float(report.rows[0]["agreement_with_float"])
        assert 0.0 <= agreement <= 1.0


@pytest.mark.parametrize("mode", ["bit_sweep", "weight_comparison"])
def test_every_L_of_L_list_gives_rows_and_one_note(mode):
    report = run_experiment(texture_config(mode=mode, L_list=[5, 12]))
    assert {r["L"] for r in report.rows} == {5, 12}
    assert [note.rsplit("L=", 1)[1] for note in report.notes if "L=" in note] == ["5", "12"]


class TestSizeSweep:
    def test_shape_one_L_two_arms_plus_delta(self):
        report = run_experiment(texture_config())
        arms = sorted(r["arm"] for r in report.rows)
        assert arms == ["delta", "original", "proposed"]

    def test_delta_equals_difference_exactly(self):
        report = run_experiment(texture_config(L_list=[10, 25]))
        rows = {(r["arm"], r["L"]): r for r in report.rows}
        for L in (10, 25):
            delta = float(rows[("delta", L)]["accuracy_delta"])
            orig = float(rows[("original", L)]["test_accuracy"])
            prop = float(rows[("proposed", L)]["test_accuracy"])
            assert delta == orig - prop

    def test_deterministic_reports(self):
        a = run_experiment(texture_config())
        b = run_experiment(texture_config())
        assert a.rows == b.rows

    def test_parallel_matches_serial(self):
        serial = run_experiment(texture_config(jobs=1))
        parallel = run_experiment(texture_config(jobs=4))
        assert serial.rows == parallel.rows

    @pytest.mark.parametrize("steps", [["zero_mean", "l2_normalize"], ["zero_mean"]])
    def test_both_arms_score_raw_samples_through_the_recorded_steps(self, steps):
        dataset = {"kind": "textures", "count": 60, "size": 64, "preprocessing": steps}
        report = run_experiment(texture_config(dataset=dataset, L_list=[40], seed=5))
        rows = {r["arm"]: r for r in report.rows}
        assert rows["original"]["test_accuracy"] == rows["proposed"]["test_accuracy"] == 1.0
        assert rows["proposed"]["agreement_with_float"] == 1.0
        assert not any("zero-mean" in note for note in report.notes)

    def test_accuracies_in_unit_interval(self):
        report = run_experiment(texture_config())
        for row in report.rows:
            for col in ("val_accuracy", "test_accuracy", "agreement_with_float"):
                if row[col] != "":
                    assert 0.0 <= float(row[col]) <= 1.0


class TestBlankTestRows:
    """A test set with a row that has no normalized form fails both arms, as intelm classify does."""

    def test_size_sweep_gives_an_error_row_per_arm(self, tmp_path):
        report = run_experiment(texture_config(dataset=write_texture_csvs(tmp_path, blank_test_row=5)))
        notes = {r["arm"]: r["note"] for r in report.rows}
        assert set(notes) == {"original", "proposed"}
        assert all(note == "error: cannot classify the all-zero sample at row 5" for note in notes.values())

    def test_weight_comparison_raises_input_error(self, tmp_path):
        config = texture_config(mode="weight_comparison", dataset=write_texture_csvs(tmp_path, blank_test_row=0))
        with pytest.raises(InputError, match="all-zero sample at row 0"):
            run_experiment(config)


class TestReportCsv:
    def test_roundtrip_columns(self, tmp_path):
        report = SweepReport(notes=["context line"])
        report.add(dataset="patches", arm="original", L=10, seed=1, test_accuracy=0.9)
        out = tmp_path / "r.csv"
        report.to_csv(out)
        text = out.read_text()
        assert text.startswith("# context line\n")
        header = text.splitlines()[1]
        assert header.split(",")[0] == "dataset"

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError):
            SweepReport().add(dataset="x", wat=1)


class TestBetaEnergy:
    def test_is_frobenius_norm(self, rng):
        model = random_float_model(rng)
        assert beta_energy(model) == pytest.approx(float(np.sqrt((model.beta**2).sum())))
