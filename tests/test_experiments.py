import json

import numpy as np
import pytest

import hsinet.experiments
import hsinet.trainer
from hsinet.data import SynthConfig, synth_generate
from hsinet.errors import ConfigError
from hsinet.experiments import ReportRow, _Harness, run_experiment, summarize, write_report
from test_network import shared_bytes


def synth(seed, name, bands=4, classes=3, side=12):
    return {"synth": {"classes": classes, "bands": bands, "height": side,
                      "width": side, "noise_std": 0.25, "seed": seed, "name": name}}


def base_config(**over):
    cfg = {
        "seeds": [0, 1],
        "split_seed": 7,
        "train_per_class": 6,
        "eval_every": 10,
        "network": {"filters": 4, "dropout_rate": 0.25},
        "target": synth(50, "target", bands=5, side=14),
        "sources": [synth(51, "s1", bands=4), synth(52, "s2", bands=6, classes=4)],
        "pretrain_schedule": {"step_size": 16, "max_iter": 20, "batch": 8},
        "schedule": {"step_size": 16, "max_iter": 20, "batch": 8},
    }
    cfg.update(over)
    return cfg


def finals(rows):
    return [r for r in rows if r.metric == "final_accuracy"]


class TestScheduleSweep:
    def test_row_count_contract_and_labels(self):
        cfg = base_config(
            experiment="schedule_sweep",
            schedules=[{"label": "A", "step_size": 16, "max_iter": 20},
                       {"label": "B", "step_size": 20, "max_iter": 24}],
        )
        rows = run_experiment(cfg)
        assert len(finals(rows)) == 2 * 2 * 2  # conditions x schedules x seeds
        labels = {r.condition for r in rows}
        assert labels == {"A/pretrain", "A/scratch", "B/pretrain", "B/scratch"}
        assert all(np.isfinite(r.value) for r in rows)

    def test_missing_checkpoint_is_config_error(self, tmp_path):
        cfg = base_config(
            experiment="schedule_sweep",
            schedules=[{"label": "A", "step_size": 16, "max_iter": 20}],
            checkpoint=str(tmp_path / "nope.ckpt"),
        )
        with pytest.raises(ConfigError, match="does not exist"):
            run_experiment(cfg)

    def test_curves_are_emitted(self):
        cfg = base_config(
            experiment="schedule_sweep",
            seeds=[0],
            schedules=[{"label": "A", "step_size": 16, "max_iter": 20}],
        )
        rows = run_experiment(cfg)
        acc_rows = [r for r in rows if r.metric == "test_accuracy"]
        assert {r.iteration for r in acc_rows} == {10, 20}


class TestDepthSweep:
    def test_row_count_and_depth_labels(self):
        cfg = base_config(experiment="depth_sweep", depths=[2, 3], seeds=[0])
        rows = run_experiment(cfg)
        assert len(finals(rows)) == 2 * 2 * 1
        labels = {r.condition for r in rows}
        assert labels == {"9-layer/pretrain", "9-layer/scratch",
                          "11-layer/pretrain", "11-layer/scratch"}

    def test_thirteen_layer_label_for_four_modules(self):
        cfg = base_config(experiment="depth_sweep", depths=[4], seeds=[0],
                          eval_every=20)
        rows = run_experiment(cfg)
        assert {r.condition for r in rows} == {"13-layer/pretrain", "13-layer/scratch"}


class TestSourceSize:
    def test_pixel_counts_and_conditions(self):
        cfg = base_config(
            experiment="source_size",
            seeds=[0],
            combinations=[{"label": "P2", "sources": [0, 1]},
                          {"label": "P1", "sources": [0]}],
        )
        rows = run_experiment(cfg)
        per = {r.condition: r.value for r in rows if r.metric == "source_pixels"}
        assert per["P2"] == 12 * 12 * 2
        assert per["P1"] == 12 * 12
        assert per["scratch"] == 0
        assert len(finals(rows)) == 3

    def test_needs_two_combinations(self):
        cfg = base_config(experiment="source_size",
                          combinations=[{"label": "P1", "sources": [0]}])
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestSensorAblation:
    def test_exactly_two_conditions(self):
        cfg = base_config(
            experiment="sensor_ablation",
            sources=[synth(51, "sameA", bands=5), synth(52, "sameB", bands=5),
                     synth(53, "crossA", bands=8), synth(54, "crossB", bands=3)],
            pairs=[{"label": "same_sensor", "sources": [0, 1]},
                   {"label": "cross_sensor", "sources": [2, 3]}],
        )
        rows = run_experiment(cfg)
        assert len(finals(rows)) == 2 * 2  # 2 conditions x 2 seeds
        assert {r.condition for r in rows} == {"same_sensor", "cross_sensor"}

    def test_rejects_wrong_pair_count(self):
        cfg = base_config(experiment="sensor_ablation",
                          pairs=[{"label": "only", "sources": [0, 1]}])
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_rejects_source_index_outside_the_list(self, index):
        cfg = base_config(experiment="sensor_ablation",
                          pairs=[{"label": "a", "sources": [0]},
                                 {"label": "b", "sources": [index]}])
        with pytest.raises(ConfigError, match="'b' references a source index outside "
                                              "the 2-entry 'sources' list"):
            run_experiment(cfg)


class TestSingleVsMulti:
    def test_values_and_validation(self):
        cfg = base_config(
            experiment="single_vs_multi",
            seeds=[0],
            sources=[synth(51, "s1"), synth(52, "s2", bands=6), synth(53, "s3", bands=8)],
            conditions=[{"label": "P3", "sources": [0, 1, 2]},
                        {"label": "solo", "sources": [1]}],
        )
        rows = run_experiment(cfg)
        per = {r.condition: r.value for r in rows if r.metric == "source_pixels"}
        assert per["P3"] == 3 * 144 and per["solo"] == 144
        assert len(finals(rows)) == 2

    def test_needs_single_and_multi(self):
        cfg = base_config(experiment="single_vs_multi",
                          conditions=[{"label": "a", "sources": [0]},
                                      {"label": "b", "sources": [1]}])
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestPretrain:
    def test_writes_checkpoints_into_a_fresh_directory(self, tmp_path):
        out = tmp_path / "new"
        run_experiment(base_config(experiment="pretrain", seeds=[0]), out)
        assert (out / "pretrained_seed0.ckpt").exists()
        assert (out / "report.csv").exists()


class TestPlan:
    """An experiment pre-trains each distinct store once, before any target run."""

    @pytest.fixture
    def trainings(self, monkeypatch):
        """The source names of each pre-training and "target" for each target run."""
        calls = []
        pretrain, train = hsinet.experiments.train_cross_domain, hsinet.experiments.train_single

        def pretrained(cdn, sources, *args, **kwargs):
            calls.append([ds.name for ds in sources])
            return pretrain(cdn, sources, *args, **kwargs)

        def trained(*args, **kwargs):
            calls.append("target")
            return train(*args, **kwargs)
        monkeypatch.setattr(hsinet.experiments, "train_cross_domain", pretrained)
        monkeypatch.setattr(hsinet.experiments, "train_single", trained)
        return calls

    def test_schedule_sweep_pretrains_once(self, trainings):
        run_experiment(base_config(
            experiment="schedule_sweep",
            schedules=[{"label": "A", "step_size": 16, "max_iter": 20},
                       {"label": "B", "step_size": 20, "max_iter": 24}]))
        assert trainings == [["s1", "s2"]] + ["target"] * 2 * 2 * 2

    def test_depth_sweep_pretrains_every_depth_first(self, trainings):
        run_experiment(base_config(experiment="depth_sweep", depths=[2, 3], seeds=[0]))
        assert trainings == [["s1", "s2"]] * 2 + ["target"] * 2 * 2

    def test_repeated_sources_pretrain_once(self, trainings):
        rows = run_experiment(base_config(
            experiment="single_vs_multi", seeds=[0, 1],
            conditions=[{"label": "solo", "sources": [0]},
                        {"label": "both", "sources": [0, 1]},
                        {"label": "again", "sources": [0, 1]}]))
        assert trainings == [["s1"], ["s1", "s2"]] + ["target"] * 3 * 2
        curves = {}
        for r in rows:
            curves.setdefault(r.condition, []).append((r.seed, r.iteration, r.metric, r.value))
        assert curves["again"] == curves["both"] != curves["solo"]


class TestRunKeys:
    """The documented config keys that change how a run trains or loads."""

    SWEEP = dict(experiment="schedule_sweep", seeds=[0],
                 schedules=[{"label": "A", "step_size": 16, "max_iter": 20}])

    def test_pretrain_seed_builds_the_store(self, monkeypatch):
        stores = []
        transfer = hsinet.experiments.transfer_shared

        def recorded(pretrained, spec, rng):
            stores.append(shared_bytes(pretrained.branches[0]))
            return transfer(pretrained, spec, rng)

        monkeypatch.setattr(hsinet.experiments, "transfer_shared", recorded)
        cfg = base_config(**self.SWEEP, pretrain_seed=5)
        run_experiment(cfg)
        h = _Harness(cfg)
        assert stores == [shared_bytes(h.pretrain(h.sources, 5).network.branches[0])]
        assert stores[0] != shared_bytes(h.pretrain(h.sources, 0).network.branches[0])

    @pytest.mark.parametrize("augment", [True, False])
    def test_augment_false_draws_no_symmetry(self, monkeypatch, augment):
        calls = []
        augment_d4 = hsinet.trainer.augment_d4

        def recorded(patch, k):
            calls.append(k)
            return augment_d4(patch, k)

        monkeypatch.setattr(hsinet.trainer, "augment_d4", recorded)
        run_experiment(base_config(**self.SWEEP, augment=augment))
        assert bool(calls) == augment

    @pytest.mark.parametrize("normalize", [True, False])
    def test_normalize_false_keeps_the_raw_cubes(self, normalize):
        cfg = base_config(**self.SWEEP, normalize=normalize)
        h = _Harness(cfg)
        for ds, entry in [(h.target, cfg["target"]), *zip(h.sources, cfg["sources"])]:
            raw = synth_generate(SynthConfig(**entry["synth"])).cube.data
            assert np.array_equal(ds.cube.data, raw) == (not normalize)


class TestReports:
    def test_unknown_experiment_id(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            run_experiment({"experiment": "nope", "seeds": [0]})

    def test_csv_reproducible_byte_identical(self, tmp_path):
        cfg = base_config(
            experiment="sensor_ablation",
            seeds=[0],
            sources=[synth(51, "a", bands=5), synth(52, "b", bands=5),
                     synth(53, "c", bands=8), synth(54, "d", bands=3)],
            pairs=[{"label": "same", "sources": [0, 1]},
                   {"label": "cross", "sources": [2, 3]}],
        )
        run_experiment(cfg, tmp_path / "run1")
        run_experiment(cfg, tmp_path / "run2")
        for name in ("report.csv", "summary.json", "config.json"):
            a = (tmp_path / "run1" / name).read_bytes()
            b = (tmp_path / "run2" / name).read_bytes()
            assert a == b, name

    def test_summary_matches_recomputation_from_csv(self, tmp_path):
        import csv as csvmod
        cfg = base_config(
            experiment="schedule_sweep",
            schedules=[{"label": "A", "step_size": 16, "max_iter": 20}],
        )
        rows = run_experiment(cfg, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        with open(tmp_path / "report.csv") as fh:
            recomputed = {}
            for rec in csvmod.DictReader(fh):
                if rec["metric"] == "final_accuracy":
                    recomputed.setdefault(rec["condition"], []).append(float(rec["value"]))
        for cond, vals in recomputed.items():
            agg = summary["conditions"][cond]["final_accuracy"]
            assert agg["mean"] == pytest.approx(np.mean(vals))
            assert agg["min"] == pytest.approx(np.min(vals))
            assert agg["max"] == pytest.approx(np.max(vals))

    def test_summarize_function_matches_write_report(self, tmp_path):
        cfg = base_config(
            experiment="schedule_sweep",
            seeds=[0],
            schedules=[{"label": "A", "step_size": 16, "max_iter": 20}],
        )
        rows = run_experiment(cfg)
        write_report(rows, cfg, tmp_path)
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert summarize(rows, cfg) == on_disk

    def test_failed_write_keeps_the_previous_report(self, tmp_path, fill_disk):
        cfg = {"experiment": "finetune", "seeds": [0]}
        rows = [ReportRow("finetune", 0, "finetune", 20, "final_accuracy", 0.5)]
        write_report(rows, cfg, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["config.json", "report.csv", "summary.json"]
        fill_disk()
        with pytest.raises(OSError, match="No space left"):
            write_report(rows * 2, {**cfg, "seeds": [0, 1]}, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
