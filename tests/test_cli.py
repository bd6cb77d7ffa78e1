import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

import hsinet.cli
import hsinet.errors
import hsinet.experiments
import hsinet.ops
import hsinet.trainer
from hsinet.checkpoint import load_checkpoint, save_checkpoint
from hsinet.cli import _write_train_outputs, main
from hsinet.data import (DomainDataset, SynthConfig, dataset_files, load_manifest,
                         normalize_bands, synth_generate, write_dataset)
from hsinet.envi import HyperCube, LabelRaster, load_label_raster, write_envi
from hsinet.network import CrossDomainSpec, NetworkSpec, build_backbone, build_cross_domain
from hsinet.trainer import MetricRow, TrainMetrics, TrainSchedule, two_step_train
from hsinet.verify import grad_check


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


def synth(seed, name, bands=4, classes=3, side=12):
    return {"synth": {"classes": classes, "bands": bands, "height": side,
                      "width": side, "noise_std": 0.25, "seed": seed, "name": name}}


class TestUsageErrors:
    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--what"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "--config", "c.json", "--checkpoint", "n.ckpt", "--seed", "1"],
        ["eval", "--config", "c.json", "--checkpoint", "n.ckpt", "--out", "d"],
        # --seeds 0 is a config error, so a parser that took --out stops short
        ["gradcheck", "--seeds", "0", "--out", "d"],
    ], ids=["eval_seed", "eval_out", "gradcheck_out"])
    def test_flag_the_command_does_not_read_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["pretrain", "--config", "c.json", "--seed", "5", "--out", "d"],
        ["finetune", "--config", "c.json", "--checkpoint", "n.ckpt", "--seed", "5",
         "--out", "d"],
        ["train-scratch", "--config", "c.json", "--seed", "5", "--out", "d"],
        ["experiment", "depth_sweep", "--config", "c.json", "--seed", "5", "--out", "d"],
        ["synth-gen", "--config", "c.json", "--seed", "5", "--out", "d"],
        ["gradcheck", "--seed", "5", "--seeds", "2"],
        ["eval", "--config", "c.json", "--checkpoint", "n.ckpt"],
    ], ids=lambda argv: argv[0])
    def test_each_command_keeps_the_flags_it_reads(self, argv):
        """--seed and --out where a command reads them (--out defaulting to
        'out'), and --threads on every command."""
        parse = hsinet.cli._build_parser().parse_args
        args = parse([*argv, "--threads", "2"])
        assert args.threads == 2
        assert getattr(args, "seed", 5) == 5 and getattr(args, "out", "d") == "d"
        assert ("--seed" in argv) == hasattr(args, "seed")
        assert ("--out" in argv) == hasattr(args, "out")
        if "--out" in argv:
            assert parse(argv[:-2]).out == "out"

    def test_missing_config_file_exits_1(self, tmp_path):
        assert main(["pretrain", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 1

    def test_invalid_threads_exits_1(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {})
        assert main(["pretrain", "--config", cfg, "--threads", "0",
                     "--out", str(tmp_path / "out")]) == 1

    def test_bad_synth_config_exits_1(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"domains": [{"classes": 3}]})
        assert main(["synth-gen", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


class TestConfigErrors:
    SCHEDULE = {"step_size": 4, "max_iter": 4, "batch": 4}

    def experiment(self, tmp_path, exp, **cfg):
        cfg = {"experiment": exp, "seeds": [0], "network": {"filters": 4},
               "sources": [synth(51, "a"), synth(52, "b")],
               "target": synth(50, "target", bands=5), "train_per_class": 4, **cfg}
        return main(["experiment", exp, "--config", write_json(tmp_path / "c.json", cfg),
                     "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("exp,cfg,key", [
        ("depth_sweep", {"depths": [2]}, "'schedule'"),
        ("sensor_ablation", {"schedule": SCHEDULE,
                             "pairs": [{"label": "x", "sources": [0]}, {"label": "y"}]},
         "'sources'"),
        ("source_size", {"schedule": SCHEDULE,
                         "combinations": [{"sources": [0]}, {"sources": [1]}]},
         "'label'"),
        ("single_vs_multi", {"schedule": SCHEDULE}, "'conditions'"),
        ("pretrain", {"two_step": {"step2": SCHEDULE}}, "'step1'"),
    ])
    def test_missing_key_exits_1_naming_it(self, tmp_path, capsys, exp, cfg, key):
        assert self.experiment(tmp_path, exp, **cfg) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("cfg,key", [
        ({"two_step": [SCHEDULE, SCHEDULE]}, "'two_step' must be a JSON object, got list"),
        ({"sources": 5}, "'sources' must be a JSON list, got int"),
    ])
    def test_wrong_container_type_exits_1_naming_it(self, tmp_path, capsys, cfg, key):
        cfg = write_json(tmp_path / "c.json", {
            "sources": [synth(51, "a")], "network": {"filters": 4},
            "schedule": self.SCHEDULE, **cfg})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command,cfg,message", [
        ("pretrain", {"sources": [5]}, "'sources' entry 0 must be a JSON object, got int"),
        ("pretrain", {"network": 5}, "'network' must be a JSON object, got int"),
        ("train-scratch", {"train_per_class": [2]},
         "'train_per_class' must be a JSON integer, got list"),
        ("pretrain", {"eval_every": "x"}, "'eval_every' must be a JSON integer, got str"),
        ("pretrain", {"schedule": {**SCHEDULE, "step_size": "2"}},
         "schedule 'step_size' must be a JSON integer, got str"),
        ("pretrain", {"sources": [{"synth": {**synth(51, "a")["synth"], "bands": "4"}}]},
         "synth 'bands' must be a JSON integer, got str"),
        ("train-scratch", {"eval_every": 0}, "eval_every must be >= 1, got 0"),
        ("train-scratch", {"train_per_class": 0}, "'train_per_class' must be >= 1, got 0"),
        ("train-scratch", {"split_seed": -1}, "'split_seed' must be >= 0, got -1"),
        ("pretrain", {"sources": [{"synth": {**synth(51, "a")["synth"], "seed": -2}}]},
         "synthetic domain seeds must be >= 0"),
    ])
    def test_wrong_value_type_exits_1_naming_it(self, tmp_path, capsys, command, cfg, message):
        cfg = write_json(tmp_path / "c.json", {
            "sources": [synth(51, "a")], "target": synth(50, "target", bands=5),
            "train_per_class": 4, "network": {"filters": 4}, "schedule": self.SCHEDULE, **cfg})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command,cfg,message", [
        ("train-scratch", {"schedule": {**SCHEDULE, "base_lr": float("nan")}},
         "schedule 'base_lr' must be a finite number, got nan"),
        ("train-scratch", {"schedule": {**SCHEDULE, "momentum": float("inf")}},
         "schedule 'momentum' must be a finite number, got inf"),
        ("pretrain", {"network": {"filters": 4, "dropout_rate": float("-inf")}},
         "network 'dropout_rate' must be a finite number, got -inf"),
        ("train-scratch", {"schedule": {**SCHEDULE, "base_lr": 10**400}},
         "schedule 'base_lr' must be a finite number, got 1000"),
        ("train-scratch", {"schedule": {**SCHEDULE, "momentum": 1.5}},
         "config 'schedule': momentum must be in [0, 1), got 1.5"),
        ("train-scratch", {"schedule": {**SCHEDULE, "momentum": -1.0}},
         "config 'schedule': momentum must be in [0, 1), got -1.0"),
        ("pretrain", {"schedule": {**SCHEDULE, "weight_decay": -5.0}},
         "config 'schedule': weight_decay must be >= 0, got -5.0"),
        ("train-scratch", {"schedule": {**SCHEDULE, "step_size": 0}},
         "config 'schedule': step_size must be >= 1, got 0"),
        ("train-scratch", {"schedule": {**SCHEDULE, "base_lr": 0.0}},
         "config 'schedule': base_lr must be positive, got 0.0"),
        ("pretrain", {"network": {"filters": 0}},
         "config 'network': filters must be positive, got 0"),
        *[("pretrain", {"sources": [{"synth": {**synth(51, "a")["synth"], key: value}}]},
           f"config 'sources' entry 0 'synth': {key} must be {bound}, got {value}")
          for key, value, bound in (("bands", 0, ">= 1"), ("height", 0, ">= 1"),
                                    ("width", 0, ">= 1"), ("noise_std", -0.1, ">= 0"),
                                    ("blob_scale", 0, ">= 1"))],
    ], ids=["nan_lr", "inf_momentum", "-inf_dropout", "lr_past_float", "momentum_1.5",
            "momentum_-1", "weight_decay_-5", "step_size_0", "base_lr_0", "filters_0",
            "bands_0", "height_0", "width_0", "noise_std_-0.1", "blob_scale_0"])
    def test_bad_number_exits_1_naming_it(self, tmp_path, capsys, calls, command, cfg, message):
        """JSON admits NaN and +-Infinity; the schema does not."""
        cfg = write_json(tmp_path / "c.json", {
            "sources": [synth(51, "a")], "target": synth(50, "target", bands=5),
            "train_per_class": 4, "network": {"filters": 4}, "schedule": self.SCHEDULE, **cfg})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert calls == {}

    DOMAIN = {"classes": 3, "bands": 4, "height": 12, "width": 12, "name": "s1"}
    INSIDE = ("must be a file name inside --out: not empty, '.' or '..', and without a path "
              "separator")

    @pytest.mark.parametrize("cfg,message", [
        ({"domains": [5]}, "'domains' entry 0 must be a JSON object, got int"),
        ({"domains": [DOMAIN, {**DOMAIN, "data_type": "x"}]},
         "'domains' entry 1 'data_type' must be a JSON integer, got str"),
        ({"domains": [{**DOMAIN, "data_type": 3}]},
         "'domains' entry 0 'data_type' must be one of [2, 4, 5, 12], got 3"),
        ({"domains": [{**DOMAIN, "interleave": 5}]},
         "'domains' entry 0 'interleave' must be a JSON string, got int"),
        ({**DOMAIN, "byte_order": 2}, "'byte_order' must be 0 or 1, got 2"),
        ({"domains": [{**DOMAIN, "interleav": "bip"}]},
         "unknown config 'domains' entry 0 keys: ['interleav'] (known: ['bands', 'blob_scale', "
         "'byte_order', 'classes', 'data_type', 'height', 'interleave', 'name', 'noise_std', "
         "'seed', 'sensor', 'signature_seed', 'width'])"),
        ({"domains": [{**DOMAIN, "noise_std": float("nan")}]},
         "'domains' entry 0: synth 'noise_std' must be a finite number, got nan"),
        ({"domains": [DOMAIN, {**DOMAIN, "name": "s\0"}]},
         "'domains' entry 1 'name' must be a file name without NUL or surrogate characters, "
         "got 's\\x00'"),
        ({**DOMAIN, "name": "s\ud800"},
         "'name' must be a file name without NUL or surrogate characters, got 's\\ud800'"),
        ({"domains": [DOMAIN, {**DOMAIN, "name": "../escaped"}]},
         f"'domains' entry 1 'name' {INSIDE}, got '../escaped'"),
        ({**DOMAIN, "name": "a/b"}, f"config 'name' {INSIDE}, got 'a/b'"),
        ({"domains": [{**DOMAIN, "name": ""}]}, f"'domains' entry 0 'name' {INSIDE}, got ''"),
        ({"domains": [{**DOMAIN, "name": "."}]}, f"'domains' entry 0 'name' {INSIDE}, got '.'"),
        ({**DOMAIN, "name": ".."}, f"config 'name' {INSIDE}, got '..'"),
        ({"domains": [DOMAIN, {**DOMAIN, "name": "s2"}, {**DOMAIN, "seed": 3}]},
         "config 'domains' entry 2 repeats the name 's1' of config 'domains' entry 0"),
        ({"domains": [{"classes": 3, "bands": 4, "height": 12, "width": 12}] * 2},
         "config 'domains' entry 1 repeats the name 'synth' of config 'domains' entry 0"),
    ])
    def test_bad_synth_gen_domain_exits_1_naming_it(self, tmp_path, capsys, cfg, message):
        assert main(["synth-gen", "--config", write_json(tmp_path / "c.json", cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["c.json"]  # no out, no escape

    def test_combination_entry_must_be_an_object(self, tmp_path, capsys):
        assert self.experiment(tmp_path, "source_size", schedule=self.SCHEDULE,
                               combinations=[[0], [1]]) == 1
        assert "'combinations' entry 0 must be a JSON object" in capsys.readouterr().err

    def test_unknown_top_level_key_exits_1_naming_it(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {
            "sources": [synth(51, "a")], "network": {"filters": 4},
            "schedule": self.SCHEDULE, "schedule_typo": self.SCHEDULE})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "schedule_typo" in capsys.readouterr().err
        assert not (tmp_path / "out" / "pretrained.ckpt").exists()

    def test_unknown_experiment_key_exits_1(self, tmp_path, capsys):
        assert self.experiment(tmp_path, "finetune", schedule=self.SCHEDULE,
                               checkpont="x.ckpt") == 1
        assert "checkpont" in capsys.readouterr().err


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls that train (sgd_step) or build a dataset."""
    counts = {}
    for module, name in ((hsinet.ops, "sgd_step"), (hsinet.experiments, "synth_generate"),
                         (hsinet.experiments, "load_manifest")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


class TestWholeConfigCheckedFirst:
    """A bad value anywhere in a config exits 1 naming it before any dataset
    is built or any step trains, even when it sits behind valid runs."""

    SCHEDULE = {"step_size": 4, "max_iter": 4, "batch": 4}
    BAD = {"step_size": 50, "max_iter": 20}

    @pytest.mark.parametrize("exp,cfg,where", [
        ("schedule_sweep", {"schedules": [SCHEDULE, BAD]}, "config 'schedules' entry 1: "),
        ("depth_sweep", {"depths": [2, 1]},
         "config 'depths' entry 1: residual_modules must be >= 2, got 1"),
        ("depth_sweep", {"depths": []}, "config 'depths' must be a non-empty JSON list"),
        ("depth_sweep", {"network": {"filters": 4, "patch": 4}},
         "config 'network': patch must be odd"),
        ("single_vs_multi", {"two_step": {"step1": SCHEDULE, "step2": BAD}},
         "config 'two_step' 'step2': step_size 50 exceeds max_iter 20"),
        ("source_size", {"sources": [synth(51, "a"), synth(52, "b"),
                                     {"synth": {**synth(53, "c")["synth"], "classes": 1}}]},
         "config 'sources' entry 2 'synth': synthetic domain needs >= 2 classes"),
        ("sensor_ablation", {"train_per_class": 0}, "'train_per_class' must be >= 1, got 0"),
    ], ids=["sweep_schedule", "depth", "no_depths", "even_patch", "two_step_step2",
            "last_source", "train_per_class_0"])
    def test_experiment_exits_1_naming_the_key(self, tmp_path, capsys, calls, exp, cfg, where):
        assert self.experiment(tmp_path, exp, cfg) == 1
        assert where in capsys.readouterr().err
        assert calls == {}

    def experiment(self, tmp_path, exp, cfg):
        cfg = {"experiment": exp, "seeds": [0], "network": {"filters": 4},
               "sources": [synth(51, "a"), synth(52, "b"), synth(53, "c")],
               "target": synth(50, "target", bands=5), "train_per_class": 4,
               "schedule": self.SCHEDULE, "pretrain_schedule": self.SCHEDULE,
               "depths": [2, 3], "schedules": [self.SCHEDULE],
               "combinations": [{"label": "one", "sources": [0]},
                                {"label": "all", "sources": [0, 1, 2]}],
               "pairs": [{"label": "x", "sources": [0]}, {"label": "y", "sources": [1]}],
               "conditions": [{"label": "one", "sources": [0]},
                              {"label": "two", "sources": [0, 1]}], **cfg}
        return main(["experiment", exp, "--config", write_json(tmp_path / "c.json", cfg),
                     "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("exp,cfg,message", [
        ("schedule_sweep", {"schedules": [{"step_size": 4, "max_iter": 6, "base_lr": 0.001},
                                          {"step_size": 4, "max_iter": 6, "base_lr": 0.05}]},
         "config 'schedules' entry 1 repeats the condition '4/6/pretrain' of config "
         "'schedules' entry 0"),
        ("source_size", {"combinations": [{"label": "x", "sources": [0]},
                                          {"label": "x", "sources": [0, 1]}]},
         "config 'combinations' entry 1 repeats the condition 'x' of config 'combinations' "
         "entry 0"),
        ("source_size", {"combinations": [{"label": "one", "sources": [0]},
                                          {"label": "scratch", "sources": [0, 1]}]},
         "config 'include_scratch' repeats the condition 'scratch' of config 'combinations' "
         "entry 1"),
        ("depth_sweep", {"depths": [3, 2, 3]},
         "config 'depths' entry 2 repeats the condition '11-layer/pretrain' of config "
         "'depths' entry 0"),
        ("depth_sweep", {"depths": [2, 2], "seeds": [0, 0]},
         "config 'seeds' entry 1 repeats the seed 0 of config 'seeds' entry 0"),
        ("pretrain", {"seeds": [4, 1, 4]},
         "config 'seeds' entry 2 repeats the seed 4 of config 'seeds' entry 0"),
    ], ids=["unlabelled_schedules", "combination_labels", "scratch_label", "depths",
            "seeds", "pretrain_seeds"])
    def test_repeated_run_exits_1_naming_both_entries(self, tmp_path, capsys, calls, exp, cfg,
                                                      message):
        """Repeated seeds or condition names used to exit 0, merging their runs
        into one condition of report.csv and summary.json."""
        assert self.experiment(tmp_path, exp, cfg) == 1
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert calls == {}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["eval"], ["finetune", "--out", "o"]],
                             ids=["eval", "finetune"])
    def test_config_checked_before_the_checkpoint_is_read(self, tmp_path, capsys, command):
        """A typo in the config exits 1 naming it; the corrupt checkpoint
        beside it (a data error, exit 2) is never read."""
        (tmp_path / "bad.ckpt").write_bytes(b"hsinet ckpt")
        cfg = write_json(tmp_path / "c.json", {
            "target": synth(50, "target"), "train_per_class": 4, "schedule": self.SCHEDULE,
            "typo_key": 1})
        assert main([*command, "--config", cfg, "--checkpoint", str(tmp_path / "bad.ckpt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown config keys: ['typo_key']")

    def test_eval_split_exits_1_naming_it(self, tmp_path, capsys, calls):
        spec = NetworkSpec(bands=5, classes=3, filters=4)
        save_checkpoint(build_backbone(spec, np.random.default_rng(0)), tmp_path / "n.ckpt")
        cfg = write_json(tmp_path / "c.json", {
            "target": synth(50, "target", bands=5), "train_per_class": 4,
            "network": {"filters": 4}, "split": "x"})
        assert main(["eval", "--config", cfg, "--checkpoint", str(tmp_path / "n.ckpt")]) == 1
        assert "config 'split' must be 'train' or 'test', got 'x'" in capsys.readouterr().err
        assert calls == {}


class TestTargetRunRecord:
    def test_eval_points_alone_score_the_run(self, tmp_path, capsys, monkeypatch):
        """eval_every 10 and max_iter 25 score the test split at 10, 20 and 25
        only, through the run's own batcher; the printed accuracy and the
        checkpoint read the last row."""
        splits, scored = [], []
        evaluate, accuracy = hsinet.trainer.evaluate, hsinet.trainer._accuracy

        def recorded(network, dataset, split):
            splits.append(split)
            return evaluate(network, dataset, split)

        for module in (hsinet.trainer, hsinet.experiments, hsinet.cli):
            if hasattr(module, "evaluate"):  # each name a run could call it by
                monkeypatch.setattr(module, "evaluate", recorded)
        monkeypatch.setattr(hsinet.trainer, "_accuracy",
                            lambda network, batcher, idx: scored.append(idx)
                            or accuracy(network, batcher, idx))
        cfg = write_json(tmp_path / "c.json", {
            "target": synth(50, "target", bands=5, side=14), "train_per_class": 6,
            "eval_every": 10, "network": {"filters": 4},
            "schedule": {"step_size": 20, "max_iter": 25, "batch": 4}})
        assert main(["train-scratch", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert splits == [] and len(scored) == 3
        assert all(idx is scored[0] for idx in scored)  # the test split, at each eval point
        last = (tmp_path / "o" / "metrics.csv").read_text().splitlines()[-1].split(",")
        assert last[0] == "25"
        assert json.loads(capsys.readouterr().out)["test_accuracy"] == float(last[3])
        assert load_checkpoint(tmp_path / "o" / "scratch.ckpt").iteration == 25


class TestEmptyTargetTestSplit:
    """A target whose every class has exactly train_per_class labeled pixels
    has nothing to score a training run on: a data error before any step."""

    SCHEDULE = {"step_size": 4, "max_iter": 4, "batch": 4}

    def config(self, tmp_path, **over):
        ds = synth_generate(SynthConfig(classes=3, bands=4, height=12, width=12,
                                        noise_std=0.25, seed=50, name="t"))
        flat = ds.labels.labels.ravel().copy()
        for cls in (1, 2, 3):
            flat[np.flatnonzero(flat == cls)[3:]] = 0
        ds = DomainDataset(ds.cube, LabelRaster.from_array(flat.reshape(12, 12)), 3, name="t")
        return write_json(tmp_path / "c.json", {
            "target": {"manifest": str(write_dataset(ds, tmp_path / "data"))},
            "train_per_class": 3, "network": {"filters": 4}, "seeds": [0],
            "sources": [synth(51, "a"), synth(52, "b")], "schedule": self.SCHEDULE,
            "pretrain_schedule": self.SCHEDULE, "depths": [2], **over})

    # the keys each experiment needs besides those config() writes
    CONDITIONS = [{"label": "a", "sources": [0]}, {"label": "ab", "sources": [0, 1]}]
    EXPERIMENT_KEYS = {"schedule_sweep": {"schedules": [{"label": "A"}]},
                       "source_size": {"combinations": CONDITIONS},
                       "sensor_ablation": {"pairs": CONDITIONS},
                       "single_vs_multi": {"conditions": CONDITIONS}}

    @pytest.mark.parametrize("command", [["train-scratch"], ["experiment", "depth_sweep"],
                                         *[["experiment", exp] for exp in EXPERIMENT_KEYS]])
    def test_training_exits_2_before_any_step(self, tmp_path, capsys, calls, command):
        over = self.EXPERIMENT_KEYS.get(command[-1], {})
        assert main([*command, "--config", self.config(tmp_path, **over),
                     "--out", str(tmp_path / "o")]) == 2
        assert "data error: test split of 't' is empty" in capsys.readouterr().err
        assert "sgd_step" not in calls
        assert not (tmp_path / "o").exists()

    def test_pretrain_on_a_missing_source_leaves_no_out_dir(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {
            "sources": [{"manifest": str(tmp_path / "missing.json")}],
            "network": {"filters": 4}, "schedule": self.SCHEDULE})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "missing.json" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("split,code", [("train", 0), ("test", 2)])
    def test_eval_scores_the_train_split_only(self, tmp_path, capsys, split, code):
        spec = NetworkSpec(bands=4, classes=3, filters=4)
        save_checkpoint(build_backbone(spec, np.random.default_rng(0)), tmp_path / "n.ckpt")
        assert main(["eval", "--config", self.config(tmp_path, split=split),
                     "--checkpoint", str(tmp_path / "n.ckpt")]) == code
        out, err = capsys.readouterr()
        if code:
            assert "data error: test split of 't' is empty" in err
        else:
            assert json.loads(out)["split"] == "train"


class TestRasterTooSmallForPatch:
    """A raster that the patch's reflect padding cannot pad fails as it loads,
    before any run trains and with no --out left behind."""

    SCHEDULE = {"step_size": 4, "max_iter": 4, "batch": 4}
    TINY = synth(53, "tiny", classes=2, side=2)

    @pytest.mark.parametrize("command,cfg", [
        (["train-scratch"], {"target": TINY}),
        (["experiment", "depth_sweep"], {"target": TINY}),
        (["experiment", "source_size"],
         {"target": synth(50, "t"), "sources": [synth(51, "a"), TINY],
          "combinations": [{"label": "a", "sources": [0]}, {"label": "ab", "sources": [0, 1]}]}),
    ])
    def test_exits_2_before_any_step(self, tmp_path, capsys, sgd_steps, command, cfg):
        cfg = write_json(tmp_path / "c.json", {
            "network": {"filters": 4}, "seeds": [0], "depths": [2], "train_per_class": 1,
            "sources": [synth(51, "a"), synth(52, "b")], "schedule": self.SCHEDULE,
            "pretrain_schedule": self.SCHEDULE, **cfg})
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert ("data error: dataset 'tiny' raster 2x2 too small for reflect padding of 2"
                in capsys.readouterr().err)
        assert sgd_steps == []
        assert not (tmp_path / "o").exists()


class TestExperimentProgress:
    def test_experiment_reports_each_run_and_eval_point_on_stderr(self, tmp_path, capsys):
        """Each pre-training and each target run is named on stderr before its
        eval lines; the report files are those of a library run."""
        schedule = {"step_size": 4, "max_iter": 4, "batch": 4}
        cfg = {"experiment": "depth_sweep", "seeds": [3], "depths": [2], "eval_every": 2,
               "network": {"filters": 4}, "target": synth(50, "t", side=14),
               "train_per_class": 3, "sources": [synth(51, "a"), synth(52, "b")],
               "schedule": schedule, "pretrain_schedule": schedule}
        assert main(["experiment", "depth_sweep", "--config",
                     write_json(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")]) == 0
        out, err = capsys.readouterr()
        pretrain = r"iter [24] a loss \d\.\d{4} acc n/a; b loss \d\.\d{4} acc n/a"
        target = r"iter [24] t loss \d\.\d{4} acc \d\.\d{4}"
        expected = ["pretrain sources \\[0, 1\\] with 2 residual modules", pretrain, pretrain,
                    "condition 9-layer/pretrain seed 3", target, target,
                    "condition 9-layer/scratch seed 3", target, target]
        lines = err.splitlines()
        assert len(lines) == len(expected)
        assert all(re.fullmatch(want, line) for want, line in zip(expected, lines))
        assert json.loads(out) == {"report": str(tmp_path / "o" / "report.csv"),
                                   "summary": str(tmp_path / "o" / "summary.json")}
        hsinet.experiments.run_experiment(cfg, tmp_path / "library")
        for name in ("report.csv", "summary.json", "config.json"):
            assert ((tmp_path / "o" / name).read_bytes()
                    == (tmp_path / "library" / name).read_bytes())


class TestAtomicOutputs:
    def test_failed_write_keeps_the_previous_metrics(self, tmp_path, fill_disk):
        first = TrainMetrics(rows=[MetricRow(10, "a", 0.5, 0.25)])
        _write_train_outputs(tmp_path, [first], ["metrics"])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["metrics.csv", "metrics_summary.json"]
        fill_disk()
        second = TrainMetrics(rows=first.rows + [MetricRow(20, "a", 0.4, None)])
        with pytest.raises(OSError, match="No space left"):
            _write_train_outputs(tmp_path, [second], ["metrics"])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestUnwritableOutput:
    """An OSError on an output path is a data error naming the path, where it
    escaped main as a traceback."""

    def test_synth_gen_out_naming_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "f"
        out.write_text("keep")
        cfg = write_json(tmp_path / "c.json", {"domains": [TestConfigErrors.DOMAIN]})
        assert main(["synth-gen", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"data error: cannot write '{out}': File exists" in err
        assert "Traceback" not in err
        assert out.read_text() == "keep"

    def test_full_disk_during_train_scratch_exits_2(self, tmp_path, capsys, fill_disk):
        cfg = write_json(tmp_path / "c.json", {
            "target": synth(50, "t"), "train_per_class": 4, "network": {"filters": 4},
            "schedule": {"step_size": 4, "max_iter": 4, "batch": 4}})
        fill_disk()
        assert main(["train-scratch", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert (f"data error: cannot write '{tmp_path / 'o' / 'metrics.csv'}': No space left "
                "on device") in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["pretrain"], ["experiment", "pretrain"],
                                         ["synth-gen"]])
    def test_config_error_comes_before_the_out_error(self, tmp_path, capsys, command):
        out = tmp_path / "f"
        out.write_text("keep")
        cfg = write_json(tmp_path / "c.json", {"sources": [synth(51, "a")], "typo": 1})
        assert main([*command, "--config", cfg, "--out", str(out)]) == 1
        assert "'typo'" in capsys.readouterr().err
        assert out.read_text() == "keep"

    def test_experiment_out_naming_a_file_exits_2_before_any_step(self, tmp_path, capsys,
                                                                 sgd_steps):
        out = tmp_path / "f"
        out.write_text("keep")
        schedule = {"step_size": 4, "max_iter": 4, "batch": 4}
        cfg = write_json(tmp_path / "c.json", {
            "experiment": "depth_sweep", "seeds": [0], "depths": [2], "network": {"filters": 4},
            "target": synth(50, "t"), "train_per_class": 4, "sources": [synth(51, "a")],
            "schedule": schedule, "pretrain_schedule": schedule})
        assert main(["experiment", "depth_sweep", "--config", cfg, "--out", str(out)]) == 2
        assert f"data error: cannot write '{out}': File exists" in capsys.readouterr().err
        assert sgd_steps == []
        assert out.read_text() == "keep"


class TestOutOfMemory:
    """A MemoryError that no check caught exits 4 naming the command, where it
    escaped main as a traceback. The command is replaced: nothing allocates."""

    @pytest.mark.parametrize("message", ["Unable to allocate 10.9 TiB for an array", ""])
    def test_memory_error_exits_4_naming_the_command(self, tmp_path, capsys, monkeypatch,
                                                     message):
        def oversized(args):
            raise MemoryError(*[message] if message else [])
        monkeypatch.setattr(hsinet.cli, "cmd_target", oversized)
        cfg = write_json(tmp_path / "c.json", {})
        assert main(["train-scratch", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        detail = f": {message}" if message else ""
        assert capsys.readouterr().err == f"out of memory: hsinet train-scratch{detail}\n"


class TestMalformedInput:
    def test_fractional_float_label_exits_2_naming_it(self, tmp_path, capsys):
        """Labels were rounded through a float32 cube: 2.5 trained as class 2."""
        ds = synth_generate(SynthConfig(classes=3, bands=4, height=12, width=12,
                                        noise_std=0.25, seed=50, name="t"))
        manifest = write_dataset(ds, tmp_path / "data")
        labels = ds.labels.labels.astype(np.float32)
        labels[3, 4] -= 0.5  # y 3, x 4
        _, _, label_hdr, label_img, _ = dataset_files(tmp_path / "data", "t")
        write_envi(HyperCube.from_array(labels[np.newaxis]), label_hdr, label_img, data_type=4)
        cfg = write_json(tmp_path / "c.json", {
            "target": {"manifest": str(manifest)}, "train_per_class": 2,
            "network": {"filters": 4}, "schedule": {"step_size": 4, "max_iter": 4}})
        assert main(["train-scratch", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert (f"in '{label_hdr}' at pixel (x=4, y=3) is not an integer"
                in capsys.readouterr().err)

    def test_repeated_config_key_exits_1(self, tmp_path, capsys):
        """Only the second 'domains' used to be generated."""
        domain = json.dumps(TestConfigErrors.DOMAIN)
        (tmp_path / "c.json").write_text(f'{{"domains": [{domain}], "domains": [{domain}]}}')
        assert main(["synth-gen", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "out")]) == 1
        assert (f"config error: config file '{tmp_path / 'c.json'}' repeats the key 'domains'"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_repeated_manifest_key_exits_2(self, tmp_path, capsys):
        ds = synth_generate(SynthConfig(classes=3, bands=4, height=12, width=12,
                                        noise_std=0.25, seed=50, name="t"))
        manifest = write_dataset(ds, tmp_path / "data")
        manifest.write_text(manifest.read_text().replace('"name": "t"',
                                                         '"name": "t", "name": "u"'))
        cfg = write_json(tmp_path / "c.json", {
            "target": {"manifest": str(manifest)}, "train_per_class": 2,
            "network": {"filters": 4}, "schedule": {"step_size": 4, "max_iter": 4}})
        assert main(["train-scratch", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert (f"data error: manifest '{manifest}' repeats the key 'name'"
                in capsys.readouterr().err)


class TestGradcheck:
    def test_exits_zero_when_oracles_pass(self, capsys):
        assert main(["gradcheck", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS backbone" in out
        assert "FAIL" not in out

    def test_max_rel_skips_errors_under_the_absolute_floor(self, monkeypatch, capsys):
        """A gradient that is 0 by structure, computed as 1e-8, is wrong by 100%
        relative but passes through ABS_FLOOR: it shows in max_abs, not max_rel."""
        from hsinet.verify import grad_check
        x = np.array([1.0, 0.0])
        report = grad_check(lambda: float((x ** 2).sum() / 2), {"x": (x, np.array([1.0, 1e-8]))})
        monkeypatch.setattr(hsinet.cli, "oracle_suite", lambda seeds: [("quad", 0, report)])
        assert main(["gradcheck", "--seeds", "1"]) == 0
        line = capsys.readouterr().out.strip()
        assert re.fullmatch(r"PASS quad seed=0 max_rel=\S+ max_abs=1\.000e-08", line), line
        assert float(re.search(r"max_rel=(\S+)", line)[1]) < 1e-9

    def test_failed_check_exits_3_with_the_count(self, monkeypatch, capsys):
        x = np.array([1.0, 2.0])

        def loss():
            return float((x ** 2).sum() / 2)
        right, wrong = (grad_check(loss, {"x": (x, g)}) for g in (x.copy(), 2 * x))
        monkeypatch.setattr(hsinet.cli, "oracle_suite", lambda seeds: [
            *[("quad", seed, wrong) for seed in seeds], ("quad", 9, right)])
        assert main(["gradcheck", "--seeds", "2"]) == 3
        captured = capsys.readouterr()
        assert [line.split()[:3] for line in captured.out.splitlines()] == [
            ["FAIL", "quad", "seed=0"], ["FAIL", "quad", "seed=1"], ["PASS", "quad", "seed=9"]]
        assert captured.err == "2 gradient checks failed\n"

    @pytest.mark.parametrize("flags,message", [
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--seeds", "0"], "--seeds must be >= 1, got 0"),
    ])
    def test_bad_flag_exits_1_naming_it(self, capsys, flags, message):
        assert main(["gradcheck", *flags]) == 1
        captured = capsys.readouterr()
        assert f"config error: {message}" in captured.err
        assert captured.out == ""


class TestNumericFailure:
    SCHEDULE = {"step_size": 2, "max_iter": 2, "batch": 4}

    def test_non_finite_loss_exits_3_naming_domain_and_iteration(self, tmp_path, capsys,
                                                                  monkeypatch):
        real = hsinet.ops.softmax_cross_entropy
        steps = []

        def diverging(logits, labels):  # the third training step's loss is NaN
            loss, grad = real(logits, labels)
            steps.append(loss)
            return (float("nan") if len(steps) == 3 else loss), grad
        monkeypatch.setattr(hsinet.ops, "softmax_cross_entropy", diverging)
        cfg = write_json(tmp_path / "c.json", {
            "target": synth(50, "t"), "train_per_class": 4, "network": {"filters": 4},
            "schedule": {"step_size": 4, "max_iter": 4, "batch": 4}})
        out = tmp_path / "o"
        assert main(["train-scratch", "--config", cfg, "--out", str(out)]) == 3
        assert ("numeric failure: non-finite loss for domain 't' at iteration 2"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_failed_rerun_keeps_the_earlier_runs_files(self, tmp_path, capsys, monkeypatch):
        cfg = write_json(tmp_path / "c.json", {
            "sources": [synth(51, "a")], "network": {"filters": 4}, "schedule": self.SCHEDULE})
        out = tmp_path / "o"
        assert main(["pretrain", "--config", cfg, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert {"metrics.csv", "pretrained.ckpt"} <= set(before)
        real = hsinet.ops.softmax_cross_entropy
        monkeypatch.setattr(hsinet.ops, "softmax_cross_entropy",
                            lambda logits, labels: (float("nan"), real(logits, labels)[1]))
        assert main(["pretrain", "--config", cfg, "--out", str(out), "--seed", "1"]) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("keep", [False, True])
    def test_experiment_failed_at_its_second_seed_leaves_out_as_found(
            self, tmp_path, capsys, monkeypatch, keep):
        """The first seed's checkpoint used to stay, with no report beside it."""
        real = hsinet.experiments._Harness.pretrain

        def second_seed_diverges(h, sources, seed, modules=None):
            if seed == 1:
                raise hsinet.errors.NumericError("non-finite loss at seed 1")
            return real(h, sources, seed, modules)
        monkeypatch.setattr(hsinet.experiments._Harness, "pretrain", second_seed_diverges)
        out = tmp_path / "o"
        if keep:
            out.mkdir()
            (out / "keep.txt").write_text("x")
        cfg = write_json(tmp_path / "c.json", {
            "experiment": "pretrain", "seeds": [0, 1], "sources": [synth(51, "a")],
            "network": {"filters": 4}, "pretrain_schedule": self.SCHEDULE})
        assert main(["experiment", "pretrain", "--config", cfg, "--out", str(out)]) == 3
        assert "non-finite loss at seed 1" in capsys.readouterr().err
        if keep:
            assert [p.name for p in out.iterdir()] == ["keep.txt"]
        else:
            assert not out.exists()

    def test_interrupt_mid_training_leaves_no_out(self, tmp_path, monkeypatch):
        """Nor the missing parent directories of --out that the run made."""
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(hsinet.ops, "sgd_step", interrupted)
        cfg = write_json(tmp_path / "c.json", {
            "target": synth(50, "t"), "train_per_class": 4, "network": {"filters": 4},
            "schedule": self.SCHEDULE})
        with pytest.raises(KeyboardInterrupt):
            main(["train-scratch", "--config", cfg, "--out", str(tmp_path / "o" / "run")])
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


class TestSeedFlag:
    def test_experiment_seed_replaces_the_config_seeds(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {
            "experiment": "pretrain", "seeds": [0, 1], "sources": [synth(51, "a")],
            "network": {"filters": 4},
            "pretrain_schedule": {"step_size": 2, "max_iter": 2, "batch": 4}})
        out = tmp_path / "o"
        assert main(["experiment", "pretrain", "--config", cfg, "--seed", "7",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out / "report.csv") as fh:
            assert {r["seed"] for r in csv.DictReader(fh)} == {"7"}
        assert json.loads((out / "summary.json").read_text())["seeds"] == [7]
        assert [p.name for p in out.glob("*.ckpt")] == ["pretrained_seed7.ckpt"]

    def test_synth_gen_seed_gives_domain_i_seed_n_plus_i(self, tmp_path, capsys):
        domains = [{"classes": 3, "bands": 4, "height": 8, "width": 8, "seed": 100,
                    "name": "a"},
                   {"classes": 2, "bands": 3, "height": 9, "width": 7, "seed": 200,
                    "name": "b"}]
        cfg = write_json(tmp_path / "g.json", {"domains": domains})
        assert main(["synth-gen", "--config", cfg, "--seed", "9",
                     "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        for i, domain in enumerate(domains):
            got = load_manifest(tmp_path / "o" / f"{domain['name']}.json")
            want = synth_generate(SynthConfig(**{**domain, "seed": 9 + i}))
            assert got.cube.data.tobytes() == want.cube.data.tobytes()
            np.testing.assert_array_equal(got.labels.labels, want.labels.labels)
            unseeded = synth_generate(SynthConfig(**domain))
            assert got.cube.data.tobytes() != unseeded.cube.data.tobytes()


class TestDeterminism:
    def test_rerun_past_100_iterations_writes_identical_files(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {
            "target": synth(50, "t", bands=3, classes=2, side=8), "train_per_class": 2,
            "network": {"filters": 2},
            "schedule": {"step_size": 100, "max_iter": 120, "batch": 2}, "eval_every": 60})
        runs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["train-scratch", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        capsys.readouterr()
        assert sorted(runs[0]) == ["metrics.csv", "metrics_summary.json", "scratch.ckpt"]
        for name in runs[0]:
            assert runs[0][name] == runs[1][name], name


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    gen_cfg = write_json(root / "gen.json", {
        "domains": [
            {"classes": 3, "bands": 4, "height": 12, "width": 12,
             "noise_std": 0.25, "seed": 51, "name": "s1"},
            {"classes": 4, "bands": 6, "height": 12, "width": 12,
             "noise_std": 0.25, "seed": 52, "name": "s2", "sensor": "R"},
        ]
    })
    assert main(["synth-gen", "--config", gen_cfg, "--out", str(root / "data")]) == 0
    return root


def pretrain_config(workdir):
    return write_json(workdir / "pre.json", {
        "sources": [
            {"manifest": str(workdir / "data" / "s1.json")},
            {"manifest": str(workdir / "data" / "s2.json")},
        ],
        "network": {"filters": 4, "dropout_rate": 0.25},
        "schedule": {"step_size": 16, "max_iter": 20, "batch": 8},
        "eval_every": 10,
    })


def target_config(workdir):
    return write_json(workdir / "tgt.json", {
        "target": synth(50, "target", bands=5, side=14),
        "train_per_class": 6,
        "split_seed": 7,
        "network": {"filters": 4, "dropout_rate": 0.25},
        "schedule": {"step_size": 16, "max_iter": 20, "batch": 8},
        "eval_every": 10,
    })


def _negative_offset(manifest, tmp_path):
    """The manifest with a header that says offset -4 over a data file 4 bytes short."""
    header = Path(manifest["header"]).read_text()
    (tmp_path / "h.hdr").write_text(header.replace("header offset = 0", "header offset = -4"))
    (tmp_path / "h.img").write_bytes(Path(manifest["data"]).read_bytes()[:-4])
    return {**manifest, "header": "h.hdr", "data": "h.img"}


def _zero_bands(manifest, tmp_path):
    """The manifest with a header that declares 0 bands over an empty data file."""
    header = Path(manifest["header"]).read_text()
    (tmp_path / "h.hdr").write_text(header.replace("bands = 4", "bands = 0"))
    (tmp_path / "h.img").write_bytes(b"")
    return {**manifest, "header": "h.hdr", "data": "h.img"}


def two_step_config(workdir):
    """Pre-training on s1 and a larger second source, on a two_step pair."""
    return {
        "sources": [{"manifest": str(workdir / "data" / "s1.json")},
                    synth(60, "big", bands=5, side=16)],
        "network": {"filters": 4, "dropout_rate": 0.25},
        "two_step": {"step1": {"step_size": 8, "max_iter": 10, "batch": 8},
                     "step2": {"step_size": 10, "max_iter": 12, "batch": 8}},
        "eval_every": 5,
    }


def two_step_direct(workdir, seed):
    """The cross-domain network and generator of a two_step_train call on
    two_step_config's sources, made without the harness."""
    cfg = two_step_config(workdir)
    sources = [normalize_bands(load_manifest(workdir / "data" / "s1.json")),
               normalize_bands(synth_generate(SynthConfig(**cfg["sources"][1]["synth"])))]
    rng = np.random.default_rng(seed)
    cdn = build_cross_domain(CrossDomainSpec([
        NetworkSpec(bands=ds.cube.bands, classes=ds.classes, **cfg["network"])
        for ds in sources]), rng)
    steps = [TrainSchedule(**cfg["two_step"][key]) for key in ("step1", "step2")]
    cdn, *_ = two_step_train(cdn, sources, *steps, rng, eval_every=cfg["eval_every"])
    return cdn, rng


def state_bytes(network):
    return [(name, arr.tobytes()) for name, arr in network.state()]


class TestTwoStepPretrain:
    """The two_step branch of pre-training: Step I on the largest source
    ('big', 256 labeled pixels against s1's 144), then Step II on both."""

    def test_pretrain_writes_each_step(self, workdir, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["pretrain", "--config", write_json(tmp_path / "c.json",
                                                        two_step_config(workdir)),
                     "--seed", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out.iterdir()) == [
            "metrics_step1.csv", "metrics_step1_summary.json", "metrics_step2.csv",
            "metrics_step2_summary.json", "pretrained.ckpt"]
        for step, points, domains in ((1, ("5", "10"), ("big",)),
                                      (2, ("5", "10", "12"), ("s1", "big"))):
            with open(out / f"metrics_step{step}.csv") as fh:
                rows = [(r["iteration"], r["domain"]) for r in csv.DictReader(fh)]
            assert rows == [(it, d) for it in points for d in domains]
            summary = json.loads((out / f"metrics_step{step}_summary.json").read_text())
            assert summary["iterations"] == int(points[-1])
            assert sorted(summary["final"]) == sorted(domains)

    def test_pretrain_checkpoint_equals_a_direct_call(self, workdir, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["pretrain", "--config", write_json(tmp_path / "c.json",
                                                        two_step_config(workdir)),
                     "--seed", "4", "--out", str(out)]) == 0
        cdn, rng = two_step_direct(workdir, 4)
        capsys.readouterr()
        ckpt = load_checkpoint(out / "pretrained.ckpt")
        assert ckpt.iteration == 12
        assert state_bytes(ckpt.network) == state_bytes(cdn)
        assert ckpt.rng.bit_generator.state == rng.bit_generator.state

    def test_experiment_pretrain_labels_each_step(self, workdir, tmp_path, capsys):
        cfg = {**two_step_config(workdir), "experiment": "pretrain", "seeds": [4]}
        out = tmp_path / "o"
        assert main(["experiment", "pretrain", "--config", write_json(tmp_path / "c.json", cfg),
                     "--out", str(out)]) == 0
        cdn, _ = two_step_direct(workdir, 4)
        capsys.readouterr()
        with open(out / "report.csv") as fh:
            rows = [(r["condition"], r["iteration"], r["metric"]) for r in csv.DictReader(fh)]
        assert rows == [
            *[("pretrain/step1", it, "loss[big]") for it in ("5", "10")],
            *[("pretrain/step2", it, f"loss[{d}]") for it in ("5", "10", "12")
              for d in ("big", "s1")]]
        assert state_bytes(load_checkpoint(out / "pretrained_seed4.ckpt").network) == (
            state_bytes(cdn))


class TestPipeline:
    def test_synth_gen_wrote_envi_and_manifests(self, workdir):
        for name in ("s1", "s2"):
            for suffix in (".hdr", ".img", "_labels.hdr", "_labels.img", ".json"):
                assert (workdir / "data" / f"{name}{suffix}").exists()

    def test_pretrain_finetune_eval_round_trip(self, workdir, capsys):
        pre_cfg = pretrain_config(workdir)
        assert main(["pretrain", "--config", pre_cfg, "--seed", "0",
                     "--out", str(workdir / "pre")]) == 0
        out = json.loads(capsys.readouterr().out)
        ckpt = out["checkpoint"]
        assert (workdir / "pre" / "metrics.csv").exists()

        tgt_cfg = target_config(workdir)
        assert main(["finetune", "--config", tgt_cfg, "--checkpoint", ckpt,
                     "--seed", "1", "--out", str(workdir / "ft")]) == 0
        ft_out = json.loads(capsys.readouterr().out)
        assert 0.0 <= ft_out["test_accuracy"] <= 1.0

        assert main(["train-scratch", "--config", tgt_cfg, "--seed", "1",
                     "--out", str(workdir / "scratch")]) == 0
        capsys.readouterr()

        assert main(["eval", "--config", tgt_cfg,
                     "--checkpoint", ft_out["checkpoint"]]) == 0
        eval_out = json.loads(capsys.readouterr().out)
        assert eval_out["accuracy"] == pytest.approx(ft_out["test_accuracy"])

    def test_finetune_missing_checkpoint_exits_1(self, workdir):
        tgt_cfg = str(workdir / "tgt.json")
        assert main(["finetune", "--config", tgt_cfg,
                     "--checkpoint", str(workdir / "missing.ckpt"),
                     "--out", str(workdir / "x")]) == 1

    def test_eval_rejects_cross_checkpoint(self, workdir):
        assert main(["eval", "--config", str(workdir / "tgt.json"),
                     "--checkpoint", str(workdir / "pre" / "pretrained.ckpt")]) == 1

    def test_experiment_subcommand_writes_reports(self, workdir, capsys):
        exp_cfg = write_json(workdir / "exp.json", {
            "experiment": "sensor_ablation",
            "seeds": [0],
            "split_seed": 7,
            "train_per_class": 6,
            "eval_every": 10,
            "network": {"filters": 4, "dropout_rate": 0.25},
            "target": synth(50, "target", bands=5, side=14),
            "sources": [synth(51, "a", bands=5), synth(52, "b", bands=5),
                        synth(53, "c", bands=8), synth(54, "d", bands=3)],
            "pairs": [{"label": "same", "sources": [0, 1]},
                      {"label": "cross", "sources": [2, 3]}],
            "pretrain_schedule": {"step_size": 16, "max_iter": 20, "batch": 8},
            "schedule": {"step_size": 16, "max_iter": 20, "batch": 8},
        })
        assert main(["experiment", "sensor_ablation", "--config", exp_cfg,
                     "--out", str(workdir / "exp")]) == 0
        assert (workdir / "exp" / "report.csv").exists()
        assert (workdir / "exp" / "summary.json").exists()
        capsys.readouterr()

    def test_experiment_id_mismatch_exits_1(self, workdir):
        assert main(["experiment", "depth_sweep", "--config",
                     str(workdir / "exp.json"), "--out", str(workdir / "x2")]) == 1

    def test_corrupt_manifest_is_data_error(self, workdir, tmp_path):
        bad = write_json(tmp_path / "bad.json", {
            "sources": [{"manifest": str(tmp_path / "nothere.json")}],
            "network": {"filters": 4},
            "schedule": {"step_size": 4, "max_iter": 4},
        })
        assert main(["pretrain", "--config", bad, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key,value,what,message", [
        ("manifest", ".", "manifest", "cannot be read: Is a directory"),
        ("header", ".", "ENVI header", "cannot be read: Is a directory"),
        ("data", ".", "ENVI data file", "cannot be read: Is a directory"),
        ("labels", "grid.txt", "label grid", "cannot be read: Is a directory"),
        ("labels", "missing.txt", "label grid", "does not exist"),
    ])
    def test_unreadable_data_path_is_data_error_naming_it(self, workdir, tmp_path, capsys,
                                                          key, value, what, message):
        """Each file a manifest leads to, given as a directory, and a missing text grid."""
        (tmp_path / "grid.txt").mkdir()
        manifest = json.loads((workdir / "data" / "s1.json").read_text())
        manifest.update({k: str(workdir / "data" / manifest[k]) for k in ("header", "data",
                                                                           "labels")})
        path = tmp_path / value
        if key != "manifest":
            write_json(tmp_path / "m.json", {**manifest, key: value})
        cfg = write_json(tmp_path / "c.json", {
            "target": {"manifest": str(path if key == "manifest" else tmp_path / "m.json")},
            "train_per_class": 2, "network": {"filters": 4},
            "schedule": {"step_size": 4, "max_iter": 4}})
        assert main(["train-scratch", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"data error: {what} '{path}' {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("char", ["\0", "\ud800"], ids=["nul", "surrogate"])
    @pytest.mark.parametrize("key,name,what", [
        ("manifest", "m{}.json", "manifest"), ("header", "h{}.hdr", "ENVI header"),
        ("data", "d{}.img", "ENVI data file"), ("labels", "l{}.txt", "label grid"),
    ], ids=["manifest", "header", "data", "labels"])
    def test_data_path_that_cannot_name_a_file_is_data_error_naming_it(
            self, workdir, tmp_path, capsys, char, key, name, what):
        """JSON strings may hold a NUL or a lone surrogate; such a path used to
        escape the read as ValueError or UnicodeEncodeError."""
        manifest = json.loads((workdir / "data" / "s1.json").read_text())
        manifest.update({k: str(workdir / "data" / manifest[k]) for k in ("header", "data",
                                                                           "labels")})
        path = tmp_path / name.format(char)
        if key != "manifest":
            write_json(tmp_path / "m.json", {**manifest, key: path.name})
        cfg = write_json(tmp_path / "c.json", {
            "target": {"manifest": str(path if key == "manifest" else tmp_path / "m.json")},
            "train_per_class": 2, "network": {"filters": 4},
            "schedule": {"step_size": 4, "max_iter": 4}})
        assert main(["train-scratch", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert (f"data error: {what} {str(path)!r} cannot name a file"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("edit,message", [
        (lambda m, tmp: 5, "manifest '{m}' must hold a JSON object, got int"),
        (lambda m, tmp: {**m, "classes": [3]},
         "manifest '{m}' key 'classes' must be a JSON integer, got list"),
        (lambda m, tmp: {**m, "header": 5}, "manifest '{m}' key 'header' must be a JSON string"),
        (_negative_offset, "ENVI header '{tmp}/h.hdr' key 'header offset' must be >= 0, got -4"),
        (_zero_bands, "ENVI header '{tmp}/h.hdr' key 'bands' must be >= 1, got 0"),
    ], ids=["int", "classes_list", "header_int", "negative_offset", "zero_bands"])
    def test_mistyped_manifest_value_is_data_error_naming_it(self, workdir, tmp_path, capsys,
                                                             edit, message):
        manifest = json.loads((workdir / "data" / "s1.json").read_text())
        manifest.update({k: str(workdir / "data" / manifest[k]) for k in ("header", "data",
                                                                           "labels")})
        path = tmp_path / "m.json"
        write_json(path, edit(manifest, tmp_path))
        cfg = write_json(tmp_path / "c.json", {
            "target": {"manifest": str(path)}, "train_per_class": 2,
            "network": {"filters": 4}, "schedule": {"step_size": 4, "max_iter": 4}})
        assert main(["train-scratch", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert ("data error: " + message.format(m=path, tmp=tmp_path)
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command,value", [("train-scratch", np.nan),
                                               ("pretrain", np.inf)])
    def test_non_finite_cube_value_is_data_error_naming_it(self, workdir, tmp_path, capsys,
                                                           calls, command, value):
        """Rejected as the dataset loads, before any step trains."""
        manifest = json.loads((workdir / "data" / "s1.json").read_text())
        manifest.update({k: str(workdir / "data" / manifest[k]) for k in ("header",
                                                                           "labels")})
        cube = np.fromfile(workdir / "data" / "s1.img", dtype="<f4").reshape(4, 12, 12)
        cube[2, 7, 5] = value  # band 2, y 7, x 5
        cube.tofile(tmp_path / "s1.img")
        bad = {"manifest": write_json(tmp_path / "s1.json", manifest)}
        cfg = write_json(tmp_path / "c.json", {
            "sources": [bad, {"manifest": str(workdir / "data" / "s2.json")}], "target": bad,
            "train_per_class": 2, "network": {"filters": 4},
            "schedule": {"step_size": 4, "max_iter": 4}})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert (f"data error: dataset 's1' band 2 holds the non-finite value {value} at "
                "pixel (x=5, y=7)") in capsys.readouterr().err
        assert "sgd_step" not in calls

    def test_label_past_int32_is_data_error_naming_it(self, workdir, tmp_path, capsys, calls):
        """2**32 + 1 used to wrap to class 1 in the int32 cast and train."""
        manifest = json.loads((workdir / "data" / "s1.json").read_text())
        manifest.update({k: str(workdir / "data" / manifest[k]) for k in ("header", "data")})
        grid = load_label_raster(workdir / "data" / "s1_labels.hdr").labels.astype(np.int64)
        grid[3, 4] = 2**32 + 1
        np.savetxt(tmp_path / "l.txt", grid, fmt="%d")
        cfg = write_json(tmp_path / "c.json", {
            "target": {"manifest": write_json(tmp_path / "m.json",
                                              {**manifest, "labels": "l.txt"})},
            "train_per_class": 2, "network": {"filters": 4},
            "schedule": {"step_size": 4, "max_iter": 4}})
        assert main(["train-scratch", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert (f"data error: label 4294967297 in '{tmp_path / 'l.txt'}' at pixel (x=4, y=3)"
                in capsys.readouterr().err)
        assert "sgd_step" not in calls

    @pytest.mark.parametrize("command,edit,per_class,message", [
        ("train-scratch", {"classes": 2}, 2,
         "dataset 's1' label 3 exceeds declared class count 2"),
        ("train-scratch", {}, 400, "dataset 's1' class 1 has only {count} labeled pixels, "
                                   "need 400"),
        ("pretrain", {"labels": "zeros.txt"}, 2,
         "dataset 's1': normalize_bands needs a non-empty train split"),
    ], ids=["classes_too_few", "train_per_class_past_a_class", "no_labeled_source_pixel"])
    def test_dataset_error_names_the_dataset(self, workdir, tmp_path, capsys, command, edit,
                                             per_class, message):
        manifest = json.loads((workdir / "data" / "s1.json").read_text())
        manifest.update({k: str(workdir / "data" / manifest[k]) for k in ("header", "data",
                                                                           "labels")})
        labels = load_label_raster(manifest["labels"]).labels
        np.savetxt(tmp_path / "zeros.txt", np.zeros_like(labels), fmt="%d")
        bad = {"manifest": write_json(tmp_path / "m.json", {**manifest, **edit})}
        cfg = write_json(tmp_path / "c.json", {
            "sources": [bad], "target": bad, "train_per_class": per_class,
            "network": {"filters": 4}, "schedule": {"step_size": 4, "max_iter": 4}})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        message = message.format(count=int((labels == 1).sum()))
        assert f"data error: {message}\n" in capsys.readouterr().err

    def test_synth_gen_sample_outside_uint16_is_data_error(self, tmp_path, capsys):
        """A noisy domain written as uint16 used to wrap its negative samples to
        65531 and above and exit 0."""
        cfg = write_json(tmp_path / "g.json", {
            "classes": 3, "bands": 4, "height": 16, "width": 16, "noise_std": 1.0,
            "seed": 5, "name": "u", "data_type": 12})
        assert main(["synth-gen", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"data error: ENVI data '{tmp_path / 'o' / 'u.img'}': band " in err
        assert "outside the uint16 range [0, 65535]" in err
        assert not (tmp_path / "o").exists()

    def test_failed_synth_gen_removes_only_the_files_it_wrote(self, tmp_path, capsys):
        """The first domain's files used to stay when the second failed to write."""
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        cfg = write_json(tmp_path / "g.json", {"domains": [
            {"classes": 3, "bands": 4, "height": 12, "width": 12, "name": "a"},
            {"classes": 3, "bands": 4, "height": 16, "width": 16, "noise_std": 1.0,
             "seed": 5, "name": "u", "data_type": 12}]})
        assert main(["synth-gen", "--config", cfg, "--out", str(out)]) == 2
        assert "outside the uint16 range" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    def test_failed_synth_gen_keeps_an_earlier_runs_files(self, tmp_path, capsys):
        """A second run that failed the uint16 range check on domain s1 used to
        unlink the five s1 files of the first run, which it never wrote."""
        domain = {"classes": 3, "bands": 4, "height": 12, "width": 12, "noise_std": 0.25,
                  "seed": 51, "name": "s1"}
        out = tmp_path / "out"
        assert main(["synth-gen", "--config", write_json(tmp_path / "a.json", domain),
                     "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == sorted(p.name for p in dataset_files(out, "s1"))
        cfg = write_json(tmp_path / "b.json", {**domain, "noise_std": 2.0, "data_type": 12})
        assert main(["synth-gen", "--config", cfg, "--out", str(out)]) == 2
        assert "outside the uint16 range" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_synth_gen_removes_the_files_it_wrote_over(self, tmp_path, capsys):
        """Files a failed run replaced hold its output, so they go too."""
        a = {"classes": 3, "bands": 4, "height": 12, "width": 12, "name": "a"}
        out = tmp_path / "o"
        assert main(["synth-gen", "--config", write_json(tmp_path / "a.json", a),
                     "--out", str(out)]) == 0
        (out / "keep.txt").write_text("x")
        cfg = write_json(tmp_path / "g.json", {"domains": [
            {**a, "seed": 1},
            {"classes": 3, "bands": 4, "height": 16, "width": 16, "noise_std": 1.0,
             "seed": 5, "name": "u", "data_type": 12}]})
        assert main(["synth-gen", "--config", cfg, "--out", str(out)]) == 2
        assert "outside the uint16 range" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    @pytest.mark.parametrize("command", ["synth-gen", "train-scratch"])
    def test_synth_domain_with_more_classes_than_pixels_exits_1(self, tmp_path, capsys, calls,
                                                                 command):
        """synth_generate used to die broadcasting 200 class centers into 144 pixels."""
        domain = {"classes": 200, "bands": 4, "height": 12, "width": 12}
        cfg = write_json(tmp_path / "c.json", domain if command == "synth-gen" else {
            "target": {"synth": domain}, "train_per_class": 2, "network": {"filters": 4},
            "schedule": {"step_size": 4, "max_iter": 4}})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert ("synthetic domain 'classes' 200 exceeds the 144 pixels of its 12x12 raster"
                in capsys.readouterr().err)
        assert "sgd_step" not in calls
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("classes", [10**12, 1])
    def test_manifest_class_count_outside_2_to_pixels_exits_2(self, workdir, tmp_path, capsys,
                                                              calls, classes):
        """10**12 classes used to die allocating a 14.6 TiB head; 1 class (every
        label 1) exited 1 as a config error."""
        manifest = json.loads((workdir / "data" / "s1.json").read_text())
        manifest.update({k: str(workdir / "data" / manifest[k]) for k in ("header", "data")})
        np.savetxt(tmp_path / "l.txt", np.ones((12, 12), dtype=int), fmt="%d")
        cfg = write_json(tmp_path / "c.json", {
            "sources": [{"manifest": write_json(tmp_path / "m.json", {
                **manifest, "labels": "l.txt", "classes": classes})}],
            "network": {"filters": 4}, "schedule": {"step_size": 4, "max_iter": 4}})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert (f"data error: dataset 's1' declares {classes} classes; its 144 pixels can "
                "hold 2 to 144" in capsys.readouterr().err)
        assert "sgd_step" not in calls

    def test_eval_with_another_class_count_exits_2(self, tmp_path, capsys):
        """A 3-class network used to score a 5-class target and print an accuracy."""
        net = build_backbone(NetworkSpec(bands=5, classes=3, filters=4),
                             np.random.default_rng(0))
        save_checkpoint(net, tmp_path / "c3.ckpt")
        cfg = write_json(tmp_path / "c.json", {
            "target": synth(50, "target", bands=5, classes=5, side=14),
            "train_per_class": 6})
        assert main(["eval", "--config", cfg, "--checkpoint", str(tmp_path / "c3.ckpt")]) == 2
        assert ("data error: network expects 3 classes but dataset 'target' has 5"
                in capsys.readouterr().err)

    def test_config_nested_past_the_recursion_limit_exits_1(self, tmp_path, capsys):
        """json.loads raises RecursionError, which used to escape as a traceback."""
        (tmp_path / "c.json").write_text("[" * 100000)
        assert main(["train-scratch", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "o")]) == 1
        assert (f"config error: config file '{tmp_path / 'c.json'}' is not valid JSON: "
                in capsys.readouterr().err)

    def test_config_path_that_is_a_directory_exits_1(self, tmp_path, capsys):
        assert main(["train-scratch", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
        assert (f"config error: config file '{tmp_path}' cannot be read: Is a directory"
                in capsys.readouterr().err)

    def test_cli_and_experiment_pretrain_give_the_same_network(self, workdir, capsys):
        pre_cfg = pretrain_config(workdir)
        cfg = json.loads((workdir / "pre.json").read_text())
        assert main(["pretrain", "--config", pre_cfg, "--seed", "5",
                     "--out", str(workdir / "pre_cli")]) == 0
        exp_cfg = write_json(workdir / "pre_exp.json", {
            **cfg, "experiment": "pretrain", "seeds": [5],
            "pretrain_schedule": cfg["schedule"]})
        assert main(["experiment", "pretrain", "--config", exp_cfg,
                     "--out", str(workdir / "pre_exp")]) == 0
        capsys.readouterr()
        cli = workdir / "pre_cli" / "pretrained.ckpt"
        exp = workdir / "pre_exp" / "pretrained_seed5.ckpt"
        ckpt = load_checkpoint(cli)
        assert ckpt.iteration == cfg["schedule"]["max_iter"]
        assert ckpt.rng is not None and len(ckpt.network.branches) == 2
        # the same tensors, iteration and RNG state: the same file
        assert cli.read_bytes() == exp.read_bytes()

    def test_cli_finetune_accuracy_equals_experiment_final_accuracy(self, workdir, capsys):
        ckpt = str(workdir / "pre_ft" / "pretrained.ckpt")
        assert main(["pretrain", "--config", pretrain_config(workdir), "--seed", "0",
                     "--out", str(workdir / "pre_ft")]) == 0
        capsys.readouterr()
        tgt_cfg = target_config(workdir)
        assert main(["finetune", "--config", tgt_cfg, "--checkpoint",
                     ckpt, "--seed", "3", "--out", str(workdir / "ft3")]) == 0
        cli_out = json.loads(capsys.readouterr().out)
        exp_cfg = write_json(workdir / "ft_exp.json", {
            **json.loads((workdir / "tgt.json").read_text()),
            "experiment": "finetune", "seeds": [3], "checkpoint": ckpt})
        assert main(["experiment", "finetune", "--config", exp_cfg,
                     "--out", str(workdir / "ft_exp")]) == 0
        capsys.readouterr()
        with open(workdir / "ft_exp" / "report.csv") as fh:
            finals = [float(r["value"]) for r in csv.DictReader(fh)
                      if r["metric"] == "final_accuracy"]
        assert finals == [cli_out["test_accuracy"]]
