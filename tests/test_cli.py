import csv
import json

import pytest

from hsinet.checkpoint import load_checkpoint
from hsinet.cli import main


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


class TestGradcheck:
    def test_exits_zero_when_oracles_pass(self, capsys):
        assert main(["gradcheck", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS backbone" in out
        assert "FAIL" not in out


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
        cli = load_checkpoint(workdir / "pre_cli" / "pretrained.ckpt")
        exp = load_checkpoint(workdir / "pre_exp" / "pretrained_seed5.ckpt")
        assert cli.iteration == cfg["schedule"]["max_iter"]
        assert len(cli.network.branches) == len(exp.network.branches) == 2
        for a, b in zip(cli.network.branches, exp.network.branches):
            assert ([(n, x.tobytes()) for n, x in a.state()]
                    == [(n, x.tobytes()) for n, x in b.state()])

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
