"""Golden outputs: run every CLI command on small synthetic data and print
`sha256  relpath` for each file written and each command's stdout, under a
first line naming the numpy and BLAS versions.

    PYTHONPATH=src python3 tools/golden_outputs.py OUT > tests/golden.txt

OUT must not exist yet. The commands run inside OUT with relative paths, so
the echoed configs and stdout lines do not depend on where OUT is. One step
copies domain s1's labels into a text grid with a manifest of its own, so a
train-scratch run reads labels from a .txt grid. The last command runs the
gradient oracles over two seeds, so their printed errors are part of the
listing too. Run it against two checkouts (PYTHONPATH pointing at each
one's src) and diff the listings: outputs that are byte-identical print
identical lines.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from hsinet.cli import main
from hsinet.envi import load_label_raster

SCHEDULE = {"step_size": 40, "max_iter": 60, "batch": 8}
NETWORK = {"filters": 4, "dropout_rate": 0.25}


def synth(seed, name, bands, classes=3, side=12):
    return {"synth": {"classes": classes, "bands": bands, "height": side,
                      "width": side, "noise_std": 0.25, "seed": seed, "name": name}}


SOURCES = [{"manifest": "data/s1.json"}, {"manifest": "data/s2.json"},
           {"manifest": "data/s3.json"}]
TARGET = {"target": synth(50, "target", bands=5, side=14), "train_per_class": 6,
          "split_seed": 7, "eval_every": 20, "network": NETWORK, "schedule": SCHEDULE}
TWO_STEP = {"step1": {"step_size": 20, "max_iter": 30, "batch": 8}, "step2": SCHEDULE}

CONFIGS = {
    "gen.json": {"domains": [
        {"classes": 3, "bands": 4, "height": 12, "width": 12, "noise_std": 0.25,
         "seed": 51, "name": "s1"},
        {"classes": 4, "bands": 6, "height": 14, "width": 12, "noise_std": 0.25,
         "seed": 52, "name": "s2", "sensor": "R", "interleave": "bip", "data_type": 2,
         "byte_order": 1},
        {"classes": 3, "bands": 8, "height": 12, "width": 14, "noise_std": 0.3,
         "seed": 53, "name": "s3", "sensor": "R", "interleave": "bil", "data_type": 5},
        # one blob center per pixel: synth_generate's nearest-center search spans
        # several blocks of centers
        {"classes": 3, "bands": 3, "height": 40, "width": 40, "blob_scale": 1,
         "noise_std": 0.25, "seed": 54, "name": "s4"},
        # uint16 holds every rounded sample: with this little noise none rounds below 0
        {"classes": 3, "bands": 5, "height": 14, "width": 14, "noise_std": 0.05,
         "seed": 55, "name": "s5", "data_type": 12, "byte_order": 1},
    ]},
    "pretrain.json": {"sources": SOURCES[:2], "network": NETWORK, "schedule": SCHEDULE,
                      "eval_every": 20},
    "pretrain_two_step.json": {"sources": SOURCES, "network": NETWORK, "two_step": TWO_STEP,
                               "eval_every": 20},
    "target.json": TARGET,
    "eval_train.json": {**TARGET, "split": "train"},
    **{f"target_patch{p}.json": {**TARGET, "network": {**NETWORK, "patch": p}}
       for p in (1, 3, 7)},
    "target_uint16.json": {**TARGET, "target": {"manifest": "data/s5.json"}},
    "target_grid.json": {**TARGET, "target": {"manifest": "data/s1_grid.json"}},
}

EXPERIMENT = {**TARGET, "seeds": [0, 1], "sources": SOURCES, "pretrain_schedule": SCHEDULE}
EXPERIMENTS = {
    "schedule_sweep": {"schedules": [{"label": "A", "step_size": 20, "max_iter": 30},
                                     {"step_size": 40, "max_iter": 60}]},
    "depth_sweep": {"depths": [2, 3]},
    "source_size": {"combinations": [{"label": "one", "sources": [0]},
                                     {"label": "all", "sources": [0, 1, 2]}]},
    "sensor_ablation": {"pairs": [{"label": "same", "sources": [1, 2]},
                                  {"label": "cross", "sources": [0, 1]}]},
    "single_vs_multi": {"conditions": [{"label": "single", "sources": [0]},
                                       {"label": "multi", "sources": [0, 2]}]},
    "pretrain": {"two_step": TWO_STEP},
    "finetune": {"checkpoint": "pretrain/pretrained.ckpt"},
    # variants of a run above: "experiment" names the id they run
    "schedule_sweep_checkpoint": {"experiment": "schedule_sweep",
                                  "schedules": [{"label": "A", "step_size": 20, "max_iter": 30}],
                                  "checkpoint": "pretrain/pretrained.ckpt"},
    "source_size_no_scratch": {"experiment": "source_size", "include_scratch": False,
                               "combinations": [{"label": "one", "sources": [1]},
                                                {"label": "two", "sources": [1, 2]}]},
    "depth_sweep_pretrain_seed": {"experiment": "depth_sweep", "depths": [3],
                                  "pretrain_seed": 3},
    # a condition that repeats another's sources under its own label
    "single_vs_multi_repeat": {"experiment": "single_vs_multi",
                               "conditions": [{"label": "single", "sources": [0]},
                                              {"label": "multi", "sources": [0, 2]},
                                              {"label": "multi_again", "sources": [0, 2]}]},
}


def write_label_grid():
    """data/s1_grid.txt, s1's labels as a text grid, and data/s1_grid.json,
    s1's manifest with its labels read from that grid."""
    np.savetxt("data/s1_grid.txt", load_label_raster("data/s1_labels.hdr").labels, fmt="%d")
    manifest = json.loads(Path("data/s1.json").read_text())
    Path("data/s1_grid.json").write_text(json.dumps({**manifest, "labels": "s1_grid.txt"}))


# (step, argv of an hsinet command, or a function run in OUT)
COMMANDS = [
    ("synth-gen", ["synth-gen", "--config", "config/gen.json", "--out", "data"]),
    ("label-grid", write_label_grid),
    ("pretrain", ["pretrain", "--config", "config/pretrain.json", "--seed", "0",
                  "--out", "pretrain"]),
    ("pretrain_two_step", ["pretrain", "--config", "config/pretrain_two_step.json",
                           "--seed", "1", "--out", "pretrain_two_step"]),
    ("finetune", ["finetune", "--config", "config/target.json", "--checkpoint",
                  "pretrain/pretrained.ckpt", "--seed", "2", "--out", "finetune"]),
    ("train-scratch", ["train-scratch", "--config", "config/target.json", "--seed", "2",
                       "--out", "scratch"]),
    ("eval_test", ["eval", "--config", "config/target.json", "--checkpoint",
                   "finetune/finetuned.ckpt"]),
    ("eval_train", ["eval", "--config", "config/eval_train.json", "--checkpoint",
                    "scratch/scratch.ckpt"]),
    # patches smaller than the 5x5 kernel (training pads it with zeros, eval
    # crops the kernel; at patch 1 every kernel crops to 1x1 and the head reads
    # a 1x1 map) and one larger (interior windows)
    *[(f"train-scratch_patch{p}", ["train-scratch", "--config", f"config/target_patch{p}.json",
                                   "--seed", "3", "--out", f"scratch_patch{p}"])
      for p in (1, 3, 7)],
    # a target read back from a big-endian uint16 raster
    ("train-scratch_uint16", ["train-scratch", "--config", "config/target_uint16.json",
                              "--seed", "4", "--out", "scratch_uint16"]),
    # a target whose labels load from the .txt grid
    ("train-scratch_grid", ["train-scratch", "--config", "config/target_grid.json",
                            "--seed", "4", "--out", "scratch_grid"]),
] + [(f"experiment_{name}", ["experiment", extra.get("experiment", name), "--config",
                             f"config/experiment_{name}.json", "--out", f"experiment_{name}"])
      for name, extra in EXPERIMENTS.items()] + [
    # --seed overrides the config's seeds (experiment) and domain seeds (synth-gen)
    ("experiment_finetune_seed", ["experiment", "finetune", "--config",
                                  "config/experiment_finetune.json", "--seed", "5",
                                  "--out", "experiment_finetune_seed"]),
    ("synth-gen_seed", ["synth-gen", "--config", "config/gen.json", "--seed", "9",
                        "--out", "data_seed"]),
    ("gradcheck", ["gradcheck", "--seeds", "2"]),
]


def versions():
    """'numpy X, OpenBLAS Y' for the running numpy and the BLAS it was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = "OpenBLAS" if "openblas" in blas["name"] else blas["name"]
    return f"numpy {np.__version__}, {name} {'.'.join(blas['version'].split('.')[:3])}"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run(out):
    print(f"# {versions()}")
    out.mkdir(parents=True)
    os.chdir(out)
    configs = {**CONFIGS, **{f"experiment_{name}.json": {**EXPERIMENT, "experiment": name, **extra}
                             for name, extra in EXPERIMENTS.items()}}
    Path("config").mkdir()
    for name, cfg in configs.items():
        Path("config", name).write_text(json.dumps(cfg, indent=2))
    stdout = {}
    for step, argv in COMMANDS:
        if callable(argv):
            argv()
            continue
        captured, progress = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(progress):
            code = main(argv)
        if code != 0:
            sys.exit(f"golden: hsinet {' '.join(argv)} exited {code}:\n{progress.getvalue()}")
        stdout[step] = captured.getvalue()
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{_sha256(path.read_bytes())}  {path.as_posix()}")
    for step, text in stdout.items():
        for i, line in enumerate(text.splitlines()):
            print(f"{_sha256(line.encode())}  stdout/{step}/{i}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: golden_outputs.py OUT")
    run(Path(sys.argv[1]).resolve())
