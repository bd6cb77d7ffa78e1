"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk-scale synthetic fixtures; the real-data reference check (criterion 10)
only runs when HSINET_REAL_DATA points at a directory of dataset manifests.
"""
import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hsinet.checkpoint import load_checkpoint, save_checkpoint
from hsinet.cli import main as cli_main
from hsinet.data import DomainDataset, SynthConfig, augment_d4, normalize_bands, \
    split_per_class, synth_generate, with_split
from hsinet.envi import HyperCube, LabelRaster, load_envi, write_envi
from hsinet.network import (CrossDomainSpec, NetworkSpec, build_backbone,
                            build_cross_domain, transfer_shared)
from hsinet.trainer import (TrainSchedule, evaluate, lr_at, train_cross_domain,
                            train_single, two_step_train)
from hsinet.verify import oracle_suite
from test_network import expected_param_count, shared_bytes, weighted_layers


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num:>2} PASS: {desc}")


NET = dict(filters=12, patch=5, residual_modules=2, dropout_rate=0.25)


def synth_domain(seed, bands, classes, side=32, noise=0.25, name=None):
    ds = synth_generate(SynthConfig(classes=classes, bands=bands, height=side,
                                    width=side, noise_std=noise, seed=seed,
                                    name=name or f"d{seed}"))
    return normalize_bands(ds)


@pytest.fixture(scope="module")
def pretrained_setup(tmp_path_factory):
    """Shared cross-domain pre-training used by criteria 4 and 6."""
    sources = [synth_domain(101, 16, 6), synth_domain(102, 32, 4),
               synth_domain(103, 40, 5)]
    target = synth_generate(SynthConfig(classes=4, bands=24, height=32, width=32,
                                        noise_std=0.25, seed=200, name="target"))
    target = normalize_bands(with_split(target, 20, np.random.default_rng(1234)))
    spec = CrossDomainSpec([
        NetworkSpec(bands=ds.cube.bands, classes=ds.classes, **NET) for ds in sources
    ])
    rng = np.random.default_rng(0)
    cdn = build_cross_domain(spec, rng)
    schedule = TrainSchedule(step_size=400, max_iter=500, batch=24, base_lr=0.002)
    train_cross_domain(cdn, sources, schedule, rng, eval_every=250)
    ckpt = tmp_path_factory.mktemp("pretrained") / "pretrained.ckpt"
    save_checkpoint(cdn, ckpt, rng=rng, iteration=schedule.max_iter)
    return {"cdn": cdn, "sources": sources, "target": target, "ckpt": ckpt}


def test_criterion_1_gradient_oracle():
    with criterion(1, "layer + backbone finite-difference oracles, 10 seeds, < 2 min"):
        start = time.perf_counter()
        results = oracle_suite(range(10))
        elapsed = time.perf_counter() - start
        names = {name for name, _, _ in results}
        assert names == {"conv1x1", "conv3x3", "conv5x5", "batchnorm", "relu",
                         "dropout", "softmax_ce", "backbone"}
        failed = [(n, s) for n, s, r in results if not r.passed]
        assert not failed, f"oracle failures: {failed}"
        assert elapsed < 120, f"oracle suite took {elapsed:.0f}s"


def test_criterion_2_architecture_laws():
    with criterion(2, "depth law 5 + 2*rm and closed-form parameter counts"):
        for rm, layers in ((2, 9), (3, 11), (4, 13), (5, 15)):
            spec = NetworkSpec(bands=2, classes=3, filters=4, residual_modules=rm)
            net = build_backbone(spec, np.random.default_rng(0))
            assert weighted_layers(net) == layers == 5 + 2 * rm
            assert sum(p.data.size for p in net.params()) == expected_param_count(2, 3, 4, rm)


def test_criterion_3_sharing_identity(sgd_steps):
    with criterion(3, "byte-identical shared stores after 200 joint iterations; "
                      "shared lr = base/3"):
        datasets = [synth_domain(301, 12, 3, side=24), synth_domain(302, 20, 4, side=24),
                    synth_domain(303, 28, 5, side=24)]
        spec = CrossDomainSpec([
            NetworkSpec(bands=ds.cube.bands, classes=ds.classes, filters=8,
                        dropout_rate=0.25) for ds in datasets
        ])
        cdn = build_cross_domain(spec, np.random.default_rng(7))
        schedule = TrainSchedule(step_size=150, max_iter=200, batch=16)
        train_cross_domain(cdn, datasets, schedule, np.random.default_rng(8), eval_every=100)
        # per iteration and branch: the private group at lr, then the store at lr/3
        shared_names = [p.name for p in cdn.shared_params()]
        assert [it for it, _, _ in sgd_steps] == [it for it in range(200) for _ in range(6)]
        assert [names == shared_names for _, _, names in sgd_steps] == [False, True] * 600
        for it, lr, names in sgd_steps:
            scale = 1 / 3 if names == shared_names else 1.0
            assert lr == pytest.approx(lr_at(schedule, it) * scale, rel=1e-12)
        ref = shared_bytes(cdn.branches[0])
        assert shared_bytes(cdn.branches[1]) == ref and shared_bytes(cdn.branches[2]) == ref


def test_criterion_4_transfer_contract(pretrained_setup):
    with criterion(4, "transfer copies shared store bit-exactly, fresh init stds "
                      "within 10%, batch-norm stats reset"):
        loaded = load_checkpoint(pretrained_setup["ckpt"]).network
        target_spec = NetworkSpec(bands=24, classes=4, **NET)
        net = transfer_shared(loaded, target_spec, np.random.default_rng(9))

        for src, dst in zip(loaded.modules, net.modules):
            for sblk, dblk in zip(src.blocks(), dst.blocks()):
                assert sblk.conv.w.data.tobytes() == dblk.conv.w.data.tobytes()
                assert sblk.conv.b.data.tobytes() == dblk.conv.b.data.tobytes()
                assert sblk.bn.scale.data.tobytes() == dblk.bn.scale.data.tobytes()
                assert sblk.bn.shift.data.tobytes() == dblk.bn.shift.data.tobytes()
                # pre-training accumulated running stats; the target resets them
                assert sblk.bn.running_var.std() > 0 or sblk.bn.running_mean.any()
                assert not dblk.bn.running_mean.any()
                assert (dblk.bn.running_var == 1).all()

        front = np.concatenate([blk.conv.w.data.ravel()
                                for blk in net.bank + [net.c2, net.c9]])
        assert np.std(front) == pytest.approx(0.01, rel=0.10)
        head = np.concatenate([net.c7.conv.w.data.ravel(), net.c8.conv.w.data.ravel()])
        assert np.std(head) == pytest.approx(0.005, rel=0.10)
        assert all(not p.vel.any() for p in net.params())


def test_criterion_5_overfit_fixture():
    with criterion(5, "filters=16 backbone reaches train accuracy >= 0.99 on a "
                      "50-pixel 2-class target, 3/3 seeds, < 3 min"):
        start = time.perf_counter()
        ds = synth_generate(SynthConfig(classes=2, bands=8, height=16, width=16,
                                        noise_std=0.2, blob_scale=6, seed=33,
                                        name="overfit"))
        ds = normalize_bands(with_split(ds, 25, np.random.default_rng(77)))
        assert ds.train_idx.size == 50
        spec = NetworkSpec(bands=8, classes=2, patch=5, filters=16,
                           residual_modules=2, dropout_rate=0.5)
        schedule = TrainSchedule(step_size=400, max_iter=500, batch=32, base_lr=0.002)
        assert schedule.max_iter <= 2000
        for seed in range(3):
            net = build_backbone(spec, np.random.default_rng(seed))
            net, _ = train_single(net, ds, schedule, np.random.default_rng(seed),
                                  eval_every=500)
            acc = evaluate(net, ds, "train")
            assert acc >= 0.99, f"seed {seed}: train accuracy {acc}"
        assert time.perf_counter() - start < 180


def test_criterion_6_convergence_trend(pretrained_setup):
    with criterion(6, "fine-tuning reaches 0.90 no later than scratch in >= 4/5 "
                      "seeds; final accuracies within 0.03 in >= 3/5"):
        cdn = pretrained_setup["cdn"]
        target = pretrained_setup["target"]
        target_spec = NetworkSpec(bands=24, classes=4, **NET)
        schedule = TrainSchedule(step_size=150, max_iter=300, batch=32, base_lr=0.002)
        leq = close = 0
        for seed in range(5):
            reach = {}
            final = {}
            for cond, pretrained in (("finetune", cdn), ("scratch", None)):
                rng = np.random.default_rng(seed)
                if pretrained is None:
                    net = build_backbone(target_spec, rng)
                else:
                    net = transfer_shared(pretrained, target_spec, rng)
                net, metrics = train_single(net, target, schedule, rng, eval_every=25)
                curve = [(r.iteration, r.accuracy) for r in metrics.rows]
                reach[cond] = next((it for it, acc in curve if acc >= 0.90),
                                   schedule.max_iter + 1)
                final[cond] = curve[-1][1]
            leq += reach["finetune"] <= reach["scratch"]
            close += abs(final["finetune"] - final["scratch"]) <= 0.03
        assert leq >= 4, f"fine-tune reached 0.90 first in only {leq}/5 seeds"
        assert close >= 3, f"final accuracies within 0.03 in only {close}/5 seeds"


def test_criterion_7_two_step_schedule(sgd_steps):
    with criterion(7, "two-step optimization: Step I on the largest source alone, "
                      "independent schedules, 1/N only in Step II"):
        big = synth_domain(401, 10, 3, side=40, name="big")
        small1 = synth_domain(402, 14, 4, side=12, name="small1")
        small2 = synth_domain(403, 18, 5, side=11, name="small2")
        datasets = [small1, big, small2]
        assert big.labeled_count >= 10 * max(small1.labeled_count,
                                             small2.labeled_count)
        spec = CrossDomainSpec([
            NetworkSpec(bands=ds.cube.bands, classes=ds.classes, filters=8,
                        dropout_rate=0.25) for ds in datasets
        ])
        cdn = build_cross_domain(spec, np.random.default_rng(11))
        s1 = TrainSchedule(step_size=50, max_iter=100, batch=16)
        s2 = TrainSchedule(step_size=80, max_iter=120, batch=16)
        cdn, m1, m2 = two_step_train(cdn, datasets, s1, s2,
                                     np.random.default_rng(12), eval_every=50)

        assert {r.domain for r in m1.rows} == {"big"}
        assert {r.domain for r in m2.rows} == {"small1", "big", "small2"}
        shared_names = [p.name for p in cdn.shared_params()]
        step1, step2 = sgd_steps[:100 * 2], sgd_steps[100 * 2:]
        # Step I: own schedule, multiplier 1 (single active domain)
        assert [it for it, _, _ in step1] == [it for it in range(100) for _ in range(2)]
        for it, lr, _ in step1:
            assert lr == pytest.approx(0.001 * 0.1 ** (it // 50))
        # Step II: iteration counter restarts, own step size, multiplier 1/3
        assert [it for it, _, _ in step2] == [it for it in range(120) for _ in range(6)]
        for it, lr, names in step2:
            scale = 1 / 3 if names == shared_names else 1.0
            assert lr == pytest.approx(0.001 * 0.1 ** (it // 80) * scale, rel=1e-12)


def test_criterion_8_data_layer(tmp_path):
    with criterion(8, "200-per-class split arithmetic, D4 group laws, lossless "
                      "ENVI round trips (3 interleaves x 4 dtypes x 2 orders)"):
        # Indian-Pines-shaped split: 8504 labeled pixels, 8 classes
        flat = np.zeros(93 * 92, dtype=np.int32)
        for cls in range(8):
            flat[cls * 1063:(cls + 1) * 1063] = cls + 1
        ds = DomainDataset(
            cube=HyperCube.from_array(np.zeros((3, 93, 92), dtype=np.float32)),
            labels=LabelRaster.from_array(flat.reshape(93, 92)),
            classes=8,
        )
        train, test = split_per_class(ds, 200, np.random.default_rng(5))
        assert train.size == 1600 and test.size == 6904
        labels = ds.labels.labels.ravel()
        assert all((labels[train] == c).sum() == 200 for c in range(1, 9))

        marker = np.arange(1.0, 5.0).reshape(1, 1, 2, 2)
        outputs = {augment_d4(marker, k).tobytes(): k for k in range(8)}
        assert len(outputs) == 8
        for a in range(8):
            for b in range(8):
                assert augment_d4(augment_d4(marker, b), a).tobytes() in outputs
        for k in range(8):
            out = marker
            for _ in range(4):
                out = augment_d4(out, k)
            assert out.tobytes() == marker.tobytes()

        values = np.random.default_rng(3).integers(0, 500, (5, 4, 6)).astype(np.float32)
        cube = HyperCube.from_array(values)
        for interleave in ("bsq", "bil", "bip"):
            for data_type in (2, 4, 5, 12):
                for byte_order in (0, 1):
                    hdr = tmp_path / f"{interleave}{data_type}{byte_order}.hdr"
                    img = hdr.with_suffix(".img")
                    write_envi(cube, hdr, img, interleave=interleave,
                               data_type=data_type, byte_order=byte_order)
                    assert (load_envi(hdr, img).data == values).all()


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical config + seed reproduces byte-identical "
                      "checkpoints and CSV reports"):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps({"domains": [
            {"classes": 3, "bands": 5, "height": 12, "width": 12,
             "noise_std": 0.25, "seed": 61, "name": "srcA"},
            {"classes": 4, "bands": 7, "height": 12, "width": 12,
             "noise_std": 0.25, "seed": 62, "name": "srcB"},
        ]}))
        outputs = []
        for run in ("run1", "run2"):
            base = tmp_path / run
            assert cli_main(["synth-gen", "--config", str(gen_cfg),
                             "--out", str(base / "data")]) == 0
            pre_cfg = base / "pre.json"
            pre_cfg.write_text(json.dumps({
                "sources": [{"manifest": str(base / "data" / "srcA.json")},
                            {"manifest": str(base / "data" / "srcB.json")}],
                "network": {"filters": 4, "dropout_rate": 0.25},
                "schedule": {"step_size": 16, "max_iter": 20, "batch": 8},
            }))
            assert cli_main(["pretrain", "--config", str(pre_cfg), "--seed", "3",
                             "--out", str(base / "pre")]) == 0
            tgt_cfg = base / "tgt.json"
            tgt_cfg.write_text(json.dumps({
                "target": {"synth": {"classes": 3, "bands": 6, "height": 12,
                                     "width": 12, "noise_std": 0.25, "seed": 63,
                                     "name": "tgt"}},
                "train_per_class": 6, "split_seed": 7,
                "network": {"filters": 4, "dropout_rate": 0.25},
                "schedule": {"step_size": 16, "max_iter": 20, "batch": 8},
            }))
            assert cli_main(["finetune", "--config", str(tgt_cfg),
                             "--checkpoint", str(base / "pre" / "pretrained.ckpt"),
                             "--seed", "4", "--out", str(base / "ft")]) == 0
            outputs.append({
                "srcA.img": (base / "data" / "srcA.img").read_bytes(),
                "pre.ckpt": (base / "pre" / "pretrained.ckpt").read_bytes(),
                "pre.csv": (base / "pre" / "metrics.csv").read_bytes(),
                "ft.ckpt": (base / "ft" / "finetuned.ckpt").read_bytes(),
                "ft.csv": (base / "ft" / "metrics.csv").read_bytes(),
            })
        for key in outputs[0]:
            assert outputs[0][key] == outputs[1][key], f"{key} differs between runs"


@pytest.mark.skipif("HSINET_REAL_DATA" not in os.environ,
                    reason="requires user-supplied rasters (set HSINET_REAL_DATA "
                           "to a directory of dataset manifests); not part of CI")
def test_criterion_10_real_data_reference():
    with criterion(10, "paper-scale schedule sweep on user-supplied data matches "
                       "the reference accuracies within 0.02"):
        from hsinet.experiments import run_experiment, summarize
        root = os.environ["HSINET_REAL_DATA"]
        cfg = {
            "experiment": "schedule_sweep",
            "seeds": [0],
            "train_per_class": 200,
            "target": {"manifest": os.path.join(root, "indian_pines.json")},
            "sources": [{"manifest": os.path.join(root, name + ".json")}
                        for name in ("salinas", "pavia_centre", "pavia_university",
                                     "ksc", "botswana")],
            "network": {"filters": 128, "dropout_rate": 0.5},
            "two_step": {"step1": {"step_size": 40000, "max_iter": 100000},
                         "step2": {"step_size": 20000, "max_iter": 50000}},
            "schedules": [{"label": "4K/5K", "step_size": 4000, "max_iter": 5000},
                          {"label": "10K/11K", "step_size": 10000, "max_iter": 11000}],
            "eval_every": 1000,
        }
        rows = run_experiment(cfg)
        summary = summarize(rows, cfg)["conditions"]
        pretrain_4k = summary["4K/5K/pretrain"]["final_accuracy"]["mean"]
        scratch_10k = summary["10K/11K/scratch"]["final_accuracy"]["mean"]
        assert pretrain_4k == pytest.approx(0.9508, abs=0.02)
        assert scratch_10k == pytest.approx(0.9652, abs=0.02)
