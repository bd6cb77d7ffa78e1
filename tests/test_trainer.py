import csv
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from hsinet import data, ops
from hsinet.data import SynthConfig, normalize_bands, synth_generate, with_split
from hsinet.errors import ConfigError, DataError, NumericError, ShapeError
from hsinet.network import (CrossDomainSpec, NetworkSpec, build_backbone,
                            build_cross_domain, transfer_shared)
from hsinet.checkpoint import load_checkpoint, save_checkpoint
from hsinet.trainer import (MetricRow, TrainMetrics, TrainSchedule, evaluate, lr_at,
                            train_cross_domain, train_single, two_step_train)
from test_network import shared_bytes


def synth_domain(seed, bands=4, classes=3, side=14, noise=0.2, name=None):
    ds = synth_generate(SynthConfig(classes=classes, bands=bands, height=side,
                                    width=side, noise_std=noise, seed=seed,
                                    name=name or f"d{seed}"))
    return normalize_bands(ds)


def target_domain(seed=1, bands=4, classes=3, side=14, n_per_class=8):
    ds = synth_generate(SynthConfig(classes=classes, bands=bands, height=side,
                                    width=side, noise_std=0.2, seed=seed, name="target"))
    ds = with_split(ds, n_per_class, np.random.default_rng(99))
    return normalize_bands(ds)


@pytest.fixture
def input_grad_calls(monkeypatch):
    """Block name of every ops.conv2d_input_grad call."""
    calls = []
    input_grad = ops.conv2d_input_grad

    def counted(p, grad_out):
        calls.append(p.w.name.rsplit(".", 1)[0])
        return input_grad(p, grad_out)

    monkeypatch.setattr(ops, "conv2d_input_grad", counted)
    return calls


def assert_bank_computes_no_input_gradient(calls, branches, iterations):
    """Every conv but the bank, whose input is the data, passes its input gradient down."""
    bank = {"c1x1", "c3x3", "c5x5"}
    trunk = {blk.name for net in branches for blk in net.blocks()} - bank
    assert not bank & set(calls)
    assert set(calls) == trunk
    assert len(calls) == iterations * len(branches) * len(trunk)


class TestTrainMetrics:
    def test_csv_quotes_a_domain_name_with_a_comma(self, tmp_path):
        """Fields used to be joined by hand: 'a,b' made a 5-field row."""
        rows = [MetricRow(2, "a,b", 1.5, 0.25), MetricRow(4, "c", 0.5, None)]
        TrainMetrics(rows=rows).write_csv(tmp_path / "m.csv")
        with open(tmp_path / "m.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["iteration", "domain", "loss", "accuracy"],
                                            ["2", "a,b", "1.5", "0.25"], ["4", "c", "0.5", ""]]
        assert (tmp_path / "m.csv").read_bytes().endswith(b'\n4,c,0.5,\n')


class TestLrAt:
    def test_table2_single_domain_values(self):
        s = TrainSchedule(step_size=4000, max_iter=5000)
        assert lr_at(s, 0) == pytest.approx(0.001)
        assert lr_at(s, 3999) == pytest.approx(0.001)
        assert lr_at(s, 4000) == pytest.approx(0.0001)
        assert lr_at(s, 4500) == pytest.approx(0.0001)

    def test_two_drops(self):
        s = TrainSchedule(step_size=2000, max_iter=5000)
        assert lr_at(s, 4500) == pytest.approx(0.001 * 0.1 ** 2)

    def test_piecewise_constant_non_increasing_drop_count(self):
        for step_size, max_iter in ((100, 1000), (300, 1000), (400, 500), (7, 50)):
            s = TrainSchedule(step_size=step_size, max_iter=max_iter)
            values = [lr_at(s, i) for i in range(max_iter)]
            assert all(b <= a for a, b in zip(values, values[1:]))
            drops = sum(1 for a, b in zip(values, values[1:]) if b < a)
            assert drops == (max_iter - 1) // step_size

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            TrainSchedule(step_size=600, max_iter=500)
        with pytest.raises(ConfigError):
            TrainSchedule(step_size=10, max_iter=20, gamma=1.5)
        with pytest.raises(ConfigError):
            TrainSchedule(step_size=10, max_iter=20, batch=0)
        for bad in ({"momentum": 1.0}, {"momentum": -0.1}, {"weight_decay": -1e-4}):
            with pytest.raises(ConfigError, match=next(iter(bad))):
                TrainSchedule(step_size=10, max_iter=20, **bad)
        TrainSchedule(step_size=10, max_iter=20, momentum=0.0, weight_decay=0.0)


class TestEvaluate:
    def test_constant_predictor_on_balanced_split(self):
        ds = target_domain(classes=4, bands=4, side=16, n_per_class=6)
        spec = NetworkSpec(bands=4, classes=4, filters=4)
        from hsinet.network import Network
        net = Network(spec)  # all-zero weights, but bias picks no winner: argmax -> 0
        acc = evaluate(net, ds, "train")
        flat = ds.labels.labels.ravel()
        expected = (flat[ds.train_idx] == 1).mean()
        assert acc == pytest.approx(expected)
        assert acc == pytest.approx(0.25)

    def test_perfect_oracle_labels(self):
        # one-band cube whose value equals the label: a handcrafted head is exact
        from hsinet.envi import HyperCube, LabelRaster
        from hsinet.data import DomainDataset
        from hsinet.network import Network
        labels = np.tile(np.array([[1, 2], [2, 1]], dtype=np.int32), (4, 4))
        cube = HyperCube.from_array(labels[np.newaxis].astype(np.float32))
        ds = DomainDataset(cube=cube, labels=LabelRaster.from_array(labels),
                           classes=2, train_idx=np.arange(64, dtype=np.int64))
        spec = NetworkSpec(bands=1, classes=2, patch=1, filters=4, dropout_rate=0.0)
        net = Network(spec)
        # route the raw band value v through channel 0 of the trunk; each skip
        # add doubles it, so the head sees 4v and thresholds between 4 and 8
        for blk in [net.bank[0], net.c2] + [b for m in net.modules for b in m.blocks()] \
                + [net.c7, net.c8]:
            blk.conv.w.data[...] = 0
            blk.conv.w.data[0, 0, 0, 0] = 1.0
            blk.bn.scale.data[...] = 1.0  # eval mode: running stats are 0/1
        net.c9.conv.w.data[...] = 0
        net.c9.conv.w.data[1, 0, 0, 0] = 1.0
        net.c9.conv.b.data[...] = [0.0, -6.0]
        assert evaluate(net, ds, "train") == 1.0

    def test_matches_counting_oracle(self):
        ds = target_domain(classes=3, bands=4, side=12, n_per_class=6)
        net = build_backbone(NetworkSpec(bands=4, classes=3, filters=4),
                             np.random.default_rng(0))
        acc = evaluate(net, ds, "test")
        from hsinet.data import PatchBatcher
        batcher = PatchBatcher(ds, 5)
        correct = 0
        for pixel in ds.test_idx:  # brute-force per-pixel loop
            x, y = batcher.batch(np.array([pixel]))
            correct += int(np.argmax(net.forward(x)[0]) == y[0])
        assert acc == pytest.approx(correct / ds.test_idx.size)

    def test_empty_split_is_data_error(self):
        ds = synth_domain(0)
        net = build_backbone(NetworkSpec(bands=4, classes=3, filters=4),
                             np.random.default_rng(0))
        with pytest.raises(DataError):
            evaluate(net, ds, "test")


class TestTrainSingle:
    def test_band_mismatch_rejected(self):
        ds = synth_domain(0, bands=4)
        net = build_backbone(NetworkSpec(bands=6, classes=3, filters=4),
                             np.random.default_rng(0))
        with pytest.raises(ShapeError):
            train_single(net, ds, TrainSchedule(step_size=10, max_iter=10),
                         np.random.default_rng(0))

    def test_class_mismatch_rejected_before_any_batch(self, sgd_steps):
        ds = synth_domain(0, classes=5)
        net = build_backbone(NetworkSpec(bands=4, classes=3, filters=4),
                             np.random.default_rng(0))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ShapeError, match="network expects 3 classes but dataset 'd0' has 5"):
            train_single(net, ds, TrainSchedule(step_size=10, max_iter=10), rng)
        assert sgd_steps == []
        assert rng.bit_generator.state == state  # no batch drawn

    def test_empty_train_split_rejected(self):
        ds = synth_domain(0)
        ds = ds.__class__(cube=ds.cube, labels=ds.labels, classes=ds.classes)
        net = build_backbone(NetworkSpec(bands=4, classes=3, filters=4),
                             np.random.default_rng(0))
        with pytest.raises(DataError):
            train_single(net, ds, TrainSchedule(step_size=10, max_iter=10),
                         np.random.default_rng(0))

    def test_nan_input_aborts_with_iteration(self):
        ds = synth_domain(0)
        ds.cube.data[0, 0, 0] = np.nan
        net = build_backbone(NetworkSpec(bands=4, classes=3, filters=4),
                             np.random.default_rng(0))
        with pytest.raises(NumericError, match="iteration"):
            train_single(net, ds, TrainSchedule(step_size=40, max_iter=40, batch=64),
                         np.random.default_rng(0))

    def test_loss_decreases_on_overfit_fixture(self):
        ds = target_domain(seed=3, classes=2, side=12, n_per_class=10)
        net = build_backbone(NetworkSpec(bands=4, classes=2, filters=8),
                             np.random.default_rng(1))
        schedule = TrainSchedule(step_size=240, max_iter=300, batch=16)
        _, metrics = train_single(net, ds, schedule, np.random.default_rng(2),
                                  eval_every=10)
        losses = [r.loss for r in metrics.rows]
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_metrics_rows_and_step_lrs(self, sgd_steps):
        ds = target_domain(seed=3, classes=2, side=12, n_per_class=6)
        net = build_backbone(NetworkSpec(bands=4, classes=2, filters=4),
                             np.random.default_rng(1))
        schedule = TrainSchedule(step_size=20, max_iter=25, batch=4)
        _, metrics = train_single(net, ds, schedule, np.random.default_rng(2),
                                  eval_every=10)
        assert [r.iteration for r in metrics.rows] == [10, 20, 25]
        assert metrics.summary()["iterations"] == 25
        # every parameter steps once per iteration: the private group, then the
        # shared store, both at the scheduled lr (the store's lr/N with N = 1)
        private = [p.name for p in net.private_params()]
        shared = [p.name for p in net.shared_params()]
        assert sorted(private + shared) == sorted(p.name for p in net.params())
        assert [(it, names) for it, _, names in sgd_steps] == [
            (it, names) for it in range(25) for names in (private, shared)]
        assert all(lr == lr_at(schedule, it) for it, lr, _ in sgd_steps)
        assert sgd_steps[0][1] == pytest.approx(0.001)
        assert sgd_steps[-1][1] == pytest.approx(0.0001)

    def test_bank_computes_no_input_gradient(self, input_grad_calls):
        net = build_backbone(NetworkSpec(bands=4, classes=3, filters=4),
                             np.random.default_rng(0))
        train_single(net, target_domain(), TrainSchedule(step_size=3, max_iter=3, batch=4),
                     np.random.default_rng(1))
        assert_bank_computes_no_input_gradient(input_grad_calls, [net], 3)

    def test_determinism_bit_identical(self):
        ds = target_domain(seed=3, classes=2, side=12, n_per_class=6)
        results = []
        for _ in range(2):
            net = build_backbone(NetworkSpec(bands=4, classes=2, filters=4),
                                 np.random.default_rng(1))
            net, metrics = train_single(
                net, ds, TrainSchedule(step_size=30, max_iter=30, batch=8),
                np.random.default_rng(2), eval_every=10)
            results.append((b"".join(a.tobytes() for _, a in net.state()),
                            [(r.iteration, r.loss, r.accuracy) for r in metrics.rows]))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]


class TestCrossDomain:
    def _setup(self, n=3, filters=4):
        datasets = [synth_domain(seed=10 + i, bands=4 + 2 * i, classes=3 + i)
                    for i in range(n)]
        spec = CrossDomainSpec([
            NetworkSpec(bands=ds.cube.bands, classes=ds.classes, filters=filters)
            for ds in datasets
        ])
        cdn = build_cross_domain(spec, np.random.default_rng(0))
        return cdn, datasets

    def test_shared_lr_is_base_over_n(self, sgd_steps):
        cdn, datasets = self._setup(3)
        schedule = TrainSchedule(step_size=8, max_iter=10, batch=4)
        train_cross_domain(cdn, datasets, schedule, np.random.default_rng(1), eval_every=5)
        # per iteration and branch: the private group, then the shared store
        shared_names = [p.name for p in cdn.shared_params()]
        assert [it for it, _, _ in sgd_steps] == [it for it in range(10) for _ in range(6)]
        assert [names == shared_names for _, _, names in sgd_steps] == [False, True] * 30
        for it, lr, names in sgd_steps:
            if names == shared_names:
                assert lr == pytest.approx(lr_at(schedule, it) / 3, rel=1e-12)
            else:
                assert lr == lr_at(schedule, it)
                assert not any(name.startswith("res") for name in names)

    def test_single_branch_multiplier_is_one(self, sgd_steps):
        cdn, datasets = self._setup(1)
        schedule = TrainSchedule(step_size=8, max_iter=8, batch=4)
        train_cross_domain(cdn, datasets, schedule, np.random.default_rng(1), eval_every=4)
        assert [it for it, _, _ in sgd_steps] == [it for it in range(8) for _ in range(2)]
        assert all(lr == lr_at(schedule, it) for it, lr, _ in sgd_steps)

    def test_losses_decrease_and_shared_stores_stay_identical(self):
        for seed in range(3):
            cdn, datasets = self._setup(3)
            schedule = TrainSchedule(step_size=180, max_iter=200, batch=16,
                                     base_lr=0.005)
            _, metrics = train_cross_domain(cdn, datasets, schedule,
                                            np.random.default_rng(seed), eval_every=1)
            for ds in datasets:
                losses = [r.loss for r in metrics.rows if r.domain == ds.name]
                assert np.mean(losses[-20:]) < np.mean(losses[:20])
            ref = shared_bytes(cdn.branches[0])
            assert all(shared_bytes(b) == ref for b in cdn.branches)

    def test_sequential_shared_updates_sum_to_lr_times_grad(self):
        # momentum 0, equal per-domain gradients: N steps at lr/N == one at lr
        p = ops.Param("w", np.array([1.0]))
        g = np.array([0.4])
        n = 4
        for _ in range(n):
            p.grad = g.copy()
            ops.sgd_step([p], lr=0.01 / n, momentum=0.0, weight_decay=0.0, iteration=0)
        assert p.data[0] == pytest.approx(1.0 - 0.01 * 0.4, rel=1e-12)

    def test_bank_computes_no_input_gradient(self, input_grad_calls):
        cdn, datasets = self._setup(2)
        train_cross_domain(cdn, datasets, TrainSchedule(step_size=3, max_iter=3, batch=4),
                           np.random.default_rng(1))
        assert_bank_computes_no_input_gradient(input_grad_calls, cdn.branches, 3)

    def test_dataset_count_must_match_branches(self):
        cdn, datasets = self._setup(2)
        with pytest.raises(ConfigError):
            train_cross_domain(cdn, datasets[:1],
                               TrainSchedule(step_size=5, max_iter=5),
                               np.random.default_rng(0))


class TestColumnWorkspace:
    """A training run makes one workspace for the bank's patch columns,
    reuses it from step to step, and frees it when the run returns."""

    @pytest.fixture
    def held(self, monkeypatch):
        """(buffer size, builds) of each workspace made, at each loss, after
        the forward built the step's columns; `made` holds weak references."""
        record = SimpleNamespace(seen=[], made=[])
        workspace, loss = ops.Workspace, ops.softmax_cross_entropy

        def made():
            record.made.append(weakref.ref(ws := workspace()))
            return ws

        def recorded(logits, labels):
            record.seen.append([(w().buffer.size, w().builds) for w in record.made])
            return loss(logits, labels)

        monkeypatch.setattr(ops, "Workspace", made)
        monkeypatch.setattr(ops, "softmax_cross_entropy", recorded)
        return record

    def test_train_single_releases_the_workspace(self, held):
        net = build_backbone(NetworkSpec(bands=4, classes=3, filters=4),
                             np.random.default_rng(0))
        train_single(net, target_domain(), TrainSchedule(step_size=3, max_iter=3, batch=4),
                     np.random.default_rng(1))
        size = 4 * 25 * 4 * 25  # n*p*p pixels x k*k*c taps
        assert held.seen == [[(size, 1)], [(size, 2)], [(size, 3)]]
        assert [w() for w in held.made] == [None]

    def test_train_cross_domain_releases_the_workspace(self, held):
        cdn, datasets = TestCrossDomain()._setup(2)
        train_cross_domain(cdn, datasets, TrainSchedule(step_size=2, max_iter=2, batch=4),
                           np.random.default_rng(1))
        # the workspace grows to the wider branch's columns and is reused
        wide = 6 * 25 * 4 * 25
        assert held.seen == [[(4 * 25 * 4 * 25, 1)], [(wide, 2)], [(wide, 3)], [(wide, 4)]]
        assert [w() for w in held.made] == [None]


class TestEvalPoints:
    """Every eval point scores the test split through the batcher the run
    already holds, so the cube is reflect-padded once per dataset per run,
    and the accuracy is what evaluate gives."""

    @pytest.fixture
    def pads(self, monkeypatch):
        calls = []
        reflect_pad = data._reflect_pad
        monkeypatch.setattr(data, "_reflect_pad",
                            lambda cube, pad, what: calls.append(cube.shape)
                            or reflect_pad(cube, pad, what))
        return calls

    def test_train_single_pads_once(self, pads):
        net = build_backbone(NetworkSpec(bands=4, classes=3, filters=4),
                             np.random.default_rng(0))
        ds = target_domain()
        _, metrics = train_single(net, ds, TrainSchedule(step_size=3, max_iter=3, batch=4),
                                  np.random.default_rng(1), eval_every=1)
        assert len(pads) == 1 and [r.iteration for r in metrics.rows] == [1, 2, 3]
        assert metrics.rows[-1].accuracy == evaluate(net, ds, "test")

    def test_train_cross_domain_pads_once_per_dataset(self, pads):
        cdn, datasets = TestCrossDomain()._setup(2)
        datasets = [with_split(ds, 4, np.random.default_rng(5)) for ds in datasets]
        _, metrics = train_cross_domain(cdn, datasets,
                                        TrainSchedule(step_size=3, max_iter=3, batch=4),
                                        np.random.default_rng(1), eval_every=1)
        assert len(pads) == 2 and len(metrics.rows) == 6
        for row, net, ds in zip(metrics.rows[-2:], cdn.branches, datasets, strict=True):
            assert row.accuracy == evaluate(net, ds, "test")


class TestTwoStep:
    def _setup(self):
        big = normalize_bands(synth_generate(SynthConfig(
            classes=3, bands=4, height=40, width=40, noise_std=0.2, seed=1, name="big")))
        small1 = synth_domain(seed=2, side=12, name="small1")
        small2 = synth_domain(seed=3, side=13, name="small2")
        datasets = [small1, big, small2]
        spec = CrossDomainSpec([
            NetworkSpec(bands=ds.cube.bands, classes=ds.classes, filters=4)
            for ds in datasets
        ])
        return build_cross_domain(spec, np.random.default_rng(0)), datasets

    def test_step1_trains_largest_only_then_joint(self, sgd_steps):
        cdn, datasets = self._setup()
        s1 = TrainSchedule(step_size=8, max_iter=10, batch=4)
        s2 = TrainSchedule(step_size=10, max_iter=12, batch=4)
        cdn, m1, m2 = two_step_train(cdn, datasets, s1, s2,
                                     np.random.default_rng(4), eval_every=5)
        assert {r.domain for r in m1.rows} == {"big"}
        assert {r.domain for r in m2.rows} == {"small1", "big", "small2"}
        # step I: one branch, both groups at multiplier 1; step II: the
        # counter restarts, three branches, the shared store at 1/3
        shared_names = [p.name for p in cdn.shared_params()]
        step1, step2 = sgd_steps[:10 * 2], sgd_steps[10 * 2:]
        assert [it for it, _, _ in step1] == [it for it in range(10) for _ in range(2)]
        assert all(lr == lr_at(s1, it) for it, lr, _ in step1)
        assert [it for it, _, _ in step2] == [it for it in range(12) for _ in range(6)]
        for it, lr, names in step2:
            scale = 1 / 3 if names == shared_names else 1.0
            assert lr == pytest.approx(lr_at(s2, it) * scale, rel=1e-12)

    def test_tie_break_first_in_input_order(self):
        a = synth_domain(seed=5, side=12, name="a")
        b = synth_domain(seed=6, side=12, name="b")
        spec = CrossDomainSpec([
            NetworkSpec(bands=ds.cube.bands, classes=ds.classes, filters=4)
            for ds in (a, b)
        ])
        cdn = build_cross_domain(spec, np.random.default_rng(0))
        s = TrainSchedule(step_size=4, max_iter=4, batch=4)
        _, m1, _ = two_step_train(cdn, [a, b], s, s, np.random.default_rng(1),
                                  eval_every=2)
        assert {r.domain for r in m1.rows} == {"a"}


class TestTransferInvariance:
    def test_transferred_network_evaluates_same_from_memory_or_disk(self, tmp_path):
        datasets = [synth_domain(seed=20, bands=6), synth_domain(seed=21, bands=8)]
        spec = CrossDomainSpec([
            NetworkSpec(bands=ds.cube.bands, classes=ds.classes, filters=4)
            for ds in datasets
        ])
        cdn = build_cross_domain(spec, np.random.default_rng(0))
        train_cross_domain(cdn, datasets, TrainSchedule(step_size=20, max_iter=20, batch=8),
                           np.random.default_rng(1), eval_every=20)
        save_checkpoint(cdn, tmp_path / "pre.ckpt")
        loaded = load_checkpoint(tmp_path / "pre.ckpt").network

        target = target_domain(seed=30, bands=5, classes=3)
        target_spec = NetworkSpec(bands=5, classes=3, filters=4)
        net_mem = transfer_shared(cdn, target_spec, np.random.default_rng(9))
        net_disk = transfer_shared(loaded, target_spec, np.random.default_rng(9))
        assert evaluate(net_mem, target, "test") == evaluate(net_disk, target, "test")
