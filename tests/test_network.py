import copy

import numpy as np
import pytest

from hsinet import ops
from hsinet.checkpoint import load_checkpoint, save_checkpoint
from hsinet.data import SynthConfig, synth_generate, with_split
from hsinet.errors import ConfigError, ShapeError
from hsinet.network import (CrossDomainSpec, Network, NetworkSpec, build_backbone,
                            build_cross_domain, transfer_shared)
from hsinet.trainer import evaluate
from hsinet.verify import ABS_FLOOR, check_backbone


STEP_CACHES = ("_x", "_pre_relu", "_pre_add", "_mask")


def held_caches(net):
    """(layer, name) of each step cache a block, module or dropout layer holds."""
    layers = [*net.blocks(), *net.modules, net.drop7, net.drop8]
    return [(layer, name) for layer in layers for name in STEP_CACHES
            if getattr(layer, name, None) is not None]


def center_rows(x):
    """The eval input of an (n, bands, p, p) batch of patches: the center row
    of its 5x5 patch columns, cut to the taps inside the patch."""
    n, c, p, _ = x.shape
    return ops._columns(x, 5).reshape(n, p, p, -1)[:, p // 2, p // 2, :min(p, 5) ** 2 * c]


def weighted_layers(net):
    """The bank's three blocks count as one layer."""
    return len(net.blocks()) - 2


def shared_bytes(net):
    """Raw bytes of the shared store as one network (or branch) reads it."""
    return b"".join(arr.tobytes() for _, arr in net.shared_state())


def expected_param_count(bands, classes, filters, rm):
    """Closed-form oracle: o*i*k^2 + o per conv, + 2*c batch-norm affine."""
    def conv(i, o, k, bn=True):
        return o * i * k * k + o + (2 * o if bn else 0)

    total = conv(bands, filters, 1) + conv(bands, filters, 3) + conv(bands, filters, 5)
    total += conv(3 * filters, filters, 1)
    total += rm * 2 * conv(filters, filters, 1)
    total += 2 * conv(filters, filters, 1)
    total += conv(filters, classes, 1, bn=False)
    return total


class TestSpecs:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            NetworkSpec(bands=4, classes=3, patch=4)
        with pytest.raises(ConfigError):
            NetworkSpec(bands=4, classes=3, residual_modules=1)
        with pytest.raises(ConfigError):
            NetworkSpec(bands=4, classes=3, dropout_rate=1.0)

    def test_cross_domain_spec_agreement(self):
        a = NetworkSpec(bands=4, classes=3, filters=8)
        b = NetworkSpec(bands=6, classes=5, filters=16)
        with pytest.raises(ConfigError, match="filters"):
            CrossDomainSpec([a, b])

    def test_spec_round_trips_through_dict(self, tmp_path):
        spec = NetworkSpec(bands=7, classes=4, patch=3, filters=8,
                           residual_modules=3, dropout_rate=0.25)
        save_checkpoint(Network(spec), tmp_path / "a.ckpt")
        assert load_checkpoint(tmp_path / "a.ckpt").network.spec == spec


class TestBuildBackbone:
    def test_depth_law(self):
        for rm in (2, 3, 4, 5):
            spec = NetworkSpec(bands=2, classes=3, filters=4, residual_modules=rm)
            net = build_backbone(spec, np.random.default_rng(0))
            assert weighted_layers(net) == 5 + 2 * rm

    def test_parameter_count_against_oracle(self):
        spec = NetworkSpec(bands=2, classes=3, filters=4, residual_modules=2)
        net = build_backbone(spec, np.random.default_rng(0))
        assert sum(p.data.size for p in net.params()) == expected_param_count(2, 3, 4, 2)

    @pytest.mark.parametrize("rm", [2, 3, 4, 5])
    def test_parameter_count_other_depths(self, rm):
        spec = NetworkSpec(bands=5, classes=4, filters=6, residual_modules=rm)
        net = build_backbone(spec, np.random.default_rng(1))
        assert sum(p.data.size for p in net.params()) == expected_param_count(5, 4, 6, rm)

    def test_table1_like_build(self):
        spec = NetworkSpec(bands=200, classes=8, patch=5, filters=8)
        net = build_backbone(spec, np.random.default_rng(0))
        assert weighted_layers(net) == 9
        x = np.zeros((2, 200, 5, 5), dtype=np.float32)
        assert net.forward(center_rows(x)).shape == (2, 8)


class TestInitWeights:
    def test_group_stds_within_ten_percent(self):
        spec = NetworkSpec(bands=100, classes=9, filters=32)
        net = build_backbone(spec, np.random.default_rng(11))
        assert np.std(net.c2.conv.w.data) == pytest.approx(0.01, rel=0.10)
        assert np.std(net.bank[1].conv.w.data) == pytest.approx(0.01, rel=0.10)
        assert np.std(net.c9.conv.w.data) == pytest.approx(0.01, rel=0.10)
        res_w = np.concatenate([blk.conv.w.data.ravel()
                                for m in net.modules for blk in m.blocks()])
        assert np.std(res_w) == pytest.approx(0.005, rel=0.10)
        assert np.std(net.c7.conv.w.data) == pytest.approx(0.005, rel=0.10)

    def test_biases_zero_and_bn_defaults(self):
        spec = NetworkSpec(bands=10, classes=3, filters=8)
        net = build_backbone(spec, np.random.default_rng(2))
        for blk in net.blocks():
            assert not blk.conv.b.data.any()
            if blk.with_bn:
                assert (blk.bn.scale.data == 1).all()
                assert not blk.bn.shift.data.any()
                assert not blk.bn.running_mean.any()
                assert (blk.bn.running_var == 1).all()

    def test_momentum_buffers_zeroed(self):
        spec = NetworkSpec(bands=4, classes=3, filters=4)
        net = build_backbone(spec, np.random.default_rng(3))
        assert all(not p.vel.any() for p in net.params())


class TestForward:
    def test_eval_forward_deterministic(self):
        spec = NetworkSpec(bands=4, classes=3, filters=4)
        net = build_backbone(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(0, 1, (3, 4, 5, 5)).astype(np.float32)
        a = net.forward(center_rows(x), training=False)
        b = net.forward(center_rows(x), training=False)
        np.testing.assert_array_equal(a, b)

    def test_zero_init_gives_uniform_softmax(self):
        spec = NetworkSpec(bands=4, classes=5, filters=4)
        net = Network(spec)  # zero weights, fresh batch-norm state
        logits = net.forward(center_rows(np.zeros((2, 4, 5, 5), dtype=np.float32)))
        assert (logits == logits[:, :1]).all()

    def test_band_mismatch_names_expected_and_actual(self):
        spec = NetworkSpec(bands=4, classes=3, filters=4)
        net = build_backbone(spec, np.random.default_rng(0))
        x = np.zeros((1, 6, 5, 5), dtype=np.float32)
        with pytest.raises(ShapeError, match="6 bands.*expects.*4"):
            net.forward(x, training=True, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError, match=r"\(1, 150\).*25 taps x 4 bands.*expects"):
            net.forward(center_rows(x))
        with pytest.raises(ShapeError, match=r"\(1, 4, 5, 5\).*center rows"):
            net.forward(x[:, :4])

    def test_logits_shape_independent_of_bands(self):
        for bands in (3, 9, 17):
            spec = NetworkSpec(bands=bands, classes=4, filters=4)
            net = build_backbone(spec, np.random.default_rng(0))
            x = np.zeros((2, bands, 5, 5), dtype=np.float32)
            assert net.forward(center_rows(x)).shape == (2, 4)

    def test_training_forward_requires_rng_for_dropout(self):
        spec = NetworkSpec(bands=4, classes=3, filters=4)
        net = build_backbone(spec, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            net.forward(np.zeros((2, 4, 5, 5), dtype=np.float32), training=True)

    def test_full_gradient_check_single_seed(self):
        report = check_backbone(0)
        assert report.passed, report.failures

    def test_gradient_check_holds_structural_zeros_to_zero(self, monkeypatch):
        """A conv bias feeding batch norm has gradient 0. An error of 1e-7 in
        it passes the finite differences through ABS_FLOOR, but not the
        ZERO_BOUND check."""
        backward = ops.conv2d_backward

        def biased(x, p, g):
            gw, gb = backward(x, p, g)
            return gw, gb if p.b.name == "c9.b" else gb + 1e-7
        monkeypatch.setattr(ops, "conv2d_backward", biased)
        report = check_backbone(0)
        net = Network(NetworkSpec(bands=3, classes=3, filters=4))  # check_backbone's layers
        zero = [blk.conv.b.name for blk in net.blocks() if blk.with_bn]
        assert not report.passed
        assert report.failures == zero
        assert all(report.max_abs[name] < ABS_FLOOR for name in zero)

    def test_backward_releases_batchnorm_statistics(self):
        """Each training forward serves one backward, which frees its
        statistics and returns no input gradient."""
        net = build_backbone(NetworkSpec(bands=4, classes=3, filters=4),
                             np.random.default_rng(0))
        x = np.random.default_rng(1).normal(0, 1, (2, 4, 5, 5)).astype(np.float32)
        grad = np.ones((2, 3), dtype=np.float32)
        bn_blocks = [blk for blk in net.blocks() if blk.with_bn]
        net.forward(x, training=True, rng=np.random.default_rng(2))
        assert all(blk._bn_stats is not None for blk in bn_blocks)
        assert net.backward(grad) is None
        assert all(blk._bn_stats is None for blk in bn_blocks)
        with pytest.raises(ConfigError, match="training-mode forward"):
            net.backward(grad)

    def test_backward_releases_every_step_cache(self):
        """What a block kept for its backward is dropped once that backward
        has read it, so none of it sits beside the bank's patch columns."""
        net = build_backbone(NetworkSpec(bands=4, classes=3, filters=4),
                             np.random.default_rng(0))
        x = np.random.default_rng(1).normal(0, 1, (2, 4, 5, 5)).astype(np.float32)
        net.forward(x, training=True, rng=np.random.default_rng(2))
        assert {name for _, name in held_caches(net)} == set(STEP_CACHES)
        net.backward(np.ones((2, 3), dtype=np.float32))
        assert held_caches(net) == []

    def test_eval_keeps_nothing_for_a_backward(self):
        """An eval forward keeps no block input, pre-activation or dropout
        mask, so trainer.evaluate leaves none behind, not even those of a
        training forward whose backward never ran; backward still refuses."""
        ds = with_split(synth_generate(SynthConfig(classes=3, bands=4, height=12, width=12,
                                                   noise_std=0.25, seed=50, name="t")),
                        3, np.random.default_rng(0))
        net = build_backbone(NetworkSpec(bands=4, classes=3, filters=4),
                             np.random.default_rng(0))
        x = np.random.default_rng(1).normal(0, 1, (2, 4, 5, 5)).astype(np.float32)
        net.forward(x, training=True, rng=np.random.default_rng(2))
        evaluate(net, ds, "test")
        assert held_caches(net) == []
        with pytest.raises(ConfigError, match="training-mode forward"):
            net.backward(np.ones((2, 3), dtype=np.float32))

    def test_training_step_builds_one_set_of_bank_columns(self, monkeypatch):
        """A training forward builds its input's 5x5 patch columns once, into
        the workspace it is given. c3x3 and c5x5 read them forward and
        backward, c1x1 reads x, and every bank gradient keeps the bits of
        conv2d_backward on a plain copy of x."""
        sizes, calls = [], []
        columns, backward = ops._columns, ops.conv2d_backward
        monkeypatch.setattr(ops, "_columns",
                            lambda a, k, *ws: sizes.append(k) or columns(a, k, *ws))
        monkeypatch.setattr(ops, "conv2d_backward", lambda *a: calls.append(a) or backward(*a))
        net = build_backbone(NetworkSpec(bands=4, classes=3, filters=4),
                             np.random.default_rng(0))
        x = np.random.default_rng(1).normal(0, 1, (3, 4, 5, 5)).astype(np.float32)
        workspace = ops.Workspace()
        net.forward(x, training=True, rng=np.random.default_rng(2), workspace=workspace)
        net.backward(np.ones((3, 3), dtype=np.float32))
        assert sizes == [5] and workspace.builds == 1
        bank = [(a, blk) for a in calls for blk in net.bank if a[1] is blk.conv]
        assert [blk.name for _, blk in bank] == ["c1x1", "c3x3", "c5x5"]
        assert [type(bx) for (bx, _, _), _ in bank] == [np.ndarray] + [ops.PatchColumns] * 2
        for (_, p, g), blk in bank:
            fresh = backward(x.copy(), p, g)
            for got, want in zip((p.w.grad, p.b.grad), fresh, strict=True):
                assert got.tobytes() == want.tobytes()

    def test_training_activations_are_channel_major(self, monkeypatch):
        """A training step holds the trunk's block inputs, every x̂ and every
        gradient reaching a conv or batch norm channel-major, so their rows
        are views, not copies."""
        grads = []
        for name in ("conv2d_backward", "batchnorm_backward"):
            fn = getattr(ops, name)
            monkeypatch.setattr(ops, name, lambda *a, fn=fn: grads.append(a[-1]) or fn(*a))
        net = build_backbone(NetworkSpec(bands=4, classes=3, filters=4),
                             np.random.default_rng(0))
        x = np.random.default_rng(1).normal(0, 1, (3, 4, 5, 5)).astype(np.float32)
        net.forward(x, training=True, rng=np.random.default_rng(2))
        held = [blk._x for blk in net.blocks()[3:]]  # past the NCHW bank input
        held += [blk._bn_stats[0] for blk in net.blocks() if blk.with_bn]
        net.backward(np.ones((3, 3), dtype=np.float32))
        assert len(grads) == 2 * len(net.blocks()) - 1  # c9 has no batch norm
        assert all(np.shares_memory(ops._rows(a), a) for a in held + grads)

    def test_backward_after_eval_forward_rejected(self):
        spec = NetworkSpec(bands=4, classes=3, filters=4)
        net = build_backbone(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(0, 1, (2, 4, 5, 5)).astype(np.float32)
        grad = np.ones((2, 3), dtype=np.float32)
        net.forward(center_rows(x), training=False)
        with pytest.raises(ConfigError, match="training-mode forward"):
            net.backward(grad)
        # an eval forward also retires the caches of an earlier training one
        net.forward(x, training=True, rng=np.random.default_rng(2))
        net.forward(center_rows(x), training=False)
        with pytest.raises(ConfigError, match="training-mode forward"):
            net.backward(grad)


def full_patch_logits(net, x):
    """Eval logits computed over all p x p pixels of every layer, then read at
    the center: the reference for the center-only eval forward."""
    def block(blk, t):
        t = ops.conv2d_forward(t, blk.conv)
        if blk.with_bn:
            t = ops.batchnorm_forward(t, blk.bn, training=False)
        return ops.relu(t) if blk.with_relu else t

    t = block(net.c2, np.concatenate([block(b, x) for b in net.bank], axis=1))
    for m in net.modules:
        t = ops.relu(t + block(m.conv2, block(m.conv1, t)))
    z = block(net.c9, block(net.c8, block(net.c7, t)))
    c = net.spec.patch // 2
    return z[:, :, c, c]


@pytest.mark.parametrize("patch", [1, 3, 5, 7])
def test_center_only_eval_matches_full_patch_reference(patch):
    rng = np.random.default_rng(patch)
    spec = NetworkSpec(bands=6, classes=5, patch=patch, filters=8, residual_modules=3)
    net = build_backbone(spec, rng)
    for blk in net.blocks():
        blk.conv.w.data[...] = rng.normal(0, 0.3, blk.conv.w.data.shape)
    for _ in range(3):  # move the running statistics away from 0/1
        net.forward(rng.normal(0.5, 2.0, (16, 6, patch, patch)).astype(np.float32),
                    training=True, rng=rng)
    assert np.abs(net.c2.bn.running_mean).max() > 1e-3
    x = rng.normal(0.5, 2.0, (64, 6, patch, patch)).astype(np.float32)
    logits = net.forward(center_rows(x), training=False)
    ref = full_patch_logits(net, x)
    assert logits.shape == ref.shape == (64, 5)
    assert np.abs(logits.astype(np.float64) - ref).max() <= 1e-5
    np.testing.assert_array_equal(np.argmax(logits, axis=1), np.argmax(ref, axis=1))


def full_head_training_step(net, x, labels, seed):
    """A training step whose head c9 runs over all p x p pixels and back-
    propagates a p x p logit gradient that is zero off the center: the
    reference for the center-only head. Returns the center logits."""
    rng = np.random.default_rng(seed)
    t = np.concatenate([blk.forward(x, True) for blk in net.bank], axis=1)
    for layer in net.trunk:
        t = layer.forward(t, True, rng)
    head = net.c9.conv
    z = ops.conv2d_forward(t, head)
    c = net.spec.patch // 2
    logits = np.ascontiguousarray(z[:, :, c, c])
    gz = np.zeros_like(z)
    gz[:, :, c, c] = ops.softmax_cross_entropy(logits, labels)[1]
    head.w.grad, head.b.grad = ops.conv2d_backward(t, head, gz)
    g = ops.conv2d_input_grad(head, gz)
    for layer in reversed(net.trunk):
        g = layer.backward(g)
    for blk, part in zip(net.bank, np.split(g, 3, axis=1)):
        blk.param_backward(part)
    return logits


# float64 logits and gradients of the center-only head differ from the full
# p x p head by at most this many ulps of each tensor's largest element (BLAS
# picks its GEMM kernel by shape; a probe over 120 random shapes reached 6.1).
# A conv bias feeding batch norm has gradient 0 up to rounding, so its
# difference is bounded in units of eps instead (the probe reached 3.8).
F64_HEAD_MAX_ULP = 16
F64_ZERO_GRAD_MAX_EPS = 16


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("patch", [1, 3, 5, 7])
def test_center_only_head_matches_full_patch_training_step(patch, dtype):
    """float32 training is bit-identical to the full-patch head; float64
    matches within the bounds above."""
    rng = np.random.default_rng(patch)
    spec = NetworkSpec(bands=6, classes=5, patch=patch, filters=8, residual_modules=3,
                       dropout_rate=0.25)
    net = build_backbone(spec, rng, dtype=dtype)
    for blk in net.blocks():
        blk.conv.w.data[...] = rng.normal(0, 0.3, blk.conv.w.data.shape)
    ref = copy.deepcopy(net)
    x = rng.normal(0.5, 2.0, (12, 6, patch, patch)).astype(dtype)
    labels = rng.integers(0, 5, 12)
    logits = net.forward(x, training=True, rng=np.random.default_rng(7))
    net.backward(ops.softmax_cross_entropy(logits, labels)[1])
    ref_logits = full_head_training_step(ref, x, labels, 7)
    zero = {blk.conv.b.name for blk in net.blocks() if blk.with_bn}
    pairs = [("logits", logits, ref_logits)]
    pairs += [(a.name, a.grad, b.grad) for a, b in zip(net.params(), ref.params(), strict=True)]
    for name, fast, slow in pairs:
        assert fast.dtype == slow.dtype == dtype, name
        if dtype == np.float32:
            np.testing.assert_array_equal(fast, slow, err_msg=name)
            continue
        eps = np.finfo(np.float64).eps
        bound = F64_ZERO_GRAD_MAX_EPS * eps if name in zero else (
            F64_HEAD_MAX_ULP * eps * np.abs(slow).max())
        np.testing.assert_allclose(fast, slow, rtol=0, atol=bound, err_msg=name)


def test_training_head_computes_the_center_pixel_alone(monkeypatch):
    """c9's conv ops see one pixel per sample in a training step: an
    (n, f, 1, 1) input and an (n, classes, 1, 1) gradient."""
    seen = []
    for op in ("conv2d_forward", "conv2d_backward", "conv2d_input_grad"):
        fn = getattr(ops, op)

        def spy(*args, fn=fn, op=op):
            p = next(a for a in args if isinstance(a, ops.ConvParams))
            if p.w.name == "c9.w":
                seen.append((op, [a.shape for a in args if isinstance(a, np.ndarray)]))
            return fn(*args)
        monkeypatch.setattr(ops, op, spy)
    net = build_backbone(NetworkSpec(bands=4, classes=3, filters=6), np.random.default_rng(0))
    x = np.random.default_rng(1).normal(0, 1, (5, 4, 5, 5)).astype(np.float32)
    logits = net.forward(x, training=True, rng=np.random.default_rng(2))
    net.backward(ops.softmax_cross_entropy(logits, np.arange(5) % 3)[1])
    assert seen == [("conv2d_forward", [(5, 6, 1, 1)]),
                    ("conv2d_backward", [(5, 6, 1, 1), (5, 3, 1, 1)]),
                    ("conv2d_input_grad", [(5, 3, 1, 1)])]


def _copy_block(dst, src):
    dst.conv.w.data[...] = src.conv.w.data
    dst.conv.b.data[...] = src.conv.b.data
    if src.with_bn:
        dst.bn.scale.data[...] = src.bn.scale.data
        dst.bn.shift.data[...] = src.bn.shift.data
        dst.bn.running_mean[...] = src.bn.running_mean
        dst.bn.running_var[...] = src.bn.running_var


class TestResidualStructure:
    def test_zeroed_extra_module_is_identity_in_eval(self):
        rng = np.random.default_rng(4)
        a = build_backbone(NetworkSpec(bands=3, classes=3, filters=4,
                                       residual_modules=2, dropout_rate=0.0), rng)
        b = Network(NetworkSpec(bands=3, classes=3, filters=4,
                                residual_modules=3, dropout_rate=0.0))
        by_name = {blk.name: blk for blk in a.blocks()}
        for blk in b.blocks():
            if blk.name in by_name:
                _copy_block(blk, by_name[blk.name])
            else:  # the inserted module: second conv zeroed, shift zero
                assert blk.name.startswith("res3")
                if blk.name.endswith("conv1"):
                    blk.conv.w.data[...] = np.random.default_rng(9).normal(
                        0, 0.005, blk.conv.w.data.shape)
                blk.bn.scale.data[...] = 1.0
        x = np.random.default_rng(5).normal(0, 1, (2, 3, 5, 5)).astype(np.float32)
        np.testing.assert_array_equal(a.forward(center_rows(x)), b.forward(center_rows(x)))


class TestCrossDomain:
    def _specs(self, n=2, filters=4):
        return CrossDomainSpec([
            NetworkSpec(bands=3 + 2 * i, classes=3 + i, filters=filters)
            for i in range(n)
        ])

    def test_shared_mutation_visible_from_other_branch(self):
        cdn = build_cross_domain(self._specs(2), np.random.default_rng(0))
        w1 = cdn.branches[0].modules[0].conv1.conv.w
        w2 = cdn.branches[1].modules[0].conv1.conv.w
        w1.data[0, 0, 0, 0] = 123.0
        assert w2.data[0, 0, 0, 0] == 123.0
        assert w1 is w2

    def test_table1_five_branch_build(self):
        spec = CrossDomainSpec([
            NetworkSpec(bands=b, classes=c, filters=4)
            for b, c in ((204, 17), (102, 10), (103, 10), (176, 14), (145, 15))
        ])
        cdn = build_cross_domain(spec, np.random.default_rng(0))
        assert len(cdn.branches) == 5

    def test_physical_parameter_count(self):
        filters, rm = 4, 2
        specs = self._specs(3, filters)
        cdn = build_cross_domain(specs, np.random.default_rng(0))
        shared = rm * 2 * (filters * filters + filters + 2 * filters)
        total = shared
        for sp in specs.branches:
            total += expected_param_count(sp.bands, sp.classes, filters, rm) - shared
        params = cdn.shared_params() + [p for b in cdn.branches for p in b.private_params()]
        assert sum(p.data.size for p in params) == total

    def test_shared_bytes_identical_across_branches(self):
        cdn = build_cross_domain(self._specs(3), np.random.default_rng(0))
        ref = shared_bytes(cdn.branches[0])
        assert all(shared_bytes(b) == ref for b in cdn.branches)

    def test_private_front_layers_differ(self):
        cdn = build_cross_domain(self._specs(2, filters=8), np.random.default_rng(0))
        a = cdn.branches[0].c2.conv.w.data
        b = cdn.branches[1].c2.conv.w.data
        assert not np.array_equal(a, b)


class TestTransferShared:
    def _pretrained(self, filters=16):
        spec = CrossDomainSpec([
            NetworkSpec(bands=10, classes=4, filters=filters),
            NetworkSpec(bands=14, classes=6, filters=filters),
        ])
        return build_cross_domain(spec, np.random.default_rng(21))

    def test_residual_weights_copied_bit_exactly(self):
        cdn = self._pretrained()
        target_spec = NetworkSpec(bands=60, classes=5, filters=16)
        target = transfer_shared(cdn, target_spec, np.random.default_rng(1))
        for src, dst in zip(cdn.modules, target.modules):
            for sblk, dblk in zip(src.blocks(), dst.blocks()):
                np.testing.assert_array_equal(sblk.conv.w.data, dblk.conv.w.data)
                np.testing.assert_array_equal(sblk.bn.scale.data, dblk.bn.scale.data)

    def test_fresh_layers_have_init_std_and_differ(self):
        cdn = self._pretrained()
        target_spec = NetworkSpec(bands=60, classes=5, filters=16)
        target = transfer_shared(cdn, target_spec, np.random.default_rng(1))
        assert np.std(target.c2.conv.w.data) == pytest.approx(0.01, rel=0.10)
        for branch in cdn.branches:
            assert not np.array_equal(branch.c2.conv.w.data, target.c2.conv.w.data)

    def test_bn_running_stats_reset(self):
        cdn = self._pretrained()
        for m in cdn.modules:  # fake some accumulated running statistics
            for blk in m.blocks():
                blk.bn.running_mean[...] = 0.7
                blk.bn.running_var[...] = 3.3
        target = transfer_shared(cdn, NetworkSpec(bands=60, classes=5, filters=16),
                                 np.random.default_rng(1))
        for m in target.modules:
            for blk in m.blocks():
                assert not blk.bn.running_mean.any()
                assert (blk.bn.running_var == 1).all()

    def test_module_count_mismatch_rejected(self):
        cdn = self._pretrained()
        with pytest.raises(ConfigError, match="residual modules"):
            transfer_shared(cdn, NetworkSpec(bands=60, classes=5, filters=16,
                                             residual_modules=4),
                            np.random.default_rng(1))

    def test_filter_mismatch_rejected(self):
        cdn = self._pretrained()
        with pytest.raises(ConfigError, match="[Ff]ilter"):
            transfer_shared(cdn, NetworkSpec(bands=60, classes=5, filters=8),
                            np.random.default_rng(1))
