import copy
import re

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from hsinet import ops
from hsinet.errors import ConfigError, DataError, NumericError, ShapeError
from hsinet.network import ConvBlock
from hsinet.verify import grad_check


def conv_reference(x, w, b):
    """Independent 6-nested-loop convolution oracle."""
    n, c, h, wd = x.shape
    o, ci, kh, kw = w.shape
    pad = (kh - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, o, h, wd))
    for ni in range(n):
        for oi in range(o):
            for y in range(h):
                for xc in range(wd):
                    acc = b[oi]
                    for cii in range(ci):
                        for dy in range(kh):
                            for dx in range(kw):
                                acc += w[oi, cii, dy, dx] * xp[ni, cii, y + dy, xc + dx]
                    out[ni, oi, y, xc] = acc
    return out


def make_conv(in_c, out_c, k, rng=None, dtype=np.float64):
    p = ops.make_conv_params("c", in_c, out_c, k, dtype=dtype)
    if rng is not None:
        p.w.data[...] = rng.normal(0, 1, p.w.data.shape)
        p.b.data[...] = rng.normal(0, 1, p.b.data.shape)
    return p


# Slow references for the fast paths: the conv forward and the conv backward
# that returned the input gradient with the parameter gradients, each with its
# own pad, windows and contraction, and the batch norm that built fresh
# float64 temporaries and recomputed its statistics from `x` in backward. A
# k > 1 contraction sums over (tap, channel), the taps in ring order, as one
# GEMM over contiguous operands (`ring_major`); every per-channel sum (conv
# bias gradient, batch mean and variance, batch-norm backward sums) runs along
# the rows of a channel-major copy (`channel_rows`), as in the fast paths;
# batch norm prescribes no order of summation. The fast paths must match the
# references bit for bit, except for the float64 gradients bounded by the
# F64_* constants below.

def channel_rows(a):
    """The (c, n*h*w) rows of an (n, c, h, w) array, as a contiguous float64 copy."""
    rows = np.ascontiguousarray(np.asarray(a, dtype=np.float64).transpose(1, 0, 2, 3))
    return rows.reshape(a.shape[1], -1)


def channel_sums(a, keepdims=False):
    """Each channel's sum over (n, h, w), along its row."""
    sums = channel_rows(a).sum(axis=1)
    return sums.reshape(1, -1, 1, 1) if keepdims else sums


def ring_taps(k):
    """The taps (dy, dx) of a k x k kernel: the center, then ring by ring
    outwards, row by row within a ring."""
    r = k // 2
    return [(dy, dx) for ring in range(r + 1) for dy in range(k) for dx in range(k)
            if max(abs(dy - r), abs(dx - r)) == ring]


def ring_major(a, k):
    """A kernel (o, c, k, k) as (o, k*k*c), or a window view (n, c, h, w, k, k)
    as (n*h*w, k*k*c): the taps in ring order, each tap's channels side by
    side, in a contiguous copy."""
    taps = np.stack([a[..., dy, dx] for dy, dx in ring_taps(k)], axis=-1)
    return np.ascontiguousarray(np.moveaxis(taps, 1, -1)).reshape(-1, k * k * a.shape[1])


def windows_reference(a64, k):
    pad = (k - 1) // 2
    ap = np.pad(a64, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return sliding_window_view(ap, (k, k), axis=(2, 3))


def correlate_reference(a64, w64):
    """Same-padded k > 1 correlation in float64, held NCHW."""
    n, _, h, wd = a64.shape
    out_c, _, k, _ = w64.shape
    out = ring_major(w64, k) @ ring_major(windows_reference(a64, k), k).T
    return out.reshape(out_c, n, h, wd).transpose(1, 0, 2, 3)


def conv2d_forward_reference(x, p):
    w = p.w.data
    out_c, in_c, kh, kw = w.shape
    n, c, h, wd = x.shape
    x64, w64 = np.asarray(x, dtype=np.float64), np.asarray(w, dtype=np.float64)
    if kh == 1:
        out = np.matmul(w64[:, :, 0, 0][None], x64.reshape(n, c, h * wd))
        out = out.reshape(n, out_c, h, wd)
    else:
        out = correlate_reference(x64, w64)
    out += np.asarray(p.b.data, dtype=np.float64)[None, :, None, None]
    return out.astype(np.result_type(x.dtype, w.dtype))


def conv2d_backward_reference(x, p, grad_out):
    """Returns (grad_input, grad_w, grad_b)."""
    w = p.w.data
    out_c, in_c, kh, kw = w.shape
    n, c, h, wd = x.shape
    x64, w64, g64 = (np.asarray(a, dtype=np.float64) for a in (x, w, grad_out))
    grad_b = channel_sums(g64)
    if kh == 1:
        g2 = g64.reshape(n, out_c, h * wd)
        x2 = x64.reshape(n, c, h * wd)
        grad_w = np.matmul(g2, x2.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        gx = np.matmul(w64[:, :, 0, 0].T[None], g2).reshape(n, c, h, wd)
    else:
        ring = channel_rows(g64) @ ring_major(windows_reference(x64, kh), kh)
        ring = ring.reshape(out_c, kh * kw, c)
        grad_w = np.zeros(w.shape)
        for t, (dy, dx) in enumerate(ring_taps(kh)):
            grad_w[:, :, dy, dx] = ring[:, t]
        gx = correlate_reference(g64, w64.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    return gx.astype(x.dtype), grad_w.astype(w.dtype), grad_b.astype(p.b.data.dtype)


def batchnorm_forward_reference(x, p, training):
    x64 = np.asarray(x, dtype=np.float64)
    count = x.shape[0] * x.shape[2] * x.shape[3]
    if training:
        mean = channel_sums(x64, keepdims=True) / count
        centered = x64 - mean
        var = channel_sums(centered * centered, keepdims=True) / count
        m = ops.BN_MOMENTUM
        p.running_mean[...] = ((1.0 - m) * p.running_mean.astype(np.float64)
                               + m * mean.ravel()).astype(p.running_mean.dtype)
        p.running_var[...] = ((1.0 - m) * p.running_var.astype(np.float64)
                              + m * var.ravel()).astype(p.running_var.dtype)
    else:
        mean = p.running_mean.astype(np.float64).reshape(1, -1, 1, 1)
        centered = x64 - mean
        var = p.running_var.astype(np.float64).reshape(1, -1, 1, 1)
    xhat = centered * (1.0 / np.sqrt(var + ops.BN_EPS))
    scale = p.scale.data.astype(np.float64)[None, :, None, None]
    out = xhat * scale + p.shift.data.astype(np.float64)[None, :, None, None]
    return out.astype(np.result_type(x.dtype, p.scale.data.dtype))


def batchnorm_backward_reference(x, p, grad_out):
    """Returns (grad_x, grad_scale, grad_shift), statistics recomputed from x."""
    x64, g64 = (np.asarray(a, dtype=np.float64) for a in (x, grad_out))
    count = x.shape[0] * x.shape[2] * x.shape[3]
    mean = channel_sums(x64, keepdims=True) / count
    centered = x64 - mean
    var = channel_sums(centered * centered, keepdims=True) / count
    inv = 1.0 / np.sqrt(var + ops.BN_EPS)
    xhat = centered * inv
    g_sum = channel_sums(g64, keepdims=True)
    gxhat_sum = channel_sums(g64 * xhat, keepdims=True)
    scale = p.scale.data.astype(np.float64)[None, :, None, None]
    gx = scale * inv * (g64 - g_sum / count - xhat * (gxhat_sum / count))
    return (gx.astype(x.dtype), gxhat_sum.reshape(-1).astype(p.scale.data.dtype),
            g_sum.reshape(-1).astype(p.shift.data.dtype))


def block_reference(blk, x, training, grad_out):
    """A ConvBlock's output and, in training, (input, w, b, scale, shift)
    gradients, all through the references."""
    y = conv2d_forward_reference(x, blk.conv)
    z = batchnorm_forward_reference(y, blk.bn, training)
    out = ops.relu(z)
    if not training:
        return out, ()
    g, g_scale, g_shift = batchnorm_backward_reference(y, blk.bn, ops.relu_backward(z, grad_out))
    gx, gw, gb = conv2d_backward_reference(x, blk.conv, g)
    return out, (gx, gw, gb, g_scale, g_shift)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_within_ulp(a, b, maxulp):
    """Same bits when maxulp is 0, else at most maxulp float steps apart."""
    if maxulp == 0:
        assert_same_bits(a, b)
    else:
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_max_ulp(a, b, maxulp)


# One training sum runs in a new order: the 1x1 weight gradient is one GEMM
# over all n*h*w pixels, where the reference sums one product per sample. In
# float32 the cast back hides the new order; in float64 it moves by at most
# these ulps (the smallest bounds that pass), keyed by (kernel size,
# quantity). Every forward output, running statistic and other gradient is
# bit-exact.
F64_CONV_MAX_ULP = {(1, "grad_w"): 4}
F64_BLOCK_MAX_ULP = {(1, "grad_w"): 48}


def channel_major(a):
    """The values of an (n, c, h, w) array, held as a contiguous (c, n, h, w) buffer."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


class TestConvForward:
    def test_scalar_product(self):
        p = make_conv(1, 1, 1)
        p.w.data[...] = 3.0
        out = ops.conv2d_forward(np.full((1, 1, 1, 1), 2.0), p)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == pytest.approx(6.0)

    def test_tap_counting_with_zero_padding(self):
        p = make_conv(1, 1, 3)
        p.w.data[...] = 1.0
        out = ops.conv2d_forward(np.ones((1, 1, 3, 3)), p)[0, 0]
        assert out[1, 1] == pytest.approx(9.0)
        for y, x in ((0, 0), (0, 2), (2, 0), (2, 2)):
            assert out[y, x] == pytest.approx(4.0)

    def test_matches_loop_reference_5x5(self):
        rng = np.random.default_rng(42)
        p = make_conv(3, 2, 5, rng)
        x = rng.normal(0, 1, (2, 3, 5, 5))
        ref = conv_reference(x, p.w.data, p.b.data)
        np.testing.assert_allclose(ops.conv2d_forward(x, p), ref, atol=1e-6)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("h,w", [(1, 1), (1, 7), (4, 5), (7, 7), (5, 3)])
    def test_matches_loop_reference_shape_sweep(self, k, h, w):
        rng = np.random.default_rng(k * 100 + h * 10 + w)
        for n, c, o in ((1, 1, 1), (2, 4, 3)):
            p = make_conv(c, o, k, rng)
            x = rng.normal(0, 1, (n, c, h, w))
            ref = conv_reference(x, p.w.data, p.b.data)
            np.testing.assert_allclose(ops.conv2d_forward(x, p), ref, atol=1e-6)

    def test_channel_mismatch_names_both_shapes(self):
        p = make_conv(3, 2, 1)
        with pytest.raises(ShapeError, match=r"\(1, 4, 2, 2\).*\(2, 3, 1, 1\)"):
            ops.conv2d_forward(np.zeros((1, 4, 2, 2)), p)

    @pytest.mark.parametrize("shape", [(3, 3, 3), (1, 4, 3, 3), (1, 1, 3, 3, 3)])
    def test_every_entry_checks_rank_and_channels(self, shape):
        p, bad, good = make_conv(3, 2, 3), np.zeros(shape), np.zeros((1, 3, 3, 3))
        message = rf"conv 'c.w': input shape {re.escape(str(shape))} does not match weight"
        for call in (lambda: ops.conv2d_forward(bad, p),
                     lambda: ops.conv2d_backward(bad, p, np.zeros((1, 2, 3, 3)))):
            with pytest.raises(ShapeError, match=message):
                call()
        with pytest.raises(ShapeError, match="grad_out shape"):
            ops.conv2d_input_grad(p, bad)
        with pytest.raises(ShapeError, match="grad_out shape"):
            ops.conv2d_backward(good, p, bad)

    def test_kernel_size_restricted(self):
        with pytest.raises(ConfigError):
            ops.make_conv_params("c", 1, 1, 2)
        with pytest.raises(ConfigError):
            ops.make_conv_params("c", 1, 1, 7)


class TestConvBackward:
    def test_scalar_chain_rule(self):
        p = make_conv(1, 1, 1)
        p.w.data[...] = 3.0
        x = np.full((1, 1, 1, 1), 2.0)
        g = np.ones((1, 1, 1, 1))
        gw, gb = ops.conv2d_backward(x, p, g)
        gx = ops.conv2d_input_grad(p, g)
        assert gw[0, 0, 0, 0] == pytest.approx(2.0)
        assert gb[0] == pytest.approx(1.0)
        assert gx[0, 0, 0, 0] == pytest.approx(3.0)

    def test_zero_grad_out(self):
        rng = np.random.default_rng(0)
        p = make_conv(2, 3, 3, rng)
        x = rng.normal(0, 1, (2, 2, 4, 4))
        g = np.zeros((2, 3, 4, 4))
        gw, gb = ops.conv2d_backward(x, p, g)
        gx = ops.conv2d_input_grad(p, g)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_grad_out_shape_checked(self):
        p = make_conv(2, 3, 3)
        with pytest.raises(ShapeError):
            ops.conv2d_backward(np.zeros((2, 2, 4, 4)), p, np.zeros((2, 3, 5, 4)))
        with pytest.raises(ShapeError, match=r"\(2, 2, 4, 4\)"):
            ops.conv2d_input_grad(p, np.zeros((2, 2, 4, 4)))

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_finite_difference(self, k, seed):
        from hsinet.verify import check_conv
        report = check_conv(k, seed)
        assert report.passed, report.failures


class TestBatchNorm:
    def test_three_value_channel(self):
        p = ops.make_batchnorm_params("bn", 1, dtype=np.float64)
        x = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1, 1)
        out = ops.batchnorm_forward(x, p, training=True)[0].ravel()
        np.testing.assert_allclose(out, [-1.2247, 0.0, 1.2247], atol=1e-3)

    def test_zero_scale_gives_shift(self):
        p = ops.make_batchnorm_params("bn", 2, dtype=np.float64)
        p.scale.data[...] = 0.0
        p.shift.data[...] = [0.5, -0.5]
        out = ops.batchnorm_forward(np.random.default_rng(0).normal(0, 1, (4, 2, 3, 3)),
                                    p, training=True)[0]
        np.testing.assert_allclose(out[:, 0], 0.5, atol=1e-12)
        np.testing.assert_allclose(out[:, 1], -0.5, atol=1e-12)

    def test_eval_mode_hand_formula(self):
        rng = np.random.default_rng(7)
        p = ops.make_batchnorm_params("bn", 1, dtype=np.float64)
        p.running_mean[...] = 0.3
        p.running_var[...] = 4.0
        p.scale.data[...] = 1.5
        p.shift.data[...] = -0.2
        x = rng.normal(0, 1, (3, 1, 1, 1))
        expected = 1.5 * (x - 0.3) / np.sqrt(4.0 + ops.BN_EPS) - 0.2
        np.testing.assert_allclose(ops.batchnorm_forward(x, p, training=False),
                                   expected, atol=1e-12)

    def test_constant_input_is_finite_via_eps(self):
        p = ops.make_batchnorm_params("bn", 1, dtype=np.float64)
        out = ops.batchnorm_forward(np.full((2, 1, 2, 2), 5.0), p, training=True)[0]
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_degenerate_statistics_error(self):
        p = ops.make_batchnorm_params("bn", 1, dtype=np.float64)
        with pytest.raises(DataError, match="single value"):
            ops.batchnorm_forward(np.ones((1, 1, 1, 1)), p, training=True)

    def test_running_stats_ema(self):
        p = ops.make_batchnorm_params("bn", 1, dtype=np.float64)
        x = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1, 1)
        ops.batchnorm_forward(x, p, training=True)
        assert p.running_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 2.0)
        assert p.running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * (2.0 / 3.0))

    def test_normalized_moments_property(self):
        # per-channel mean ~0 and variance ~1 before scale/shift, n*h*w >= 8
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = ops.make_batchnorm_params("bn", 3, dtype=np.float64)
            x = rng.normal(2.0, 3.0, (4, 3, 2, 2))
            out = ops.batchnorm_forward(x, p, training=True)[0]
            mean = out.mean(axis=(0, 2, 3))
            var = out.var(axis=(0, 2, 3))
            assert np.abs(mean).max() <= 1e-5
            assert np.abs(var - 1.0).max() <= 1e-4

    def test_backward_scale_shift_definitions(self):
        rng = np.random.default_rng(3)
        p = ops.make_batchnorm_params("bn", 2, dtype=np.float64)
        p.scale.data[...] = rng.uniform(0.5, 1.5, 2)
        x = rng.normal(0, 1, (4, 2, 3, 3))
        g = rng.normal(0, 1, x.shape)
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        xhat = (x - mean) / np.sqrt(var + ops.BN_EPS)
        _, saved_xhat, inv = ops.batchnorm_forward(x, p, training=True)
        _, g_scale, g_shift = ops.batchnorm_backward(saved_xhat, inv, p, g)
        np.testing.assert_allclose(g_shift, g.sum(axis=(0, 2, 3)), atol=1e-10)
        np.testing.assert_allclose(g_scale, (g * xhat).sum(axis=(0, 2, 3)), atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_backward_finite_difference(self, seed):
        from hsinet.verify import check_batchnorm
        report = check_batchnorm(seed)
        assert report.passed, report.failures


class TestFastPathsMatchReferences:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv_forward(self, k, dtype):
        rng = np.random.default_rng(20 + k)
        p = make_conv(3, 4, k, rng, dtype=dtype)
        for shape in ((2, 3, 5, 5), (1, 3, 3, 7), (3, 3, 1, 1)):
            x = rng.normal(0, 1, shape).astype(dtype)
            assert_same_bits(ops.conv2d_forward(x, p), conv2d_forward_reference(x, p))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_split_conv_backward(self, k, dtype):
        rng = np.random.default_rng(k)
        p = make_conv(3, 4, k, rng, dtype=dtype)
        x = rng.normal(0, 1, (2, 3, 5, 5)).astype(dtype)
        g = rng.normal(0, 1, (2, 4, 5, 5)).astype(dtype)
        gx, gw, gb = conv2d_backward_reference(x, p, g)
        assert_same_bits(ops.conv2d_input_grad(p, g), gx)
        ulps = F64_CONV_MAX_ULP if dtype == np.float64 else {}
        grads = ops.conv2d_backward(x, p, g)
        for name, fast, ref in zip(("grad_w", "grad_b"), grads, (gw, gb), strict=True):
            assert_within_ulp(fast, ref, ulps.get((k, name), 0))

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv_block(self, k, dtype, training):
        """Forward, running statistics and every gradient of a conv + batch
        norm + ReLU block, against the same block run on the references."""
        rng = np.random.default_rng(10 + k)
        blk = ConvBlock("blk", 3, 4, k, dtype)
        for prm in blk.params():
            prm.data[...] = rng.normal(0.5, 1, prm.data.shape)
        blk.bn.running_mean[...] = rng.normal(0, 1, 4)
        blk.bn.running_var[...] = rng.uniform(0.5, 2, 4)
        ref = copy.deepcopy(blk)
        x = rng.normal(0, 1, (6, 3, 5, 5)).astype(dtype)
        out = blk.forward(x, training)
        g = rng.normal(0, 1, out.shape).astype(dtype)
        ref_out, ref_grads = block_reference(ref, x, training, g)
        assert_same_bits(out, ref_out)
        assert_same_bits(blk.bn.running_mean, ref.bn.running_mean)
        assert_same_bits(blk.bn.running_var, ref.bn.running_var)
        if training:
            grads = (blk.backward(g), blk.conv.w.grad, blk.conv.b.grad, blk.bn.scale.grad,
                     blk.bn.shift.grad)
            ulps = F64_BLOCK_MAX_ULP if dtype == np.float64 else {}
            names = ("grad_x", "grad_w", "grad_b", "grad_scale", "grad_shift")
            for name, fast, slow in zip(names, grads, ref_grads, strict=True):
                assert_within_ulp(fast, slow, ulps.get((k, name), 0))

    def test_forward_leaves_a_float64_input_unchanged(self):
        """Gradient checking hands batch norm float64 arrays, which the
        in-place passes must not write into."""
        p = ops.make_batchnorm_params("bn", 2, dtype=np.float64)
        x = np.random.default_rng(4).normal(3, 2, (4, 2, 3, 3))
        before = x.copy()
        for training in (True, False):
            ops.batchnorm_forward(x, p, training)
        assert_same_bits(x, before)

    def test_statistics_only_in_training(self):
        """Training returns (out, x̂, 1/σ), x̂ and 1/σ in float64; eval returns
        the output array alone."""
        p = ops.make_batchnorm_params("bn", 1)
        x = np.arange(4.0, dtype=np.float32).reshape(4, 1, 1, 1)
        out, xhat, inv = ops.batchnorm_forward(x, p, True)
        assert out.shape == xhat.shape == x.shape and out.dtype == np.float32
        assert xhat.dtype == inv.dtype == np.float64 and inv.shape == (1, 1, 1, 1)
        out = ops.batchnorm_forward(x, p, False)
        assert isinstance(out, np.ndarray) and out.shape == x.shape

    def test_backward_checks_grad_out_shape(self):
        p = ops.make_batchnorm_params("bn", 1, dtype=np.float64)
        _, xhat, inv = ops.batchnorm_forward(np.arange(4.0).reshape(4, 1, 1, 1), p, True)
        with pytest.raises(ShapeError, match="does not match input shape"):
            ops.batchnorm_backward(xhat, inv, p, np.zeros((2, 1, 1, 1)))


class TestColumns:
    """A bank conv reads an ops.Columns in its input's place. A training step
    builds its bank input's patch columns once (ops.patch_columns), into the
    run's Workspace. The set is built for the bank's largest kernel, 5x5, its
    taps in ring order: c5x5 reads all of it, c3x3 a view of its first 9 taps
    and c1x1 of the first; an array input gets fresh columns on every call.
    Every result keeps the bits of the ring-order references. An eval batch's
    Columns hold the center rows of its patches, and conv2d_forward on them
    gives the center pixel of the full same-padded output."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The kernel size of every patch-column build; each still builds."""
        sizes = []
        columns = ops._columns
        monkeypatch.setattr(ops, "_columns",
                            lambda a, k, *ws: sizes.append(k) or columns(a, k, *ws))
        return sizes

    @staticmethod
    def case(k, seed, dtype=np.float64):
        rng = np.random.default_rng(seed)
        p = make_conv(3, 4, k, rng, dtype=dtype)
        x = rng.normal(0, 1, (2, 3, 5, 5)).astype(dtype)
        g = rng.normal(0, 1, (2, 4, 5, 5)).astype(dtype)
        return p, x, g

    @staticmethod
    def assert_reference(x, p, g, grads):
        _, gw, gb = conv2d_backward_reference(x, p, g)
        assert_same_bits(grads[0], gw)
        assert_same_bits(grads[1], gb)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_reads_the_forward_columns(self, builds, dtype):
        p, x, g = self.case(5, 0, dtype)
        cols = ops.patch_columns(x, ops.Workspace())
        assert_same_bits(ops.conv2d_forward(cols, p), conv2d_forward_reference(x, p))
        self.assert_reference(x, p, g, ops.conv2d_backward(cols, p, g))
        assert builds == [5]

    def test_input_changed_in_place_builds_fresh_columns(self, builds):
        p, x, g = self.case(3, 1)
        ops.conv2d_forward(x, p)
        x[1, 2, 3, 4] += 1.0
        self.assert_reference(x, p, g, ops.conv2d_backward(x, p, g))
        assert builds == [3, 3]

    def test_interleaved_forward_keeps_only_the_latest(self, builds):
        """A later build overwrites the workspace, so reading an earlier set
        raises, whole or as a prefix, instead of returning the later set's
        columns."""
        p, x, g = self.case(5, 5)
        workspace = ops.Workspace()
        first = ops.patch_columns(x, workspace)
        y = x[::-1].copy()
        latest = ops.patch_columns(y, workspace)
        for read in (lambda: ops.conv2d_forward(first, p), lambda: first.taps(3)):
            with pytest.raises(RuntimeError, match="later build"):
                read()
        self.assert_reference(y, p, g, ops.conv2d_backward(latest, p, g))
        assert builds == [5, 5]

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("shape", [(2, 3, 5, 5), (1, 3, 3, 7), (3, 2, 1, 1), (1, 1, 3, 1),
                                       (2, 1, 3, 1), (1, 2, 1, 4)])
    def test_columns_are_the_ring_major_windows(self, builds, shape, k):
        """Fresh or in the workspace, the columns are the window view's taps
        in ring order, each tap's channels side by side, in a C-contiguous
        (n*h*w, k*k*c) array. patch_columns builds the bank's largest kernel
        only, k = 5."""
        x = np.random.default_rng(15).normal(0, 1, shape)
        want = ring_major(windows_reference(x, k), k)
        workspace = ops.Workspace()
        built = [ops._columns(x, k)]
        if k == 5:
            built.append(ops.patch_columns(x, workspace).taps(k))
            assert np.shares_memory(built[-1], workspace.buffer)
        for got in built:
            assert (got.shape, got.strides) == (want.shape, want.strides)
            assert got.tobytes() == want.tobytes()
        assert workspace.buffer.size == (want.size if k == 5 else 0)

    @pytest.mark.parametrize("shape", [(2, 3, 5, 5), (1, 3, 3, 7), (64, 3, 5, 5), (3, 2, 3, 3),
                                       (3, 2, 1, 1), (1, 2, 1, 1), (1, 1, 3, 1), (2, 1, 3, 1),
                                       (1, 2, 1, 4)])
    def test_smaller_kernel_reads_a_prefix_of_the_set(self, builds, shape):
        """The 3x3 columns of a 5x5 set, in float32 and float64, are a view of
        the workspace holding a fresh 3x3 build's values byte for byte, at
        patch 5, 3 and 1 and on a single pixel, and the 3x3 forward and
        gradient over the set keep the references' bits."""
        rng = np.random.default_rng(9)
        for dtype in (np.float32, np.float64):
            x = rng.normal(0, 1, shape).astype(dtype)
            g = rng.normal(0, 1, (shape[0], 4, *shape[2:])).astype(dtype)
            p3 = make_conv(shape[1], 4, 3, rng, dtype=dtype)
            workspace = ops.Workspace()
            cols = ops.patch_columns(x, workspace)
            prefix, fresh = cols.taps(3), ops._columns(x, 3)
            assert np.shares_memory(prefix, workspace.buffer)
            assert prefix.shape == fresh.shape
            assert np.ascontiguousarray(prefix).tobytes() == fresh.tobytes()
            assert_same_bits(ops.conv2d_forward(cols, p3), conv2d_forward_reference(x, p3))
            self.assert_reference(x, p3, g, ops.conv2d_backward(cols, p3, g))
        assert workspace.builds == 1

    @pytest.mark.parametrize("shape", [(2, 3, 5, 5), (1, 3, 3, 7), (64, 3, 5, 5), (3, 2, 1, 1),
                                       (2, 1, 3, 1), (8, 96, 5, 5)])
    def test_1x1_kernel_reads_the_first_tap(self, builds, shape):
        """c1x1 reads a view of the set's first tap. In float32 its forward and
        gradients keep the bits of the row path over x; in float64 the GEMM
        reads the view's strides and may round differently."""
        rng = np.random.default_rng(21)
        for dtype in (np.float32, np.float64):
            x = rng.normal(0, 1, shape).astype(dtype)
            g = rng.normal(0, 1, (shape[0], 4, *shape[2:])).astype(dtype)
            p1 = make_conv(shape[1], 4, 1, rng, dtype=dtype)
            cols = ops.patch_columns(x, ops.Workspace())
            assert np.shares_memory(cols.taps(1), cols.columns)
            assert cols.taps(1).shape == (x.size // shape[1], shape[1])
            got = [ops.conv2d_forward(cols, p1), *ops.conv2d_backward(cols, p1, g)]
            want = [ops.conv2d_forward(x, p1), *ops.conv2d_backward(x, p1, g)]
            for a, b in zip(got, want, strict=True):
                if dtype == np.float32:
                    assert_same_bits(a, b)
                else:
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
        assert builds == [5, 5]

    def test_other_builds_leave_the_set_untouched(self, builds):
        """A forward and a weight gradient on an array build their columns in
        fresh memory, though they would fit in the workspace."""
        p, x, g = self.case(5, 12)
        cols = ops.patch_columns(x, ops.Workspace())
        before = cols.columns.tobytes()
        y = x[::-1].copy()
        ops.conv2d_forward(y, p)
        self.assert_reference(y, p, g, ops.conv2d_backward(y, p, g))
        assert cols.columns.tobytes() == before
        self.assert_reference(x, p, g, ops.conv2d_backward(cols, p, g))
        assert builds == [5, 5, 5]

    def test_workspace_is_reused_and_grows(self, builds):
        _, x, _ = self.case(5, 13)
        workspace = ops.Workspace()
        ops.patch_columns(x, workspace)
        buffer = workspace.buffer
        ops.patch_columns(x[::-1].copy(), workspace)
        assert workspace.buffer is buffer
        ops.patch_columns(np.concatenate([x, x]), workspace)
        assert workspace.buffer.size == 2 * buffer.size and workspace.builds == 3

    def test_input_gradient_keeps_no_columns(self, builds):
        """The input gradient builds fresh columns of grad_out: the set stays
        readable, with its bytes."""
        p, x, g = self.case(5, 6)
        cols = ops.patch_columns(x, ops.Workspace())
        before = cols.columns.tobytes()
        ops.conv2d_input_grad(p, g)
        assert cols.taps(5).tobytes() == before
        assert builds == [5, 5]

    def test_gradient_check_leaves_no_wrong_columns(self, builds):
        """The check perturbs x in place; each forward builds the perturbed x's
        columns into the one workspace, so the check passes."""
        p, x, _ = self.case(5, 7)
        grad = ops.conv2d_input_grad(p, ops.conv2d_forward(x, p))
        workspace = ops.Workspace()

        def loss():
            y = ops.conv2d_forward(ops.patch_columns(x, workspace), p)
            return float((y ** 2).sum() / 2)

        assert grad_check(loss, {"input": (x, grad)}).passed
        assert workspace.builds == len(builds) - 2 > 0

    @staticmethod
    def center_columns(x):
        """The eval Columns of x: the center row of its 5x5 patch columns, cut
        to the taps inside the patch."""
        n, c, side, _ = x.shape
        rows = ops._columns(x, 5).reshape(n, side, side, -1)[:, side // 2, side // 2]
        return ops.Columns(rows[:, :min(side, 5) ** 2 * c], (n, c, 1, 1), x.dtype)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("side", [1, 3, 5, 7])
    def test_equals_center_of_full_conv(self, k, side):
        rng = np.random.default_rng(k * 10 + side)
        p = make_conv(4, 3, k, rng)
        x = rng.normal(0, 1, (5, 4, side, side))
        c = side // 2
        cols = self.center_columns(x)
        assert cols.shape == (5, 4, 1, 1)
        center = ops.conv2d_forward(cols, p)
        assert center.shape == (5, 3, 1, 1)
        np.testing.assert_allclose(center[:, :, 0, 0], ops.conv2d_forward(x, p)[:, :, c, c],
                                   rtol=1e-12)
        p32 = make_conv(4, 3, k)
        p32.w.data = p.w.data.astype(np.float32)
        p32.b.data = p.b.data.astype(np.float32)
        x32 = x.astype(np.float32)
        center32 = ops.conv2d_forward(self.center_columns(x32), p32)
        assert center32.dtype == np.float32
        np.testing.assert_array_max_ulp(center32[:, :, 0, 0],
                                        ops.conv2d_forward(x32, p32)[:, :, c, c], maxulp=1)

    def test_each_kernel_reads_a_prefix_of_one_set(self):
        """The bank's three convs read views of the same rows, no copy."""
        x = np.random.default_rng(3).normal(0, 1, (2, 4, 5, 5))
        cols = self.center_columns(x)
        for k in (1, 3, 5):
            assert np.shares_memory(cols.taps(k), cols.columns)
            assert cols.taps(k).shape == (2, k * k * 4)

    def test_channel_mismatch_names_both_shapes(self):
        cols = self.center_columns(np.zeros((1, 4, 3, 3)))
        with pytest.raises(ShapeError, match=r"\(1, 4, 1, 1\).*\(2, 3, 1, 1\)"):
            ops.conv2d_forward(cols, make_conv(3, 2, 1))


class TestChannelMajorInputs:
    """Training hands the ops channel-major arrays. Each op gives the same
    bits for those as for the same values held NCHW-contiguous."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv(self, k, dtype):
        rng = np.random.default_rng(30 + k)
        p = make_conv(3, 4, k, rng, dtype=dtype)
        for side in (5, 1):  # at side 1 a channel-major array is also F-contiguous
            x = rng.normal(0, 1, (6, 3, side, side)).astype(dtype)
            g = rng.normal(0, 1, (6, 4, side, side)).astype(dtype)
            results = [(ops.conv2d_forward(a, p), ops.conv2d_input_grad(p, ga),
                        *ops.conv2d_backward(a, p, ga))
                       for a, ga in ((x, g), (channel_major(x), channel_major(g)))]
            for nchw, cm in zip(*results, strict=True):
                assert_same_bits(nchw, cm)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batchnorm(self, dtype):
        rng = np.random.default_rng(40)
        x = rng.normal(1, 2, (6, 4, 5, 5)).astype(dtype)
        g = rng.normal(0, 1, x.shape).astype(dtype)
        results = []
        for a, ga in ((x, g), (channel_major(x), channel_major(g))):
            p = ops.make_batchnorm_params("bn", 4, dtype=dtype)
            p.scale.data[...] = np.linspace(0.5, 2.0, 4)
            p.shift.data[...] = np.linspace(-1.0, 1.0, 4)
            out, xhat, inv = ops.batchnorm_forward(a, p, True)
            results.append((out, p.running_mean, p.running_var, xhat, inv,
                            *ops.batchnorm_backward(xhat, inv, p, ga),
                            *ops.batchnorm_backward(np.ascontiguousarray(xhat), inv, p, ga),
                            ops.batchnorm_forward(a, p, False)))
        for nchw, cm in zip(*results, strict=True):
            assert_same_bits(nchw, cm)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_elementwise(self, dtype):
        rng = np.random.default_rng(50)
        x = rng.normal(0, 1, (6, 4, 3, 3)).astype(dtype)
        g = rng.normal(0, 1, x.shape).astype(dtype)
        results = []
        for a, ga in ((x, g), (channel_major(x), channel_major(g))):
            dropped, mask = ops.dropout(a, 0.5, True, np.random.default_rng(0))
            results.append((ops.relu(a), ops.relu_backward(a, ga), dropped, mask,
                            ops.dropout_backward(ga, mask, 0.5)))
        for nchw, cm in zip(*results, strict=True):
            assert_same_bits(nchw, cm)


class TestRelu:
    def test_basic(self):
        x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
        np.testing.assert_array_equal(ops.relu(x).ravel(), [0.0, 0.0, 2.0])

    def test_backward_gate_zero_at_zero(self):
        x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
        g = np.ones_like(x)
        np.testing.assert_array_equal(ops.relu_backward(x, g).ravel(), [0.0, 0.0, 1.0])

    def test_abs_identity(self):
        x = np.random.default_rng(1).normal(0, 2, (2, 3, 4, 4))
        np.testing.assert_allclose(ops.relu(x) + ops.relu(-x), np.abs(x))


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.random.default_rng(0).normal(0, 1, (2, 2, 3, 3))
        out, mask = ops.dropout(x, 0.0, training=True, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(out, x)
        assert mask.all()

    def test_eval_identity_any_rate(self):
        x = np.random.default_rng(0).normal(0, 1, (2, 2, 3, 3))
        out, mask = ops.dropout(x, 0.9, training=False)
        assert out is x and mask is None

    def test_monte_carlo_survival_and_expectation(self):
        rng = np.random.default_rng(123)
        x = rng.uniform(0.5, 1.5, (10, 10, 100, 10))  # 1e5 elements
        out, mask = ops.dropout(x, 0.5, training=True, rng=np.random.default_rng(7))
        assert mask.mean() == pytest.approx(0.5, abs=0.01)
        assert out.mean() == pytest.approx(x.mean(), rel=0.01)

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            ops.dropout(np.zeros((1, 1, 1, 1)), 1.0, training=True,
                        rng=np.random.default_rng(0))

    def test_backward_uses_mask(self):
        x = np.random.default_rng(0).normal(0, 1, (2, 2, 3, 3))
        out, mask = ops.dropout(x, 0.5, training=True, rng=np.random.default_rng(1))
        g = np.ones_like(x)
        np.testing.assert_allclose(ops.dropout_backward(g, mask, 0.5), mask * 2.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_masked_path_finite_difference(self, seed):
        from hsinet.verify import check_dropout
        assert check_dropout(seed).passed


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_ln4(self):
        loss, _ = ops.softmax_cross_entropy(np.zeros((3, 4)), np.array([0, 1, 3]))
        assert loss == pytest.approx(np.log(4.0), abs=1e-9)

    def test_logits_must_be_2d(self):
        with pytest.raises(ShapeError, match=r"\(n, classes\), got \(3, 4, 1, 1\)"):
            ops.softmax_cross_entropy(np.zeros((3, 4, 1, 1)), np.array([0, 1, 3]))

    def test_saturated_true_class(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1e9
        loss, _ = ops.softmax_cross_entropy(logits, np.array([2]))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_grad_is_softmax_minus_onehot_over_n(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(0, 1, (4, 3))
        labels = np.array([0, 1, 2, 1])
        _, grad = ops.softmax_cross_entropy(logits, labels)
        z = logits - logits.max(axis=1, keepdims=True)
        sm = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        onehot = np.eye(3)[labels]
        np.testing.assert_allclose(grad, (sm - onehot) / 4.0, atol=1e-12)

    def test_out_of_range_label(self):
        with pytest.raises(DataError, match="index 1"):
            ops.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    @pytest.mark.parametrize("seed", range(10))
    def test_finite_difference_tight(self, seed):
        from hsinet.verify import check_softmax_ce
        report = check_softmax_ce(seed)
        assert report.worst_rel() <= 1e-4, report.max_rel


class TestSgdStep:
    def _param(self, value=1.0):
        return ops.Param("p", np.array([value], dtype=np.float64))

    def test_single_step(self):
        p = self._param(1.0)
        p.grad = np.array([0.5])
        ops.sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0, iteration=0)
        assert p.vel[0] == pytest.approx(-0.05)
        assert p.data[0] == pytest.approx(0.95)

    def test_two_identical_steps_momentum(self):
        p = self._param(1.0)
        for _ in range(2):
            p.grad = np.array([0.5])
            ops.sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0, iteration=0)
        assert p.vel[0] == pytest.approx(-0.05 * 1.9)

    def test_decay_only_step(self):
        p = self._param(1.0)
        p.grad = np.array([0.0])
        ops.sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0005, iteration=0)
        assert p.vel[0] == pytest.approx(-0.1 * 0.0005)

    def test_decay_flag_exempts_biases(self):
        p = self._param(1.0)
        p.decay = False
        p.grad = np.array([0.0])
        ops.sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0005, iteration=0)
        assert p.data[0] == 1.0

    def test_lr_zero_is_noop(self):
        p = self._param(2.0)
        for _ in range(3):
            p.grad = np.array([1.25])
            ops.sgd_step([p], lr=0.0, momentum=0.9, weight_decay=0.0005, iteration=0)
        assert p.data[0] == 2.0
        assert p.vel[0] == 0.0

    def test_nonfinite_gradient_aborts_with_name_and_iteration(self):
        p = self._param(1.0)
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError, match=r"'p'.*iteration 17"):
            ops.sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0, iteration=17)

    def test_grad_cleared_after_step(self):
        p = self._param(1.0)
        p.grad = np.array([0.5])
        ops.sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0, iteration=0)
        assert p.grad is None


class TestGradCheck:
    def test_quadratic_passes(self):
        x = np.array([1.0, -2.0, 3.0])
        report = grad_check(lambda: float((x ** 2).sum() / 2), {"x": (x, x.copy())})
        assert report.passed

    def test_zero_fragment_passes(self):
        x = np.zeros(4)
        report = grad_check(lambda: float((x ** 2).sum() / 2), {"x": (x, x.copy())})
        assert report.passed
        assert report.max_abs["x"] <= 1e-9

    def test_wrong_gradient_fails(self):
        x = np.array([1.0, -2.0, 3.0])
        report = grad_check(lambda: float((x ** 2).sum() / 2), {"x": (x, 2.0 * x)})
        assert not report.passed
        assert report.failures == ["x"]

    def test_nan_gradient_fails(self):
        x = np.array([1.0, -2.0, 3.0])
        report = grad_check(lambda: float((x ** 2).sum() / 2),
                            {"x": (x, np.array([np.nan, -2.0, 3.0]))})
        assert not report.passed
        assert report.failures == ["x"]
        assert np.isnan(report.worst_rel())

    def test_tensors_restored_after_check(self):
        x = np.array([1.0, -2.0, 3.0])
        before = x.copy()
        grad_check(lambda: float((x ** 2).sum() / 2), {"x": (x, x.copy())})
        np.testing.assert_array_equal(x, before)

    def test_gradient_shape_checked(self):
        x = np.array([1.0, -2.0, 3.0])
        with pytest.raises(ShapeError, match=r"gradient shape \(2,\) != tensor shape \(3,\) for 'x'"):
            grad_check(lambda: 0.0, {"x": (x, np.zeros(2))})
