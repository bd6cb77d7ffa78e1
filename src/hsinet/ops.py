"""Differentiable layer primitives on (batch, channel, height, width)-shaped arrays.

Every op takes and returns NCHW shapes, whatever the memory order. Training
activations are held channel-major: a contiguous (channel, batch, height,
width) buffer passed around as its NCHW-shaped transposed view. Then
`_rows(a)`, each channel as one contiguous row of n*h*w values, is a free
view: a 1x1 convolution is one GEMM over the rows and batch norm reduces
along them. An op handed an NCHW-contiguous array gives bit-identical
results, after one copy into rows where it needs them. Every per-channel sum
(the batch statistics, the conv bias gradient, the batch-norm backward sums)
and the 1x1 weight gradient (one GEMM) run along whole rows, so in float64
they round differently from a per-sample NCHW sum.

A k > 1 convolution is one GEMM over patch columns (`_columns`, im2col): an
(n*h*w, k*k*c) matrix, one row per output pixel, holding the zero-padded
input's k x k taps in ring order (center, 3x3 ring, 5x5 ring) with each tap's
channels side by side; the kernel is reordered to match. An array input gets
fresh columns on every call. A `Columns` handed to conv2d_forward and
conv2d_backward in the input's place holds a set of them for the bank's
largest kernel, and every bank conv, the 1x1 one included, reads a prefix
view of its own taps, which come first in ring order, with the matching head
of its ring-ordered kernel. Training builds the 5x5 columns of its patches
(`patch_columns`) once, into a `Workspace` reused from step to step. An eval
forward needs each patch's center output alone: its Columns hold one row per
patch, the center row of the 5x5 columns cut to the taps inside the patch
(`center_taps`; PatchBatcher.centers gathers them from the cube), and report
the (n, c, 1, 1) shape of that output. A tap outside the patch would read 0.

Parameters live in the training dtype (float32 by default). Every reduction
accumulates in float64 and the result is cast back to the storage dtype, so
one code path serves both float32 training and float64 gradient checking.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, NumericError, ShapeError

KERNEL_SIZES = (1, 3, 5)
BN_MOMENTUM = 0.1   # weight of the batch statistics in the running averages
BN_EPS = 1e-5       # added to every variance before its inverse square root


def _f64(a):
    return np.asarray(a, dtype=np.float64)


def _channel_major64(a):
    """An (n, c, h, w) array in float64, held channel-major; no copy when it
    already is both."""
    return np.asarray(a.transpose(1, 0, 2, 3), dtype=np.float64, order="C").transpose(1, 0, 2, 3)


def _rows(a):
    """The (c, n*h*w) rows of an (n, c, h, w) array: a view when `a` is held
    channel-major, a copy otherwise."""
    return a.transpose(1, 0, 2, 3).reshape(a.shape[1], -1)


def _check_4d(a, what):
    if a.ndim != 4:
        raise ShapeError(f"{what} must be 4-D (n, c, h, w), got shape {a.shape}")


@dataclass
class Param:
    """Named trainable tensor with its momentum buffer and weight-decay flag.

    `grad` is filled by the layer backward passes and consumed (then cleared)
    by `sgd_step`.
    """

    name: str
    data: np.ndarray
    vel: np.ndarray | None = None
    decay: bool = True
    grad: np.ndarray | None = None

    def __post_init__(self):
        if self.vel is None:
            self.vel = np.zeros_like(self.data)


@dataclass
class ConvParams:
    """Same-padded square convolution: weights (out_c, in_c, k, k), bias (out_c,)."""

    w: Param
    b: Param


@dataclass
class BatchNormParams:
    """Per-channel affine batch normalization with running statistics."""

    scale: Param
    shift: Param
    running_mean: np.ndarray
    running_var: np.ndarray


def make_conv_params(name, in_c, out_c, k, dtype=np.float32):
    """Allocate zeroed convolution parameters; k must be 1, 3, or 5."""
    if k not in KERNEL_SIZES:
        raise ConfigError(f"conv '{name}': kernel size {k} not in {KERNEL_SIZES}")
    if in_c < 1 or out_c < 1:
        raise ConfigError(f"conv '{name}': channel counts must be positive")
    w = Param(f"{name}.w", np.zeros((out_c, in_c, k, k), dtype=dtype))
    b = Param(f"{name}.b", np.zeros(out_c, dtype=dtype), decay=False)
    return ConvParams(w=w, b=b)


def make_batchnorm_params(name, channels, dtype=np.float32):
    if channels < 1:
        raise ConfigError(f"batchnorm '{name}': channel count must be positive")
    return BatchNormParams(
        scale=Param(f"{name}.scale", np.ones(channels, dtype=dtype)),
        shift=Param(f"{name}.shift", np.zeros(channels, dtype=dtype)),
        running_mean=np.zeros(channels, dtype=dtype),
        running_var=np.ones(channels, dtype=dtype),
    )


def _conv_check(p, a, what):
    """`a` is 4-D and carries the conv's input channels (what="input") or
    output channels (what="grad_out")."""
    w = p.w.data
    if a.ndim != 4 or a.shape[1] != w.shape[what == "input"]:
        raise ShapeError(
            f"conv '{p.w.name}': {what} shape {a.shape} does not match weight shape {w.shape}"
        )


def _ring(k):
    """The taps (dy, dx) of a k x k kernel in ring order: the center, then by
    ring distance max(|dy - r|, |dx - r|), r = k // 2, row by row within a
    ring. The first 9 taps of the 5x5 order are the 3x3 kernel's."""
    r = k // 2
    return sorted(np.ndindex(k, k), key=lambda t: (max(abs(t[0] - r), abs(t[1] - r)), t))


# per kernel size: each ring-order tap's index dy * k + dx, each kernel tap's place
# in ring order, and the build's runs (first tap, dy, dx, length) of taps side by
# side in a kernel row: along a run, dy and dx minus the tap's place stay fixed
_RING = {k: np.array([dy * k + dx for dy, dx in _ring(k)]) for k in KERNEL_SIZES}
_PLACE = {k: np.argsort(ring) for k, ring in _RING.items()}
_RUNS = {k: [(t, dy, dx, 1 + len(rest)) for _, ((t, (dy, dx)), *rest)
             in groupby(enumerate(_ring(k)), lambda e: (e[1][0], e[1][1] - e[0]))]
         for k in KERNEL_SIZES}
# the largest kernel's taps in ring order, as (dy, dx) offsets from its center
_CENTER_TAPS = np.array(_ring(KERNEL_SIZES[-1])) - KERNEL_SIZES[-1] // 2


def _columns(a, k, workspace=None):
    """The (n*h*w, k*k*c) patch columns of `a` for a k x k kernel: one row per
    output pixel in (n, y, x) order, holding the taps in ring order (`_ring`),
    each tap's c channels side by side; a tap off the input reads 0. They are
    copied from a zero-padded, pixel-major float64 copy of `a`, a run of taps
    at a time, into `workspace` when one is given, else into fresh memory."""
    n, c, h, w = a.shape
    r = k // 2
    padded = np.zeros((n, h + 2 * r, w + 2 * r, c))
    padded[:, r:r + h, r:r + w] = a.transpose(0, 2, 3, 1)
    rows = sliding_window_view(padded, k, axis=2)  # (n, y, x, c, dx): a row of k taps
    size = n * h * w * k * k * c
    out = np.empty(size) if workspace is None else workspace.take(size)
    cols = out.reshape(n, h, w, k * k, c)
    for t, dy, dx, m in _RUNS[k]:
        cols[:, :, :, t:t + m] = rows[:, dy:dy + h, :, :, dx:dx + m].transpose(0, 1, 2, 4, 3)
    return out.reshape(n * h * w, k * k * c)


class Workspace:
    """A float64 buffer for patch columns that grows to the largest set and
    is then reused, so a training step maps no fresh pages for its columns.
    Each build overwrites the one before it; `builds` counts them, so a set
    read after a later build raises instead of returning another step's
    columns. One training run holds one (trainer._train)."""

    def __init__(self):
        self.buffer = np.empty(0)
        self.builds = 0

    def take(self, size):
        """The first `size` values of the buffer, grown to fit, for a new build."""
        if self.buffer.size < size:
            self.buffer = np.empty(0)  # free the old before allocating
            self.buffer = np.empty(size)
        self.builds += 1
        return self.buffer[:size]


class Columns:
    """Patch columns handed to a conv in its input's place: an (m, t*c) float64
    matrix, one row per output pixel, of t taps in ring order, each tap's c
    channels side by side. It reports `shape`, the (n, c, h, w) shape of the
    input whose output pixels the rows are, with its ndim and size, and `dtype`,
    which the conv outputs take, so shape checks and work counters read it as
    that input. Built into a `workspace`, it raises if read after a later build."""

    def __init__(self, columns, shape, dtype, workspace=None):
        self.columns, self.shape, self.dtype = columns, tuple(shape), np.dtype(dtype)
        self.ndim, self.size = len(self.shape), len(columns) * self.shape[1]  # c per output pixel
        self.workspace, self.build = workspace, None if workspace is None else workspace.builds

    def taps(self, k):
        """The columns for kernel size k: a view of the set's first k*k taps, all
        of them when the set holds fewer."""
        if self.workspace is not None and self.build != self.workspace.builds:
            raise RuntimeError("patch columns read after a later build overwrote them")
        return self.columns[:, :k * k * self.shape[1]]


def patch_columns(x, workspace=None):
    """The Columns of a conv input x for the bank's largest kernel K =
    KERNEL_SIZES[-1], built once (into `workspace` when one is given) for every
    bank conv: in ring order, a k x k kernel's taps are the set's first k*k."""
    return Columns(_columns(x, KERNEL_SIZES[-1], workspace), x.shape, x.dtype, workspace)


def center_taps(patch):
    """The (dy, dx) offsets from a patch's center of the taps an eval row holds,
    as a (t, 2) array: the first t = min(patch, K)**2 taps of the bank's largest
    kernel K in ring order, those inside the patch."""
    return _CENTER_TAPS[:min(patch, KERNEL_SIZES[-1]) ** 2].copy()


def _correlate(a, w):
    """Bias-free same-padded correlation with the kernel w, in float64:

    out[n,o,y,x] = sum_{c,dy,dx} w[o,c,dy,dx] * a_pad[n,c,y+dy,x+dx]

    A k > 1 kernel, or any kernel on Columns, is one GEMM over the patch
    columns of `a`, which may be its Columns, summing over (tap, channel): the
    kernel's first taps in ring order, as many as the columns hold. A 1x1
    kernel on an array reads its rows. The result is held channel-major.
    """
    n, _, h, wd = a.shape
    out_c, c, k, _ = w.shape
    if k == 1 and not isinstance(a, Columns):  # a per-pixel channel mix: one GEMM
        out = _f64(w[:, :, 0, 0]) @ _rows(_channel_major64(a))
    else:  # np.take copies the kernel into the columns' order, C-contiguous whatever
        # its memory order, so the GEMM sees the same operands and gives the same bits
        cols = a.taps(k) if isinstance(a, Columns) else _columns(a, k)
        taps = _RING[k][:cols.shape[1] // c]
        w_ring = np.take(w.reshape(out_c, c, k * k).transpose(0, 2, 1), taps, axis=1)
        out = _f64(w_ring).reshape(out_c, -1) @ cols.T
    return out.reshape(out_c, n, h, wd).transpose(1, 0, 2, 3)


def conv2d_forward(x, p):
    """Zero-padded "same" convolution: the correlation of x with w, plus b.
    x may be the Columns of the input (patch_columns), or those of an eval
    batch's center rows, whose center output it is."""
    _conv_check(p, x, "input")
    out = _correlate(x, p.w.data)
    out += _f64(p.b.data)[None, :, None, None]
    return out.astype(np.result_type(x.dtype, p.w.data.dtype), copy=False)


def conv2d_backward(x, p, grad_out):
    """Parameter gradients of conv2d_forward; returns (grad_w, grad_b).

    x may be the Columns the forward read. The input gradient is
    conv2d_input_grad, which a layer reading the data itself does not need.
    """
    _conv_check(p, x, "input")
    w = p.w.data
    out_c, _, k, _ = w.shape
    n, _, h, wd = x.shape
    if grad_out.shape != (n, out_c, h, wd):
        raise ShapeError(
            f"conv '{p.w.name}': grad_out shape {grad_out.shape} does not match "
            f"output shape {(n, out_c, h, wd)}"
        )
    g64 = _channel_major64(grad_out)
    g_rows = _rows(g64)
    grad_b = g_rows.sum(axis=1)
    if k == 1 and not isinstance(x, Columns):  # one GEMM over all n*h*w pixels
        grad_w = (g_rows @ _rows(_channel_major64(x)).T).reshape(w.shape)
    else:  # a (tap, channel) gradient, its taps put back in the kernel's order
        cols = x.taps(k) if isinstance(x, Columns) else _columns(x, k)
        g_ring = (g_rows @ cols).reshape(out_c, k * k, -1)
        grad_w = np.take(g_ring, _PLACE[k], axis=1).transpose(0, 2, 1).reshape(w.shape)
    return grad_w.astype(w.dtype, copy=False), grad_b.astype(p.b.data.dtype, copy=False)


def conv2d_input_grad(p, grad_out):
    """Input gradient of conv2d_forward, in the dtype of grad_out: the same-padded
    correlation of grad_out with the (out, in)-transposed, spatially flipped kernel.
    """
    _conv_check(p, grad_out, "grad_out")
    flipped = p.w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    return _correlate(grad_out, flipped).astype(grad_out.dtype, copy=False)


def _bn_check(x, p):
    _check_4d(x, "batchnorm input")
    c = p.scale.data.shape[0]
    if x.shape[1] != c:
        raise ShapeError(
            f"batchnorm '{p.scale.name}': input shape {x.shape} does not match "
            f"channel count {c}"
        )


def batchnorm_forward(x, p, training):
    """Normalize per channel over (n, h, w); train mode updates running stats.

    Training uses batch statistics (population variance) and folds them into
    the running estimates by exponential moving average, and returns
    (out, x̂, 1/σ): x̂ (held channel-major) and 1/σ in float64 are the
    statistics batchnorm_backward reads. Eval uses the running estimates and
    returns out alone.
    """
    _bn_check(x, p)
    if training:
        if x.shape[0] * x.shape[2] * x.shape[3] == 1:
            raise DataError(
                f"batchnorm '{p.scale.name}': cannot compute batch statistics over a "
                "single value (n*h*w == 1) in training mode"
            )
        # the one float64 copy, channel-major; every later pass works in place
        x64 = x.transpose(1, 0, 2, 3).astype(np.float64, order="C").transpose(1, 0, 2, 3)
        count = x.shape[0] * x.shape[2] * x.shape[3]
        rows = _rows(x64)
        mean = rows.sum(axis=1) / count
        rows -= mean[:, None]
        out = np.square(x64)
        var = _rows(out).sum(axis=1) / count
        m = BN_MOMENTUM
        p.running_mean[...] = ((1.0 - m) * _f64(p.running_mean) + m * mean).astype(
            p.running_mean.dtype
        )
        p.running_var[...] = ((1.0 - m) * _f64(p.running_var) + m * var).astype(
            p.running_var.dtype
        )
    else:
        x64 = x.astype(np.float64)  # eval: the one float64 copy, in the input's order
        x64 -= _f64(p.running_mean).reshape(1, -1, 1, 1)
        out = x64  # eval keeps no x̂, so the output overwrites it
        var = _f64(p.running_var)
    inv = (1.0 / np.sqrt(var + BN_EPS)).reshape(1, -1, 1, 1)
    x64 *= inv  # x̂
    np.multiply(x64, _f64(p.scale.data)[None, :, None, None], out=out)
    out += _f64(p.shift.data)[None, :, None, None]
    out = out.astype(np.result_type(x.dtype, p.scale.data.dtype), copy=False)
    return (out, x64, inv) if training else out


def batchnorm_backward(xhat, inv, p, grad_out):
    """Gradient of the training-mode forward; returns (grad_x, grad_scale, grad_shift).

    `xhat` and `inv` are the x̂ and 1/σ of the training-mode forward pass;
    grad_x is in the dtype of grad_out.
    """
    _bn_check(xhat, p)
    if grad_out.shape != xhat.shape:
        raise ShapeError(
            f"batchnorm '{p.scale.name}': grad_out shape {grad_out.shape} does not "
            f"match input shape {xhat.shape}"
        )
    n, c, h, w = xhat.shape
    count = n * h * w
    g = _rows(_channel_major64(grad_out))
    xr = _rows(xhat)
    g_sum = g.sum(axis=1, keepdims=True)
    t = g * xr
    gxhat_sum = t.sum(axis=1, keepdims=True)
    np.multiply(xr, gxhat_sum / count, out=t)
    gx = g - g_sum / count
    gx -= t
    gx *= _f64(p.scale.data)[:, None] * inv.reshape(c, 1)
    grad_scale = gxhat_sum.reshape(-1)
    grad_shift = g_sum.reshape(-1)
    return (
        gx.reshape(c, n, h, w).transpose(1, 0, 2, 3).astype(grad_out.dtype, copy=False),
        grad_scale.astype(p.scale.data.dtype, copy=False),
        grad_shift.astype(p.shift.data.dtype, copy=False),
    )


def relu(x):
    return np.maximum(x, 0)


def relu_backward(x, grad_out):
    """Gradient gated at x > 0; the gradient at exactly 0 is 0."""
    if grad_out.shape != x.shape:
        raise ShapeError(f"relu: grad_out shape {grad_out.shape} != input shape {x.shape}")
    return grad_out * (x > 0)


def dropout(x, rate, training, rng=None):
    """Inverted dropout; returns (output, keep_mask).

    Training zeroes each element with probability `rate` and scales survivors
    by 1/(1-rate) so eval is the identity. The mask is drawn from `rng`; eval
    returns x itself and no mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training:
        return x, None
    if rate == 0.0:
        return x, np.ones(x.shape, dtype=bool)
    if rng is None:
        raise ConfigError("dropout in training mode requires an rng")
    # the mask takes the memory order of x, so both products run contiguously
    mask = np.greater_equal(rng.random(x.shape), rate, out=np.empty_like(x, dtype=bool))
    return _masked(x, mask, rate), mask


def dropout_backward(grad_out, mask, rate):
    if grad_out.shape != mask.shape:
        raise ShapeError(f"dropout: grad_out shape {grad_out.shape} != mask shape {mask.shape}")
    return _masked(grad_out, mask, rate)


def _masked(a, mask, rate):
    """(a * mask) * (1 / (1 - rate)), in the memory order of `a`."""
    out = np.multiply(a, mask, out=np.empty_like(a))
    out *= 1.0 / (1.0 - rate)
    return out


def softmax_cross_entropy(logits, labels):
    """Mean negative log-softmax at the label index; returns (loss, grad_logits).

    Logits are shaped (n, classes); the gradient is (softmax - onehot) / n, in
    the same shape. Max-subtraction keeps the exponentials stable.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (n, classes), got {logits.shape}")

    n, n_classes = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch size {n}")
    bad = (labels < 0) | (labels >= n_classes)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise DataError(f"label {int(labels[i])} at index {i} out of range [0, {n_classes})")

    z = _f64(logits)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(n)
    loss = -logp[rows, labels].mean()
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad /= n
    return float(loss), grad.astype(logits.dtype, copy=False)


def sgd_step(params, lr, momentum, weight_decay, iteration):
    """Momentum SGD update at training iteration `iteration` over params
    carrying a filled `.grad`.

    v <- momentum*v - lr*(g + weight_decay*w); w <- w + v. Weight decay is
    skipped for params flagged decay=False (biases). A missing or non-finite
    gradient aborts with the parameter name and the iteration.
    """
    for p in params:
        g = p.grad
        if g is None:
            raise ConfigError(f"parameter '{p.name}' has no gradient at iteration {iteration}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter '{p.name}' "
                               f"at iteration {iteration}")
        if weight_decay and p.decay:
            g = g + weight_decay * p.data
        p.vel *= momentum
        p.vel -= lr * g
        p.data += p.vel
        p.grad = None
