"""Finite-difference gradient oracles for every layer primitive and for the
full backbone, runnable from tests and from the `gradcheck` CLI subcommand.

All fixtures are float64; the scalar probe loss for layer checks is
sum(output^2) / 2, whose gradient at the output is the output itself. Each
check computes its analytic gradients once and hands `grad_check` a
loss-only closure for the perturbed evaluations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ShapeError
from .network import NetworkSpec, build_backbone

REL_TOL = 1e-3   # an element passes within this relative error ...
ABS_FLOOR = 1e-6  # ... or within this absolute error
ZERO_BOUND = 1e-10  # a gradient that is 0 by structure stays within this
STEP = 1e-3      # central-difference half width


@dataclass
class GradCheckReport:
    """Worst-case finite-difference errors per checked tensor; it passes with no failures."""

    max_rel: dict
    max_abs: dict
    failures: list

    @property
    def passed(self):
        return not self.failures

    def worst_rel(self):
        return float(np.max(list(self.max_rel.values()), initial=0.0))

    def worst_abs(self):
        return float(np.max(list(self.max_abs.values()), initial=0.0))


def grad_check(loss, tensors):
    """Compare analytic gradients against central finite differences.

    `tensors` maps each name to (live array, analytic gradient of `loss()`
    with respect to it); each array element is perturbed in place by +-STEP,
    `loss()` is evaluated at both points, and the element is restored. An
    element passes if its relative error is within REL_TOL or its absolute
    error is within ABS_FLOOR. The report keeps per-tensor maxima: the
    absolute error over every element, and the relative error over the
    elements outside ABS_FLOOR (0 if there are none), so a tensor fails
    exactly when its max_rel exceeds REL_TOL. A NaN error is outside every
    bound: it makes both maxima NaN and fails the tensor.
    """
    max_rel = {}
    max_abs = {}
    failures = []
    for name, (arr, grad) in tensors.items():
        analytic = np.asarray(grad, dtype=np.float64).ravel()
        if analytic.shape != (arr.size,):
            raise ShapeError(
                f"grad_check: gradient shape {np.shape(grad)} != tensor shape {arr.shape} "
                f"for '{name}'"
            )
        flat = arr.reshape(-1)
        worst_rel = 0.0
        worst_abs = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            lp = loss()
            flat[i] = orig - STEP
            lm = loss()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * STEP)
            a = analytic[i]
            abs_err = abs(a - numeric)
            worst_abs = np.maximum(worst_abs, abs_err)
            if not abs_err <= ABS_FLOOR:
                worst_rel = np.maximum(worst_rel, abs_err / max(abs(a), abs(numeric)))
        max_rel[name] = float(worst_rel)
        max_abs[name] = float(worst_abs)
        if not worst_rel <= REL_TOL:
            failures.append(name)
    return GradCheckReport(max_rel=max_rel, max_abs=max_abs, failures=failures)


def _sq_loss(out):
    return float((np.asarray(out, dtype=np.float64) ** 2).sum() / 2.0)


def check_conv(k, seed):
    rng = np.random.default_rng(seed)
    p = ops.make_conv_params(f"conv{k}x{k}", 3, 2, k, dtype=np.float64)
    p.w.data[...] = rng.normal(0, 0.5, p.w.data.shape)
    p.b.data[...] = rng.normal(0, 0.5, p.b.data.shape)
    x = rng.normal(0, 1, (2, 3, 5, 5))
    g = ops.conv2d_forward(x, p)
    gw, gb = ops.conv2d_backward(x, p, g)
    gx = ops.conv2d_input_grad(p, g)
    return grad_check(lambda: _sq_loss(ops.conv2d_forward(x, p)),
                      {"input": (x, gx), "w": (p.w.data, gw), "b": (p.b.data, gb)})


def check_batchnorm(seed):
    rng = np.random.default_rng(seed)
    p = ops.make_batchnorm_params("bn", 2, dtype=np.float64)
    p.scale.data[...] = rng.uniform(0.5, 1.5, 2)
    p.shift.data[...] = rng.normal(0, 0.5, 2)
    x = rng.normal(0, 1, (4, 2, 3, 3))
    out, xhat, inv = ops.batchnorm_forward(x, p, training=True)
    gx, gs, gsh = ops.batchnorm_backward(xhat, inv, p, out)

    def loss():
        run_m, run_v = p.running_mean.copy(), p.running_var.copy()
        out = ops.batchnorm_forward(x, p, training=True)[0]
        p.running_mean[...] = run_m  # keep side effects out of the probe
        p.running_var[...] = run_v
        return _sq_loss(out)

    return grad_check(loss, {"input": (x, gx), "scale": (p.scale.data, gs),
                             "shift": (p.shift.data, gsh)})


def check_relu(seed):
    rng = np.random.default_rng(seed)
    # keep values away from the kink so central differences are clean
    u = rng.uniform(-1, 1, (2, 3, 4, 4))
    x = np.sign(u) * (0.05 + np.abs(u))
    return grad_check(lambda: _sq_loss(ops.relu(x)),
                      {"input": (x, ops.relu_backward(x, ops.relu(x)))})


def check_dropout(seed):
    rng = np.random.default_rng(seed)
    rate = 0.5
    x = rng.normal(0, 1, (2, 3, 4, 4))
    _, mask = ops.dropout(x, rate, training=True, rng=np.random.default_rng(seed + 1))
    scale = 1.0 / (1.0 - rate)
    grad = ops.dropout_backward((x * mask) * scale, mask, rate)
    return grad_check(lambda: _sq_loss((x * mask) * scale), {"input": (x, grad)})


def check_softmax_ce(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0, 1, (8, 5))
    labels = rng.integers(0, 5, 8)
    _, grad = ops.softmax_cross_entropy(logits, labels)
    return grad_check(lambda: ops.softmax_cross_entropy(logits, labels)[0],
                      {"logits": (logits, grad)})


def _composition_point(net, rng):
    """Move the network to a generic, locally smooth parameter point.

    Central differences are only meaningful where the loss is smooth over the
    probe interval, so batch-norm shifts are pushed several units away from
    the ReLU kink (positive-only after the second residual convolution, where
    the skip add could otherwise cancel back to zero) and the head stays
    small enough that the softmax does not saturate.
    """
    res_conv2 = {mod.conv2 for mod in net.modules}
    for blk in net.blocks():
        w = blk.conv.w
        w.data[...] = rng.normal(0, 0.1 if blk is net.c9 else 0.5, w.data.shape)
        blk.conv.b.data[...] = rng.normal(0, 0.1, blk.conv.b.data.shape)
        if blk.with_bn:
            shape = blk.bn.scale.data.shape
            blk.bn.scale.data[...] = rng.uniform(0.8, 1.2, shape)
            sign = np.where(rng.random(shape) < 0.8, 1.0, -1.0)
            if blk in res_conv2:
                sign = np.ones(shape)
            blk.bn.shift.data[...] = sign * rng.normal(5.0, 0.5, shape)


def _kink_margin(net, x, seed):
    """Smallest |pre-activation| over every ReLU site for a given input."""
    net.forward(x, training=True, rng=np.random.default_rng(seed))
    margin = np.inf
    for blk in net.blocks():
        if blk.with_relu:
            margin = min(margin, float(np.abs(blk._pre_relu).min()))
    for mod in net.modules:
        margin = min(margin, float(np.abs(mod._pre_add).min()))
    return margin


def check_backbone(seed):
    rng = np.random.default_rng(seed)
    spec = NetworkSpec(bands=3, classes=3, patch=5, filters=4, residual_modules=2)
    net = build_backbone(spec, rng, dtype=np.float64)
    _composition_point(net, rng)
    labels = rng.integers(0, 3, 2)
    best_x, best_margin = None, -1.0
    for _ in range(20):
        x = rng.normal(0, 1, (2, 3, 5, 5))
        margin = _kink_margin(net, x, seed)
        if margin > best_margin:
            best_x, best_margin = x, margin
        if margin > 0.05:
            break

    def forward():
        # a reseeded rng freezes the dropout masks: every call is bit-identical
        logits = net.forward(best_x, training=True, rng=np.random.default_rng(seed))
        return ops.softmax_cross_entropy(logits, labels)

    net.backward(forward()[1])
    report = grad_check(lambda: forward()[0], {p.name: (p.data, p.grad) for p in net.params()})
    # batch norm removes a per-channel constant: the conv bias before it has gradient 0
    report.failures += [blk.conv.b.name for blk in net.blocks()
                        if blk.with_bn and np.abs(blk.conv.b.grad).max() > ZERO_BOUND]
    return report


def oracle_suite(seeds):
    """Run all layer oracles and the 9-layer backbone across seeds; returns
    (check_name, seed, GradCheckReport) triples."""
    results = []
    for seed in seeds:
        for k in (1, 3, 5):
            results.append((f"conv{k}x{k}", seed, check_conv(k, seed)))
        results.append(("batchnorm", seed, check_batchnorm(seed)))
        results.append(("relu", seed, check_relu(seed)))
        results.append(("dropout", seed, check_dropout(seed)))
        results.append(("softmax_ce", seed, check_softmax_ce(seed)))
        results.append(("backbone", seed, check_backbone(seed)))
    return results
