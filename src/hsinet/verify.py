"""Finite-difference gradient oracles for every layer primitive and for the
full backbone, runnable from tests and from the `gradcheck` CLI subcommand.

All fixtures are float64; the scalar probe loss for layer checks is
sum(output^2) / 2, whose gradient at the output is the output itself.
"""
from __future__ import annotations

import numpy as np

from . import ops
from .network import NetworkSpec, build_backbone, check_network_gradients

REL_TOL = 1e-3
ABS_FLOOR = 1e-6
STEP = 1e-3


def _sq_loss(out):
    return float((np.asarray(out, dtype=np.float64) ** 2).sum() / 2.0)


def check_conv(k, seed):
    rng = np.random.default_rng(seed)
    p = ops.make_conv_params(f"conv{k}x{k}", 3, 2, k, dtype=np.float64)
    p.w.data[...] = rng.normal(0, 0.5, p.w.data.shape)
    p.b.data[...] = rng.normal(0, 0.5, p.b.data.shape)
    x = rng.normal(0, 1, (2, 3, 5, 5))

    def f():
        out = ops.conv2d_forward(x, p)
        gx, gw, gb = ops.conv2d_backward(x, p, out)
        return _sq_loss(out), {"input": gx, "w": gw, "b": gb}

    return ops.grad_check(
        f,
        {"input": x, "w": p.w.data, "b": p.b.data},
        rel_tol=REL_TOL,
        abs_floor=ABS_FLOOR,
        step=STEP,
        loss_fn=lambda: _sq_loss(ops.conv2d_forward(x, p)),
    )


def check_batchnorm(seed):
    rng = np.random.default_rng(seed)
    p = ops.make_batchnorm_params("bn", 2, dtype=np.float64)
    p.scale.data[...] = rng.uniform(0.5, 1.5, 2)
    p.shift.data[...] = rng.normal(0, 0.5, 2)
    x = rng.normal(0, 1, (4, 2, 3, 3))

    def loss_only():
        run_m, run_v = p.running_mean.copy(), p.running_var.copy()
        out = ops.batchnorm_forward(x, p, training=True)
        p.running_mean[...] = run_m  # keep side effects out of the probe
        p.running_var[...] = run_v
        return _sq_loss(out)

    def f():
        out = ops.batchnorm_forward(x, p, training=True)
        gx, gs, gsh = ops.batchnorm_backward(x, p, out)
        return _sq_loss(out), {"input": gx, "scale": gs, "shift": gsh}

    return ops.grad_check(
        f,
        {"input": x, "scale": p.scale.data, "shift": p.shift.data},
        rel_tol=REL_TOL,
        abs_floor=ABS_FLOOR,
        step=STEP,
        loss_fn=loss_only,
    )


def check_relu(seed):
    rng = np.random.default_rng(seed)
    # keep values away from the kink so central differences are clean
    u = rng.uniform(-1, 1, (2, 3, 4, 4))
    x = np.sign(u) * (0.05 + np.abs(u))

    def f():
        out = ops.relu(x)
        return _sq_loss(out), {"input": ops.relu_backward(x, out)}

    return ops.grad_check(
        f, {"input": x}, rel_tol=REL_TOL, abs_floor=ABS_FLOOR, step=STEP,
        loss_fn=lambda: _sq_loss(ops.relu(x)),
    )


def check_dropout(seed, rate=0.5):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (2, 3, 4, 4))
    _, mask = ops.dropout(x, rate, training=True, rng=np.random.default_rng(seed + 1))
    scale = 1.0 / (1.0 - rate)

    def f():
        out = (x * mask) * scale
        return _sq_loss(out), {"input": ops.dropout_backward(out, mask, rate)}

    return ops.grad_check(
        f, {"input": x}, rel_tol=REL_TOL, abs_floor=ABS_FLOOR, step=STEP,
        loss_fn=lambda: _sq_loss((x * mask) * scale),
    )


def check_softmax_ce(seed, rel_tol=REL_TOL):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0, 1, (8, 5))
    labels = rng.integers(0, 5, 8)

    def f():
        loss, grad = ops.softmax_cross_entropy(logits, labels)
        return loss, {"logits": grad}

    return ops.grad_check(
        f, {"logits": logits}, rel_tol=rel_tol, abs_floor=ABS_FLOOR, step=STEP,
        loss_fn=lambda: ops.softmax_cross_entropy(logits, labels)[0],
    )


def _composition_point(net, rng):
    """Move the network to a generic, locally smooth parameter point.

    Central differences are only meaningful where the loss is smooth over the
    probe interval, so batch-norm shifts are pushed several units away from
    the ReLU kink (positive-only after the second residual convolution, where
    the skip add could otherwise cancel back to zero) and the head stays
    small enough that the softmax does not saturate.
    """
    for blk in net.blocks():
        w = blk.conv.w
        w.data[...] = rng.normal(0, 0.1 if blk.name == "c9" else 0.5, w.data.shape)
        blk.conv.b.data[...] = rng.normal(0, 0.1, blk.conv.b.data.shape)
        if blk.with_bn:
            shape = blk.bn.scale.data.shape
            blk.bn.scale.data[...] = rng.uniform(0.8, 1.2, shape)
            sign = np.where(rng.random(shape) < 0.8, 1.0, -1.0)
            if blk.name.startswith("res") and blk.name.endswith("conv2"):
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
    return check_network_gradients(net, best_x, labels, rel_tol=REL_TOL,
                                   abs_floor=ABS_FLOOR, step=STEP, rng_seed=seed)


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
