"""Span tracer for the hsinet benchmark.

It times calls into the package's layers from outside the package: while
installed, it replaces the module and class attributes that hsinet looks up at
call time with wrappers that record a span (name, start, end, parent) and add
work counts computed from tensor shapes. Leaving the `installed()` block puts
every original attribute back, so untraced code runs exactly as shipped.
"""
from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import hsinet.checkpoint
import hsinet.data
import hsinet.envi
import hsinet.network
import hsinet.ops
import hsinet.trainer

CONV_GROUPS = ("c1x1", "c3x3", "c5x5", "c2", "shared", "head")
F64 = 8  # the ops compute in float64, so work bytes are counted at 8 per element


def conv_group(param_name):
    """Block group of a conv weight name: 'res2.conv1.w' -> 'shared', 'c9.w' -> 'head'."""
    block = param_name.rsplit(".", 1)[0]
    if block.startswith("res"):
        return "shared"
    if block in ("c7", "c8", "c9"):
        return "head"
    return block


def _conv_shapes(x, p):
    n, c, h, w = x.shape
    o, _, kh, kw = p.w.data.shape
    return n * o * h * w * c * kh * kw, x.size, p.w.data.size, n * o * h * w


def _count_conv_fwd(counts, result, x, p):
    macs, x_n, w_n, out_n = _conv_shapes(x, p)
    key = f"ops.conv.{conv_group(p.w.name)}.fwd"
    counts[key + ".mac"] += macs
    counts[key + ".bytes"] += F64 * (x_n + w_n + out_n)


def _count_conv_bwd(counts, result, x, p, grad_out):
    # weight gradient and input gradient each cost one forward's MACs
    macs, x_n, w_n, out_n = _conv_shapes(x, p)
    key = f"ops.conv.{conv_group(p.w.name)}.bwd"
    counts[key + ".mac"] += 2 * macs
    counts[key + ".bytes"] += F64 * (2 * x_n + 2 * w_n + out_n)


def _envi_data_path(header_path, data_path=None):
    return Path(header_path).with_suffix(".img") if data_path is None else Path(data_path)


def _count_envi(counts, result, header_path, data_path=None):
    counts["envi.load.bytes"] += os.path.getsize(_envi_data_path(header_path, data_path))


def _count_ckpt_save(counts, result, network, path, *args, **kwargs):
    counts["checkpoint.save.bytes"] += os.path.getsize(path)


def _count_ckpt_load(counts, result, path):
    counts["checkpoint.load.bytes"] += os.path.getsize(path)


def _targets():
    """(owner, attribute, span name or namer, counter) for every wrapped call."""
    ops, data, trainer = hsinet.ops, hsinet.data, hsinet.trainer
    elementwise = [(ops, a, "ops.elementwise", None) for a in
                   ("relu", "relu_backward", "dropout", "dropout_backward",
                    "softmax_cross_entropy")]
    return [
        (ops, "conv2d_forward",
         lambda x, p: f"ops.conv.{conv_group(p.w.name)}.fwd", _count_conv_fwd),
        (ops, "conv2d_backward",
         lambda x, p, g: f"ops.conv.{conv_group(p.w.name)}.bwd", _count_conv_bwd),
        (ops, "batchnorm_forward", "ops.bn.fwd", None),
        (ops, "batchnorm_backward", "ops.bn.bwd", None),
        (ops, "sgd_step", "ops.sgd", None),
        *elementwise,
        (hsinet.network.Network, "forward", "network.forward", None),
        (hsinet.network.Network, "backward", "network.backward", None),
        (data.PatchBatcher, "batch", "data.batch", None),
        # trainer imported augment_d4 by name, so its own attribute is the one looked up
        (trainer, "augment_d4", "data.augment", None),
        (trainer, "evaluate", "trainer.evaluate", None),
        # load_manifest calls data.load_envi; load_label_raster calls envi.load_envi
        (data, "load_envi", "envi.load", _count_envi),
        (hsinet.envi, "load_envi", "envi.load", _count_envi),
        (hsinet.checkpoint, "save_checkpoint", "checkpoint.save", _count_ckpt_save),
        (hsinet.checkpoint, "load_checkpoint", "checkpoint.load", _count_ckpt_load),
    ]


def wrapped_attributes():
    """Current value of every attribute the tracer replaces, keyed by (owner, name)."""
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in _targets()}


class Tracer:
    """In-memory spans and counts for one traced episode."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1)
        self.counts = defaultdict(float)
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, fn, namer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(namer(*args, **kwargs) if callable(namer) else namer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(self.counts, result, *args, **kwargs)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target attribute; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, namer, counter in _targets():
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrapper(orig, namer, counter))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def totals(self):
        """name -> (total seconds, self seconds, span count); self time is a
        span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            total, self_s, n = out.get(name, (0.0, 0.0, 0))
            out[name] = (total + end - start, self_s + end - start - child[i], n + 1)
        return out


def span(tracer, name):
    """A call-site span on `tracer`, or nothing when tracing is off."""
    return nullcontext() if tracer is None else tracer.span(name)


def layer_metrics(tracer):
    """Per-layer metrics of one traced episode (times in ms)."""
    tot = tracer.totals()
    c = tracer.counts

    def ms(name, field=0):
        return tot.get(name, (0.0, 0.0, 0))[field] * 1e3

    m = {}
    conv_s = conv_mac = conv_bytes = 0.0
    for g in CONV_GROUPS:
        group_bytes = 0.0
        for d in ("fwd", "bwd"):
            key = f"ops.conv.{g}.{d}"
            m[f"{key}_ms"] = ms(key)
            m[f"{key}_gmac"] = c[key + ".mac"] / 1e9
            conv_s += ms(key) / 1e3
            conv_mac += c[key + ".mac"]
            group_bytes += c[key + ".bytes"]
        m[f"ops.conv.{g}.gbytes"] = group_bytes / 1e9
        conv_bytes += group_bytes
    m["ops.conv.gmac"] = conv_mac / 1e9
    m["ops.conv.gbytes"] = conv_bytes / 1e9
    m["ops.conv.gmac_per_s"] = conv_mac / 1e9 / conv_s if conv_s else 0.0
    m["ops.bn.fwd_ms"] = ms("ops.bn.fwd")
    m["ops.bn.bwd_ms"] = ms("ops.bn.bwd")
    m["ops.sgd.ms"] = ms("ops.sgd")
    m["ops.sgd.calls"] = tot.get("ops.sgd", (0, 0, 0))[2]
    m["ops.elementwise_ms"] = ms("ops.elementwise")
    m["network.forward.self_ms"] = ms("network.forward", 1)
    m["network.backward.self_ms"] = ms("network.backward", 1)
    m["data.batch_ms"] = ms("data.batch")
    m["data.augment_ms"] = ms("data.augment")
    m["trainer.loop.self_ms"] = ms("trainer.loop", 1)
    m["trainer.evaluate_ms"] = ms("trainer.evaluate")
    m["envi.load_ms"] = ms("envi.load")
    m["envi.load_MBps"] = c["envi.load.bytes"] / 1e3 / m["envi.load_ms"] if m["envi.load_ms"] else 0.0
    m["checkpoint.save_ms"] = ms("checkpoint.save")
    m["checkpoint.load_ms"] = ms("checkpoint.load")
    saves = tot.get("checkpoint.save", (0, 0, 0))[2]
    m["checkpoint.MB"] = c["checkpoint.save.bytes"] / 1e6 / saves if saves else 0.0
    return m
