"""bench/hsibench_trace.py's conv work counts on a traced training step."""
import importlib.util
from pathlib import Path

import numpy as np

from hsinet import ops
from hsinet.network import NetworkSpec, build_backbone

_PATH = Path(__file__).resolve().parent.parent / "bench" / "hsibench_trace.py"
_spec = importlib.util.spec_from_file_location("hsibench_trace", _PATH)
hsibench_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hsibench_trace)


def test_bank_conv_counts_read_the_input_shape(monkeypatch):
    """Every bank conv, c1x1 included, gets the ops.Columns of x in x's place,
    which report x's shape, so the tracer counts their work as for the same
    convs on the plain input."""
    rng = np.random.default_rng(0)
    net = build_backbone(NetworkSpec(bands=4, classes=3, filters=4), rng)
    x = rng.normal(0, 1, (3, 4, 5, 5)).astype(np.float32)
    inputs, forward = [], ops.conv2d_forward
    monkeypatch.setattr(ops, "conv2d_forward", lambda a, p: inputs.append(a) or forward(a, p))
    step = hsibench_trace.Tracer()
    with step.installed():
        net.forward(x, training=True, rng=rng, workspace=ops.Workspace())
        net.backward(np.ones((3, 3), dtype=np.float32))
    assert [type(a) for a in inputs[:3]] == [ops.Columns] * 3
    plain = hsibench_trace.Tracer()
    with plain.installed():
        for blk in net.bank:
            ops.conv2d_forward(x, blk.conv)
            ops.conv2d_backward(x, blk.conv, np.ones((3, 4, 5, 5), dtype=np.float32))
    keys = [f"ops.conv.{b}.{d}.{m}" for b in ("c1x1", "c3x3", "c5x5") for d in ("fwd", "bwd")
            for m in ("mac", "bytes")]
    assert all(step.counts[k] == plain.counts[k] > 0 for k in keys)


def test_eval_bank_conv_counts_read_the_center_shape():
    """An eval forward hands every bank conv the ops.Columns of its batch,
    which report the (n, bands, 1, 1) shape of the center output, so each
    counts n * out * bands * k * k MACs."""
    rng = np.random.default_rng(1)
    n, bands, filters = 3, 4, 6
    net = build_backbone(NetworkSpec(bands=bands, classes=3, filters=filters), rng)
    x = rng.normal(0, 1, (n, bands, 5, 5))
    rows = ops._columns(x, 5).reshape(n, 5, 5, -1)[:, 2, 2]
    tracer = hsibench_trace.Tracer()
    with tracer.installed():
        net.forward(rows, training=False)
    for blk in net.bank:
        k = blk.conv.w.data.shape[-1]
        assert tracer.counts[f"ops.conv.{blk.name}.fwd.mac"] == n * filters * bands * k * k
