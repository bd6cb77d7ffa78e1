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


def test_bank_conv_counts_read_the_input_shape():
    """c3x3 and c5x5 get PatchColumns in x's place, which report x's shape, so
    the tracer counts their work as for the same convs on the plain input."""
    rng = np.random.default_rng(0)
    net = build_backbone(NetworkSpec(bands=4, classes=3, filters=4), rng)
    x = rng.normal(0, 1, (3, 4, 5, 5)).astype(np.float32)
    step = hsibench_trace.Tracer()
    with step.installed():
        net.forward(x, training=True, rng=rng, workspace=ops.Workspace())
        net.backward(np.ones((3, 3), dtype=np.float32))
    plain = hsibench_trace.Tracer()
    with plain.installed():
        for blk in net.bank[1:]:
            ops.conv2d_forward(x, blk.conv)
            ops.conv2d_backward(x, blk.conv, np.ones((3, 4, 5, 5), dtype=np.float32))
    keys = [f"ops.conv.{b}.{d}.{m}" for b in ("c3x3", "c5x5") for d in ("fwd", "bwd")
            for m in ("mac", "bytes")]
    assert all(step.counts[k] == plain.counts[k] > 0 for k in keys)
