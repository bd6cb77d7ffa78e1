"""Tests of the benchmark's own machinery: tracing parity, self time, work
counts, and agreement between what run.py emits and BENCHMARK.json."""
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hsinet.ops  # noqa: E402
from hsibench_trace import Tracer, layer_metrics, wrapped_attributes  # noqa: E402
from hsibench_workloads import WORKLOADS, Checks, Source, Workload, episode, setup  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run_module():
    spec = importlib.util.spec_from_file_location("hsibench_run", HERE / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def tiny(kind):
    sources = (Source("a", 3, 4, 12, 12, "bip", 2, 1, 3, 16),)
    if kind == "pretrain":
        sources += (Source("b", 3, 6, 10, 10, "bil", 4, 0, 3, 16),)
    return Workload(f"tiny_{kind}", kind, sources, filters=4, residual_modules=2,
                    batch=4, iters=2, step1_iters=1 if kind == "pretrain" else 0)


@pytest.mark.parametrize("kind", ["finetune", "pretrain", "classify"])
def test_traced_episode_matches_untraced_and_restores(tmp_path, kind):
    ctx = setup(tiny(kind), 3, tmp_path)
    checks, reference = Checks(), {}
    plain = episode(ctx, checks, reference)
    before = wrapped_attributes()
    tracer = Tracer()
    with tracer.installed():
        assert wrapped_attributes() != before
        traced = episode(ctx, checks, reference, tracer)
    assert wrapped_attributes() == before
    assert traced["digest"] == plain["digest"]
    assert traced["accuracy"] == plain["accuracy"]
    assert checks.failed == 0 and checks.attempted > 0
    again = episode(setup(tiny(kind), 3, tmp_path / "again"), Checks(), {})
    assert again["digest"] == plain["digest"]
    names = {s[0] for s in tracer.spans}
    assert {"ops.conv.c5x5.bwd", "ops.conv.shared.fwd", "ops.conv.head.bwd", "ops.bn.bwd",
            "ops.sgd", "network.forward", "data.batch", "data.augment", "trainer.loop",
            "trainer.evaluate", "envi.load", "checkpoint.save", "checkpoint.load"} <= names


def test_restores_attributes_when_the_traced_code_raises():
    before = wrapped_attributes()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert wrapped_attributes() == before


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    tr.spans = [("loop", 0.0, 10.0, -1), ("fwd", 1.0, 5.0, 0), ("conv", 2.0, 3.0, 1),
                ("fwd", 6.0, 8.0, 0)]
    tot = tr.totals()
    assert tot["loop"] == (10.0, 4.0, 1)
    assert tot["fwd"] == (6.0, 5.0, 2)
    assert tot["conv"] == (1.0, 1.0, 1)


def test_conv_work_counts_follow_shapes():
    p = hsinet.ops.make_conv_params("res1.conv2", 6, 5, 3)
    x = np.ones((2, 6, 4, 4), dtype=np.float32)
    tr = Tracer()
    with tr.installed():
        y = hsinet.ops.conv2d_forward(x, p)
        hsinet.ops.conv2d_backward(x, p, y)
    macs = 2 * 5 * 4 * 4 * 6 * 3 * 3
    assert tr.counts["ops.conv.shared.fwd.mac"] == macs
    assert tr.counts["ops.conv.shared.bwd.mac"] == 2 * macs
    assert tr.counts["ops.conv.shared.fwd.bytes"] == 8 * (x.size + p.w.data.size + y.size)
    m = layer_metrics(tr)
    assert m["ops.conv.gmac"] == pytest.approx(3 * macs / 1e9)


def test_emitted_metrics_match_benchmark_json(tmp_path):
    run = _run_module()
    w = tiny("pretrain")
    ctx = setup(w, 1, tmp_path)
    checks, reference = Checks(), {}
    untraced = [episode(ctx, checks, reference)]
    tracer = Tracer()
    with tracer.installed():
        traced = [(tracer, episode(ctx, checks, reference, tracer))]
    setup_tracer = Tracer()
    setup(w, 2, tmp_path / "again", setup_tracer)
    layers, _ = run.per_layer(traced, untraced, [setup_tracer], w)
    e2e, _ = run.end_to_end(untraced, [0.5], 100.0)
    declared_layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in layers.items()} == declared_layers
    assert {k: v["unit"] for k, v in e2e.items()} == declared_e2e
    assert all(v["value"] > 0 for v in e2e.values())
    assert [x["name"] for x in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                        "finetune_hires", "--seed", "0", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


def test_metric_map_covers_every_declared_name():
    mapping = json.loads((HERE / "metric_map.json").read_text())
    assert set(mapping["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(mapping["workloads"]) == set(WORKLOADS)
