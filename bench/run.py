"""hsinet benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload finetune_hires --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
Set-up runs SETUPS times (setup_s is their median), one warm-up episode fills
the caches and records the reference digest and accuracies, and then episodes
repeat until --seconds have passed. With --trace 1, episodes alternate
untraced and traced, and the per-layer metrics are medians over the traced
ones.

Rates are reported per reference time ("ref"): the time a fixed computation
in the benchmark's own code takes (hsibench_workloads.reference_s), a
convolution for training and classifying and a memory pass for ENVI reads and
checkpoint round trips. Both are timed before the first phase of every
episode and after each phase. The rate of each timed call (a training run, a
classification, a round of ENVI reads, a checkpoint round trip) is its work
over its wall time, times the median of its episode's five reference times,
and each metric is the median of that over the run's calls. On a shared
virtual machine the CPU speed drifts over periods of seconds to minutes (on a
2-vCPU Xeon VM, the same training call took from 0.43 to 0.56 s in different
10 s spans of one four-minute run), and the reference slows with the program:
over ten seeds per workload on that VM, the quartile spread of each rate was
0.018-0.072 of its median per ref and 0.049-0.112 per second. No change to
hsinet alters the references, so a faster program reads higher per ref. The
report line keeps the rates per second too, and the median, upper quartile,
range and sample count of every metric.

The second-to-last stdout line is a report (environment, working set, check
counts, per-metric sample spreads); the last line is the result object.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 21
MIN_EPISODES = 4


def _import_package():
    src = ROOT / "src"
    if not (src / "hsinet" / "__init__.py").is_file():
        sys.exit(f"bench: no hsinet package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import hsinet
    if Path(hsinet.__file__).resolve().parent != (src / "hsinet").resolve():
        sys.exit(f"bench: imported hsinet from {hsinet.__file__}, not from {src}")


def _git_commit():
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _llc_bytes():
    """Size of the last-level cache of cpu0, from sysfs; None where unavailable."""
    best = (0, None)
    for d in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((d / "level").read_text())
            size = (d / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KMG")) * mult))
    return best[1]


def environment():
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc_bytes": _llc_bytes(),
        "git_commit": _git_commit(),
        "io_rates": "page-cache rates: the benchmark reads files it has just written "
                    "and does not drop the file cache",
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _spread(samples):
    return {k: {"median": _median(v), "n": len(v), "min": min(v), "max": max(v),
                "q3": statistics.quantiles(v, n=4)[2] if len(v) > 1 else v[0]}
            for k, v in samples.items() if v}


# (metric, unit, phase, reference): work done per second of a phase's calls,
# scaled by the reference time that follows the phase's kind of work
RATES = (
    ("train_samples", "1", "train", "compute"),
    ("eval_pixels", "1", "eval", "compute"),
    ("scene_load_MB", "MB", "load", "memory"),
    ("ckpt_roundtrip_MB", "MB", "ckpt", "memory"),
)


def end_to_end(episodes, setup_times, peak_rss_mb):
    """Median per-ref rates over the timed calls, the median set-up time and the peak RSS."""
    samples = {}
    metrics = {}
    for name, unit, phase, ref in RATES:
        scale = 1e-6 if unit == "MB" else 1.0
        calls = [(work * scale / t, e[ref + "_ref_s"]) for e in episodes for work, t in e[phase]]
        per_s = [r for r, _ in calls]
        per_ref = [r * ref_s for r, ref_s in calls]
        samples[name + "_per_s"] = per_s
        samples[name + "_per_ref"] = per_ref
        metrics[name + "_per_ref"] = {"value": _median(per_ref), "unit": unit + "/ref"}
    for ref in ("compute", "memory"):
        samples[ref + "_ref_ms"] = [e[ref + "_ref_s"] * 1e3 for e in episodes]
    metrics["setup_s"] = {"value": _median(setup_times), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    samples["setup_s"] = setup_times
    return metrics, samples


LAYER_UNITS = (("gmac_per_s", "GMAC/s"), ("gmac", "GMAC"), ("gbytes", "GB"), ("_MBps", "MB/s"),
               ("_ms", "ms"), (".ms", "ms"), (".MB", "MB"), ("_frac", "ratio"))


def layer_unit(name):
    return next((u for suffix, u in LAYER_UNITS if name.endswith(suffix)), "count")


def per_layer(traced, untraced, setup_tracers, workload):
    """Medians over the traced episodes (and set-ups) of the per-layer metrics."""
    from hsibench_trace import Tracer, layer_metrics
    rows = [layer_metrics(tr) for tr, _ in traced]
    samples = {k: [r[k] for r in rows] for k in layer_metrics(Tracer())}
    for name in ("setup.synth", "setup.normalize"):
        samples[name + "_ms"] = [tr.totals()[name][0] * 1e3 for tr in setup_tracers]
    samples["work.train_samples"] = [workload.samples_per_episode()] * len(rows)
    samples["work.eval_pixels"] = [sum(n for n, _ in e["eval"]) for _, e in traced]
    # fastest traced over fastest untraced episode, as the untraced rates are taken
    samples["trace.overhead_frac"] = [
        min(e["wall_s"] for _, e in traced) / min(e["wall_s"] for e in untraced)
    ] if traced and untraced else []
    metrics = {k: {"value": _median(v), "unit": layer_unit(k)} for k, v in samples.items()}
    return metrics, samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    from hsibench_trace import Tracer, wrapped_attributes
    from hsibench_workloads import WORKLOADS, Checks, episode, setup, working_set
    from hsinet.errors import HsinetError

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload '{args.workload}' (have {sorted(WORKLOADS)})")
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)
    workroot = ROOT / ".bench_work" / f"{w.name}-{os.getpid()}"
    checks = Checks()
    untraced, traced, setup_times, setup_tracers = [], [], [], []
    try:
        for i in range(SETUPS):
            tracer = Tracer() if trace else None
            t0 = time.perf_counter()
            ctx = setup(w, args.seed, workroot / f"setup{i}", tracer)
            setup_times.append(time.perf_counter() - t0)
            if trace:
                setup_tracers.append(tracer)
        reference = {}
        originals = wrapped_attributes()
        try:
            episode(ctx, checks, reference)  # warm-up
            deadline = time.perf_counter() + args.seconds
            while (time.perf_counter() < deadline or len(untraced) < MIN_EPISODES
                   or (trace and len(traced) < MIN_EPISODES)):
                if trace and len(traced) < len(untraced):
                    tracer = Tracer()
                    with tracer.installed():
                        traced.append((tracer, episode(ctx, checks, reference, tracer)))
                    checks.check("trace_restored", wrapped_attributes() == originals)
                else:
                    untraced.append(episode(ctx, checks, reference))
        except HsinetError as e:
            print(f"bench: episode failed: {type(e).__name__}: {e}", file=sys.stderr)
            checks.check("episode_error", False)
        ws = working_set(ctx)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:
            pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        metrics, samples = per_layer(traced, untraced, setup_tracers, w)
    else:
        metrics, samples = end_to_end(untraced, setup_times, peak_rss_mb)
    env = environment()
    report = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "working_set": dict(ws, llc_bytes=env["llc_bytes"]),
        "episodes": {"untraced": len(untraced), "traced": len(traced)},
        "digest": reference.get("digest"), "accuracy": reference.get("accuracy"),
        "check_failures": checks.failures,
        "samples": _spread(samples),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
