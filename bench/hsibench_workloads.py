"""Workloads of the hsinet benchmark: synthetic inputs written as ENVI rasters,
and one episode of the user workflow over them.

Set-up writes every dataset as ENVI files, reads them back through their
manifests, and splits and normalizes them. An episode reads every dataset
`reads` times through its manifest and checks it bit for bit, prepares the network
(transfer from a shared store, a fresh cross-domain build, or a checkpoint),
trains it for a fixed number of iterations on the set-up's split, saves and
reloads it, and classifies held-out pixels with the reloaded copy. Every step
is deterministic in the seed, so each episode of a run ends with the same
parameter digest.

Two fixed reference computations are timed before the first phase of an
episode and after each phase; the medians of these five times are the
episode's reference times (see `reference_s`).
"""
from __future__ import annotations

import hashlib
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import hsinet.checkpoint
import hsinet.data
import hsinet.trainer
from hsinet.data import SynthConfig
from hsinet.envi import DTYPE_CODES, HyperCube
from hsinet.network import (CrossDomainNetwork, CrossDomainSpec, NetworkSpec,
                            build_backbone, build_cross_domain, transfer_shared)
from hsinet.trainer import TrainSchedule

from hsibench_trace import span

# synthetic spectra lie in about [0, 2.5]; stored as integer counts like sensor data
DN_SCALE = 1000.0
PATCH = 5
BASE_LR = 0.01
ROUNDTRIPS = 8
EMPTY = np.empty(0, dtype=np.int64)


_REF_RNG = np.random.default_rng(20160311)
_REF_X = _REF_RNG.standard_normal((32, 96, 5, 5))
_REF_W = [_REF_RNG.standard_normal((64, 96, k, k)) for k in (3, 5)]
_REF_RAW = _REF_RNG.integers(-2000, 2000, size=(96, 96, 128), dtype=np.int16).tobytes()


def reference_s():
    """Seconds two fixed computations take right now, as (compute, memory).

    compute: a 3x3 and a 5x5 "same" convolution of a 32-patch, 96-band batch,
    written the way hsinet's kernels are (pad, sliding window, einsum).
    memory: three times, copy a 2.4 MB buffer, CRC it, and turn it from a
    big-endian int16 BIP cube into a float64 band-first one, the steps of an
    ENVI read and a checkpoint round trip. Both use numpy and zlib alone, so no
    change to hsinet alters them; their times follow the speed the shared host
    gives this process at the moment they run. They are kept apart because
    contention slows them unequally: on a 2-vCPU Xeon VM with a matmul loop
    on the other vCPU, the compute part slowed 1.5x, the memory part 1.07x and
    ENVI reads 1.15x.
    """
    t0 = time.perf_counter()
    for w in _REF_W:
        pad = w.shape[-1] // 2
        xp = np.pad(_REF_X, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        win = sliding_window_view(xp, w.shape[2:], axis=(2, 3))
        np.einsum("ncyxuv,ocuv->noyx", win, w, optimize=True)
    t1 = time.perf_counter()
    for _ in range(3):
        raw = bytes(bytearray(_REF_RAW))
        zlib.crc32(raw)
        cube = np.frombuffer(raw, dtype=">i2").reshape(96, 96, 128)
        cube.transpose(2, 0, 1).astype(np.float64)
    return t1 - t0, time.perf_counter() - t1


@dataclass(frozen=True)
class Source:
    """One synthetic domain, written to disk as an ENVI cube plus label raster."""

    name: str
    classes: int
    bands: int
    height: int
    width: int
    interleave: str
    data_type: int
    byte_order: int
    train_per_class: int
    eval_pixels: int


@dataclass(frozen=True)
class Workload:
    """kind: 'finetune' transfers a shared store into a fresh target network,
    'pretrain' runs the two-step cross-domain schedule over all sources,
    'classify' fine-tunes a saved checkpoint briefly before classifying."""

    name: str
    kind: str
    sources: tuple
    filters: int
    residual_modules: int
    batch: int
    iters: int
    step1_iters: int = 0
    # reads of every dataset per episode, so that an episode reads enough to time
    # steadily: one read of the 2.4 MB scene takes ~10 ms, of a 37 KB source ~0.5 ms
    reads: int = 16

    def specs(self):
        return [NetworkSpec(bands=s.bands, classes=s.classes, patch=PATCH,
                            filters=self.filters, residual_modules=self.residual_modules)
                for s in self.sources]

    def samples_per_episode(self):
        return self.batch * (self.step1_iters + self.iters * len(self.sources))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "finetune_hires", "finetune",
            (Source("target", 8, 96, 64, 64, "bsq", 4, 0, 20, 256),),
            filters=64, residual_modules=2, batch=64, iters=10),
        Workload(
            "pretrain_x3", "pretrain",
            (Source("src8", 6, 8, 48, 48, "bil", 2, 0, 20, 128),
             Source("src16", 6, 16, 32, 32, "bsq", 2, 1, 20, 128),
             Source("src32", 6, 32, 32, 32, "bip", 2, 0, 20, 128)),
            filters=64, residual_modules=4, batch=32, iters=6, step1_iters=2, reads=48),
        Workload(
            "scene_classify", "classify",
            (Source("scene", 8, 128, 96, 96, "bip", 2, 1, 20, 1536),),
            filters=64, residual_modules=2, batch=64, iters=2),
    )
}


@dataclass
class Context:
    """What set-up leaves for the episodes."""

    workload: Workload
    seed: int
    manifests: list
    expected: list           # (cube, labels) each manifest must load back as
    train: list              # normalized datasets with the test split withheld
    evals: list              # the same datasets with the held-out pixels as test split
    workdir: Path
    store: object = None     # finetune: the cross-domain store to transfer from
    checkpoint: Path = None  # classify: the checkpoint to start from


@dataclass
class Checks:
    """Correctness checks counted as operations."""

    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[name] = self.failures.get(name, 0) + 1
        return ok


def setup(w, seed, workdir, tracer=None):
    """Write the workload's ENVI inputs and starting networks under `workdir`,
    and prepare the split, normalized datasets the episodes train on."""
    workdir.mkdir(parents=True, exist_ok=True)
    manifests, expected, train, evals = [], [], [], []
    for i, s in enumerate(w.sources):
        cfg = SynthConfig(classes=s.classes, bands=s.bands, height=s.height, width=s.width,
                          seed=seed * 101 + i, name=s.name)
        with span(tracer, "setup.synth"):
            ds = hsinet.data.synth_generate(cfg)
        ds = replace(ds, cube=HyperCube.from_array(ds.cube.data * DN_SCALE))
        manifests.append(hsinet.data.write_dataset(
            ds, workdir, interleave=s.interleave, data_type=s.data_type,
            byte_order=s.byte_order))
        cube = ds.cube.data
        if np.dtype(DTYPE_CODES[s.data_type]).kind in "iu":
            cube = np.rint(cube)
        expected.append((cube, ds.labels.labels))

        ds = hsinet.data.load_manifest(manifests[-1])
        smallest = int(np.bincount(ds.labels.labels.ravel())[1:].min())
        per_class = min(s.train_per_class, max(1, smallest // 2))
        ds = hsinet.data.with_split(ds, per_class, np.random.default_rng(seed + i))
        with span(tracer, "setup.normalize"):
            ds = hsinet.data.normalize_bands(ds)
        pick = np.random.default_rng(seed + 7 * i + 1).choice(
            ds.test_idx, size=min(s.eval_pixels, ds.test_idx.size), replace=False)
        train.append(replace(ds, test_idx=EMPTY))
        evals.append(replace(ds, test_idx=np.sort(pick)))
    ctx = Context(w, seed, manifests, expected, train, evals, workdir)
    rng = np.random.default_rng(seed)
    if w.kind == "finetune":
        # a freshly built store over two low-band domains with the target's trunk
        store_specs = [NetworkSpec(bands=b, classes=6, patch=PATCH, filters=w.filters,
                                   residual_modules=w.residual_modules) for b in (8, 16)]
        ctx.store = build_cross_domain(CrossDomainSpec(store_specs), rng)
    elif w.kind == "classify":
        ctx.checkpoint = workdir / "start.ckpt"
        hsinet.checkpoint.save_checkpoint(build_backbone(w.specs()[0], rng), ctx.checkpoint)
    return ctx


def state_arrays(network):
    """Every persistent tensor of a Network or CrossDomainNetwork, in a fixed order."""
    if isinstance(network, CrossDomainNetwork):
        return [pair for b in network.branches for pair in b.state()]
    return network.state()


def digest(network):
    h = hashlib.sha256()
    for name, arr in state_arrays(network):
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _bit_exact(a, b):
    sa, sb = state_arrays(a), state_arrays(b)
    return len(sa) == len(sb) and all(
        na == nb and x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for (na, x), (nb, y) in zip(sa, sb))


def _envi_files(manifest, name):
    """The cube and label data files write_dataset puts next to a manifest."""
    return [manifest.parent / f"{name}{suffix}.img" for suffix in ("", "_labels")]


def _read(ctx, checks, out):
    """Read every dataset `reads` times through its manifest and check it against
    what was written; each round of reads is one (bytes, seconds) sample."""
    sources = list(zip(ctx.workload.sources, ctx.manifests, ctx.expected))
    for _ in range(ctx.workload.reads):
        nbytes, seconds = 0, 0.0
        for s, path, (cube, labels) in sources:
            t0 = time.perf_counter()
            ds = hsinet.data.load_manifest(path)
            seconds += time.perf_counter() - t0
            nbytes += sum(f.stat().st_size for f in _envi_files(path, s.name))
            checks.check("envi_roundtrip", np.array_equal(ds.cube.data, cube)
                         and np.array_equal(ds.labels.labels, labels))
        out["load"].append((nbytes, seconds))


def _start(ctx, rng):
    """The untrained network of an episode."""
    w = ctx.workload
    if w.kind == "pretrain":
        return build_cross_domain(CrossDomainSpec(w.specs()), rng)
    if w.kind == "finetune":
        return transfer_shared(ctx.store, w.specs()[0], rng)
    return hsinet.checkpoint.load_checkpoint(ctx.checkpoint).network


def _train(ctx, net, rng):
    """Train `net` on the set-up's train split; returns (network, final losses)."""
    w = ctx.workload
    schedule = TrainSchedule(step_size=w.iters, max_iter=w.iters, base_lr=BASE_LR,
                             batch=w.batch)
    if w.kind == "pretrain":
        step1 = TrainSchedule(step_size=w.step1_iters, max_iter=w.step1_iters,
                              base_lr=BASE_LR, batch=w.batch)
        net, *runs = hsinet.trainer.two_step_train(net, ctx.train, step1, schedule, rng)
    else:
        net, *runs = hsinet.trainer.train_single(net, ctx.train[0], schedule, rng)
    return net, [r.loss for m in runs for r in m.rows]


def _accuracies(network, evals):
    nets = network.branches if isinstance(network, CrossDomainNetwork) else [network]
    return [hsinet.trainer.evaluate(n, ds, "test") for n, ds in zip(nets, evals)]


def episode(ctx, checks, reference, tracer=None):
    """Run one episode; returns its measurements, with the work and seconds of
    each timed call as (work, seconds) samples under load, train, ckpt and eval.

    `reference` holds the digest and accuracies every episode must reproduce;
    when empty, this episode fills it and also checks the in-memory network's
    accuracy against the reloaded one directly.
    """
    out = dict(load=[], ckpt=[])
    start = time.perf_counter()
    refs = [reference_s()]
    _read(ctx, checks, out)
    refs.append(reference_s())
    rng = np.random.default_rng(ctx.seed + 17)
    net = _start(ctx, rng)
    with span(tracer, "trainer.loop"):
        t0 = time.perf_counter()
        net, losses = _train(ctx, net, rng)
        out["train"] = [(ctx.workload.samples_per_episode(), time.perf_counter() - t0)]
    refs.append(reference_s())
    checks.check("finite", all(np.isfinite(losses)) and all(
        np.isfinite(a).all() for _, a in state_arrays(net)))
    out["digest"] = digest(net)
    checks.check("determinism", reference.setdefault("digest", out["digest"]) == out["digest"])

    path = ctx.workdir / "episode.ckpt"
    for _ in range(ROUNDTRIPS):
        t0 = time.perf_counter()
        hsinet.checkpoint.save_checkpoint(net, path)
        loaded = hsinet.checkpoint.load_checkpoint(path).network
        out["ckpt"].append((2 * path.stat().st_size, time.perf_counter() - t0))
        checks.check("checkpoint_roundtrip", _bit_exact(net, loaded))
    refs.append(reference_s())

    t0 = time.perf_counter()
    acc = _accuracies(loaded, ctx.evals)
    out["eval"] = [(sum(ds.test_idx.size for ds in ctx.evals), time.perf_counter() - t0)]
    refs.append(reference_s())
    out["compute_ref_s"], out["memory_ref_s"] = np.median(refs, axis=0).tolist()
    if "accuracy" not in reference:
        reference["accuracy"] = _accuracies(net, ctx.evals)
    checks.check("reloaded_accuracy", acc == reference["accuracy"])
    out["accuracy"] = acc
    out["wall_s"] = time.perf_counter() - start
    return out


def working_set(ctx):
    """Bytes an episode reads: ENVI data files, and one checkpoint of the workload."""
    envi = sum(f.stat().st_size for s, m in zip(ctx.workload.sources, ctx.manifests)
               for f in _envi_files(m, s.name))
    ckpt = ctx.workdir / "episode.ckpt"
    return {"envi_bytes": envi, "checkpoint_bytes": ckpt.stat().st_size if ckpt.exists() else None}
