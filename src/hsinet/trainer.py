"""Training: one SGD loop serves single-domain training (scratch or fine-tune)
and N-domain cross-domain pre-training with the 1/N shared learning-rate rule;
plus the two-step schedule for imbalanced sources, and evaluation.

Gradients are applied per domain in a fixed order within each iteration; the
shared store therefore receives N updates per iteration, each at lr/N.
"""
from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .data import PatchBatcher, augment_d4
from .errors import ConfigError, DataError, NumericError, ShapeError


@dataclass
class TrainSchedule:
    """Step-decay SGD schedule: lr(iter) = base_lr * gamma^floor(iter/step_size)."""

    step_size: int
    max_iter: int
    base_lr: float = 0.001
    gamma: float = 0.1
    batch: int = 128
    momentum: float = 0.9
    weight_decay: float = 0.0005

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.step_size < 1:
            raise ConfigError(f"step_size must be >= 1, got {self.step_size}")
        if self.step_size > self.max_iter:
            raise ConfigError(
                f"step_size {self.step_size} exceeds max_iter {self.max_iter}"
            )
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")


def lr_at(schedule, iteration):
    """Learning rate at an iteration: divided by 1/gamma every step_size."""
    if iteration < 0:
        raise ConfigError(f"iteration must be >= 0, got {iteration}")
    return schedule.base_lr * schedule.gamma ** (iteration // schedule.step_size)


@dataclass
class MetricRow:
    iteration: int
    domain: str
    loss: float
    accuracy: float | None


@dataclass
class TrainMetrics:
    """Eval-point records plus per-iteration LR log and coarse wall-clock."""

    rows: list = field(default_factory=list)
    lr_history: list = field(default_factory=list)   # (iteration, lr, shared_lr)
    wall_clock: list = field(default_factory=list)   # (iterations_done, secs per last 100)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("iteration,domain,loss,accuracy\n")
            for r in self.rows:
                acc = "" if r.accuracy is None else repr(float(r.accuracy))
                fh.write(f"{r.iteration},{r.domain},{repr(float(r.loss))},{acc}\n")

    def final_row(self, domain=None):
        for r in reversed(self.rows):
            if domain is None or r.domain == domain:
                return r
        return None

    def summary(self):
        domains = sorted({r.domain for r in self.rows})
        final = {}
        for domain in domains:
            r = self.final_row(domain)
            final[domain] = {"iteration": r.iteration, "loss": r.loss,
                             "accuracy": r.accuracy}
        return {
            "iterations": self.lr_history[-1][0] + 1 if self.lr_history else 0,
            "final": final,
            "seconds_per_100_iterations": [
                {"iteration": it, "seconds": secs} for it, secs in self.wall_clock
            ],
        }


def _progress(enabled, msg):
    if enabled:
        print(msg, file=sys.stderr)


def _draw_batch(dataset, batcher, batch_size, rng, augment):
    pick = rng.integers(0, dataset.train_idx.size, size=batch_size)
    x, y = batcher.batch(dataset.train_idx[pick])
    if augment:
        ks = rng.integers(0, 8, size=batch_size)
        for k in range(1, 8):
            m = ks == k
            if m.any():
                x[m] = augment_d4(x[m], k)
    return x, y


def evaluate(network, dataset, split, batch_size=512):
    """Overall accuracy of eval-mode argmax predictions on a split (no
    augmentation, batch-norm running statistics)."""
    if split == "train":
        idx = dataset.train_idx
    elif split == "test":
        idx = dataset.test_idx
    else:
        raise ConfigError(f"split must be 'train' or 'test', got '{split}'")
    if idx.size == 0:
        raise DataError(f"{split} split of '{dataset.name}' is empty")
    batcher = PatchBatcher(dataset, network.spec.patch)
    correct = 0
    for start in range(0, idx.size, batch_size):
        x, y = batcher.batch(idx[start:start + batch_size])
        logits = network.forward(x, training=False)
        correct += int((np.argmax(logits, axis=1) == y).sum())
    return correct / idx.size


def _train(entries, schedule, rng, *, eval_every, augment, start_iteration,
           progress, metrics, eval_test):
    """The SGD loop behind train_single and train_cross_domain.

    `entries` holds one (network, dataset, groups) per domain in update order;
    `groups` lists (params, lr scale) pairs. Per iteration and per entry:
    sample a batch, run forward/backward, then step each group at lr x scale.
    The shared lr logged in lr_history is lr x the smallest scale. At each eval
    point every entry gets a MetricRow, with test accuracy if `eval_test`.
    """
    for network, dataset, _ in entries:
        if network.spec.bands != dataset.cube.bands:
            raise ShapeError(
                f"network expects {network.spec.bands} bands but dataset "
                f"'{dataset.name}' has {dataset.cube.bands}"
            )
        if dataset.train_idx.size == 0:
            raise DataError(f"dataset '{dataset.name}' has an empty train split")
    batchers = [PatchBatcher(dataset, network.spec.patch) for network, dataset, _ in entries]
    shared_scale = min(scale for _, _, groups in entries for _, scale in groups)
    metrics = metrics if metrics is not None else TrainMetrics()
    losses = [None] * len(entries)
    mark = time.perf_counter()
    for it in range(start_iteration, schedule.max_iter):
        lr = lr_at(schedule, it)
        for i, (network, dataset, groups) in enumerate(entries):
            x, y = _draw_batch(dataset, batchers[i], schedule.batch, rng, augment)
            logits = network.forward(x, training=True, rng=rng)
            loss, grad = ops.softmax_cross_entropy(logits, y)
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss for domain '{dataset.name}' at iteration {it}"
                )
            network.backward(grad)
            for params, scale in groups:
                ops.sgd_step(params, lr * scale, schedule.momentum, schedule.weight_decay,
                             iteration=it)
            losses[i] = loss
        metrics.lr_history.append((it, lr, lr * shared_scale))
        done = it + 1
        if done % 100 == 0:
            now = time.perf_counter()
            metrics.wall_clock.append((done, now - mark))
            mark = now
        if done % eval_every == 0 or done == schedule.max_iter:
            shown = []
            for (network, dataset, _), loss in zip(entries, losses):
                acc = None
                if eval_test and dataset.test_idx.size:
                    acc = evaluate(network, dataset, "test")
                metrics.rows.append(MetricRow(done, dataset.name, loss, acc))
                shown.append(f"{dataset.name} loss {loss:.4f} acc "
                             + ("n/a" if acc is None else f"{acc:.4f}"))
            _progress(progress, f"iter {done} " + "; ".join(shown))
    return metrics


def train_single(network, dataset, schedule, rng, *, eval_every=100, augment=True,
                 start_iteration=0, progress=False, metrics=None):
    """SGD on one domain; returns (network, TrainMetrics).

    Each iteration samples `schedule.batch` patches with replacement from the
    train split, applies a uniformly random square symmetry to each patch,
    and takes one momentum-SGD step at the scheduled learning rate. The test
    split is evaluated every `eval_every` iterations.
    """
    metrics = _train([(network, dataset, [(network.params(), 1.0)])], schedule, rng,
                     eval_every=eval_every, augment=augment,
                     start_iteration=start_iteration, progress=progress,
                     metrics=metrics, eval_test=True)
    return network, metrics


def train_cross_domain(cdn, datasets, schedule, rng, *, eval_every=100, augment=True,
                       active=None, start_iteration=0, progress=False, metrics=None,
                       eval_sources=False):
    """Joint SGD over N branches; returns (cdn, TrainMetrics).

    Per iteration and per active domain (fixed order): sample a batch, run
    that branch forward/backward, then update immediately. Branch-private
    parameters step at the scheduled lr; the shared store steps at lr/N where
    N is the number of active domains.
    """
    n_branches = len(cdn.branches)
    if len(datasets) != n_branches:
        raise ConfigError(
            f"{len(datasets)} datasets supplied for {n_branches} branches"
        )
    active = list(range(n_branches)) if active is None else list(active)
    if not active:
        raise ConfigError("no active branches")
    shared = cdn.shared_params()
    entries = [(cdn.branches[d], datasets[d],
                [(cdn.branches[d].private_params(), 1.0), (shared, 1.0 / len(active))])
               for d in active]
    metrics = _train(entries, schedule, rng, eval_every=eval_every, augment=augment,
                     start_iteration=start_iteration, progress=progress,
                     metrics=metrics, eval_test=eval_sources)
    return cdn, metrics


def two_step_train(cdn, datasets, schedule_step1, schedule_step2, rng, **kwargs):
    """Two-step optimization for imbalanced sources: Step I trains only the
    branch of the largest dataset (by labeled pixel count, first on ties) at
    shared multiplier 1; Step II continues jointly on all branches with its
    own schedule, restarting the iteration counter.

    Returns (cdn, step1_metrics, step2_metrics).
    """
    if not datasets:
        raise ConfigError("two_step_train needs at least one dataset")
    sizes = [ds.labeled_count for ds in datasets]
    largest = int(np.argmax(sizes))
    cdn, m1 = train_cross_domain(cdn, datasets, schedule_step1, rng,
                                 active=[largest], **kwargs)
    cdn, m2 = train_cross_domain(cdn, datasets, schedule_step2, rng, **kwargs)
    return cdn, m1, m2
