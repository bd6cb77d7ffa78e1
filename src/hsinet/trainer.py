"""Training: one SGD loop over N (network, dataset) pairs sharing one store of
residual modules, stepping each network's private parameters at lr and the
store at lr/N in a fixed domain order; and evaluation. Cross-domain pre-training
is N branches, single-domain training (scratch or fine-tune) is N = 1, and the
two-step schedule for imbalanced sources runs the largest source alone, then all.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .data import PatchBatcher, augment_d4
from .errors import ConfigError, DataError, NumericError, ShapeError, write_csv

EVAL_BATCH = 512   # patches per eval forward


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
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


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
    """The eval-point records of one training run; the last is at max_iter."""

    rows: list = field(default_factory=list)

    def write_csv(self, path):
        """Write the eval-point rows as CSV, atomically."""
        rows = [(r.iteration, r.domain, repr(float(r.loss)),
                 "" if r.accuracy is None else repr(float(r.accuracy))) for r in self.rows]
        write_csv(path, [("iteration", "domain", "loss", "accuracy"), *rows])

    def summary(self):
        # a later row overwrites an earlier one: each domain keeps its last eval point
        final = {r.domain: {"iteration": r.iteration, "loss": r.loss, "accuracy": r.accuracy}
                 for r in self.rows}
        return {
            "iterations": self.rows[-1].iteration if self.rows else 0,
            "final": final,
        }


def _progress(msg):
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


def _check_fits(network, dataset):
    """A ShapeError unless the network reads the dataset's bands and scores
    its classes."""
    for what, want, got in (("bands", network.spec.bands, dataset.cube.bands),
                            ("classes", network.spec.classes, dataset.classes)):
        if want != got:
            raise ShapeError(
                f"network expects {want} {what} but dataset '{dataset.name}' has {got}"
            )


def evaluate(network, dataset, split):
    """Overall accuracy of eval-mode argmax predictions on a split (no
    augmentation, batch-norm running statistics). The eval forward computes
    each patch's center pixel only, which is all the label reads; see
    Network.forward for why that equals the full-patch result."""
    if split not in ("train", "test"):
        raise ConfigError(f"split must be 'train' or 'test', got '{split}'")
    idx = dataset.train_idx if split == "train" else dataset.test_idx
    _check_fits(network, dataset)
    if idx.size == 0:
        raise DataError(f"{split} split of '{dataset.name}' is empty")
    return _accuracy(network, PatchBatcher(dataset, network.spec.patch), idx)


def _accuracy(network, batcher, idx):
    """Overall accuracy of eval-mode argmax predictions on the pixels `idx`,
    the center rows of their patches gathered by `batcher`."""
    correct = 0
    for start in range(0, idx.size, EVAL_BATCH):
        x, y = batcher.centers(idx[start:start + EVAL_BATCH])
        logits = network.forward(x, training=False)
        correct += int((np.argmax(logits, axis=1) == y).sum())
    return correct / idx.size


def _train(runs, schedule, rng, *, eval_every=100, augment=True, start_iteration=0):
    """The SGD loop behind train_single, train_cross_domain and two_step_train.

    `runs` holds one (network, dataset) pair per domain in update order; the
    networks share one store of residual modules. Per iteration and per
    pair: sample a batch, run forward/backward, then step the network's
    private parameters at lr and the shared store at lr/N, N = len(runs).
    At each eval point, and always at max_iter, every pair gets a MetricRow,
    with its test accuracy if its dataset has a test split, and stderr gets
    one line with every pair's loss and accuracy.
    """
    if eval_every < 1:
        raise ConfigError(f"eval_every must be >= 1, got {eval_every}")
    for network, dataset in runs:
        _check_fits(network, dataset)
        if dataset.train_idx.size == 0:
            raise DataError(f"dataset '{dataset.name}' has an empty train split")
    batchers = [PatchBatcher(dataset, network.spec.patch) for network, dataset in runs]
    metrics = TrainMetrics()
    losses = [None] * len(runs)
    workspace = ops.Workspace()  # the bank's patch columns, reused by every step
    for it in range(start_iteration, schedule.max_iter):
        lr = lr_at(schedule, it)
        for i, (network, dataset) in enumerate(runs):
            x, y = _draw_batch(dataset, batchers[i], schedule.batch, rng, augment)
            logits = network.forward(x, training=True, rng=rng, workspace=workspace)
            loss, grad = ops.softmax_cross_entropy(logits, y)
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss for domain '{dataset.name}' at iteration {it}"
                )
            network.backward(grad)
            ops.sgd_step(network.private_params(), lr, schedule.momentum,
                         schedule.weight_decay, iteration=it)
            ops.sgd_step(network.shared_params(), lr * (1.0 / len(runs)), schedule.momentum,
                         schedule.weight_decay, iteration=it)
            losses[i] = loss
        done = it + 1
        if done % eval_every == 0 or done == schedule.max_iter:
            shown = []
            for (network, dataset), batcher, loss in zip(runs, batchers, losses):
                acc = None
                if dataset.test_idx.size:  # scored through the run's batcher, not a new one
                    acc = _accuracy(network, batcher, dataset.test_idx)
                metrics.rows.append(MetricRow(done, dataset.name, loss, acc))
                shown.append(f"{dataset.name} loss {loss:.4f} acc "
                             + ("n/a" if acc is None else f"{acc:.4f}"))
            _progress(f"iter {done} " + "; ".join(shown))
    return metrics


def train_single(network, dataset, schedule, rng, **kwargs):
    """SGD on one domain, the N = 1 case of the loop; returns (network,
    TrainMetrics).

    Each iteration samples `schedule.batch` patches with replacement from the
    train split, applies a uniformly random square symmetry to each patch,
    and takes one momentum-SGD step at the scheduled learning rate. A non-empty
    test split is evaluated every `eval_every` iterations and at max_iter, and
    each of those eval points prints one line on stderr.
    """
    return network, _train([(network, dataset)], schedule, rng, **kwargs)


def _pairs(cdn, datasets):
    """(branch, dataset) pairs, once there is one dataset per branch."""
    if len(datasets) != len(cdn.branches):
        raise ConfigError(f"{len(datasets)} datasets supplied for {len(cdn.branches)} branches")
    return list(zip(cdn.branches, datasets))


def train_cross_domain(cdn, datasets, schedule, rng, **kwargs):
    """Joint SGD over N branches; returns (cdn, TrainMetrics).

    Per iteration and per domain (fixed order): sample a batch, run that
    branch forward/backward, then update immediately. Branch-private
    parameters step at the scheduled lr; the shared store steps at lr/N.
    Sources as loaded have no test split, so their eval points record losses
    only.
    """
    return cdn, _train(_pairs(cdn, datasets), schedule, rng, **kwargs)


def two_step_train(cdn, datasets, schedule_step1, schedule_step2, rng, **kwargs):
    """Two-step optimization for imbalanced sources: Step I trains only the
    branch of the largest dataset (by labeled pixel count, first on ties),
    so N = 1 and the shared store steps at lr; Step II continues jointly on
    all branches with its own schedule, restarting the iteration counter.

    Returns (cdn, step1_metrics, step2_metrics).
    """
    runs = _pairs(cdn, datasets)
    largest = int(np.argmax([ds.labeled_count for ds in datasets]))
    m1 = _train([runs[largest]], schedule_step1, rng, **kwargs)
    return cdn, m1, _train(runs, schedule_step2, rng, **kwargs)
