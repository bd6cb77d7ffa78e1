"""The config -> dataset -> network pipeline (`_Harness`) behind the CLI
commands, and the ablation runners built on it: schedule sweep, depth sweep,
source combinations (source size, sensor ablation, single vs multi source),
pre-training and fine-tuning, on synthetic domains or user-supplied rasters.

Every runner emits ReportRows (experiment, seed, condition, iteration, metric,
value) and can write them as report.csv plus an aggregated summary.json.
Identical config + seeds reproduce byte-identical CSV output.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .data import SynthConfig, load_manifest, normalize_bands, synth_generate, with_split
from .errors import ConfigError
from .network import (CrossDomainSpec, NetworkSpec, build_backbone,
                      build_cross_domain, transfer_shared)
from .trainer import TrainSchedule, evaluate, train_cross_domain, train_single, two_step_train

EXPERIMENT_IDS = (
    "schedule_sweep",
    "depth_sweep",
    "source_size",
    "sensor_ablation",
    "single_vs_multi",
    "pretrain",
    "finetune",
)

CSV_HEADER = ("experiment", "seed", "condition", "iteration", "metric", "value")


@dataclass
class ReportRow:
    experiment: str
    seed: int
    condition: str
    iteration: int
    metric: str
    value: float


# --- config parsing -------------------------------------------------------

# every top-level key a command or runner reads; one target config serves
# finetune, train-scratch and eval alike
CONFIG_KEYS = frozenset({
    "experiment", "seed", "seeds", "pretrain_seed", "split_seed", "eval_every",
    "augment", "normalize", "network", "sources", "target", "train_per_class",
    "split", "schedule", "pretrain_schedule", "two_step", "checkpoint",
    "schedules", "depths", "combinations", "pairs", "conditions", "include_scratch",
})

_NETWORK_KEYS = ("patch", "filters", "residual_modules", "dropout_rate")


# the JSON type of each config key that has one
_TYPES = {
    **dict.fromkeys(("sources", "seeds", "depths", "schedules", "combinations", "pairs",
                     "conditions"), list),
    **dict.fromkeys(("network", "target", "two_step", "step1", "step2", "schedule",
                     "pretrain_schedule"), dict),
    **dict.fromkeys(("seed", "pretrain_seed", "split_seed", "eval_every",
                     "train_per_class"), int),
    **dict.fromkeys(("augment", "normalize", "include_scratch"), bool),
}
# the JSON types that a dataclass field annotation accepts
_FIELD_TYPES = {"int": int, "float": (float, int), "str": str, "int | None": (int, type(None))}
_JSON_NAMES = {list: "list", dict: "object", int: "integer", float: "number", bool: "boolean",
               str: "string"}


def _expect(value, kind, where):
    """`value`, or a ConfigError naming `where` when it is not of the JSON type
    `kind` (a type or a tuple of them; true/false count only as booleans)."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if isinstance(value, bool) != (bool in kinds) or not isinstance(value, kinds):
        raise ConfigError(
            f"{where} must be a JSON {_JSON_NAMES[kinds[0]]}, got {type(value).__name__}"
        )
    return value


def _require(d, key, where="config"):
    """d[key], or a ConfigError naming the key when it is absent, empty or not
    of its JSON type (or `d` is not an object)."""
    _expect(d, dict, where)
    value = d.get(key)
    if not value:
        raise ConfigError(f"{where} needs '{key}'")
    if key in _TYPES:
        _expect(value, _TYPES[key], f"{where} '{key}'")
    return value


def _check_types(d, cls, what):
    """Each key of `d` holds the JSON type of the `cls` field it names."""
    types = {f.name: _FIELD_TYPES[f.type] for f in fields(cls)}
    for key, value in d.items():
        _expect(value, types[key], f"{what} '{key}'")


def _kwargs(d, cls, what):
    _expect(d, dict, what)
    allowed = {f.name for f in fields(cls)}
    bad = set(d) - allowed
    if bad:
        raise ConfigError(f"unknown {what} keys: {sorted(bad)} (allowed: {sorted(allowed)})")
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing {what} keys: {sorted(missing)}")
    _check_types(d, cls, what)
    return dict(d)


def schedule_from_config(d):
    return TrainSchedule(**_kwargs(d, TrainSchedule, "schedule"))


def dataset_from_config(d, normalize=True):
    """Build a DomainDataset from {"synth": {...}} or {"manifest": path}."""
    if "synth" in d:
        ds = synth_generate(SynthConfig(**_kwargs(d["synth"], SynthConfig, "synth")))
    elif "manifest" in d:
        ds = load_manifest(_expect(d["manifest"], str, "'manifest'"))
    else:
        raise ConfigError("dataset config needs a 'synth' or 'manifest' key")
    return normalize_bands(ds) if normalize else ds


def load_network(path, kind):
    """The network of an existing checkpoint of `kind` ("cross" or "single")."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"checkpoint '{path}' does not exist")
    ckpt = load_checkpoint(path)
    if ckpt.kind != kind:
        what = "cross-domain" if kind == "cross" else "single-network"
        raise ConfigError(f"checkpoint '{path}' is not a {what} checkpoint")
    return ckpt.network


@dataclass
class _Run:
    """A trained network with what a resumable checkpoint of it needs."""

    network: object
    metrics: list          # one TrainMetrics per training phase
    rng: np.random.Generator
    iteration: int
    accuracy: float | None = None   # target runs: final test-split accuracy


class _Harness:
    """The config -> dataset -> network pipeline shared by the CLI commands and
    every experiment runner."""

    def __init__(self, cfg, progress=False):
        unknown = sorted(set(cfg) - CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown} (known: {sorted(CONFIG_KEYS)})")
        for key, kind in _TYPES.items():
            if key in cfg:
                _expect(cfg[key], kind, f"config '{key}'")
        for key, kind in (("sources", dict), ("schedules", dict), ("seeds", int),
                          ("depths", int)):
            for i, value in enumerate(cfg.get(key, [])):
                _expect(value, kind, f"'{key}' entry {i}")
        network = cfg.get("network", {})
        bad = set(network) - set(_NETWORK_KEYS)
        if bad:
            raise ConfigError(f"unknown network keys: {sorted(bad)} (allowed: {_NETWORK_KEYS})")
        _check_types(network, NetworkSpec, "network")
        self.cfg = cfg
        self.experiment = cfg.get("experiment")
        self.seeds = list(cfg.get("seeds", []))
        self.split_seed = cfg.get("split_seed", 1234)
        self.train_kwargs = dict(eval_every=cfg.get("eval_every", 100),
                                 augment=cfg.get("augment", True), progress=progress)
        self.normalize = cfg.get("normalize", True)
        self._sources = None
        self._target = None

    @property
    def sources(self):
        if self._sources is None:
            self._sources = [dataset_from_config(c, self.normalize)
                             for c in _require(self.cfg, "sources")]
        return self._sources

    @property
    def target(self):
        if self._target is None:
            ds = dataset_from_config(_require(self.cfg, "target"), normalize=False)
            n = _require(self.cfg, "train_per_class")
            ds = with_split(ds, n, np.random.default_rng(self.split_seed))
            self._target = normalize_bands(ds) if self.normalize else ds
        return self._target

    @property
    def pretrain_seed(self):
        return self.cfg.get("pretrain_seed", self.seeds[0])

    def _spec(self, ds, depth):
        net_kwargs = dict(self.cfg.get("network", {}))
        if depth is not None:
            net_kwargs["residual_modules"] = depth
        return NetworkSpec(bands=ds.cube.bands, classes=ds.classes, **net_kwargs)

    def pretrain(self, sources, seed, schedule_key="pretrain_schedule", depth=None):
        """Cross-domain pre-training over the given source datasets, on the
        schedule under `schedule_key` or the config's `two_step` pair."""
        rng = np.random.default_rng(seed)
        cdn = build_cross_domain(CrossDomainSpec([self._spec(ds, depth) for ds in sources]),
                                 rng)
        if "two_step" in self.cfg:
            steps = [schedule_from_config(_require(self.cfg["two_step"], key, "'two_step'"))
                     for key in ("step1", "step2")]
            cdn, *metrics = two_step_train(cdn, sources, *steps, rng, **self.train_kwargs)
            return _Run(cdn, metrics, rng, steps[1].max_iter)
        schedule = schedule_from_config(_require(self.cfg, schedule_key))
        cdn, metrics = train_cross_domain(cdn, sources, schedule, rng, **self.train_kwargs)
        return _Run(cdn, [metrics], rng, schedule.max_iter)

    def target_run(self, schedule, seed, pretrained=None, depth=None):
        """Train on the target from scratch or from a pre-trained shared store."""
        spec = self._spec(self.target, depth)
        rng = np.random.default_rng(seed)
        if pretrained is None:
            net = build_backbone(spec, rng)
        else:
            net = transfer_shared(pretrained, spec, rng)
        net, metrics = train_single(net, self.target, schedule, rng, **self.train_kwargs)
        return _Run(net, [metrics], rng, schedule.max_iter,
                    evaluate(net, self.target, "test"))

    def compare(self, conditions, schedule, depth=None):
        """Report rows of one target run per seed for each (condition,
        pre-trained store or None for scratch, extra final metrics)."""
        rows = []
        for seed in self.seeds:
            for condition, pretrained, extra in conditions:
                run = self.target_run(schedule, seed, pretrained, depth)
                rows += self.curve_rows(seed, condition, run, extra)
        return rows

    def curve_rows(self, seed, condition, run, extra=None):
        rows = []
        final_iter = 0
        for r in run.metrics[0].rows:
            final_iter = max(final_iter, r.iteration)
            rows.append(ReportRow(self.experiment, seed, condition, r.iteration,
                                  "train_loss", float(r.loss)))
            if r.accuracy is not None:
                rows.append(ReportRow(self.experiment, seed, condition, r.iteration,
                                      "test_accuracy", float(r.accuracy)))
        rows.append(ReportRow(self.experiment, seed, condition, final_iter,
                              "final_accuracy", float(run.accuracy)))
        for metric, value in (extra or {}).items():
            rows.append(ReportRow(self.experiment, seed, condition, final_iter,
                                  metric, float(value)))
        return rows


def _with_scratch(label, pretrained):
    return [(f"{label}/pretrain", pretrained, None), (f"{label}/scratch", None, None)]


# --- experiment runners ---------------------------------------------------

def run_schedule_sweep(cfg, out_dir=None):
    """Scratch vs fine-tuned target training across step-size/iteration pairs."""
    h = _Harness(cfg)
    schedules = _require(cfg, "schedules")
    base = dict(cfg.get("schedule", {}))
    if "checkpoint" in cfg:
        pretrained = load_network(cfg["checkpoint"], "cross")
    else:
        pretrained = h.pretrain(h.sources, h.pretrain_seed).network
    rows = []
    for sched_cfg in schedules:
        merged = {**base, **{k: v for k, v in sched_cfg.items() if k != "label"}}
        schedule = schedule_from_config(merged)
        label = sched_cfg.get("label") or f"{merged['step_size']}/{merged['max_iter']}"
        rows += h.compare(_with_scratch(label, pretrained), schedule)
    return _finish(rows, cfg, out_dir)


def run_depth_sweep(cfg, out_dir=None):
    """Scratch vs fine-tuned accuracy as residual modules are added; each
    depth pre-trains its own cross-domain network."""
    h = _Harness(cfg)
    schedule = schedule_from_config(_require(cfg, "schedule"))
    rows = []
    for depth in cfg.get("depths", [2, 3, 4, 5]):
        pretrained = h.pretrain(h.sources, h.pretrain_seed, depth=depth).network
        rows += h.compare(_with_scratch(f"{5 + 2 * depth}-layer", pretrained),
                          schedule, depth)
    return _finish(rows, cfg, out_dir)


# experiment -> (config key of its conditions, check on their source-index
# lists, what the check requires)
_COMBINATIONS = {
    "source_size": ("combinations", lambda subsets: len(subsets) >= 2,
                    ">= 2 'combinations'"),
    "sensor_ablation": ("pairs", lambda subsets: len(subsets) == 2, "exactly 2 'pairs'"),
    "single_vs_multi": ("conditions",
                        lambda subsets: {len(s) == 1 for s in subsets} == {True, False},
                        "at least one single-source and one multi-source condition"),
}


def run_combinations(cfg, out_dir=None):
    """Fine-tuned target accuracy per source combination, with its labeled
    pixel count: source_size (plus a scratch baseline unless
    `include_scratch` is false), sensor_ablation and single_vs_multi."""
    h = _Harness(cfg)
    key, check, needs = _COMBINATIONS[h.experiment]
    combos = _require(cfg, key)
    n_sources = len(_require(cfg, "sources"))
    for i, combo in enumerate(combos):
        for name in ("label", "sources"):
            _require(combo, name, f"'{key}' entry {i}")
        if not all(isinstance(s, int) and 0 <= s < n_sources for s in combo["sources"]):
            raise ConfigError(
                f"condition '{combo['label']}' references a source index outside "
                f"the {n_sources}-entry 'sources' list"
            )
    if not check([combo["sources"] for combo in combos]):
        raise ConfigError(f"{h.experiment} needs {needs}")
    schedule = schedule_from_config(_require(cfg, "schedule"))
    conditions = []
    for combo in combos:
        subset = [h.sources[i] for i in combo["sources"]]
        conditions.append((combo["label"], h.pretrain(subset, h.pretrain_seed).network,
                           {"source_pixels": sum(ds.labeled_count for ds in subset)}))
    if h.experiment == "source_size" and cfg.get("include_scratch", True):
        conditions.append(("scratch", None, {"source_pixels": 0}))
    return _finish(h.compare(conditions, schedule), cfg, out_dir)


def run_pretrain(cfg, out_dir=None):
    """Plain cross-domain pre-training as an experiment: emits source loss
    curves and writes one checkpoint per seed when out_dir is given."""
    h = _Harness(cfg)
    rows = []
    for seed in h.seeds:
        run = h.pretrain(h.sources, seed)
        for phase, metrics in enumerate(run.metrics, start=1):
            condition = "pretrain" if len(run.metrics) == 1 else f"pretrain/step{phase}"
            rows += [ReportRow("pretrain", seed, condition, r.iteration,
                               f"loss[{r.domain}]", float(r.loss)) for r in metrics.rows]
        if out_dir is not None:
            save_checkpoint(run.network, Path(out_dir) / f"pretrained_seed{seed}.ckpt")
    return _finish(rows, cfg, out_dir)


def run_finetune(cfg, out_dir=None):
    """Fine-tune from a required checkpoint as an experiment."""
    h = _Harness(cfg)
    pretrained = load_network(_require(cfg, "checkpoint"), "cross")
    schedule = schedule_from_config(_require(cfg, "schedule"))
    return _finish(h.compare([("finetune", pretrained, None)], schedule), cfg, out_dir)


_RUNNERS = {
    "schedule_sweep": run_schedule_sweep,
    "depth_sweep": run_depth_sweep,
    **dict.fromkeys(_COMBINATIONS, run_combinations),
    "pretrain": run_pretrain,
    "finetune": run_finetune,
}


def run_experiment(cfg, out_dir=None):
    exp = cfg.get("experiment")
    if exp not in _RUNNERS:
        raise ConfigError(f"unknown experiment '{exp}' (known: {sorted(_RUNNERS)})")
    _require(cfg, "seeds")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    return _RUNNERS[exp](cfg, out_dir)


# --- reports --------------------------------------------------------------

def _finish(rows, cfg, out_dir):
    rows.sort(key=lambda r: (r.condition, r.seed, r.iteration, r.metric))
    if out_dir is not None:
        write_report(rows, cfg, out_dir)
    return rows


def write_report(rows, cfg, out_dir):
    """report.csv, summary.json and config.json, each written atomically."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_text = io.StringIO()
    writer = csv.writer(csv_text, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([r.experiment, r.seed, r.condition, r.iteration,
                         r.metric, repr(float(r.value))])
    for name, text in (("report.csv", csv_text.getvalue()),
                       ("summary.json", _json_text(summarize(rows, cfg))),
                       # config echo: curve rows stay whole series; schedule step
                       # boundaries and every other run parameter live here
                       ("config.json", _json_text(cfg))):
        write_atomic(out_dir / name, text.encode())


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def summarize(rows, cfg=None):
    """Aggregate final metrics (mean/min/max over seeds) per condition."""
    per = {}
    for r in rows:
        if r.metric == "final_accuracy" or r.metric == "source_pixels":
            per.setdefault(r.condition, {}).setdefault(r.metric, []).append(r.value)
    conditions = {
        cond: {
            metric: {
                "mean": float(np.mean(vals)),
                "min": float(np.min(vals)),
                "max": float(np.max(vals)),
            }
            for metric, vals in metrics.items()
        }
        for cond, metrics in per.items()
    }
    out = {"conditions": conditions}
    if cfg is not None:
        out["experiment"] = cfg.get("experiment")
        out["seeds"] = list(cfg.get("seeds", []))
    return out
