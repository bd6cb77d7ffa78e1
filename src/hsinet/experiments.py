"""The config -> dataset -> network pipeline (`_Harness`) behind the CLI
commands, and the experiments built on it. Every command is a job list of
pre-training jobs and target jobs. A target job trains a unit (one run per
seed, from a checkpoint, from a store a pre-training job makes, or from
scratch) for one seed. One executor (`_Harness.execute`) runs every list: it
loads the checkpoints and the target, then runs the jobs in order.

Every experiment emits ReportRows (experiment, seed, condition, iteration,
metric, value) and can write them as report.csv plus an aggregated
summary.json. Identical config + seeds reproduce byte-identical CSV output.
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (SynthConfig, _check_reflect, load_manifest, normalize_bands,
                   synth_generate, with_split)
from .envi import DTYPE_CODES, INTERLEAVES
from .errors import (ConfigError, DataError, _at, _at_least, _build, _list, _object, _record,
                     _valid, write_csv, write_json)
from .network import (CrossDomainSpec, NetworkSpec, build_backbone,
                      build_cross_domain, transfer_shared)
from .trainer import TrainSchedule, _progress, train_cross_domain, train_single, two_step_train

CSV_HEADER = ("experiment", "seed", "condition", "iteration", "metric", "value")


@dataclass
class ReportRow:
    experiment: str
    seed: int
    condition: str
    iteration: int
    metric: str
    value: float


# --- config schema --------------------------------------------------------
# A config is checked in one pass before any dataset is generated or loaded:
# each key is type-checked and built into what it describes (schedules,
# network specs, synthetic domains, source-index lists), so a bad entry fails
# before the runs ahead of it train.

_SCHEDULE = _record(TrainSchedule, "schedule")
_SYNTH = _record(SynthConfig, "synth")
_DATASET = _object({"synth": _SYNTH, "manifest": "str"}, ("synth|manifest",))
_CONDITIONS = _list(_object({"label": "str", "sources": _list("int")}, ("label", "sources")))

# every key a command or experiment reads; one target config serves finetune,
# train-scratch and eval alike, and can carry an experiment's keys too
_SCHEMA = {
    **dict.fromkeys(("experiment", "checkpoint"), "str"),
    **dict.fromkeys(("seed", "pretrain_seed", "split_seed"), _at_least(0)), "eval_every": "int",
    **dict.fromkeys(("augment", "normalize", "include_scratch"), "bool"),
    "seeds": _list(_at_least(0)), "depths": _list("int"), "schedules": _list("object"),
    "sources": _list(_DATASET), "target": _DATASET,
    "train_per_class": _at_least(1),
    "split": _valid("str", ("train", "test").__contains__, "'train' or 'test'"),
    "network": _record(NetworkSpec, "network", bands=1, classes=2),
    "schedule": _SCHEDULE, "pretrain_schedule": _SCHEDULE,
    "two_step": _object({"step1": _SCHEDULE, "step2": _SCHEDULE}, ("step1", "step2")),
    **dict.fromkeys(("combinations", "pairs", "conditions"), _CONDITIONS),
}
_DEFAULTS = {"seed": 0, "split_seed": 1234, "normalize": True, "include_scratch": True,
             "split": "test", "network": {}, "depths": [2, 3, 4, 5]}

# a combination experiment's conditions key, the check on their source-index
# lists, and what the check requires
_COMBINATIONS = {
    "source_size": ("combinations", lambda subsets: len(subsets) >= 2,
                    ">= 2 'combinations'"),
    "sensor_ablation": ("pairs", lambda subsets: len(subsets) == 2, "exactly 2 'pairs'"),
    "single_vs_multi": ("conditions",
                        lambda subsets: {len(s) == 1 for s in subsets} == {True, False},
                        "at least one single-source and one multi-source condition"),
}

# the keys each command requires ("a|b": either one); _EXPERIMENTS has theirs
_TARGET = ("target", "train_per_class")
_PRETRAIN = ("sources", "two_step|pretrain_schedule")
_NEEDS = {"pretrain": ("sources", "two_step|schedule"),
          "finetune": ("checkpoint", "schedule", *_TARGET),
          "train-scratch": ("schedule", *_TARGET), "eval": _TARGET}
# the keys each experiment requires besides 'seeds'
_EXPERIMENTS = {
    "schedule_sweep": ("schedules", *_TARGET, "checkpoint|sources",
                       "checkpoint|two_step|pretrain_schedule"),
    "depth_sweep": ("schedule", *_TARGET, *_PRETRAIN),
    **{exp: (key, "schedule", *_TARGET, *_PRETRAIN) for exp, (key, _, _) in _COMBINATIONS.items()},
    "pretrain": _PRETRAIN,
    "finetune": ("checkpoint", "schedule", *_TARGET),
}
EXPERIMENT_IDS = tuple(_EXPERIMENTS)


def _experiment(exp):
    if exp not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{exp}' (known: {sorted(_EXPERIMENTS)})")
    return _EXPERIMENTS[exp]


_ENVI = {"interleave": _valid("str", INTERLEAVES.__contains__, f"one of {list(INTERLEAVES)}"),
         "data_type": _valid("int", DTYPE_CODES.__contains__, f"one of {list(DTYPE_CODES)}"),
         "byte_order": _valid("int", (0, 1).__contains__, "0 or 1")}


# a synth-gen domain: the SynthConfig fields (checked by _SYNTH), a `name` that
# its files can carry inside --out (no NUL, no lone surrogate, no path
# separator, not empty, "." or "..") and the ENVI keys
_NAME = _valid(_valid("str", lambda name: not re.search("[\0\ud800-\udfff]", name),
                      "a file name without NUL or surrogate characters"),
               lambda name: name not in ("", ".", "..")
               and not any(sep and sep in name for sep in (os.sep, os.altsep)),
               "a file name inside --out: not empty, '.' or '..', and without a path separator")
_DOMAIN = _object({**{f.name: lambda value, where: value for f in fields(SynthConfig)},
                   "name": _NAME, **_ENVI})


def _distinct(items, what):
    """Reject a value that repeats among (value, config entry) pairs, naming both entries."""
    first = {}
    for value, entry in items:
        if first.setdefault(value, entry) != entry:
            raise ConfigError(f"{entry} repeats the {what} {value!r} of {first[value]}")


def _domain(value, where):
    """(SynthConfig, write_dataset keywords) of one synth-gen domain."""
    synth = _DOMAIN(value, where)
    envi = {key: synth.pop(key) for key in _ENVI if key in synth}
    return _SYNTH(synth, where), envi


def synth_domains(cfg):
    """The domains of a synth-gen config, {"domains": [domain, ...]} or one
    domain, each a SynthConfig plus the ENVI `interleave`, `data_type` and
    `byte_order` its raster is written with."""
    if "domains" not in cfg:
        return [_domain(cfg, "config")]
    domains = _object({"domains": _list(_domain)})(cfg, "config")["domains"]
    # the files of a repeated name would overwrite the earlier entry's
    _distinct([(s.name, f"config 'domains' entry {i}") for i, (s, _) in enumerate(domains)], "name")
    return domains


def load_network(path, kind):
    """The network of an existing checkpoint of `kind` ("cross" or "single")."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"checkpoint '{path}' does not exist as a file")
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

    def save(self, path):
        """Checkpoint the network with the run's RNG state and the iteration of
        its last eval row (max_iter of the last phase)."""
        save_checkpoint(self.network, path, rng=self.rng,
                        iteration=self.metrics[-1].rows[-1].iteration)


class _Harness:
    """The config -> dataset -> network pipeline shared by the CLI commands and
    every experiment. Building one checks the whole config for `command`
    (None: the experiment it names) and lays out its job list, which
    `execute` runs; runs read only the values in `built`."""

    def __init__(self, cfg, command=None):
        self.cfg, self.command = cfg, command
        self.experiment = cfg.get("experiment")
        needs = _NEEDS[command] if command else ("seeds", *_experiment(self.experiment))
        c = self.built = _object(_SCHEMA, needs)({**_DEFAULTS, **cfg}, "config")
        for i, depth in enumerate(c["depths"]):
            _at(f"config 'depths' entry {i}", replace, c["network"], residual_modules=depth)
        self.sweep = []
        for i, entry in enumerate(c.get("schedules", [])):
            where = f"config 'schedules' entry {i}"
            label = _build("str", entry.get("label", ""), f"{where} 'label'")
            schedule = _SCHEDULE({**cfg.get("schedule", {}),
                                  **{k: v for k, v in entry.items() if k != "label"}}, where)
            self.sweep.append((label or f"{schedule.step_size}/{schedule.max_iter}", schedule))
        if command is None and self.experiment in _COMBINATIONS:
            key, check, must = _COMBINATIONS[self.experiment]
            for combo in c[key]:
                if not all(0 <= i < len(c["sources"]) for i in combo["sources"]):
                    raise ConfigError(
                        f"condition '{combo['label']}' references a source index outside "
                        f"the {len(c['sources'])}-entry 'sources' list")
            if not check([combo["sources"] for combo in c[key]]):
                raise ConfigError(f"{self.experiment} needs {must}")
        self.seeds = c.get("seeds", [])
        # repeated seeds or condition names would merge their runs in the report
        _distinct([(s, f"config 'seeds' entry {i}") for i, s in enumerate(self.seeds)], "seed")
        self.jobs = _jobs(self)
        # the training keys the config sets; the trainer has the defaults
        self.train_kwargs = {key: c[key] for key in ("eval_every", "augment") if key in c}

    def _load(self, dataset):
        """The dataset of a config entry, rejected if its cube holds NaN or Inf
        (normalize_bands would spread the value over its band) or is too small
        to reflect-pad for the config's patch, which eval does not use."""
        if "synth" in dataset:
            ds = synth_generate(dataset["synth"])
        else:
            ds = load_manifest(dataset["manifest"])
        bad = ~np.isfinite(ds.cube.data)
        if bad.any():
            band, y, x = np.unravel_index(np.argmax(bad), bad.shape)
            raise DataError(f"dataset '{ds.name}' band {band} holds the non-finite value "
                            f"{ds.cube.data[band, y, x]} at pixel (x={x}, y={y})")
        if self.command != "eval":
            _check_reflect(ds.cube.data.shape, self.built["network"].patch // 2,
                           f"dataset '{ds.name}'")
        return ds

    @cached_property
    def sources(self):
        return [normalize_bands(ds) if self.built["normalize"] else ds
                for ds in map(self._load, self.built["sources"])]

    @cached_property
    def target(self):
        """The split target; training runs are scored on its test split, so
        an empty one fails as it loads, before anything trains."""
        c = self.built
        ds = with_split(self._load(c["target"]), c["train_per_class"],
                        np.random.default_rng(c["split_seed"]))
        if self.command != "eval" and ds.test_idx.size == 0:
            raise DataError(f"test split of '{ds.name}' is empty")
        return normalize_bands(ds) if c["normalize"] else ds

    def _spec(self, ds, modules=None):
        network = self.built["network"]
        return replace(network, bands=ds.cube.bands, classes=ds.classes,
                       residual_modules=modules or network.residual_modules)

    def pretrain(self, sources, seed, modules=None):
        """Cross-domain pre-training over the given sources, on the config's `two_step`
        pair, else on `schedule` (hsinet pretrain) or `pretrain_schedule` (experiments)."""
        rng = np.random.default_rng(seed)
        cdn = build_cross_domain(CrossDomainSpec([self._spec(ds, modules) for ds in sources]),
                                 rng)
        if "two_step" in self.built:
            steps = self.built["two_step"]
            cdn, *metrics = two_step_train(cdn, sources, steps["step1"], steps["step2"], rng,
                                           **self.train_kwargs)
            return _Run(cdn, metrics, rng)
        schedule = self.built["schedule" if self.command == "pretrain" else "pretrain_schedule"]
        cdn, metrics = train_cross_domain(cdn, sources, schedule, rng, **self.train_kwargs)
        return _Run(cdn, [metrics], rng)

    def target_run(self, job, pretrained=None):
        """Run target job `job` from scratch or from a pre-trained shared store."""
        spec = self._spec(self.target, job.modules)
        rng = np.random.default_rng(job.seed)
        net = (build_backbone(spec, rng) if pretrained is None
               else transfer_shared(pretrained, spec, rng))
        net, metrics = train_single(net, self.target, job.schedule, rng, **self.train_kwargs)
        return _Run(net, [metrics], rng)

    def curve_rows(self, job, run):
        """train_loss and test_accuracy at each eval point of a target job's
        run, then final_accuracy at its last one (max_iter). A combination
        experiment also reports there the labeled pixels of the store's
        sources."""
        curve = run.metrics[0].rows
        last = {"final_accuracy": curve[-1].accuracy}
        if self.experiment in _COMBINATIONS:
            last["source_pixels"] = (sum(self.sources[i].labeled_count for i in job.store[0])
                                     if job.store else 0)
        points = [(r.iteration, {"train_loss": r.loss, "test_accuracy": r.accuracy})
                  for r in curve] + [(curve[-1].iteration, last)]
        return [ReportRow(self.experiment, job.seed, job.condition, iteration, metric,
                          float(value))
                for iteration, values in points for metric, value in values.items()]

    def execute(self):
        """Run the job list. The checkpoint stores load now, so a bad one fails
        before the caller makes --out. The returned iterator loads the target
        (one that cannot be scored fails before any pre-training), then runs
        the jobs in order and gives (job, run) for each. An experiment names
        each job on stderr before its eval lines; a command names none."""
        keys = [job.store for job in self.jobs if isinstance(job, _Unit)]
        stores = {key: load_network(key, "cross") for key in dict.fromkeys(keys)
                  if isinstance(key, str)}
        named = _progress if self.command is None else lambda line: None

        def runs():
            if keys:
                self.target
            for job in self.jobs:
                if isinstance(job, _Unit):
                    named(f"condition {job.condition} seed {job.seed}")
                    run = self.target_run(job, stores.get(job.store))
                else:
                    named(f"pretrain seed {job.seed}" if self.experiment == "pretrain" else
                          f"pretrain sources {list(job.sources)} with {job.modules} residual "
                          "modules")
                    run = self.pretrain([self.sources[i] for i in job.sources], job.seed,
                                        job.modules)
                    stores[job.sources, job.modules] = run.network  # the key units read it by
                yield job, run
        return runs()

    def report(self, runs, out_dir=None):
        """The experiment's ReportRows from its (job, run) pairs, sorted, and
        with out_dir its report.csv, summary.json and config.json there.
        `experiment pretrain` reports source loss curves and writes each
        seed's checkpoint into out_dir, the same file `hsinet pretrain` writes
        for that seed; a transfer experiment reports each target run."""
        rows = []
        for job, run in runs:
            if isinstance(job, _Unit):
                rows += self.curve_rows(job, run)
            elif self.experiment == "pretrain":
                for phase, metrics in enumerate(run.metrics, start=1):
                    condition = "pretrain" if len(run.metrics) == 1 else f"pretrain/step{phase}"
                    rows += [ReportRow("pretrain", job.seed, condition, r.iteration,
                                       f"loss[{r.domain}]", float(r.loss)) for r in metrics.rows]
                if out_dir is not None:
                    Path(out_dir).mkdir(parents=True, exist_ok=True)
                    run.save(Path(out_dir) / f"pretrained_seed{job.seed}.ckpt")
        rows.sort(key=lambda r: (r.condition, r.seed, r.iteration, r.metric))
        if out_dir is not None:
            write_report(rows, self.cfg, out_dir)
        return rows


# --- the job list ---------------------------------------------------------

@dataclass(frozen=True)
class _Unit:
    """One target run per seed from its store: a checkpoint path, the (source
    indices, residual modules) key of a store the plan pre-trains, or None for
    scratch. `entry` names the config entry it comes from. A unit with its
    `seed` set is a target job."""

    condition: str
    entry: str
    schedule: TrainSchedule
    modules: int
    store: str | tuple | None
    seed: int | None = None


@dataclass(frozen=True)
class _Pretrain:
    """A pre-training job: the config's sources at indices `sources` with
    `modules` residual modules, from `seed`. Units read the store it makes by
    the key (sources, modules)."""

    sources: tuple
    modules: int
    seed: int


def _plan(h, exp):
    """The target units of `exp`, the command or experiment `h` runs."""
    c = h.built
    modules, schedule = c["network"].residual_modules, c.get("schedule")
    if exp == "eval":
        return []
    if exp == "train-scratch":
        return [_Unit("scratch", "config 'schedule'", schedule, modules, None)]
    if exp == "finetune":
        return [_Unit("finetune", "config 'checkpoint'", schedule, modules, c["checkpoint"])]
    if exp in _COMBINATIONS:
        key = _COMBINATIONS[exp][0]
        units = [_Unit(combo["label"], f"config '{key}' entry {i}", schedule, modules,
                       (tuple(combo["sources"]), modules)) for i, combo in enumerate(c[key])]
        if exp == "source_size" and c["include_scratch"]:
            units.append(_Unit("scratch", "config 'include_scratch'", schedule, modules, None))
        return units
    every_source = tuple(range(len(c.get("sources", []))))
    if exp == "schedule_sweep":
        key, runs = "schedules", [(label, s, modules, c.get("checkpoint", (every_source, modules)))
                                  for label, s in h.sweep]
    else:
        key, runs = "depths", [(f"{5 + 2 * d}-layer", schedule, d, (every_source, d))
                               for d in c["depths"]]
    # each fine-tuned run beside its scratch baseline
    return [_Unit(f"{label}/{kind}", f"config '{key}' entry {i}", s, m,
                  store if kind == "pretrain" else None)
            for i, (label, s, m, store) in enumerate(runs) for kind in ("pretrain", "scratch")]


def _jobs(h):
    """The job list of the command or experiment `h` runs, over the config's
    'seed' (a command) or 'seeds' (an experiment). `pretrain` is one
    pre-training job per seed. Any other pre-trains each distinct store its
    units read once, in plan order, then runs every unit, seed by seed."""
    c, exp = h.built, h.command or h.experiment
    seeds = [c["seed"]] if h.command else h.seeds
    if exp == "pretrain":
        every_source = tuple(range(len(c["sources"])))
        return [_Pretrain(every_source, c["network"].residual_modules, seed) for seed in seeds]
    units = _plan(h, exp)
    _distinct([(u.condition, u.entry) for u in units], "condition")
    keys = dict.fromkeys(u.store for u in units if isinstance(u.store, tuple))  # in plan order
    pretrain_seed = c.get("pretrain_seed", seeds[0])
    return ([_Pretrain(*key, pretrain_seed) for key in keys]
            + [replace(u, seed=seed) for seed in seeds for u in units])


def run_experiment(cfg, out_dir=None):
    """Run the experiment `cfg` names; stderr shows each run and its eval
    points."""
    h = _Harness(cfg)
    return h.report(h.execute(), out_dir)


# --- reports --------------------------------------------------------------

def write_report(rows, cfg, out_dir):
    """report.csv, summary.json and config.json, each written atomically."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "report.csv", [CSV_HEADER] + [
        [r.experiment, r.seed, r.condition, r.iteration, r.metric, repr(float(r.value))]
        for r in rows])
    write_json(out_dir / "summary.json", summarize(rows, cfg))
    # config echo: curve rows stay whole series; schedule step boundaries and
    # every other run parameter live here
    write_json(out_dir / "config.json", cfg)


def summarize(rows, cfg):
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
    return {"conditions": conditions, "experiment": cfg.get("experiment"),
            "seeds": list(cfg.get("seeds", []))}
