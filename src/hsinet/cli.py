"""Command-line harness.

Subcommands: pretrain, finetune, train-scratch, eval, experiment <id>,
synth-gen, gradcheck. Exit codes: 0 success, 1 config error, 2 data error,
3 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checkpoint import save_checkpoint
from .data import SynthConfig, synth_generate, write_dataset
from .errors import ConfigError, DataError, NumericError
from .experiments import (EXPERIMENT_IDS, _Harness, _kwargs, _require, load_network,
                          run_experiment, schedule_from_config)
from .trainer import evaluate
from .verify import oracle_suite


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="hsinet",
                     description="Cross-domain hyperspectral CNN training harness")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text, config=True, checkpoint=False, needs_out=False):
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="base RNG seed")
        p.add_argument("--out", default="out" if needs_out else None,
                       help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (1 is the deterministic reference)")
        if checkpoint:
            p.add_argument("--checkpoint", required=(name in ("finetune", "eval")),
                           help="checkpoint path")
        return p

    add("pretrain", "cross-domain pre-training on source datasets", needs_out=True)
    add("finetune", "fine-tune a target from a pre-trained checkpoint",
        checkpoint=True, needs_out=True)
    add("train-scratch", "train a target from random initialization", needs_out=True)
    add("eval", "evaluate a checkpoint on a dataset split", checkpoint=True)
    exp = add("experiment", "run an ablation experiment", needs_out=True)
    exp.add_argument("id", choices=EXPERIMENT_IDS, help="experiment id")
    add("synth-gen", "generate synthetic domains as ENVI rasters", needs_out=True)
    gc = add("gradcheck", "run the finite-difference gradient oracles", config=False)
    gc.add_argument("--seeds", type=int, default=3, help="number of seeds to sweep")
    return parser


def _load_config(path):
    try:
        cfg = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file '{path}' does not exist") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file '{path}' is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file '{path}' must hold a JSON object")
    return cfg


def _seed(args, cfg, default=0):
    if args.seed is not None:
        return args.seed
    return int(cfg.get("seed", default))


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_threads(args):
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")


def _write_train_outputs(out, metrics_list, names):
    for metrics, name in zip(metrics_list, names):
        metrics.write_csv(out / f"{name}.csv")
        with open(out / f"{name}_summary.json", "w") as fh:
            json.dump(metrics.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def cmd_pretrain(args):
    cfg = _load_config(args.config)
    out = _outdir(args)
    h = _Harness(cfg, progress=True)
    run = h.pretrain(h.sources, _seed(args, cfg), schedule_key="schedule")
    names = ["metrics"] if len(run.metrics) == 1 else ["metrics_step1", "metrics_step2"]
    _write_train_outputs(out, run.metrics, names)
    ckpt = out / "pretrained.ckpt"
    save_checkpoint(run.network, ckpt, rng=run.rng, iteration=run.iteration)
    print(json.dumps({"checkpoint": str(ckpt)}))
    return 0


def _run_target(args, pretrained):
    cfg = _load_config(args.config)
    out = _outdir(args)
    h = _Harness(cfg, progress=True)
    schedule = schedule_from_config(_require(cfg, "schedule"))
    run = h.target_run(schedule, _seed(args, cfg), pretrained)
    _write_train_outputs(out, run.metrics, ["metrics"])
    ckpt = out / ("finetuned.ckpt" if pretrained is not None else "scratch.ckpt")
    save_checkpoint(run.network, ckpt, rng=run.rng, iteration=run.iteration)
    print(json.dumps({"checkpoint": str(ckpt), "test_accuracy": run.accuracy}))
    return 0


def cmd_finetune(args):
    return _run_target(args, load_network(args.checkpoint, "cross"))


def cmd_train_scratch(args):
    return _run_target(args, None)


def cmd_eval(args):
    cfg = _load_config(args.config)
    network = load_network(args.checkpoint, "single")
    split = cfg.get("split", "test")
    acc = evaluate(network, _Harness(cfg).target, split)
    print(json.dumps({"split": split, "accuracy": acc}))
    return 0


def cmd_experiment(args):
    cfg = _load_config(args.config)
    cfg.setdefault("experiment", args.id)
    if cfg["experiment"] != args.id:
        raise ConfigError(
            f"config says experiment '{cfg['experiment']}' but command line says '{args.id}'"
        )
    if args.seed is not None:
        cfg["seeds"] = [args.seed]
    out = _outdir(args)
    run_experiment(cfg, out)
    print(json.dumps({"report": str(out / "report.csv"),
                      "summary": str(out / "summary.json")}))
    return 0


def cmd_synth_gen(args):
    cfg = _load_config(args.config)
    out = _outdir(args)
    domains = cfg.get("domains", [cfg])
    manifests = []
    for i, d in enumerate(domains):
        kw = _kwargs({k: v for k, v in d.items()
                      if k not in ("interleave", "data_type", "byte_order")},
                     SynthConfig, "synth")
        if args.seed is not None:
            kw["seed"] = args.seed + i
        ds = synth_generate(SynthConfig(**kw))
        manifests.append(str(write_dataset(
            ds, out,
            interleave=d.get("interleave", "bsq"),
            data_type=int(d.get("data_type", 4)),
            byte_order=int(d.get("byte_order", 0)),
        )))
    print(json.dumps({"manifests": manifests}))
    return 0


def cmd_gradcheck(args):
    seeds = range(args.seed or 0, (args.seed or 0) + args.seeds)
    results = oracle_suite(list(seeds))
    failed = 0
    for name, seed, report in results:
        status = "PASS" if report.passed else "FAIL"
        if not report.passed:
            failed += 1
        print(f"{status} {name} seed={seed} max_rel={report.worst_rel():.3e}")
    if failed:
        print(f"{failed} gradient checks failed", file=sys.stderr)
        return 3
    return 0


_COMMANDS = {
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "train-scratch": cmd_train_scratch,
    "eval": cmd_eval,
    "experiment": cmd_experiment,
    "synth-gen": cmd_synth_gen,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        _check_threads(args)
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
