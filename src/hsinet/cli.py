"""Command-line harness.

Subcommands: pretrain, finetune, train-scratch, eval, experiment <id>,
synth-gen, gradcheck. Exit codes: 0 success, 1 config error, 2 data error
(also an output that cannot be written), 3 numeric failure, 4 out of memory.
A command that writes and then fails leaves `--out` as it found it (`_output_dir`).
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .data import synth_generate, write_dataset
from .errors import ConfigError, DataError, NumericError, read_file, read_json, write_json
from .experiments import EXPERIMENT_IDS, _Harness, load_network, synth_domains
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

    flags = {"config": dict(required=True, help="JSON config file"),
             "seed": dict(type=int, default=None, help="base RNG seed"),
             "out": dict(default="out", help="output directory"),
             "checkpoint": dict(required=True, help="checkpoint path")}

    def add(name, help_text, run, *names):
        """A subparser with the flags `names` and --threads."""
        p = sub.add_parser(name, help=help_text)
        for flag in names:
            p.add_argument(f"--{flag}", **flags[flag])
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; hsinet runs as one process")
        p.set_defaults(run=run)
        return p

    add("pretrain", "cross-domain pre-training on source datasets", cmd_pretrain,
        "config", "seed", "out")
    add("finetune", "fine-tune a target from a pre-trained checkpoint", cmd_target,
        "config", "seed", "out", "checkpoint")
    add("train-scratch", "train a target from random initialization", cmd_target,
        "config", "seed", "out")
    add("eval", "evaluate a checkpoint on a dataset split", cmd_eval, "config", "checkpoint")
    add("experiment", "run an ablation experiment", cmd_experiment, "config", "seed",
        "out").add_argument("id", choices=EXPERIMENT_IDS, help="experiment id")
    add("synth-gen", "generate synthetic domains as ENVI rasters", cmd_synth_gen,
        "config", "seed", "out")
    add("gradcheck", "run the finite-difference gradient oracles", cmd_gradcheck,
        "seed").add_argument("--seeds", type=int, default=3, help="number of seeds to sweep")
    return parser


def _load_config(path):
    return read_json(read_file(path, "config file", ConfigError), f"config file '{path}'",
                     ConfigError)


@contextmanager
def _output_dir(path):
    """--out, made if missing. On any exception, the top-level files that are
    new or have a new inode (write_atomic gives a file it replaces a new one)
    are unlinked and the directories made here removed, then it re-raises."""
    out = Path(path)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    before = {p.name: p.lstat().st_ino for p in out.iterdir()}
    try:
        yield out
    except BaseException:
        for p in out.iterdir():
            if p.is_file() and before.get(p.name) != p.lstat().st_ino:
                p.unlink()
        for d in made:
            d.rmdir()
        raise


def _write_train_outputs(out, metrics_list, names):
    for metrics, name in zip(metrics_list, names):
        metrics.write_csv(out / f"{name}.csv")
        write_json(out / f"{name}_summary.json", metrics.summary())


def _train(args, name):
    """Run the command's one job, with --seed overriding the config's 'seed'
    and --checkpoint finetune's 'checkpoint'; write its metrics and its
    checkpoint `name` into --out."""
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.command == "finetune":
        cfg["checkpoint"] = args.checkpoint
    runs = _Harness(cfg, args.command).execute()  # a bad checkpoint fails before --out is made
    with _output_dir(args.out) as out:
        [(_, run)] = runs
        names = ["metrics"] if len(run.metrics) == 1 else ["metrics_step1", "metrics_step2"]
        _write_train_outputs(out, run.metrics, names)
        run.save(out / name)
    return out / name, run


def cmd_pretrain(args):
    ckpt, _ = _train(args, "pretrained.ckpt")
    print(json.dumps({"checkpoint": str(ckpt)}))
    return 0


def cmd_target(args):
    """finetune (from --checkpoint) and train-scratch."""
    ckpt, run = _train(args, "finetuned.ckpt" if args.command == "finetune" else "scratch.ckpt")
    last = run.metrics[0].rows[-1]   # scored on the test split at max_iter
    print(json.dumps({"checkpoint": str(ckpt), "test_accuracy": last.accuracy}))
    return 0


def cmd_eval(args):
    h = _Harness(_load_config(args.config), "eval")  # checked before the checkpoint is read
    network = load_network(args.checkpoint, "single")
    acc = evaluate(network, h.target, h.built["split"])
    print(json.dumps({"split": h.built["split"], "accuracy": acc}))
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
    h = _Harness(cfg)  # a config error is reported before --out is made
    runs = h.execute()  # and so is a checkpoint store that cannot be read
    with _output_dir(args.out) as out:
        h.report(runs, out)
    print(json.dumps({"report": str(out / "report.csv"),
                      "summary": str(out / "summary.json")}))
    return 0


def cmd_synth_gen(args):
    domains = synth_domains(_load_config(args.config))
    with _output_dir(args.out) as out:
        manifests = []
        for i, (synth, envi) in enumerate(domains):
            if args.seed is not None:
                synth = replace(synth, seed=args.seed + i)
            manifests.append(str(write_dataset(synth_generate(synth), out, **envi)))
    print(json.dumps({"manifests": manifests}))
    return 0


def cmd_gradcheck(args):
    first = 0 if args.seed is None else args.seed
    if first < 0:
        raise ConfigError(f"--seed must be >= 0, got {first}")
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    results = oracle_suite(list(range(first, first + args.seeds)))
    for name, seed, report in results:
        print(f"{'PASS' if report.passed else 'FAIL'} {name} seed={seed} "
              f"max_rel={report.worst_rel():.3e} max_abs={report.worst_abs():.3e}")
    failed = sum(not report.passed for _, _, report in results)
    if failed:
        print(f"{failed} gradient checks failed", file=sys.stderr)
        return 3
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        return args.run(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # reads raise DataError, so this is an output path
        print(f"data error: cannot write '{e.filename}': {e.strerror or e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        detail = f": {e}" if str(e) else ""
        print(f"out of memory: hsinet {args.command}{detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
