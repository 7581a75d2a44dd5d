"""Command-line front end: run experiments, render reports, check configs.

Subcommands
-----------
run       execute one configuration over one or more seeds, writing one run
          directory per seed plus a cross-seed aggregate of the final
          archive metrics (mean and sample std).
report    render deterministic curves (CSV + SVG) and per-run archive
          heatmaps from previously written run directories.
validate  resolve and check a configuration without running anything.

All subcommands exit 0 on success.  Every failure path prints a single
machine-readable JSON object to stderr ({"error": {"type", "message"}})
and exits nonzero.

Configuration files are JSON and hold what a run's own config.json holds:
the TrainerConfig fields, with ``ppo`` an object and ``seed`` one integer.
Every field is optional; a missing one falls back first to a per-environment
default (evaluation cadence, kernel determinism) and then to the trainer
default.  Flags pick only which seeds run (--seeds replaces the file's
``seed``) and where a run writes (--out).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .report import CURVE_METRICS, ReportError, band, generate_report
from .rl import PPOConfig
from .trainers import TrainerConfig, run_training, validate_config

# the keys a config file may hold: the fields of a run's config.json
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(TrainerConfig)}

# knobs whose defaults differ per environment when the file doesn't set them:
# the toy task evaluates cheaply, the flight task amortizes evaluation over
# longer rollouts and pins the deterministic kernel path for replayability
_ENV_DEFAULTS = {
    "toy": {"eval_every": 10},
    "dogfight": {"eval_every": 25, "deterministic_kernel": True},
}

class CliError(ValueError):
    """A user-facing configuration or invocation problem."""


def _fail(kind: str, message: str, code: int = 1) -> int:
    sys.stderr.write(json.dumps(
        {"error": {"type": kind, "message": message}}, sort_keys=True) + "\n")
    return code


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors keep the JSON error contract."""

    def error(self, message):
        raise CliError(message)


def _parse_seeds(text: str) -> list:
    try:
        seeds = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise CliError(f"--seeds expects comma-separated integers, got {text!r}")
    if not seeds:
        raise CliError("--seeds given but no seed values parsed")
    return seeds


def _path_flag(text: str) -> str:
    """A path flag's value; an empty one would resolve to the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("expects a path, got ''")
    return text


def load_config_file(path) -> dict:
    path = Path(path)
    if not path.is_file():
        what = "is not a regular file" if path.exists() else "does not exist"
        raise CliError(f"config file {path} {what}")
    try:
        with open(path, encoding="utf-8") as fh:  # JSON is UTF-8 whatever the locale
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return raw


def resolve_config(raw: dict, *, seeds=None):
    """Turn a config dict, keyed as a run's config.json, into (TrainerConfig, seeds).

    ``seeds`` (the --seeds flag) replaces the file's one ``seed``.  The
    returned configuration carries the first seed; per-seed copies are minted
    by the run command.  Unknown keys are rejected by name so typos surface
    instead of silently falling back to defaults.
    """
    unknown = sorted(set(raw) - _CONFIG_FIELDS)
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(unknown)}")

    env_name = raw.get("env_name", TrainerConfig.env_name)
    # a name that is not a string cannot key the defaults; validate_config refuses it
    fields = dict(_ENV_DEFAULTS.get(env_name, {})) if isinstance(env_name, str) else {}
    fields.update(raw)
    for key in ("hidden", "lambda_arms"):  # validate_config checks the values
        if isinstance(fields.get(key), list):
            fields[key] = tuple(fields[key])

    ppo_raw = fields.get("ppo", {})
    if not isinstance(ppo_raw, dict):
        raise CliError("config key 'ppo' must be a JSON object")
    ppo_fields = {f.name for f in dataclasses.fields(PPOConfig)}
    bad = sorted(set(ppo_raw) - ppo_fields)
    if bad:
        raise CliError(f"unknown ppo config keys: {', '.join(bad)}")
    fields["ppo"] = PPOConfig(**ppo_raw)

    config = TrainerConfig(**fields)  # unknown keys are refused above
    seeds = [config.seed] if seeds is None else list(seeds)
    for seed in seeds:  # validated first: a seed that is not an integer cannot be hashed
        validate_config(dataclasses.replace(config, seed=seed))
    if not seeds or len(set(seeds)) != len(seeds):
        raise CliError(f"seeds must be a non-empty list of distinct integers, got {seeds!r}")
    # arms spell as floats in config.json whether the file gave 0 or 0.0
    return dataclasses.replace(config, seed=seeds[0],
                               lambda_arms=tuple(map(float, config.lambda_arms))), seeds


def _aggregate_summaries(summaries: list) -> dict:
    """Mean and sample std of the final archive metrics across seeds."""
    return {key: {k: float(v) for k, v in band([s["qd"][key] for s in summaries]).items()}
            for key in CURVE_METRICS}


def _resolve_args(args):
    """The config and seeds that the --config file and --seeds resolve to."""
    raw = load_config_file(args.config) if args.config is not None else {}
    return resolve_config(raw, seeds=_parse_seeds(args.seeds) if args.seeds is not None else None)


def cmd_run(args) -> int:
    config, seeds = _resolve_args(args)
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    summaries, run_dirs = [], []
    for seed in seeds:
        cfg = dataclasses.replace(config, seed=seed)
        run_dir = out_root / f"seed_{seed}"
        sys.stderr.write(f"running {cfg.trainer} on {cfg.env_name} "
                         f"seed={seed} -> {run_dir}\n")
        result = run_training(cfg, out_dir=run_dir)
        summaries.append(result.summary)
        run_dirs.append(run_dir)

    aggregate = {
        "trainer": config.trainer,
        "env": config.env_name,
        "archive": config.archive,
        "seeds": seeds,
        "runs": [str(rd) for rd in run_dirs],
        "qd": _aggregate_summaries(summaries),
        "wall_clock_s": time.perf_counter() - started,
    }
    with open(out_root / "aggregate.json", "w") as fh:
        json.dump(aggregate, fh, indent=2, sort_keys=True)
    sys.stdout.write(json.dumps(aggregate, indent=2, sort_keys=True) + "\n")
    return 0


def _expand_run_dirs(paths: list) -> list:
    """Accept run directories directly or experiment roots of seed_* runs."""
    out = []
    for p in paths:
        p = Path(p)
        if (p / "metrics.jsonl").is_file():
            out.append(p)
            continue
        children = sorted(c for c in p.glob("seed_*") if c.is_dir())
        if children:
            out.extend(children)
            continue
        raise ReportError(f"run {p} has no metrics.jsonl (and no seed_* runs)")
    return out


def cmd_report(args) -> int:
    run_dirs = _expand_run_dirs(args.runs)
    out_dir = Path(args.out) if args.out is not None else Path(args.runs[0]) / "report"
    written = generate_report(run_dirs, out_dir)
    sys.stdout.write(json.dumps(
        {"report": written, "runs": [str(r) for r in run_dirs]},
        indent=2, sort_keys=True) + "\n")
    return 0


def cmd_validate(args) -> int:
    config, seeds = _resolve_args(args)
    # the config object is itself a config file that resolves to the same run
    sys.stdout.write(json.dumps({"ok": True, "config": dataclasses.asdict(config), "seeds": seeds},
                                indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="phasic",
                     description="population training runs and reports")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=_path_flag, metavar="PATH",
                       help="JSON configuration file")
        p.add_argument("--seeds", metavar="LIST",
                       help="comma-separated seeds, replacing the config's seed")

    p_run = sub.add_parser("run", help="train over one or more seeds")
    common(p_run)
    p_run.add_argument("--out", type=_path_flag, default="runs", metavar="DIR",
                       help="experiment directory (default: runs)")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="render curves and heatmaps")
    p_rep.add_argument("runs", nargs="+", metavar="RUN",
                       help="run directories or an experiment root")
    p_rep.add_argument("--out", type=_path_flag, metavar="DIR",
                       help="report directory (default: RUN/report)")
    p_rep.set_defaults(func=cmd_report)

    p_val = sub.add_parser("validate", help="check a configuration")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        return _fail("usage", str(exc), code=2)
    except ReportError as exc:
        return _fail("report", str(exc))
    except ValueError as exc:
        return _fail("config", str(exc))
    except OSError as exc:
        return _fail("io", str(exc))
    except MemoryError as exc:
        return _fail("memory", str(exc) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
