"""Command-line interface: config resolution, runs, reports, error JSON."""

import argparse
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasic.cli import build_parser, main, resolve_config, CliError
from phasic.trainers import TrainerConfig


def _cfg_file(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run_main(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _options(command: str) -> set:
    """The long options a subcommand takes, --help aside."""
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {opt for action in sub.choices[command]._actions for opt in action.option_strings
            if opt.startswith("--")} - {"--help"}


class TestResolveConfig:
    def test_defaults_fill_everything(self):
        config, seeds = resolve_config({})
        assert config.trainer == "pdo"
        assert config.population == 5
        assert config.diversity_iters == 20
        assert config.probe_states == 256
        assert config.cells_per_dim == 10
        assert config.queue_capacity == 10
        assert config.lambda_arms == (0.0, 0.5)
        assert seeds == [0]

    def test_integer_arms_resolve_as_floats(self):
        config, _ = resolve_config({"lambda_arms": [0, 0.5]})
        assert config.lambda_arms == (0.0, 0.5)
        assert all(type(lam) is float for lam in config.lambda_arms)

    def test_env_specific_defaults(self):
        toy, _ = resolve_config({"env_name": "toy"})
        assert toy.eval_every == 10
        assert toy.deterministic_kernel is False
        dog, _ = resolve_config({"env_name": "dogfight"})
        assert dog.eval_every == 25
        assert dog.deterministic_kernel is True

    def test_file_beats_env_default(self):
        cfg, _ = resolve_config({"env_name": "dogfight", "eval_every": 7,
                                 "deterministic_kernel": False})
        assert cfg.eval_every == 7
        assert cfg.deterministic_kernel is False

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(CliError, match="explotation_period"):
            resolve_config({"explotation_period": 3})

    def test_keys_are_the_trainer_config_fields(self):
        """Every field is a key, and a file of them all beats every default."""
        names = {f.name for f in dataclasses.fields(TrainerConfig)}
        full = json.loads(json.dumps(dataclasses.asdict(TrainerConfig(env_name="dogfight"))))
        assert set(full) == names
        config, seeds = resolve_config(full)
        assert config == TrainerConfig(env_name="dogfight") and seeds == [0]
        with pytest.raises(CliError, match="^unknown config keys: bogus$"):
            resolve_config({**full, "bogus": 1})

    @pytest.mark.parametrize("key, value", [("env", "toy"), ("seeds", [0, 1]), ("out", "runs")],
                             ids=["env", "seeds", "out"])
    def test_other_spellings_are_unknown_keys(self, key, value):
        with pytest.raises(CliError, match=f"^unknown config keys: {key}$"):
            resolve_config({key: value})

    def test_unknown_ppo_keys_rejected(self):
        with pytest.raises(CliError, match="learning_rate"):
            resolve_config({"ppo": {"learning_rate": 1e-3}})
        # PPO always standardizes its advantages
        with pytest.raises(CliError, match="unknown ppo config keys: norm_adv"):
            resolve_config({"ppo": {"norm_adv": False}})

    def test_bad_seeds_rejected(self):
        with pytest.raises(CliError):
            resolve_config({}, seeds=[])
        with pytest.raises(CliError):
            resolve_config({}, seeds=[1, 1])
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got '0'"):
            resolve_config({}, seeds=["0"])

    def test_seed_key_is_one_seed(self):
        cfg, seeds = resolve_config({"seed": 3})
        assert seeds == [3] and cfg.seed == 3
        cfg, seeds = resolve_config({"seed": 3}, seeds=[4, 5])
        assert seeds == [4, 5] and cfg.seed == 4
        # checked as a seed before the seeds are checked for repeats, which hashes them
        for bad in ("3", [1], True):
            message = f"seed must be an integer >= 0, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                resolve_config({"seed": bad})

    def test_ppo_fields_applied(self):
        cfg, _ = resolve_config({"ppo": {"lr": 1e-3, "epochs": 2}})
        assert cfg.ppo.lr == 1e-3
        assert cfg.ppo.epochs == 2
        assert cfg.ppo.clip == 0.2  # untouched default


class TestValidateCommand:
    def test_good_config(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, {"trainer": "pbt", "env_name": "toy"})
        rc, out, err = _run_main(capsys, ["validate", "--config", cfg, "--seeds", "0,1"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["config"]["trainer"] == "pbt"
        assert payload["seeds"] == [0, 1]

    @pytest.mark.parametrize("flags", [[], ["--seeds", "4,2"]])
    def test_printed_config_is_a_config_file(self, tmp_path, capsys, flags):
        """validate's config, saved as a file, validates to the same output."""
        cfg = _cfg_file(tmp_path, {"env_name": "dogfight", "seed": 7, "exploit_period": 1e400,
                                   "lambda_arms": [0, 1], "ppo": {"lr": 1e-3}})
        rc, first, _ = _run_main(capsys, ["validate", "--config", cfg, *flags])
        assert rc == 0
        assert json.loads(first)["seeds"] == ([4, 2] if flags else [7])
        again = _cfg_file(tmp_path, json.loads(first)["config"], "again.json")
        rc, second, _ = _run_main(capsys, ["validate", "--config", again, *flags])
        assert rc == 0 and second == first

    def test_flags_pick_only_seeds_and_output(self):
        assert _options("run") == {"--config", "--seeds", "--out"}
        assert _options("validate") == {"--config", "--seeds"}

    def test_unknown_trainer_is_machine_readable(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, {"trainer": "sarsa"})
        rc, out, err = _run_main(capsys, ["validate", "--config", cfg])
        assert rc != 0
        payload = json.loads(err)
        assert "sarsa" in payload["error"]["message"]

    def test_metric_that_does_not_fit_the_env(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, {"env_name": "toy", "metric": "jsd"})
        rc, out, err = _run_main(capsys, ["validate", "--config", cfg])
        assert rc != 0
        assert out == ""
        assert json.loads(err)["error"]["message"] == "unknown config keys: metric"
        rc, out, err = _run_main(capsys, ["run", "--config", cfg,
                                          "--out", str(tmp_path / "out")])
        assert rc != 0
        assert out == ""
        assert not (tmp_path / "out" / "seed_0").exists()

    def test_unknown_metric(self, tmp_path, capsys):
        # training always uses the W2 kernel, so a config may not name one
        for metric in ("jsd", "w2"):
            cfg = _cfg_file(tmp_path, {"env_name": "toy", "metric": metric})
            rc, out, err = _run_main(capsys, ["validate", "--config", cfg])
            assert rc != 0
            assert out == ""
            assert json.loads(err)["error"]["message"] == "unknown config keys: metric"

    def test_out_of_range_ppo_value(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, {"ppo": {"gamma": 1.5}})
        rc, out, err = _run_main(capsys, ["validate", "--config", cfg])
        assert rc != 0
        assert out == ""
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"]["type"] == "config"
        assert "gamma" in payload["error"]["message"]

    def test_missing_config_file(self, tmp_path, capsys):
        rc, out, err = _run_main(
            capsys, ["validate", "--config", str(tmp_path / "absent.json")])
        assert rc != 0
        assert json.loads(err)["error"]["type"] == "usage"

    def test_bad_seed_flag(self, tmp_path, capsys):
        rc, out, err = _run_main(capsys, ["validate", "--seeds", "a,b"])
        assert rc != 0
        assert json.loads(err)["error"]["type"] == "usage"

    @pytest.mark.parametrize("bad", [{"trainer": "dvd", "lambda_arms": [0.0, 2.0]},
                                     {"cells_per_dim": 0}, {"queue_capacity": 0},
                                     {"aux_lr": -0.001}, {"grad_clip": -1},
                                     {"eval_episodes": 1.5}, {"diversity_iters": 1.5},
                                     {"deterministic_kernel": "no"},
                                     {"ppo": {"epochs": 2.5}}])
    def test_values_the_run_would_reject(self, tmp_path, capsys, bad):
        cfg = _cfg_file(tmp_path, bad)
        rc, out, err = _run_main(capsys, ["validate", "--config", cfg])
        assert rc != 0
        assert out == ""
        assert json.loads(err)["error"]["type"] == "config"

    @pytest.mark.parametrize("bad", [{"scale": "0.1"}, {"beta": "0.5"},
                                     {"ppo": {"gamma": "0.9"}}, {"hidden": [8.7]},
                                     {"hidden": [0]}, {"hidden": [-3]}, {"hidden": [True]},
                                     {"hidden": 8}, {"lambda_arms": [True, "0.5"]},
                                     {"lambda_arms": 0.5}, {"total_steps": float("inf")},
                                     {"scale": 1e308, "total_steps": 1e308}, {"seed": -1},
                                     {"seed": [1]}, {"scale": 10**400}])
    def test_wrong_type_or_size_is_one_config_error(self, tmp_path, capsys, bad):
        """Both commands exit 1 with one JSON config error, not a traceback, and
        the run writes nothing."""
        cfg = _cfg_file(tmp_path, bad)
        out_dir = tmp_path / "exp"
        for argv in (["validate", "--config", cfg],
                     ["run", "--config", cfg, "--out", str(out_dir)]):
            rc, out, err = _run_main(capsys, argv)
            assert rc == 1
            assert out == ""
            assert len(err.splitlines()) == 1
            error = json.loads(err)["error"]
            assert error["type"] == "config"
            assert next(iter(bad)) in error["message"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("bad, flags, kind, key", [
        ({}, ["--seeds", "0,-1"], "config", "seed"),
        ({}, ["--seeds", "-1"], "config", "seed"),
        ({"out": "runs"}, [], "usage", "out"),
        ({"out": None}, [], "usage", "out"),
        ({"env": "dogfight"}, [], "usage", "env"),
        ({"exploit_period": 1e-200, "scale": 1e-200, "iterations": 2}, [], "config",
         "exploit_period"),
        ({"env_name": ["toy"]}, [], "config", "env_name"),
        ({"env_name": {"name": "toy"}}, [], "config", "env_name"),
        ({"eval_every": 0}, [], "config", "eval_every must be an integer >= 1, got 0"),
        ({"seeds": [0, 1]}, [], "usage", "seeds")])
    def test_config_the_run_cannot_use_is_one_error(self, tmp_path, capsys, bad, flags, kind,
                                                    key):
        """Validate refuses what the run would fail on, with one JSON error
        naming the key, and the run writes nothing."""
        cfg = _cfg_file(tmp_path, bad)
        out_dir = tmp_path / "exp"
        for argv in (["validate", "--config", cfg],
                     ["run", "--config", cfg, "--out", str(out_dir)]):
            rc, out, err = _run_main(capsys, argv + flags)
            assert rc == (1 if kind == "config" else 2)
            assert out == ""
            assert len(err.splitlines()) == 1
            error = json.loads(err)["error"]
            assert error["type"] == kind
            assert key in error["message"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("ppo", [{"minibatches": 0}, {"epochs": -1}])
    def test_ppo_loop_counts_below_one(self, tmp_path, capsys, ppo):
        cfg = _cfg_file(tmp_path, {"ppo": ppo})
        out_dir = tmp_path / "exp"
        for argv in (["validate", "--config", cfg],
                     ["run", "--config", cfg, "--out", str(out_dir)]):
            rc, out, err = _run_main(capsys, argv)
            assert rc != 0
            assert out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "config"
            assert next(iter(ppo)) in error["message"]
        assert not out_dir.exists()

    def test_queue_archive_accepted(self, capsys):
        rc, out, _ = _run_main(capsys, ["validate"])
        assert json.loads(out)["config"]["archive"] == "grid"


_FAST = {"env_name": "toy", "population": 2, "iterations": 2, "rollout_steps": 32,
         "eval_episodes": 2, "eval_every": 1, "probe_states": 8,
         "hidden": [8], "diversity_iters": 1}


class TestRunCommand:
    def test_multi_seed_artifacts_and_aggregate(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, dict(_FAST, trainer="pdo"))
        out_dir = tmp_path / "exp"
        rc, out, err = _run_main(
            capsys, ["run", "--config", cfg, "--seeds", "0,1",
                     "--out", str(out_dir)])
        assert rc == 0
        summaries = []
        for seed in (0, 1):
            rd = out_dir / f"seed_{seed}"
            for artifact in ("config.json", "metrics.jsonl", "summary.json"):
                assert (rd / artifact).is_file()
            assert (rd / "archive" / "heatmap.csv").is_file()
            summaries.append(json.loads((rd / "summary.json").read_text()))
        aggregate = json.loads((out_dir / "aggregate.json").read_text())
        assert aggregate["seeds"] == [0, 1]
        for key in ("coverage", "qd_score", "max_fitness", "min_fitness"):
            vals = np.array([s["qd"][key] for s in summaries])
            assert aggregate["qd"][key]["mean"] == pytest.approx(vals.mean())
            assert aggregate["qd"][key]["std"] == pytest.approx(
                vals.std(ddof=1))
        # stdout carries the same aggregate
        assert json.loads(out)["qd"] == aggregate["qd"]

    def test_reward_only_matches_disabled_diversity(self, tmp_path, capsys):
        """pbt and pdo-without-auxiliary-phase leave identical metric logs."""
        base = dict(_FAST)
        cfg_a = _cfg_file(tmp_path, dict(base, trainer="pdo",
                                         diversity_iters=0), "a.json")
        cfg_b = _cfg_file(tmp_path, dict(base, trainer="pbt"), "b.json")
        rc_a, _, _ = _run_main(capsys, ["run", "--config", cfg_a,
                                        "--out", str(tmp_path / "a")])
        rc_b, _, _ = _run_main(capsys, ["run", "--config", cfg_b,
                                        "--out", str(tmp_path / "b")])
        assert rc_a == 0 and rc_b == 0
        log_a = (tmp_path / "a" / "seed_0" / "metrics.jsonl").read_bytes()
        log_b = (tmp_path / "b" / "seed_0" / "metrics.jsonl").read_bytes()
        assert log_a == log_b

    def test_config_json_replays_its_run(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, dict(_FAST, trainer="pdo"))
        rc, _, _ = _run_main(capsys, ["run", "--config", cfg, "--seeds", "3",
                                      "--out", str(tmp_path / "first")])
        assert rc == 0
        first = tmp_path / "first" / "seed_3"
        rc, _, _ = _run_main(capsys, ["run", "--config", str(first / "config.json"),
                                      "--out", str(tmp_path / "replay")])
        assert rc == 0
        replay = tmp_path / "replay" / "seed_3"
        assert [p.name for p in (tmp_path / "replay").glob("seed_*")] == ["seed_3"]
        assert (replay / "metrics.jsonl").read_bytes() == (first / "metrics.jsonl").read_bytes()
        assert (replay / "config.json").read_bytes() == (first / "config.json").read_bytes()

    def test_single_seed_zero_std(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, dict(_FAST, trainer="pbt"))
        rc, out, _ = _run_main(capsys, ["run", "--config", cfg,
                                        "--out", str(tmp_path / "one")])
        assert rc == 0
        agg = json.loads(out)
        assert all(v["std"] == 0.0 for v in agg["qd"].values())


class TestReportCommand:
    def _make_experiment(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, dict(_FAST, trainer="pbt"))
        out_dir = tmp_path / "exp"
        rc, _, _ = _run_main(capsys, ["run", "--config", cfg,
                                      "--seeds", "0,1",
                                      "--out", str(out_dir)])
        assert rc == 0
        return out_dir

    def test_report_over_experiment_root(self, tmp_path, capsys):
        out_dir = self._make_experiment(tmp_path, capsys)
        rep = tmp_path / "rep"
        rc, out, _ = _run_main(capsys, ["report", str(out_dir),
                                        "--out", str(rep)])
        assert rc == 0
        assert (rep / "curves.csv").is_file()
        assert (rep / "curves.svg").is_file()
        assert (rep / "heatmap_seed_0.svg").is_file()
        assert (rep / "heatmap_seed_1.svg").is_file()
        listed = json.loads(out)
        assert set(listed["report"]) == {"curves_csv", "curves_svg",
                                         "heatmap_seed_0", "heatmap_seed_1"}

    def test_report_missing_run_fails_with_name(self, tmp_path, capsys):
        rc, out, err = _run_main(
            capsys, ["report", str(tmp_path / "ghost")])
        assert rc != 0
        payload = json.loads(err)
        assert payload["error"]["type"] == "report"
        assert "ghost" in payload["error"]["message"]

    def test_report_rerun_is_byte_identical(self, tmp_path, capsys):
        out_dir = self._make_experiment(tmp_path, capsys)
        rep = tmp_path / "rep"
        _run_main(capsys, ["report", str(out_dir), "--out", str(rep)])
        before = {p.name: p.read_bytes() for p in rep.iterdir()}
        _run_main(capsys, ["report", str(out_dir), "--out", str(rep)])
        after = {p.name: p.read_bytes() for p in rep.iterdir()}
        assert before == after


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """A two-seed pbt experiment that tests copy before they break it."""
    root = tmp_path_factory.mktemp("experiment")
    cfg = _cfg_file(root, dict(_FAST, trainer="pbt"))
    assert main(["run", "--config", cfg, "--seeds", "0,1", "--out", str(root / "exp")]) == 0
    return root / "exp"


def _break_last_eval_record(run):
    lines = (run / "metrics.jsonl").read_text().splitlines()
    rec = json.loads(lines[-1])
    del rec["archive"]["coverage"]
    (run / "metrics.jsonl").write_text("\n".join(lines[:-1] + [json.dumps(rec)]) + "\n")


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-40])


def _drop_last_line(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _append(path, text):
    with open(path, "a") as fh:
        fh.write(text)


class TestReportRefusals:
    """A run the report cannot use is one report error naming the run and its
    file; nothing is written."""

    def _refused(self, capsys, argv, out):
        rc, stdout, err = _run_main(capsys, ["report", *argv, "--out", str(out)])
        assert rc == 1 and stdout == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["type"] == "report"
        assert not out.exists()
        return error["message"]

    @pytest.mark.parametrize("name,damage", [
        ("metrics.jsonl", lambda run: _truncate(run / "metrics.jsonl")),
        ("metrics.jsonl", lambda run: _append(run / "metrics.jsonl", "[1, 2]\n")),
        ("metrics.jsonl", lambda run: (run / "metrics.jsonl").write_bytes(b"\xff\xfe\n")),
        ("metrics.jsonl", _break_last_eval_record),
        ("config.json", lambda run: (run / "config.json").write_text("{}")),
        ("config.json", lambda run: (run / "config.json").write_text('{"env_name": "pong"}')),
        ("archive/heatmap.csv",
         lambda run: (run / "archive" / "heatmap.csv").write_text("not,a,grid\n")),
        ("archive/heatmap.csv", lambda run: (run / "archive" / "heatmap.csv").write_text("")),
        ("archive/heatmap.csv", lambda run: _drop_last_line(run / "archive" / "heatmap.csv")),
    ], ids=["truncated-metrics", "metrics-line-not-an-object", "undecodable-metrics",
            "eval-record-lacks-a-metric", "config-without-env", "unknown-env",
            "malformed-heatmap", "empty-heatmap", "heatmap-not-the-manifest-shape"])
    def test_damaged_run(self, tmp_path, capsys, experiment, name, damage):
        shutil.copytree(experiment, tmp_path / "exp")
        run = tmp_path / "exp" / "seed_1"
        damage(run)
        message = self._refused(capsys, [str(tmp_path / "exp")], tmp_path / "rep")
        assert str(run) in message and name in message

    def test_two_runs_of_one_name(self, tmp_path, capsys, experiment):
        for side in "ab":
            shutil.copytree(experiment, tmp_path / side)
        a, b = str(tmp_path / "a" / "seed_0"), str(tmp_path / "b" / "seed_0")
        message = self._refused(capsys, [a, b], tmp_path / "rep")
        assert a in message and b in message

    @pytest.mark.parametrize("second", ["exp/seed_0", "exp"])
    def test_one_run_given_twice(self, tmp_path, capsys, experiment, second):
        shutil.copytree(experiment, tmp_path / "exp")
        run = str(tmp_path / "exp" / "seed_0")
        message = self._refused(capsys, [run, str(tmp_path / second)], tmp_path / "rep")
        assert message.count(run) == 2


class TestFlagValues:
    """An empty flag value is a usage error naming its flag, never "not given"."""

    @pytest.mark.parametrize("argv,flag", [
        (["run", "--seeds", "", "--out", "o1"], "--seeds"),
        (["run", "--config", "", "--out", "o1"], "--config"),
        (["run", "--out", ""], "--out"),
        (["validate", "--seeds", ""], "--seeds"),
        (["validate", "--config", ""], "--config"),
        (["report", "r", "--out", ""], "--out"),
    ])
    def test_empty_value_is_one_usage_error(self, tmp_path, capsys, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        rc, out, err = _run_main(capsys, argv)
        assert rc == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["type"] == "usage" and flag in error["message"]
        assert list(tmp_path.iterdir()) == []

    def test_empty_out_in_the_config_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = _cfg_file(tmp_path, dict(_FAST, out=""))
        rc, out, err = _run_main(capsys, ["run", "--config", cfg])
        assert rc == 2 and out == ""
        assert json.loads(err)["error"]["message"] == "unknown config keys: out"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"{"], ids=["undecodable", "invalid"])
    def test_config_file_that_is_not_json(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        rc, out, err = _run_main(capsys, ["validate", "--config", str(path)])
        assert rc == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["type"] == "usage"
        assert error["message"].startswith(f"config file {path} is not valid JSON: ")

    @pytest.mark.parametrize("target,what", [("devnull", "is not a regular file"),
                                             ("directory", "is not a regular file"),
                                             ("absent", "does not exist")])
    def test_config_path_that_is_not_a_file(self, tmp_path, capsys, target, what):
        path = {"devnull": os.devnull, "directory": str(tmp_path),
                "absent": str(tmp_path / "absent.json")}[target]
        rc, _, err = _run_main(capsys, ["validate", "--config", path])
        assert rc == 2
        error = json.loads(err)["error"]
        assert error["type"] == "usage"
        assert error["message"] == f"config file {path} {what}"


def _child_env() -> dict:
    """The environment with this checkout's src/ first on the import path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = _cfg_file(tmp_path, {"trainer": "ppo-single", "population": 1})
        proc = subprocess.run(
            [sys.executable, "-m", "phasic.cli", "validate",
             "--config", cfg],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True

    def test_module_invocation_failure_json(self):
        proc = subprocess.run(
            [sys.executable, "-m", "phasic.cli", "run", "--seeds", "x"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode != 0
        assert json.loads(proc.stderr)["error"]["type"] == "usage"
