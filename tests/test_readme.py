"""README's examples hold: the diversity snippet climbs, and the config
example and the flags it lists are ones the CLI takes."""

import argparse
import json
import re
from pathlib import Path

import numpy as np

import phasic
from phasic import trainers
from phasic.cli import _ENV_DEFAULTS, build_parser, resolve_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_blocks():
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_standalone_diversity_snippet_climbs(monkeypatch):
    # the snippet imports diversity_ascent from phasic; record each trace it returns
    real, traces = phasic.diversity_ascent, []

    def recording(*args, **kwargs):
        out, trace = real(*args, **kwargs)
        traces.append((kwargs.get("metric", "w2"), trace))
        return out, trace

    monkeypatch.setattr(phasic, "diversity_ascent", recording)
    # the block continues the first one, which imports numpy
    exec(compile("import numpy as np\n" + _library_use_blocks()[1], str(README), "exec"), {})
    assert [metric for metric, _ in traces] == ["w2", "jsd"]
    for _, trace in traces:
        assert len(trace) == 21
        assert np.all(np.diff(trace) >= 0.0)


def test_config_example_resolves():
    block, = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    config, seeds = resolve_config(json.loads(block))
    assert (config.trainer, config.env_name, seeds) == ("pdo", "toy", [0])


def test_flags_line_names_options_of_run():
    line = README.read_text().split("\nFlags:", 1)[1].split("\n\n", 1)[0]
    flags = set(re.findall(r"`(--[a-z-]+)", line))
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for action in sub.choices["run"]._actions for opt in action.option_strings}
    assert flags == options - {"-h", "--help"}


def _readme_set(key: str) -> set:
    """The backticked names of the README's ``key ∈ {…}`` set."""
    members, = re.findall(rf"`{key}` ∈ \{{(.*?)\}}", README.read_text(), flags=re.S)
    return set(re.findall(r"`([^`]+)`", members))


def test_value_sets_match_the_tables():
    assert _readme_set("trainer") == set(trainers.TRAINERS)
    assert _readme_set("env_name") == set(trainers.ENVS)
    assert _readme_set("archive") == set(trainers.ARCHIVES)
    assert set(_ENV_DEFAULTS) <= set(trainers.ENVS)
