"""The benchmark's tracing hooks and workloads still fit the engine they time.

``perfbench/tracing.py`` swaps module attributes and class methods of the
program for timing wrappers.  These tests load that file as it is and check
that every swap finds its target, that the training engine routes its work
through the swapped names, and that leaving the context restores them all.
They also load ``perfbench/workloads.py`` as it is and run one round of each
workload at seed 0, whose behaviour digest must match the reference table.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from factories import random_discrete_policy
import phasic.detops
import phasic.trainers
from phasic.archive import FitnessQueue, GridArchive
from phasic.kernels import StateBatch
from phasic.nets import NormalizedPolicy, Policy, ValueFunction
from phasic.trainers import TrainerConfig, make_env, run_training

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACING = _PERFBENCH / "tracing.py"
OWNERS = (phasic.trainers, phasic.detops, GridArchive, FitnessQueue, Policy, ValueFunction)


# the seed-0 behaviour digest of one round of each workload, as in the
# reference table of perfbench/README.md
BENCHMARK_DIGESTS = {
    "toy-pdo": "b8df74ba0928a310cc4cb7c6bcea3273499d1bc36c536ff8668732bdaa6ac6e8",
    "dogfight-pdo": "eeb66693114c5924d3cd2379a9d32c076b02343593f0dd8bbafd5ca3bcec1fc8",
    "ascent": "3246ba69cf94360f63b361910d4e4e8dea06621503e55bea34020e9a4ba15aad",
}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("perfbench_tracing", _TRACING)


@pytest.fixture(scope="module")
def workloads(tracing):
    # workloads.py imports its sibling module by the name ``tracing``
    saved = sys.modules.get("tracing")
    sys.modules["tracing"] = tracing
    try:
        return _load("perfbench_workloads", _PERFBENCH / "workloads.py")
    finally:
        if saved is None:
            del sys.modules["tracing"]
        else:
            sys.modules["tracing"] = saved


def _swapped(before):
    return {(owner.__name__, name) for owner, old in zip(OWNERS, before)
            for name, value in vars(owner).items() if old.get(name) is not value}


def test_instrumented_restores_every_patched_attribute(tracing):
    before = [dict(vars(owner)) for owner in OWNERS]
    with tracing.instrumented(tracing.EnvMeter(tracing.Tracer())):
        inside = _swapped(before)
    assert {("phasic.trainers", "collect_rollout"), ("phasic.trainers", "ppo_update"),
            ("phasic.trainers", "evaluate"), ("phasic.trainers", "diversity_ascent"),
            ("GridArchive", "add"), ("FitnessQueue", "add")} <= inside
    for owner, old in zip(OWNERS, before):
        now = dict(vars(owner))
        assert now.keys() == old.keys(), owner.__name__
        assert all(now[name] is value for name, value in old.items()), owner.__name__


def test_engine_calls_run_through_the_hooks(tracing, tmp_path):
    cfg = TrainerConfig(env_name="toy", trainer="pdo", population=2, iterations=2,
                        rollout_steps=32, eval_episodes=1, diversity_iters=2,
                        probe_states=16, hidden=(8,), exploit_period=32.0,
                        scale=1.0, seed=3)
    tracer = tracing.Tracer()
    meter = tracing.EnvMeter(tracer)
    with tracing.instrumented(meter):
        result = run_training(cfg, out_dir=tmp_path / "run",
                              env_factory=meter.factory(lambda: make_env("toy")))
    assert meter.train_steps == cfg.iterations * cfg.rollout_steps * cfg.population
    table = tracer.table()
    # one population rollout per iteration; one live evaluation per cycle, plus
    # one per auxiliary candidate
    for name, calls in (("rl.collect_rollout", 2), ("rl.ppo_update", 4),
                        ("rl.evaluate", 2 + 2 * 2), ("detops.diversity_ascent", 2),
                        ("archive.save", 1)):
        assert table.durations(name).size == calls, name
    offers = 4 + sum(r["aux"]["offered"] for r in result.records)
    assert table.durations("archive.grid_insert").size == offers
    assert table.durations("archive.queue_insert").size == offers
    assert tracer.counts["archive.inserts"] == 2 * offers


@pytest.mark.parametrize("view", [False, True])
def test_traced_ascent_spans_each_network_call_once(tracing, view):
    """A JSD ascent records one forward span per policy and kernel forward and
    one backward span per policy and step: ``backward_probs`` runs through
    ``backward_logits`` without a second ``nets.backward`` span."""
    rng = np.random.default_rng(5)
    pols = [random_discrete_policy(rng) for _ in range(3)]
    if view:
        pols = [NormalizedPolicy(p, rng.standard_normal(2), rng.uniform(0.5, 2.0, 2))
                for p in pols]
    tracer, steps = tracing.Tracer(), 2
    with tracing.instrumented(tracing.EnvMeter(tracer)):
        phasic.trainers.diversity_ascent(pols, StateBatch(rng.standard_normal((6, 2))),
                                         steps=steps, metric="jsd",
                                         rng=np.random.default_rng(6))
    table = tracer.table()
    assert table.durations("kernels.jsd_forward").size == steps + 1
    assert table.durations("nets.policy_forward_batch").size == 3 * (steps + 1)
    assert table.children_of("kernels.jsd_forward", "nets.policy_forward_batch") == 3 * (steps + 1)
    assert table.durations("kernels.jsd_backward").size == steps
    assert table.durations("nets.backward").size == 3 * steps
    assert table.children_of("kernels.jsd_backward", "nets.backward") == 3 * steps


@pytest.mark.parametrize("name", list(BENCHMARK_DIGESTS))
def test_workload_round_keeps_its_seed_zero_digest(workloads, name):
    assert BENCHMARK_DIGESTS[name] in (_PERFBENCH / "README.md").read_text()
    workload = workloads.WORKLOADS[name]
    result = workload.run_round(workload.setup(0), tracer=None)
    assert result.errors == []
    assert result.failed == 0
    assert result.digest == BENCHMARK_DIGESTS[name]
