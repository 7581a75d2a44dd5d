"""The benchmark's tracing hooks still fit the engine they time.

``perfbench/tracing.py`` swaps module attributes and class methods of the
program for timing wrappers.  These tests load that file as it is and check
that every swap finds its target, that the training engine routes its work
through the swapped names, and that leaving the context restores them all.
Each workload's seed-0 round is a pin of ``pins.json`` (see ``pins.py``).
"""

import numpy as np
import pytest

import pins
from factories import random_discrete_policy
import phasic.detops
import phasic.trainers
from phasic.archive import FitnessQueue, GridArchive
from phasic.kernels import StateBatch
from phasic.nets import NormalizedPolicy, Policy, ValueFunction
from phasic.trainers import TrainerConfig, make_env, run_training

OWNERS = (phasic.trainers, phasic.detops, GridArchive, FitnessQueue, Policy, ValueFunction)


@pytest.fixture(scope="module")
def tracing():
    return pins.perfbench("tracing")


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
                        probe_states=16, hidden=(8,), exploit_period=32.0, seed=3)
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
