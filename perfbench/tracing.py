"""Spans and counters recorded from outside the program, at layer boundaries.

Nothing under ``src/`` is edited: the benchmark swaps the module attributes
and class methods that ``phasic.trainers`` and ``phasic.detops`` call for
timing wrappers, and hands ``run_training`` a counting env through its
``env_factory`` parameter.  Every swap is undone when the round ends.

Spans live in flat in-memory arrays (name id, parent index, start, end) and
are written once, after the last round.  A call that re-enters the layer it
is already inside (``Policy.backward_probs`` calling ``probs_batch``) is not
recorded again, so each span belongs to exactly one layer call.
"""

from __future__ import annotations

import contextlib
import json
from array import array
from time import perf_counter

import numpy as np

import phasic.archive
import phasic.detops
import phasic.nets
import phasic.trainers


class Tracer:
    """In-memory span store with parent links, plus plain event counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._layers = [None]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, layer: str) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self._layers.append(layer)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._layers.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name), name.split(".")[0])
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, layer: str, name, on_result=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``on_result(result, args, kwargs)`` sees each result.
        """
        fixed = None if callable(name) else self._id(name)

        def traced(*args, **kwargs):
            if self._layers[-1] == layer:
                return fn(*args, **kwargs)
            nid = fixed if fixed is not None else self._id(name(args, kwargs))
            idx = self._open(nid, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def table(self, lo: int = 0, hi: int | None = None) -> "SpanTable":
        hi = len(self.start) if hi is None else hi
        # copies: a live view would stop the arrays from growing
        return SpanTable(self.names, np.array(self.name_id[lo:hi], dtype=np.int32),
                         np.array(self.parent[lo:hi], dtype=np.int32) - lo,
                         np.array(self.start[lo:hi]), np.array(self.end[lo:hi]))

    def save(self, path) -> None:
        """Write every span: names table plus one row per span."""
        np.savez_compressed(
            path, names=np.frombuffer(json.dumps(self.names).encode(), dtype=np.uint8),
            name_id=np.frombuffer(self.name_id, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            start=np.frombuffer(self.start, np.float64),
            end=np.frombuffer(self.end, np.float64))


class SpanTable:
    """Durations and self times (duration minus direct children) of a span slice.

    Parent indices are relative to the slice; a parent outside it is < 0.
    """

    def __init__(self, names, name_id, parent, start, end):
        self.names = names
        self.name_id = name_id
        self.parent = parent
        self.dur = end - start
        inside = parent >= 0
        child = np.zeros_like(self.dur)
        np.add.at(child, parent[inside], self.dur[inside])
        self.self_time = self.dur - child

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.dur.shape, dtype=bool)
        return self.name_id == self.names.index(name)

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self._mask(name)]

    def self_times(self, name: str) -> np.ndarray:
        return self.self_time[self._mask(name)]

    def children_of(self, parent_name: str, child_name: str) -> int:
        """How many ``child_name`` spans sit directly under ``parent_name`` spans."""
        parents = np.flatnonzero(self._mask(parent_name))
        kids = self._mask(child_name)
        return int(np.isin(self.parent[kids], parents).sum())


class EnvMeter:
    """Counts env steps, split into training steps (inside a rollout) and the rest.

    With a host gauge, an env reset also takes a gauge sample when one is
    due; ``gauge_s`` adds up their time.
    """

    def __init__(self, tracer: Tracer | None, gauge=None):
        self.tracer = tracer
        self.gauge = gauge
        self.gauge_s = 0.0
        self.in_rollout = False
        self.train_steps = 0
        self.other_steps = 0

    def factory(self, make_env):
        return lambda: MeteredEnv(make_env(), self)


class MeteredEnv:
    """Transparent env wrapper: same observations, rewards and RNG use."""

    def __init__(self, env, meter: EnvMeter):
        self.env = env
        self.meter = meter
        self.obs_dim = env.obs_dim
        self.action_space = env.action_space
        self.qd_offset = env.qd_offset
        self._step = env.step
        self._reset = env.reset
        if meter.tracer is not None:
            kind = type(env).__name__.removesuffix("Env").lower()
            self._step = meter.tracer.wrap(env.step, "env", f"{kind}.step")
            self._reset = meter.tracer.wrap(env.reset, "env", f"{kind}.reset")

    def reset(self, rng):
        if self.meter.gauge is not None:
            self.meter.gauge_s += self.meter.gauge.sample_if_due()
        return self._reset(rng)

    def step(self, action):
        meter = self.meter
        if meter.in_rollout:
            meter.train_steps += 1
        else:
            meter.other_steps += 1
        return self._step(action)

    def episode_bd(self, actions, last_info):
        return self.env.episode_bd(actions, last_info)


def _forward_name(prefix):
    return lambda args, kwargs: prefix + ("1" if len(args[1]) == 1 else "_batch")


def _kernel_forward_name(args, kwargs):
    metric = args[2] if len(args) > 2 else kwargs.get("metric", "w2")
    return f"kernels.{metric}_forward"


def _kernel_backward_name(args, kwargs):
    return f"kernels.{args[0].metric}_backward"


@contextlib.contextmanager
def instrumented(meter: EnvMeter):
    """Install the rollout flag and, when tracing, every layer wrapper."""
    tracer = meter.tracer
    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    rollout = phasic.trainers.collect_rollout
    if tracer is not None:
        rollout = tracer.wrap(rollout, "rl", "rl.collect_rollout")

        def count_accept(result, args, kwargs):
            tracer.count("archive.inserts")
            tracer.count("archive.accepted", int(bool(result)))

        nets = phasic.nets
        for owner, attr, layer, name, hook in (
                (phasic.trainers, "ppo_update", "rl", "rl.ppo_update", None),
                (phasic.trainers, "evaluate", "rl", "rl.evaluate", None),
                (phasic.trainers, "diversity_ascent", "detops", "detops.diversity_ascent", None),
                (phasic.trainers, "save_archive", "archive", "archive.save", None),
                (phasic.detops, "kernel_forward", "kernels", _kernel_forward_name, None),
                (phasic.detops, "kernel_backward", "kernels", _kernel_backward_name, None),
                (phasic.archive.GridArchive, "add", "archive", "archive.grid_insert", count_accept),
                (phasic.archive.FitnessQueue, "add", "archive", "archive.queue_insert", count_accept),
                (nets.Policy, "gaussian_batch", "nets", _forward_name("nets.policy_forward"), None),
                (nets.Policy, "probs_batch", "nets", _forward_name("nets.policy_forward"), None),
                (nets.Policy, "backward_gaussian", "nets", "nets.backward", None),
                (nets.Policy, "backward_probs", "nets", "nets.backward", None),
                (nets.Policy, "backward_logits", "nets", "nets.backward", None),
                (nets.ValueFunction, "value", "nets", "nets.value_forward1", None),
                (nets.ValueFunction, "backward", "nets", "nets.backward", None)):
            patch(owner, attr, tracer.wrap(owner.__dict__[attr], layer, name, hook))

    def flagged_rollout(*args, **kwargs):
        meter.in_rollout = True
        try:
            return rollout(*args, **kwargs)
        finally:
            meter.in_rollout = False

    patch(phasic.trainers, "collect_rollout", flagged_rollout)
    try:
        yield
    finally:
        for owner, attr, old in reversed(patches):
            setattr(owner, attr, old)
