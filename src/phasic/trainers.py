"""Population training loops: two-phase diversity training and baselines.

One engine drives every variant so ablations compare like with like.  Every
variant runs the same population update, ``dvd_update``, which mixes each
learner's PPO step with a determinant-ascent step by a coefficient λ; the
variants differ only in how they pick λ and which phases they add:

* ``pdo``        — λ = 0, periodic exploitation from the archive, then an
                   auxiliary diversity phase that ascends the kernel
                   determinant on archive copies (never live learners).
* ``pbt``        — pdo minus the auxiliary phase.
* ``dvd``        — λ picked by Thompson sampling each cycle.
* ``dse-ucb``    — λ picked by UCB1.
* ``edo-cs``     — pdo loop with exploit/auxiliary candidates picked by
                   behavior-clustered selection instead of top-by-fitness.
                   (The embedding — mean actions on probe states — is a
                   documented stand-in; see that module's docstring.)
* ``ppo-single`` — one learner at λ = 0, archive kept for reporting only.

Determinism: all randomness flows from one seed through fixed-order child
streams (one per learner, plus exploitation, auxiliary, and bandit streams),
so ``pdo`` with ``diversity_iters=0`` replays ``pbt`` bit for bit, and every
run is reproducible from its config.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import time
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from .archive import MAX_CELLS_PER_DIM, FitnessQueue, GridArchive, qd_metrics, save_archive
from .detops import diversity_ascent
from .dogfight import DogfightEnv
from .kernels import StateBatch
from .nets import Policy, ValueFunction
from .optim import Adam
from .rl import (Learner, PPOConfig, RunningStat, collect_rollout, evaluate, ppo_update,
                 restore_payload, snapshot_payload)
from .selection import (BanditState, bandit_update, clustering_selection,
                        thompson_select, ucb_select)
from .toy import ToyEnv

TRAINERS = ("pdo", "pbt", "dvd", "dse-ucb", "edo-cs", "ppo-single")
ENVS = {"toy": ToyEnv, "dogfight": DogfightEnv}
ARCHIVES = ("grid", "queue")

# trainers that pick the diversity coefficient λ by bandit; the rest keep λ = 0
_JOINT = ("dvd", "dse-ucb")
# trainers that exploit the archive into the worst live learner
_EXPLOITING = ("pdo", "pbt", "edo-cs")
# count fields and the least value each may hold; a count is an integer, not a
# bool.  A negative seed is refused here, since SeedSequence refuses it only once
# the run has begun
_COUNTS = {"population": 1, "iterations": 1, "rollout_steps": 1, "eval_every": 1,
           "eval_episodes": 1, "diversity_iters": 0, "probe_states": 1, "cells_per_dim": 1,
           "queue_capacity": 1, "seed": 0, "ppo.epochs": 1, "ppo.minibatches": 1}
# real fields and the interval each must lie in; a real is a number, not a bool
_REALS = {"exploit_period": "> 0", "beta": "in (0, 1)", "aux_lr": "> 0", "grad_clip": "> 0",
          "ppo.clip": "> 0", "ppo.lr": "> 0", "ppo.gamma": "in [0, 1]", "ppo.lam": "in [0, 1]",
          "ppo.value_coef": ">= 0"}
# each interval as it reads, and its predicate; NaN fails every one
_INTERVALS = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0,
              "in (0, 1)": lambda v: 0 < v < 1, "in [0, 1]": lambda v: 0 <= v <= 1}


@dataclass(frozen=True)
class TrainerConfig:
    env_name: str = "toy"
    trainer: str = "pdo"
    archive: str = "grid"           # container mediating exploit/auxiliary sourcing
    population: int = 5
    # the paper's budget at 1/50 desk scale: 3e6 / 50 env steps per learner in
    # 512-step rollouts, and 6e5 / 50 env steps between exploitations
    iterations: int = 118           # rollouts per learner: the run's length
    exploit_period: float = 12000.0  # env steps between exploitations (inf disables)
    rollout_steps: int = 512
    eval_episodes: int = 10
    eval_every: int = 1             # iterations between evaluation cycles
    diversity_iters: int = 20       # auxiliary ascent steps (0 = ablated)
    beta: float = 0.99
    aux_lr: float = 1e-3
    grad_clip: float = 1.0
    deterministic_kernel: bool = False
    probe_states: int = 256
    lambda_arms: tuple = (0.0, 0.5)
    hidden: tuple = (64, 64)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    seed: int = 0
    cells_per_dim: int = 10
    queue_capacity: int = 10


def _is_count(value, least) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def _is_real(value, interval: str) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and not (isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max)
            and _INTERVALS[interval](value))


def validate_config(config: TrainerConfig) -> None:
    """Refuse a config the run cannot use, naming the field and its value."""
    for name, choices in (("trainer", TRAINERS), ("env_name", tuple(ENVS)),
                          ("archive", ARCHIVES)):  # tuples: an unhashable name is unknown too
        if getattr(config, name) not in choices:
            raise ValueError(f"unknown {name} {getattr(config, name)!r}; choose from {choices}")
    for name, least in _COUNTS.items():
        value = attrgetter(name)(config)
        if not _is_count(value, least):
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if config.cells_per_dim > MAX_CELLS_PER_DIM:  # the archive writes a dense heatmap
        raise ValueError(f"cells_per_dim must be at most {MAX_CELLS_PER_DIM}, "
                         f"got {config.cells_per_dim!r}")
    for name, interval in _REALS.items():
        value = attrgetter(name)(config)
        if not _is_real(value, interval):
            raise ValueError(f"{name} must be a number {interval}, got {value!r}")
    if not (isinstance(config.hidden, (tuple, list))
            and all(_is_count(h, 1) for h in config.hidden)):
        raise ValueError(f"hidden must be a list of integers >= 1, got {config.hidden!r}")
    arms = config.lambda_arms
    if not (isinstance(arms, (tuple, list)) and arms
            and all(_is_real(lam, "in [0, 1]") for lam in arms)):
        raise ValueError(f"lambda_arms must be a non-empty list of numbers in [0, 1], "
                         f"got {arms!r}")
    if not isinstance(config.deterministic_kernel, bool):
        raise ValueError(f"deterministic_kernel must be true or false, "
                         f"got {config.deterministic_kernel!r}")
    need = "exactly 1 learner" if config.trainer == "ppo-single" else "at least 2 learners"
    if (config.population == 1) != (config.trainer == "ppo-single"):
        raise ValueError(f"{config.trainer} runs {need}, got population {config.population!r}")


def make_env(name: str):
    if name not in ENVS:
        raise ValueError(f"unknown env {name!r}")
    return ENVS[name]()


def _offer(archive, queue, view, fitness, bd, **meta) -> tuple:
    """Offer one evaluated view to the grid, then the queue; returns both verdicts."""
    return archive.add(view, fitness, bd, **meta), queue.add(view, fitness, bd, **meta)


def dvd_update(learners, buffers, lam, probe_states, config: TrainerConfig,
               aux_rng: np.random.Generator) -> list:
    """One joint step: theta += (1-lam) * dtheta_reward + lam * dtheta_diversity.

    The reward delta is each learner's full PPO update; the diversity delta is
    one determinant-ascent step on the learners' ``view()``s, or zero for fewer
    than two learners.  ``lam`` = 0 is plain PPO exactly, with no ascent and no
    ``aux_rng`` draw, and ``lam`` = 1 the pure ascent step.  Value functions
    and optimizer state always take the reward path.  Each learner gets its new
    nets in place, except one whose update turns non-finite: it keeps its nets
    and its stats are flagged ``nan_event``.  Returns the stats list.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    aux_out = None
    if lam > 0.0 and len(learners) >= 2:
        aux_out, _ = diversity_ascent(
            [l.view() for l in learners], StateBatch(probe_states), steps=1,
            beta=config.beta, lr=config.aux_lr, grad_clip=config.grad_clip,
            deterministic=config.deterministic_kernel, rng=aux_rng)
    stats_list = []
    for i, (learner, buffer) in enumerate(zip(learners, buffers)):
        policy = learner.policy
        new_policy, new_value, stats = ppo_update(
            policy, learner.value_fn, buffer, config.ppo,
            learner.policy_opt, learner.value_opt, learner.rng)
        ascended = policy.params if aux_out is None else aux_out[i].params
        mixed = new_policy.params
        if lam == 1.0:
            mixed = ascended
        elif lam > 0.0:
            mixed = (policy.params + (1.0 - lam) * (new_policy.params - policy.params)
                     + lam * (ascended - policy.params))
        if stats.nan_event or not np.all(np.isfinite(mixed)):
            stats.nan_event = True
        else:
            learner.policy = policy.with_params(mixed) if lam > 0.0 else new_policy
            learner.value_fn = new_value
        stats_list.append(stats)
    return stats_list


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    return x


def _sample_probes(pool: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    if pool.shape[0] <= k:
        return pool.copy()
    return pool[rng.choice(pool.shape[0], size=k, replace=False)]


@dataclass
class RunState:
    """All of a run's mutable state: the phase functions advance it in place,
    and ``run_training`` returns it with every record and the summary.  It holds
    the M evaluation envs: the live population runs on them, auxiliary candidate
    k on ``eval_envs[k]``; every evaluation resets its env before stepping it."""

    config: TrainerConfig
    learners: list
    archive: GridArchive
    queue: FitnessQueue
    bandit: BanditState
    exploit_rng: np.random.Generator
    aux_rng: np.random.Generator
    bandit_rng: np.random.Generator
    eval_envs: list                 # one evaluation env per population slot
    last_snapshot: list             # per-learner payloads for NaN recovery
    next_exploit: float             # cumulative env steps at which exploitation is due
    qd_offset: float                # the env's fitness floor for QD-score
    arm: int | None = None          # the bandit's current arm (bandit trainers only)
    lam: float = 0.0                # the diversity coefficient λ of that arm
    bandit_best: float = float("-inf")  # best archive fitness the bandit has credited
    records: list = field(default_factory=list)  # one metrics record per iteration
    summary: dict | None = None     # set when the run ends

    @classmethod
    def create(cls, config: TrainerConfig, factory) -> "RunState":
        """Build 2M envs; seed every stream in a fixed order: learners, exploit, aux, bandit."""
        m = config.population
        seqs = np.random.SeedSequence(config.seed).spawn(m + 3)
        eval_envs = [factory() for _ in range(m)]
        proto = eval_envs[0]
        learners = []
        for i in range(m):
            rng = np.random.default_rng(seqs[i])
            policy = Policy.init(proto.obs_dim, proto.action_space, rng, hidden=config.hidden)
            value_fn = ValueFunction.init(proto.obs_dim, rng, hidden=config.hidden)
            learners.append(Learner(
                id=i, policy=policy, value_fn=value_fn,
                policy_opt=Adam(policy.n_params, lr=config.ppo.lr),
                value_opt=Adam(value_fn.params.size, lr=config.ppo.lr),
                obs_stat=RunningStat((proto.obs_dim,)), rng=rng, train_env=factory()))
        state = cls(
            config=config, learners=learners,
            archive=GridArchive(cells_per_dim=config.cells_per_dim),
            queue=FitnessQueue(capacity=config.queue_capacity),
            bandit=BanditState(arms=tuple(config.lambda_arms)),
            exploit_rng=np.random.default_rng(seqs[m]),
            aux_rng=np.random.default_rng(seqs[m + 1]),
            bandit_rng=np.random.default_rng(seqs[m + 2]),
            eval_envs=eval_envs,
            last_snapshot=[snapshot_payload(l) for l in learners],
            next_exploit=config.exploit_period,  # inf: never
            qd_offset=proto.qd_offset)
        if config.trainer in _JOINT:
            _select_arm(state)
        return state

    @property
    def mediator(self):
        """The container that exploitation and the auxiliary phase draw from."""
        return self.archive if self.config.archive == "grid" else self.queue


def run_training(config: TrainerConfig, out_dir=None, env_factory=None) -> RunState:
    """Execute one training run; writes run artifacts when ``out_dir`` is given.

    Each iteration runs the reward phase; each evaluation cycle then runs
    evaluate-and-offer, exploitation, the auxiliary phase and the bandit, in
    that order.  The run directory holds config.json, metrics.jsonl (one
    record per iteration), archive/ (policy snapshots + manifest + heatmap),
    and summary.json.  Wall-clock only ever appears in the summary so metric
    logs from equal-seed runs can be compared byte for byte.
    """
    validate_config(config)
    started = time.perf_counter()
    state = RunState.create(config, env_factory or (lambda: make_env(config.env_name)))
    records = state.records
    metrics_fh = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "config.json", "w") as fh:
            json.dump(_jsonable(asdict(config)), fh, indent=2, sort_keys=True)
        metrics_fh = open(out_dir / "metrics.jsonl", "w")

    try:
        for it in range(config.iterations):
            learner_records, probe_pool = _reward_phase(state)
            record = {"type": "iteration", "iteration": it,
                      "env_steps": (it + 1) * config.rollout_steps,
                      "learners": learner_records, "eval": None, "archive": None,
                      "exploit": None, "aux": None, "bandit": None}
            if (it + 1) % config.eval_every == 0 or it == config.iterations - 1:
                record["eval"] = _evaluate_and_offer(state, it)
                record["exploit"] = _exploit(state, probe_pool, record["env_steps"])
                record["aux"] = _auxiliary_phase(state, probe_pool, it)
                record["bandit"] = _bandit_phase(state)
                record["archive"] = qd_metrics(state.archive, fitness_offset=state.qd_offset)

            clean = _jsonable(record)
            records.append(clean)
            if metrics_fh is not None:
                metrics_fh.write(json.dumps(clean, sort_keys=True) + "\n")
                metrics_fh.flush()
    finally:
        if metrics_fh is not None:
            metrics_fh.close()

    state.summary = summary = {
        "trainer": config.trainer, "env": config.env_name, "seed": config.seed,
        "iterations": config.iterations,
        "env_steps_per_learner": config.iterations * config.rollout_steps,
        "qd": qd_metrics(state.archive, fitness_offset=state.qd_offset),
        "queue_best": state.queue.best().fitness if len(state.queue) else None,
        "nan_events": sum(l["nan_event"] for r in records for l in r["learners"]),
        "exploit_events": sum(r["exploit"] is not None for r in records),
        "aux_offers": sum(r["aux"]["offered"] for r in records if r["aux"]),
        "aux_accepts": sum(r["aux"]["accepted"] for r in records if r["aux"]),
        "wall_clock_s": time.perf_counter() - started,
    }
    if out_dir is not None:
        save_archive(state.archive, out_dir / "archive")
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
    return state


def _reward_phase(state: RunState) -> tuple:
    """One lockstep rollout and one population update, restoring NaN learners.

    Returns the learner records and the probe pool (the rollouts' raw frames).
    """
    config, learners = state.config, state.learners
    buffers = collect_rollout(learners, config.rollout_steps, config.ppo.gamma)
    probe_pool = np.concatenate([buf.raw_obs for buf in buffers], axis=0)
    probes = (_sample_probes(probe_pool, config.probe_states, state.aux_rng)
              if state.lam > 0.0 else None)
    stats_list = dvd_update(learners, buffers, state.lam, probes, config, state.aux_rng)
    records = []
    for learner, buf, stats in zip(learners, buffers, stats_list):
        if stats.nan_event:  # the snapshot restarts the episode
            restore_payload(learner, state.last_snapshot[learner.id])
        returns = buf.episode_returns
        records.append({
            "id": learner.id,
            "train_return_mean": float(np.mean(returns)) if returns else None,
            "episodes": len(returns), **asdict(stats)})
    return records, probe_pool


def _evaluate_and_offer(state: RunState, it: int) -> list:
    """Evaluate every live learner, snapshot it, and offer the view it was
    evaluated through to both archives."""
    learners = state.learners
    views = [l.view() for l in learners]
    results = evaluate(views, state.eval_envs, [l.rng for l in learners],
                       episodes=state.config.eval_episodes)
    evals = []
    for learner, view, res in zip(learners, views, results):
        learner.fitness = res.fitness
        state.last_snapshot[learner.id] = payload = snapshot_payload(learner)
        _offer(state.archive, state.queue, view, res.fitness, res.bd,
               source=learner.id, iteration=it, payload=payload)
        evals.append({"id": learner.id, "fitness": res.fitness, "bd": res.bd})
    return evals


def _exploit(state: RunState, probe_pool, cum_steps: int) -> dict | None:
    """Replace the worst-evaluated live learner with an archived snapshot.

    Runs when exploitation is due at ``cum_steps`` env steps, then moves the
    due point past them.
    """
    config, source, rng = state.config, state.mediator, state.exploit_rng
    if not (config.trainer in _EXPLOITING and len(source) > 0
            and cum_steps >= state.next_exploit):
        return None
    worst = min(state.learners, key=lambda l: (l.fitness, l.id))
    if config.trainer == "edo-cs":
        probes = _sample_probes(probe_pool, config.probe_states, rng)
        picks = clustering_selection(source.entries(), min(config.population, len(source)),
                                     probes, rng)
        entry = picks[rng.integers(len(picks))]
    else:
        entry = source.sample_uniform(rng)
    restore_payload(worst, entry.payload)
    worst.fitness = entry.fitness
    state.last_snapshot[worst.id] = entry.payload  # NaN recovery keeps the exploit
    period = config.exploit_period
    state.next_exploit += period
    if state.next_exploit <= cum_steps:  # periods were missed: skip to the first one past
        skip = period * ((cum_steps - state.next_exploit) // period + 1)  # inf if it overflows
        past = math.nextafter(cum_steps, math.inf)
        state.next_exploit = min(max(state.next_exploit + skip, past), past + period)
    return {"target": worst.id, "source_order": entry.order,
            "source_fitness": entry.fitness}


def _auxiliary_phase(state: RunState, probe_pool, it: int) -> dict | None:
    """Diversity ascent on archive copies, then gated re-insertion.

    Live learners are never touched: candidates are archived views, each with
    its own frozen normalizer, ascended jointly, re-evaluated with the full
    episode protocol, and offered back as they are, through the same strict
    gate as any other candidate.  Returns None when the phase does not run.
    """
    config, source, rng = state.config, state.mediator, state.aux_rng
    if not (config.trainer in ("pdo", "edo-cs") and config.diversity_iters > 0
            and len(source) > 0):
        return None
    if config.trainer == "edo-cs":
        probes = _sample_probes(probe_pool, config.probe_states, rng)
        entries = clustering_selection(source.entries(), config.population, probes, rng)
    else:
        entries = source.top(config.population)
    probes = _sample_probes(probe_pool, config.probe_states, rng)
    out, trace = diversity_ascent(
        [e.policy for e in entries], StateBatch(probes),
        steps=config.diversity_iters, beta=config.beta, lr=config.aux_lr,
        grad_clip=config.grad_clip, deterministic=config.deterministic_kernel, rng=rng)
    offers = []
    for entry, cand, env in zip(entries, out, state.eval_envs, strict=True):
        # candidates share ``rng``, so each is evaluated alone, in order
        res, = evaluate([cand], [env], [rng], episodes=config.eval_episodes)
        payload = dict(entry.payload, policy_params=cand.params.copy())
        ok_grid, ok_queue = _offer(state.archive, state.queue, cand, res.fitness, res.bd,
                                   source=entry.source, iteration=it, payload=payload)
        offers.append({"source_order": entry.order, "fitness": res.fitness,
                       "accepted_grid": ok_grid, "accepted_queue": ok_queue})
    accepted = sum(o["accepted_grid"] or o["accepted_queue"] for o in offers)
    return {"offered": len(out), "accepted": accepted,
            "det_start": float(trace[0]), "det_end": float(trace[-1]),
            "offers": offers}


def _bandit_phase(state: RunState) -> dict | None:
    """Credit the current arm if the archive's best rose, then pick the next arm."""
    if state.config.trainer not in _JOINT:
        return None
    current_best = state.mediator.max_fitness()
    improved = bool(np.isfinite(current_best) and current_best > state.bandit_best)
    bandit_update(state.bandit, state.arm, improved)
    if improved:
        state.bandit_best = current_best
    _select_arm(state)
    return {"arm": state.arm, "lambda": state.lam, "improved": improved}


def _select_arm(state: RunState) -> None:
    """Pick the next arm, by Thompson sampling for dvd and by UCB1 for dse-ucb."""
    state.arm = (thompson_select(state.bandit, state.bandit_rng)
                 if state.config.trainer == "dvd" else ucb_select(state.bandit))
    state.lam = float(state.bandit.arms[state.arm])
