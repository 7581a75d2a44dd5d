"""The benchmark's three workloads and the checks on their outputs.

* ``toy-pdo``: the reward phase (rollout forwards and PPO) does most of the
  work; no flight env.
* ``dogfight-pdo``: env steps and evaluation episodes do most of the work; it
  also runs the queue archive and the mean-only W2 kernel.
* ``ascent``: ``diversity_ascent`` alone, on fixed seeded populations, so the
  kernel and determinant layers (under 2% of either training workload) can
  move an end-to-end number.  JSD is reachable only here, since no env has
  discrete actions.

A round is one whole pass over a workload's operations: one training run
(an operation is an iteration) or one call per ascent case (an operation is
an ascent call).  The checks compare outputs with figures recomputed here,
apart from the program, and with properties the method must have.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from phasic import (ActionSpace, DogfightConfig, DogfightEnv, NotPositiveDefinite,
                    Policy, StateBatch, ToyEnv, TrainerConfig, ValueFunction,
                    generate_report, run_training, validate_config)
from phasic import detops

from tracing import EnvMeter, SpanTable, instrumented

RUNS_DIR = Path(__file__).resolve().parent / "runs"

ASCENT_STEPS = 20
BETA = 0.99
# relative slack for round-off in the determinant checks
DET_RTOL = 1e-9


@dataclass
class RoundResult:
    wall_s: float
    attempted: int
    failed: int
    steps: int                       # env steps, or ascent steps on ``ascent``
    errors: list = field(default_factory=list)
    digest: str | None = None        # behaviour fingerprint of the round
    info: dict = field(default_factory=dict)
    gauge: list = field(default_factory=list)  # host gauge samples taken in the round


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def surrogate_floor(m: int, beta: float = BETA) -> float:
    """Least determinant of beta*K + (1-beta)*I over unit-diagonal PSD kernels."""
    return (1.0 - beta + m * beta) * (1.0 - beta) ** (m - 1)


def check_det_trace(trace, m: int, label: str) -> list:
    """Non-decreasing, and every value between the surrogate floor and 1."""
    errors = []
    trace = np.asarray(trace, dtype=np.float64)
    if np.any(trace[1:] < trace[:-1] * (1.0 - DET_RTOL)):
        errors.append(f"{label}: determinant trace decreases: {trace.tolist()}")
    floor = surrogate_floor(m)
    if np.any(trace < floor * (1.0 - DET_RTOL)) or np.any(trace > 1.0 + DET_RTOL):
        errors.append(f"{label}: determinant outside [{floor:.6e}, 1]: "
                      f"{trace.min():.6e}..{trace.max():.6e}")
    return errors


def _median(values, scale: float = 1.0) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.median(values)) * scale if values.size else 0.0


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

class TrainingWorkload:
    """``pdo`` training runs; every round trains the same seed again."""

    def __init__(self, env_name: str, make_env, config: dict, report: bool):
        self.env_name = env_name
        self.make_env = make_env
        self.config = config
        self.report = report

    def setup(self, seed: int):
        """Build what a run builds before its first step: config, envs, population."""
        cfg = TrainerConfig(env_name=self.env_name, trainer="pdo", seed=seed, **self.config)
        validate_config(cfg)
        # a prototype, a train and an eval env per learner, and the aux-phase env
        envs = [self.make_env() for _ in range(2 * cfg.population + 2)]
        obs_dim, space = envs[0].obs_dim, envs[0].action_space
        for child in np.random.SeedSequence(seed).spawn(cfg.population):
            rng = np.random.default_rng(child)
            Policy.init(obs_dim, space, rng, hidden=cfg.hidden)
            ValueFunction.init(obs_dim, rng, hidden=cfg.hidden)
        return cfg

    def run_round(self, cfg: TrainerConfig, tracer, gauge=None) -> RoundResult:
        """One training run; ``gauge`` samples at its start and at env resets.

        The wall time leaves out the gauge's own time.
        """
        iters = cfg.iterations
        meter = EnvMeter(tracer, gauge)
        RUNS_DIR.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f"{self.env_name}-", dir=RUNS_DIR))
        run_dir = tmp / "run"
        try:
            if gauge is not None:
                gauge.sample()
            started = perf_counter()
            try:
                with instrumented(meter):
                    with _span(tracer, "trainers.run_training"):
                        result = run_training(cfg, out_dir=run_dir,
                                              env_factory=meter.factory(self.make_env))
                    if self.report:
                        with _span(tracer, "report.render"):
                            written = generate_report([run_dir], tmp / "report")
            except Exception:  # an exception fails every iteration of the round
                traceback.print_exc(file=sys.stderr)
                return RoundResult(perf_counter() - started - meter.gauge_s, iters, iters,
                                   meter.train_steps + meter.other_steps,
                                   gauge=list(gauge.samples) if gauge is not None else [])
            wall = perf_counter() - started - meter.gauge_s
            errors = self._check(cfg, result, run_dir, meter)
            if self.report:
                errors += [f"report artifact {name} is empty" for name, path in written.items()
                           if Path(path).stat().st_size == 0]
            summary = result.summary
            failed = sum(any(l["nan_event"] for l in rec["learners"]) for rec in result.records)
            return RoundResult(
                wall, iters, failed, meter.train_steps + meter.other_steps, errors,
                digest=hashlib.sha256((run_dir / "metrics.jsonl").read_bytes()).hexdigest(),
                info={"qd_score": summary["qd"]["qd_score"],
                      "coverage": summary["qd"]["coverage"],
                      "aux_offers": summary["aux_offers"],
                      "aux_accepts": summary["aux_accepts"],
                      "nan_events": summary["nan_events"],
                      "train_steps": meter.train_steps,
                      "other_steps": meter.other_steps},
                gauge=list(gauge.samples) if gauge is not None else [])
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def _check(self, cfg, result, run_dir: Path, meter: EnvMeter) -> list:
        errors = []
        iters, m = cfg.iterations, cfg.population
        expected = iters * cfg.rollout_steps * m
        if meter.train_steps != expected:
            errors.append(f"wrapper counted {meter.train_steps} training env steps, "
                          f"expected {iters} x {cfg.rollout_steps} x {m} = {expected}")
        lines = (run_dir / "metrics.jsonl").read_bytes().splitlines()
        if len(lines) != iters or len(result.records) != iters:
            errors.append(f"{len(lines)} metrics lines, {len(result.records)} records, "
                          f"expected {iters}")

        best = -math.inf
        for rec in result.records:
            if rec["archive"] is None:
                continue
            top = rec["archive"]["max_fitness"]
            if top < best:
                errors.append(f"archive max fitness fell from {best} to {top} "
                              f"at iteration {rec['iteration']}")
            best = max(best, top)
            for ev in rec["eval"] or []:
                if math.isfinite(ev["fitness"]) and ev["fitness"] > top:
                    errors.append(f"learner {ev['id']} evaluated {ev['fitness']} above "
                                  f"the archive max {top} at iteration {rec['iteration']}")
            aux = rec["aux"]
            if aux is not None:
                errors += check_det_trace([aux["det_start"], aux["det_end"]], m,
                                          f"aux phase at iteration {rec['iteration']}")

        summary = json.loads((run_dir / "summary.json").read_text())
        manifest = json.loads((run_dir / "archive" / "manifest.json").read_text())
        offset = self.make_env().qd_offset
        cells = manifest["cells"]
        qd_score = math.fsum(c["fitness"] - offset for c in cells)
        coverage = len(cells) / manifest["cells_per_dim"] ** manifest["dims"]
        if not math.isclose(qd_score, summary["qd"]["qd_score"], rel_tol=1e-12, abs_tol=1e-9):
            errors.append(f"qd_score from the manifest {qd_score} != summary "
                          f"{summary['qd']['qd_score']}")
        if coverage != summary["qd"]["coverage"]:
            errors.append(f"coverage from the manifest {coverage} != summary "
                          f"{summary['qd']['coverage']}")
        missing = [c["file"] for c in cells if not (run_dir / "archive" / c["file"]).is_file()]
        if missing:
            errors.append(f"archive blobs missing: {missing}")
        return errors

    def layer_metrics(self, cfg: TrainerConfig, table: SpanTable, counts: dict,
                      traced: list) -> dict:
        return layer_metrics(table, counts, traced, steps=cfg.diversity_iters,
                             eval_episodes=cfg.eval_episodes, iterations=cfg.iterations)


def layer_metrics(table: SpanTable, counts: dict, traced: list, *, steps: int,
                  eval_episodes: int = 1, iterations: int = 1) -> dict:
    """Per-layer figures of the traced rounds; a layer a workload never calls reads 0.

    Per-call timings are medians over calls; counts are per round.
    """
    n = len(traced)
    env_busy = sum(float(table.durations(f"{kind}.{op}").sum())
                   for kind in ("toy", "dogfight") for op in ("step", "reset"))
    ascents = table.durations("detops.diversity_ascent")
    forwards = sum(table.children_of("detops.diversity_ascent", f"kernels.{k}_forward")
                   for k in ("w2", "jsd"))
    inserts = counts.get("archive.inserts", 0)
    offers = sum(r.info.get("aux_offers", 0) for r in traced)
    out = {
        "toy.step_us": _median(table.durations("toy.step"), 1e6),
        "dogfight.step_us": _median(table.durations("dogfight.step"), 1e6),
        "env.steps": sum(r.info.get("train_steps", 0) + r.info.get("other_steps", 0)
                         for r in traced) / n,
        "env.busy_s": env_busy / n,
        "nets.policy_forward1_us": _median(table.durations("nets.policy_forward1"), 1e6),
        "nets.value_forward1_us": _median(table.durations("nets.value_forward1"), 1e6),
        "nets.policy_forward_batch_us": _median(table.durations("nets.policy_forward_batch"), 1e6),
        "nets.backward_us": _median(table.durations("nets.backward"), 1e6),
        "rl.rollout_ms": _median(table.durations("rl.collect_rollout"), 1e3),
        "rl.rollout_self_ms": _median(table.self_times("rl.collect_rollout"), 1e3),
        "rl.ppo_update_ms": _median(table.durations("rl.ppo_update"), 1e3),
        "rl.eval_episode_ms": _median(table.durations("rl.evaluate"), 1e3 / eval_episodes),
        "rl.eval_episodes": table.durations("rl.evaluate").size * eval_episodes / n,
        "rl.nan_events": sum(r.info.get("nan_events", 0) for r in traced) / n,
    }
    for k in ("w2", "jsd"):
        for d in ("forward", "backward"):
            out[f"kernels.{k}_{d}_ms"] = _median(table.durations(f"kernels.{k}_{d}"), 1e3)
    out.update({
        "detops.ascent_step_ms": _median(ascents, 1e3 / steps),
        "detops.ascent_self_ms": _median(table.self_times("detops.diversity_ascent"),
                                         1e3 / steps),
        "detops.forwards_per_step": forwards / (ascents.size * steps) if ascents.size else 0.0,
        "archive.grid_insert_us": _median(table.durations("archive.grid_insert"), 1e6),
        "archive.queue_insert_us": _median(table.durations("archive.queue_insert"), 1e6),
        "archive.inserts": inserts / n,
        "archive.save_ms": _median(table.durations("archive.save"), 1e3),
        "archive.insert_accept_ratio": counts.get("archive.accepted", 0) / max(inserts, 1),
        "archive.aux_accept_ratio": sum(r.info.get("aux_accepts", 0) for r in traced)
        / max(offers, 1),
        "archive.qd_score": traced[-1].info.get("qd_score", 0.0),
        "trainers.iteration_ms": _median(table.durations("trainers.run_training"),
                                         1e3 / iterations),
        "trainers.self_s": _median(table.self_times("trainers.run_training")),
        "report.render_ms": _median(table.durations("report.render"), 1e3),
    })
    return out


# ---------------------------------------------------------------------------
# ascent workload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AscentCase:
    label: str
    metric: str
    deterministic: bool
    policies: tuple
    batch: StateBatch
    jitter_seed: int


# (label, metric, deterministic, obs_dim, action space, probe states):
# stochastic W2 at toy shapes, mean-only W2 at dogfight shapes and JSD on
# 4-action policies; JSD takes fewer probes so it does not swamp the W2 cases
ASCENT_SHAPES = (
    ("w2-toy", "w2", False, 2, ActionSpace("continuous", 2), 256),
    ("w2-dogfight", "w2", True, 22, ActionSpace("continuous", 4), 256),
    ("jsd-discrete4", "jsd", False, 8, ActionSpace("discrete", 4), 64),
)
ASCENT_POPULATIONS = (3, 5)


class AscentWorkload:
    """``diversity_ascent`` called directly; no env and no PPO."""

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        cases = []
        for label, metric, det, obs_dim, space, n in ASCENT_SHAPES:
            for m in ASCENT_POPULATIONS:
                pols = tuple(Policy.init(obs_dim, space, rng) for _ in range(m))
                batch = StateBatch(rng.uniform(-1.0, 1.0, (n, obs_dim)))
                cases.append(AscentCase(f"{label}-m{m}", metric, det, pols, batch,
                                        int(rng.integers(2**31))))
        return cases

    def run_round(self, cases, tracer, gauge=None) -> RoundResult:
        """One call per case; ``gauge`` samples before each, outside the wall time."""
        failed, errors, traces = 0, [], []
        gauge_s = 0.0
        started = perf_counter()
        with instrumented(EnvMeter(tracer)):
            for case in cases:
                if gauge is not None:
                    gauge_s += gauge.sample()
                try:
                    with _span(tracer, "detops.diversity_ascent"):
                        out, trace = detops.diversity_ascent(
                            case.policies, case.batch, steps=ASCENT_STEPS,
                            metric=case.metric, beta=BETA, lr=1e-3, grad_clip=1.0,
                            deterministic=case.deterministic,
                            rng=np.random.default_rng(case.jitter_seed))
                except NotPositiveDefinite:
                    failed += 1
                    continue
                if not np.all(np.isfinite(trace)):
                    failed += 1
                    continue
                traces.append((case, out, trace))
        wall = perf_counter() - started - gauge_s
        digest = hashlib.sha256()
        for case, out, trace in traces:
            errors += self._check(case, out, trace)
            digest.update(np.ascontiguousarray(trace).tobytes())
        return RoundResult(wall, len(cases), failed, ASCENT_STEPS * len(cases), errors,
                           digest=digest.hexdigest(),
                           info={case.label: [float(t[0]), float(t[-1])]
                                 for case, _, t in traces},
                           gauge=list(gauge.samples) if gauge is not None else [])

    def _check(self, case: AscentCase, out, trace) -> list:
        m = len(case.policies)
        errors = check_det_trace(trace, m, case.label)
        if len(trace) != ASCENT_STEPS + 1 or len(out) != m:
            errors.append(f"{case.label}: {len(trace)} trace values and {len(out)} policies")
            return errors
        expected = rebuilt_det(case, out)
        if not math.isclose(trace[-1], expected, rel_tol=DET_RTOL):
            errors.append(f"{case.label}: final determinant {float(trace[-1])!r} != "
                          f"{expected!r} from the rebuilt kernel")
        return errors

    def layer_metrics(self, cases, table: SpanTable, counts: dict, traced: list) -> dict:
        return layer_metrics(table, counts, traced, steps=ASCENT_STEPS)


def _w2_squared(pols, states: np.ndarray, deterministic: bool) -> np.ndarray:
    """Pairwise state-averaged squared W2 between diagonal Gaussian policies."""
    outs = [p.gaussian_batch(states) for p in pols]
    mu = np.stack([o[0] for o in outs])                      # (M, N, A)
    sd = np.stack([np.exp(o[1]) for o in outs])              # (M, A)
    sq = ((mu[:, None] - mu[None]) ** 2).sum(axis=-1).mean(axis=-1)
    if not deterministic:
        sq = sq + ((sd[:, None] - sd[None]) ** 2).sum(axis=-1)
    return sq


def _jsd_similarity(pols, states: np.ndarray) -> np.ndarray:
    """Pairwise state-averaged 1 - JSD/ln2 between categorical policies."""
    p = np.stack([q.probs_batch(states) for q in pols])      # (M, N, K)
    a, b = p[:, None], p[None]
    mid = 0.5 * (a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_a = np.where(a > 0, a * np.log(a / mid), 0.0).sum(axis=-1)
        kl_b = np.where(b > 0, b * np.log(b / mid), 0.0).sum(axis=-1)
    jsd = np.clip(0.5 * kl_a + 0.5 * kl_b, 0.0, math.log(2.0))
    return np.clip(1.0 - jsd / math.log(2.0), 0.0, 1.0).mean(axis=-1)


def rebuilt_det(case: AscentCase, final) -> float:
    """det(beta*K + (1-beta)*I) of the final population, built here from closed forms.

    W2 is variance-normalized by the off-diagonal std of the starting
    population's squared distances, the constant the ascent holds fixed.
    """
    states = case.batch.states
    m = len(final)
    if case.metric == "jsd":
        k = _jsd_similarity(final, states)
    else:
        off = ~np.eye(m, dtype=bool)
        scale = float(np.std(_w2_squared(case.policies, states, case.deterministic)[off]))
        if scale < 1e-12:
            scale = 1.0
        k = np.exp(-0.5 * _w2_squared(final, states, case.deterministic) / scale)
    np.fill_diagonal(k, 1.0)
    blend = BETA * k + (1.0 - BETA) * np.eye(m)
    np.fill_diagonal(blend, 1.0)
    return float(np.linalg.det(blend))


WORKLOADS = {
    "toy-pdo": TrainingWorkload(
        "toy", ToyEnv,
        dict(archive="grid", population=5, iterations=10, eval_every=10,
             eval_episodes=10, diversity_iters=20, probe_states=256,
             deterministic_kernel=False),
        report=True),
    # the 400-step horizon ends every evaluation episode of these early
    # policies at the cap, so the work in a round does not depend on the seed
    "dogfight-pdo": TrainingWorkload(
        "dogfight", lambda: DogfightEnv(DogfightConfig(max_steps=400)),
        dict(archive="queue", population=3, iterations=2, rollout_steps=256,
             eval_every=1, eval_episodes=2, diversity_iters=20, probe_states=256,
             deterministic_kernel=True),
        report=False),
    "ascent": AscentWorkload(),
}
