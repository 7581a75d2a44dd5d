"""Behaviour pins: the recipe behind each sha256 in ``pins.json``, and the step
that re-pins them.

A pin is the sha256 of what a seeded recipe produces:

* ``run-<case>``: the ``metrics.jsonl`` of a small training run;
* ``trajectory-<env>``: a stream of env outputs under random actions;
* ``benchmark-<workload>``: one seed-0 round of a benchmark workload, which
  the reference table of ``perfbench/README.md`` quotes.

``test_pins.py`` runs every recipe and requires its digest to equal the
recorded one exactly.  Each recipe also asserts that it covered what it is
there to cover (limits, walls, locks, episode ends, error-free rounds), so a
pin cannot come to hash a run that no longer exercises anything.

``python tests/pins.py`` recomputes every pin, prints ``old → new`` per name,
then rewrites ``pins.json`` (with the numpy and BLAS build it ran on) and the
moved digest cells of ``perfbench/README.md``.  ``git diff`` is the preview
and ``git checkout`` the undo.  If any recipe fails its own checks, or a moved
benchmark digest is not quoted exactly once in that README, it writes nothing
and exits 1.
"""

import dataclasses
import functools
import hashlib
import importlib.util
import json
import math
import os
import platform
import struct
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).with_name("pins.json")
PERFBENCH = ROOT / "perfbench"
README = PERFBENCH / "README.md"

if __name__ == "__main__":
    # one BLAS and OpenMP thread before numpy loads, as conftest.py pins the suite
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[_var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from phasic.dogfight import GRAVITY, DogfightConfig, DogfightEnv, relative_geometry  # noqa: E402
from phasic.toy import ToyEnv  # noqa: E402
from phasic.trainers import TrainerConfig, run_training  # noqa: E402


class StreamDigest:
    """sha256 over a stream of env outputs, bit for bit.

    Arrays hash their dtype, shape and bytes, floats their IEEE-754 bits and
    ints, bools, strings and None their value.  Every NaN hashes as one
    canonical NaN: the bits a NaN carries beyond being NaN (sign and payload)
    are left to the platform's arithmetic, so only where NaNs sit is pinned.
    """

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, *values) -> None:
        for value in values:
            self._hash.update(self._encode(value))

    @staticmethod
    def _encode(value) -> bytes:
        if isinstance(value, np.ndarray):
            if value.dtype.kind == "f":
                value = np.where(np.isnan(value), np.nan, value)
            return b"a" + value.dtype.str.encode() + repr(value.shape).encode() + value.tobytes()
        if isinstance(value, (bool, np.bool_)):
            return b"T" if value else b"F"
        if isinstance(value, (int, np.integer)):
            return b"i%d;" % int(value)
        if isinstance(value, (float, np.floating)):
            value = float(value)
            return b"f" + struct.pack("<d", math.nan if math.isnan(value) else value)
        return b"r" + repr(value).encode() + b";"

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# -- recipes -------------------------------------------------------------------

# Small seeded runs.  Each case names the env, then the trainer and the archive
# where they differ from pdo and the env's default archive (grid on toy, queue
# on dogfight).  dvd, dse-ucb and ppo-single read the same on both archives,
# which only mediate exploitation and the auxiliary phase.
RUNS = {
    "toy": ("pdo", "grid"),
    "toy-queue": ("pdo", "queue"),
    "toy-pbt": ("pbt", "grid"),
    "toy-pbt-queue": ("pbt", "queue"),
    "toy-dvd": ("dvd", "grid"),
    "toy-dvd-queue": ("dvd", "queue"),
    "toy-dse-ucb": ("dse-ucb", "grid"),
    "toy-dse-ucb-queue": ("dse-ucb", "queue"),
    "toy-edo-cs": ("edo-cs", "grid"),
    "toy-edo-cs-queue": ("edo-cs", "queue"),
    "toy-ppo-single": ("ppo-single", "grid"),
    "toy-ppo-single-queue": ("ppo-single", "queue"),
    "dogfight": ("pdo", "queue"),
    "dogfight-dvd": ("dvd", "queue"),
}


def run_digest(case: str) -> str:
    """sha256 of the ``metrics.jsonl`` of the small seeded run ``case``."""
    env_name = case.split("-")[0]
    trainer, archive = RUNS[case]
    cfg = TrainerConfig(env_name=env_name, trainer=trainer, archive=archive,
                        population=1 if trainer == "ppo-single" else 3,
                        iterations=3, rollout_steps=128, eval_episodes=2,
                        diversity_iters=3, probe_states=32, hidden=(16,),
                        exploit_period=200.0, scale=1.0, seed=5)
    factory = None
    if env_name == "dogfight":
        cfg = dataclasses.replace(cfg, iterations=2, eval_episodes=1,
                                  exploit_period=100.0, lambda_arms=(0.5,))
        factory = lambda: DogfightEnv(DogfightConfig(max_steps=300))  # noqa: E731
    with tempfile.TemporaryDirectory() as tmp:
        run_training(cfg, out_dir=Path(tmp) / "run", env_factory=factory)
        return hashlib.sha256((Path(tmp) / "run" / "metrics.jsonl").read_bytes()).hexdigest()


def toy_trajectory_digest() -> str:
    """3000 steps with resets: biased segments drive the point into the walls,
    some entries are +-inf and two steps carry a NaN action."""
    env = ToyEnv()
    rng = np.random.default_rng(31)
    digest = StreamDigest()
    digest.add(env.reset(rng))
    walls = nans = resets = 0
    bias = np.zeros(2)
    for t in range(3000):
        if t % 40 == 0:
            bias = rng.choice([-3.0, 0.0, 3.0], size=2)
        action = bias + rng.normal(0.0, 1.0, 2)
        if t % 29 == 0:
            action[t % 2] = np.inf if t % 58 else -np.inf
        if t in (1234, 2222):
            action[1] = np.nan
        obs, reward, done, info = env.step(action)
        digest.add(obs, reward, done, info["sparse_reward"], info["position"])
        walls += int(np.any(np.abs(obs) == 1.0))
        nans += int(np.isnan(reward))
        if done:
            digest.add(env.reset(rng))
            resets += 1
    assert walls > 300 and nans > 0 and resets == 30
    return digest.hexdigest()


# "open" is the benchmark's arena with a 400-step cap; "close" spawns the craft
# in each other's lock cones so locks, lock wins and exits all occur
DOGFIGHT_TRAJECTORIES = {
    "open": DogfightConfig(max_steps=400),
    "close": DogfightConfig(spawn_distance=1200.0, lock_range=1500.0, lock_cone=0.6,
                            lock_limit=40, max_steps=300, alt_min=4000.0),
}


def dogfight_trajectory_digest(name: str) -> str:
    """2500 steps of biased action segments with noise and +-inf entries:
    throttle runs the speed into both limits, elevator the pitch into both
    limits and roll the bank-to-turn coupling into its cap."""
    cfg = DOGFIGHT_TRAJECTORIES[name]
    env = DogfightEnv(cfg)
    rng = np.random.default_rng(32)
    act_rng = np.random.default_rng(33)
    digest = StreamDigest()
    digest.add(env.reset(rng))
    limits = {"v_min": 0, "v_max": 0, "pitch": 0, "bank": 0}
    ends, locks = set(), 0
    bias = np.zeros(4)
    for t in range(2500):
        if t % 60 == 0:
            bias = act_rng.choice([-3.0, 0.0, 3.0], size=4)
        action = bias + act_rng.normal(0.0, 0.5, 4)
        if t % 31 == 0:
            action[t % 4] = np.inf if t % 62 else -np.inf
        obs, reward, done, info = env.step(action)
        red, blue, status = env.state.red, env.state.blue, env.state.status
        digest.add(obs, reward, done, info["sparse_reward"], info["dense_reward"],
                   info["red_locks"], info["blue_locks"], status.terminal,
                   status.step, relative_geometry(red, blue).distance, red.pos,
                   red.forward, blue.pos, blue.forward)
        limits["v_min"] += red.speed == cfg.v_min
        limits["v_max"] += red.speed == cfg.v_max
        limits["pitch"] += abs(red.pitch) == cfg.pitch_limit
        limits["bank"] += abs(GRAVITY / red.speed * math.tan(red.roll)) > cfg.turn_rate_max
        locks += info["red_locks"] + info["blue_locks"]
        if done:
            ends.add(status.terminal.split(":")[0])
            digest.add(env.reset(rng))
    assert all(count > 0 for count in limits.values()), limits
    if name == "close":
        assert locks > 0 and ends == {"out_of_bounds", "lock_win", "max_steps"}
    return digest.hexdigest()


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@functools.cache
def perfbench(name: str):
    """``perfbench/<name>.py`` loaded as it is, as module ``perfbench_<name>``."""
    if name == "tracing":
        return _load("perfbench_tracing", PERFBENCH / "tracing.py")
    # the other benchmark modules import their sibling by the name ``tracing``
    saved = sys.modules.get("tracing")
    sys.modules["tracing"] = perfbench("tracing")
    try:
        return _load(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    finally:
        if saved is None:
            del sys.modules["tracing"]
        else:
            sys.modules["tracing"] = saved


BENCHMARK_WORKLOADS = ("toy-pdo", "dogfight-pdo", "ascent")


def benchmark_digest(workload_name: str) -> str:
    """The behaviour digest of one seed-0 round of a benchmark workload, which
    must pass every check the benchmark makes on it."""
    workload = perfbench("workloads").WORKLOADS[workload_name]
    result = workload.run_round(workload.setup(0), tracer=None)
    assert result.errors == []
    assert result.failed == 0
    return result.digest


RECIPES = {
    **{f"run-{case}": functools.partial(run_digest, case) for case in RUNS},
    "trajectory-toy": toy_trajectory_digest,
    **{f"trajectory-dogfight-{name}": functools.partial(dogfight_trajectory_digest, name)
       for name in DOGFIGHT_TRAJECTORIES},
    **{f"benchmark-{name}": functools.partial(benchmark_digest, name)
       for name in BENCHMARK_WORKLOADS},
}


# -- the table -----------------------------------------------------------------

def provenance() -> dict:
    """The build the pins are computed on.  The dogfight's distance and cosine
    products are BLAS ``ddot`` calls, whose summation order another BLAS build
    may not share, so a dogfight pin (and a benchmark pin that runs the
    dogfight) can move with the build alone."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas['name']} {blas['version']}"
        if "openblas configuration" in blas:
            build += f" ({' '.join(blas['openblas configuration'].split())})"
    except (TypeError, KeyError):  # numpy before 1.26 reports no build dicts
        build = "unknown"
    return {"numpy": np.__version__, "blas": build, "machine": platform.machine(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def load() -> dict:
    """``{"recorded_with": provenance, "pins": {name: sha256}}``."""
    return json.loads(PINS.read_text())


def mismatch(name: str, recorded, digest: str, recorded_with: dict) -> str:
    """What a failing pin says: both digests, and both builds side by side."""
    running = provenance()
    lines = [f"pin {name}: recorded {recorded}, computed {digest}",
             f"  recorded with: {recorded_with}",
             f"  running on:    {running}"]
    if running != recorded_with:
        lines.append("  the build differs from the recorded one: dogfight digests sum BLAS "
                     "ddot products, whose order can move with the BLAS build alone")
    lines.append("  a change that moves behaviour on purpose re-pins with: python3 tests/pins.py")
    return "\n".join(lines)


def rewrite_cells(text: str, moves: dict) -> str:
    """``text`` with each old digest in ``moves`` replaced by its new one.
    Each old digest must occur exactly once, so only its own cell changes."""
    for old, new in moves.items():
        count = text.count(old) if old else 0
        if count != 1:
            raise ValueError(f"{old} is quoted {count} times in {README.name}, not once")
        text = text.replace(old, new)
    return text


def write(digests: dict, recorded: dict, pins_path: Path = PINS,
          readme: Path = README) -> None:
    """Record ``digests`` with this build's provenance, and carry each moved
    benchmark digest into ``readme``.  Writes nothing if a cell is refused."""
    moves = {recorded.get(name): digest for name, digest in digests.items()
             if name.startswith("benchmark-") and recorded.get(name) != digest}
    text = rewrite_cells(readme.read_text(), moves)
    table = {"recorded_with": provenance(), "pins": digests}
    pins_path.write_text(json.dumps(table, indent=2) + "\n")
    readme.write_text(text)


def main() -> int:
    if not __debug__:
        print("the recipes check their coverage with assert; run without -O", file=sys.stderr)
        return 1
    # as tier-1 does (pyproject.toml), a warning fails a recipe
    warnings.simplefilter("error", RuntimeWarning)
    warnings.simplefilter("error", UserWarning)
    recorded = load()["pins"]
    digests, failed = {}, []
    for name, recipe in RECIPES.items():
        old = recorded.get(name)
        try:
            digests[name] = new = recipe()
        except Exception:  # noqa: BLE001 - reported, and nothing is written
            failed.append(name)
            print(f"{name}: FAILED\n{traceback.format_exc()}")
            continue
        print(f"{name}: {old} unchanged" if new == old else f"{name}: {old} → {new}")
    for name in recorded.keys() - RECIPES.keys():
        print(f"{name}: {recorded[name]} → dropped (no recipe)")
    if failed:
        print(f"{len(failed)} recipe(s) failed their own checks; wrote nothing",
              file=sys.stderr)
        return 1
    try:
        write(digests, recorded)
    except ValueError as exc:
        print(f"{exc}; wrote nothing", file=sys.stderr)
        return 1
    moved = sum(recorded.get(name) != digest for name, digest in digests.items())
    print(f"{moved} of {len(digests)} pins moved, {len(recorded.keys() - digests.keys())} dropped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
