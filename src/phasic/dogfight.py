"""Two-aircraft 3-D dogfight at desk scale.

Flight model
------------
Point mass with attitude.  Throttle/brake commands longitudinal acceleration
(speed clamped to [v_min, v_max]); elevator, roll, and rudder command pitch,
roll, and yaw rates; banking couples into the heading (bank-to-turn), so the
roll channel steers even though lift/gravity are otherwise ignored.  One
control step integrates dt = 0.1 s.

Engagement rules
----------------
"Lock" means the target sits inside a 10-degree half-angle cone around the
attacker's nose at under 1 km.  Per step the learner (red) receives +1 while
locking, -1 while locked by the opponent, and -1000 once for leaving the
20 x 20 km, 100 m - 10 km arena (which ends the episode).  An episode also
ends when either side has accumulated more than 1000 lock steps or after
3000 steps.  A dense shaping term (pointing improvement, closure, lock
pressure) is added to the learning reward only — fitness uses the sparse
stream alone.

The opponent (blue) is a scripted expert: bang-bang steering of 0.9 toward
the target with a small deadband, braking when it sits close behind the
target's tail, and uniform [-0.1, 0.1] noise on inactive channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nets import ActionSpace

GRAVITY = 9.81


@dataclass(frozen=True)
class DogfightConfig:
    dt: float = 0.1
    max_steps: int = 3000
    half_width: float = 10_000.0         # |x|,|y| bound (20 km box)
    alt_min: float = 100.0
    alt_max: float = 10_000.0
    v_min: float = 50.0
    v_max: float = 400.0
    accel_max: float = 20.0              # m/s^2 from full throttle/brake
    pitch_rate: float = math.radians(30.0)
    roll_rate: float = math.radians(90.0)
    yaw_rate: float = math.radians(15.0)
    pitch_limit: float = math.radians(80.0)
    turn_rate_max: float = math.radians(20.0)  # cap on the bank-to-turn coupling
    lock_cone: float = math.radians(10.0)
    lock_range: float = 1000.0
    lock_limit: int = 1000               # accumulated lock steps that end the fight
    lock_reward: float = 1.0
    locked_penalty: float = -1.0
    oob_penalty: float = -1000.0
    spawn_distance: float = 8000.0
    spawn_alt: float = 5000.0
    spawn_speed: float = 150.0
    pos_jitter: float = 100.0
    heading_jitter: float = math.radians(2.0)
    # dense shaping (learning only)
    k_point: float = 0.1
    k_close: float = 0.1
    k_locked: float = 0.01
    dist_scale: float = 10_000.0
    # scripted expert
    brake_aspect: float = math.radians(30.0)
    brake_range: float = 3000.0
    expert_magnitude: float = 0.9
    expert_noise: float = 0.1
    expert_deadband: float = math.radians(2.0)

    def __post_init__(self):
        # integrate, observe and dense_reward divide by each; `not x > floor` refuses NaN
        for name, floor in (("v_min", 0.0), ("half_width", 0.0), ("dist_scale", 0.0),
                            ("alt_max", self.alt_min)):
            if not getattr(self, name) > floor:
                raise ValueError(f"{name} must be > {floor}, got {getattr(self, name)!r}")
        for name, floor in (("max_steps", 1), ("lock_limit", 1), ("v_max", self.v_min)):
            if not getattr(self, name) >= floor:
                raise ValueError(f"{name} must be >= {floor}, got {getattr(self, name)!r}")


class AircraftState(NamedTuple):
    pos: np.ndarray          # (x, y, z) meters, float64
    speed: float             # m/s, within [v_min, v_max]
    heading: float           # rad, 0 = +y, clockwise toward +x
    pitch: float             # rad, positive up
    roll: float              # rad, positive right wing down
    forward: np.ndarray      # unit nose vector, _nose(heading, pitch)


def _nose(heading: float, pitch: float) -> tuple:
    cp = math.cos(pitch)
    return math.sin(heading) * cp, math.cos(heading) * cp, math.sin(pitch)


class EpisodeStatus(NamedTuple):
    step: int = 0
    lock_steps_agent: int = 0      # red locking blue
    lock_steps_opponent: int = 0   # blue locking red
    terminal: str | None = None    # max_steps | out_of_bounds:who | lock_win:who


class DogfightState(NamedTuple):
    red: AircraftState
    blue: AircraftState
    status: EpisodeStatus


def wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def integrate(state: AircraftState, action: np.ndarray, cfg: DogfightConfig) -> AircraftState:
    """Advance one aircraft by dt under a clamped 4-channel control."""
    # np.clip's bits on floats without a builtin call: for lo <= hi,
    # `lo if x < lo else (hi if x > hi else x)` equals min(max(x, lo), hi) for
    # every x, +-inf clamped and NaN passed through (both comparisons are false)
    throttle, elevator, roll_cmd, rudder = np.asarray(action, dtype=np.float64).tolist()
    throttle = -1.0 if throttle < -1.0 else (1.0 if throttle > 1.0 else throttle)
    elevator = -1.0 if elevator < -1.0 else (1.0 if elevator > 1.0 else elevator)
    roll_cmd = -1.0 if roll_cmd < -1.0 else (1.0 if roll_cmd > 1.0 else roll_cmd)
    rudder = -1.0 if rudder < -1.0 else (1.0 if rudder > 1.0 else rudder)
    speed = state.speed + throttle * cfg.accel_max * cfg.dt
    speed = cfg.v_min if speed < cfg.v_min else (cfg.v_max if speed > cfg.v_max else speed)
    roll = wrap_angle(state.roll + roll_cmd * cfg.roll_rate * cfg.dt)
    pitch, limit = state.pitch + elevator * cfg.pitch_rate * cfg.dt, cfg.pitch_limit
    pitch = -limit if pitch < -limit else (limit if pitch > limit else pitch)
    # bank-to-turn: rolling tilts the lift vector and drags the heading around;
    # the coupling is clamped so near-knife-edge bank stays finite
    bank_turn, cap = (GRAVITY / speed) * math.tan(roll), cfg.turn_rate_max
    bank_turn = -cap if bank_turn < -cap else (cap if bank_turn > cap else bank_turn)
    heading = wrap_angle(state.heading + (rudder * cfg.yaw_rate + bank_turn) * cfg.dt)
    forward = _nose(heading, pitch)
    fx, fy, fz = forward
    x, y, z = state.pos.tolist()
    dt = cfg.dt
    pos = np.array([x + speed * fx * dt, y + speed * fy * dt, z + speed * fz * dt])
    return AircraftState(pos, speed, heading, pitch, roll, np.array(forward))


class Geometry(NamedTuple):
    """Relative geometry from an attacker toward a target."""

    distance: float
    ata: float        # angle between attacker nose and the line of sight
    aspect: float     # angle between target's tail axis and LOS target->attacker
    cos_ata: float
    az_err: float     # signed horizontal steering error (positive = target right)
    elev_err: float   # signed vertical steering error (positive = target above)


def pair_geometry(red: AircraftState, blue: AircraftState) -> tuple:
    """(red->blue, blue->red) geometries of one engagement from one line of sight.

    Blue's line of sight, unit vector and dot products are red's negated, and
    IEEE negation and round-to-nearest (fused multiply-add included) are
    symmetric under sign, so blue's distance and cosines are the values its
    own computation gives; only an exactly zero cosine may carry the other
    sign of zero, which acos and the lock test do not see.  Blue's bearing
    takes its own coordinate differences: where a - b is +0.0, -(b - a) is
    -0.0, and atan2 turns that sign into +pi or -pi.
    """
    los = blue.pos - red.pos
    # the two dot products stay BLAS ddot on ndarrays: a float sum of the
    # three products rounds differently for about a fifth of all vectors
    dist = math.sqrt(los.dot(los))  # np.linalg.norm's own computation
    if dist < 1e-9:
        coincident = Geometry(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        return coincident, coincident
    u = los / dist
    cos_ata = float(red.forward.dot(u))
    cos_ata = -1.0 if cos_ata < -1.0 else (1.0 if cos_ata > 1.0 else cos_ata)
    # red's aspect: blue's tail axis (-forward) vs LOS blue->red (-u); the two
    # sign flips cancel.  Blue's nose on its own LOS (-u) is the negation.
    cos_aspect = float(blue.forward.dot(u))
    cos_aspect = -1.0 if cos_aspect < -1.0 else (1.0 if cos_aspect > 1.0 else cos_aspect)
    rx, ry, rz = red.pos.tolist()
    bx, by, bz = blue.pos.tolist()
    lx, ly, lz = bx - rx, by - ry, bz - rz
    level = math.hypot(lx, ly)  # hypot reads only magnitudes
    return (Geometry(dist, math.acos(cos_ata), math.acos(cos_aspect), cos_ata,
                     wrap_angle(math.atan2(lx, ly) - red.heading),
                     math.atan2(lz, level) - red.pitch),
            Geometry(dist, math.acos(-cos_aspect), math.acos(-cos_ata), -cos_aspect,
                     wrap_angle(math.atan2(rx - bx, ry - by) - blue.heading),
                     math.atan2(rz - bz, level) - blue.pitch))


def relative_geometry(attacker: AircraftState, target: AircraftState) -> Geometry:
    """The attacker->target view of ``pair_geometry``."""
    return pair_geometry(attacker, target)[0]


def lock_check(attacker: AircraftState, target: AircraftState,
               cfg: DogfightConfig | None = None) -> bool:
    """Target inside the attacker's lock cone (<= cone angle) and under range.

    The angle test compares cosines with a 1e-12 slack so a pose constructed
    at exactly the boundary angle counts as locked.
    """
    return _locks(relative_geometry(attacker, target), cfg or DogfightConfig())


def _locks(geom: Geometry, cfg: DogfightConfig) -> bool:
    """lock_check's test on an already computed attacker->target geometry."""
    if geom.distance >= cfg.lock_range:
        return False
    return geom.cos_ata >= math.cos(cfg.lock_cone) - 1e-12


def out_of_bounds(state: AircraftState, cfg: DogfightConfig) -> bool:
    x, y, z = state.pos.tolist()
    return (abs(x) > cfg.half_width or abs(y) > cfg.half_width
            or z < cfg.alt_min or z > cfg.alt_max)


def step(state: DogfightState, action_red: np.ndarray, action_blue: np.ndarray,
         cfg: DogfightConfig):
    """Pure transition: integrate both sides, score locks, settle termination.

    Returns (next_state, sparse_reward_red, info) where info carries the lock
    flags and the next state's red->blue and blue->red geometries.  Sparse
    reward is +1 for locking, -1 for being locked, -1000 added once if red
    exits the arena.  An opponent exit ends the episode with no extra reward.
    Termination priority: red out, blue out, lock win, step cap.
    """
    status = state.status
    if status.terminal is not None:
        raise ValueError("step() on a terminated engagement")
    red = integrate(state.red, action_red, cfg)
    blue = integrate(state.blue, action_blue, cfg)
    n_step = status.step + 1
    red_geom, blue_geom = pair_geometry(red, blue)
    red_locks = _locks(red_geom, cfg)
    blue_locks = _locks(blue_geom, cfg)
    lock_a = status.lock_steps_agent + int(red_locks)
    lock_o = status.lock_steps_opponent + int(blue_locks)
    reward = cfg.lock_reward * int(red_locks) + cfg.locked_penalty * int(blue_locks)
    terminal = None
    if out_of_bounds(red, cfg):
        reward += cfg.oob_penalty
        terminal = "out_of_bounds:red"
    elif out_of_bounds(blue, cfg):
        terminal = "out_of_bounds:blue"
    elif lock_a > cfg.lock_limit:
        terminal = "lock_win:red"
    elif lock_o > cfg.lock_limit:
        terminal = "lock_win:blue"
    elif n_step >= cfg.max_steps:
        terminal = "max_steps"
    next_state = DogfightState(red, blue, EpisodeStatus(n_step, lock_a, lock_o, terminal))
    return next_state, float(reward), {"red_locks": red_locks, "blue_locks": blue_locks,
                                       "red_geometry": red_geom, "blue_geometry": blue_geom}


def expert_policy(geom: Geometry, rng: np.random.Generator,
                  cfg: DogfightConfig) -> np.ndarray:
    """Scripted pursuer: bang-bang steering toward the target.

    Elevator and rudder push 0.9 against the respective pointing error unless
    it is already inside a small deadband; throttle brakes at -0.9 only when
    sitting close behind the target (aspect < 30 deg, range < 3 km), else
    full +0.9.  Whatever channel is not actively steering draws uniform
    [-0.1, 0.1] noise.
    """
    mag, noise = cfg.expert_magnitude, cfg.expert_noise
    # Generator.uniform(-noise, noise)'s own formula and bits, without its
    # per-call cost
    low, span = -noise, noise - -noise
    throttle = -mag if geom.aspect < cfg.brake_aspect and geom.distance < cfg.brake_range else mag
    if abs(geom.elev_err) > cfg.expert_deadband:
        elevator = math.copysign(mag, geom.elev_err)
    else:
        elevator = low + span * rng.random()
    roll = low + span * rng.random()
    if abs(geom.az_err) > cfg.expert_deadband:
        rudder = math.copysign(mag, geom.az_err)
    else:
        rudder = low + span * rng.random()
    return np.array([throttle, elevator, roll, rudder])


def dense_reward(prev: Geometry, cur: Geometry, locked: bool,
                 cfg: DogfightConfig) -> float:
    """Learning-only shaping: pointing improvement + closure - lock pressure."""
    pointing = cfg.k_point * (cur.cos_ata - prev.cos_ata)
    closure = cfg.k_close * (prev.distance - cur.distance) / cfg.dist_scale
    pressure = cfg.k_locked * (1.0 if locked else 0.0)
    return pointing + closure - pressure


def behavior_descriptor(episode_actions: np.ndarray) -> np.ndarray:
    """Mean elevator and roll commands, clamped to [-1,1] as ``integrate`` flies
    them, mapped into [0,1]: a saturated policy's descriptor stays on the grid."""
    actions = np.asarray(episode_actions, dtype=np.float64)
    if actions.ndim != 2 or actions.shape[0] == 0 or actions.shape[1] != 4:
        raise ValueError("expected a non-empty (T, 4) action log")
    flown = np.minimum(np.maximum(actions[:, [1, 2]], -1.0), 1.0)
    return (flown.mean(axis=0) + 1.0) / 2.0


def observe(own: AircraftState, other: AircraftState, geom: Geometry,
            status: EpisodeStatus, own_locks: int, other_locks: int,
            cfg: DogfightConfig) -> np.ndarray:
    """Fixed 22-dim encoding of own state, relative target geometry, and clocks.

    ``geom`` is ``relative_geometry(own, other)``, which every caller has at hand.
    """
    x, y, z = own.pos.tolist()
    ox, oy, oz = other.pos.tolist()
    dist = 1e-9 if geom.distance < 1e-9 else geom.distance
    return np.array([
        own.speed / cfg.v_max,
        math.sin(own.heading), math.cos(own.heading),
        own.pitch / (0.5 * math.pi),
        math.sin(own.roll), math.cos(own.roll),
        x / cfg.half_width,
        y / cfg.half_width,
        (2.0 * z - (cfg.alt_min + cfg.alt_max)) / (cfg.alt_max - cfg.alt_min),
        (ox - x) / dist, (oy - y) / dist, (oz - z) / dist,
        geom.distance / cfg.dist_scale,
        other.speed / cfg.v_max,
        *other.forward.tolist(),
        geom.ata / math.pi,
        geom.aspect / math.pi,
        own_locks / cfg.lock_limit,
        other_locks / cfg.lock_limit,
        status.step / cfg.max_steps,
    ])


class DogfightEnv:
    """Learner-facing wrapper: red is the agent, blue runs the scripted expert."""

    qd_offset = -2000.0  # fitness floor used by QD-score reporting

    def __init__(self, config: DogfightConfig | None = None):
        self.config = config or DogfightConfig()
        self.obs_dim = 22
        self.action_space = ActionSpace("continuous", 4)
        self._state: DogfightState | None = None
        self._rng: np.random.Generator | None = None
        self._prev_geom: Geometry | None = None   # red->blue, feeds the shaping
        self._blue_geom: Geometry | None = None   # blue->red, feeds the expert

    # -- episode control ----------------------------------------------------

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        self._rng = rng
        half = cfg.spawn_distance / 2.0
        crafts = []
        for y, heading in ((-half, 0.0), (half, math.pi)):  # red, then blue
            pos = np.array([0.0, y, cfg.spawn_alt]) + cfg.pos_jitter * rng.uniform(-1, 1, 3)
            heading = wrap_angle(heading + cfg.heading_jitter * rng.uniform(-1, 1))
            crafts.append(AircraftState(pos, cfg.spawn_speed, heading, 0.0, 0.0,
                                        np.array(_nose(heading, 0.0))))
        red, blue = crafts
        self._state = DogfightState(red=red, blue=blue, status=EpisodeStatus())
        self._prev_geom, self._blue_geom = pair_geometry(red, blue)
        return observe(red, blue, self._prev_geom, self._state.status, 0, 0, cfg)

    def step(self, action: np.ndarray):
        """Returns (obs, sparse + dense reward, done, info).  ``info`` holds only
        what the step alone knows: ``sparse_reward``, ``dense_reward``, ``red_locks``
        and ``blue_locks``.  Read the engagement it leaves (positions, nose
        vectors, step count, terminal reason) from ``state``."""
        if self._state is None or self._state.status.terminal is not None:
            raise RuntimeError("step() on a finished episode; call reset()")
        cfg = self.config
        state = self._state
        action_blue = expert_policy(self._blue_geom, self._rng, cfg)
        next_state, sparse, flags = step(state, action, action_blue, cfg)
        geom, self._blue_geom = flags["red_geometry"], flags["blue_geometry"]
        shaping = dense_reward(self._prev_geom, geom, flags["blue_locks"], cfg)
        self._prev_geom = geom
        self._state = next_state
        status = next_state.status
        obs = observe(next_state.red, next_state.blue, geom, status,
                      status.lock_steps_agent, status.lock_steps_opponent, cfg)
        info = {"sparse_reward": sparse, "dense_reward": shaping,
                "red_locks": flags["red_locks"], "blue_locks": flags["blue_locks"]}
        return obs, sparse + shaping, status.terminal is not None, info

    def episode_bd(self, actions: np.ndarray, last_info: dict) -> np.ndarray:
        return behavior_descriptor(actions)

    @property
    def state(self) -> DogfightState:
        return self._state

