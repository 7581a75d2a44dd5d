"""2-D multi-goal point navigation: a fast environment with known diverse optima.

An agent nudges a point around the arena [-1,1]^2; each step pays the best
Gaussian-bump reward over a set of fixed goals.  Goal rewards are asymmetric
(1.0 vs 0.7) so converging to different goals trades reward for diversity by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import ActionSpace


@dataclass(frozen=True)
class ToyConfig:
    goals: tuple = ((0.6, 0.6), (-0.6, -0.6))
    goal_rewards: tuple = (1.0, 0.7)
    step_size: float = 0.05
    bump_scale: float = 0.02  # reward = r_g * exp(-dist^2 / bump_scale)
    horizon: int = 100
    spawn_jitter: float = 0.05

    def __post_init__(self):
        if len(self.goals) < 2 or len(self.goals) != len(self.goal_rewards):
            raise ValueError("need >= 2 goals with matching rewards")
        if not self.bump_scale > 0:  # the reward divides by it; NaN fails too
            raise ValueError(f"bump_scale must be positive, got {self.bump_scale!r}")


class ToyEnv:
    """Single-owner environment instance; reseed via reset(rng)."""

    qd_offset = 0.0  # fitness floor used by QD-score reporting

    def __init__(self, config: ToyConfig | None = None):
        self.config = config or ToyConfig()
        self.obs_dim = 2
        self.action_space = ActionSpace("continuous", 2)
        self._goals = np.asarray(self.config.goals, dtype=np.float64).tolist()
        self._goal_rewards = np.asarray(self.config.goal_rewards, dtype=np.float64).tolist()
        self._pos = np.zeros(2)
        self._step = 0
        self._done = True

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self._pos = self.config.spawn_jitter * rng.uniform(-1.0, 1.0, size=2)
        self._step = 0
        self._done = False
        return self._pos.copy()

    def _reward(self, x: float, y: float) -> float:
        # squared goal distances on floats as d*d, numpy's square (Python's d**2
        # can round differently); the bump stays one np.exp over the goals,
        # whose bits math.exp does not always give
        z = []
        for gx, gy in self._goals:
            dx, dy = gx - x, gy - y
            z.append(-(dx * dx + dy * dy) / self.config.bump_scale)
        rewards = [r * e for r, e in zip(self._goal_rewards, np.exp(z).tolist())]
        # numpy's max over the products: a NaN anywhere is the result, and of
        # equal values (0.0 and -0.0) the later one, which Python's max keeps
        # only on the reversed list
        for r in rewards:
            if r != r:
                return r
        return max(reversed(rewards))

    def step(self, action: np.ndarray):
        if self._done:
            raise RuntimeError("step() on a finished episode; call reset()")
        # np.clip's bits on floats without a builtin call: for lo <= hi,
        # `lo if x < lo else (hi if x > hi else x)` equals min(max(x, lo), hi)
        # for every x, +-inf clamped and NaN passed through
        ax, ay = np.asarray(action, dtype=np.float64).tolist()
        x, y = self._pos.tolist()
        step = self.config.step_size
        x += step * (-1.0 if ax < -1.0 else (1.0 if ax > 1.0 else ax))
        y += step * (-1.0 if ay < -1.0 else (1.0 if ay > 1.0 else ay))
        x = -1.0 if x < -1.0 else (1.0 if x > 1.0 else x)
        y = -1.0 if y < -1.0 else (1.0 if y > 1.0 else y)
        # a fresh array each step that the env never writes into, so the
        # observation and the info share it
        pos = self._pos = np.array([x, y])
        self._step += 1
        reward = self._reward(x, y)
        self._done = self._step >= self.config.horizon
        return pos, reward, self._done, {"sparse_reward": reward, "position": pos}

    def episode_bd(self, actions: np.ndarray, last_info: dict) -> np.ndarray:
        """Behavior descriptor: final position mapped into [0, 1]^2."""
        return (np.asarray(last_info["position"], dtype=np.float64) + 1.0) / 2.0

