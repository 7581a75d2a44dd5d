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


class ToyEnv:
    """Single-owner environment instance; reseed via reset(rng)."""

    qd_offset = 0.0  # fitness floor used by QD-score reporting

    def __init__(self, config: ToyConfig | None = None):
        self.config = config or ToyConfig()
        self.obs_dim = 2
        self.action_space = ActionSpace("continuous", 2)
        self._goals = np.asarray(self.config.goals, dtype=np.float64)
        self._goal_rewards = np.asarray(self.config.goal_rewards, dtype=np.float64)
        self._pos = np.zeros(2)
        self._step = 0
        self._done = True

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self._pos = self.config.spawn_jitter * rng.uniform(-1.0, 1.0, size=2)
        self._step = 0
        self._done = False
        return self._pos.copy()

    @property
    def position(self) -> np.ndarray:
        return self._pos.copy()

    def reward_at(self, pos: np.ndarray) -> float:
        # the ndarray methods run the same reductions as np.sum/np.max, minus the wrappers
        d2 = ((self._goals - pos) ** 2).sum(axis=1)
        return float((self._goal_rewards * np.exp(-d2 / self.config.bump_scale)).max())

    def step(self, action: np.ndarray):
        if self._done:
            raise RuntimeError("step() on a finished episode; call reset()")
        # np.clip's bits without its per-call wrapper cost on this hot path
        action = np.minimum(np.maximum(np.asarray(action, dtype=np.float64), -1.0), 1.0)
        pos = np.minimum(np.maximum(self._pos + self.config.step_size * action, -1.0), 1.0)
        # a fresh array each step that the env never writes into, so the
        # observation and the info share it
        self._pos = pos
        self._step += 1
        reward = self.reward_at(pos)
        self._done = self._step >= self.config.horizon
        return pos, reward, self._done, {"sparse_reward": reward, "position": pos}

    def episode_bd(self, actions: np.ndarray, last_info: dict) -> np.ndarray:
        """Behavior descriptor: final position mapped into [0, 1]^2."""
        return (np.asarray(last_info["position"], dtype=np.float64) + 1.0) / 2.0

