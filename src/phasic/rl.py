"""On-policy reward phase: rollouts, GAE, clipped-surrogate updates, evaluation.

A learner owns a policy, a value function, running observation/return
normalizers, and an environment instance.  Rollouts store both normalized and
raw observations; the raw ones feed the probe-state pool the diversity kernel
samples from.  Fitness is always the sparse (unshaped) reward under
deterministic actions.  The phase serves continuous actions only: its
policies are diagonal Gaussians, and a discrete policy is rejected by the
ValueError ``gaussian_batch`` raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_LOG_2PI = float(np.log(2.0 * np.pi))


class RunningStat:
    """Streaming mean/variance, combining each batch's moments in parallel form."""

    def __init__(self, shape=()):
        self.count = 0.0
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def update_batch(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == self.mean.ndim:
            x = x[None]
        n = x.shape[0]
        if n == 0:
            return
        if n == 1:
            # a lone row is its own mean; (row - row)**2 keeps non-finite rows
            # propagating exactly as the reductions below would
            batch_mean = x[0]
            batch_m2 = (batch_mean - batch_mean) ** 2
        else:
            batch_mean = x.mean(axis=0)
            batch_m2 = ((x - batch_mean) ** 2).sum(axis=0)
        self._combine(n, batch_mean, batch_m2)

    def _combine(self, n, mean, m2):
        if self.count == 0.0:
            self.count = float(n)
            self.mean = np.array(mean, dtype=np.float64)
            self.m2 = np.array(m2, dtype=np.float64)
            return
        total = self.count + n
        delta = mean - self.mean
        self.mean = self.mean + delta * (n / total)
        self.m2 = self.m2 + m2 + delta ** 2 * (self.count * n / total)
        self.count = total

    @property
    def var(self) -> np.ndarray:
        # fewer than two samples carry no scale information; report unit variance
        if self.count < 2:
            return np.ones_like(self.mean)
        return np.maximum(self.m2 / self.count, 0.0)

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.var)

    def state_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean.copy(), "m2": self.m2.copy()}

    def load_state(self, state: dict) -> None:
        self.count = float(state["count"])
        self.mean = np.array(state["mean"], dtype=np.float64)
        self.m2 = np.array(state["m2"], dtype=np.float64)


class Normalizer:
    """Observation whitening with clipping; update and apply are separable."""

    def __init__(self, obs_dim: int, clip: float = 10.0):
        self.stat = RunningStat((obs_dim,))
        self.clip = float(clip)

    def update(self, obs: np.ndarray) -> None:
        self.stat.update_batch(obs)

    def normalize(self, obs: np.ndarray) -> np.ndarray:
        std = np.maximum(self.stat.std, 1e-8)
        z = (np.asarray(obs, dtype=np.float64) - self.stat.mean) / std
        # np.clip's bits without its per-call wrapper cost on this hot path
        return np.minimum(np.maximum(z, -self.clip), self.clip)

    def state_dict(self) -> dict:
        return {"clip": self.clip, "stat": self.stat.state_dict()}

    def load_state(self, state: dict) -> None:
        self.clip = float(state["clip"])
        self.stat.load_state(state["stat"])


class RewardScaler:
    """Scale learning rewards by the running std of the discounted return."""

    def __init__(self, gamma: float = 0.99):
        self.gamma = float(gamma)
        self.ret = 0.0
        self.stat = RunningStat(())

    def scale(self, reward: float, done: bool) -> float:
        ret = self.ret = self.gamma * self.ret + reward
        # one-sample RunningStat update on plain floats, in _combine's order
        stat = self.stat
        m2_row = (ret - ret) * (ret - ret)
        if stat.count == 0.0:
            count, mean, m2 = 1.0, ret, m2_row
        else:
            count = stat.count + 1
            delta = ret - float(stat.mean)
            mean = float(stat.mean) + delta * (1 / count)
            m2 = float(stat.m2) + m2_row + delta * delta * (stat.count / count)
        stat.count, stat.mean, stat.m2 = count, np.array(mean), np.array(m2)
        std = math.sqrt(max(m2 / count, 0.0)) if count >= 2 else 1.0
        out = reward / max(std, 1e-8)
        if done:
            self.ret = 0.0
        return out

    def state_dict(self) -> dict:
        return {"gamma": self.gamma, "ret": self.ret, "stat": self.stat.state_dict()}

    def load_state(self, state: dict) -> None:
        self.gamma = float(state["gamma"])
        self.ret = float(state["ret"])
        self.stat.load_state(state["stat"])


@dataclass
class RolloutBuffer:
    learner_id: int
    obs: np.ndarray        # normalized, as seen by the policy
    raw_obs: np.ndarray    # environment frame, feeds the probe-state pool
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray    # learning rewards (shaped/scaled)
    values: np.ndarray
    dones: np.ndarray
    bootstrap_value: float
    final_obs: np.ndarray | None = None  # raw continuation point, None if done
    episode_returns: list = field(default_factory=list)  # sparse, finished episodes
    pending_return: float = 0.0  # sparse return of the unfinished episode, if any

    def __len__(self) -> int:
        return self.obs.shape[0]


def collect_rollout(policy, value_fn, env, steps: int, rng: np.random.Generator,
                    normalizer: Normalizer | None = None,
                    reward_scaler: RewardScaler | None = None,
                    learner_id: int = 0, initial_obs: np.ndarray | None = None,
                    carry_return: float = 0.0) -> RolloutBuffer:
    """Exactly ``steps`` transitions, auto-resetting episodes as they end.

    ``initial_obs`` continues a previous rollout's episode; None starts fresh.
    ``carry_return`` is the continued episode's sparse return so far (the
    previous buffer's ``pending_return``), so recorded episode returns stay
    whole across rollout windows.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    obs = env.reset(rng) if initial_obs is None else np.asarray(initial_obs, dtype=np.float64)
    obs_n, raw, acts, logps, rews, vals, dones = [], [], [], [], [], [], []
    episode_returns = []
    ep_sparse = float(carry_return) if initial_obs is not None else 0.0
    for _ in range(steps):
        if normalizer is not None:
            normalizer.update(obs)
            x = normalizer.normalize(obs)
        else:
            x = obs.copy()
        mu, ls = policy.gaussian_batch(x[None])
        std = np.exp(ls)
        action = mu[0] + std * rng.standard_normal(std.shape)
        z = (action - mu[0]) / std
        logp = float(np.sum(-0.5 * z * z - ls - 0.5 * _LOG_2PI))
        value = value_fn.value(x)
        next_obs, reward, done, info = env.step(action)
        ep_sparse += info.get("sparse_reward", reward)
        if reward_scaler is not None:
            reward = reward_scaler.scale(float(reward), done)
        obs_n.append(x)
        raw.append(obs.copy())
        acts.append(action)
        logps.append(logp)
        rews.append(float(reward))
        vals.append(value)
        dones.append(done)
        if done:
            episode_returns.append(ep_sparse)
            ep_sparse = 0.0
            obs = env.reset(rng)
        else:
            obs = next_obs
    if dones[-1]:
        bootstrap, final_obs = 0.0, None
    else:
        x = normalizer.normalize(obs) if normalizer is not None else obs
        bootstrap, final_obs = value_fn.value(x), obs.copy()
    return RolloutBuffer(
        learner_id=learner_id,
        obs=np.asarray(obs_n), raw_obs=np.asarray(raw),
        actions=np.asarray(acts),
        log_probs=np.asarray(logps), rewards=np.asarray(rews),
        values=np.asarray(vals), dones=np.asarray(dones, dtype=bool),
        bootstrap_value=float(bootstrap), final_obs=final_obs,
        episode_returns=episode_returns,
        pending_return=0.0 if dones[-1] else ep_sparse)


def gae(buffer: RolloutBuffer, gamma: float, lam: float, normalize: bool = False):
    """Generalized advantage estimation; returns (advantages, value targets).

    Advantages are raw unless ``normalize`` is set, which standardizes them
    over the buffer; the value targets always use the raw advantages.
    """
    rewards, values, dones = buffer.rewards, buffer.values, buffer.dones
    n = len(rewards)
    adv = np.zeros(n)
    next_value = buffer.bootstrap_value
    next_adv = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        next_adv = delta + gamma * lam * nonterminal * next_adv
        adv[t] = next_adv
        next_value = values[t]
    returns = adv + values
    if normalize:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    return adv, returns


@dataclass(frozen=True)
class PPOConfig:
    clip: float = 0.2
    epochs: int = 4
    minibatches: int = 4
    lr: float = 3e-4
    gamma: float = 0.99
    lam: float = 0.95
    value_coef: float = 0.5
    norm_adv: bool = True


@dataclass
class UpdateStats:
    pi_loss: float = 0.0
    v_loss: float = 0.0
    entropy: float = 0.0
    approx_kl: float = 0.0
    clip_frac: float = 0.0
    nan_event: bool = False


def ppo_update(policy, value_fn, buffer: RolloutBuffer, config: PPOConfig,
               policy_opt, value_opt, rng: np.random.Generator):
    """Clipped-surrogate PPO epochs over the buffer.

    Returns (policy, value_fn, stats); a non-finite loss aborts the update and
    the original parameters are returned with ``stats.nan_event`` set.
    """
    adv, returns = gae(buffer, config.gamma, config.lam, normalize=config.norm_adv)
    n = len(buffer)
    start_policy, start_value = policy, value_fn
    stats = UpdateStats()
    count = 0
    mb_size = max(1, n // config.minibatches)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, mb_size):
            idx = order[lo:lo + mb_size]
            x = buffer.obs[idx]
            adv_mb = adv[idx]
            old_logp = buffer.log_probs[idx]
            k = idx.size

            mu, ls = policy.gaussian_batch(x)
            std = np.exp(ls)
            z = (buffer.actions[idx] - mu) / std
            logp = np.sum(-0.5 * z * z - ls - 0.5 * _LOG_2PI, axis=1)

            ratio = np.exp(logp - old_logp)
            unclipped = ratio * adv_mb
            clipped = np.clip(ratio, 1.0 - config.clip, 1.0 + config.clip) * adv_mb
            pi_loss = -float(np.mean(np.minimum(unclipped, clipped)))

            # d(surrogate)/d logp: active only where the unclipped branch wins
            use = (unclipped <= clipped).astype(np.float64)
            dlogp = -(use * ratio * adv_mb) / k
            entropy = float(np.sum(ls + 0.5 * (1.0 + _LOG_2PI)))
            dmu = dlogp[:, None] * (z / std)
            dls = (dlogp[:, None] * (z * z - 1.0)).sum(axis=0)
            grad = policy.backward_gaussian(x, dmu, dls)

            v = value_fn.value_batch(x)
            v_loss = 0.5 * float(np.mean((v - returns[idx]) ** 2))
            dv = config.value_coef * (v - returns[idx]) / k
            v_grad = value_fn.backward(x, dv)

            if not (np.isfinite(pi_loss) and np.isfinite(v_loss)
                    and np.all(np.isfinite(grad)) and np.all(np.isfinite(v_grad))):
                out = UpdateStats(nan_event=True)
                return start_policy, start_value, out

            policy = policy.with_params(policy_opt.step(policy.params, grad))
            value_fn = value_fn.with_params(value_opt.step(value_fn.params, v_grad))

            stats.pi_loss += pi_loss
            stats.v_loss += v_loss
            stats.entropy += entropy
            stats.approx_kl += float(np.mean(old_logp - logp))
            stats.clip_frac += float(np.mean(np.abs(ratio - 1.0) > config.clip))
            count += 1
    for name in ("pi_loss", "v_loss", "entropy", "approx_kl", "clip_frac"):
        setattr(stats, name, getattr(stats, name) / max(count, 1))
    return policy, value_fn, stats


@dataclass
class EvalResult:
    fitness: float
    bd: np.ndarray | None
    episode_returns: np.ndarray


def evaluate(policy, env, rng: np.random.Generator, episodes: int = 10) -> EvalResult:
    """Mean sparse return and mean behavior descriptor over full episodes.

    Every step takes the policy's mean action; ``rng`` goes to ``env.reset``
    and drives the environment alone.  A policy trained on normalized observations is evaluated through
    a ``NormalizedPolicy`` view, whose constants stay frozen here.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    totals = []
    bds = []
    for _ in range(episodes):
        obs = env.reset(rng)
        done = False
        total = 0.0
        actions = []
        info = {}
        while not done:
            mu, _ = policy.gaussian_batch(np.asarray(obs)[None])
            action = mu[0]
            obs, _, done, info = env.step(action)
            total += info.get("sparse_reward", 0.0)
            actions.append(action)
        totals.append(total)
        bd = env.episode_bd(np.asarray(actions), info)
        if bd is not None:
            bds.append(np.asarray(bd, dtype=np.float64))
    fitness = float(np.mean(totals))
    bd_mean = np.mean(np.stack(bds), axis=0) if bds else None
    return EvalResult(fitness=fitness, bd=bd_mean, episode_returns=np.asarray(totals))
