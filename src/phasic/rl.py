"""On-policy reward phase: lockstep rollouts, GAE, clipped-surrogate updates, evaluation.

A ``Learner`` owns a policy, a value function, their optimizers, running
observation and return statistics, and its environments.  The M learners of
a population roll out and evaluate in lockstep: each tick runs one stacked
policy forward over all M, keeps the running observation statistics as
(M, ·) arrays, and steps each learner's own environment once with draws from
its own generator.  What the next step does not read runs once per rollout,
after its ticks: the log-probs, the values with the bootstrap, and the
return scaling of the rewards.  Every learner so gets the bits, the
environment steps and the generator draws that a loop of its own would give.
Rollouts store both normalized and raw observations; the raw ones feed the
probe-state pool the diversity kernel samples from.  Fitness is always the
sparse reward ``info["sparse_reward"]`` under deterministic actions.  The
phase serves continuous actions only: its policies are diagonal Gaussians,
and a discrete policy is rejected with a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import last_axis_sum
from .nets import OBS_STD_FLOOR, NormalizedPolicy, Policy, ValueFunction, stacked_forward, whiten
from .optim import Adam

_LOG_2PI = float(np.log(2.0 * np.pi))
# ticks per stacked value pass after a rollout: keeps the pass's layer
# inputs small whatever the rollout length
_VALUE_CHUNK = 64


class RunningStat:
    """Streaming count, mean and m2 (sum of squared deviations) of a statistic."""

    def __init__(self, shape=()):
        self.count = 0.0
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    @property
    def std(self) -> np.ndarray:
        # fewer than two samples carry no scale information; report unit scale
        if self.count < 2:
            return np.ones_like(self.mean)
        return np.sqrt(np.maximum(self.m2 / self.count, 0.0))

    def state_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean.copy(), "m2": self.m2.copy()}

    def load_state(self, state: dict) -> None:
        self.count = float(state["count"])
        self.mean = np.array(state["mean"], dtype=np.float64)
        self.m2 = np.array(state["m2"], dtype=np.float64)


class StackedStats:
    """M running statistics as (M, ·) arrays, each advanced by one row per tick.

    ``add`` is the batch update on a one-row batch: the row is its own mean
    and ``(row - row)**2`` its m2, so a non-finite row propagates as the
    batch reductions would, and the two are combined in parallel form; a
    statistic with count 0 takes the row as it is.  ``std`` is
    ``RunningStat.std``.  ``write`` hands each statistic fresh arrays.
    """

    def __init__(self, stats):
        self.count = np.array([s.count for s in stats], dtype=np.float64)
        self.mean = np.stack([s.mean for s in stats]).astype(np.float64)
        self.m2 = np.stack([s.m2 for s in stats]).astype(np.float64)
        # the counts as a column against (M, ·), and the least of them: the
        # empty and under-two cases below arise only while it is small
        self._col = self.count.reshape((-1,) + (1,) * (self.mean.ndim - 1))
        self._least = float(self.count.min())

    def add(self, rows: np.ndarray) -> None:
        count = self._col
        total = count + 1.0
        delta = rows - self.mean
        row_m2 = (rows - rows) ** 2
        mean = self.mean + delta * (1.0 / total)
        m2 = self.m2 + row_m2 + delta ** 2 * (count / total)
        if self._least == 0.0:
            empty = count == 0.0
            mean, m2 = np.where(empty, rows, mean), np.where(empty, row_m2, m2)
        self.mean, self.m2 = mean, m2
        self._col, self.count = total, total.reshape(-1)
        self._least += 1.0

    def std(self) -> np.ndarray:
        var = np.maximum(self.m2 / self._col, 0.0)
        if self._least < 2.0:  # fewer than two samples carry no scale information
            var = np.where(self._col < 2, 1.0, var)
        return np.sqrt(var)

    def write(self, stats) -> None:
        for i, stat in enumerate(stats):
            stat.count = float(self.count[i])
            stat.mean = np.array(self.mean[i])
            stat.m2 = np.array(self.m2[i])


@dataclass
class Learner:
    """One population member: the unit every phase advances.

    ``obs_stat`` holds the running statistics that whiten observations;
    ``ret_stat`` those of the discounted return ``ret`` by whose std learning
    rewards are scaled.  The learner holds its train env: it, ``obs`` and
    ``pending_return`` continue an unfinished training episode from one rollout
    into the next (see ``collect_rollout``); evaluation runs on the run's envs.
    """

    id: int
    policy: Policy
    value_fn: ValueFunction
    policy_opt: Adam
    value_opt: Adam
    obs_stat: RunningStat
    rng: np.random.Generator
    train_env: object
    ret_stat: RunningStat = field(default_factory=RunningStat)
    ret: float = 0.0
    obs: np.ndarray | None = None     # mid-episode continuation point
    pending_return: float = 0.0       # sparse return of that episode so far
    fitness: float = float("nan")

    def view(self) -> NormalizedPolicy:
        """The policy behind the current, frozen observation statistics."""
        return NormalizedPolicy(self.policy, self.obs_stat.mean, self.obs_stat.std)


def snapshot_payload(learner: Learner) -> dict:
    """Everything exploitation must copy: nets, optimizers, running statistics."""
    return {
        "policy_params": learner.policy.params.copy(),
        "value_params": learner.value_fn.params.copy(),
        "policy_opt": learner.policy_opt.state_dict(),
        "value_opt": learner.value_opt.state_dict(),
        "obs_stat": learner.obs_stat.state_dict(),
        "ret_stat": learner.ret_stat.state_dict(),
        "ret": learner.ret,
    }


def restore_payload(learner: Learner, payload: dict) -> None:
    learner.policy = learner.policy.with_params(payload["policy_params"])
    learner.value_fn = learner.value_fn.with_params(payload["value_params"])
    learner.policy_opt = Adam.from_state(payload["policy_opt"])
    learner.value_opt = Adam.from_state(payload["value_opt"])
    learner.obs_stat.load_state(payload["obs_stat"])
    learner.ret_stat.load_state(payload["ret_stat"])
    learner.ret = float(payload["ret"])
    learner.obs = None            # the copied policy starts a fresh episode
    learner.pending_return = 0.0


@dataclass
class RolloutBuffer:
    obs: np.ndarray        # normalized, as seen by the policy
    raw_obs: np.ndarray    # environment frame, feeds the probe-state pool
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray    # learning rewards (shaped/scaled)
    values: np.ndarray
    dones: np.ndarray
    bootstrap_value: float
    episode_returns: list = field(default_factory=list)  # sparse, finished episodes

    def __len__(self) -> int:
        return self.obs.shape[0]


def collect_rollout(learners, steps: int, gamma: float) -> list:
    """Exactly ``steps`` transitions per learner, in lockstep; one buffer each.

    Each learner runs its nets in its ``train_env``, drawing exploration
    noise (and env resets) from its ``rng``.  Each tick its ``obs_stat`` takes
    the observation it then whitens by; the discounted return ``ret = gamma *
    ret + reward`` enters ``ret_stat``, the reward is divided by that std
    (floored at 1e-8), and a finished episode resets ``ret`` to 0.  Episodes
    auto-reset as they end; a learner's ``obs`` (None starts fresh) and
    ``pending_return`` carry an unfinished episode and its sparse return so
    far into the next rollout.  The statistics, ``ret``, ``obs`` and
    ``pending_return`` are written back at the end.

    A tick does only what the next env step reads: the observation
    statistics, whitening, one stacked policy-mean forward, the noise draws
    and the env steps.  The log-probs (one elementwise pass over the stored
    means and actions), the values with the bootstrap (stacked one-row
    passes over the whitened observations, ``_VALUE_CHUNK`` ticks at a time)
    and the return scaling (``_scale_rewards``) run once, after the ticks,
    with the bits the per-tick computations give.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    m = len(learners)
    envs, rngs = [l.train_env for l in learners], [l.rng for l in learners]
    log_std = np.stack([l.policy.log_std for l in learners])     # (M, A)
    std = np.exp(log_std)
    act_dim = log_std.shape[1]
    policy_mean = stacked_forward([l.policy for l in learners])
    obs_stats = StackedStats([l.obs_stat for l in learners])

    obs = np.stack([l.train_env.reset(l.rng) if l.obs is None else l.obs for l in learners],
                   dtype=np.float64)
    ep_sparse = [float(l.pending_return) if l.obs is not None else 0.0 for l in learners]
    episode_returns = [[] for _ in range(m)]
    noise = np.empty((m, act_dim))
    # whitened observations; row ``steps`` is the one the bootstrap value reads
    obs_n = np.empty((m, steps + 1, obs.shape[1]))
    raw = np.empty((m, steps, obs.shape[1]))
    means, acts = np.empty((m, steps, act_dim)), np.empty((m, steps, act_dim))
    rewards = np.empty((m, steps))
    dones = np.empty((m, steps), dtype=bool)
    for t in range(steps):
        raw[:, t] = obs
        obs_stats.add(obs)
        x = obs_n[:, t] = whiten(obs, obs_stats.mean, np.maximum(obs_stats.std(), OBS_STD_FLOOR))
        mu = means[:, t] = policy_mean(x[:, None])[:, 0]  # each learner's one-row batch
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=noise[i])
        action = acts[:, t] = mu + std * noise
        next_obs = np.empty_like(obs)
        for i, env in enumerate(envs):
            next_obs[i], rewards[i, t], done, info = env.step(action[i])
            dones[i, t] = done
            ep_sparse[i] += info["sparse_reward"]
            if done:
                episode_returns[i].append(ep_sparse[i])
                ep_sparse[i] = 0.0
                next_obs[i] = env.reset(rngs[i])
        obs = next_obs
    obs_stats.write([l.obs_stat for l in learners])
    obs_n[:, steps] = whiten(obs, obs_stats.mean, np.maximum(obs_stats.std(), OBS_STD_FLOOR))

    z = (acts - means) / std[:, None]
    logps = last_axis_sum(-0.5 * z * z - log_std[:, None] - 0.5 * _LOG_2PI)
    value_of = stacked_forward([l.value_fn for l in learners])
    vals = np.empty((m, steps + 1))
    for lo in range(0, steps + 1, _VALUE_CHUNK):
        chunk = obs_n[:, lo:lo + _VALUE_CHUNK, None]  # (M, C, 1, in): C one-row passes
        vals[:, lo:lo + _VALUE_CHUNK] = value_of(chunk)[:, :, 0, 0]
    buffers = []
    for i, learner in enumerate(learners):
        scaled, learner.ret = _scale_rewards(learner.ret_stat, float(learner.ret), gamma,
                                             rewards[i].tolist(), dones[i].tolist())
        live = not dones[i, -1]
        learner.obs = obs[i].copy() if live else None
        learner.pending_return = ep_sparse[i] if live else 0.0
        buffers.append(RolloutBuffer(
            obs=obs_n[i, :steps], raw_obs=raw[i], actions=acts[i], log_probs=logps[i],
            rewards=np.array(scaled), values=vals[i, :steps], dones=dones[i],
            bootstrap_value=float(vals[i, steps]) if live else 0.0,
            episode_returns=episode_returns[i]))
    return buffers


def _scale_rewards(stat: RunningStat, ret: float, gamma: float, rewards, dones) -> tuple:
    """One learner's rewards divided by the running std of its discounted return.

    Runs on Python floats the operations of a one-row ``StackedStats.add``
    and ``std`` in their order, so its bits are theirs: the square as
    ``d * d``, the empty statistic taking the row as it is, unit variance
    under two samples, and the floors as comparisons that keep a NaN as
    ``np.maximum`` does.  Advances ``stat``; returns (the scaled rewards, the
    return carried on).
    """
    count, mean, m2 = stat.count, float(stat.mean), float(stat.m2)
    scaled = []
    for reward, done in zip(rewards, dones):
        ret = gamma * ret + reward
        d = ret - ret
        if count == 0.0:
            mean, m2 = ret, d * d
        else:
            total = count + 1.0
            delta = ret - mean
            mean = mean + delta * (1.0 / total)
            m2 = m2 + d * d + delta * delta * (count / total)
        count += 1.0
        var = m2 / count if count >= 2.0 else 1.0
        std = math.sqrt(0.0 if var < 0.0 else var)
        scaled.append(reward / (1e-8 if std < 1e-8 else std))
        if done:
            ret = 0.0
    stat.count, stat.mean, stat.m2 = count, np.array(mean), np.array(m2)
    return scaled, ret


def gae(buffer: RolloutBuffer, gamma: float, lam: float):
    """Generalized advantage estimation; returns (raw advantages, value targets)."""
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
    return adv, adv + values


@dataclass(frozen=True)
class PPOConfig:
    clip: float = 0.2
    epochs: int = 4
    minibatches: int = 4
    lr: float = 3e-4
    gamma: float = 0.99
    lam: float = 0.95
    value_coef: float = 0.5


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
    adv, returns = gae(buffer, config.gamma, config.lam)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)  # the targets keep the raw advantages
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

            mu, ls, cache = policy.gaussian_batch(x, with_cache=True)
            std = np.exp(ls)
            z = (buffer.actions[idx] - mu) / std
            logp = last_axis_sum(-0.5 * z * z - ls - 0.5 * _LOG_2PI)

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
            grad = policy.backward_gaussian(cache, dmu, dls)

            v, v_cache = value_fn.value_batch(x, with_cache=True)
            v_loss = 0.5 * float(np.mean((v - returns[idx]) ** 2))
            dv = config.value_coef * (v - returns[idx]) / k
            v_grad = value_fn.backward(v_cache, dv)

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


def evaluate(policies, envs, rngs, episodes: int = 10) -> list:
    """Mean sparse return and mean behavior descriptor over full episodes, per learner.

    ``policies`` are ``NormalizedPolicy`` views, whose frozen normalization
    constants stay fixed here.  The M learners run in lockstep: each tick
    takes every view's mean action from one stacked forward and steps each
    learner still in its ``episodes`` episodes once in ``envs[i]``;
    ``rngs[i]`` goes to that env's resets and drives the environment alone.
    Returns one ``EvalResult`` per learner.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    m = len(policies)
    if any(view.action_space.kind != "continuous" for view in policies):
        raise ValueError("evaluate takes continuous policies, not a discrete policy")
    policy_mean = stacked_forward([view.policy for view in policies])
    shift = np.stack([view.obs_mean for view in policies])
    scale = np.stack([view.obs_std for view in policies])
    obs = np.stack([env.reset(rng) for env, rng in zip(envs, rngs)], dtype=np.float64)
    totals = [[] for _ in range(m)]
    bds = [[] for _ in range(m)]
    total = [0.0] * m
    actions = [[] for _ in range(m)]
    live = list(range(m))
    while live:
        mu = policy_mean(whiten(obs, shift, scale)[:, None])[:, 0]
        for i in tuple(live):
            env = envs[i]
            obs[i], _, done, info = env.step(mu[i])
            total[i] += info["sparse_reward"]
            actions[i].append(mu[i])
            if not done:
                continue
            totals[i].append(total[i])
            bd = env.episode_bd(np.asarray(actions[i]), info)
            if bd is not None:
                bds[i].append(np.asarray(bd, dtype=np.float64))
            if len(totals[i]) == episodes:
                live.remove(i)
            else:
                obs[i] = env.reset(rngs[i])
                total[i], actions[i] = 0.0, []
    return [EvalResult(fitness=float(np.mean(totals[i])),
                       bd=np.mean(np.stack(bds[i]), axis=0) if bds[i] else None)
            for i in range(m)]
