"""Reward-phase machinery: running stats, rollouts, GAE oracles, PPO updates."""

import numpy as np
import pytest

from phasic.dogfight import DogfightConfig, DogfightEnv
from phasic.nets import ActionSpace, NormalizedPolicy, Policy, ValueFunction, _Mlp, whiten
from phasic.optim import Adam
from phasic.rl import (_VALUE_CHUNK, Learner, PPOConfig, RolloutBuffer, RunningStat,
                       StackedStats, collect_rollout, evaluate, gae, ppo_update,
                       restore_payload, snapshot_payload)
from phasic.toy import ToyConfig, ToyEnv

import oracles
from factories import linear_gaussian_policy, random_discrete_policy
from oracles import ArrayRewardScaler, BatchMoments


def make_learner(rng, obs_dim=2, act_dim=2, hidden=(8,)):
    policy = Policy.init(obs_dim, ActionSpace("continuous", act_dim), rng, hidden=hidden)
    value_fn = ValueFunction.init(obs_dim, rng, hidden=hidden)
    return policy, value_fn


GAMMA = PPOConfig().gamma


def learner_of(policy, value_fn, env, rng):
    """A learner with fresh optimizers and statistics that trains in ``env``."""
    return Learner(id=0, policy=policy, value_fn=value_fn, policy_opt=Adam(policy.n_params),
                   value_opt=Adam(value_fn.params.size), obs_stat=RunningStat((env.obs_dim,)),
                   rng=rng, train_env=env)


def rollout(learner, steps, gamma=GAMMA):
    """A population-of-one rollout; the learner carries its state on."""
    buf, = collect_rollout([learner], steps, gamma)
    return buf


def add_rows(stat, rows):
    """Advance a RunningStat by one row at a time, as a rollout tick does."""
    stacked = StackedStats([stat])
    for row in np.asarray(rows, dtype=np.float64):
        stacked.add(row[None])
    stacked.write([stat])


class ScriptedEnv:
    """One-dimensional env whose steps pay a fixed reward script; no draws."""

    obs_dim = 1
    action_space = ActionSpace("continuous", 1)

    def __init__(self, rewards, dones=None):
        self.rewards = [float(r) for r in rewards]
        self.dones = [False] * len(self.rewards) if dones is None else [bool(d) for d in dones]
        self.t = 0

    def reset(self, rng):
        return np.zeros(1)

    def step(self, action):
        t, self.t = self.t, self.t + 1
        return np.zeros(1), self.rewards[t], self.dones[t], {"sparse_reward": self.rewards[t]}


def scripted_learner():
    """A one-dimensional learner for ``scaled_rewards``; its return statistics
    carry over from one script to the next."""
    policy = linear_gaussian_policy([[0.0]], [0.0], 0.0)
    value_fn = ValueFunction.init(1, np.random.default_rng(0), hidden=())
    return learner_of(policy, value_fn, ScriptedEnv([]), None)


def scaled_rewards(learner, rewards, dones=None, gamma=GAMMA):
    """The learning rewards a rollout hands PPO for a reward script, played
    from a fresh episode."""
    learner.train_env, learner.rng = ScriptedEnv(rewards, dones), np.random.default_rng(0)
    learner.obs = None
    return rollout(learner, len(rewards), gamma).rewards


class TestRunningStat:
    def test_single_batch_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        stat = RunningStat((3,))
        add_rows(stat, x)
        assert stat.mean == pytest.approx(x.mean(axis=0), abs=1e-12)
        assert stat.std == pytest.approx(x.std(axis=0), abs=1e-12)

    def test_incremental_matches_offline(self):
        rng = np.random.default_rng(1)
        x = rng.normal(loc=3.0, scale=2.0, size=(300, 4))
        stat = RunningStat((4,))
        for lo in range(0, 300, 17):
            add_rows(stat, x[lo:lo + 17])
        assert stat.count == 300
        assert stat.mean == pytest.approx(x.mean(axis=0), abs=1e-10)
        assert stat.std == pytest.approx(x.std(axis=0), rel=1e-10)

    def test_few_samples_report_unit_variance(self):
        stat = RunningStat(())
        assert stat.std == 1.0
        add_rows(stat, [4.2])
        assert stat.std == 1.0
        assert stat.mean == pytest.approx(4.2)

    def test_state_round_trip(self):
        stat = RunningStat((2,))
        add_rows(stat, np.arange(10).reshape(5, 2))
        clone = RunningStat((2,))
        clone.load_state(stat.state_dict())
        assert clone.count == stat.count
        assert np.array_equal(clone.mean, stat.mean)
        assert np.array_equal(clone.m2, stat.m2)


class TestOneRowUpdatesMatchBatchFormula:
    """Stacked one-row updates skip the reductions but must equal them bit for bit,
    for every statistic of the stack, whatever its count."""

    @staticmethod
    def _stream(rng, shape, poison):
        rows = list(rng.normal(loc=2.0, scale=3.0, size=(60, *shape)))
        for at, value in poison:
            rows[at] = np.full(shape, value)
        return rows

    def _check_streams(self, shape, poison, seed):
        rng = np.random.default_rng(seed)
        # three statistics at once: fresh, fresh with a poisoned stream, and one
        # already holding rows of its own (as after an exploit)
        streams = [self._stream(rng, shape, ()), self._stream(rng, shape, poison),
                   self._stream(rng, shape, ())]
        refs = [BatchMoments(shape) for _ in streams]
        stats = [RunningStat(shape) for _ in streams]
        head = rng.normal(size=(7, *shape))
        refs[2].update(head)
        stats[2].load_state({"count": refs[2].count, "mean": refs[2].mean, "m2": refs[2].m2})
        stacked = StackedStats(stats)
        for rows in zip(*streams):
            stacked.add(np.stack(rows))
            for i, (ref, row) in enumerate(zip(refs, rows)):
                ref.update(row)
                assert stacked.count[i] == ref.count
                assert np.array_equal(stacked.mean[i], ref.mean, equal_nan=True)
                assert np.array_equal(stacked.m2[i], ref.m2, equal_nan=True)
        return stacked

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_finite_stream(self, shape):
        self._check_streams(shape, (), 16)

    @pytest.mark.parametrize("shape", [(), (3,)])
    @pytest.mark.parametrize("poison", [[(30, np.inf)], [(30, np.nan)],
                                        [(0, -np.inf)], [(20, np.inf), (40, np.nan)]])
    def test_non_finite_rows_propagate_alike(self, shape, poison):
        with np.errstate(invalid="ignore"):
            stacked = self._check_streams(shape, poison, 17)
        assert not np.all(np.isfinite(stacked.m2[1]))
        assert np.all(np.isfinite(stacked.m2[[0, 2]]))

    def test_stacked_rows_and_lone_rows_agree(self):
        rng = np.random.default_rng(18)
        rows = rng.standard_normal((25, 3, 2))
        stacked = StackedStats([RunningStat((2,)) for _ in range(3)])
        alone = [StackedStats([RunningStat((2,))]) for _ in range(3)]
        for tick in rows:
            stacked.add(tick)
            for i, lone in enumerate(alone):
                lone.add(tick[i][None])
        written = [RunningStat((2,)) for _ in range(3)]
        stacked.write(written)
        for stat, lone in zip(written, alone):
            assert np.array_equal(stat.mean, lone.mean[0])
            assert np.array_equal(stat.m2, lone.m2[0])
            assert not np.shares_memory(stat.mean, stacked.mean)

    @pytest.mark.parametrize("gamma", [0.5, 0.99])
    @pytest.mark.parametrize("poison", [None, (0, np.inf), (150, np.inf), (150, np.nan)])
    def test_reward_scaler_matches_array_path(self, gamma, poison):
        rng = np.random.default_rng(19)
        learner, ref = scripted_learner(), ArrayRewardScaler(gamma)
        rewards = list(rng.normal(scale=5.0, size=300))
        rewards[7] = 0.0
        rewards[100] = -1000.0
        if poison is not None:
            rewards[poison[0]] = poison[1]
        dones = rng.random(300) < 0.05
        with np.errstate(invalid="ignore"):
            got = scaled_rewards(learner, rewards, dones, gamma)
            want = [ref.scale(float(r), bool(d)) for r, d in zip(rewards, dones)]
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(learner.ret, ref.ret, equal_nan=True)
        assert learner.ret_stat.count == ref.stat.count
        assert np.array_equal(learner.ret_stat.mean, ref.stat.mean, equal_nan=True)
        assert np.array_equal(learner.ret_stat.m2, ref.stat.m2, equal_nan=True)

    def test_reward_scaler_state_round_trips(self):
        # the return and its statistics travel in the learner's payload
        learner = scripted_learner()
        scaled_rewards(learner, [1.0, -2.0, 0.5], gamma=0.9)
        clone = scripted_learner()
        restore_payload(clone, snapshot_payload(learner))
        assert clone.ret == learner.ret != 0.0
        assert np.array_equal(scaled_rewards(clone, [3.0], [True], gamma=0.9),
                              scaled_rewards(learner, [3.0], [True], gamma=0.9))
        assert snapshot_payload(clone)["ret_stat"]["count"] == learner.ret_stat.count == 4


class TestNormalizer:
    """Observation whitening by a learner's ``obs_stat``."""

    def test_whitens_and_clips(self):
        rng = np.random.default_rng(3)
        data = rng.normal(loc=10.0, scale=0.5, size=(200, 2))
        stat = RunningStat((2,))
        add_rows(stat, data)
        std = np.maximum(stat.std, 1e-8)
        out = whiten(data, stat.mean, std)
        assert out.mean(axis=0) == pytest.approx(np.zeros(2), abs=1e-10)
        assert out.std(axis=0) == pytest.approx(np.ones(2), rel=1e-10)
        assert np.all(np.abs(whiten(np.array([1e9, -1e9]), stat.mean, std)) <= 10.0)
        # the clamp gives np.clip's bits, non-finite inputs included
        x = rng.normal(loc=10.0, scale=20.0, size=(300, 2))
        x[::7, 0], x[3::11, 1], x[5::13] = np.inf, -np.inf, np.nan
        z = (x - stat.mean) / std
        assert np.array_equal(whiten(x, stat.mean, std),
                              np.clip(z, -10.0, 10.0), equal_nan=True)

    def test_copy_is_independent(self):
        # the snapshot path: a restored learner shares no arrays with its source
        policy, value_fn = make_learner(np.random.default_rng(5))
        source = learner_of(policy, value_fn, ToyEnv(), None)
        add_rows(source.obs_stat, np.ones((5, 2)))
        clone = learner_of(policy, value_fn, ToyEnv(), None)
        restore_payload(clone, snapshot_payload(source))
        add_rows(source.obs_stat, np.full((50, 2), 100.0))
        assert clone.obs_stat.count == 5
        assert np.array_equal(clone.obs_stat.mean, np.ones(2))

    def test_frozen_view_transforms_like_normalize(self):
        rng = np.random.default_rng(4)
        stat = RunningStat((3,))
        data = rng.normal(loc=2.0, scale=3.0, size=(40, 3))
        data[:, 2] = 7.0  # a zero-variance column: std floors at 1e-8
        add_rows(stat, data)
        x = rng.normal(loc=2.0, scale=40.0, size=(300, 3))
        x[::7, 0], x[3::11, 1], x[5::13] = np.inf, -np.inf, np.nan
        x[1::4, 2] = 7.0 + rng.normal(scale=1e-9, size=x[1::4, 2].shape)
        seen = []

        class Recorder:
            action_space = ActionSpace("continuous", 1)

            def gaussian_batch(self, states, with_cache=False):
                seen.append(states)
                return states[:, :1], np.zeros(1)

        learner = Learner(id=0, policy=Recorder(), value_fn=None, policy_opt=None,
                          value_opt=None, obs_stat=stat, rng=None, train_env=None)
        learner.view().gaussian_batch(x)
        assert np.array_equal(seen[0], oracles.normalize(stat, x), equal_nan=True)


class TestRewardScaler:
    """Learning rewards scaled by the std of the learner's discounted return."""

    def test_first_reward_passes_through(self):
        assert scaled_rewards(scripted_learner(), [1.0])[0] == pytest.approx(1.0)

    def test_scales_by_return_std(self):
        rng = np.random.default_rng(4)
        rewards = rng.normal(size=100)
        rets = []
        ret = 0.0
        for r in rewards:
            ret = 0.9 * ret + r
            rets.append(ret)
        out = scaled_rewards(scripted_learner(), rewards, gamma=0.9)[-1]
        assert out == pytest.approx(rewards[-1] / np.std(rets), rel=1e-9)

    def test_done_resets_the_return_accumulator(self):
        learner = scripted_learner()
        scaled_rewards(learner, [8.0], [True], gamma=0.5)
        assert learner.ret == 0.0


class TestGae:
    def test_unit_discount_constant_rewards(self):
        buf = RolloutBuffer(
            obs=np.zeros((3, 1)), raw_obs=np.zeros((3, 1)),
            actions=np.zeros((3, 1)), log_probs=np.zeros(3),
            rewards=np.ones(3), values=np.zeros(3),
            dones=np.array([False, False, True]), bootstrap_value=0.0)
        adv, returns = gae(buf, gamma=1.0, lam=1.0)
        assert adv == pytest.approx([3.0, 2.0, 1.0], abs=1e-12)
        assert returns == pytest.approx([3.0, 2.0, 1.0], abs=1e-12)

    def test_single_transition(self):
        buf = RolloutBuffer(
            obs=np.zeros((1, 1)), raw_obs=np.zeros((1, 1)),
            actions=np.zeros((1, 1)), log_probs=np.zeros(1),
            rewards=np.array([1.0]), values=np.array([0.0]),
            dones=np.array([True]), bootstrap_value=0.0)
        adv, returns = gae(buf, gamma=0.99, lam=0.95)
        assert adv == pytest.approx([1.0], abs=1e-12)
        assert returns == pytest.approx([1.0], abs=1e-12)

    def test_done_blocks_credit_flow(self):
        buf = RolloutBuffer(
            obs=np.zeros((2, 1)), raw_obs=np.zeros((2, 1)),
            actions=np.zeros((2, 1)), log_probs=np.zeros(2),
            rewards=np.array([1.0, 1.0]), values=np.array([5.0, 7.0]),
            dones=np.array([True, False]), bootstrap_value=3.0)
        adv, _ = gae(buf, gamma=0.9, lam=0.8)
        # t=1 bootstraps: 1 + 0.9*3 - 7 = -3.3; t=0 is terminal: 1 - 5 = -4
        assert adv == pytest.approx([-4.0, -3.3], abs=1e-12)

    def test_lambda_one_equals_reward_to_go(self):
        rng = np.random.default_rng(5)
        rewards = rng.normal(size=12)
        buf = RolloutBuffer(
            obs=np.zeros((12, 1)), raw_obs=np.zeros((12, 1)),
            actions=np.zeros((12, 1)), log_probs=np.zeros(12),
            rewards=rewards, values=np.zeros(12),
            dones=np.zeros(12, dtype=bool), bootstrap_value=0.0)
        gamma = 0.9
        adv, _ = gae(buf, gamma=gamma, lam=1.0)
        expected = np.array([
            sum(gamma ** (k - t) * rewards[k] for k in range(t, 12))
            for t in range(12)])
        assert adv == pytest.approx(expected, abs=1e-10)



class TestCollectRollout:
    def test_exact_step_count_and_shapes(self):
        rng = np.random.default_rng(7)
        env = ToyEnv()
        policy, value_fn = make_learner(rng)
        buf = rollout(learner_of(policy, value_fn, env, rng), 37)
        assert len(buf) == 37
        assert buf.obs.shape == (37, 2)
        assert buf.raw_obs.shape == (37, 2)
        assert buf.actions.shape == (37, 2)
        assert buf.log_probs.shape == (37,)
        assert buf.dones.dtype == bool

    def test_seeded_determinism(self):
        env_a, env_b = ToyEnv(), ToyEnv()
        policy, value_fn = make_learner(np.random.default_rng(9))
        buf_a = rollout(learner_of(policy, value_fn, env_a, np.random.default_rng(42)), 50)
        buf_b = rollout(learner_of(policy, value_fn, env_b, np.random.default_rng(42)), 50)
        assert np.array_equal(buf_a.obs, buf_b.obs)
        assert np.array_equal(buf_a.actions, buf_b.actions)
        assert np.array_equal(buf_a.rewards, buf_b.rewards)
        assert buf_a.bootstrap_value == buf_b.bootstrap_value

    def test_episode_boundaries_and_returns(self):
        # quiet policy (tiny exploration noise): position barely moves, so each
        # finished episode's sparse return is ~horizon * reward(start)
        env = ToyEnv(ToyConfig(horizon=50))
        policy = linear_gaussian_policy(np.zeros((2, 2)), np.zeros(2), log_std=-20.0)
        value_fn = ValueFunction.init(2, np.random.default_rng(0), hidden=(4,))
        learner = learner_of(policy, value_fn, env, np.random.default_rng(10))
        buf = rollout(learner, 125)
        assert int(buf.dones.sum()) == 2
        assert len(buf.episode_returns) == 2
        starts = [buf.raw_obs[0], buf.raw_obs[50]]
        for got, start in zip(buf.episode_returns, starts):
            assert got == pytest.approx(50 * oracles.toy_reward(start, env.config), rel=1e-5)
        # mid-episode cut: bootstrap from the live state, continuation obs kept
        assert learner.obs is not None
        assert learner.pending_return == pytest.approx(
            25 * oracles.toy_reward(buf.raw_obs[100], env.config), rel=1e-5)
        assert buf.bootstrap_value == pytest.approx(
            value_fn.value(oracles.normalize(learner.obs_stat, learner.obs)))

    def test_rollout_ending_on_done_has_no_continuation(self):
        env = ToyEnv(ToyConfig(horizon=25))
        policy, value_fn = make_learner(np.random.default_rng(11))
        learner = learner_of(policy, value_fn, env, np.random.default_rng(11))
        buf = rollout(learner, 50)
        assert buf.dones[-1]
        assert learner.obs is None and learner.pending_return == 0.0
        assert buf.bootstrap_value == 0.0

    def test_continuation_resumes_episode(self):
        env = SparseLog(ToyEnv(ToyConfig(horizon=60)))
        policy, value_fn = make_learner(np.random.default_rng(12))
        learner = learner_of(policy, value_fn, env, np.random.default_rng(13))
        buf1 = rollout(learner, 30)
        buf2 = rollout(learner, 30)
        assert not buf1.dones.any()
        assert buf2.dones[-1]
        assert len(buf2.episode_returns) == 1
        # the stitched episode spans both rollouts
        total = buf2.episode_returns[0]
        assert total == pytest.approx(sum(env.sparse), rel=1e-12)
        assert len(env.sparse) == 60


class SparseLog:
    """Env wrapper that logs each step's sparse reward and, as a loop summing
    them would, each finished episode's sparse return."""

    def __init__(self, env):
        self.env = env
        self.obs_dim, self.action_space = env.obs_dim, env.action_space
        self.sparse, self.episode_returns, self._total = [], [], 0.0

    def reset(self, rng):
        return self.env.reset(rng)

    def step(self, action):
        out = self.env.step(action)
        self.sparse.append(out[3]["sparse_reward"])
        self._total += out[3]["sparse_reward"]
        if out[2]:
            self.episode_returns.append(self._total)
            self._total = 0.0
        return out

    def episode_bd(self, actions, last_info):
        return self.env.episode_bd(actions, last_info)


class Poisoned:
    """Env wrapper that overwrites the observation at given steps with a value."""

    def __init__(self, env, poison):
        self.env = env
        self.obs_dim, self.action_space = env.obs_dim, env.action_space
        self.poison = dict(poison)
        self.t = 0

    def reset(self, rng):
        return self.env.reset(rng)

    def step(self, action):
        obs, reward, done, info = self.env.step(action)
        self.t += 1
        if self.t in self.poison:
            obs = np.full_like(obs, self.poison[self.t])
        return obs, reward, done, info


class PoisonedReward(Poisoned):
    """Env wrapper that overwrites the learning reward at given steps with a value."""

    def step(self, action):
        obs, reward, done, info = self.env.step(action)
        self.t += 1
        return obs, self.poison.get(self.t, reward), done, info


def _stats_equal(a, b):
    return (a.count == b.count and np.array_equal(a.mean, b.mean, equal_nan=True)
            and np.array_equal(a.m2, b.m2, equal_nan=True))


def _buffers_equal(got, want):
    for name in ("obs", "raw_obs", "actions", "log_probs", "rewards", "values"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
    assert np.array_equal(got.dones, want.dones)
    assert np.array_equal(got.bootstrap_value, want.bootstrap_value, equal_nan=True)
    assert np.array_equal(got.episode_returns, want.episode_returns, equal_nan=True)


def _learners_equal(got, want):
    """The state a rollout carries on: statistics, return, continuation, generator."""
    assert _stats_equal(got.obs_stat, want.obs_stat)
    assert _stats_equal(got.ret_stat, want.ret_stat)
    assert np.array_equal(got.ret, want.ret, equal_nan=True)
    assert (got.obs is None) == (want.obs is None)
    if got.obs is not None:
        assert np.array_equal(got.obs, want.obs, equal_nan=True)
    assert np.array_equal(got.pending_return, want.pending_return, equal_nan=True)
    assert got.rng.bit_generator.state == want.rng.bit_generator.state


class TestLockstepMatchesPerLearner:
    """The population rollout and evaluation equal M per-learner reference loops
    (tests/oracles.py) bit for bit: every buffer field, and each learner's
    statistics, return, continuation and generator afterwards."""

    @staticmethod
    def population(m, obs_dim, act_dim, seed, hidden=(16, 16)):
        rng = np.random.default_rng(seed)
        pols, vfs = [], []
        for _ in range(m):
            pol, vf = make_learner(rng, obs_dim, act_dim, hidden)
            pols.append(pol.with_params(pol.params + 0.3 * rng.standard_normal(pol.n_params)))
            vfs.append(vf)
        return pols, vfs

    @staticmethod
    def learners(pols, vfs, make_env, seed):
        """Learner i has already seen 3*i observations and returns (none for i=0)."""
        rng = np.random.default_rng(seed)
        out = []
        for i, (pol, vf) in enumerate(zip(pols, vfs)):
            learner = learner_of(pol, vf, make_env(i), np.random.default_rng(100 + i))
            if i:
                oracles.update_stat(learner.obs_stat,
                                    rng.normal(size=(3 * i, learner.obs_stat.mean.size)))
                for r in rng.normal(size=3 * i):
                    _, learner.ret = oracles.scale_reward(learner.ret_stat, learner.ret, GAMMA,
                                                          float(r), False)
            out.append(learner)
        return out

    def check(self, make_env, m, steps, windows=2, obs_dim=2, act_dim=2, seed=0):
        """Per window: the buffers and each learner's (obs, pending_return) after it."""
        pols, vfs = self.population(m, obs_dim, act_dim, seed)
        got, refs = (self.learners(pols, vfs, make_env, seed) for _ in range(2))
        out = []
        for _ in range(windows):
            bufs = collect_rollout(got, steps, GAMMA)
            assert len(bufs) == m
            for buf, ref in zip(bufs, refs):
                want, ref.ret, ref.obs, ref.pending_return = oracles.collect_rollout(
                    ref.policy, ref.value_fn, ref.train_env, steps, ref.rng, ref.obs_stat,
                    ref.ret_stat, ref.ret, GAMMA, initial_obs=ref.obs,
                    carry_return=ref.pending_return)
                _buffers_equal(buf, want)
            for g, r in zip(got, refs):
                _learners_equal(g, r)
            out.append((bufs, [(l.obs, l.pending_return) for l in got]))
        return out

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_toy_rollout(self, m):
        # horizons differ, so learners finish episodes on different ticks, and
        # the second window starts learner 0 afresh and continues the others
        (_, carried), _ = self.check(lambda i: ToyEnv(ToyConfig(horizon=35 + 7 * i)), m,
                                     steps=70)
        assert [obs is None for obs, _ in carried] == [True] + [False] * (m - 1)
        assert [pending != 0.0 for _, pending in carried] == [False] + [True] * (m - 1)

    def test_dogfight_rollout_with_staggered_episode_ends(self):
        _, (got, _) = self.check(lambda i: DogfightEnv(DogfightConfig(max_steps=25 + 10 * i)),
                                 3, steps=60, obs_dim=22, act_dim=4)
        assert [len(b.episode_returns) for b in got] == [2, 2, 1]

    def test_non_finite_observation_row(self):
        poison = {0: [(5, np.inf)], 1: [], 2: [(9, np.nan), (12, -np.inf)]}
        with np.errstate(invalid="ignore", over="ignore"):
            (got, _), = self.check(lambda i: Poisoned(ToyEnv(), poison[i]), 3, steps=20,
                                   windows=1)
        assert not np.all(np.isfinite(got[0].obs)) and not np.all(np.isfinite(got[2].obs))
        assert np.all(np.isfinite(got[1].obs))

    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 127, 130])
    def test_value_chunk_edges(self, steps):
        # a rollout's steps + 1 values (the last the bootstrap's) run in
        # passes of _VALUE_CHUNK = 64 ticks: these fill one pass, end one
        # short of or one past a pass, and leave the bootstrap a pass alone
        self.check(lambda i: ToyEnv(ToyConfig(horizon=30 + 7 * i)), 3, steps=steps)

    def test_non_finite_rewards(self):
        # returns and their statistics turn inf or NaN in some learners only;
        # episodes of 8, 9 and 10 steps reset the return and carry the statistics
        poison = {0: [(4, np.inf)], 1: [], 2: [(3, np.nan), (12, -np.inf)]}
        with np.errstate(invalid="ignore"):
            (got, _), _ = self.check(
                lambda i: PoisonedReward(ToyEnv(ToyConfig(horizon=8 + i)), poison[i]), 3,
                steps=15)
        assert not np.all(np.isfinite(got[0].rewards))
        assert np.isnan(got[2].rewards[2]) and not np.all(np.isfinite(got[2].rewards[3:]))
        assert np.all(np.isfinite(got[1].rewards))

    @pytest.mark.parametrize("steps", [1, 64, 130])
    def test_one_policy_forward_per_tick_and_one_value_pass_per_chunk(self, monkeypatch,
                                                                       steps):
        pols, vfs = self.population(3, 2, 2, seed=0)
        learners = self.learners(pols, vfs, lambda i: ToyEnv(), seed=0)
        real, calls = _Mlp.forward, []

        def counting(mlp, layers, x):
            calls.append((mlp.sizes[-1], x.shape))
            return real(mlp, layers, x)

        monkeypatch.setattr(_Mlp, "forward", counting)
        collect_rollout(learners, steps, GAMMA)
        chunks = [min(_VALUE_CHUNK, steps + 1 - lo) for lo in range(0, steps + 1, _VALUE_CHUNK)]
        assert calls == [(2, (3, 1, 2))] * steps + [(1, (3, c, 1, 2)) for c in chunks]

    @staticmethod
    def views(m, obs_dim, act_dim, seed):
        pols, _ = TestLockstepMatchesPerLearner.population(m, obs_dim, act_dim, seed)
        rng = np.random.default_rng(seed + 1)
        return [NormalizedPolicy(p, rng.normal(scale=0.2, size=obs_dim),
                                 rng.uniform(0.5, 2.0, size=obs_dim)) for p in pols]

    def check_evaluate(self, make_env, views, episodes):
        m = len(views)
        got_rngs = [np.random.default_rng(200 + i) for i in range(m)]
        ref_rngs = [np.random.default_rng(200 + i) for i in range(m)]
        got_envs = [SparseLog(make_env(i)) for i in range(m)]
        got = evaluate(views, got_envs, got_rngs, episodes=episodes)
        assert len(got) == m
        for i, (view, res) in enumerate(zip(views, got)):
            ref_env = SparseLog(make_env(i))
            ref = oracles.evaluate(view, ref_env, ref_rngs[i], episodes=episodes)
            assert res.fitness == ref.fitness
            assert np.array_equal(res.bd, ref.bd)
            assert len(got_envs[i].episode_returns) == episodes
            assert np.array_equal(got_envs[i].episode_returns, ref_env.episode_returns)
            assert got_rngs[i].bit_generator.state == ref_rngs[i].bit_generator.state
        return got

    @pytest.mark.parametrize("m", [1, 3])
    def test_toy_evaluate(self, m):
        views = self.views(m, 2, 2, seed=3)
        self.check_evaluate(lambda i: ToyEnv(ToyConfig(horizon=20 + 15 * i)), views, 3)

    def test_dogfight_evaluate(self):
        views = self.views(3, 22, 4, seed=4)
        self.check_evaluate(lambda i: DogfightEnv(DogfightConfig(max_steps=400)), views, 2)


class TestPpoUpdate:
    @staticmethod
    def random_buffer(rng, policy, value_fn, env, steps=64):
        return rollout(learner_of(policy, value_fn, env, rng), steps)

    def test_zero_advantage_leaves_policy_unchanged(self):
        rng = np.random.default_rng(14)
        policy, value_fn = make_learner(rng)
        n = 32
        buf = RolloutBuffer(
            obs=rng.normal(size=(n, 2)), raw_obs=np.zeros((n, 2)),
            actions=rng.normal(size=(n, 2)), log_probs=np.zeros(n),
            rewards=np.zeros(n), values=np.zeros(n),
            dones=np.zeros(n, dtype=bool), bootstrap_value=0.0)
        # rewards == values == bootstrap == 0 -> advantages identically zero
        buf.log_probs = _true_log_probs(policy, buf.obs, buf.actions)
        new_policy, _, stats = ppo_update(
            policy, value_fn, buf, PPOConfig(), Adam(policy.params.size),
            Adam(value_fn.params.size), rng)
        assert np.array_equal(new_policy.params, policy.params)
        assert not stats.nan_event

    def test_zero_learning_rate_changes_nothing(self):
        rng = np.random.default_rng(15)
        policy, value_fn = make_learner(rng)
        buf = self.random_buffer(rng, policy, value_fn, ToyEnv())
        cfg = PPOConfig(lr=0.0)
        new_policy, new_value, stats = ppo_update(
            policy, value_fn, buf, cfg,
            Adam(policy.params.size, lr=0.0), Adam(value_fn.params.size, lr=0.0), rng)
        assert np.array_equal(new_policy.params, policy.params)
        assert np.array_equal(new_value.params, value_fn.params)
        assert np.isfinite(stats.pi_loss)

    def test_positive_advantage_raises_action_log_prob(self):
        # one state and one-step episodes: the rewarded action 0.5 keeps a
        # positive advantage after standardization and the unrewarded -0.5 a
        # negative one, so a PPO step must pull the mean toward 0.5
        policy = linear_gaussian_policy(np.zeros((1, 1)), np.zeros(1), log_std=0.0)
        value_fn = ValueFunction.init(1, np.random.default_rng(16), hidden=())
        obs = np.zeros((8, 1))
        actions = np.repeat([[0.5], [-0.5]], 4, axis=0)
        logp = _true_log_probs(policy, obs, actions)
        buf = RolloutBuffer(
            obs=obs, raw_obs=obs, actions=actions, log_probs=logp,
            rewards=np.repeat([1.0, 0.0], 4), values=np.zeros(8),
            dones=np.ones(8, dtype=bool), bootstrap_value=0.0)
        cfg = PPOConfig(epochs=1, minibatches=1)
        new_policy, _, _ = ppo_update(
            policy, value_fn, buf, cfg, Adam(policy.params.size, lr=1e-2),
            Adam(value_fn.params.size), np.random.default_rng(17))
        old_lp = _true_log_probs(policy, obs[:1], actions[:1])[0]
        new_lp = _true_log_probs(new_policy, obs[:1], actions[:1])[0]
        assert new_lp > old_lp

    def test_non_finite_loss_aborts_and_restores(self):
        rng = np.random.default_rng(18)
        policy, value_fn = make_learner(rng)
        buf = self.random_buffer(rng, policy, value_fn, ToyEnv())
        buf.rewards = buf.rewards.copy()
        buf.rewards[3] = np.nan
        new_policy, new_value, stats = ppo_update(
            policy, value_fn, buf, PPOConfig(), Adam(policy.params.size),
            Adam(value_fn.params.size), rng)
        assert stats.nan_event
        assert new_policy is policy
        assert new_value is value_fn

    def test_one_forward_per_network_and_minibatch(self, monkeypatch):
        # each backward takes the layer inputs its minibatch forward kept:
        # per minibatch, policy forward and backward, then value forward and
        # backward, and no forward inside a backward
        rng = np.random.default_rng(24)
        policy, value_fn = make_learner(rng)
        buf = self.random_buffer(rng, policy, value_fn, ToyEnv(), steps=40)
        real_forward, real_backward, calls = _Mlp.forward, _Mlp.backward, []

        def forward(self, layers, x):
            calls.append(("forward", self.sizes[-1], len(x)))
            return real_forward(self, layers, x)

        def backward(self, layers, inputs, dout):
            calls.append(("backward", self.sizes[-1], len(dout)))
            return real_backward(self, layers, inputs, dout)

        monkeypatch.setattr(_Mlp, "forward", forward)
        monkeypatch.setattr(_Mlp, "backward", backward)
        cfg = PPOConfig(epochs=3, minibatches=4)
        ppo_update(policy, value_fn, buf, cfg, Adam(policy.n_params),
                   Adam(value_fn.params.size), rng)
        # 40 rows in 4 minibatches of 10; the policy has 2 outputs, the value 1
        minibatch = [("forward", 2, 10), ("backward", 2, 10),
                     ("forward", 1, 10), ("backward", 1, 10)]
        assert calls == minibatch * (cfg.epochs * cfg.minibatches)

    def test_value_regression_reduces_error(self):
        rng = np.random.default_rng(19)
        policy, value_fn = make_learner(rng)
        buf = self.random_buffer(rng, policy, value_fn, ToyEnv(), steps=128)
        _, returns = gae(buf, 0.99, 0.95)
        before = float(np.mean((value_fn.value_batch(buf.obs) - returns) ** 2))
        _, new_value, _ = ppo_update(
            policy, value_fn, buf, PPOConfig(epochs=10, lr=1e-2),
            Adam(policy.params.size, lr=1e-2), Adam(value_fn.params.size, lr=1e-2), rng)
        after = float(np.mean((new_value.value_batch(buf.obs) - returns) ** 2))
        assert after < before


class SpyOptimizer:
    """Records each gradient it is handed and leaves the parameters as they are."""

    def __init__(self):
        self.grads = []

    def step(self, params, grad):
        self.grads.append(np.array(grad))
        return params


class TestPpoGradients:
    """One epoch over one minibatch: the gradients ``ppo_update`` hands its
    optimizers are the central differences of the oracle losses."""

    CLIP, VALUE_COEF = 0.2, 0.7
    # every |ratio - 1| stays at least 0.05 from the clip kinks at 0.8 and 1.2
    RATIOS = (0.5, 0.75, 0.9, 1.1, 1.25, 1.6)

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(41)
        n, obs_dim, act_dim = 30, 3, 2
        policy = Policy.init(obs_dim, ActionSpace("continuous", act_dim), rng, hidden=(5,))
        params = policy.params + 0.3 * rng.standard_normal(policy.n_params)
        params[-act_dim:] = [-0.4, 0.3]  # std != 1 on both axes
        policy = policy.with_params(params)
        value_fn = ValueFunction.init(obs_dim, rng, hidden=(5,))
        obs = rng.normal(size=(n, obs_dim))
        mean, log_std = oracles.gaussian_batch(policy, obs)
        actions = mean + np.exp(log_std) * rng.normal(size=(n, act_dim))
        ratios = rng.choice(self.RATIOS, size=n)
        logp = [oracles.DiagGaussian(mu, log_std).log_prob(a) for mu, a in zip(mean, actions)]
        old_logp = np.array(logp) - np.log(ratios)
        # one-step episodes: the advantage is reward - value, the return the reward
        rewards, values = rng.normal(size=n), rng.normal(size=n)
        buf = RolloutBuffer(obs=obs, raw_obs=obs, actions=actions, log_probs=old_logp,
                            rewards=rewards, values=values, dones=np.ones(n, dtype=bool),
                            bootstrap_value=0.0)
        cfg = PPOConfig(clip=self.CLIP, epochs=1, minibatches=1, value_coef=self.VALUE_COEF)
        policy_opt, value_opt = SpyOptimizer(), SpyOptimizer()
        ppo_update(policy, value_fn, buf, cfg, policy_opt, value_opt, np.random.default_rng(42))
        (grad,), (v_grad,) = policy_opt.grads, value_opt.grads

        adv = rewards - values
        returns = adv + values
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        # both branches of the min are taken, the clipped one by rows of both signs
        clipped = ratios * adv > np.clip(ratios, 1.0 - self.CLIP, 1.0 + self.CLIP) * adv
        assert clipped.any() and (~clipped).any()
        assert (clipped & (adv > 0)).any() and (clipped & (adv < 0)).any()

        def policy_loss(flat):
            return oracles.ppo_policy_loss(policy.with_params(flat), obs, actions, adv,
                                           old_logp, self.CLIP)

        def value_loss(flat):
            return oracles.ppo_value_loss(value_fn.with_params(flat), obs, returns,
                                          self.VALUE_COEF)

        want = oracles.central_diff_grad(policy_loss, policy.params)
        assert oracles.grad_close(grad, want)
        # the log-std entries alone, so a fault there is not lost in the scale
        assert oracles.grad_close(grad[-act_dim:], want[-act_dim:])
        assert oracles.grad_close(v_grad, oracles.central_diff_grad(value_loss, value_fn.params))


class TestEvaluate:
    def test_quiet_policy_matches_closed_form(self):
        env = SparseLog(ToyEnv(ToyConfig(spawn_jitter=0.0, horizon=40)))
        policy = linear_gaussian_policy(np.zeros((2, 2)), np.zeros(2), log_std=0.0)
        view = NormalizedPolicy(policy, np.zeros(2), np.ones(2))
        res, = evaluate([view], [env], [np.random.default_rng(20)], episodes=3)
        # deterministic mean action is 0 from the origin: parked at spawn
        assert res.fitness == pytest.approx(40 * oracles.toy_reward(np.zeros(2), env.env.config),
                                            rel=1e-12)
        assert len(env.episode_returns) == 3
        assert res.bd == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_normalizer_applied_but_not_updated(self):
        policy, value_fn = make_learner(np.random.default_rng(21))
        learner = learner_of(policy, value_fn, ToyEnv(), None)
        stat = learner.obs_stat
        add_rows(stat, np.random.default_rng(22).normal(loc=3.0, scale=0.1, size=(50, 2)))
        before = stat.state_dict()

        class Normalizing:  # applies the live statistics at every step
            action_space = policy.action_space

            def gaussian_batch(self, states):
                return policy.gaussian_batch(oracles.normalize(stat, states))

        got_env, want_env = SparseLog(ToyEnv()), SparseLog(ToyEnv())
        got, = evaluate([learner.view()], [got_env], [np.random.default_rng(23)], episodes=2)
        want = oracles.evaluate(Normalizing(), want_env, np.random.default_rng(23), episodes=2)
        raw = oracles.evaluate(policy, ToyEnv(), np.random.default_rng(23), episodes=2)
        assert got.fitness == want.fitness
        assert np.array_equal(got_env.episode_returns, want_env.episode_returns)
        assert np.array_equal(got.bd, want.bd)
        assert not np.array_equal(got.bd, raw.bd)
        after = stat.state_dict()
        assert after["count"] == before["count"]
        assert np.array_equal(after["mean"], before["mean"])
        assert np.array_equal(after["m2"], before["m2"])


class TestContinuousOnly:
    """The reward phase serves continuous actions: a discrete policy is refused
    with a ValueError."""

    @staticmethod
    def discrete_policy():
        return random_discrete_policy(np.random.default_rng(30), obs_dim=2, n_actions=3)

    def test_collect_rollout_rejects_discrete(self):
        value_fn = ValueFunction.init(2, np.random.default_rng(31), hidden=(4,))
        with pytest.raises(ValueError, match="discrete"):
            rollout(learner_of(self.discrete_policy(), value_fn, ToyEnv(),
                               np.random.default_rng(32)), 8)

    def test_ppo_update_rejects_discrete(self):
        rng = np.random.default_rng(33)
        policy = self.discrete_policy()
        value_fn = ValueFunction.init(2, rng, hidden=(4,))
        n = 8
        buf = RolloutBuffer(
            obs=rng.normal(size=(n, 2)), raw_obs=np.zeros((n, 2)),
            actions=rng.integers(0, 3, n), log_probs=np.full(n, -np.log(3.0)),
            rewards=np.ones(n), values=np.zeros(n),
            dones=np.zeros(n, dtype=bool), bootstrap_value=0.0)
        with pytest.raises(ValueError, match="discrete"):
            ppo_update(policy, value_fn, buf, PPOConfig(), Adam(policy.n_params),
                       Adam(value_fn.params.size), rng)

    def test_evaluate_rejects_discrete(self):
        policy = self.discrete_policy()
        for candidate in (policy, NormalizedPolicy(policy, np.zeros(2), np.ones(2))):
            with pytest.raises(ValueError, match="discrete"):
                evaluate([candidate], [ToyEnv()], [np.random.default_rng(34)], episodes=1)


def _true_log_probs(policy, obs, actions):
    mu, ls = policy.gaussian_batch(obs)
    std = np.exp(ls)
    z = (actions - mu) / std
    return np.sum(-0.5 * z * z - ls - 0.5 * np.log(2 * np.pi), axis=1)
