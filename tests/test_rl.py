"""Reward-phase machinery: running stats, rollouts, GAE oracles, PPO updates."""

import numpy as np
import pytest

from phasic.dogfight import DogfightConfig, DogfightEnv
from phasic.nets import ActionSpace, NormalizedPolicy, Policy, ValueFunction, whiten
from phasic.optim import Adam
from phasic.rl import (Normalizer, PPOConfig, RewardScaler, RolloutBuffer,
                       RunningStat, StackedStats, collect_rollout, evaluate, gae,
                       ppo_update)
from phasic.toy import ToyConfig, ToyEnv

import oracles
from factories import linear_gaussian_policy, random_discrete_policy
from oracles import ArrayRewardScaler, BatchMoments


def make_learner(rng, obs_dim=2, act_dim=2, hidden=(8,)):
    policy = Policy.init(obs_dim, ActionSpace("continuous", act_dim), rng, hidden=hidden)
    value_fn = ValueFunction.init(obs_dim, rng, hidden=hidden)
    return policy, value_fn


def rollout(policy, value_fn, env, steps, rng, normalizer=None, reward_scaler=None, **kw):
    """A population-of-one rollout; fresh statistics unless given."""
    normalizer = normalizer or Normalizer(env.obs_dim)
    reward_scaler = reward_scaler or RewardScaler()
    buf, = collect_rollout([policy], [value_fn], [env], steps, [rng], [normalizer],
                           [reward_scaler], **kw)
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
        return np.zeros(1), self.rewards[t], self.dones[t], {}


def scaled_rewards(scaler, rewards, dones=None):
    """The learning rewards a rollout hands PPO for a reward script."""
    policy = linear_gaussian_policy([[0.0]], [0.0], 0.0)
    value_fn = ValueFunction.init(1, np.random.default_rng(0), hidden=())
    return rollout(policy, value_fn, ScriptedEnv(rewards, dones), len(rewards),
                   np.random.default_rng(0), reward_scaler=scaler).rewards


class TestRunningStat:
    def test_single_batch_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        stat = RunningStat((3,))
        add_rows(stat, x)
        assert stat.mean == pytest.approx(x.mean(axis=0), abs=1e-12)
        assert stat.var == pytest.approx(x.var(axis=0), abs=1e-12)

    def test_incremental_matches_offline(self):
        rng = np.random.default_rng(1)
        x = rng.normal(loc=3.0, scale=2.0, size=(300, 4))
        stat = RunningStat((4,))
        for lo in range(0, 300, 17):
            add_rows(stat, x[lo:lo + 17])
        assert stat.count == 300
        assert stat.mean == pytest.approx(x.mean(axis=0), abs=1e-10)
        assert stat.var == pytest.approx(x.var(axis=0), rel=1e-10)

    def test_few_samples_report_unit_variance(self):
        stat = RunningStat(())
        assert stat.var == pytest.approx(1.0)
        add_rows(stat, [4.2])
        assert stat.var == pytest.approx(1.0)
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
        scaler, ref = RewardScaler(gamma), ArrayRewardScaler(gamma)
        rewards = list(rng.normal(scale=5.0, size=300))
        rewards[7] = 0.0
        rewards[100] = -1000.0
        if poison is not None:
            rewards[poison[0]] = poison[1]
        dones = rng.random(300) < 0.05
        with np.errstate(invalid="ignore"):
            got = scaled_rewards(scaler, rewards, dones)
            want = [ref.scale(float(r), bool(d)) for r, d in zip(rewards, dones)]
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(scaler.ret, ref.ret, equal_nan=True)
        assert scaler.stat.count == ref.stat.count
        assert np.array_equal(scaler.stat.mean, ref.stat.mean, equal_nan=True)
        assert np.array_equal(scaler.stat.m2, ref.stat.m2, equal_nan=True)

    def test_reward_scaler_state_round_trips(self):
        scaler = RewardScaler(0.9)
        scaled_rewards(scaler, [1.0, -2.0, 0.5])
        clone = RewardScaler()
        clone.load_state(scaler.state_dict())
        assert clone.gamma == 0.9
        assert np.array_equal(scaled_rewards(clone, [3.0], [True]),
                              scaled_rewards(scaler, [3.0], [True]))
        assert clone.state_dict()["stat"]["count"] == scaler.stat.count == 4


class TestNormalizer:
    def test_whitens_and_clips(self):
        rng = np.random.default_rng(3)
        data = rng.normal(loc=10.0, scale=0.5, size=(200, 2))
        norm = Normalizer(2)
        add_rows(norm.stat, data)
        std = np.maximum(norm.stat.std, 1e-8)
        out = whiten(data, norm.stat.mean, std, norm.clip)
        assert out.mean(axis=0) == pytest.approx(np.zeros(2), abs=1e-10)
        assert out.std(axis=0) == pytest.approx(np.ones(2), rel=1e-10)
        assert np.all(np.abs(whiten(np.array([1e9, -1e9]), norm.stat.mean, std,
                                    norm.clip)) <= 10.0)
        # the clamp gives np.clip's bits, non-finite inputs included
        x = rng.normal(loc=10.0, scale=20.0, size=(300, 2))
        x[::7, 0], x[3::11, 1], x[5::13] = np.inf, -np.inf, np.nan
        z = (x - norm.stat.mean) / std
        assert np.array_equal(whiten(x, norm.stat.mean, std, norm.clip),
                              np.clip(z, -10.0, 10.0), equal_nan=True)

    def test_copy_is_independent(self):
        # the snapshot path: a loaded state shares no arrays with its source
        norm = Normalizer(2, clip=5.0)
        add_rows(norm.stat, np.ones((5, 2)))
        clone = Normalizer(2)
        clone.load_state(norm.state_dict())
        add_rows(norm.stat, np.full((50, 2), 100.0))
        assert clone.stat.count == 5
        assert clone.clip == 5.0
        assert np.array_equal(clone.stat.mean, np.ones(2))

    def test_frozen_view_transforms_like_normalize(self):
        rng = np.random.default_rng(4)
        norm = Normalizer(3)
        data = rng.normal(loc=2.0, scale=3.0, size=(40, 3))
        data[:, 2] = 7.0  # a zero-variance column: std floors at 1e-8
        add_rows(norm.stat, data)
        x = rng.normal(loc=2.0, scale=40.0, size=(300, 3))
        x[::7, 0], x[3::11, 1], x[5::13] = np.inf, -np.inf, np.nan
        x[1::4, 2] = 7.0 + rng.normal(scale=1e-9, size=x[1::4, 2].shape)
        seen = []

        class Recorder:
            action_space = ActionSpace("continuous", 1)

            def gaussian_batch(self, states):
                seen.append(states)
                return states[:, :1], np.zeros(1)

        view = NormalizedPolicy(Recorder(), norm.stat.mean, norm.stat.std)
        view.gaussian_batch(x)
        assert np.array_equal(seen[0], oracles.normalize(norm, x), equal_nan=True)


class TestRewardScaler:
    def test_first_reward_passes_through(self):
        scaler = RewardScaler(gamma=0.99)
        assert scaled_rewards(scaler, [1.0])[0] == pytest.approx(1.0)

    def test_scales_by_return_std(self):
        rng = np.random.default_rng(4)
        scaler = RewardScaler(gamma=0.9)
        rewards = rng.normal(size=100)
        rets = []
        ret = 0.0
        for r in rewards:
            ret = 0.9 * ret + r
            rets.append(ret)
        out = scaled_rewards(scaler, rewards)[-1]
        assert out == pytest.approx(rewards[-1] / np.std(rets), rel=1e-9)

    def test_done_resets_the_return_accumulator(self):
        scaler = RewardScaler(gamma=0.5)
        scaled_rewards(scaler, [8.0], [True])
        assert scaler.ret == 0.0


class TestGae:
    def test_unit_discount_constant_rewards(self):
        buf = RolloutBuffer(
            learner_id=0, obs=np.zeros((3, 1)), raw_obs=np.zeros((3, 1)),
            actions=np.zeros((3, 1)), log_probs=np.zeros(3),
            rewards=np.ones(3), values=np.zeros(3),
            dones=np.array([False, False, True]), bootstrap_value=0.0)
        adv, returns = gae(buf, gamma=1.0, lam=1.0)
        assert adv == pytest.approx([3.0, 2.0, 1.0], abs=1e-12)
        assert returns == pytest.approx([3.0, 2.0, 1.0], abs=1e-12)

    def test_single_transition(self):
        buf = RolloutBuffer(
            learner_id=0, obs=np.zeros((1, 1)), raw_obs=np.zeros((1, 1)),
            actions=np.zeros((1, 1)), log_probs=np.zeros(1),
            rewards=np.array([1.0]), values=np.array([0.0]),
            dones=np.array([True]), bootstrap_value=0.0)
        adv, returns = gae(buf, gamma=0.99, lam=0.95)
        assert adv == pytest.approx([1.0], abs=1e-12)
        assert returns == pytest.approx([1.0], abs=1e-12)

    def test_done_blocks_credit_flow(self):
        buf = RolloutBuffer(
            learner_id=0, obs=np.zeros((2, 1)), raw_obs=np.zeros((2, 1)),
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
            learner_id=0, obs=np.zeros((12, 1)), raw_obs=np.zeros((12, 1)),
            actions=np.zeros((12, 1)), log_probs=np.zeros(12),
            rewards=rewards, values=np.zeros(12),
            dones=np.zeros(12, dtype=bool), bootstrap_value=0.0)
        gamma = 0.9
        adv, _ = gae(buf, gamma=gamma, lam=1.0)
        expected = np.array([
            sum(gamma ** (k - t) * rewards[k] for k in range(t, 12))
            for t in range(12)])
        assert adv == pytest.approx(expected, abs=1e-10)

    def test_normalize_flag(self):
        rng = np.random.default_rng(6)
        buf = RolloutBuffer(
            learner_id=0, obs=np.zeros((30, 1)), raw_obs=np.zeros((30, 1)),
            actions=np.zeros((30, 1)), log_probs=np.zeros(30),
            rewards=rng.normal(size=30), values=rng.normal(size=30),
            dones=np.zeros(30, dtype=bool), bootstrap_value=0.0)
        adv, _ = gae(buf, 0.99, 0.95, normalize=True)
        assert adv.mean() == pytest.approx(0.0, abs=1e-9)
        assert adv.std() == pytest.approx(1.0, rel=1e-6)


class TestCollectRollout:
    def test_exact_step_count_and_shapes(self):
        rng = np.random.default_rng(7)
        env = ToyEnv()
        policy, value_fn = make_learner(rng)
        buf = rollout(policy, value_fn, env, 37, rng)
        assert len(buf) == 37
        assert buf.obs.shape == (37, 2)
        assert buf.raw_obs.shape == (37, 2)
        assert buf.actions.shape == (37, 2)
        assert buf.log_probs.shape == (37,)
        assert buf.dones.dtype == bool

    def test_seeded_determinism(self):
        env_a, env_b = ToyEnv(), ToyEnv()
        policy, value_fn = make_learner(np.random.default_rng(9))
        buf_a = rollout(policy, value_fn, env_a, 50, np.random.default_rng(42))
        buf_b = rollout(policy, value_fn, env_b, 50, np.random.default_rng(42))
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
        norm = Normalizer(2)
        buf = rollout(policy, value_fn, env, 125, np.random.default_rng(10), normalizer=norm)
        assert int(buf.dones.sum()) == 2
        assert len(buf.episode_returns) == 2
        starts = [buf.raw_obs[0], buf.raw_obs[50]]
        for got, start in zip(buf.episode_returns, starts):
            assert got == pytest.approx(50 * env.reward_at(start), rel=1e-5)
        # mid-episode cut: bootstrap from the live state, continuation obs kept
        assert buf.final_obs is not None
        assert buf.bootstrap_value == pytest.approx(
            value_fn.value(oracles.normalize(norm, buf.final_obs)))

    def test_rollout_ending_on_done_has_no_continuation(self):
        env = ToyEnv(ToyConfig(horizon=25))
        policy, value_fn = make_learner(np.random.default_rng(11))
        buf = rollout(policy, value_fn, env, 50, np.random.default_rng(11))
        assert buf.dones[-1]
        assert buf.final_obs is None
        assert buf.bootstrap_value == 0.0

    def test_continuation_resumes_episode(self):
        env = SparseLog(ToyEnv(ToyConfig(horizon=60)))
        policy, value_fn = make_learner(np.random.default_rng(12))
        rng = np.random.default_rng(13)
        norm, scaler = Normalizer(2), RewardScaler()
        buf1 = rollout(policy, value_fn, env, 30, rng, norm, scaler)
        buf2 = rollout(policy, value_fn, env, 30, rng, norm, scaler,
                       initial_obs=[buf1.final_obs], carry_returns=[buf1.pending_return])
        assert not buf1.dones.any()
        assert buf2.dones[-1]
        assert len(buf2.episode_returns) == 1
        # the stitched episode spans both rollouts
        total = buf2.episode_returns[0]
        assert total == pytest.approx(sum(env.sparse), rel=1e-12)
        assert len(env.sparse) == 60


class SparseLog:
    """Env wrapper that logs each step's sparse reward."""

    def __init__(self, env):
        self.env = env
        self.obs_dim, self.action_space = env.obs_dim, env.action_space
        self.sparse = []

    def reset(self, rng):
        return self.env.reset(rng)

    def step(self, action):
        out = self.env.step(action)
        self.sparse.append(out[3]["sparse_reward"])
        return out


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


def _stats_equal(a, b):
    return (a.count == b.count and np.array_equal(a.mean, b.mean, equal_nan=True)
            and np.array_equal(a.m2, b.m2, equal_nan=True))


def _buffers_equal(got, want):
    for name in ("obs", "raw_obs", "actions", "log_probs", "rewards", "values"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
    assert np.array_equal(got.dones, want.dones)
    assert np.array_equal(got.bootstrap_value, want.bootstrap_value, equal_nan=True)
    assert (got.final_obs is None) == (want.final_obs is None)
    if got.final_obs is not None:
        assert np.array_equal(got.final_obs, want.final_obs, equal_nan=True)
    assert np.array_equal(got.episode_returns, want.episode_returns, equal_nan=True)
    assert np.array_equal(got.pending_return, want.pending_return, equal_nan=True)
    assert got.learner_id == want.learner_id


class TestLockstepMatchesPerLearner:
    """The population rollout and evaluation equal M per-learner reference loops
    (tests/oracles.py) bit for bit: every buffer field, the statistics and
    generators afterwards."""

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
    def statistics(m, obs_dim, seed):
        """Normalizers and scalers; learner i has already seen 3*i rows (none for i=0)."""
        rng = np.random.default_rng(seed)
        norms, scalers = [], []
        for i in range(m):
            norm, scaler = Normalizer(obs_dim), RewardScaler()
            if i:
                oracles.update_stat(norm.stat, rng.normal(size=(3 * i, obs_dim)))
                for r in rng.normal(size=3 * i):
                    oracles.scale_reward(scaler, float(r), False)
            norms.append(norm)
            scalers.append(scaler)
        return norms, scalers

    def check(self, make_env, m, steps, windows=2, obs_dim=2, act_dim=2, seed=0):
        pols, vfs = self.population(m, obs_dim, act_dim, seed)
        got_norms, got_scalers = self.statistics(m, obs_dim, seed)
        ref_norms, ref_scalers = self.statistics(m, obs_dim, seed)
        got_envs, ref_envs = [make_env(i) for i in range(m)], [make_env(i) for i in range(m)]
        got_rngs = [np.random.default_rng(100 + i) for i in range(m)]
        ref_rngs = [np.random.default_rng(100 + i) for i in range(m)]
        carry = [(None, 0.0)] * m
        out = []
        for _ in range(windows):
            got = collect_rollout(pols, vfs, got_envs, steps, got_rngs, got_norms, got_scalers,
                                  initial_obs=[c[0] for c in carry],
                                  carry_returns=[c[1] for c in carry])
            refs = []
            for i in range(m):
                obs, ret = carry[i]
                refs.append(oracles.collect_rollout(
                    pols[i], vfs[i], ref_envs[i], steps, ref_rngs[i], ref_norms[i],
                    ref_scalers[i], learner_id=i, initial_obs=obs, carry_return=ret))
            assert len(got) == m
            for g, r in zip(got, refs):
                _buffers_equal(g, r)
            carry = [(b.final_obs, b.pending_return) for b in got]
            out.append(got)
            for i in range(m):
                assert _stats_equal(got_norms[i].stat, ref_norms[i].stat)
                assert got_norms[i].clip == ref_norms[i].clip
                assert _stats_equal(got_scalers[i].stat, ref_scalers[i].stat)
                assert np.array_equal(got_scalers[i].ret, ref_scalers[i].ret, equal_nan=True)
                assert got_rngs[i].bit_generator.state == ref_rngs[i].bit_generator.state
        return out

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_toy_rollout(self, m):
        # horizons differ, so learners finish episodes on different ticks, and
        # the second window starts learner 0 afresh and continues the others
        first, _ = self.check(lambda i: ToyEnv(ToyConfig(horizon=35 + 7 * i)), m, steps=70)
        assert [b.final_obs is None for b in first] == [True] + [False] * (m - 1)
        assert [b.pending_return != 0.0 for b in first] == [False] + [True] * (m - 1)

    def test_dogfight_rollout_with_staggered_episode_ends(self):
        _, got = self.check(lambda i: DogfightEnv(DogfightConfig(max_steps=25 + 10 * i)), 3,
                            steps=60, obs_dim=22, act_dim=4)
        assert [len(b.episode_returns) for b in got] == [2, 2, 1]

    def test_non_finite_observation_row(self):
        poison = {0: [(5, np.inf)], 1: [], 2: [(9, np.nan), (12, -np.inf)]}
        with np.errstate(invalid="ignore", over="ignore"):
            got, = self.check(lambda i: Poisoned(ToyEnv(), poison[i]), 3, steps=20, windows=1)
        assert not np.all(np.isfinite(got[0].obs)) and not np.all(np.isfinite(got[2].obs))
        assert np.all(np.isfinite(got[1].obs))

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
        got = evaluate(views, [make_env(i) for i in range(m)], got_rngs, episodes=episodes)
        assert len(got) == m
        for i, (view, res) in enumerate(zip(views, got)):
            ref = oracles.evaluate(view, make_env(i), ref_rngs[i], episodes=episodes)
            assert res.fitness == ref.fitness
            assert np.array_equal(res.bd, ref.bd)
            assert np.array_equal(res.episode_returns, ref.episode_returns)
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
        return rollout(policy, value_fn, env, steps, rng)

    def test_zero_advantage_leaves_policy_unchanged(self):
        rng = np.random.default_rng(14)
        policy, value_fn = make_learner(rng)
        n = 32
        buf = RolloutBuffer(
            learner_id=0, obs=rng.normal(size=(n, 2)), raw_obs=np.zeros((n, 2)),
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
        # one state, one rewarded continuous action; a PPO step must pull the
        # mean toward that action
        policy = linear_gaussian_policy(np.zeros((1, 1)), np.zeros(1), log_std=0.0)
        value_fn = ValueFunction.init(1, np.random.default_rng(16), hidden=())
        obs = np.zeros((8, 1))
        actions = np.full((8, 1), 0.5)
        logp = _true_log_probs(policy, obs, actions)
        buf = RolloutBuffer(
            learner_id=0, obs=obs, raw_obs=obs, actions=actions, log_probs=logp,
            rewards=np.ones(8), values=np.zeros(8),
            dones=np.zeros(8, dtype=bool), bootstrap_value=0.0)
        cfg = PPOConfig(epochs=1, minibatches=1, norm_adv=False)
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


class TestEvaluate:
    def test_quiet_policy_matches_closed_form(self):
        env = ToyEnv(ToyConfig(spawn_jitter=0.0, horizon=40))
        policy = linear_gaussian_policy(np.zeros((2, 2)), np.zeros(2), log_std=0.0)
        view = NormalizedPolicy(policy, np.zeros(2), np.ones(2))
        res, = evaluate([view], [env], [np.random.default_rng(20)], episodes=3)
        # deterministic mean action is 0 from the origin: parked at spawn
        assert res.fitness == pytest.approx(40 * env.reward_at(np.zeros(2)), rel=1e-12)
        assert res.episode_returns.shape == (3,)
        assert res.bd == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_normalizer_applied_but_not_updated(self):
        policy, _ = make_learner(np.random.default_rng(21))
        norm = Normalizer(2)
        add_rows(norm.stat, np.random.default_rng(22).normal(loc=3.0, scale=0.1, size=(50, 2)))
        before = norm.state_dict()

        class Normalizing:  # applies the live normalizer at every step
            action_space = policy.action_space

            def gaussian_batch(self, states):
                return policy.gaussian_batch(oracles.normalize(norm, states))

        view = NormalizedPolicy(policy, norm.stat.mean, norm.stat.std)
        got, = evaluate([view], [ToyEnv()], [np.random.default_rng(23)], episodes=2)
        want = oracles.evaluate(Normalizing(), ToyEnv(), np.random.default_rng(23), episodes=2)
        raw = oracles.evaluate(policy, ToyEnv(), np.random.default_rng(23), episodes=2)
        assert np.array_equal(got.episode_returns, want.episode_returns)
        assert np.array_equal(got.bd, want.bd)
        assert not np.array_equal(got.bd, raw.bd)
        after = norm.state_dict()["stat"]
        assert after["count"] == before["stat"]["count"]
        assert np.array_equal(after["mean"], before["stat"]["mean"])
        assert np.array_equal(after["m2"], before["stat"]["m2"])


class TestContinuousOnly:
    """The reward phase serves continuous actions: a discrete policy is refused
    with a ValueError."""

    @staticmethod
    def discrete_policy():
        return random_discrete_policy(np.random.default_rng(30), obs_dim=2, n_actions=3)

    def test_collect_rollout_rejects_discrete(self):
        value_fn = ValueFunction.init(2, np.random.default_rng(31), hidden=(4,))
        with pytest.raises(ValueError, match="discrete"):
            rollout(self.discrete_policy(), value_fn, ToyEnv(), 8, np.random.default_rng(32))

    def test_ppo_update_rejects_discrete(self):
        rng = np.random.default_rng(33)
        policy = self.discrete_policy()
        value_fn = ValueFunction.init(2, rng, hidden=(4,))
        n = 8
        buf = RolloutBuffer(
            learner_id=0, obs=rng.normal(size=(n, 2)), raw_obs=np.zeros((n, 2)),
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
