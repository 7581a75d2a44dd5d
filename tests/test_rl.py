"""Reward-phase machinery: running stats, rollouts, GAE oracles, PPO updates."""

import numpy as np
import pytest

from phasic.nets import ActionSpace, NormalizedPolicy, Policy, ValueFunction
from phasic.optim import Adam
from phasic.rl import (Normalizer, PPOConfig, RewardScaler, RolloutBuffer,
                       RunningStat, collect_rollout, evaluate, gae, ppo_update)
from phasic.toy import ToyConfig, ToyEnv

from factories import linear_gaussian_policy, random_discrete_policy
from oracles import ArrayRewardScaler, BatchMoments


def make_learner(rng, obs_dim=2, act_dim=2, hidden=(8,)):
    policy = Policy.init(obs_dim, __import__("phasic.nets", fromlist=["ActionSpace"])
                         .ActionSpace("continuous", act_dim), rng, hidden=hidden)
    value_fn = ValueFunction.init(obs_dim, rng, hidden=hidden)
    return policy, value_fn


class TestRunningStat:
    def test_single_batch_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        stat = RunningStat((3,))
        stat.update_batch(x)
        assert stat.mean == pytest.approx(x.mean(axis=0), abs=1e-12)
        assert stat.var == pytest.approx(x.var(axis=0), abs=1e-12)

    def test_incremental_matches_offline(self):
        rng = np.random.default_rng(1)
        x = rng.normal(loc=3.0, scale=2.0, size=(300, 4))
        stat = RunningStat((4,))
        for lo in range(0, 300, 17):
            stat.update_batch(x[lo:lo + 17])
        assert stat.count == 300
        assert stat.mean == pytest.approx(x.mean(axis=0), abs=1e-10)
        assert stat.var == pytest.approx(x.var(axis=0), rel=1e-10)

    def test_few_samples_report_unit_variance(self):
        stat = RunningStat(())
        assert stat.var == pytest.approx(1.0)
        stat.update_batch(np.array([4.2]))
        assert stat.var == pytest.approx(1.0)
        assert stat.mean == pytest.approx(4.2)

    def test_state_round_trip(self):
        stat = RunningStat((2,))
        stat.update_batch(np.arange(10).reshape(5, 2))
        clone = RunningStat((2,))
        clone.load_state(stat.state_dict())
        assert clone.count == stat.count
        assert np.array_equal(clone.mean, stat.mean)
        assert np.array_equal(clone.m2, stat.m2)


class TestOneRowUpdatesMatchBatchFormula:
    """One-row updates skip the reductions but must equal them bit for bit."""

    @staticmethod
    def _stream(rng, shape, poison):
        rows = list(rng.normal(loc=2.0, scale=3.0, size=(60, *shape)))
        for at, value in poison:
            rows[at] = np.full(shape, value)
        return rows

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_finite_stream(self, shape):
        rng = np.random.default_rng(16)
        stat, ref = RunningStat(shape), BatchMoments(shape)
        for row in self._stream(rng, shape, ()):
            stat.update_batch(row)
            ref.update(row)
            assert stat.count == ref.count
            assert np.array_equal(stat.mean, ref.mean)
            assert np.array_equal(stat.m2, ref.m2)

    @pytest.mark.parametrize("shape", [(), (3,)])
    @pytest.mark.parametrize("poison", [[(30, np.inf)], [(30, np.nan)],
                                        [(0, -np.inf)], [(20, np.inf), (40, np.nan)]])
    def test_non_finite_rows_propagate_alike(self, shape, poison):
        rng = np.random.default_rng(17)
        stat, ref = RunningStat(shape), BatchMoments(shape)
        with np.errstate(invalid="ignore"):
            for row in self._stream(rng, shape, poison):
                stat.update_batch(row)
                ref.update(row)
                assert stat.count == ref.count
                assert np.array_equal(stat.mean, ref.mean, equal_nan=True)
                assert np.array_equal(stat.m2, ref.m2, equal_nan=True)
        assert not np.all(np.isfinite(stat.m2))

    def test_one_row_batches_and_bare_rows_agree(self):
        rng = np.random.default_rng(18)
        bare, wrapped = RunningStat((2,)), RunningStat((2,))
        for row in rng.standard_normal((25, 2)):
            bare.update_batch(row)
            wrapped.update_batch(row[None])
        assert np.array_equal(bare.mean, wrapped.mean)
        assert np.array_equal(bare.m2, wrapped.m2)

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
            for r, d in zip(rewards, dones):
                assert np.array_equal(scaler.scale(float(r), bool(d)),
                                      ref.scale(float(r), bool(d)), equal_nan=True)
                assert np.array_equal(scaler.ret, ref.ret, equal_nan=True)
                assert scaler.stat.count == ref.stat.count
                assert np.array_equal(scaler.stat.mean, ref.stat.mean, equal_nan=True)
                assert np.array_equal(scaler.stat.m2, ref.stat.m2, equal_nan=True)

    def test_reward_scaler_state_round_trips(self):
        scaler = RewardScaler(0.9)
        for r in (1.0, -2.0, 0.5):
            scaler.scale(r, False)
        clone = RewardScaler()
        clone.load_state(scaler.state_dict())
        assert clone.gamma == 0.9
        assert clone.scale(3.0, True) == scaler.scale(3.0, True)


class TestNormalizer:
    def test_whitens_and_clips(self):
        rng = np.random.default_rng(3)
        data = rng.normal(loc=10.0, scale=0.5, size=(200, 2))
        norm = Normalizer(2)
        norm.update(data)
        out = norm.normalize(data)
        assert out.mean(axis=0) == pytest.approx(np.zeros(2), abs=1e-10)
        assert out.std(axis=0) == pytest.approx(np.ones(2), rel=1e-10)
        assert np.all(np.abs(norm.normalize(np.array([1e9, -1e9]))) <= 10.0)
        # the clamp gives np.clip's bits, non-finite inputs included
        x = rng.normal(loc=10.0, scale=20.0, size=(300, 2))
        x[::7, 0], x[3::11, 1], x[5::13] = np.inf, -np.inf, np.nan
        z = (x - norm.stat.mean) / np.maximum(norm.stat.std, 1e-8)
        assert np.array_equal(norm.normalize(x), np.clip(z, -10.0, 10.0), equal_nan=True)

    def test_copy_is_independent(self):
        # the snapshot path: a loaded state shares no arrays with its source
        norm = Normalizer(2, clip=5.0)
        norm.update(np.ones((5, 2)))
        clone = Normalizer(2)
        clone.load_state(norm.state_dict())
        norm.update(np.full((50, 2), 100.0))
        assert clone.stat.count == 5
        assert clone.clip == 5.0
        assert np.array_equal(clone.stat.mean, np.ones(2))

    def test_frozen_view_transforms_like_normalize(self):
        rng = np.random.default_rng(4)
        norm = Normalizer(3)
        data = rng.normal(loc=2.0, scale=3.0, size=(40, 3))
        data[:, 2] = 7.0  # a zero-variance column: std floors at 1e-8
        norm.update(data)
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
        assert np.array_equal(seen[0], norm.normalize(x), equal_nan=True)


class TestRewardScaler:
    def test_first_reward_passes_through(self):
        scaler = RewardScaler(gamma=0.99)
        assert scaler.scale(1.0, False) == pytest.approx(1.0)

    def test_scales_by_return_std(self):
        rng = np.random.default_rng(4)
        scaler = RewardScaler(gamma=0.9)
        ret = 0.0
        rets = []
        out = 0.0
        for i in range(100):
            r = float(rng.normal())
            ret = 0.9 * ret + r
            rets.append(ret)
            out = scaler.scale(r, False)
            r_last = r
        expected = r_last / np.std(rets)
        assert out == pytest.approx(expected, rel=1e-9)

    def test_done_resets_the_return_accumulator(self):
        scaler = RewardScaler(gamma=0.5)
        scaler.scale(8.0, True)
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
        buf = collect_rollout(policy, value_fn, env, steps=37, rng=rng)
        assert len(buf) == 37
        assert buf.obs.shape == (37, 2)
        assert buf.raw_obs.shape == (37, 2)
        assert buf.actions.shape == (37, 2)
        assert buf.log_probs.shape == (37,)
        assert buf.dones.dtype == bool

    def test_without_normalizer_obs_equals_raw(self):
        rng = np.random.default_rng(8)
        env = ToyEnv()
        policy, value_fn = make_learner(rng)
        buf = collect_rollout(policy, value_fn, env, steps=20, rng=rng)
        assert np.array_equal(buf.obs, buf.raw_obs)

    def test_seeded_determinism(self):
        env_a, env_b = ToyEnv(), ToyEnv()
        policy, value_fn = make_learner(np.random.default_rng(9))
        buf_a = collect_rollout(policy, value_fn, env_a, 50, np.random.default_rng(42),
                                normalizer=Normalizer(2), reward_scaler=RewardScaler())
        buf_b = collect_rollout(policy, value_fn, env_b, 50, np.random.default_rng(42),
                                normalizer=Normalizer(2), reward_scaler=RewardScaler())
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
        buf = collect_rollout(policy, value_fn, env, steps=125,
                              rng=np.random.default_rng(10))
        assert int(buf.dones.sum()) == 2
        assert len(buf.episode_returns) == 2
        starts = [buf.raw_obs[0], buf.raw_obs[50]]
        for got, start in zip(buf.episode_returns, starts):
            assert got == pytest.approx(50 * env.reward_at(start), rel=1e-5)
        # mid-episode cut: bootstrap from the live state, continuation obs kept
        assert buf.final_obs is not None
        assert buf.bootstrap_value == pytest.approx(value_fn.value(buf.final_obs))

    def test_rollout_ending_on_done_has_no_continuation(self):
        env = ToyEnv(ToyConfig(horizon=25))
        policy, value_fn = make_learner(np.random.default_rng(11))
        buf = collect_rollout(policy, value_fn, env, steps=50,
                              rng=np.random.default_rng(11))
        assert buf.dones[-1]
        assert buf.final_obs is None
        assert buf.bootstrap_value == 0.0

    def test_continuation_resumes_episode(self):
        env = ToyEnv(ToyConfig(horizon=60))
        policy, value_fn = make_learner(np.random.default_rng(12))
        rng = np.random.default_rng(13)
        buf1 = collect_rollout(policy, value_fn, env, 30, rng)
        buf2 = collect_rollout(policy, value_fn, env, 30, rng,
                               initial_obs=buf1.final_obs,
                               carry_return=buf1.pending_return)
        assert not buf1.dones.any()
        assert buf2.dones[-1]
        assert len(buf2.episode_returns) == 1
        # the stitched episode spans both rollouts
        total = buf2.episode_returns[0]
        assert total == pytest.approx(
            buf1.rewards.sum() + buf2.rewards.sum(), rel=1e-12)


class TestPpoUpdate:
    @staticmethod
    def random_buffer(rng, policy, value_fn, env, steps=64):
        return collect_rollout(policy, value_fn, env, steps, rng)

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
        res = evaluate(policy, env, np.random.default_rng(20), episodes=3)
        # deterministic mean action is 0 from the origin: parked at spawn
        assert res.fitness == pytest.approx(40 * env.reward_at(np.zeros(2)), rel=1e-12)
        assert res.episode_returns.shape == (3,)
        assert res.bd == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_normalizer_applied_but_not_updated(self):
        policy, _ = make_learner(np.random.default_rng(21))
        norm = Normalizer(2)
        norm.update(np.random.default_rng(22).normal(loc=3.0, scale=0.1, size=(50, 2)))
        before = norm.state_dict()

        class Normalizing:  # applies the live normalizer at every step
            action_space = policy.action_space

            def gaussian_batch(self, states):
                return policy.gaussian_batch(norm.normalize(states))

        view = NormalizedPolicy(policy, norm.stat.mean, norm.stat.std)
        got = evaluate(view, ToyEnv(), np.random.default_rng(23), episodes=2)
        want = evaluate(Normalizing(), ToyEnv(), np.random.default_rng(23), episodes=2)
        raw = evaluate(policy, ToyEnv(), np.random.default_rng(23), episodes=2)
        assert np.array_equal(got.episode_returns, want.episode_returns)
        assert np.array_equal(got.bd, want.bd)
        assert not np.array_equal(got.bd, raw.bd)
        after = norm.state_dict()["stat"]
        assert after["count"] == before["stat"]["count"]
        assert np.array_equal(after["mean"], before["stat"]["mean"])
        assert np.array_equal(after["m2"], before["stat"]["m2"])


class TestContinuousOnly:
    """The reward phase serves continuous actions: a discrete policy is refused
    by the ValueError of ``gaussian_batch``."""

    @staticmethod
    def discrete_policy():
        return random_discrete_policy(np.random.default_rng(30), obs_dim=2, n_actions=3)

    def test_collect_rollout_rejects_discrete(self):
        value_fn = ValueFunction.init(2, np.random.default_rng(31), hidden=(4,))
        with pytest.raises(ValueError, match="discrete"):
            collect_rollout(self.discrete_policy(), value_fn, ToyEnv(), 8,
                            np.random.default_rng(32), normalizer=Normalizer(2))

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
                evaluate(candidate, ToyEnv(), np.random.default_rng(34), episodes=1)


def _true_log_probs(policy, obs, actions):
    mu, ls = policy.gaussian_batch(obs)
    std = np.exp(ls)
    z = (actions - mu) / std
    return np.sum(-0.5 * z * z - ls - 0.5 * np.log(2 * np.pi), axis=1)
