"""Closed-form checks for the two-goal navigation environment."""

import dataclasses

import numpy as np
import pytest

from phasic.toy import ToyConfig, ToyEnv

import oracles


def step_to(point, config=ToyConfig()):
    """The observation and reward of one step from the origin by ``point``: with
    a unit step the env lands on ``point`` itself when it lies in the arena."""
    env = ToyEnv(dataclasses.replace(config, spawn_jitter=0.0, step_size=1.0))
    env.reset(np.random.default_rng(0))
    obs, reward, _, _ = env.step(np.asarray(point, dtype=np.float64))
    return obs, reward


def test_reward_peaks_at_goals():
    goals = ToyConfig().goals
    assert step_to(goals[0])[1] == pytest.approx(1.0, abs=1e-12)
    assert step_to(goals[1])[1] == pytest.approx(0.7, abs=1e-12)


def test_reward_hand_value_off_goal():
    # 0.1 right of the main goal: d^2 = 0.01, bump scale 0.02 -> e^{-0.5}
    expected = 1.0 * np.exp(-0.01 / 0.02)
    assert step_to([0.7, 0.6])[1] == pytest.approx(expected, rel=1e-12)


def test_reward_is_max_over_goals():
    # midpoint between the goals is equidistant; the taller bump wins
    d2 = 2 * 0.6 ** 2
    expected = 1.0 * np.exp(-d2 / 0.02)
    assert step_to(np.zeros(2))[1] == pytest.approx(expected, rel=1e-12)


def test_step_moves_by_clipped_action():
    env = ToyEnv()
    start = env.reset(np.random.default_rng(0))
    _, _, _, info = env.step(np.array([5.0, -0.5]))
    moved = info["position"] - start
    assert moved == pytest.approx([0.05, -0.025], abs=1e-12)
    # both clamps give np.clip's bits, at the walls and for non-finite actions
    rng = np.random.default_rng(5)
    pos, done, walls = info["position"], False, 0
    for action in wall_and_nonfinite_actions(rng):
        if done or not np.all(np.isfinite(pos)):
            pos = env.reset(rng)
        expected = np.clip(pos + env.config.step_size * np.clip(action, -1.0, 1.0), -1.0, 1.0)
        pos, _, done, info = env.step(action)
        assert np.array_equal(pos, expected, equal_nan=True)
        walls += int(np.any(np.abs(expected) == 1.0))
    assert walls > 50


def wall_and_nonfinite_actions(rng):
    """600 actions drifting into both walls, with +inf, -inf and NaN entries."""
    drift = np.repeat([1.5, -1.5], 300)[:, None]
    actions = rng.normal(0.0, 3.0, (600, 2)) + drift
    actions[::17, 0], actions[3::23, 1], actions[5::97] = np.inf, -np.inf, np.nan
    return actions


def test_step_matches_the_reference_step():
    """The float step against the array step it replaced, bit for bit.  A NaN
    action makes the position and the reward NaN; where the reward is NaN
    only its NaN-ness is compared, since the bits a NaN carries beyond that
    (sign and payload) are left to the platform's arithmetic."""
    env = ToyEnv()
    rng = np.random.default_rng(6)
    pos = env.reset(rng)
    done, nans = False, 0
    for action in wall_and_nonfinite_actions(rng):
        if done or not np.all(np.isfinite(pos)):
            pos = env.reset(rng)
        want_pos, want_reward = oracles.toy_step(pos, action, env.config)
        pos, reward, done, info = env.step(action)
        assert np.array_equal(pos, want_pos, equal_nan=True)
        assert reward == want_reward or (np.isnan(reward) and np.isnan(want_reward))
        assert info["sparse_reward"] is reward and info["position"] is pos
        nans += int(np.isnan(reward))
    assert nans > 0


def test_reward_max_matches_the_numpy_formula():
    """The env's float max over the goal products against numpy's array max,
    bit for bit: a NaN product anywhere gives NaN (whose sign and payload are
    not compared), and 0.0 and -0.0 are told apart.  Negative, signed-zero and
    infinite goal rewards, a goal beyond the bump's reach (its product is 0,
    or NaN for an infinite reward), walls and NaN points make every case
    occur."""
    def same(a, b):
        return (np.isnan(a) and np.isnan(b)) or (a == b and np.signbit(a) == np.signbit(b))

    # exp(-d^2 / 0.02) underflows to 0 beyond d = 3.86: at (0, 5), for every arena point
    goals = ((0.6, 0.6), (-0.6, -0.6), (0.0, 5.0))
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5.0, -0.6]
    rng = np.random.default_rng(7)
    points = np.concatenate([rng.uniform(-1.5, 1.5, (300, 2)), np.array(goals),
                             [(x, y) for x in special for y in special]])
    seen = set()
    for goal_rewards in [(1.0, 0.7), (0.7, 1.0, 0.7), (-1.0, -0.5), (0.0, -0.0), (-0.0, 0.0),
                         (-0.5, 0.0, -0.0), (0.5, np.inf, -2.0), (-np.inf, -0.0, 0.0),
                         (1.0, 0.7, np.inf)]:
        config = ToyConfig(goals=goals[:len(goal_rewards)], goal_rewards=goal_rewards)
        with np.errstate(invalid="ignore"):
            for point in points:
                pos, got = step_to(point, config)
                want = oracles.toy_reward(pos, config)
                assert same(got, want), (goal_rewards, pos, got, want)
                seen.add("nan" if np.isnan(got) else "inf" if np.isinf(got)
                         else "-0" if got == 0.0 and np.signbit(got)
                         else "+0" if got == 0.0 else "-" if got < 0.0 else "+")
    assert seen == {"nan", "inf", "-0", "+0", "-", "+"}


def test_position_clamped_to_unit_box():
    env = ToyEnv(ToyConfig(spawn_jitter=0.0))
    env.reset(np.random.default_rng(0))
    for _ in range(env.config.horizon // 2):
        _, _, done, info = env.step(np.array([1.0, 1.0]))
        if done:
            break
    assert np.all(info["position"] <= 1.0 + 1e-12)
    # 50 steps of +0.05 from the origin pin both coordinates at the box edge? no:
    # 50 * 0.05 = 2.5 >> 1, so the clamp must have engaged exactly at 1.0
    assert info["position"] == pytest.approx([1.0, 1.0], abs=1e-12)


def test_episode_length_and_done():
    env = ToyEnv()
    env.reset(np.random.default_rng(3))
    steps = 0
    done = False
    while not done:
        _, _, done, _ = env.step(np.zeros(2))
        steps += 1
    assert steps == env.config.horizon
    with pytest.raises(RuntimeError):
        env.step(np.zeros(2))


def test_zero_actions_give_constant_reward_stream():
    env = ToyEnv()
    r0 = oracles.toy_reward(env.reset(np.random.default_rng(7)), env.config)
    total = 0.0
    done = False
    while not done:
        _, reward, done, info = env.step(np.zeros(2))
        assert info["sparse_reward"] == reward  # toy reward is unshaped
        total += reward
    assert total == pytest.approx(env.config.horizon * r0, rel=1e-12)


def test_spawn_jitter_bounded_and_seeded():
    env = ToyEnv()
    a = env.reset(np.random.default_rng(11))
    b = env.reset(np.random.default_rng(11))
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= env.config.spawn_jitter + 1e-12)


def test_behavior_descriptor_maps_final_position():
    env = ToyEnv(ToyConfig(spawn_jitter=0.0, horizon=12))
    env.reset(np.random.default_rng(0))
    done = False
    while not done:
        _, _, done, info = env.step(np.array([1.0, -1.0]))
    bd = env.episode_bd(np.zeros((12, 2)), info)
    # final position (0.6, -0.6) -> ((p+1)/2) = (0.8, 0.2)
    assert bd == pytest.approx([0.8, 0.2], abs=1e-12)
    assert np.all(bd >= 0.0) and np.all(bd <= 1.0)


def test_scripted_walk_reaches_main_goal():
    env = ToyEnv(ToyConfig(spawn_jitter=0.0))
    pos = env.reset(np.random.default_rng(0))
    done = False
    while not done:
        delta = np.array([0.6, 0.6]) - pos
        pos, reward, done, _ = env.step(np.sign(delta) * (np.abs(delta) > 1e-9))
    assert pos == pytest.approx([0.6, 0.6], abs=1e-9)
    # parked on the goal for the tail of the episode
    assert reward == pytest.approx(1.0, abs=1e-9)
