"""Dogfight kinematics, lock geometry, expert rules, termination, replays."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from phasic.dogfight import (AircraftState, DogfightConfig, DogfightEnv,
                             DogfightState, EpisodeStatus, Geometry,
                             behavior_descriptor, dense_reward, expert_policy,
                             integrate, lock_check, observe, out_of_bounds,
                             pair_geometry, relative_geometry, step, wrap_angle)

import oracles

CFG = DogfightConfig()


def craft(pos, speed=150.0, heading=0.0, pitch=0.0, roll=0.0):
    return AircraftState(pos=np.asarray(pos, dtype=np.float64), speed=speed,
                         heading=heading, pitch=pitch, roll=roll)


def angle_checker_lock(att_pos, att_fwd, tgt_pos, cone_deg=10.0, max_range=1000.0):
    """Independent lock rule: atan2-based angle, no shared code with the env."""
    los = np.asarray(tgt_pos, dtype=np.float64) - np.asarray(att_pos, dtype=np.float64)
    dist = math.sqrt(float(los @ los))
    if dist >= max_range:
        return False
    u = los / dist
    fwd = np.asarray(att_fwd, dtype=np.float64)
    angle = math.degrees(math.atan2(float(np.linalg.norm(np.cross(fwd, u))),
                                    float(fwd @ u)))
    return angle <= cone_deg + 1e-8


class TestWrapAngle:
    def test_identity_inside_range(self):
        assert wrap_angle(0.5) == pytest.approx(0.5)

    def test_wraps_past_pi(self):
        assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
        assert wrap_angle(-math.pi - 0.1) == pytest.approx(math.pi - 0.1)
        assert wrap_angle(2 * math.pi) == pytest.approx(0.0)


class TestIntegrate:
    def test_straight_and_level(self):
        state = craft([0, 0, 5000])
        nxt = integrate(state, np.zeros(4), CFG)
        assert nxt.pos == pytest.approx([0.0, 15.0, 5000.0], abs=1e-9)
        assert nxt.speed == 150.0
        assert nxt.heading == 0.0 and nxt.pitch == 0.0 and nxt.roll == 0.0

    def test_throttle_accelerates_and_caps(self):
        state = craft([0, 0, 5000], speed=399.0)
        nxt = integrate(state, np.array([1.0, 0, 0, 0]), CFG)
        assert nxt.speed == 400.0  # +2 m/s per step, clamped at v_max
        slow = craft([0, 0, 5000], speed=50.5)
        nxt = integrate(slow, np.array([-1.0, 0, 0, 0]), CFG)
        assert nxt.speed == 50.0   # brake clamped at v_min

    def test_rate_commands(self):
        state = craft([0, 0, 5000])
        nxt = integrate(state, np.array([0, 1.0, 0, 0]), CFG)
        assert nxt.pitch == pytest.approx(math.radians(3.0))
        nxt = integrate(state, np.array([0, 0, 1.0, 0]), CFG)
        assert nxt.roll == pytest.approx(math.radians(9.0))
        nxt = integrate(state, np.array([0, 0, 0, 1.0]), CFG)
        assert nxt.heading == pytest.approx(math.radians(1.5))

    def test_action_clipped_to_unit_cube(self):
        state = craft([0, 0, 5000])
        big = integrate(state, np.array([0, 50.0, 0, 0]), CFG)
        unit = integrate(state, np.array([0, 1.0, 0, 0]), CFG)
        assert big.pitch == unit.pitch

    def test_pitch_clamp(self):
        state = craft([0, 0, 5000], pitch=math.radians(79.5))
        nxt = integrate(state, np.array([0, 1.0, 0, 0]), CFG)
        assert nxt.pitch == pytest.approx(math.radians(80.0))

    def test_bank_to_turn_coupling(self):
        # 45 deg bank at 100 m/s: heading rate g/v * tan(roll) = 0.0981 rad/s
        state = craft([0, 0, 5000], speed=100.0, roll=math.radians(45.0))
        nxt = integrate(state, np.zeros(4), CFG)
        expected = (9.81 / 100.0) * math.tan(math.radians(45.0)) * CFG.dt
        assert nxt.heading == pytest.approx(expected, rel=1e-9)

    def test_extreme_bank_is_capped(self):
        state = craft([0, 0, 5000], speed=100.0, roll=math.radians(89.9))
        nxt = integrate(state, np.zeros(4), CFG)
        assert nxt.heading == pytest.approx(CFG.turn_rate_max * CFG.dt)

    def test_climb_moves_altitude(self):
        state = craft([0, 0, 5000], pitch=math.radians(30.0))
        nxt = integrate(state, np.zeros(4), CFG)
        assert nxt.pos[2] == pytest.approx(5000 + 150 * math.sin(math.radians(30)) * 0.1)


class TestGeometry:
    def test_dead_ahead(self):
        geom = relative_geometry(craft([0, 0, 5000]), craft([0, 500, 5000]))
        assert geom.distance == pytest.approx(500.0)
        assert geom.ata == pytest.approx(0.0, abs=1e-12)
        assert geom.cos_ata == pytest.approx(1.0)
        assert geom.az_err == pytest.approx(0.0, abs=1e-12)
        assert geom.elev_err == pytest.approx(0.0, abs=1e-12)

    def test_target_to_the_right(self):
        geom = relative_geometry(craft([0, 0, 5000]), craft([500, 0, 5000]))
        assert geom.ata == pytest.approx(math.pi / 2)
        assert geom.az_err == pytest.approx(math.pi / 2)

    def test_target_above(self):
        geom = relative_geometry(craft([0, 0, 5000]), craft([0, 500, 5500]))
        assert geom.elev_err == pytest.approx(math.atan2(500, 500))

    def test_aspect_tail_chase_vs_head_on(self):
        attacker = craft([0, 0, 5000], heading=0.0)
        runner = craft([0, 2000, 5000], heading=0.0)
        assert relative_geometry(attacker, runner).aspect == pytest.approx(0.0, abs=1e-9)
        facing = craft([0, 2000, 5000], heading=math.pi)
        assert relative_geometry(attacker, facing).aspect == pytest.approx(math.pi, abs=1e-9)


class TestLock:
    def test_dead_ahead_in_range(self):
        assert lock_check(craft([0, 0, 5000]), craft([0, 500, 5000]))

    def test_exact_cone_boundary_locks(self):
        # target at exactly 10.0 deg off the nose, 999 m out
        ang = math.radians(10.0)
        tgt = craft([999 * math.sin(ang), 999 * math.cos(ang), 5000.0])
        assert lock_check(craft([0, 0, 5000.0]), tgt)

    def test_just_outside_cone_fails(self):
        ang = math.radians(10.05)
        tgt = craft([999 * math.sin(ang), 999 * math.cos(ang), 5000.0])
        assert not lock_check(craft([0, 0, 5000.0]), tgt)

    def test_range_boundary_is_exclusive(self):
        assert not lock_check(craft([0, 0, 5000]), craft([0, 1000.0, 5000]))
        assert lock_check(craft([0, 0, 5000]), craft([0, 999.999, 5000]))

    def test_target_behind_fails(self):
        assert not lock_check(craft([0, 0, 5000]), craft([0, -500, 5000]))

    def test_vertical_offset_counts_in_the_cone(self):
        # 500 m ahead, 500 m above: 45 deg off the nose
        assert not lock_check(craft([0, 0, 5000]), craft([0, 500, 5500]))

    def test_agrees_with_independent_checker(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            att = craft(rng.uniform(-100, 100, 3) + [0, 0, 5000],
                        heading=rng.uniform(-math.pi, math.pi),
                        pitch=rng.uniform(-1.0, 1.0))
            tgt = craft(att.pos + rng.uniform(-1200, 1200, 3))
            got = lock_check(att, tgt)
            want = angle_checker_lock(att.pos, nose_formula(att.heading, att.pitch), tgt.pos)
            assert got == want


class TestExpert:
    @staticmethod
    def geom(distance=5000.0, ata=0.5, aspect=2.0, az_err=0.0, elev_err=0.0):
        return Geometry(distance=distance, ata=ata, aspect=aspect,
                        cos_ata=math.cos(ata), az_err=az_err, elev_err=elev_err)

    def test_steers_toward_azimuth_error(self):
        rng = np.random.default_rng(0)
        act = expert_policy(self.geom(az_err=0.3), rng, CFG)
        assert act[3] == 0.9
        act = expert_policy(self.geom(az_err=-0.3), rng, CFG)
        assert act[3] == -0.9

    def test_steers_toward_elevation_error(self):
        rng = np.random.default_rng(1)
        act = expert_policy(self.geom(elev_err=0.2), rng, CFG)
        assert act[1] == 0.9
        act = expert_policy(self.geom(elev_err=-0.2), rng, CFG)
        assert act[1] == -0.9

    def test_deadband_yields_noise(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            act = expert_policy(self.geom(), rng, CFG)
            assert abs(act[1]) <= 0.1
            assert abs(act[2]) <= 0.1
            assert abs(act[3]) <= 0.1

    def test_brakes_close_behind_the_target(self):
        rng = np.random.default_rng(3)
        act = expert_policy(self.geom(distance=2000.0, aspect=0.2), rng, CFG)
        assert act[0] == -0.9

    def test_full_throttle_otherwise(self):
        rng = np.random.default_rng(4)
        # close but head-on: no brake
        assert expert_policy(self.geom(distance=2000.0, aspect=2.0), rng, CFG)[0] == 0.9
        # behind but far: no brake
        assert expert_policy(self.geom(distance=5000.0, aspect=0.2), rng, CFG)[0] == 0.9

    def test_actions_inside_unit_cube(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = self.geom(distance=float(rng.uniform(100, 9000)),
                          ata=float(rng.uniform(0, math.pi)),
                          aspect=float(rng.uniform(0, math.pi)),
                          az_err=float(rng.uniform(-math.pi, math.pi)),
                          elev_err=float(rng.uniform(-1.5, 1.5)))
            act = expert_policy(g, rng, CFG)
            assert np.all(np.abs(act) <= 1.0)

    @pytest.mark.parametrize("noise", [1e-3, 0.03, 0.1, 0.5, 1.0, 2.5])
    def test_noise_matches_scalar_uniform_draws(self, noise):
        # each geometry puts elevator and rudder inside or outside the deadband
        cfg = DogfightConfig(expert_noise=noise)
        band = cfg.expert_deadband
        geoms = [self.geom(az_err=az, elev_err=el, distance=d, aspect=asp)
                 for az in (0.0, 0.5 * band, -3.0 * band, 0.4)
                 for el in (0.0, -0.5 * band, 3.0 * band, -0.2)
                 for d, asp in ((2000.0, 0.2), (5000.0, 2.0))]
        rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        for _ in range(25):
            for g in geoms:
                act = expert_policy(g, rng, cfg)
                want = oracles.expert_policy(g, ref_rng, cfg)
                assert type(act) is np.ndarray and act.dtype == np.float64
                assert act.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestDenseReward:
    @staticmethod
    def geom(distance, cos_ata):
        return Geometry(distance=distance, ata=math.acos(cos_ata), aspect=0.0,
                        cos_ata=cos_ata, az_err=0.0, elev_err=0.0)

    def test_no_change_is_zero(self):
        g = self.geom(5000.0, 0.5)
        assert dense_reward(g, g, False, CFG) == 0.0

    def test_closure_hand_value(self):
        # closing 100 m: 0.1 * 100 / 10000 = 0.001
        r = dense_reward(self.geom(5000.0, 0.5), self.geom(4900.0, 0.5), False, CFG)
        assert r == pytest.approx(0.001, abs=1e-12)

    def test_pointing_hand_value(self):
        r = dense_reward(self.geom(5000.0, 0.5), self.geom(5000.0, 0.8), False, CFG)
        assert r == pytest.approx(0.1 * 0.3, abs=1e-12)

    def test_turning_away_is_negative(self):
        r = dense_reward(self.geom(5000.0, 0.8), self.geom(5000.0, 0.5), False, CFG)
        assert r < 0.0

    def test_lock_pressure(self):
        g = self.geom(5000.0, 0.5)
        assert dense_reward(g, g, True, CFG) == pytest.approx(-0.01)


class TestBehaviorDescriptor:
    def test_hand_mapping(self):
        actions = np.tile(np.array([0.3, 0.5, -1.0, -0.2]), (7, 1))
        assert behavior_descriptor(actions) == pytest.approx([0.75, 0.0])

    def test_bounds(self):
        rng = np.random.default_rng(0)
        bd = behavior_descriptor(rng.uniform(-1, 1, size=(30, 4)))
        assert np.all(bd >= 0.0) and np.all(bd <= 1.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            behavior_descriptor(np.zeros((0, 4)))
        with pytest.raises(ValueError):
            behavior_descriptor(np.zeros((5, 3)))


class TestStepOp:
    @staticmethod
    def head_on_state():
        red = craft([0, -4000, 5000], heading=0.0)
        blue = craft([0, 4000, 5000], heading=math.pi)
        return DogfightState(red=red, blue=blue, status=EpisodeStatus())

    def test_far_apart_no_events(self):
        state = self.head_on_state()
        nxt, reward, info = step(state, np.zeros(4), np.zeros(4), CFG)
        assert reward == 0.0
        assert not info["red_locks"] and not info["blue_locks"]
        assert nxt.status.step == 1
        assert nxt.status.terminal is None

    def test_info_carries_the_next_state_geometries(self):
        rng = np.random.default_rng(3)
        state = DogfightState(red=random_craft(rng), blue=random_craft(rng),
                              status=EpisodeStatus())
        nxt, _, info = step(state, rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4), CFG)
        assert info["red_geometry"] == relative_geometry(nxt.red, nxt.blue)
        assert info["blue_geometry"] == relative_geometry(nxt.blue, nxt.red)

    def test_lock_scores_plus_one(self):
        red = craft([0, 0, 5000], heading=0.0)
        blue = craft([0, 500, 5000], heading=0.0)
        state = DogfightState(red=red, blue=blue, status=EpisodeStatus())
        nxt, reward, info = step(state, np.zeros(4), np.zeros(4), CFG)
        assert info["red_locks"] and not info["blue_locks"]
        assert reward == 1.0
        assert nxt.status.lock_steps_agent == 1

    def test_being_locked_scores_minus_one(self):
        red = craft([0, 500, 5000], heading=0.0)
        blue = craft([0, 0, 5000], heading=0.0)
        state = DogfightState(red=red, blue=blue, status=EpisodeStatus())
        _, reward, info = step(state, np.zeros(4), np.zeros(4), CFG)
        assert info["blue_locks"] and not info["red_locks"]
        assert reward == -1.0

    def test_lock_win_after_limit_exceeded(self):
        red = craft([0, 0, 5000], heading=0.0)
        blue = craft([0, 500, 5000], heading=0.0)
        status = EpisodeStatus(step=500, lock_steps_agent=1000)
        state = DogfightState(red=red, blue=blue, status=status)
        nxt, reward, _ = step(state, np.zeros(4), np.zeros(4), CFG)
        assert nxt.status.lock_steps_agent == 1001
        assert nxt.status.terminal == "lock_win:red"
        assert reward == 1.0

    def test_at_limit_keeps_fighting(self):
        red = craft([0, 0, 5000], heading=0.0)
        blue = craft([0, 500, 5000], heading=0.0)
        status = EpisodeStatus(step=500, lock_steps_agent=999)
        state = DogfightState(red=red, blue=blue, status=status)
        nxt, _, _ = step(state, np.zeros(4), np.zeros(4), CFG)
        assert nxt.status.lock_steps_agent == 1000
        assert nxt.status.terminal is None

    def test_opponent_lock_win(self):
        red = craft([0, 500, 5000], heading=0.0)
        blue = craft([0, 0, 5000], heading=0.0)
        status = EpisodeStatus(step=10, lock_steps_opponent=1000)
        state = DogfightState(red=red, blue=blue, status=status)
        nxt, reward, _ = step(state, np.zeros(4), np.zeros(4), CFG)
        assert nxt.status.terminal == "lock_win:blue"
        assert reward == -1.0

    def test_agent_out_of_bounds_pays_penalty(self):
        red = craft([0, CFG.half_width - 1.0, 5000], heading=0.0)  # 15 m/step north
        blue = craft([0, -4000, 5000], heading=math.pi)
        state = DogfightState(red=red, blue=blue, status=EpisodeStatus())
        nxt, reward, _ = step(state, np.zeros(4), np.zeros(4), CFG)
        assert nxt.status.terminal == "out_of_bounds:red"
        assert reward == -1000.0

    def test_floor_and_ceiling_are_bounds(self):
        assert out_of_bounds(craft([0, 0, 99.0]), CFG)
        assert out_of_bounds(craft([0, 0, 10001.0]), CFG)
        assert not out_of_bounds(craft([0, 0, 100.0]), CFG)

    def test_opponent_out_of_bounds_ends_quietly(self):
        red = craft([0, -4000, 5000], heading=0.0)
        blue = craft([0, CFG.half_width - 1.0, 5000], heading=0.0)
        state = DogfightState(red=red, blue=blue, status=EpisodeStatus())
        nxt, reward, _ = step(state, np.zeros(4), np.zeros(4), CFG)
        assert nxt.status.terminal == "out_of_bounds:blue"
        assert reward == 0.0

    def test_step_cap_terminates(self):
        state = self.head_on_state()
        state = DogfightState(red=state.red, blue=state.blue,
                              status=EpisodeStatus(step=CFG.max_steps - 1))
        nxt, _, _ = step(state, np.zeros(4), np.zeros(4), CFG)
        assert nxt.status.terminal == "max_steps"

    def test_stepping_terminal_state_raises(self):
        state = DogfightState(red=craft([0, 0, 5000]), blue=craft([0, 500, 5000]),
                              status=EpisodeStatus(terminal="max_steps"))
        with pytest.raises(ValueError):
            step(state, np.zeros(4), np.zeros(4), CFG)


class TestEnv:
    def test_reset_spawn_geometry(self):
        env = DogfightEnv()
        obs = env.reset(np.random.default_rng(0))
        assert obs.shape == (22,)
        state = env.state
        sep = np.linalg.norm(state.red.pos - state.blue.pos)
        assert abs(sep - 8000.0) < 400.0
        assert abs(state.red.pos[2] - 5000.0) <= 100.0
        assert abs(state.blue.pos[2] - 5000.0) <= 100.0
        assert abs(state.red.heading) <= math.radians(2.0)
        assert abs(wrap_angle(state.blue.heading - math.pi)) <= math.radians(2.0)

    def test_learning_reward_includes_shaping(self):
        env = DogfightEnv()
        env.reset(np.random.default_rng(1))
        _, reward, _, info = env.step(np.zeros(4))
        assert reward == pytest.approx(info["sparse_reward"] + info["dense_reward"])

    def test_random_episodes_respect_the_rules(self):
        rng = np.random.default_rng(2)
        env = DogfightEnv()
        for _ in range(3):
            env.reset(rng)
            done = False
            steps = 0
            while not done:
                action = rng.uniform(-1, 1, 4)
                _, _, done, info = env.step(action)
                steps += 1
                # per-step sparse is in {-1, 0, 1} plus the one-off exit penalty
                base = info["sparse_reward"] + (1000.0 if info["terminal"] == "out_of_bounds:red" else 0.0)
                assert base in (-1.0, 0.0, 1.0)
                # lock flags re-derived from raw geometry by independent code
                assert info["red_locks"] == angle_checker_lock(
                    info["red_pos"], info["red_forward"], info["blue_pos"])
                assert info["blue_locks"] == angle_checker_lock(
                    info["blue_pos"], info["blue_forward"], info["red_pos"])
            assert steps <= CFG.max_steps
            assert info["terminal"] in {"max_steps", "out_of_bounds:red",
                                        "out_of_bounds:blue", "lock_win:red",
                                        "lock_win:blue"}

    def test_seeded_replay_is_bit_identical(self):
        def run(seed):
            env = DogfightEnv()
            rng = np.random.default_rng(seed)
            env.reset(rng)
            stream = []
            done = False
            while not done:
                obs, reward, done, info = env.step(np.array([0.5, 0.1, -0.2, 0.05]))
                stream.append((obs, reward, info["sparse_reward"]))
            return stream

        a, b = run(11), run(11)
        assert len(a) == len(b)
        for (obs1, r1, s1), (obs2, r2, s2) in zip(a, b):
            assert np.array_equal(obs1, obs2)
            assert r1 == r2 and s1 == s2

    def test_episode_bd_uses_action_log(self):
        env = DogfightEnv()
        env.reset(np.random.default_rng(3))
        actions = np.tile(np.array([0.0, 1.0, -1.0, 0.0]), (5, 1))
        bd = env.episode_bd(actions, {})
        assert bd == pytest.approx([1.0, 0.0])

    def test_blue_expert_closes_on_a_straight_flyer(self):
        env = DogfightEnv()
        env.reset(np.random.default_rng(5))
        d0 = np.linalg.norm(env.state.red.pos - env.state.blue.pos)
        for _ in range(200):
            _, _, done, info = env.step(np.zeros(4))
            if done:
                break
        assert info["distance"] < d0  # pursuit reduces separation


def random_craft(rng):
    return craft(rng.uniform([-9000, -9000, 200], [9000, 9000, 9800]),
                 speed=float(rng.uniform(50.0, 400.0)),
                 heading=float(rng.uniform(-math.pi, math.pi)),
                 pitch=float(rng.uniform(-1.4, 1.4)),
                 roll=float(rng.uniform(-math.pi, math.pi)))


def nose_formula(heading, pitch):
    """The unit nose vector written out from heading and pitch."""
    return np.array([math.sin(heading) * math.cos(pitch),
                     math.cos(heading) * math.cos(pitch), math.sin(pitch)])


class TestNoseVector:
    """Each state carries its nose vector; readers get copies."""

    def test_stored_forward_equals_the_formula(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            hand_built = random_craft(rng)
            flown = integrate(hand_built, rng.uniform(-1.5, 1.5, 4), CFG)
            for state in (hand_built, flown):
                want = nose_formula(state.heading, state.pitch)
                assert np.array_equal(state.forward, want)

    def test_step_info_vectors_are_copies(self):
        env = DogfightEnv()
        env.reset(np.random.default_rng(28))
        _, _, _, info = env.step(np.zeros(4))
        red, blue = env.state.red, env.state.blue
        info["red_forward"][:] = 0.0
        info["blue_forward"][:] = 0.0
        assert np.array_equal(red.forward, nose_formula(red.heading, red.pitch))
        assert np.array_equal(blue.forward, nose_formula(blue.heading, blue.pitch))


class TestMatchesReferenceKinematics:
    """Scalar clamps and the inlined forward axis leave every bit unchanged."""

    def test_integrate(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            state = random_craft(rng)
            action = rng.uniform(-1.5, 1.5, 4)
            got, ref = integrate(state, action, CFG), oracles.integrate(state, action, CFG)
            assert np.array_equal(got.pos, ref.pos)
            assert (got.speed, got.heading, got.pitch, got.roll) == (
                ref.speed, ref.heading, ref.pitch, ref.roll)
        # the clamps are scalar min/max, not np.clip: +-inf must clamp and NaN
        # must pass through as np.clip passes it, channel by channel
        nonfinite = 0
        for _ in range(500):
            state = random_craft(rng)
            action = rng.uniform(-1.5, 1.5, 4)
            action[rng.random(4) < 0.3] = rng.choice([np.inf, -np.inf, np.nan])
            got, ref = integrate(state, action, CFG), oracles.integrate(state, action, CFG)
            for a, b in ((got.pos, ref.pos), (got.forward, ref.forward),
                         ([got.speed, got.heading, got.pitch, got.roll],
                          [ref.speed, ref.heading, ref.pitch, ref.roll])):
                assert np.array_equal(a, b, equal_nan=True)
            nonfinite += int(not np.all(np.isfinite(action)))
        assert nonfinite > 300

    def test_relative_geometry(self):
        rng = np.random.default_rng(24)
        pairs = [(random_craft(rng), random_craft(rng)) for _ in range(500)]
        same = random_craft(rng)
        pairs.append((same, same))
        near = random_craft(rng)
        pairs.append((near, craft(near.pos + [0.0, 1.0, 0.0], heading=near.heading)))
        for att, tgt in pairs:
            assert relative_geometry(att, tgt) == oracles.relative_geometry(att, tgt)

    def test_pair_geometry(self):
        """Both views from one line of sight equal each side's own geometry,
        field by field with NaN equal to NaN."""
        rng = np.random.default_rng(27)
        pairs = [(random_craft(rng), random_craft(rng)) for _ in range(500)]
        same = random_craft(rng)
        pairs.append((same, same))
        near = random_craft(rng)
        for offset in ([0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.6, 0.0, 0.8]):
            pairs.append((near, craft(near.pos + offset, heading=2.9)))
        # a shared x puts blue's bearing on atan2(+-0.0, -1.0) = +-pi, whose
        # sign only blue's own differences give: +0.0 here, -0.0 when red's
        # x is -0.0 and blue's +0.0; at heading 2.9, wrap_angle(pi - 2.9) and
        # wrap_angle(-pi - 2.9) differ in the last bit
        pairs.append((craft([0.0, 0.0, 5000.0]), craft([0.0, 1.0, 5000.0], heading=2.9)))
        pairs.append((craft([-0.0, 0.0, 5000.0]), craft([0.0, 1.0, 5000.0], heading=2.9)))
        for bad in (np.nan, np.inf, -np.inf):
            for axis in range(3):
                pos = near.pos.copy()
                pos[axis] = bad
                pairs += [(near, craft(pos)), (craft(pos), near)]
            pairs.append((craft([bad] * 3), craft([bad] * 3)))
        with np.errstate(invalid="ignore"):  # inf - inf and inf / inf
            for red, blue in pairs:
                got = pair_geometry(red, blue)
                want = (oracles.relative_geometry(red, blue),
                        oracles.relative_geometry(blue, red))
                for g, w in zip(got, want):
                    assert np.array_equal(astuple(g), astuple(w), equal_nan=True)


class TestStepEquivalence:
    """DogfightEnv.step shares one geometry per aircraft pair between the lock
    checks, the shaping, the observation and the next expert action; every
    output must still equal what the public functions compute from the state."""

    def test_env_outputs_match_public_functions(self):
        cfg = DogfightConfig(spawn_distance=1200.0, lock_range=1500.0, lock_cone=0.6,
                             max_steps=150)
        env = DogfightEnv(cfg)
        rng = np.random.default_rng(25)
        act_rng = np.random.default_rng(26)

        def check_reset(obs):
            s = env.state
            geom = relative_geometry(s.red, s.blue)
            assert np.array_equal(obs, observe(s.red, s.blue, geom, s.status, 0, 0, cfg))
            return geom

        prev = check_reset(env.reset(rng))
        red_locks = blue_locks = resets = 0
        for t in range(400):
            before = env.state
            probe = np.random.default_rng()
            probe.bit_generator.state = rng.bit_generator.state
            blue_expected = expert_policy(relative_geometry(before.blue, before.red),
                                          probe, cfg)
            action = act_rng.uniform(-1.0, 1.0, 4) if t % 4 else np.zeros(4)
            obs, _, done, info = env.step(action)
            s = env.state
            geom = relative_geometry(s.red, s.blue)
            assert np.array_equal(obs, observe(s.red, s.blue, geom, s.status,
                                               s.status.lock_steps_agent,
                                               s.status.lock_steps_opponent, cfg))
            assert info["distance"] == geom.distance
            assert info["red_locks"] == lock_check(s.red, s.blue, cfg)
            assert info["blue_locks"] == lock_check(s.blue, s.red, cfg)
            assert info["dense_reward"] == dense_reward(prev, geom, info["blue_locks"], cfg)
            # the expert's action shows in the next blue state
            blue = integrate(before.blue, blue_expected, cfg)
            assert np.array_equal(s.blue.pos, blue.pos)
            assert np.array_equal(s.blue.forward, blue.forward)
            assert (s.blue.speed, s.blue.heading, s.blue.pitch, s.blue.roll) == (
                blue.speed, blue.heading, blue.pitch, blue.roll)
            red_locks += info["red_locks"]
            blue_locks += info["blue_locks"]
            prev = geom
            if done:
                prev = check_reset(env.reset(rng))
                resets += 1
        # the run must exercise both lock flags and the episode boundary
        assert red_locks > 0 and blue_locks > 0 and resets > 0
