"""Bandit arm selection and clustered exploit-target picking."""

import numpy as np
import pytest

from phasic.archive import GridArchive
from phasic.selection import (BanditState, bandit_update, clustering_selection,
                              policy_embedding, thompson_select, ucb_select)

from factories import linear_gaussian_policy, view


class TestBanditState:
    def test_initial_tallies_zero(self):
        state = BanditState(arms=(0.0, 0.5))
        assert np.all(state.successes == 0)
        assert np.all(state.failures == 0)
        assert np.all(state.pulls == 0)

    def test_update_bookkeeping(self):
        state = BanditState(arms=(0.0, 0.5))
        bandit_update(state, 0, improved=True)
        bandit_update(state, 0, improved=False)
        bandit_update(state, 1, improved=False)
        assert state.successes.tolist() == [1.0, 0.0]
        assert state.failures.tolist() == [1.0, 1.0]
        assert state.pulls.tolist() == [2.0, 1.0]

    def test_bad_arm_index_rejected(self):
        state = BanditState(arms=(0.0, 0.5))
        with pytest.raises(IndexError):
            bandit_update(state, 2, True)

    def test_state_round_trip(self):
        state = BanditState(arms=(0.0, 0.25, 0.5))
        bandit_update(state, 1, True)
        clone = BanditState.from_state(state.state_dict())
        assert clone.arms == state.arms
        assert np.array_equal(clone.successes, state.successes)
        assert np.array_equal(clone.failures, state.failures)

    def test_no_arms_rejected(self):
        with pytest.raises(ValueError):
            BanditState(arms=())


class TestUcb:
    def test_unpulled_arms_go_first(self):
        state = BanditState(arms=(0.0, 0.5, 1.0))
        assert ucb_select(state) == 0
        bandit_update(state, 0, True)
        assert ucb_select(state) == 1
        bandit_update(state, 1, False)
        assert ucb_select(state) == 2

    def test_prefers_better_mean_at_equal_pulls(self):
        state = BanditState(arms=(0.0, 0.5),
                            successes=np.array([9.0, 1.0]),
                            failures=np.array([1.0, 9.0]))
        assert ucb_select(state) == 0

    def test_exploration_bonus_revisits_rare_arm(self):
        # slightly better mean but vastly fewer pulls on arm 1
        state = BanditState(arms=(0.0, 0.5),
                            successes=np.array([600.0, 1.0]),
                            failures=np.array([400.0, 1.0]))
        # mean0=0.6 small bonus; mean1=0.5 with bonus sqrt(2 ln 1002 / 2) ~ 2.6
        assert ucb_select(state) == 1


class TestThompson:
    def test_concentrates_on_strong_arm(self):
        rng = np.random.default_rng(0)
        state = BanditState(arms=(0.0, 0.5),
                            successes=np.array([95.0, 5.0]),
                            failures=np.array([5.0, 95.0]))
        picks = [thompson_select(state, rng) for _ in range(500)]
        assert np.mean(np.array(picks) == 0) > 0.95

    def test_uniform_prior_explores_both(self):
        rng = np.random.default_rng(1)
        state = BanditState(arms=(0.0, 0.5))
        picks = np.array([thompson_select(state, rng) for _ in range(400)])
        frac = float(np.mean(picks == 0))
        assert 0.4 < frac < 0.6

    def test_seeded_reproducibility(self):
        state = BanditState(arms=(0.0, 0.5),
                            successes=np.array([3.0, 4.0]),
                            failures=np.array([2.0, 1.0]))
        a = [thompson_select(state, np.random.default_rng(7)) for _ in range(20)]
        b = [thompson_select(state, np.random.default_rng(7)) for _ in range(20)]
        assert a == b


class TestBernoulliIdentification:
    """Both rules find a Ber(0.9) arm over a Ber(0.1) arm almost always."""

    @staticmethod
    def run_bandit(rule, seed, rounds=1000):
        rng = np.random.default_rng(seed)
        state = BanditState(arms=(0.9, 0.1))
        good_pulls = 0
        for _ in range(rounds):
            arm = rule(state, rng) if rule is thompson_select else rule(state)
            reward = rng.uniform() < (0.9 if arm == 0 else 0.1)
            bandit_update(state, arm, bool(reward))
            good_pulls += int(arm == 0)
        return good_pulls / rounds

    def test_thompson_mostly_pulls_the_good_arm(self):
        fracs = [self.run_bandit(thompson_select, seed) for seed in range(10)]
        assert np.mean(fracs) >= 0.95

    def test_ucb_mostly_pulls_the_good_arm(self):
        fracs = [self.run_bandit(ucb_select, seed) for seed in range(10)]
        assert np.mean(fracs) >= 0.95


def offset_policy(bias):
    """Linear policy whose mean action is a constant vector."""
    return linear_gaussian_policy(np.zeros((2, 2)), np.asarray(bias, float), log_std=0.0)


class TestClusteringSelection:
    @staticmethod
    def build_archive(biases, fits):
        arch = GridArchive()
        for i, (bias, fit) in enumerate(zip(biases, fits)):
            bd = np.array([0.05 + 0.1 * (i % 10), 0.05 + 0.1 * (i // 10)])
            assert arch.add(view(offset_policy(bias)), fit, bd)
        return arch

    def test_embedding_flattens_mean_actions(self):
        probes = np.zeros((3, 2))
        emb = policy_embedding(offset_policy([1.0, -1.0]), probes)
        assert emb == pytest.approx([1.0, -1.0] * 3)

    def test_two_behavior_clusters_both_represented(self):
        # cluster A near (5,5) holds the three fittest; cluster B near (-5,-5)
        # would be ignored by plain top-2 but must appear here
        biases = [[5.0, 5.0], [5.1, 5.0], [4.9, 5.0], [-5.0, -5.0], [-5.1, -5.0]]
        fits = [10.0, 9.5, 9.0, 2.0, 1.5]
        arch = self.build_archive(biases, fits)
        probes = np.random.default_rng(0).normal(size=(16, 2))
        picked = clustering_selection(arch.entries(), 2, probes,
                                      np.random.default_rng(1))
        means = [e.policy.gaussian_batch(np.zeros((1, 2)))[0][0] for e in picked]
        signs = sorted(float(np.sign(m[0])) for m in means)
        assert signs == [-1.0, 1.0]
        fits_picked = sorted(e.fitness for e in picked)
        assert fits_picked == [2.0, 10.0]  # fittest member of each cluster

    def test_identical_candidates_fall_back_to_top_m(self):
        biases = [[1.0, 1.0]] * 5
        fits = [5.0, 4.0, 3.0, 2.0, 1.0]
        arch = self.build_archive(biases, fits)
        probes = np.zeros((4, 2))
        picked = clustering_selection(arch.entries(), 3, probes,
                                      np.random.default_rng(2))
        assert [e.fitness for e in picked] == [5.0, 4.0, 3.0]

    def test_fewer_entries_than_m_pads_with_best(self):
        arch = self.build_archive([[1.0, 0.0], [0.0, 1.0]], [3.0, 1.0])
        picked = clustering_selection(arch.entries(), 4, np.zeros((2, 2)),
                                      np.random.default_rng(3))
        assert len(picked) == 4
        assert [e.fitness for e in picked] == [3.0, 1.0, 3.0, 3.0]

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(5)
        biases = rng.normal(size=(12, 2)) * 3
        fits = rng.normal(size=12)
        arch = self.build_archive(biases.tolist(), fits.tolist())
        probes = rng.normal(size=(8, 2))
        a = clustering_selection(arch.entries(), 3, probes, np.random.default_rng(9))
        b = clustering_selection(arch.entries(), 3, probes, np.random.default_rng(9))
        assert [e.order for e in a] == [e.order for e in b]
