import numpy as np
import pytest

from oracles import DiagGaussian, DiscreteDist


def test_gaussian_log_prob_standard_normal_at_zero():
    d = DiagGaussian(mean=np.zeros(1), log_std=np.zeros(1))
    assert np.isclose(d.log_prob(np.zeros(1)), -0.5 * np.log(2 * np.pi), atol=1e-12)


def test_gaussian_log_prob_matches_density_formula():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = rng.integers(1, 5)
        d = DiagGaussian(rng.standard_normal(dim), rng.uniform(-1, 1, dim))
        a = rng.standard_normal(dim)
        expected = np.sum(-0.5 * ((a - d.mean) / d.std) ** 2
                          - np.log(d.std) - 0.5 * np.log(2 * np.pi))
        assert np.isclose(d.log_prob(a), expected, rtol=1e-12)


def test_gaussian_density_integrates_to_one_montecarlo():
    # E_q[p/q] = 1 with q a wider Gaussian as proposal
    rng = np.random.default_rng(11)
    p = DiagGaussian(np.array([0.3, -0.2]), np.array([0.1, -0.3]))
    q = DiagGaussian(p.mean, p.log_std + 0.7)
    samples = np.stack([q.sample(rng) for _ in range(100_000)])
    log_w = np.array([p.log_prob(s) - q.log_prob(s) for s in samples])
    assert np.isclose(np.mean(np.exp(log_w)), 1.0, rtol=0.01)


def test_gaussian_clamps_log_std():
    d = DiagGaussian(np.zeros(2), np.array([-50.0, 10.0]))
    assert d.log_std[0] == -20.0
    assert d.log_std[1] == 2.0


def test_gaussian_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        DiagGaussian(np.zeros(2), np.zeros(3))


def test_gaussian_mode_and_sampling_seeded():
    d = DiagGaussian(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    assert np.array_equal(d.mode(), d.mean)
    s1 = d.sample(np.random.default_rng(5))
    s2 = d.sample(np.random.default_rng(5))
    assert np.array_equal(s1, s2)


def test_discrete_basics():
    d = DiscreteDist(np.array([0.7, 0.3]))
    assert np.isclose(d.log_prob(0), np.log(0.7))
    assert d.mode() == 0
    assert np.isclose(d.entropy(), -(0.7 * np.log(0.7) + 0.3 * np.log(0.3)))


def test_discrete_validation():
    with pytest.raises(ValueError):
        DiscreteDist(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        DiscreteDist(np.array([-0.1, 1.1]))


def test_discrete_sampling_frequencies():
    d = DiscreteDist(np.array([0.25, 0.75]))
    rng = np.random.default_rng(7)
    draws = np.array([d.sample(rng) for _ in range(20_000)])
    assert abs(np.mean(draws) - 0.75) < 0.01
