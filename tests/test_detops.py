import numpy as np
import pytest

from factories import (linear_gaussian_policy, random_discrete_policy,
                       random_gaussian_policy)
from oracles import (central_diff_grad, cofactor_det, grad_close,
                     random_psd_unit_diag)

from phasic.detops import (NotPositiveDefinite, cholesky, det_gradient,
                           det_via_cholesky, diversity_ascent,
                           diversity_objective, log_det_via_cholesky,
                           spd_inverse, surrogate, surrogate_det_bound)
from phasic.kernels import StateBatch, build_kernel_matrix


class TestSurrogate:
    def test_all_ones_blend(self):
        out = surrogate(np.ones((2, 2)), 0.5)
        assert np.array_equal(out.entries, np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_identity_fixed_point(self):
        for beta in (0.1, 0.5, 0.99):
            assert np.array_equal(surrogate(np.eye(3), beta).entries, np.eye(3))

    def test_entrywise_arithmetic(self):
        out = surrogate(np.array([[1.0, 0.8], [0.8, 1.0]]), 0.9)
        assert np.allclose(out.entries, [[1.0, 0.72], [0.72, 1.0]], atol=1e-12)

    def test_diagonal_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = random_psd_unit_diag(4, rng)
            out = surrogate(k, float(rng.uniform(0.01, 0.99)))
            assert np.all(np.diag(out.entries) == 1.0)

    def test_beta_out_of_range(self):
        for beta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                surrogate(np.eye(2), beta)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)).lower, np.eye(3))

    def test_hand_factorization(self):
        fac = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(fac.lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], atol=1e-12)

    def test_singular_duplication_matrix_fails(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.ones((2, 2)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.2], [0.4, 1.0]]))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            a = rng.standard_normal((n, n))
            spd = a @ a.T + n * np.eye(n)
            fac = cholesky(spd)
            assert np.allclose(fac.lower @ fac.lower.T, spd, atol=1e-8)
            assert np.all(fac.diag > 0)

    def test_never_fails_on_surrogate_of_valid_kernel(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            k = random_psd_unit_diag(m, rng)
            beta = float(rng.uniform(0.01, 0.995))
            cholesky(surrogate(k, beta).entries)  # must not raise


class TestDeterminant:
    def test_identity_det(self):
        assert det_via_cholesky(cholesky(np.eye(4))) == 1.0

    def test_hand_det(self):
        fac = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert np.isclose(det_via_cholesky(fac), 8.0, atol=1e-12)

    def test_duplication_surrogate_det(self):
        kt = surrogate(np.ones((2, 2)), 0.5)
        assert np.isclose(det_via_cholesky(cholesky(kt.entries)), 0.75, atol=1e-12)
        assert np.isclose(surrogate_det_bound(2, 0.5), 0.75, atol=1e-15)

    def test_matches_cofactor_oracle_up_to_5x5(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            a = rng.standard_normal((n, n))
            spd = a @ a.T + n * np.eye(n)
            det = det_via_cholesky(cholesky(spd))
            assert np.isclose(det, cofactor_det(spd), rtol=1e-8, atol=1e-8)

    def test_log_det_consistent(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        spd = a @ a.T + 4 * np.eye(4)
        fac = cholesky(spd)
        assert np.isclose(np.exp(log_det_via_cholesky(fac)), det_via_cholesky(fac),
                          rtol=1e-10)

    def test_spd_inverse(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        spd = a @ a.T + 5 * np.eye(5)
        inv = spd_inverse(cholesky(spd))
        assert np.allclose(spd @ inv, np.eye(5), atol=1e-9)


class TestDetBound:
    def test_m1_is_one(self):
        for beta in (0.1, 0.5, 0.9):
            assert surrogate_det_bound(1, beta) == 1.0

    def test_hand_values(self):
        assert np.isclose(surrogate_det_bound(2, 0.5), 0.75, atol=1e-15)
        assert np.isclose(surrogate_det_bound(5, 0.5), 3.0 * 0.0625, atol=1e-15)

    def test_bound_holds_on_random_kernels(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            m = int(rng.integers(2, 7))
            k = random_psd_unit_diag(m, rng, rank=int(rng.integers(1, m + 2)))
            beta = float(rng.choice([0.1, 0.5, 0.9, 0.99]))
            det = det_via_cholesky(cholesky(surrogate(k, beta).entries))
            assert det >= surrogate_det_bound(m, beta) - 1e-10

    def test_all_ones_attains_bound(self):
        for m in range(2, 7):
            for beta in (0.1, 0.5, 0.9, 0.99):
                det = det_via_cholesky(cholesky(surrogate(np.ones((m, m)), beta).entries))
                assert abs(det - surrogate_det_bound(m, beta)) <= 1e-10


class TestDetGradient:
    def test_zero_entry_gradient(self):
        kt = surrogate(random_psd_unit_diag(3, np.random.default_rng(7)), 0.9)
        assert det_gradient(kt, np.zeros((3, 3))) == 0.0

    def test_2x2_hand_gradient(self):
        # K~ = [[1, c], [c, 1]] with c = 0.4: det = 1 - c^2, d det/dc = -2c.
        # Entry change dc/dtheta = 1 on the surrogate means dK/dtheta = 1/beta.
        beta = 0.5
        kt = surrogate(np.array([[1.0, 0.8], [0.8, 1.0]]), beta)
        dk = (1.0 / beta) * np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.isclose(det_gradient(kt, dk), -2.0 * 0.4, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            k = random_psd_unit_diag(m, rng)
            beta = float(rng.uniform(0.3, 0.99))
            n_params = int(rng.integers(1, 4))
            direction = rng.standard_normal((n_params, m, m))
            direction = 0.5 * (direction + np.transpose(direction, (0, 2, 1)))
            direction[:, np.arange(m), np.arange(m)] = 0.0
            kt = surrogate(k, beta)
            grads = det_gradient(kt, direction)

            def det_at(t, p):
                kk = k + t * direction[p]
                blend = beta * kk + (1 - beta) * np.eye(m)
                return np.linalg.det(blend)

            for p in range(n_params):
                fd = (det_at(1e-5, p) - det_at(-1e-5, p)) / 2e-5
                assert np.isclose(grads[p], fd, rtol=1e-4, atol=1e-10)

    def test_non_pd_rejected(self):
        kt = surrogate(np.ones((2, 2)), 0.5)
        bad = type(kt)(entries=np.ones((2, 2)), beta=0.5, base=np.ones((2, 2)))
        with pytest.raises(NotPositiveDefinite):
            det_gradient(bad, np.zeros((2, 2)))


class TestDiversityObjective:
    def _batch(self, rng, n=4, dim=2):
        return StateBatch(rng.standard_normal((n, dim)), "probe")

    def test_near_duplicate_pair_value(self):
        # two policies with a vanishing mean offset: det(K~) -> 3/4 at beta=0.5
        a = linear_gaussian_policy([[0.0, 0.0]], [0.0], [0.0])
        b = linear_gaussian_policy([[0.0, 0.0]], [1e-5], [0.0])
        batch = StateBatch(np.zeros((2, 2)), "probe")
        res = diversity_objective([a, b], batch, beta=0.5)
        assert np.isclose(res.value, 0.75, atol=1e-8)
        # ascent direction pushes the biases apart
        bias_idx = 2  # layout: weights (1x2), bias, log_std
        assert res.grads[1][bias_idx] > 0.0
        assert res.grads[0][bias_idx] < 0.0

    def test_orthogonal_population_saturates(self):
        a = linear_gaussian_policy([[0.0, 0.0]], [0.0], [0.0])
        b = linear_gaussian_policy([[0.0, 0.0]], [50.0], [0.0])
        c = linear_gaussian_policy([[0.0, 0.0]], [-50.0], [0.0])
        batch = StateBatch(np.zeros((2, 2)), "probe")
        res = diversity_objective([a, b, c], batch, beta=0.99, norm_scale=1.0)
        assert res.value > 0.999
        for g in res.grads:
            assert np.max(np.abs(g)) < 1e-6

    @pytest.mark.parametrize("metric", ["w2", "jsd"])
    def test_gradients_match_finite_differences(self, metric):
        from factories import clustered_gaussian_policies, random_discrete_policy
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = 3
            if metric == "w2":
                pols = clustered_gaussian_policies(rng, m)
            else:
                pols = [random_discrete_policy(rng) for _ in range(m)]
            batch = self._batch(rng)
            res = diversity_objective(pols, batch, metric=metric, beta=0.9,
                                      norm_scale=res_scale(pols, batch, metric))
            for i in range(m):
                def val(p, i=i):
                    trial = list(pols)
                    trial[i] = pols[i].with_params(p)
                    return diversity_objective(trial, batch, metric=metric, beta=0.9,
                                               norm_scale=res.norm_scale).value
                fd = central_diff_grad(val, pols[i].params)
                assert grad_close(res.grads[i], fd)

    def test_value_equals_direct_determinant(self):
        rng = np.random.default_rng(10)
        pols = [random_gaussian_policy(rng) for _ in range(4)]
        batch = self._batch(rng)
        res = diversity_objective(pols, batch, beta=0.9)
        k = build_kernel_matrix(pols, batch)
        direct = np.linalg.det(0.9 * k.entries + 0.1 * np.eye(4))
        assert np.isclose(res.value, direct, rtol=1e-10)


def res_scale(pols, batch, metric):
    """Pin the variance-normalization constant so finite differences see a fixed map."""
    from phasic.kernels import kernel_forward
    if metric != "w2":
        return None
    return kernel_forward(pols, batch, metric).scale


class TestDiversityAscent:
    def test_duplicated_triple_strictly_improves(self):
        rng = np.random.default_rng(11)
        base = random_gaussian_policy(rng)
        pols = [base, base.with_params(base.params), base.with_params(base.params)]
        batch = StateBatch(rng.standard_normal((6, 2)), "probe")
        out, trace = diversity_ascent(pols, batch, steps=20, beta=0.99, lr=1e-3,
                                      rng=np.random.default_rng(12))
        assert len(trace) == 21
        assert np.all(np.diff(trace) > -1e-12)
        assert trace[-1] > trace[0]
        from phasic.kernels import kernel_entry
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.array_equal(out[i].params, out[j].params)
                assert kernel_entry(out[i], out[j], batch) < 1.0

    @pytest.mark.parametrize("metric", ["w2", "jsd"])
    @pytest.mark.parametrize("steps", [0, 1, 4])
    def test_one_kernel_forward_per_step(self, monkeypatch, metric, steps):
        import phasic.detops
        rng = np.random.default_rng(27)
        make = random_gaussian_policy if metric == "w2" else random_discrete_policy
        pols = [make(rng) for _ in range(3)]
        batch = StateBatch(rng.standard_normal((5, 2)), "probe")
        start = diversity_objective(pols, batch, metric, beta=0.99)
        scales = []
        real = phasic.detops.kernel_forward

        def counting(*args, **kwargs):
            scales.append(kwargs.get("norm_scale"))
            return real(*args, **kwargs)

        monkeypatch.setattr(phasic.detops, "kernel_forward", counting)
        _, trace = diversity_ascent(pols, batch, steps=steps, metric=metric,
                                    rng=np.random.default_rng(28))
        # the forward that fixes the scale doubles as step 0's forward
        assert len(scales) == steps + 1
        assert len(trace) == steps + 1
        assert scales[0] is None
        assert all(s == start.norm_scale for s in scales[1:])
        assert trace[0] == start.value

    def test_live_inputs_untouched(self):
        rng = np.random.default_rng(13)
        pols = [random_gaussian_policy(rng) for _ in range(3)]
        before = [p.params.copy() for p in pols]
        batch = StateBatch(rng.standard_normal((4, 2)), "probe")
        diversity_ascent(pols, batch, steps=5, rng=np.random.default_rng(1))
        for p, b in zip(pols, before):
            assert np.array_equal(p.params, b)
