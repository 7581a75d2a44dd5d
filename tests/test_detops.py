import numpy as np
import pytest

from factories import (clustered_gaussian_policies, linear_gaussian_policy,
                       log_det_chain, random_discrete_policy,
                       random_gaussian_policy)
from oracles import (central_diff_grad, cofactor_det, grad_close,
                     random_psd_unit_diag)

from phasic.detops import (NotPositiveDefinite, _factor_with_backoff, cholesky,
                           det_via_cholesky, diversity_ascent, spd_inverse,
                           surrogate_det_bound)
from phasic.kernels import StateBatch, kernel_backward, kernel_forward
from phasic.nets import NormalizedPolicy, _Mlp


class TestSurrogate:
    """The blend beta*K + (1-beta)*I as the production blend-and-factor builds it."""

    def test_all_ones_blend(self):
        low, beta_used = _factor_with_backoff(np.ones((2, 2)), 0.5)
        assert beta_used == 0.5
        assert np.allclose(low @ low.T, [[1.0, 0.5], [0.5, 1.0]], rtol=0.0, atol=1e-15)

    def test_identity_fixed_point(self):
        for beta in (0.1, 0.5, 0.99):
            low, beta_used = _factor_with_backoff(np.eye(3), beta)
            assert beta_used == beta
            assert np.array_equal(low, np.eye(3))

    def test_entrywise_arithmetic(self):
        low, _ = _factor_with_backoff(np.array([[1.0, 0.8], [0.8, 1.0]]), 0.9)
        assert np.allclose(low @ low.T, [[1.0, 0.72], [0.72, 1.0]], atol=1e-12)

    def test_diagonal_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = random_psd_unit_diag(4, rng)
            low, _ = _factor_with_backoff(k, float(rng.uniform(0.01, 0.99)))
            # the first pivot is the blend's diagonal itself, pinned to 1
            assert low[0, 0] == 1.0
            assert np.allclose(np.sum(low ** 2, axis=1), 1.0, rtol=0.0, atol=1e-12)

    def test_beta_out_of_range(self):
        rng = np.random.default_rng(0)
        pols = [random_gaussian_policy(rng) for _ in range(2)]
        batch = StateBatch(rng.standard_normal((3, 2)))
        for beta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                diversity_ascent(pols, batch, steps=0, beta=beta, rng=np.random.default_rng(0))
            with pytest.raises(ValueError):
                surrogate_det_bound(2, beta)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_factorization(self):
        low = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(low, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], atol=1e-12)

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
            low = cholesky(spd)
            assert np.allclose(low @ low.T, spd, atol=1e-8)
            assert np.all(np.diag(low) > 0)

    def test_never_fails_on_surrogate_of_valid_kernel(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            k = random_psd_unit_diag(m, rng)
            beta = float(rng.uniform(0.01, 0.995))
            assert _factor_with_backoff(k, beta)[1] == beta  # no backoff needed


class TestDeterminant:
    def test_identity_det(self):
        assert det_via_cholesky(cholesky(np.eye(4))) == 1.0

    def test_hand_det(self):
        low = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert np.isclose(det_via_cholesky(low), 8.0, atol=1e-12)

    def test_duplication_surrogate_det(self):
        low, _ = _factor_with_backoff(np.ones((2, 2)), 0.5)
        assert np.isclose(det_via_cholesky(low), 0.75, atol=1e-12)
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
        sign, log_det = np.linalg.slogdet(spd)
        assert sign == 1.0
        assert np.isclose(np.log(det_via_cholesky(cholesky(spd))), log_det, rtol=1e-10)

    def test_spd_inverse(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        spd = a @ a.T + 5 * np.eye(5)
        inv = spd_inverse(cholesky(spd))
        assert np.allclose(spd @ inv, np.eye(5), atol=1e-9)
        assert np.array_equal(inv, inv.T)  # ascent hands it on as a symmetric upstream


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
            low, beta_used = _factor_with_backoff(k, beta)
            assert beta_used == beta
            assert det_via_cholesky(low) >= surrogate_det_bound(m, beta) - 1e-10

    def test_all_ones_attains_bound(self):
        for m in range(2, 7):
            for beta in (0.1, 0.5, 0.9, 0.99):
                low, _ = _factor_with_backoff(np.ones((m, m)), beta)
                assert abs(det_via_cholesky(low) - surrogate_det_bound(m, beta)) <= 1e-10


class TestDetGradient:
    """d log det(K~) / dK = beta * K~^{-1}, the upstream that ascent hands the
    kernel reverse pass."""

    def test_zero_entry_gradient(self):
        rng = np.random.default_rng(7)
        pols = [random_gaussian_policy(rng) for _ in range(3)]
        fwd = kernel_forward(pols, StateBatch(rng.standard_normal((4, 2))))
        for g, pol in zip(kernel_backward(fwd, np.zeros((3, 3))), pols):
            assert np.array_equal(g, np.zeros(pol.n_params))

    def test_2x2_hand_gradient(self):
        # K~ = [[1, c], [c, 1]] with c = beta * 0.8 = 0.4: log det = log(1 - c^2);
        # moving both off-diagonal base entries by t moves c by beta * t
        beta = 0.5
        low, beta_used = _factor_with_backoff(np.array([[1.0, 0.8], [0.8, 1.0]]), beta)
        upstream = beta_used * spd_inverse(low)
        slope = np.sum(upstream * np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.isclose(slope, beta * -2.0 * 0.4 / (1.0 - 0.4 ** 2), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            k = random_psd_unit_diag(m, rng)
            beta = float(rng.uniform(0.3, 0.99))
            direction = rng.standard_normal((m, m))
            direction = 0.5 * (direction + direction.T)
            np.fill_diagonal(direction, 0.0)
            low, beta_used = _factor_with_backoff(k, beta)
            slope = np.sum(beta_used * spd_inverse(low) * direction)

            def log_det_at(t):
                kk = k + t * direction
                return np.linalg.slogdet(beta * kk + (1 - beta) * np.eye(m))[1]

            fd = (log_det_at(1e-5) - log_det_at(-1e-5)) / 2e-5
            assert np.isclose(slope, fd, rtol=1e-4, atol=1e-10)

    def test_non_pd_rejected(self):
        # off-diagonal 1e6 needs beta < 1e-6; eight halvings of 0.9 stop at 3.5e-3
        with pytest.raises(NotPositiveDefinite):
            _factor_with_backoff(np.array([[1.0, 1e6], [1e6, 1.0]]), 0.9)


class TestDiversityObjective:
    """The log-det value and gradients of the chain one ascent step runs."""

    def _batch(self, rng, n=4, dim=2):
        return StateBatch(rng.standard_normal((n, dim)))

    def test_near_duplicate_pair_value(self):
        # two policies with a vanishing mean offset: det(K~) -> 3/4 at beta=0.5
        a = linear_gaussian_policy([[0.0, 0.0]], [0.0], [0.0])
        b = linear_gaussian_policy([[0.0, 0.0]], [1e-5], [0.0])
        batch = StateBatch(np.zeros((2, 2)))
        _, det, _, grads = log_det_chain([a, b], batch, beta=0.5)
        assert np.isclose(det, 0.75, atol=1e-8)
        # ascent direction pushes the biases apart
        bias_idx = 2  # layout: weights (1x2), bias, log_std
        assert grads[1][bias_idx] > 0.0
        assert grads[0][bias_idx] < 0.0

    def test_orthogonal_population_saturates(self):
        a = linear_gaussian_policy([[0.0, 0.0]], [0.0], [0.0])
        b = linear_gaussian_policy([[0.0, 0.0]], [50.0], [0.0])
        c = linear_gaussian_policy([[0.0, 0.0]], [-50.0], [0.0])
        batch = StateBatch(np.zeros((2, 2)))
        _, det, _, grads = log_det_chain([a, b, c], batch, beta=0.99, norm_scale=1.0)
        assert det > 0.999
        for g in grads:
            assert np.max(np.abs(g)) < 1e-6

    @pytest.mark.parametrize("metric", ["w2", "jsd"])
    def test_gradients_match_finite_differences(self, metric):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = 3
            if metric == "w2":
                pols = clustered_gaussian_policies(rng, m)
            else:
                pols = [random_discrete_policy(rng) for _ in range(m)]
            batch = self._batch(rng)
            fwd, _, _, grads = log_det_chain(pols, batch, metric, beta=0.9)
            for i in range(m):
                def val(p, i=i):
                    trial = list(pols)
                    trial[i] = pols[i].with_params(p)
                    det = log_det_chain(trial, batch, metric, beta=0.9,
                                        norm_scale=fwd.scale)[1]
                    return np.log(det)
                fd = central_diff_grad(val, pols[i].params)
                assert grad_close(grads[i], fd)

    def test_value_equals_direct_determinant(self):
        rng = np.random.default_rng(10)
        pols = [random_gaussian_policy(rng) for _ in range(4)]
        batch = self._batch(rng)
        fwd, det, _, _ = log_det_chain(pols, batch, beta=0.9)
        direct = np.linalg.det(0.9 * fwd.entries + 0.1 * np.eye(4))
        assert np.isclose(det, direct, rtol=1e-10)


class TestDiversityAscent:
    def test_duplicated_triple_strictly_improves(self):
        rng = np.random.default_rng(11)
        base = random_gaussian_policy(rng)
        pols = [base, base.with_params(base.params), base.with_params(base.params)]
        batch = StateBatch(rng.standard_normal((6, 2)))
        out, trace = diversity_ascent(pols, batch, steps=20, beta=0.99, lr=1e-3,
                                      rng=np.random.default_rng(12))
        assert len(trace) == 21
        assert np.all(np.diff(trace) > -1e-12)
        assert trace[-1] > trace[0]
        k = kernel_forward(out, batch).entries
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.array_equal(out[i].params, out[j].params)
                assert k[i, j] < 1.0

    @pytest.mark.parametrize("metric", ["w2", "jsd"])
    @pytest.mark.parametrize("steps", [0, 1, 4])
    def test_one_kernel_forward_per_step(self, monkeypatch, metric, steps):
        import phasic.detops
        rng = np.random.default_rng(27)
        make = random_gaussian_policy if metric == "w2" else random_discrete_policy
        pols = [make(rng) for _ in range(3)]
        batch = StateBatch(rng.standard_normal((5, 2)))
        start, start_det, _, _ = log_det_chain(pols, batch, metric, beta=0.99)
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
        assert all(s == start.scale for s in scales[1:])
        assert trace[0] == start_det

    @pytest.mark.parametrize("metric", ["w2", "jsd"])
    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize("steps", [1, 20])
    def test_one_network_forward_per_policy_and_step(self, monkeypatch, metric, wrap, steps):
        # the reverse pass reuses the layer inputs the kernel forward kept
        rng = np.random.default_rng(32)
        make = random_gaussian_policy if metric == "w2" else random_discrete_policy
        pols = [make(rng) for _ in range(3)]
        if wrap:
            pols = [NormalizedPolicy(p, rng.standard_normal(2), rng.uniform(0.5, 2.0, 2))
                    for p in pols]
        batch = StateBatch(rng.standard_normal((5, 2)))
        real, calls = _Mlp.forward, []

        def counting(self, layers, x):
            calls.append(x.shape)
            return real(self, layers, x)

        monkeypatch.setattr(_Mlp, "forward", counting)
        diversity_ascent(pols, batch, steps=steps, metric=metric,
                         rng=np.random.default_rng(33))
        assert calls == [(5, 2)] * ((steps + 1) * len(pols))

    @pytest.mark.parametrize("metric", ["w2", "jsd"])
    def test_first_step_follows_log_det_chain(self, metric):
        # the chain criterion 1 differentiates is the step ascent takes
        rng = np.random.default_rng(29)
        make = random_gaussian_policy if metric == "w2" else random_discrete_policy
        pols = [make(rng) for _ in range(3)]
        batch = StateBatch(rng.standard_normal((5, 2)))
        _, _, _, grads = log_det_chain(pols, batch, metric, beta=0.99)
        out, _ = diversity_ascent(pols, batch, steps=1, metric=metric, beta=0.99,
                                  lr=1e-3, grad_clip=0.0, rng=np.random.default_rng(30))
        for p, pol, g in zip(out, pols, grads):
            assert np.array_equal(p.params, pol.params + 1e-3 * g)

    def test_live_inputs_untouched(self):
        rng = np.random.default_rng(13)
        pols = [random_gaussian_policy(rng) for _ in range(3)]
        before = [p.params.copy() for p in pols]
        batch = StateBatch(rng.standard_normal((4, 2)))
        diversity_ascent(pols, batch, steps=5, rng=np.random.default_rng(1))
        for p, b in zip(pols, before):
            assert np.array_equal(p.params, b)
