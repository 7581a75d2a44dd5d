import numpy as np
import pytest

import oracles
from factories import (linear_discrete_policy, linear_gaussian_policy,
                       random_discrete_policy, random_gaussian_policy)
from oracles import (LN2, DiagGaussian, DiscreteDist, central_diff_grad, f_js,
                     grad_close, jsd, kernel_invariant_violations,
                     mc_w2_diag_gaussian, w2_squared_diag, w2_squared_full)

from phasic import kernels
from phasic.kernels import StateBatch, kernel_backward, kernel_forward, last_axis_sum
from phasic.nets import NormalizedPolicy


class TestJsd:
    def test_identical_is_zero(self):
        p = DiscreteDist(np.array([0.5, 0.5]))
        assert jsd(p, p) == 0.0

    def test_disjoint_support_is_ln2(self):
        p = DiscreteDist(np.array([1.0, 0.0]))
        q = DiscreteDist(np.array([0.0, 1.0]))
        assert np.isclose(jsd(p, q), LN2, atol=1e-12)

    def test_hand_summed_value(self):
        # p=(0.9,0.1), q=(0.1,0.9): m=(0.5,0.5), both KL terms written out
        p = DiscreteDist(np.array([0.9, 0.1]))
        q = DiscreteDist(np.array([0.1, 0.9]))
        kl = 0.9 * np.log(0.9 / 0.5) + 0.1 * np.log(0.1 / 0.5)
        expected = 0.5 * kl + 0.5 * kl
        assert np.isclose(jsd(p, q), expected, atol=1e-12)
        assert np.isclose(jsd(p, q), 0.3680642071684971, atol=1e-12)

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError):
            jsd(DiscreteDist(np.array([1.0])), DiscreteDist(np.array([0.5, 0.5])))

    def test_bounds_and_symmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            p = DiscreteDist(rng.dirichlet(np.ones(n)))
            q = DiscreteDist(rng.dirichlet(np.ones(n)))
            d1, d2 = jsd(p, q), jsd(q, p)
            assert np.isclose(d1, d2, atol=1e-12)
            assert 0.0 <= d1 <= LN2
            assert jsd(p, p) == 0.0


class TestFjs:
    def test_endpoints_and_midpoint(self):
        assert f_js(0.0) == 1.0
        assert np.isclose(f_js(LN2), 0.0, atol=1e-15)
        assert np.isclose(f_js(LN2 / 2), 0.5, atol=1e-15)

    def test_out_of_range_clamped(self):
        assert f_js(-0.1) == 1.0
        assert f_js(LN2 + 0.1) == 0.0


class TestW2:
    def test_identical_zero(self):
        a = DiagGaussian(np.array([0.3]), np.array([0.2]))
        assert w2_squared_diag(a, a) == 0.0

    def test_mean_shift_hand_value(self):
        a = DiagGaussian(np.array([0.0]), np.array([0.0]))
        b = DiagGaussian(np.array([2.0]), np.array([0.0]))
        assert np.isclose(w2_squared_diag(a, b), 4.0, atol=1e-12)

    def test_std_term_hand_value(self):
        # covariances diag(1,1) vs diag(4,1): stds (1,1) vs (2,1) -> (2-1)^2 = 1
        a = DiagGaussian(np.zeros(2), np.log(np.array([1.0, 1.0])))
        b = DiagGaussian(np.zeros(2), np.log(np.array([2.0, 1.0])))
        assert np.isclose(w2_squared_diag(a, b), 1.0, atol=1e-12)

    def test_mean_only_variant_drops_std_term(self):
        a = DiagGaussian(np.array([1.0]), np.array([0.5]))
        b = DiagGaussian(np.array([3.0]), np.array([-0.5]))
        assert np.isclose(w2_squared_diag(a, b, mean_only=True), 4.0, atol=1e-12)

    def test_metric_squared_properties_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            dim = int(rng.integers(1, 4))
            a = DiagGaussian(rng.standard_normal(dim), rng.uniform(-1, 1, dim))
            b = DiagGaussian(rng.standard_normal(dim), rng.uniform(-1, 1, dim))
            dab, dba = w2_squared_diag(a, b), w2_squared_diag(b, a)
            assert np.isclose(dab, dba, rtol=1e-12)
            assert dab >= 0.0
            assert w2_squared_diag(a, a) == 0.0
        # identity of indiscernibles: nonzero parameter gap -> nonzero distance
        a = DiagGaussian(np.array([0.0]), np.array([0.0]))
        b = DiagGaussian(np.array([1e-6]), np.array([0.0]))
        assert w2_squared_diag(a, b) > 0.0

    def test_full_equals_diag_on_diagonal_covariances(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            m1, m2 = rng.standard_normal(dim), rng.standard_normal(dim)
            v1, v2 = rng.uniform(0.1, 2.0, dim), rng.uniform(0.1, 2.0, dim)
            a = DiagGaussian(m1, 0.5 * np.log(v1))
            b = DiagGaussian(m2, 0.5 * np.log(v2))
            full = w2_squared_full(m1, np.diag(v1), m2, np.diag(v2))
            assert np.isclose(full, w2_squared_diag(a, b), atol=1e-9)

    def test_full_identity_case(self):
        assert np.isclose(w2_squared_full(np.zeros(2), np.eye(2), np.zeros(2), np.eye(2)),
                          0.0, atol=1e-12)

    def test_full_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            w2_squared_full(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]),
                            np.zeros(2), np.eye(2))

    def test_full_against_monte_carlo_transport(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dim = int(rng.integers(1, 4))
            m1, m2 = rng.standard_normal(dim), rng.standard_normal(dim)
            s1, s2 = rng.uniform(0.3, 1.5, dim), rng.uniform(0.3, 1.5, dim)
            closed = w2_squared_full(m1, np.diag(s1 ** 2), m2, np.diag(s2 ** 2))
            mc = mc_w2_diag_gaussian(m1, s1, m2, s2, 100_000, rng)
            assert abs(closed - mc) <= 0.05 * max(abs(mc), 1e-6)


class TestVarianceNormalize:
    """The off-diagonal std normalization inside the W2 kernel forward."""

    def test_equal_entries_unchanged(self):
        # unit-vector means: every pairwise squared distance is exactly 2
        pols = [linear_gaussian_policy(np.zeros((3, 1)), np.eye(3)[i], 0.0) for i in range(3)]
        fwd = kernel_forward(pols, StateBatch(np.zeros((1, 1))))
        assert fwd.scale == 1.0
        assert np.array_equal(fwd.entries[~np.eye(3, dtype=bool)], np.full(6, np.exp(-1.0)))

    def test_zero_matrix_unchanged(self):
        pol = linear_gaussian_policy([[1.0]], [0.0], [0.0])
        fwd = kernel_forward([pol] * 3, StateBatch(np.array([[0.5]])))
        assert fwd.scale == 1.0
        assert np.array_equal(fwd.entries, np.ones((3, 3)))

    def test_hand_computed_std(self):
        # biases 0, 1, 3: squared distances 1, 9, 4
        pols = [linear_gaussian_policy([[0.0]], [b], [0.0]) for b in (0.0, 1.0, 3.0)]
        fwd = kernel_forward(pols, StateBatch(np.zeros((1, 1))))
        sq = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]])
        std = np.std([1.0, 4.0, 9.0])  # duplication across the diagonal cancels
        assert np.isclose(fwd.scale, std, rtol=1e-15)
        assert np.allclose(fwd.entries, np.exp(-0.5 * sq / std), rtol=1e-14)
        assert np.all(np.diag(fwd.entries) == 1.0)


class TestKernelEntry:
    """Single entries of the population kernel and their reverse pass."""

    def _batch(self, n=3, dim=1):
        return StateBatch(states=np.arange(n * dim, dtype=np.float64).reshape(n, dim))

    def _entry(self, a, b, batch, metric="w2", deterministic=False):
        return kernel_forward([a, b], batch, metric, deterministic).entries[0, 1]

    def test_same_policy_gives_one(self):
        pol = linear_gaussian_policy([[1.0]], [0.0], [0.0])
        assert self._entry(pol, pol, self._batch()) == 1.0

    def test_distant_policies_decay_to_zero(self):
        a = linear_gaussian_policy([[0.0]], [0.0], [0.0])
        b = linear_gaussian_policy([[0.0]], [100.0], [0.0])
        assert self._entry(a, b, self._batch()) < 1e-12

    def test_three_probe_states_hand_average(self):
        a = linear_gaussian_policy([[1.0]], [0.0], [0.0])
        b = linear_gaussian_policy([[0.5]], [0.25], [0.0])
        batch = StateBatch(states=np.array([[0.0], [1.0], [2.0]]))
        # per-state mean differences -0.25, 0.25, 0.75 (stds equal); the
        # kernel maps the state-averaged squared distance (M=2: scale 1)
        expected = np.exp(-0.5 * np.mean([0.0625, 0.0625, 0.5625]))
        assert np.isclose(self._entry(a, b, batch), expected, atol=1e-12)

    def test_deterministic_flag_drops_std_term(self):
        a = linear_gaussian_policy([[0.0]], [0.0], [0.0])
        b = linear_gaussian_policy([[0.0]], [0.0], [1.0])
        batch = self._batch()
        assert self._entry(a, b, batch, deterministic=True) == 1.0
        assert self._entry(a, b, batch, deterministic=False) < 1.0

    def test_jsd_metric_on_discrete(self):
        a = linear_discrete_policy([[1.0], [0.0]], [0.0, 0.0])
        b = linear_discrete_policy([[1.0], [0.0]], [0.0, 0.0])
        assert np.isclose(self._entry(a, b, self._batch(), metric="jsd"), 1.0)

    def test_metric_action_space_mismatch(self):
        cont = linear_gaussian_policy([[1.0]], [0.0], [0.0])
        disc = linear_discrete_policy([[1.0], [0.0]], [0.0, 0.0])
        with pytest.raises(ValueError):
            kernel_forward([cont, cont], self._batch(), metric="jsd")
        with pytest.raises(ValueError):
            kernel_forward([disc, disc], self._batch(), metric="w2")
        with pytest.raises(ValueError):
            kernel_forward([cont, disc], self._batch(), metric="w2")

    def test_state_permutation_invariance(self):
        rng = np.random.default_rng(4)
        pols = [random_gaussian_policy(rng) for _ in range(3)]
        states = rng.standard_normal((8, 2))
        perm = rng.permutation(8)
        e1 = kernel_forward(pols, StateBatch(states)).entries
        e2 = kernel_forward(pols, StateBatch(states[perm])).entries
        assert np.allclose(e1, e2, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("metric", ["w2", "jsd"])
    @pytest.mark.parametrize("deterministic", [False, True])
    def test_entry_gradients_match_finite_differences(self, metric, deterministic):
        if metric == "jsd" and deterministic:
            pytest.skip("flag only affects the W2 path")
        rng = np.random.default_rng(5)
        make = random_gaussian_policy if metric == "w2" else random_discrete_policy
        upstream = np.zeros((3, 3))
        upstream[0, 1] = 1.0  # d entry[0, 1]
        for _ in range(25):
            pols = [make(rng) for _ in range(3)]
            batch = StateBatch(rng.standard_normal((4, 2)))
            fwd = kernel_forward(pols, batch, metric, deterministic)
            grads = kernel_backward(fwd, upstream)
            for i in range(3):
                def entry(p, i=i):
                    trial = list(pols)
                    trial[i] = pols[i].with_params(p)
                    return kernel_forward(trial, batch, metric, deterministic,
                                          norm_scale=fwd.scale).entries[0, 1]
                assert grad_close(grads[i], central_diff_grad(entry, pols[i].params))


class TestKernelMatrix:
    def test_duplicate_pair_all_ones(self):
        pol = linear_gaussian_policy([[1.0]], [0.0], [0.0])
        batch = StateBatch(np.array([[0.0], [1.0]]))
        k = kernel_forward([pol, pol.with_params(pol.params)], batch).entries
        assert np.array_equal(k, np.ones((2, 2)))

    def test_normalized_unit_distance_entry(self):
        # M=2: the normalization std over a single repeated value is 0, so the
        # guard passes raw distances through; raw d^2 = 1 -> exp(-1/2)
        a = linear_gaussian_policy([[0.0]], [0.0], [0.0])
        b = linear_gaussian_policy([[0.0]], [1.0], [0.0])
        batch = StateBatch(np.array([[0.0], [1.0]]))
        k = kernel_forward([a, b], batch).entries
        assert np.isclose(k[0, 1], np.exp(-0.5), atol=1e-12)

    def test_duplicated_pair_inside_triple(self):
        a = linear_gaussian_policy([[0.0]], [0.0], [0.0])
        b = linear_gaussian_policy([[0.0]], [1.0], [0.0])
        batch = StateBatch(np.array([[0.0]]))
        k = kernel_forward([a, a.with_params(a.params), b], batch).entries
        assert np.isclose(k[0, 1], 1.0, atol=1e-12)
        assert kernel_invariant_violations(k) == []

    def test_psd_on_random_populations(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            m = int(rng.integers(2, 6))
            pols = [random_gaussian_policy(rng) for _ in range(m)]
            batch = StateBatch(rng.standard_normal((4, 2)))
            k = kernel_forward(pols, batch, deterministic=bool(rng.integers(0, 2))).entries
            assert kernel_invariant_violations(k) == []

    def test_psd_on_random_discrete_populations(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            pols = [random_discrete_policy(rng) for _ in range(m)]
            batch = StateBatch(rng.standard_normal((4, 2)))
            k = kernel_forward(pols, batch, metric="jsd").entries
            assert kernel_invariant_violations(k) == []

    def test_invariant_violations_rejected(self):
        assert kernel_invariant_violations(np.array([[1.0, 0.5], [0.4, 1.0]])) == ["asymmetric"]
        assert kernel_invariant_violations(np.array([[0.9, 0.5], [0.5, 1.0]])) == ["diagonal"]
        assert kernel_invariant_violations(np.array([[1.0, 1.5], [1.5, 1.0]])) == ["range"]
        assert kernel_invariant_violations(np.array(
            [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])) == ["not PSD"]

    def test_pinned_norm_scale_reproduces_entries(self):
        rng = np.random.default_rng(8)
        pols = [random_gaussian_policy(rng) for _ in range(3)]
        batch = StateBatch(rng.standard_normal((5, 2)))
        k1 = kernel_forward(pols, batch)
        k2 = kernel_forward(pols, batch, norm_scale=k1.scale)
        assert np.array_equal(k1.entries, k2.entries)

    @pytest.mark.parametrize("scale", [0.0, -0.0, -1e-6, -1.0, np.nan, np.inf])
    def test_norm_scale_must_be_positive_and_finite(self, scale):
        """0 divides by zero, a negative scale gives entries above 1 (-1e-6
        gave 145.5), NaN a NaN kernel and inf an all-ones one."""
        rng = np.random.default_rng(8)
        pols = [random_gaussian_policy(rng) for _ in range(3)]
        batch = StateBatch(rng.standard_normal((5, 2)))
        with pytest.raises(ValueError, match="norm_scale"):
            kernel_forward(pols, batch, norm_scale=scale)


class TestLoopReference:
    """The all-pairs passes give the bits of the pair-by-pair, state-by-state
    reference in oracles.py, forward caches and every gradient included."""

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    @pytest.mark.parametrize("metric,deterministic",
                             [("w2", False), ("w2", True), ("jsd", False)])
    def test_bitwise_equal_to_loop_reference(self, metric, deterministic, m):
        make = random_gaussian_policy if metric == "w2" else random_discrete_policy
        for case in range(20):
            rng = np.random.default_rng([m, case])
            self._check(self._near_duplicate_pair([make(rng) for _ in range(m)], rng),
                        rng, metric, deterministic, pinned=not case % 2)

    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("metric,deterministic",
                             [("w2", False), ("w2", True), ("jsd", False)])
    def test_views_bitwise_equal_to_loop_reference(self, metric, deterministic, m):
        """Views whiten and clamp; the reverse pass takes the whitened batch
        from the forward's cache, the reference whitens again."""
        make = random_gaussian_policy if metric == "w2" else random_discrete_policy
        for case in range(10):
            rng = np.random.default_rng([m, case, 1])
            pols = self._near_duplicate_pair([make(rng) for _ in range(m)], rng)
            norms = [(rng.normal(0.0, 0.5, 2), rng.uniform(0.05, 2.0, 2)) for _ in range(m)]
            norms[1] = norms[0]  # the near-duplicate pair shares one normalizer
            views = [NormalizedPolicy(p, mean, std) for p, (mean, std) in zip(pols, norms)]
            self._check(views, rng, metric, deterministic, pinned=not case % 2)

    @staticmethod
    def _near_duplicate_pair(pols, rng):
        # a near-duplicate pair sits at the normalization floor's edge
        pols[1] = pols[0].with_params(
            pols[0].params + 1e-7 * rng.standard_normal(pols[0].n_params))
        return pols

    @staticmethod
    def _check(pols, rng, metric, deterministic, pinned):
        m = len(pols)
        batch = StateBatch(rng.uniform(-1.0, 1.0, (int(rng.integers(1, 40)), 2)))
        scale = float(rng.uniform(0.1, 2.0)) if pinned else None
        fwd = kernel_forward(pols, batch, metric, deterministic, scale)
        ref = oracles.kernel_forward(pols, batch, metric, deterministic, scale)
        assert np.array_equal(fwd.entries, ref.entries)
        assert fwd.scale == ref.scale
        upstream = rng.standard_normal((m, m))
        for g, g_ref in zip(kernel_backward(fwd, upstream),
                            oracles.kernel_backward(ref, upstream)):
            assert np.array_equal(g, g_ref)


class TestRunningTotals:
    """The kernel's two sums over a long or strided axis are running totals:
    the bits of the last slice of a full ``np.cumsum``, which pairwise
    ``np.sum`` need not give."""

    @staticmethod
    def _assert_same_bytes(got, ref):
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("m", [2, 3, 5, 9])
    def test_w2_log_std_total_over_partners(self, m):
        """The log-std tail of each W2 gradient adds partner j's term
        2 d_sq[i, j] (s_i - s_j) s_i one j after another."""
        rng = np.random.default_rng(m)
        # action 0 shares one log-std, so its terms are signed zeros (or nan)
        log_stds = np.stack([np.full(m, -0.3), rng.uniform(-19.0, 1.9, m)], axis=1)
        pols = [linear_gaussian_policy(0.1 * rng.standard_normal((2, 2)), np.zeros(2), ls)
                for ls in log_stds]
        fwd = kernel_forward(pols, StateBatch(rng.uniform(-1.0, 1.0, (7, 2))), norm_scale=1.0)
        # magnitudes 1e-8..1e8 so the summation order shows in the bits
        upstream = rng.standard_normal((m, m)) * 10.0 ** rng.uniform(-8, 8, (m, m))
        upstream[0], upstream[:, 0] = np.abs(upstream[0]), np.abs(upstream[:, 0])
        if m > 2:
            upstream[1, 2] = np.inf                          # ±inf terms in rows 1 and 2
            upstream[2, 2] = np.nan                          # a nan term in row 2
        with np.errstate(invalid="ignore", over="ignore"):
            got = np.stack([g[-2:] for g in kernel_backward(fwd, upstream)])
            d_sq = -(upstream + upstream.T) * fwd.entries / (2.0 * fwd.scale)
            stds = np.exp(log_stds)
            terms = (d_sq * 2.0)[:, :, None] * (stds[:, None] - stds[None, :]) * stds[:, None]
        self._assert_same_bytes(got, oracles.cumsum_total(terms, axis=1))
        assert np.signbit(got[0, 0]) and got[0, 0] == 0.0  # every term -0.0
        if m > 2:
            assert np.isinf(got[1, 1]) and np.isnan(got[2]).all()

    def test_jsd_probe_mean(self, monkeypatch):
        """Each JSD kernel entry is the running total of its N = 64 probe
        similarities over N, whatever the distances hold."""
        m, n = 5, 64
        rng = np.random.default_rng(0)
        # similarities 1e-8..1 so the summation order shows in the bits
        dist = LN2 * (1.0 - 10.0 ** rng.uniform(-8, 0, (m, m, n)))
        dist[0, 1, :3] = -0.0, np.inf, -np.inf
        dist[1, 2, 5] = np.nan
        monkeypatch.setattr(kernels, "_jsd", lambda policies, states: (dist, None))
        pols = [linear_discrete_policy(np.zeros((2, 2)), np.zeros(2)) for _ in range(m)]
        with np.errstate(invalid="ignore"):
            k = kernel_forward(pols, StateBatch(np.zeros((n, 2))), "jsd").entries
            sims = np.vectorize(f_js)(dist)
        ref = oracles.cumsum_total(sims, axis=-1) / n
        np.fill_diagonal(ref, 1.0)
        self._assert_same_bytes(k, ref)
        assert np.isnan(k[1, 2]) and not np.isnan(k[0, 1])
        off = ~np.eye(m, dtype=bool)
        assert not np.array_equal(k[off], (np.sum(sims, axis=-1) / n)[off])


class TestLastAxisSum:
    """``last_axis_sum`` gives the bytes of ``np.sum`` over the last axis,
    below numpy's 8-term pairwise cutoff and above it, and of the squares as
    the W2 forward takes them."""

    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300,
                        5e-324, -5e-324, 2.2e-308, 1.0, -3.5])

    def _inputs(self, length):
        rng = np.random.default_rng(length)
        x = rng.choice(self.SPECIAL, size=(6, 50, length))
        x[0, :5] = -0.0  # all -0.0 rows: the running total is -0.0, np.sum's +0.0
        x[1, 0, 0], x[1, 0, -1] = np.inf, -np.inf  # inf - inf where there are two terms
        x[2] = rng.standard_normal((50, length)) * 10.0 ** rng.uniform(-300, 300, (50, length))
        return x

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6, 7, 8, 9, 17])
    def test_bytes_of_np_sum(self, length):
        x = self._inputs(length)
        x.setflags(write=False)
        with np.errstate(invalid="ignore", over="ignore"):
            got, ref = last_axis_sum(x), np.sum(x, axis=-1)
            squares, squares_ref = last_axis_sum(x * x), np.sum(x ** 2, axis=-1)
        for a, b in ((got, ref), (squares, squares_ref)):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        if length < 8:
            assert not np.signbit(got[0, :5]).any()  # the + 0.0 made the -0.0 totals +0.0
            assert np.isnan(got[1, 0]) or length == 1
