import json
import tracemalloc

import numpy as np
import pytest

from factories import linear_gaussian_policy, random_discrete_policy, random_gaussian_policy
import oracles
from oracles import central_diff_grad, grad_close

from phasic.kernels import StateBatch, kernel_backward, kernel_forward
from phasic.nets import (OBS_CLIP, ActionSpace, NormalizedPolicy, Policy, ValueFunction,
                         load_policy, save_policy, stacked_forward, whiten)
from phasic.optim import Adam


def _cache(net, states):
    """What a ``with_cache=True`` forward of ``net`` on ``states`` hands its backward."""
    if isinstance(net, ValueFunction):
        return net.value_batch(states, with_cache=True)[1]
    if net.action_space.kind == "continuous":
        return net.gaussian_batch(states, with_cache=True)[2]
    return net.probs_batch(states, with_cache=True)[1]


class TestForward:
    def test_zero_final_layer_gives_zero_mean(self):
        rng = np.random.default_rng(0)
        pol = Policy.init(3, ActionSpace("continuous", 2), rng, hidden=(8,))
        params = pol.params.copy()
        params[-(8 * 2 + 2 + 2):-2] = 0.0  # output weights and biases
        params[-2:] = -0.5                # log-std tail
        pol = pol.with_params(params)
        mean, log_std = pol.gaussian_batch(np.ones((1, 3)))
        assert np.array_equal(mean[0], np.zeros(2))
        assert np.allclose(log_std, -0.5)

    def test_hand_set_two_layer_forward(self):
        # tanh hidden layer with identity-ish weights, linear output summing units
        topology = {"obs_dim": 2, "hidden": (2,), "activation": "tanh",
                    "action_space": {"kind": "continuous", "dim": 1}}
        w1 = np.eye(2).ravel()
        b1 = np.zeros(2)
        w2 = np.array([1.0, 1.0])
        b2 = np.zeros(1)
        log_std = np.zeros(1)
        pol = Policy(topology, np.concatenate([w1, b1, w2, b2, log_std]))
        mean, _ = pol.gaussian_batch(np.array([[1.0, 0.0]]))
        assert np.isclose(mean[0, 0], np.tanh(1.0), atol=1e-12)

    def test_linear_policy_matrix_multiply(self):
        pol = linear_gaussian_policy([[1.0, 2.0]], [0.5], [0.0])
        mean, _ = pol.gaussian_batch(np.array([[1.0, 0.0]]))
        assert np.isclose(mean[0, 0], 1.5, atol=1e-15)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(1)
        pol = random_gaussian_policy(rng)
        obs = rng.standard_normal((1, 2))
        mean1, log_std1 = pol.gaussian_batch(obs)
        mean2, log_std2 = pol.gaussian_batch(obs)
        assert np.array_equal(mean1, mean2)
        assert np.array_equal(log_std1, log_std2)

    def test_dimension_mismatch(self):
        pol = linear_gaussian_policy([[1.0]], [0.0], [0.0])
        with pytest.raises(ValueError):
            pol.gaussian_batch(np.zeros((1, 3)))

    def test_discrete_probs_normalized(self):
        rng = np.random.default_rng(2)
        pol = Policy.init(2, ActionSpace("discrete", 4), rng, hidden=(3,))
        probs = pol.probs_batch(rng.standard_normal((6, 2)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs > 0.0)


class TestBackward:
    def test_zero_upstream_zero_gradient(self):
        rng = np.random.default_rng(4)
        pol = random_gaussian_policy(rng)
        states = rng.standard_normal((5, 2))
        g = pol.backward_gaussian(_cache(pol, states), np.zeros((5, 2)), np.zeros(2))
        assert np.array_equal(g, np.zeros(pol.n_params))

    def test_single_linear_layer_gradient_is_outer_product(self):
        pol = linear_gaussian_policy([[0.3, -0.2]], [0.1], [0.0])
        states = np.array([[1.0, 2.0]])
        upstream = np.array([[2.0]])
        g = pol.backward_gaussian(_cache(pol, states), upstream, np.zeros(1))
        # layout: W (1x2), b (1), log_std (1)
        assert np.allclose(g[:2], [2.0, 4.0], atol=1e-15)
        assert np.isclose(g[2], 2.0)
        assert g[3] == 0.0

    def test_matches_finite_differences_gaussian(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            hidden = tuple(rng.integers(2, 5, size=int(rng.integers(0, 3))))
            pol = random_gaussian_policy(rng, hidden=hidden)
            states = rng.standard_normal((int(rng.integers(1, 5)), 2))
            dmu = rng.standard_normal((states.shape[0], 2))
            dls = rng.standard_normal(2)
            g = pol.backward_gaussian(_cache(pol, states), dmu, dls)

            def scalar(p):
                mu, ls = pol.with_params(p).gaussian_batch(states)
                return float(np.sum(mu * dmu) + np.sum(ls * dls))

            assert grad_close(g, central_diff_grad(scalar, pol.params))

    def test_matches_finite_differences_probs(self):
        from factories import random_discrete_policy
        rng = np.random.default_rng(6)
        for _ in range(20):
            pol = random_discrete_policy(rng)
            states = rng.standard_normal((3, 2))
            dp = rng.standard_normal((3, 3))
            g = pol.backward_probs(_cache(pol, states), dp)

            def scalar(p):
                return float(np.sum(pol.with_params(p).probs_batch(states) * dp))

            assert grad_close(g, central_diff_grad(scalar, pol.params))

    def test_log_std_clamp_blocks_gradient(self):
        pol = linear_gaussian_policy([[1.0]], [0.0], [5.0])  # clamped at 2
        g = pol.backward_gaussian(_cache(pol, np.zeros((1, 1))), np.zeros((1, 1)), np.ones(1))
        assert g[-1] == 0.0

    def test_value_function_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            vf = ValueFunction.init(3, rng, hidden=(4,))
            states = rng.standard_normal((4, 3))
            dv = rng.standard_normal(4)
            g = vf.backward(_cache(vf, states), dv)

            def scalar(p):
                return float(np.sum(vf.with_params(p).value_batch(states) * dv))

            assert grad_close(g, central_diff_grad(scalar, vf.params))


def _oracle_cases():
    """Seeded continuous and discrete policies with value functions over several
    depths, each also re-derived through with_params."""
    rng = np.random.default_rng(12)
    cases = []
    for kind, dim in (("continuous", 2), ("discrete", 4)):
        for hidden in ((), (5,), (6, 4)):
            obs_dim = int(rng.integers(1, 5))
            pol = Policy.init(obs_dim, ActionSpace(kind, dim), rng, hidden=hidden)
            pol = pol.with_params(pol.params + 0.4 * rng.standard_normal(pol.n_params))
            vf = ValueFunction.init(obs_dim, rng, hidden=hidden)
            vf = vf.with_params(vf.params + 0.4 * rng.standard_normal(vf.params.size))
            cases.append((pol, vf, rng.standard_normal((7, obs_dim))))
    return cases


class TestForwardBackwardMatchReference:
    """The cached-layout passes equal the reference passes bit for bit."""

    @pytest.mark.parametrize("rows", [1, 7])
    def test_forwards(self, rows):
        for pol, vf, states in _oracle_cases():
            x = states[:rows]
            if pol.action_space.kind == "continuous":
                mu, ls = pol.gaussian_batch(x)
                ref_mu, ref_ls = oracles.gaussian_batch(pol, x)
                assert np.array_equal(mu, ref_mu)
                assert np.array_equal(ls, ref_ls)
            else:
                assert np.array_equal(pol.probs_batch(x), oracles.probs_batch(pol, x))
            assert np.array_equal(vf.value_batch(x), oracles.value_batch(vf, x))
            assert vf.value(x[0]) == oracles.value_batch(vf, x[:1])[0]

    @pytest.mark.parametrize("rows", [1, 7])
    def test_backwards(self, rows):
        rng = np.random.default_rng(13)
        for pol, vf, states in _oracle_cases():
            x = states[:rows]
            dim = pol.action_space.dim
            up = rng.standard_normal((rows, dim))
            # each backward takes the cache of a forward whose outputs are
            # the plain forward's, and gives the reference's gradient
            if pol.action_space.kind == "continuous":
                d_ls = rng.standard_normal(dim)
                mu, ls, cache = pol.gaussian_batch(x, with_cache=True)
                assert np.array_equal(mu, pol.gaussian_batch(x)[0])
                assert np.array_equal(pol.backward_gaussian(cache, up, d_ls),
                                      oracles.backward_gaussian(pol, x, up, d_ls))
                assert np.array_equal(pol.backward_gaussian(cache, up, np.zeros(dim)),
                                      oracles.backward_gaussian(pol, x, up))
            else:
                p, cache = pol.probs_batch(x, with_cache=True)
                assert np.array_equal(p, pol.probs_batch(x))
                assert np.array_equal(pol.backward_logits(cache[0], up),
                                      oracles.backward_logits(pol, x, up))
                assert np.array_equal(pol.backward_probs(cache, up),
                                      oracles.backward_probs(pol, x, up))
            dv = rng.standard_normal(rows)
            v, cache = vf.value_batch(x, with_cache=True)
            assert np.array_equal(v, vf.value_batch(x))
            assert np.array_equal(vf.backward(cache, dv), oracles.value_backward(vf, x, dv))

    @pytest.mark.parametrize("obs_dim,act_dim", [(2, 2), (22, 4)])
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_stacked_forward_equals_per_network(self, obs_dim, act_dim, m):
        """One ``_Mlp.forward`` over stacked (M, in, out) weights gives each
        network's rows the bits of its own pass, one-row inputs included, and
        each one-row block of an (M, T, 1, in) input the bits of its own
        one-row pass."""
        rng = np.random.default_rng(obs_dim + m)
        pols = [random_gaussian_policy(rng, obs_dim, act_dim, hidden=(64, 64))
                for _ in range(m)]
        vfs = [ValueFunction.init(obs_dim, rng, hidden=(64, 64)) for _ in range(m)]
        policy_mean, value_of = stacked_forward(pols), stacked_forward(vfs)
        for rows in (1, 4):
            x = 3.0 * rng.standard_normal((m, rows, obs_dim))
            mu, v = policy_mean(x), value_of(x)
            assert mu.shape == (m, rows, act_dim) and v.shape == (m, rows, 1)
            for i in range(m):
                assert np.array_equal(mu[i], pols[i].gaussian_batch(x[i])[0])
                assert np.array_equal(v[i, :, 0], vfs[i].value_batch(x[i]))
        # (M, T, 1, in) inputs: T one-row passes per network, each with the bits of its own
        x = 3.0 * rng.standard_normal((m, 7, 1, obs_dim))
        mu, v = policy_mean(x), value_of(x)
        assert mu.shape == (m, 7, 1, act_dim) and v.shape == (m, 7, 1, 1)
        for i in range(m):
            for t in range(7):
                assert np.array_equal(mu[i, t], pols[i].gaussian_batch(x[i, t])[0])
                assert v[i, t, 0, 0] == vfs[i].value(x[i, t, 0])
        with pytest.raises(ValueError, match="layout"):
            stacked_forward([pols[0], random_gaussian_policy(rng, obs_dim, act_dim, (8,))])

    def test_clamped_log_std_matches_reference(self):
        pol = linear_gaussian_policy([[1.0], [2.0], [3.0]], [0.0, 0.0, 0.0], [-30.0, 0.5, 5.0])
        x = np.ones((2, 1))
        _, ls = pol.gaussian_batch(x)
        assert np.array_equal(ls, [-20.0, 0.5, 2.0])
        up = np.ones((2, 3))
        assert np.array_equal(pol.backward_gaussian(_cache(pol, x), up, np.ones(3)),
                              oracles.backward_gaussian(pol, x, up, np.ones(3)))


class TestCachedViews:
    def test_layer_views_alias_params_and_are_read_only(self):
        for pol, vf, _ in _oracle_cases():
            for net in (pol, vf):
                for w, wt, b in net._layers:
                    for view in (w, wt, b):
                        assert np.shares_memory(view, net.params)
                        assert not view.flags.writeable

    def test_cached_log_std_cannot_be_written(self):
        pol = linear_gaussian_policy([[1.0]], [0.0], [0.5])
        _, ls = pol.gaussian_batch(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            ls[0] = 0.0
        assert pol.gaussian_batch(np.zeros((1, 1)))[1][0] == 0.5

    def test_with_params_shares_the_layout_not_the_weights(self):
        rng = np.random.default_rng(14)
        pol = random_gaussian_policy(rng, hidden=(4,))
        new = pol.with_params(pol.params + 1.0)
        assert new._mlp is pol._mlp
        assert not np.shares_memory(new.params, pol.params)
        assert np.array_equal(new.gaussian_batch(np.ones((1, 2)))[0],
                              oracles.gaussian_batch(new, np.ones((1, 2)))[0])

    def test_with_params_copies_its_input(self):
        vf = ValueFunction.init(2, np.random.default_rng(15), hidden=(3,))
        raw = vf.params + 0.5
        new = vf.with_params(raw)
        before = new.value(np.ones(2))
        raw[:] = 0.0
        assert new.value(np.ones(2)) == before


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


class TestPassesWriteOnlyWhatTheyMade:
    """The passes work in place only on arrays they allocated themselves: the
    input, the upstream gradient and every cached layer input are left as
    they were (made read-only here, so a write raises)."""

    def test_network_passes(self):
        rng = np.random.default_rng(16)
        for pol, vf, states in _oracle_cases():
            dim = pol.action_space.dim
            x, other, d_out, d_ls, d_v = _read_only(
                states.copy(), rng.standard_normal(states.shape),
                rng.standard_normal((len(states), dim)), rng.standard_normal(dim),
                rng.standard_normal(len(states)))
            for net, dout in ((pol, d_out), (vf, d_v[:, None])):
                _, inputs = net._mlp.forward(net._layers, x)
                net._mlp.backward(net._layers, _read_only(*inputs), dout)
            # each backward on the cache its public forward returned
            if pol.action_space.kind == "continuous":
                cache = pol.gaussian_batch(x, with_cache=True)[2]
                kept = _read_only(*cache)
                pol.backward_gaussian(cache, d_out, d_ls)
                again = lambda: pol.gaussian_batch(other, with_cache=True)
            else:
                cache = pol.probs_batch(x, with_cache=True)[1]
                kept = _read_only(*cache[0], cache[1])
                pol.backward_logits(cache[0], d_out)
                pol.backward_probs(cache, d_out)
                again = lambda: pol.probs_batch(other, with_cache=True)
            v_cache = vf.value_batch(x, with_cache=True)[1]
            kept += _read_only(*v_cache)
            vf.backward(v_cache, d_v)
            # a second forward on other states leaves the first one's cache as it was
            before = [a.tobytes() for a in kept]
            again()
            vf.value_batch(other, with_cache=True)
            assert [a.tobytes() for a in kept] == before

    @pytest.mark.parametrize("shape", [(3, 5, 22), (3, 7, 1, 22)])
    def test_stacked_forward(self, shape):
        rng = np.random.default_rng(17)
        nets = [random_gaussian_policy(rng, 22, 4, hidden=(64, 64)) for _ in range(3)]
        vfs = [ValueFunction.init(22, rng, hidden=(64, 64)) for _ in range(3)]
        (x,) = _read_only(rng.standard_normal(shape))
        assert stacked_forward(nets)(x).shape == shape[:-1] + (4,)
        assert stacked_forward(vfs)(x).shape == shape[:-1] + (1,)

    @pytest.mark.parametrize("metric, mean_only", [("w2", False), ("w2", True), ("jsd", False)],
                             ids=["w2", "w2-mean-only", "jsd"])
    def test_kernel_reverse_pass(self, metric, mean_only):
        # what the forward kept lives inside its reverse pass, so a write into
        # it shows as a second reverse pass that differs from the first
        rng = np.random.default_rng(18)
        make = random_gaussian_policy if metric == "w2" else random_discrete_policy
        pols = [make(rng, hidden=(6, 4)) for _ in range(3)]
        batch = StateBatch(rng.standard_normal((9, 2)))
        _read_only(batch.states)
        fwd = kernel_forward(pols, batch, metric, mean_only)
        upstream, _, _ = _read_only(rng.standard_normal((3, 3)), fwd.entries, fwd.dist)
        first = [g.tobytes() for g in kernel_backward(fwd, upstream)]
        assert [g.tobytes() for g in kernel_backward(fwd, upstream)] == first


class TestTransientAllocation:
    """What a pass allocates and frees again, measured with tracemalloc for one
    dogfight-shaped policy (22 -> 64 -> 64 -> 4) at N = 256 probe states,
    where one (256, 64) float64 activation is 131 072 bytes."""

    ACTIVATION_BYTES = 256 * 64 * 8

    @staticmethod
    def _transient_peak(f):
        """Peak traced memory during ``f`` above what is left once it returns."""
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            kept = f()  # held while the traced memory is read
            current, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        return peak - current

    def test_forward_and_backward(self):
        rng = np.random.default_rng(19)
        pol = Policy.init(22, ActionSpace("continuous", 4), rng, hidden=(64, 64))
        x = rng.standard_normal((256, 22))
        d_mu, d_ls = rng.standard_normal((256, 4)), rng.standard_normal(4)
        cache = pol.gaussian_batch(x, with_cache=True)[2]
        forward = self._transient_peak(lambda: pol.gaussian_batch(x, with_cache=True))
        backward = self._transient_peak(lambda: pol.backward_gaussian(cache, d_mu, d_ls))
        # each layer keeps its matmul's result and adds bias and tanh in place
        assert forward < self.ACTIVATION_BYTES
        # the reverse pass holds dz, dz @ W and tanh' of one layer at a time
        assert backward < 3.5 * self.ACTIVATION_BYTES


class TestImmutabilityAndSerialization:
    def test_params_read_only(self):
        pol = linear_gaussian_policy([[1.0]], [0.0], [0.0])
        with pytest.raises(ValueError):
            pol.params[0] = 7.0

    def test_with_params_leaves_original(self):
        pol = linear_gaussian_policy([[1.0]], [0.0], [0.0])
        new = pol.with_params(pol.params + 1.0)
        assert pol.params[0] == 1.0
        assert new.params[0] == 2.0

    def test_blob_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        pol = random_gaussian_policy(rng, hidden=(4, 3))
        path = tmp_path / "pol.npz"
        save_policy(path, pol, extra={"obs_mean": np.arange(2.0)})
        loaded, extra = load_policy(path)
        assert np.array_equal(loaded.params, pol.params)
        assert np.array_equal(extra["obs_mean"], np.arange(2.0))
        obs = rng.standard_normal((1, 2))
        mean_a, log_std_a = pol.gaussian_batch(obs)
        mean_b, log_std_b = loaded.gaussian_batch(obs)
        assert np.array_equal(mean_a, mean_b)
        assert np.array_equal(log_std_a, log_std_b)

    def test_blobs_name_the_tanh_activation(self, tmp_path):
        pol = random_gaussian_policy(np.random.default_rng(9), hidden=(3,))
        assert pol.topology["activation"] == "tanh"
        save_policy(tmp_path / "pol.npz", pol)
        assert load_policy(tmp_path / "pol.npz")[0].topology["activation"] == "tanh"

    def test_other_activations_are_rejected(self, tmp_path):
        pol = random_gaussian_policy(np.random.default_rng(9), hidden=(3,))
        relu = dict(pol.topology, activation="relu")
        with pytest.raises(ValueError, match="activation"):
            Policy(relu, pol.params)
        vf = ValueFunction.init(2, np.random.default_rng(9), hidden=(3,))
        with pytest.raises(ValueError, match="activation"):
            ValueFunction(dict(vf.topology, activation="relu"), vf.params)
        # a blob naming another activation does not load
        save_policy(tmp_path / "relu.npz", pol)
        with np.load(tmp_path / "relu.npz") as blob:
            arrays = dict(blob)
        arrays["topology"] = np.frombuffer(json.dumps(relu).encode(), dtype=np.uint8)
        np.savez(tmp_path / "relu.npz", **arrays)
        with pytest.raises(ValueError, match="activation"):
            load_policy(tmp_path / "relu.npz")

    def test_seeded_init_reproducible(self):
        a = Policy.init(3, ActionSpace("continuous", 2), np.random.default_rng(42))
        b = Policy.init(3, ActionSpace("continuous", 2), np.random.default_rng(42))
        assert np.array_equal(a.params, b.params)


class TestNormalizedPolicy:
    def test_observation_transform_applied(self):
        pol = linear_gaussian_policy([[1.0]], [0.0], [0.0])
        wrapped = NormalizedPolicy(pol, obs_mean=np.array([2.0]), obs_std=np.array([4.0]))
        mean, _ = wrapped.gaussian_batch(np.array([[6.0]]))
        assert np.isclose(mean[0, 0], 1.0)  # (6-2)/4

    def test_gradients_respect_transform(self):
        rng = np.random.default_rng(10)
        pol = random_gaussian_policy(rng)
        wrapped = NormalizedPolicy(pol, rng.standard_normal(2), rng.uniform(0.5, 2.0, 2))
        states = rng.standard_normal((4, 2))
        dmu = rng.standard_normal((4, 2))
        g = wrapped.backward_gaussian(_cache(wrapped, states), dmu, np.zeros(2))

        def scalar(p):
            mu, _ = wrapped.with_params(p).gaussian_batch(states)
            return float(np.sum(mu * dmu))

        assert grad_close(g, central_diff_grad(scalar, wrapped.params))

    @pytest.mark.parametrize("kind", ["continuous", "discrete"])
    def test_reverse_pass_is_the_policy_s_on_the_whitened_batch(self, kind):
        # a view's cache starts with the whitened, clamped batch, and its
        # backward is the raw policy's on that batch
        rng = np.random.default_rng(14)
        make = random_gaussian_policy if kind == "continuous" else random_discrete_policy
        pol = make(rng)
        # the small first std clamps some whitened rows
        wrapped = NormalizedPolicy(pol, rng.standard_normal(2), np.array([0.05, 1.5]))
        states = rng.uniform(-3.0, 3.0, (9, 2))
        white = whiten(states, wrapped.obs_mean, wrapped.obs_std)
        up = rng.standard_normal((9, pol.action_space.dim))
        cache = _cache(wrapped, states)
        if kind == "continuous":
            d_ls = rng.standard_normal(pol.action_space.dim)
            assert np.array_equal(wrapped.gaussian_batch(states, with_cache=True)[0],
                                  wrapped.gaussian_batch(states)[0])
            assert np.array_equal(wrapped.backward_gaussian(cache, up, d_ls),
                                  pol.backward_gaussian(_cache(pol, white), up, d_ls))
            inputs = cache
        else:
            assert np.array_equal(cache[1], wrapped.probs_batch(states))
            assert np.array_equal(wrapped.backward_probs(cache, up),
                                  pol.backward_probs(_cache(pol, white), up))
            inputs = cache[0]
        assert np.array_equal(inputs[0], white)
        assert np.any(np.abs(inputs[0]) == OBS_CLIP)


class TestAdam:
    def test_descends_quadratic(self):
        opt = Adam(size=2, lr=0.1)
        x = np.array([3.0, -2.0])
        for _ in range(300):
            x = opt.step(x, 2.0 * x)
        assert np.max(np.abs(x)) < 1e-2

    def test_state_round_trip_bit_identical(self):
        rng = np.random.default_rng(11)
        opt = Adam(size=4, lr=0.01)
        x = rng.standard_normal(4)
        for _ in range(5):
            x = opt.step(x, rng.standard_normal(4))
        clone = Adam.from_state(opt.state_dict())
        g = rng.standard_normal(4)
        assert np.array_equal(opt.step(x.copy(), g), clone.step(x.copy(), g))
