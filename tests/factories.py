"""Small policy/network factories and the production ascent chain, shared
across test modules."""

import numpy as np

from phasic.detops import _factor_with_backoff, det_via_cholesky, spd_inverse
from phasic.kernels import kernel_backward, kernel_forward
from phasic.nets import ActionSpace, NormalizedPolicy, Policy


def linear_gaussian_policy(w, b, log_std) -> Policy:
    """Continuous policy with no hidden layer: mean = W obs + b."""
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    log_std = np.broadcast_to(np.asarray(log_std, dtype=np.float64), (w.shape[0],))
    topology = {"obs_dim": w.shape[1], "hidden": (), "activation": "tanh",
                "action_space": {"kind": "continuous", "dim": w.shape[0]}}
    return Policy(topology, np.concatenate([w.ravel(), b, log_std]))


def linear_discrete_policy(w, b) -> Policy:
    """Discrete policy with no hidden layer: logits = W obs + b."""
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    topology = {"obs_dim": w.shape[1], "hidden": (), "activation": "tanh",
                "action_space": {"kind": "discrete", "dim": w.shape[0]}}
    return Policy(topology, np.concatenate([w.ravel(), b]))


def random_gaussian_policy(rng, obs_dim=2, act_dim=2, hidden=(3,), scale=1.0) -> Policy:
    log_std = float(rng.uniform(-0.5, 0.3))  # drawn before the layers
    pol = Policy.init(obs_dim, ActionSpace("continuous", act_dim), rng, hidden=hidden)
    params = pol.params.copy()
    params[-act_dim:] = log_std
    params += scale * 0.3 * rng.standard_normal(pol.n_params)
    return pol.with_params(params)


def random_discrete_policy(rng, obs_dim=2, n_actions=3, hidden=(3,)) -> Policy:
    pol = Policy.init(obs_dim, ActionSpace("discrete", n_actions), rng, hidden=hidden)
    params = pol.params + 0.3 * rng.standard_normal(pol.n_params)
    return pol.with_params(params)


def view(policy) -> NormalizedPolicy:
    """``policy`` behind the identity normalizer (mean 0, std 1), as the archive stores it."""
    obs_dim = policy.topology["obs_dim"]
    return NormalizedPolicy(policy, np.zeros(obs_dim), np.ones(obs_dim))


def clustered_gaussian_policies(rng, m, spread=0.05, obs_dim=2, act_dim=2, hidden=(3,)):
    """Population of small mutual distance, keeping the normalized kernel
    away from its saturated (near-identity) regime."""
    base = random_gaussian_policy(rng, obs_dim=obs_dim, act_dim=act_dim, hidden=hidden)
    return [base.with_params(base.params + spread * rng.standard_normal(base.n_params))
            for _ in range(m)]


def log_det_chain(policies, batch, metric="w2", beta=0.99, norm_scale=None):
    """One step of what diversity_ascent runs: kernel forward, blend-and-factor,
    d log det / dK = beta_used * K~^-1, kernel backward.

    Returns (forward cache, det of the blend, beta used, log-det gradients).
    """
    fwd = kernel_forward(policies, batch, metric, norm_scale=norm_scale)
    factor, beta_used = _factor_with_backoff(fwd.entries, beta)
    grads = kernel_backward(fwd, beta_used * spd_inverse(factor))
    return fwd, det_via_cholesky(factor), beta_used, grads
