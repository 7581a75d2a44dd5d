"""The population similarity kernel and its reverse pass.

Similarity between two stochastic policies is estimated on a batch of probe
states: for each state the distance between the two action distributions is
computed (Jensen-Shannon divergence for discrete actions, squared
2-Wasserstein for diagonal Gaussians) and mapped into [0, 1].  Stacking all
pairwise similarities gives a symmetric positive-semidefinite matrix with
unit diagonal whose determinant scores the diversity of the population.

Both passes are array operations over all pairs at once; gradients with
respect to policy parameters come from a hand-written reverse pass that
mirrors the forward computation exactly.  The forward keeps each network's
layer inputs for the reverse pass to reuse, so a forward and its reverse
pass run each network once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

# population std below this is treated as zero and normalization is skipped
NORM_STD_FLOOR = 1e-12

# the action-space kind each population metric compares
METRIC_KINDS = {"w2": "continuous", "jsd": "discrete"}


@dataclass(frozen=True)
class StateBatch:
    """Probe observations the similarity expectation is taken over."""

    states: np.ndarray  # (N, obs_dim)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.float64)
        if states.ndim != 2 or states.shape[0] == 0:
            raise ValueError("states must be a non-empty (N, obs_dim) array")
        if not np.all(np.isfinite(states)):
            raise ValueError("non-finite probe states")
        object.__setattr__(self, "states", states)


@dataclass
class KernelForward:
    """Cached forward pass of a population kernel build (for reverse mode).

    ``caches`` holds each policy's layer inputs (a discrete one's also its
    probabilities), so ``kernel_backward`` runs no network forward again.
    """

    policies: list
    batch: StateBatch
    metric: str
    deterministic: bool
    entries: np.ndarray                # (M, M) kernel values
    scale: float                       # W2 normalization constant actually applied
    stds: np.ndarray | None = None     # W2: (M, A) action stds
    diffs: np.ndarray | None = None    # W2: (M, M, N, A) means[i] - means[j]
    probs: np.ndarray | None = None    # JSD: (M, N, K) categoricals
    mids: np.ndarray | None = None     # JSD: (M, M, N, K) midpoints (p_i + p_j) / 2
    caches: list | None = None         # per policy: the cache its backward_* takes

    @property
    def m(self) -> int:
        return len(self.policies)


def _check_metric(policies, metric: str) -> None:
    if metric not in METRIC_KINDS:
        raise ValueError(f"unknown metric {metric!r}")
    if {pi.action_space.kind for pi in policies} != {METRIC_KINDS[metric]}:
        raise ValueError(f"{metric} metric requires {METRIC_KINDS[metric]} action spaces")


def _offdiag_std(sq: np.ndarray) -> float:
    iu = np.triu_indices(sq.shape[0], k=1)
    return float(np.std(np.concatenate([sq[iu], sq[(iu[1], iu[0])]])))


def _ordered_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Sum along ``axis`` one element after another, as a running total would.

    ``np.sum`` adds pairwise along a contiguous axis, which rounds differently.
    """
    return np.cumsum(x, axis=axis).take(-1, axis=axis)


def kernel_forward(policies, batch: StateBatch, metric: str = "w2",
                   deterministic: bool = False, norm_scale: float | None = None) -> KernelForward:
    """Forward pass: pairwise similarities of the whole population.

    W2 path: per-pair mean squared distance over states, variance-normalized
    across the population (std treated as constant; ``norm_scale`` pins it
    explicitly, e.g. to freeze the objective during ascent), then mapped by
    exp(-d^2/2).  JSD path: state-averaged 1 - JSD/ln2 per pair.
    """
    m = len(policies)
    if m < 2:
        raise ValueError("population kernel needs at least 2 policies")
    _check_metric(policies, metric)
    states = batch.states
    n = states.shape[0]
    if metric == "jsd":
        outs = [pi.probs_batch(states, with_cache=True) for pi in policies]
        probs = np.stack([o[0] for o in outs])  # (M, N, K)
        mids = 0.5 * (probs[:, None] + probs[None, :])
        # kl[i, j, s] = KL(p_i(s) || mid_ij(s)), with 0 * log 0 = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = probs[:, None] * (np.log(probs)[:, None] - np.log(mids))
        kl = np.sum(np.where(probs[:, None] > 0, terms, 0.0), axis=-1)
        # clip round-off: JSD lies in [0, ln 2] and the similarity in [0, 1]
        div = np.minimum(np.maximum(0.5 * kl + 0.5 * kl.transpose(1, 0, 2), 0.0), LN2)
        sim = np.minimum(np.maximum(1.0 - div / LN2, 0.0), 1.0)
        k = _ordered_sum(sim, axis=-1) / n
        np.fill_diagonal(k, 1.0)
        return KernelForward(list(policies), batch, metric, deterministic, k, 1.0,
                             probs=probs, mids=mids, caches=[o[1] for o in outs])
    outs = [pi.gaussian_batch(states, with_cache=True) for pi in policies]
    mus = np.stack([o[0] for o in outs])            # (M, N, A)
    stds = np.exp(np.stack([o[1] for o in outs]))   # (M, A)
    diffs = mus[:, None] - mus[None, :]
    sq = np.mean(np.sum(diffs ** 2, axis=-1), axis=-1)
    if not deterministic:
        sq = sq + np.sum((stds[:, None] - stds[None, :]) ** 2, axis=-1)
    if norm_scale is None:
        scale = _offdiag_std(sq)
        if scale < NORM_STD_FLOOR:
            scale = 1.0
    else:
        scale = float(norm_scale)
    k = np.exp(-0.5 * (sq / scale))
    np.fill_diagonal(k, 1.0)
    return KernelForward(list(policies), batch, metric, deterministic, k, scale,
                         stds=stds, diffs=diffs, caches=[o[2] for o in outs])


def kernel_backward(fwd: KernelForward, upstream: np.ndarray) -> list:
    """Map an upstream gradient on kernel entries to per-policy parameter gradients.

    ``upstream[i, j]`` is dJ/dK[i, j] for the full matrix; the constant
    diagonal contributes nothing.  Returns one flat gradient per policy.
    """
    states = fwd.batch.states
    n = states.shape[0]
    sym = upstream + upstream.T
    if fwd.metric == "jsd":
        # d entry_ij / d p_i(s) = -(1 / (n ln 2)) * 0.5 * ln(p_i(s) / mid_ij(s))
        coeff = -sym / (n * LN2) * 0.5
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(np.maximum(fwd.probs, 1e-300)[:, None] / fwd.mids)
        # mid_ii = p_i, so the diagonal is log(1e-300 / 0) wherever p_i(s) = 0; skip it
        off = ~np.eye(fwd.m, dtype=bool)[:, :, None, None]
        dp = _ordered_sum(np.where(off, coeff[:, :, None, None] * logs, 0.0), axis=1)
        return [pi.backward_probs(states, d, cache=c)
                for pi, d, c in zip(fwd.policies, dp, fwd.caches)]
    # dK/d sq = -K / (2 * scale) for each symmetric entry
    w = -sym * fwd.entries / (2.0 * fwd.scale)
    dmu = _ordered_sum((w * (2.0 / n))[:, :, None, None] * fwd.diffs, axis=1)
    if fwd.deterministic:
        dls = np.zeros_like(fwd.stds)
    else:
        s = fwd.stds
        dls = _ordered_sum((w * 2.0)[:, :, None] * (s[:, None] - s[None, :]) * s[:, None],
                           axis=1)
    return [pi.backward_gaussian(states, dm, dl, cache=c)
            for pi, dm, dl, c in zip(fwd.policies, dmu, dls, fwd.caches)]
