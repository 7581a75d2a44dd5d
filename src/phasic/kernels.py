"""The population similarity kernel and its reverse pass.

Similarity between two stochastic policies is estimated on a batch of probe
states, as one chain of distance, scale and map.  ``_w2`` gives diagonal
Gaussians their state-mean squared 2-Wasserstein distance, divided by its
off-diagonal std and mapped by exp(-d / 2); ``_jsd`` gives categoricals their
Jensen-Shannon divergence per state, and the state-mean of 1 - JSD/ln2 is
the similarity.  With a unit diagonal the result is symmetric and positive
semidefinite, and its determinant scores the diversity of the population.

Each metric's function returns its distance with a hand-written reverse
pass over all pairs at once, which reuses the layer inputs the forward kept:
a forward and its reverse pass run each network once.

One helper, ``last_axis_sum``, sums an action or category axis: below 8
terms a running total of the axis' slices plus 0.0, which gives ``np.sum``'s
bits without numpy's per-row reduce.  The JSD probe mean is the last entry
of one ``np.add.accumulate``, a running total over the probes.  The reverse
passes add each partner j's term into their running totals one j at a time,
so no (M, M, N, ·) product is built.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

# population std below this is treated as zero and normalization is skipped
NORM_STD_FLOOR = 1e-12

# numpy's np.sum adds an axis of this many terms or more pairwise
PAIRWISE_MIN = 8

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
    """One kernel build.  ``reverse`` maps a gradient on ``dist`` to one flat
    gradient per policy from the layer inputs it kept, running no forward."""

    metric: str
    entries: np.ndarray  # (M, M) kernel values
    scale: float         # the scale the distances were divided by
    dist: np.ndarray     # W2: (M, M) state-mean squared W2; JSD: (M, M, N) JSD per state
    reverse: Callable[[np.ndarray], list]


def _check_metric(policies, metric: str) -> None:
    if metric not in METRIC_KINDS:
        raise ValueError(f"unknown metric {metric!r}")
    if {pi.action_space.kind for pi in policies} != {METRIC_KINDS[metric]}:
        raise ValueError(f"{metric} metric requires {METRIC_KINDS[metric]} action spaces")


def _w2_scale(sq: np.ndarray) -> float:
    """The off-diagonal std of the squared distances, or 1.0 below ``NORM_STD_FLOOR``."""
    iu = np.triu_indices(sq.shape[0], k=1)
    std = float(np.std(np.concatenate([sq[iu], sq[(iu[1], iu[0])]])))
    return 1.0 if std < NORM_STD_FLOOR else std


def last_axis_sum(x: np.ndarray) -> np.ndarray:
    """``np.sum(x, axis=-1)``, bit for bit, for action- and category-axis sums.

    Below ``PAIRWISE_MIN`` terms numpy adds one after another, starting from
    -0.0, and adds that total to its +0.0 identity.  A copy of the first
    slice, ``+=`` of each later one, then ``+= 0.0`` gives those bits (the
    0.0 turns an all -0.0 total into +0.0) at a fraction of the cost of
    numpy's reduce over a short axis.  From ``PAIRWISE_MIN`` terms on, where
    numpy adds pairwise, this is ``np.sum`` itself.
    """
    if x.shape[-1] >= PAIRWISE_MIN:
        return np.sum(x, axis=-1)
    total = x[..., 0].copy()
    for k in range(1, x.shape[-1]):
        total += x[..., k]
    total += 0.0
    return total


def _w2(policies, states: np.ndarray, deterministic: bool):
    """State-mean squared W2 of each pair of diagonal Gaussians, (M, M), and its
    reverse pass.  ``deterministic`` compares the means alone."""
    outs = [pi.gaussian_batch(states, with_cache=True) for pi in policies]
    mus = np.stack([o[0] for o in outs])            # (M, N, A)
    stds = np.exp(np.stack([o[1] for o in outs]))   # (M, A)
    diffs = mus[:, None] - mus[None, :]
    sq = np.mean(last_axis_sum(diffs * diffs), axis=-1)
    if not deterministic:
        sq = sq + last_axis_sum((stds[:, None] - stds[None, :]) ** 2)
    caches = [o[2] for o in outs]

    def reverse(d_sq):
        coeff = d_sq * (2.0 / states.shape[0])
        twice = d_sq * 2.0
        dmu = coeff[:, 0, None, None] * diffs[:, 0]
        dls = np.zeros_like(stds) if deterministic else twice[:, 0, None] * (stds - stds[0]) * stds
        for j in range(1, len(caches)):
            dmu += coeff[:, j, None, None] * diffs[:, j]
            if not deterministic:
                dls += twice[:, j, None] * (stds - stds[j]) * stds
        return [pi.backward_gaussian(c, dm, dl)
                for pi, c, dm, dl in zip(policies, caches, dmu, dls)]
    return sq, reverse


def _jsd(policies, states: np.ndarray):
    """JSD of each pair of categoricals on each state, (M, M, N), and its reverse pass."""
    outs = [pi.probs_batch(states, with_cache=True) for pi in policies]
    probs = np.stack([o[0] for o in outs])  # (M, N, K)
    mids = 0.5 * (probs[:, None] + probs[None, :])
    # kl[i, j, s] = KL(p_i(s) || mid_ij(s)), with 0 * log 0 = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = probs[:, None] * (np.log(probs)[:, None] - np.log(mids))
    kl = last_axis_sum(np.where(probs[:, None] > 0, terms, 0.0))
    # clip round-off: JSD lies in [0, ln 2]
    div = np.minimum(np.maximum(0.5 * kl + 0.5 * kl.transpose(1, 0, 2), 0.0), LN2)

    def reverse(d_div):
        # d div_ij(s) / d p_i(s) = 0.5 * ln(p_i(s) / mid_ij(s))
        coeff = d_div * 0.5
        floored = np.maximum(probs, 1e-300)
        for j in range(len(outs)):
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.log(floored / mids[:, j])
            np.multiply(coeff[:, j, :, None], term, out=term)
            # mid_jj = p_j, so row j is log(1e-300 / 0) wherever p_j(s) = 0; skip it
            term[j] = 0.0
            if j == 0:
                dp = term
            else:
                dp += term
        return [pi.backward_probs(o[1], d) for pi, o, d in zip(policies, outs, dp)]
    return div, reverse


def kernel_forward(policies, batch: StateBatch, metric: str = "w2",
                   deterministic: bool = False, norm_scale: float | None = None) -> KernelForward:
    """Pairwise similarities of the whole population: distance, scale, map, unit diagonal.

    The W2 scale is ``_w2_scale`` of the distances unless ``norm_scale``
    (positive and finite) pins it, e.g. to freeze the objective during
    ascent.  The JSD scale is 1.
    """
    if len(policies) < 2:
        raise ValueError("population kernel needs at least 2 policies")
    _check_metric(policies, metric)
    if norm_scale is not None and not 0.0 < norm_scale < math.inf:
        raise ValueError(f"norm_scale must be positive and finite, got {norm_scale!r}")
    policies = list(policies)
    if metric == "jsd":
        dist, reverse = _jsd(policies, batch.states)
        scale = 1.0
        # clip round-off: the similarity lies in [0, 1]
        sim = np.minimum(np.maximum(1.0 - dist / LN2, 0.0), 1.0)
        k = np.add.accumulate(sim, axis=-1)[..., -1] / dist.shape[-1]
    else:
        dist, reverse = _w2(policies, batch.states, deterministic)
        scale = _w2_scale(dist) if norm_scale is None else float(norm_scale)
        k = np.exp(-0.5 * (dist / scale))
    np.fill_diagonal(k, 1.0)
    return KernelForward(metric, k, scale, dist, reverse)


def kernel_backward(fwd: KernelForward, upstream: np.ndarray) -> list:
    """Map an upstream gradient on kernel entries to per-policy parameter gradients.

    ``upstream[i, j]`` is dJ/dK[i, j] for the full matrix; the constant diagonal
    contributes nothing.  The map's derivative takes it onto the distance.
    """
    sym = upstream + upstream.T
    if fwd.metric == "jsd":
        # d entry_ij / d div_ij(s) = -1 / (n ln 2), the same on every state
        return fwd.reverse(-sym[:, :, None] / (fwd.dist.shape[-1] * LN2))
    # d entry_ij / d sq_ij = -K_ij / (2 * scale)
    return fwd.reverse(-sym * fwd.entries / (2.0 * fwd.scale))
