"""Pairwise policy similarity kernels and the population kernel matrix.

Similarity between two stochastic policies is estimated on a batch of probe
states: for each state the distance between the two action distributions is
computed (Jensen-Shannon divergence for discrete actions, squared
2-Wasserstein for diagonal Gaussians) and mapped into [0, 1].  Stacking all
pairwise similarities gives a symmetric positive-semidefinite matrix with
unit diagonal whose determinant scores the diversity of the population.

Everything here is a pure function; gradients with respect to policy
parameters are produced by hand-written reverse-mode passes that mirror the
forward computation exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dists import DiagGaussian, DiscreteDist

LN2 = math.log(2.0)

# population std below this is treated as zero and normalization is skipped
NORM_STD_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# distribution distances
# ---------------------------------------------------------------------------

def jsd(p: DiscreteDist, q: DiscreteDist) -> float:
    """Jensen-Shannon divergence between two categoricals, in nats.

    Symmetric, bounded by ln 2, with the 0*log(0) = 0 convention.
    """
    if p.n != q.n:
        raise ValueError(f"support mismatch: {p.n} vs {q.n}")
    pa, qa = p.probs, q.probs
    m = 0.5 * (pa + qa)
    val = 0.5 * _kl(pa, m) + 0.5 * _kl(qa, m)
    # clip tiny negative round-off; value is mathematically in [0, ln 2]
    return float(min(max(val, 0.0), LN2))


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def f_js(d: float) -> float:
    """Map a JSD value d in [0, ln 2] to a similarity 1 - d/ln 2 in [0, 1]."""
    return float(min(max(1.0 - d / LN2, 0.0), 1.0))


def w2_squared_diag(a: DiagGaussian, b: DiagGaussian, mean_only: bool = False) -> float:
    """Squared 2-Wasserstein distance between diagonal Gaussians.

    ||m1 - m2||^2 + ||s1 - s2||^2 where s are elementwise standard
    deviations.  With ``mean_only`` the std term is dropped (deterministic
    evaluation variant).
    """
    if a.mean.shape != b.mean.shape:
        raise ValueError("dimension mismatch")
    d2 = float(np.sum((a.mean - b.mean) ** 2))
    if not mean_only:
        d2 += float(np.sum((a.std - b.std) ** 2))
    return d2


def _psd_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, eigenvalues clamped at 0."""
    w, v = np.linalg.eigh(s)
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.T


def w2_squared_full(m1: np.ndarray, s1: np.ndarray, m2: np.ndarray, s2: np.ndarray) -> float:
    """Squared 2-Wasserstein distance between full-covariance Gaussians.

    ||m1 - m2||^2 + tr[S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2}]
    """
    m1 = np.asarray(m1, dtype=np.float64)
    m2 = np.asarray(m2, dtype=np.float64)
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    for s in (s1, s2):
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("covariance must be square")
        if not np.allclose(s, s.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
    r1 = _psd_sqrt(s1)
    cross = _psd_sqrt(r1 @ s2 @ r1)
    val = float(np.sum((m1 - m2) ** 2) + np.trace(s1) + np.trace(s2) - 2.0 * np.trace(cross))
    return max(val, 0.0)


# ---------------------------------------------------------------------------
# probe batches and the kernel matrix container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateBatch:
    """Probe observations the similarity expectation is taken over."""

    states: np.ndarray  # (N, obs_dim)
    source: str = ""

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.float64)
        if states.ndim != 2 or states.shape[0] == 0:
            raise ValueError("states must be a non-empty (N, obs_dim) array")
        if not np.all(np.isfinite(states)):
            raise ValueError("non-finite probe states")
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class KernelMatrix:
    """M x M matrix of pairwise policy similarities.

    Invariants checked on construction: symmetry within 1e-9, unit diagonal,
    entries in [0, 1], minimum eigenvalue >= -1e-8.
    """

    entries: np.ndarray
    policy_ids: tuple = ()
    w2_scale: float | None = None  # normalization constant used on the W2 path
    min_eigenvalue: float = field(init=False)

    def __post_init__(self):
        k = np.asarray(self.entries, dtype=np.float64)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError("kernel matrix must be square")
        m = k.shape[0]
        ids = tuple(self.policy_ids) if self.policy_ids else tuple(str(i) for i in range(m))
        if len(ids) != m:
            raise ValueError("policy_ids length mismatch")
        if np.max(np.abs(k - k.T)) > 1e-9:
            raise ValueError("kernel matrix not symmetric")
        if np.any(np.diag(k) != 1.0):
            raise ValueError("kernel diagonal must be exactly 1")
        if np.any(k < 0.0) or np.any(k > 1.0):
            raise ValueError("kernel entries must lie in [0, 1]")
        min_eig = float(np.linalg.eigvalsh(k)[0])
        if min_eig < -1e-8:
            raise ValueError(f"kernel matrix not PSD (min eigenvalue {min_eig:.3e})")
        object.__setattr__(self, "entries", k)
        object.__setattr__(self, "policy_ids", ids)
        object.__setattr__(self, "min_eigenvalue", min_eig)

    @property
    def m(self) -> int:
        return self.entries.shape[0]


def variance_normalize(squared_dists: np.ndarray) -> np.ndarray:
    """Divide off-diagonal squared distances by their population std.

    The std is treated as a constant (no gradient flows through it).  If the
    std is below 1e-12 the input is returned unchanged.
    """
    sq = np.asarray(squared_dists, dtype=np.float64)
    if sq.ndim != 2 or sq.shape[0] != sq.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(sq - sq.T)) > 1e-9 or np.any(np.diag(sq) != 0.0):
        raise ValueError("expected a symmetric zero-diagonal matrix")
    scale = _offdiag_std(sq)
    if scale < NORM_STD_FLOOR:
        return sq.copy()
    out = sq / scale
    np.fill_diagonal(out, 0.0)
    return out


def _offdiag_std(sq: np.ndarray) -> float:
    m = sq.shape[0]
    iu = np.triu_indices(m, k=1)
    vals = np.concatenate([sq[iu], sq[(iu[1], iu[0])]])
    return float(np.std(vals))


# ---------------------------------------------------------------------------
# pairwise kernel entry (state-averaged similarity)
# ---------------------------------------------------------------------------

def kernel_entry(pi_i, pi_j, batch: StateBatch, metric: str = "w2",
                 deterministic: bool = False) -> float:
    """State-averaged similarity of two policies, in [0, 1].

    metric 'jsd': mean over states of 1 - JSD/ln2 (discrete actions).
    metric 'w2': mean over states of exp(-W2^2/2) (diagonal Gaussians);
    with ``deterministic`` the W2 distance keeps only the mean term.
    """
    _check_metric(pi_i, pi_j, metric)
    states = batch.states
    n = states.shape[0]
    if metric == "jsd":
        pi = pi_i.probs_batch(states)
        pj = pi_j.probs_batch(states)
        total = 0.0
        for s in range(n):
            total += f_js(jsd(DiscreteDist(pi[s]), DiscreteDist(pj[s])))
        return total / n
    mu_i, ls_i = pi_i.gaussian_batch(states)
    mu_j, ls_j = pi_j.gaussian_batch(states)
    d2 = np.sum((mu_i - mu_j) ** 2, axis=1)
    if not deterministic:
        d2 = d2 + np.sum((np.exp(ls_i) - np.exp(ls_j)) ** 2)
    return float(np.mean(np.exp(-0.5 * d2)))


def kernel_entry_grad(pi_i, pi_j, batch: StateBatch, metric: str = "w2",
                      deterministic: bool = False):
    """(entry, grad_i, grad_j): the pairwise similarity and its parameter gradients."""
    _check_metric(pi_i, pi_j, metric)
    states = batch.states
    n = states.shape[0]
    if metric == "jsd":
        pi = pi_i.probs_batch(states)
        pj = pi_j.probs_batch(states)
        entry = 0.0
        dpi = np.zeros_like(pi)
        dpj = np.zeros_like(pj)
        for s in range(n):
            p, q = pi[s], pj[s]
            m = 0.5 * (p + q)
            entry += f_js(jsd(DiscreteDist(p), DiscreteDist(q)))
            # d entry / d jsd_s = -1/(n ln2); d jsd / dp_k = 0.5 ln(p_k/m_k)
            coeff = -1.0 / (n * LN2)
            dpi[s] = coeff * 0.5 * np.log(np.maximum(p, 1e-300) / m)
            dpj[s] = coeff * 0.5 * np.log(np.maximum(q, 1e-300) / m)
        gi = pi_i.backward_probs(states, dpi)
        gj = pi_j.backward_probs(states, dpj)
        return entry / n, gi, gj
    mu_i, ls_i = pi_i.gaussian_batch(states)
    mu_j, ls_j = pi_j.gaussian_batch(states)
    si, sj = np.exp(ls_i), np.exp(ls_j)
    d2 = np.sum((mu_i - mu_j) ** 2, axis=1)
    if not deterministic:
        d2 = d2 + np.sum((si - sj) ** 2)
    w = np.exp(-0.5 * d2)  # per-state RBF values
    entry = float(np.mean(w))
    # d entry / d mu_i(s) = (1/n) w_s * -(mu_i - mu_j)
    dmu_i = (-w[:, None] / n) * (mu_i - mu_j)
    dmu_j = -dmu_i
    if deterministic:
        dls_i = np.zeros_like(ls_i)
        dls_j = np.zeros_like(ls_j)
    else:
        # std term sits inside every per-state exponential
        wsum = float(np.sum(w)) / n
        dls_i = -wsum * (si - sj) * si
        dls_j = wsum * (si - sj) * sj
    gi = pi_i.backward_gaussian(states, dmu_i, dls_i)
    gj = pi_j.backward_gaussian(states, dmu_j, dls_j)
    return entry, gi, gj


# the action-space kind each population metric compares
METRIC_KINDS = {"w2": "continuous", "jsd": "discrete"}


def _check_metric(pi_i, pi_j, metric: str) -> None:
    if metric not in METRIC_KINDS:
        raise ValueError(f"unknown metric {metric!r}")
    if {pi_i.action_space.kind, pi_j.action_space.kind} != {METRIC_KINDS[metric]}:
        raise ValueError(f"{metric} metric requires {METRIC_KINDS[metric]} action spaces")


# ---------------------------------------------------------------------------
# population kernel matrix with reverse-mode machinery
# ---------------------------------------------------------------------------

@dataclass
class KernelForward:
    """Cached forward pass of a population kernel build (for reverse mode)."""

    policies: list
    batch: StateBatch
    metric: str
    deterministic: bool
    entries: np.ndarray          # (M, M) kernel values
    scale: float                 # W2 normalization constant actually applied
    mus: list | None = None      # per-policy (N, A) means
    log_stds: list | None = None
    probs: list | None = None    # per-policy (N, K) categoricals

    @property
    def m(self) -> int:
        return len(self.policies)


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
    for pi in policies[1:]:
        _check_metric(policies[0], pi, metric)
    states = batch.states
    n = states.shape[0]
    k = np.eye(m)
    if metric == "jsd":
        probs = [pi.probs_batch(states) for pi in policies]
        for i in range(m):
            for j in range(i + 1, m):
                total = 0.0
                for s in range(n):
                    total += f_js(jsd(DiscreteDist(probs[i][s]), DiscreteDist(probs[j][s])))
                k[i, j] = k[j, i] = total / n
        return KernelForward(list(policies), batch, metric, deterministic, k, 1.0, probs=probs)
    outs = [pi.gaussian_batch(states) for pi in policies]
    mus = [o[0] for o in outs]
    log_stds = [o[1] for o in outs]
    sq = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            d2 = float(np.mean(np.sum((mus[i] - mus[j]) ** 2, axis=1)))
            if not deterministic:
                d2 += float(np.sum((np.exp(log_stds[i]) - np.exp(log_stds[j])) ** 2))
            sq[i, j] = sq[j, i] = d2
    if norm_scale is None:
        scale = _offdiag_std(sq)
        if scale < NORM_STD_FLOOR:
            scale = 1.0
    else:
        scale = float(norm_scale)
    norm = sq / scale
    k = np.exp(-0.5 * norm)
    np.fill_diagonal(k, 1.0)
    return KernelForward(list(policies), batch, metric, deterministic, k, scale,
                         mus=mus, log_stds=log_stds)


def kernel_backward(fwd: KernelForward, upstream: np.ndarray) -> list:
    """Map an upstream gradient on kernel entries to per-policy parameter gradients.

    ``upstream[i, j]`` is dJ/dK[i, j] for the full matrix; the constant
    diagonal contributes nothing.  Returns one flat gradient per policy.
    """
    m = fwd.m
    states = fwd.batch.states
    n = states.shape[0]
    grads = []
    if fwd.metric == "jsd":
        for i in range(m):
            dp = np.zeros_like(fwd.probs[i])
            for j in range(m):
                if j == i:
                    continue
                u = upstream[i, j] + upstream[j, i]
                coeff = -u / (n * LN2)
                p = fwd.probs[i]
                q = fwd.probs[j]
                mm = 0.5 * (p + q)
                dp += coeff * 0.5 * np.log(np.maximum(p, 1e-300) / mm)
            grads.append(fwd.policies[i].backward_probs(states, dp))
        return grads
    sigmas = [np.exp(ls) for ls in fwd.log_stds]
    for i in range(m):
        dmu = np.zeros_like(fwd.mus[i])
        dls = np.zeros_like(fwd.log_stds[i])
        for j in range(m):
            if j == i:
                continue
            u = upstream[i, j] + upstream[j, i]
            # dK/d sq = -K/(2*scale) for each symmetric entry
            w = -u * fwd.entries[i, j] / (2.0 * fwd.scale)
            dmu += w * (2.0 / n) * (fwd.mus[i] - fwd.mus[j])
            if not fwd.deterministic:
                dls += w * 2.0 * (sigmas[i] - sigmas[j]) * sigmas[i]
        grads.append(fwd.policies[i].backward_gaussian(states, dmu, dls))
    return grads


def build_kernel_matrix(policies, batch: StateBatch, metric: str = "w2",
                        deterministic: bool = False, norm_scale: float | None = None,
                        policy_ids=None) -> KernelMatrix:
    """Assemble the population similarity matrix and validate its invariants."""
    fwd = kernel_forward(policies, batch, metric, deterministic, norm_scale)
    ids = tuple(policy_ids) if policy_ids is not None else ()
    scale = fwd.scale if metric == "w2" else None
    return KernelMatrix(entries=fwd.entries, policy_ids=ids, w2_scale=scale)
