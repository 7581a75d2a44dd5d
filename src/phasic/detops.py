"""Determinant-based diversity ascent and its linear algebra.

The population similarity matrix K is smoothed into K~ = beta*K + (1-beta)*I,
which is positive definite for any PSD unit-diagonal K, with

    det(K~) >= (1 - beta + M*beta) * (1 - beta)^(M-1) > 0.

The determinant is evaluated from the diagonal of a Cholesky factor.  Ascent
climbs log det(K~), whose gradient follows from the identity

    d log det(A)/dt = tr(A^{-1} dA/dt),

so the upstream gradient on K is beta * K~^{-1}, chained through the kernel
reverse pass into the policies.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import StateBatch, kernel_backward, kernel_forward

PIVOT_TOL = 1e-12
DUPLICATE_JITTER = 1e-6  # std of the seeded jitter on a duplicated policy's parameters


class NotPositiveDefinite(Exception):
    """Cholesky pivot fell below tolerance; the input is not positive definite."""


def cholesky(a) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive-definite matrix.

    Raises NotPositiveDefinite as soon as a pivot drops to PIVOT_TOL or below,
    signalling that the caller must re-apply the surrogate blend.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(a - a.T)) > 1e-8:
        raise ValueError("expected a symmetric matrix")
    n = a.shape[0]
    low = np.zeros((n, n))
    for j in range(n):
        pivot = a[j, j] - float(low[j, :j] @ low[j, :j])
        if pivot <= PIVOT_TOL:
            raise NotPositiveDefinite(f"pivot {pivot:.3e} at column {j}")
        low[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


def det_via_cholesky(low: np.ndarray) -> float:
    """Determinant of A = L L^T, the squared product of the factor's diagonal."""
    return float(np.prod(np.diag(low)) ** 2)


def surrogate_det_bound(m: int, beta: float) -> float:
    """Lower bound (1-beta+m*beta)*(1-beta)^(m-1) on det of the surrogate blend.

    Holds for every PSD unit-diagonal kernel; attained when all policies are
    identical (all-ones kernel).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0,1), got {beta}")
    return (1.0 - beta + m * beta) * (1.0 - beta) ** (m - 1)


def spd_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of A = L L^T via two triangular solves (forward, then back)."""
    n = low.shape[0]
    x = np.eye(n)
    for i in range(n):
        x[i] = (x[i] - low[i, :i] @ x[:i]) / low[i, i]
    up = low.T
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - up[i, i + 1:] @ x[i + 1:]) / up[i, i]
    return 0.5 * (x + x.T)


def _factor_with_backoff(entries: np.ndarray, beta: float):
    """Cholesky of the surrogate blend, halving beta on (unexpected) PD failures.

    Returns (lower factor, beta actually used).
    """
    b = beta
    for _ in range(8):
        blend = b * entries + (1.0 - b) * np.eye(entries.shape[0])
        # the blend fixes unit diagonals algebraically; pin them against round-off
        np.fill_diagonal(blend, 1.0)
        try:
            return cholesky(blend), b
        except NotPositiveDefinite:
            b *= 0.5
    raise NotPositiveDefinite("surrogate blend stayed non-PD after beta backoff")


def diversity_ascent(policies, batch: StateBatch, steps: int, metric: str = "w2",
                     beta: float = 0.99, lr: float = 1e-3, grad_clip: float = 1.0,
                     deterministic: bool = False, *, rng: np.random.Generator):
    """Gradient-ascend the population diversity for ``steps`` steps.

    Exact parameter duplicates are a stationary point of the determinant, so
    duplicated policies receive a tiny jitter drawn from ``rng`` before
    ascent.  The W2 normalization constant is frozen at its initial value so
    the objective is fixed during the climb; ascent maximizes log det for
    conditioning, while the recorded trace holds det itself (length steps+1,
    including the start).

    Returns (ascended policies, det trace).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0,1), got {beta}")
    policies = list(policies)
    for i in range(len(policies)):
        for j in range(i):
            if np.array_equal(policies[i].params, policies[j].params):
                bumped = policies[i].params + DUPLICATE_JITTER * rng.standard_normal(
                    policies[i].params.shape)
                policies[i] = policies[i].with_params(bumped)
                break
    # the forward that fixes the scale is also step 0's forward
    fwd = kernel_forward(policies, batch, metric, deterministic)
    scale = fwd.scale
    trace = []
    for _ in range(steps):
        factor, beta_used = _factor_with_backoff(fwd.entries, beta)
        trace.append(det_via_cholesky(factor))
        upstream = beta_used * spd_inverse(factor)  # d log det / dK
        grads = kernel_backward(fwd, upstream)
        del fwd  # its layer caches go before the next forward builds its own
        for i, g in enumerate(grads):
            norm = float(np.linalg.norm(g))
            if grad_clip > 0 and norm > grad_clip:
                g = g * (grad_clip / norm)
            policies[i] = policies[i].with_params(policies[i].params + lr * g)
        fwd = kernel_forward(policies, batch, metric, deterministic, norm_scale=scale)
    factor, _ = _factor_with_backoff(fwd.entries, beta)
    trace.append(det_via_cholesky(factor))
    return policies, np.asarray(trace)
