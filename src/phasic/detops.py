"""Determinant-based diversity objective and its linear algebra.

The population similarity matrix K is smoothed into K~ = beta*K + (1-beta)*I,
which is positive definite for any PSD unit-diagonal K, with

    det(K~) >= (1 - beta + M*beta) * (1 - beta)^(M-1) > 0.

The determinant is evaluated from the diagonal of a Cholesky factor and its
parameter gradient uses the classic identity

    d det(A)/dt = det(A) * tr(A^{-1} dA/dt),

chained through the kernel-entry gradients into the policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelMatrix, StateBatch, kernel_backward, kernel_forward

PIVOT_TOL = 1e-12


class NotPositiveDefinite(Exception):
    """Cholesky pivot fell below tolerance; the input is not positive definite."""


@dataclass(frozen=True)
class SurrogateKernel:
    """Convex blend beta*K + (1-beta)*I of a similarity matrix with identity."""

    entries: np.ndarray
    beta: float
    base: np.ndarray

    @property
    def m(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class CholeskyFactor:
    lower: np.ndarray

    @property
    def diag(self) -> np.ndarray:
        return np.diag(self.lower)


def surrogate(k, beta: float) -> SurrogateKernel:
    """Blend a kernel matrix toward the identity: beta*K + (1-beta)*I."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0,1), got {beta}")
    base = k.entries if isinstance(k, KernelMatrix) else np.asarray(k, dtype=np.float64)
    out = beta * base + (1.0 - beta) * np.eye(base.shape[0])
    # the blend fixes unit diagonals algebraically; pin them against round-off
    np.fill_diagonal(out, 1.0)
    return SurrogateKernel(entries=out, beta=float(beta), base=base.copy())


def cholesky(a) -> CholeskyFactor:
    """Lower-triangular Cholesky factor of a symmetric positive-definite matrix.

    Raises NotPositiveDefinite as soon as a pivot drops to PIVOT_TOL or below,
    signalling that the caller must re-apply the surrogate blend.
    """
    a = np.asarray(getattr(a, "entries", a), dtype=np.float64)
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
    return CholeskyFactor(lower=low)


def det_via_cholesky(factor: CholeskyFactor) -> float:
    """Determinant of A = L L^T, the squared product of the factor's diagonal."""
    return float(np.prod(factor.diag) ** 2)


def log_det_via_cholesky(factor: CholeskyFactor) -> float:
    return 2.0 * float(np.sum(np.log(factor.diag)))


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


def _solve_lower(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward substitution for L x = b (b may be a matrix)."""
    n = low.shape[0]
    x = np.array(b, dtype=np.float64, copy=True)
    if x.ndim == 1:
        x = x[:, None]
        squeeze = True
    else:
        squeeze = False
    for i in range(n):
        x[i] = (x[i] - low[i, :i] @ x[:i]) / low[i, i]
    return x[:, 0] if squeeze else x


def _solve_upper(up: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Back substitution for U x = b."""
    n = up.shape[0]
    x = np.array(b, dtype=np.float64, copy=True)
    if x.ndim == 1:
        x = x[:, None]
        squeeze = True
    else:
        squeeze = False
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - up[i, i + 1:] @ x[i + 1:]) / up[i, i]
    return x[:, 0] if squeeze else x


def spd_inverse(factor: CholeskyFactor) -> np.ndarray:
    """Inverse of A = L L^T via two triangular solves."""
    n = factor.lower.shape[0]
    inv = _solve_upper(factor.lower.T, _solve_lower(factor.lower, np.eye(n)))
    return 0.5 * (inv + inv.T)


def det_gradient(ktilde: SurrogateKernel, dk_dtheta: np.ndarray) -> np.ndarray:
    """Per-parameter determinant gradient det(K~) * tr(K~^{-1} * beta * dK/dtheta).

    ``dk_dtheta`` holds the base-kernel entry gradients, one M x M slice per
    parameter (shape (P, M, M) or (M, M) for a single parameter).
    """
    factor = cholesky(ktilde.entries)
    det = det_via_cholesky(factor)
    inv = spd_inverse(factor)
    dk = np.asarray(dk_dtheta, dtype=np.float64)
    single = dk.ndim == 2
    if single:
        dk = dk[None]
    grads = det * ktilde.beta * np.einsum("ij,pji->p", inv, dk)
    return float(grads[0]) if single else grads


@dataclass
class DiversityResult:
    """Value and per-policy parameter gradients of the population diversity."""

    value: float                 # det of the surrogate kernel
    grads: list                  # one flat gradient per policy
    kernel: KernelMatrix
    beta: float                  # beta actually used (after any PD retries)
    norm_scale: float            # W2 normalization constant applied


def _factor_with_backoff(entries: np.ndarray, beta: float):
    """Cholesky of the surrogate blend, halving beta on (unexpected) PD failures."""
    b = beta
    for _ in range(8):
        blend = b * entries + (1.0 - b) * np.eye(entries.shape[0])
        np.fill_diagonal(blend, 1.0)
        try:
            return cholesky(blend), b
        except NotPositiveDefinite:
            b *= 0.5
    raise NotPositiveDefinite("surrogate blend stayed non-PD after beta backoff")


def diversity_objective(policies, batch: StateBatch, metric: str = "w2",
                        beta: float = 0.99, deterministic: bool = False,
                        norm_scale: float | None = None) -> DiversityResult:
    """det(beta*K + (1-beta)*I) of the population kernel and its policy gradients.

    The gradient chains the determinant identity through the kernel-entry
    reverse pass into each policy's parameters.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0,1), got {beta}")
    fwd = kernel_forward(policies, batch, metric, deterministic, norm_scale)
    kernel = KernelMatrix(entries=fwd.entries,
                          w2_scale=fwd.scale if metric == "w2" else None)
    factor, beta_used = _factor_with_backoff(fwd.entries, beta)
    det = det_via_cholesky(factor)
    upstream = det * beta_used * spd_inverse(factor)
    grads = kernel_backward(fwd, upstream)
    return DiversityResult(value=det, grads=grads, kernel=kernel,
                           beta=beta_used, norm_scale=fwd.scale)


def diversity_ascent(policies, batch: StateBatch, steps: int, metric: str = "w2",
                     beta: float = 0.99, lr: float = 1e-3, grad_clip: float = 1.0,
                     deterministic: bool = False, rng: np.random.Generator | None = None,
                     duplicate_jitter: float = 1e-6):
    """Gradient-ascend the population diversity for ``steps`` steps.

    Exact parameter duplicates are a stationary point of the determinant, so
    duplicated policies receive a tiny seeded jitter before ascent.  The W2
    normalization constant is frozen at its initial value so the objective is
    fixed during the climb; ascent maximizes log det for conditioning, while
    the recorded trace holds det itself (length steps+1, including the start).

    Returns (ascended policies, det trace).
    """
    policies = list(policies)
    if rng is None:
        rng = np.random.default_rng(0)
    for i in range(len(policies)):
        for j in range(i):
            if np.array_equal(policies[i].params, policies[j].params):
                bumped = policies[i].params + duplicate_jitter * rng.standard_normal(
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
        for i, g in enumerate(grads):
            norm = float(np.linalg.norm(g))
            if grad_clip > 0 and norm > grad_clip:
                g = g * (grad_clip / norm)
            policies[i] = policies[i].with_params(policies[i].params + lr * g)
        fwd = kernel_forward(policies, batch, metric, deterministic, norm_scale=scale)
    factor, _ = _factor_with_backoff(fwd.entries, beta)
    trace.append(det_via_cholesky(factor))
    return policies, np.asarray(trace)
