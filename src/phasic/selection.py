"""Arm selection for the auxiliary phase and candidate picking for exploits.

Two small pieces live here:

* a Bernoulli bandit over candidate diversity-pressure settings, with
  Thompson sampling and UCB1 rules; "success" for an arm means the archive's
  best fitness strictly improved during the selection cycle the arm governed;
* a clustering selector that spreads exploit targets across behaviorally
  distinct archive members by k-means over mean-action embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .archive import _top, rank


@dataclass
class BanditState:
    """Per-arm success/failure tallies for a Bernoulli bandit."""

    arms: tuple
    successes: np.ndarray = field(default=None)
    failures: np.ndarray = field(default=None)

    def __post_init__(self):
        if len(self.arms) < 1:
            raise ValueError("need at least one arm")
        n = len(self.arms)
        if self.successes is None:
            self.successes = np.zeros(n)
        if self.failures is None:
            self.failures = np.zeros(n)
        self.successes = np.asarray(self.successes, dtype=np.float64)
        self.failures = np.asarray(self.failures, dtype=np.float64)
        if self.successes.shape != (n,) or self.failures.shape != (n,):
            raise ValueError("tally shapes must match the number of arms")

    @property
    def pulls(self) -> np.ndarray:
        return self.successes + self.failures

    def state_dict(self) -> dict:
        return {"arms": list(self.arms), "successes": self.successes.tolist(),
                "failures": self.failures.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "BanditState":
        return cls(arms=tuple(state["arms"]),
                   successes=np.asarray(state["successes"], dtype=np.float64),
                   failures=np.asarray(state["failures"], dtype=np.float64))


def thompson_select(state: BanditState, rng: np.random.Generator) -> int:
    """Sample Beta(s+1, f+1) per arm, pick the argmax."""
    draws = rng.beta(state.successes + 1.0, state.failures + 1.0)
    return int(np.argmax(draws))


def ucb_select(state: BanditState) -> int:
    """UCB1: mean + sqrt(2 ln N / n).  Any never-pulled arm goes first."""
    pulls = state.pulls
    unpulled = np.flatnonzero(pulls == 0)
    if unpulled.size:
        return int(unpulled[0])
    total = pulls.sum()
    means = state.successes / pulls
    bonus = np.sqrt(2.0 * np.log(total) / pulls)
    return int(np.argmax(means + bonus))


def bandit_update(state: BanditState, arm: int, improved: bool) -> None:
    """Credit the arm with whether the archive's best fitness improved."""
    if not 0 <= arm < len(state.arms):
        raise IndexError(f"arm {arm} out of range")
    if improved:
        state.successes[arm] += 1.0
    else:
        state.failures[arm] += 1.0


# -- behavioral clustering for exploit targets --------------------------------


def policy_embedding(policy, probe_states: np.ndarray) -> np.ndarray:
    """Flatten a continuous policy's mean action over a fixed probe set."""
    mu, _ = policy.gaussian_batch(np.asarray(probe_states, dtype=np.float64))
    return mu.ravel()


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator):
    """Plain Lloyd's algorithm (50 iterations at most) with 10 seeded restarts;
    returns labels of the best run."""
    n = points.shape[0]
    best_labels, best_inertia = None, np.inf
    for _ in range(10):
        centers = points[rng.choice(n, size=k, replace=False)].copy()
        labels = np.zeros(n, dtype=int)
        for _ in range(50):
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
            for j in range(k):
                mask = new_labels == j
                if mask.any():
                    centers[j] = points[mask].mean(axis=0)
                else:
                    centers[j] = points[rng.integers(n)]
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
        inertia = ((points - centers[labels]) ** 2).sum()
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels.copy()
    return best_labels


def clustering_selection(entries: list, m: int, probe_states: np.ndarray,
                         rng: np.random.Generator) -> list:
    """Pick m archive entries spread across behavior clusters.

    Embeds every entry by its mean action on the probe states, k-means them
    into m clusters, and takes the fittest entry of each cluster.  If the
    embeddings cannot support m distinct clusters (exact duplicates, repeated
    empty-cluster collapses), falls back to the plain top-m by fitness.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not entries:
        raise ValueError("cannot select from no entries")
    ranked = rank(entries)
    if len(entries) <= m:
        return _top(ranked, m)
    # embeddings compare raw nets, not their normalized views, on shared probes
    points = np.stack([policy_embedding(e.policy.policy, probe_states) for e in entries])
    distinct = np.unique(points, axis=0).shape[0]
    if distinct < m:
        return ranked[:m]
    for _ in range(5):
        labels = _kmeans(points, m, rng)
        if np.unique(labels).size == m:
            clusters = [[e for e, lab in zip(entries, labels) if lab == j] for j in range(m)]
            return rank(rank(members)[0] for members in clusters)
    return ranked[:m]
