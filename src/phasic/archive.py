"""Behavioral archive: a fixed grid over descriptor space plus a fitness queue.

The grid keeps, per cell, the single best policy whose episode behavior
descriptor landed there; replacement requires a strictly better fitness, so
the per-cell (and overall) best fitness never decreases.  The companion
queue simply retains the top-k policies by fitness regardless of behavior,
deduplicating exact parameter clones.  Both containers store the
``NormalizedPolicy`` view a candidate was evaluated through (immutable
parameters plus the normalizer copies the view owns) and a copy of its
descriptor, so callers keep training without disturbing archived snapshots.
Both answer the same queries through one base class, ranked by ``rank``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nets import NormalizedPolicy, save_policy

# the widest grid side: save_archive writes the dense (cells_per_dim,
# cells_per_dim) heatmap, a million cells (8 MB) at this side
MAX_CELLS_PER_DIM = 1000


@dataclass(frozen=True)
class ArchiveEntry:
    policy: NormalizedPolicy  # the view that was evaluated
    fitness: float
    bd: np.ndarray
    source: int = -1          # learner id that produced the snapshot
    iteration: int = -1
    order: int = -1           # global insertion counter (ties -> older wins)
    payload: dict | None = None  # full learner state for exploitation (in-memory only)


def _entry(policy, fitness, bd, order, source, iteration, payload) -> ArchiveEntry:
    """A frozen entry holding its own copy of the descriptor."""
    if not isinstance(policy, NormalizedPolicy):  # save_archive writes its normalizer
        raise TypeError(f"archives store NormalizedPolicy views, not {type(policy).__name__}")
    return ArchiveEntry(
        policy=policy, fitness=fitness,
        bd=np.zeros(0) if bd is None else np.array(bd, dtype=np.float64),
        source=source, iteration=iteration, order=order, payload=payload)


def rank(entries) -> list:
    """Entries by fitness, best first; the older entry (lower order) wins ties."""
    return sorted(entries, key=lambda e: (-e.fitness, e.order))


def _top(ranked: list, m: int) -> list:
    """The first m of ``ranked``, padded by repeating the best entry."""
    if m < 1:
        raise ValueError("m must be positive")
    if not ranked:
        raise ValueError("cannot select from an empty archive")
    out = ranked[:m]
    return out + [ranked[0]] * (m - len(out))


def bd_to_cell(bd: np.ndarray, cells_per_dim: int = 10) -> tuple:
    """Map a descriptor in [0,1]^d to integer grid coordinates.

    floor(bd * cells_per_dim), with the upper edge folded into the last cell
    so bd = 1.0 is valid.  A NaN entry fails the range test too: cast to int
    it would name a cell far outside the grid.
    """
    bd = np.asarray(bd, dtype=np.float64)
    if not np.all((bd >= 0.0) & (bd <= 1.0)):
        raise ValueError(f"behavior descriptor outside [0,1] or not finite: {bd}")
    idx = np.minimum((bd * cells_per_dim).astype(int), cells_per_dim - 1)
    return tuple(int(i) for i in idx)


class _Archive:
    """The queries both containers answer alike, over one dict of entries whose
    keys sort into the order ``sample_uniform`` draws over."""

    def __init__(self):
        self._store: dict = {}
        self._counter = 0

    def __len__(self) -> int:
        return len(self._store)

    def best(self) -> ArchiveEntry | None:
        return rank(self._store.values())[0] if self._store else None

    def max_fitness(self) -> float:
        return self.best().fitness if self._store else float("nan")

    def top(self, m: int) -> list:
        """Best m entries by ``rank``, padded by repeating the best one;
        empty archive -> ValueError."""
        return _top(rank(self._store.values()), m)

    def sample_uniform(self, rng: np.random.Generator) -> ArchiveEntry:
        if not self._store:
            raise ValueError("cannot sample from an empty archive")
        keys = sorted(self._store)
        return self._store[keys[rng.integers(len(keys))]]


class GridArchive(_Archive):
    """Elite-per-cell archive over a [0,1]^2 descriptor grid, keyed by cell."""

    dims = 2  # both environments describe an episode by two numbers

    def __init__(self, cells_per_dim: int = 10):
        if not 1 <= cells_per_dim <= MAX_CELLS_PER_DIM:
            raise ValueError(f"cells_per_dim must lie in [1, {MAX_CELLS_PER_DIM}]")
        super().__init__()
        self.cells_per_dim = cells_per_dim

    @property
    def total_cells(self) -> int:
        return self.cells_per_dim ** self.dims

    def cell_of(self, bd) -> tuple:
        cell = bd_to_cell(bd, self.cells_per_dim)
        if len(cell) != self.dims:
            raise ValueError(f"descriptor has {len(cell)} dims, archive expects {self.dims}")
        return cell

    def add(self, policy: NormalizedPolicy, fitness: float, bd, *, source: int = -1,
            iteration: int = -1, payload: dict | None = None) -> bool:
        """Insert if the cell is empty or the fitness strictly improves it.

        A non-finite fitness or descriptor is refused, not stored."""
        fitness = float(fitness)
        if not np.isfinite(fitness) or not np.all(np.isfinite(bd)):
            return False
        cell = self.cell_of(bd)
        incumbent = self._store.get(cell)
        if incumbent is not None and fitness <= incumbent.fitness:
            return False
        self._store[cell] = _entry(policy, fitness, bd, self._counter, source, iteration,
                                   payload)
        self._counter += 1
        return True

    def entries(self) -> list:
        """Entries in the order their cells were first filled."""
        return list(self._store.values())

    def cells(self) -> dict:
        return dict(self._store)

    def heatmap(self) -> np.ndarray:
        """Dense fitness grid (NaN for empty cells)."""
        grid = np.full((self.cells_per_dim, self.cells_per_dim), np.nan)
        for (i, j), entry in self._store.items():
            grid[i, j] = entry.fitness
        return grid


class FitnessQueue(_Archive):
    """Top-k policies by fitness, behavior-agnostic, keyed by insertion order.

    At capacity a strictly better candidate evicts the worst element; among
    equal-fitness elements the older one is evicted first.  A candidate whose
    raw net matches a held one's (same topology and parameter bytes) is
    rejected outright, whatever its normalizer.
    """

    def __init__(self, capacity: int = 10):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        super().__init__()
        self.capacity = capacity

    def add(self, policy: NormalizedPolicy, fitness: float, bd=None, *, source: int = -1,
            iteration: int = -1, payload: dict | None = None) -> bool:
        fitness = float(fitness)
        if not np.isfinite(fitness):
            return False
        entry = _entry(policy, fitness, bd, self._counter, source, iteration, payload)
        net, raw = policy.policy, policy.params.tobytes()
        held = (e.policy.policy for e in self._store.values())
        if any(h.topology == net.topology and h.params.tobytes() == raw for h in held):
            return False
        self._counter += 1  # a refused offer at capacity still takes a number
        if len(self._store) >= self.capacity:
            # evict the worst; among equals the oldest goes first
            worst = min(self._store, key=lambda order: (self._store[order].fitness, order))
            if fitness <= self._store[worst].fitness:
                return False
            del self._store[worst]
        self._store[entry.order] = entry
        return True

    def entries(self) -> list:
        return rank(self._store.values())


def qd_metrics(archive: GridArchive, fitness_offset: float = 0.0) -> dict:
    """Coverage, QD-score, and max fitness for a grid archive.

    QD-score sums (fitness - offset) over filled cells, with the offset chosen
    per environment so every term is non-negative.  Empty archive reports
    coverage 0, QD-score 0, max fitness NaN.
    """
    entries = archive.entries()
    if not entries:
        return {"coverage": 0.0, "qd_score": 0.0, "max_fitness": float("nan"),
                "min_fitness": float("nan"), "filled_cells": 0,
                "total_cells": archive.total_cells}
    fits = np.array([e.fitness for e in entries])
    return {
        "coverage": len(entries) / archive.total_cells,
        "qd_score": float(np.sum(fits - fitness_offset)),
        "max_fitness": float(fits.max()),
        "min_fitness": float(fits.min()),
        "filled_cells": len(entries),
        "total_cells": archive.total_cells,
    }


# -- persistence -------------------------------------------------------------

def save_archive(archive: GridArchive, directory) -> None:
    """Write the archive as a manifest plus one policy blob per cell; a blob's
    ``obs_mean``/``obs_std`` extras are the normalizer its policy ran with."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("cell_*.npz"):  # an earlier run's blobs
        stale.unlink()
    manifest = {"dims": archive.dims, "cells_per_dim": archive.cells_per_dim,
                "counter": archive._counter, "cells": []}
    for cell, entry in sorted(archive.cells().items()):
        name = "cell_" + "_".join(str(c) for c in cell) + ".npz"
        view = entry.policy
        save_policy(directory / name, view.policy,
                    extra={"obs_mean": view.obs_mean, "obs_std": view.obs_std})
        manifest["cells"].append({
            "cell": list(cell), "file": name, "fitness": entry.fitness,
            "bd": entry.bd.tolist(), "source": entry.source,
            "iteration": entry.iteration, "order": entry.order})
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    np.savetxt(directory / "heatmap.csv", archive.heatmap(), delimiter=",", fmt="%.17g")
