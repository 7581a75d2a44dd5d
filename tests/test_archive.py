"""Grid archive, fitness queue, QD metrics, and persistence round-trips."""

import json

import numpy as np
import pytest

from phasic.archive import FitnessQueue, GridArchive, bd_to_cell, qd_metrics, save_archive
from phasic.nets import NormalizedPolicy, Policy, load_policy

from factories import random_gaussian_policy, view


def tiny_policy(seed=0):
    rng = np.random.default_rng(seed)
    return view(random_gaussian_policy(rng, obs_dim=2, act_dim=2, hidden=()))


class TestCellMapping:
    def test_hand_example(self):
        assert bd_to_cell(np.array([0.35, 0.72])) == (3, 7)

    def test_edges(self):
        assert bd_to_cell(np.array([0.0, 0.0])) == (0, 0)
        # the upper boundary folds into the last cell
        assert bd_to_cell(np.array([1.0, 1.0])) == (9, 9)
        assert bd_to_cell(np.array([0.999999, 0.1])) == (9, 1)

    def test_cell_boundaries_are_half_open(self):
        assert bd_to_cell(np.array([0.3, 0.3])) == (3, 3)
        assert bd_to_cell(np.array([0.29999999, 0.3])) == (2, 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bd_to_cell(np.array([-0.01, 0.5]))
        with pytest.raises(ValueError):
            bd_to_cell(np.array([0.5, 1.01]))

    def test_non_finite_rejected(self):
        # NaN fails no comparison-based range test; cast to int it was cell -2**63
        for bd in ([np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [0.5, -np.inf]):
            with pytest.raises(ValueError):
                bd_to_cell(np.array(bd))

    def test_other_resolutions(self):
        assert bd_to_cell(np.array([0.5]), cells_per_dim=4) == (2,)


class TestGridArchive:
    def test_insert_and_replace_gating(self):
        arch = GridArchive()
        pol = tiny_policy()
        assert arch.add(pol, 1.0, [0.35, 0.72])
        assert len(arch) == 1
        # same cell, equal fitness: rejected (strict improvement only)
        assert not arch.add(pol, 1.0, [0.31, 0.78])
        assert not arch.add(pol, 0.5, [0.35, 0.72])
        assert arch.add(pol, 1.5, [0.35, 0.72])
        assert len(arch) == 1
        assert arch.max_fitness() == 1.5

    def test_distinct_cells_coexist(self):
        arch = GridArchive()
        pol = tiny_policy()
        arch.add(pol, 1.0, [0.05, 0.05])
        arch.add(pol, -5.0, [0.95, 0.95])
        assert len(arch) == 2
        assert arch.max_fitness() == 1.0

    def test_max_fitness_never_decreases(self):
        rng = np.random.default_rng(0)
        arch = GridArchive()
        pol = tiny_policy()
        best = -np.inf
        for _ in range(500):
            arch.add(pol, float(rng.normal()), rng.uniform(0, 1, 2))
            current = arch.max_fitness()
            assert current >= best - 1e-15
            best = max(best, current)

    def test_nonfinite_fitness_rejected(self):
        arch = GridArchive()
        assert not arch.add(tiny_policy(), float("nan"), [0.5, 0.5])
        assert not arch.add(tiny_policy(), float("inf"), [0.5, 0.5])
        assert len(arch) == 0

    def test_nonfinite_descriptor_rejected(self):
        arch = GridArchive()
        for bd in ([np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [0.5, -np.inf]):
            assert not arch.add(tiny_policy(), 1.0, bd)
        assert len(arch) == 0 and arch.cells() == {}
        assert arch.heatmap().shape == (arch.cells_per_dim, arch.cells_per_dim)
        assert np.all(np.isnan(arch.heatmap()))

    def test_archived_snapshot_untouched_by_caller(self):
        arch = GridArchive()
        pol = tiny_policy()
        arch.add(pol, 1.0, [0.5, 0.5])
        stored = arch.entries()[0].policy
        assert np.array_equal(stored.params, pol.params)

    def test_top_orders_and_pads(self):
        arch = GridArchive()
        pol = tiny_policy()
        arch.add(pol, 1.0, [0.05, 0.05])   # order 0
        arch.add(pol, 3.0, [0.15, 0.05])   # order 1
        arch.add(pol, 3.0, [0.25, 0.05])   # order 2: tie, newer
        top = arch.top(3)
        assert [e.fitness for e in top] == [3.0, 3.0, 1.0]
        assert top[0].order == 1  # older of the tied pair ranks first
        padded = arch.top(5)
        assert [e.fitness for e in padded] == [3.0, 3.0, 1.0, 3.0, 3.0]
        assert padded[3].order == 1

    def test_top_empty_raises(self):
        with pytest.raises(ValueError):
            GridArchive().top(1)

    def test_sample_uniform_over_cells(self):
        arch = GridArchive()
        pol = tiny_policy()
        for i, bd in enumerate(([0.05, 0.05], [0.55, 0.55], [0.95, 0.95])):
            arch.add(pol, float(i), bd)
        rng = np.random.default_rng(1)
        counts = np.zeros(3)
        draws = 30_000
        for _ in range(draws):
            entry = arch.sample_uniform(rng)
            counts[int(entry.fitness)] += 1
        assert counts / draws == pytest.approx([1 / 3] * 3, abs=0.02)

    def test_heatmap_layout(self):
        arch = GridArchive()
        arch.add(tiny_policy(), 2.5, [0.35, 0.72])
        grid = arch.heatmap()
        assert grid.shape == (10, 10)
        assert grid[3, 7] == 2.5
        assert np.isnan(grid).sum() == 99


class TestQdMetrics:
    def test_empty_archive(self):
        m = qd_metrics(GridArchive())
        assert m["coverage"] == 0.0
        assert m["qd_score"] == 0.0
        assert np.isnan(m["max_fitness"])

    def test_hand_example_with_offset(self):
        arch = GridArchive()
        pol = tiny_policy()
        arch.add(pol, 5.0, [0.05, 0.05])
        arch.add(pol, 3.0, [0.55, 0.55])
        m = qd_metrics(arch, fitness_offset=1.0)
        assert m["coverage"] == pytest.approx(0.02)
        assert m["qd_score"] == pytest.approx((5.0 - 1.0) + (3.0 - 1.0))
        assert m["max_fitness"] == 5.0
        assert m["filled_cells"] == 2
        assert m["total_cells"] == 100

    def test_negative_fitness_with_floor_offset(self):
        arch = GridArchive()
        arch.add(tiny_policy(), -1500.0, [0.5, 0.5])
        m = qd_metrics(arch, fitness_offset=-2000.0)
        assert m["qd_score"] == pytest.approx(500.0)


@pytest.mark.parametrize("container", [GridArchive, FitnessQueue])
def test_entries_hold_their_own_arrays(container):
    store = container()
    bd, mean, std = np.array([0.5, 0.5]), np.array([1.0, 2.0]), np.array([3.0, 4.0])
    candidate = NormalizedPolicy(tiny_policy().policy, mean, std)
    assert store.add(candidate, 1.0, bd, source=2, iteration=5)
    bd[:] = mean[:] = std[:] = 0.0  # the caller reuses its buffers
    entry = store.entries()[0]
    assert entry.policy is candidate  # the view owns its normalizer copies
    assert entry.bd.tolist() == [0.5, 0.5]
    assert entry.policy.obs_mean.tolist() == [1.0, 2.0]
    assert entry.policy.obs_std.tolist() == [3.0, 4.0]
    assert not (entry.policy.obs_mean.flags.writeable or entry.policy.obs_std.flags.writeable)
    assert (entry.source, entry.iteration, entry.order) == (2, 5, 0)
    # a bare net has no normalizer to store, so neither container takes one
    with pytest.raises(TypeError, match="NormalizedPolicy"):
        store.add(candidate.policy, 2.0, [0.25, 0.25])
    assert len(store) == 1


class TestFitnessQueue:
    def test_keeps_top_k_by_fitness(self):
        q = FitnessQueue(capacity=3)
        for i, f in enumerate([1.0, 5.0, 3.0, 4.0, 0.5]):
            q.add(tiny_policy(i), f)
        fits = [e.fitness for e in q.entries()]
        assert fits == [5.0, 4.0, 3.0]

    def test_at_capacity_requires_strict_improvement(self):
        q = FitnessQueue(capacity=2)
        q.add(tiny_policy(0), 1.0)
        q.add(tiny_policy(1), 2.0)
        assert not q.add(tiny_policy(2), 1.0)  # ties the worst: rejected
        assert q.add(tiny_policy(3), 1.5)
        assert [e.fitness for e in q.entries()] == [2.0, 1.5]

    def test_tie_eviction_removes_oldest(self):
        q = FitnessQueue(capacity=2)
        q.add(tiny_policy(0), 1.0)   # order 0
        q.add(tiny_policy(1), 1.0)   # order 1
        assert q.add(tiny_policy(2), 2.0)
        remaining = {e.order for e in q.entries()}
        assert 0 not in remaining  # the older of the tied pair was evicted

    def test_exact_duplicates_rejected(self):
        q = FitnessQueue(capacity=5)
        pol = tiny_policy(0)
        assert q.add(pol, 1.0)
        assert not q.add(pol, 99.0)  # same parameters, regardless of fitness
        clone = pol.with_params(pol.params.copy())
        assert not q.add(clone, 2.0)

    def test_different_params_are_distinct(self):
        q = FitnessQueue(capacity=5)
        pol = tiny_policy(0)
        q.add(pol, 1.0)
        bumped = pol.with_params(pol.params + 1e-9)
        assert q.add(bumped, 1.0)
        assert len(q) == 2

    def test_same_net_under_another_normalizer_is_a_duplicate(self):
        q = FitnessQueue(capacity=5)
        pol = tiny_policy(0)
        assert q.add(pol, 1.0)
        renormalized = NormalizedPolicy(pol.policy, np.full(2, 0.5), np.full(2, 3.0))
        assert not q.add(renormalized, 2.0)
        assert len(q) == 1

    def test_equal_bytes_under_different_topologies_are_distinct(self):
        # both nets hold 12 zeros: 3*2+2 + 2*1+1 + 1 log-std against 2*2+2 + 2*2+2
        q = FitnessQueue(capacity=5)
        nets = [Policy({"obs_dim": 3, "hidden": (2,),
                        "action_space": {"kind": "continuous", "dim": 1}}, np.zeros(12)),
                Policy({"obs_dim": 2, "hidden": (2,),
                        "action_space": {"kind": "discrete", "dim": 2}}, np.zeros(12))]
        for net in nets:
            assert q.add(view(net), 1.0)
        assert len(q) == 2

    def test_top_pads_with_best(self):
        q = FitnessQueue(capacity=5)
        q.add(tiny_policy(0), 2.0)
        q.add(tiny_policy(1), 7.0)
        top = q.top(4)
        assert [e.fitness for e in top] == [7.0, 2.0, 7.0, 7.0]

    def test_empty_queue_top_raises(self):
        with pytest.raises(ValueError):
            FitnessQueue().top(1)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        arch = GridArchive()
        for i in range(12):
            pol = NormalizedPolicy(random_gaussian_policy(rng, hidden=(4,)),
                                   rng.normal(size=2), rng.uniform(0.5, 2, 2))
            arch.add(pol, float(rng.normal()), rng.uniform(0, 1, 2),
                     source=i % 3, iteration=i)
        save_archive(arch, tmp_path / "arch")
        manifest = json.loads((tmp_path / "arch" / "manifest.json").read_text())
        assert manifest["dims"] == 2
        assert manifest["cells_per_dim"] == arch.cells_per_dim
        assert manifest["counter"] == arch._counter
        assert len(manifest["cells"]) == len(arch)
        for item in manifest["cells"]:
            entry = arch.cells()[tuple(item["cell"])]
            assert item["fitness"] == entry.fitness
            assert np.array_equal(item["bd"], entry.bd)
            assert (item["source"], item["iteration"], item["order"]) == (
                entry.source, entry.iteration, entry.order)
            assert "has_normalizer" not in item  # every blob carries its normalizer
            policy, extra = load_policy(tmp_path / "arch" / item["file"])
            assert np.array_equal(policy.params, entry.policy.params)
            assert policy.topology == entry.policy.policy.topology
            assert np.array_equal(extra["obs_mean"], entry.policy.obs_mean)
            assert np.array_equal(extra["obs_std"], entry.policy.obs_std)
        assert (tmp_path / "arch" / "heatmap.csv").exists()

    def test_blob_keeps_the_floored_std_it_was_evaluated_with(self, tmp_path):
        # an observation that never varied has std 0; the view floors it at
        # 1e-8, and the blob must hold the floored value the policy ran with
        candidate = NormalizedPolicy(tiny_policy().policy, np.zeros(2), np.array([0.0, 2.0]))
        arch = GridArchive()
        arch.add(candidate, 1.0, [0.5, 0.5])
        save_archive(arch, tmp_path / "a")
        entry, = arch.entries()
        _, extra = load_policy(tmp_path / "a" / "cell_5_5.npz")
        assert extra["obs_std"].tobytes() == entry.policy.obs_std.tobytes()
        assert extra["obs_std"].tolist() == [1e-8, 2.0]

    def test_rerun_leaves_only_the_manifest_s_blobs(self, tmp_path):
        large, small = GridArchive(cells_per_dim=3), GridArchive(cells_per_dim=3)
        for i, bd in enumerate([[0.1, 0.1], [0.5, 0.1], [0.9, 0.5], [0.1, 0.9], [0.5, 0.5]]):
            assert large.add(tiny_policy(i), float(i), bd)
        assert small.add(tiny_policy(9), 1.0, [0.9, 0.9])
        for arch in (large, small):
            save_archive(arch, tmp_path / "a")
            manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
            assert len(manifest["cells"]) == len(arch)
            assert sorted(p.name for p in (tmp_path / "a").glob("*.npz")) == sorted(
                item["file"] for item in manifest["cells"])

    def test_heatmap_csv_matches_grid(self, tmp_path):
        arch = GridArchive()
        arch.add(tiny_policy(), 2.5, [0.35, 0.72])
        save_archive(arch, tmp_path / "a")
        grid = np.loadtxt(tmp_path / "a" / "heatmap.csv", delimiter=",")
        assert grid.shape == (10, 10)
        assert grid[3, 7] == 2.5


def test_both_containers_answer_the_same_queries_alike():
    """Offers both containers accept leave them ranking, padding and reporting
    alike; each draws uniformly over its own order (sorted cells, insertion)."""
    grid, queue = GridArchive(), FitnessQueue(capacity=8)
    fits = [2.0, 5.0, 3.0, 5.0, -1.0, 3.0, 0.5, 4.0]
    bds = [[0.95, 0.1], [0.1, 0.9], [0.5, 0.5], [0.05, 0.05],
           [0.75, 0.35], [0.35, 0.75], [0.55, 0.15], [0.15, 0.55]]
    for i, (f, bd) in enumerate(zip(fits, bds)):
        offer = (tiny_policy(i), f, bd)
        assert grid.add(*offer, source=i) and queue.add(*offer, source=i)
    assert len(grid) == len(queue) == 8
    assert grid.best() is not None and grid.best().source == queue.best().source == 1
    assert grid.max_fitness() == queue.max_fitness() == 5.0
    for m in (1, 3, 8, 11):
        assert [e.source for e in grid.top(m)] == [e.source for e in queue.top(m)]
    assert [e.source for e in queue.top(11)] == [1, 3, 7, 2, 5, 0, 6, 4, 1, 1, 1]
    draws = {}
    for store in (grid, queue):
        rng = np.random.default_rng(11)
        draws[type(store).__name__] = [store.sample_uniform(rng).source for _ in range(12)]
    assert draws == {"GridArchive": [7, 7, 4, 5, 6, 6, 2, 3, 5, 7, 5, 0],
                     "FitnessQueue": [1, 1, 6, 3, 4, 4, 5, 0, 3, 1, 3, 7]}
