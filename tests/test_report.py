"""Reporting layer: curve aggregation and deterministic SVG rendering."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from phasic.report import (CURVE_METRICS, ReportError, _finite_runs, aggregate_curves,
                           extract_curves, generate_report, load_heatmap,
                           read_metrics, render_curves_svg,
                           render_heatmap_svg, write_curves_csv)
from phasic.trainers import TrainerConfig, run_training

import oracles


def _write_synthetic_run(run_dir, iterations, series, env_name="toy", **config):
    """Hand-written metrics.jsonl + minimal config/archive artifacts."""
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "metrics.jsonl", "w") as fh:
        for k, it in enumerate(iterations):
            rec = {"type": "iteration", "iteration": int(it),
                   "archive": {m: float(series[m][k]) for m in CURVE_METRICS}}
            rec["archive"]["filled_cells"] = 1
            rec["archive"]["total_cells"] = 100
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    (run_dir / "config.json").write_text(json.dumps({"env_name": env_name, **config}))
    arch = run_dir / "archive"
    arch.mkdir(exist_ok=True)
    grid = np.full((10, 10), np.nan)
    grid[2, 3] = float(series["max_fitness"][-1])
    np.savetxt(arch / "heatmap.csv", grid, delimiter=",", fmt="%.17g")
    (arch / "manifest.json").write_text(json.dumps({"cells_per_dim": 10}))


def _series(rng):
    n = 6
    return {
        "max_fitness": np.sort(rng.uniform(0, 1, n)),
        "min_fitness": np.sort(rng.uniform(-1, 0, n)),
        "coverage": np.linspace(0.01, 0.2, n),
        "qd_score": np.cumsum(rng.uniform(0, 1, n)),
    }


class TestExtraction:
    def test_missing_metrics_names_the_run(self, tmp_path):
        with pytest.raises(ReportError, match="nowhere"):
            read_metrics(tmp_path / "nowhere")

    def test_curves_skip_non_eval_iterations(self):
        records = [
            {"type": "iteration", "iteration": 0, "archive": None},
            {"type": "iteration", "iteration": 1,
             "archive": {m: 0.5 for m in CURVE_METRICS}},
            {"type": "iteration", "iteration": 3,
             "archive": {m: 0.75 for m in CURVE_METRICS}},
        ]
        iters, series = extract_curves(records)
        assert iters.tolist() == [1, 3]
        assert series["qd_score"].tolist() == [0.5, 0.75]

    def test_no_eval_records_is_an_error(self):
        records = [{"type": "iteration", "iteration": 0, "archive": None}]
        with pytest.raises(ReportError, match="no archive metrics"):
            extract_curves(records, run_name="seed_7")


class TestAggregation:
    def test_band_is_sample_std(self, tmp_path):
        rng = np.random.default_rng(3)
        iters = np.arange(0, 12, 2)
        all_series = []
        for s in range(5):
            series = _series(rng)
            all_series.append(series)
            _write_synthetic_run(tmp_path / f"seed_{s}", iters, series)
        agg = aggregate_curves([tmp_path / f"seed_{s}" for s in range(5)])
        assert np.array_equal(agg["iterations"], iters)
        for m in CURVE_METRICS:
            stack = np.stack([s[m] for s in all_series])
            assert np.allclose(agg[m]["mean"], stack.mean(axis=0))
            assert np.allclose(agg[m]["std"], stack.std(axis=0, ddof=1))

    def test_single_run_has_zero_band(self, tmp_path):
        iters = np.arange(4)
        _write_synthetic_run(tmp_path / "only", iters,
                             _series(np.random.default_rng(0)))
        agg = aggregate_curves([tmp_path / "only"])
        for m in CURVE_METRICS:
            assert np.all(agg[m]["std"] == 0.0)

    def test_mismatched_grids_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        _write_synthetic_run(tmp_path / "a", np.arange(6), _series(rng))
        _write_synthetic_run(tmp_path / "b", np.arange(0, 12, 2), _series(rng))
        with pytest.raises(ReportError, match="iteration grid"):
            aggregate_curves([tmp_path / "a", tmp_path / "b"])


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        iters = np.arange(3)
        for s in range(3):
            _write_synthetic_run(tmp_path / f"seed_{s}", iters, _series(rng))
        agg = aggregate_curves([tmp_path / f"seed_{s}" for s in range(3)])
        path = tmp_path / "curves.csv"
        write_curves_csv(path, agg)
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "iteration"
        assert "qd_score_mean" in header and "qd_score_std" in header
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert table.shape == (3, 1 + 2 * len(CURVE_METRICS))
        col = 1 + 2 * CURVE_METRICS.index("coverage")
        assert np.allclose(table[:, col], agg["coverage"]["mean"])
        assert np.allclose(table[:, col + 1], agg["coverage"]["std"])


class TestSvg:
    def test_curves_svg_deterministic_and_well_formed(self, tmp_path):
        rng = np.random.default_rng(9)
        iters = np.arange(5)
        for s in range(2):
            _write_synthetic_run(tmp_path / f"seed_{s}", iters, _series(rng))
        agg = aggregate_curves([tmp_path / "seed_0", tmp_path / "seed_1"])
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_curves_svg(a, agg)
        render_curves_svg(b, agg)
        assert a.read_bytes() == b.read_bytes()
        root = ET.fromstring(a.read_text())
        assert root.tag.endswith("svg")
        text = a.read_text()
        for m in CURVE_METRICS:
            assert m in text  # panel titles

    def test_curves_svg_handles_nan_points(self, tmp_path):
        agg = {"iterations": np.arange(4)}
        for m in CURVE_METRICS:
            mean = np.array([np.nan, 1.0, 2.0, np.nan])
            agg[m] = {"mean": mean, "std": np.zeros(4)}
        path = tmp_path / "nan.svg"
        render_curves_svg(path, agg)
        ET.fromstring(path.read_text())  # still well-formed

    def test_finite_runs_match_the_loop(self):
        rng = np.random.default_rng(3)
        for n in range(10):
            for _ in range(50):
                mask = rng.random(n) < 0.5
                assert [(int(a), int(b)) for a, b in _finite_runs(mask)] == \
                    oracles.finite_runs(mask)

    def test_heatmap_nan_cells_use_null_color(self, tmp_path):
        grid = np.full((4, 4), np.nan)
        path = tmp_path / "empty.svg"
        render_heatmap_svg(path, grid, vmin=0.0, vmax=1.0)
        root = ET.fromstring(path.read_text())
        fills = [r.get("fill") for r in root.iter()
                 if r.tag.endswith("rect")]
        # 16 cells all null-colored; background + legend rects are the rest
        assert fills.count("#e0e0e0") == 16

    def test_heatmap_scale_anchored(self, tmp_path):
        grid = np.full((3, 3), np.nan)
        grid[0, 0] = 0.0   # the anchor floor
        grid[2, 2] = 10.0  # the observed max
        grid[1, 1] = 5.0
        path = tmp_path / "anchored.svg"
        render_heatmap_svg(path, grid, vmin=0.0, vmax=10.0)
        text = path.read_text()
        assert "#2a3c70" in text  # floor color (low endpoint)
        assert "#f5d547" in text  # max color (high endpoint)
        root = ET.fromstring(path.read_text())
        labels = [t.text for t in root.iter() if t.tag.endswith("text")]
        assert "0" in labels and "10" in labels

    def test_heatmap_deterministic(self, tmp_path):
        rng = np.random.default_rng(2)
        grid = rng.uniform(0, 1, (10, 10))
        grid[rng.uniform(size=(10, 10)) < 0.5] = np.nan
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_heatmap_svg(a, grid, 0.0, 1.0)
        render_heatmap_svg(b, grid, 0.0, 1.0)
        assert a.read_bytes() == b.read_bytes()

    def test_heatmap_rejects_bad_grid(self, tmp_path):
        with pytest.raises(ReportError):
            render_heatmap_svg(tmp_path / "x.svg", np.zeros(5), 0.0, 1.0)


class TestGenerateReport:
    def test_synthetic_end_to_end(self, tmp_path):
        rng = np.random.default_rng(7)
        iters = np.arange(0, 6, 2)
        run_dirs = []
        for s in range(3):
            rd = tmp_path / f"seed_{s}"
            _write_synthetic_run(rd, iters, _series(rng))
            run_dirs.append(rd)
        out = tmp_path / "report"
        written = generate_report(run_dirs, out)
        assert (out / "curves.csv").is_file()
        assert (out / "curves.svg").is_file()
        for s in range(3):
            assert (out / f"heatmap_seed_{s}.svg").is_file()
        assert set(written) == {"curves_csv", "curves_svg",
                                "heatmap_seed_0", "heatmap_seed_1",
                                "heatmap_seed_2"}

    def test_rerender_is_byte_identical(self, tmp_path):
        rd = tmp_path / "seed_0"
        _write_synthetic_run(rd, np.arange(4),
                             _series(np.random.default_rng(4)))
        out = tmp_path / "report"
        generate_report([rd], out)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        generate_report([rd], out)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_missing_heatmap_names_run(self, tmp_path):
        rd = tmp_path / "seed_0"
        _write_synthetic_run(rd, np.arange(3),
                             _series(np.random.default_rng(8)))
        (rd / "archive" / "heatmap.csv").unlink()
        with pytest.raises(ReportError, match="seed_0"):
            generate_report([rd], tmp_path / "report")

    def test_runs_of_different_configurations_are_refused(self, tmp_path):
        rng = np.random.default_rng(9)
        runs = [tmp_path / name for name in ("pdo_0", "pdo_1", "pbt_2")]
        for seed, rd in enumerate(runs):
            _write_synthetic_run(rd, np.arange(3), _series(rng), seed=seed,
                                 trainer=rd.name[:3], population=3)
        generate_report(runs[:2], tmp_path / "seeds")  # runs that differ in seed alone
        with pytest.raises(ReportError) as info:
            generate_report(runs, tmp_path / "report")
        message = str(info.value)
        assert str(runs[0]) in message and str(runs[2]) in message and "'trainer'" in message
        assert not (tmp_path / "report").exists()

    def test_real_run_report(self, tmp_path):
        cfg = TrainerConfig(env_name="toy", trainer="pbt", population=2,
                            iterations=3, rollout_steps=32, eval_episodes=2,
                            eval_every=1, hidden=(8,), probe_states=8,
                            exploit_period=float("inf"), seed=0)
        run_dir = tmp_path / "seed_0"
        run_training(cfg, out_dir=run_dir)
        out = tmp_path / "report"
        generate_report([run_dir], out)
        grid = load_heatmap(run_dir)
        assert grid.shape == (10, 10)
        table = np.loadtxt(out / "curves.csv", delimiter=",", skiprows=1,
                           ndmin=2)
        assert table.shape[0] == 3  # eval every iteration
