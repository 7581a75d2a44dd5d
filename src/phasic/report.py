"""Deterministic rendering of run artifacts: curves and archive heatmaps.

Everything in this module is a pure function of the run directories it is
handed.  No timestamps, no randomness, fixed number formatting — rendering
the same runs twice produces byte-identical CSV and SVG output, so reports
can be checked into version control or diffed across machines.

A report covers one experiment (one or more seeds of the same configuration):

* ``curves.csv`` / ``curves.svg``  — max fitness, min fitness, coverage and
  QD-score per evaluation cycle, aggregated across seeds as mean with a
  sample-standard-deviation band.
* ``heatmap_<run>.svg``            — one fitness heatmap per run's final
  archive, color scale anchored at the environment's fitness offset below
  and the observed maximum above; empty cells drawn in a null color.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CURVE_METRICS = ("max_fitness", "min_fitness", "coverage", "qd_score")

# heatmap color ramp endpoints (RGB) and the fill used for empty cells
_LOW_RGB = (42, 60, 112)
_HIGH_RGB = (245, 213, 71)
_NULL_FILL = "#e0e0e0"


class ReportError(ValueError):
    """A run directory is missing the artifacts a report needs."""


def _fmt(v: float) -> str:
    """Fixed, locale-independent number formatting for SVG/CSV output."""
    return format(float(v), ".6g")


def read_metrics(run_dir) -> list:
    """Parse metrics.jsonl into iteration records, newest last."""
    run_dir = Path(run_dir)
    path = run_dir / "metrics.jsonl"
    if not path.is_file():
        raise ReportError(f"run {run_dir} has no metrics.jsonl")
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if not records:
        raise ReportError(f"run {run_dir} has an empty metrics.jsonl")
    return records


def extract_curves(records, run_name: str = "run"):
    """Pull (iterations, {metric: values}) from evaluation-cycle records."""
    iters, series = [], {m: [] for m in CURVE_METRICS}
    for rec in records:
        if rec.get("type") != "iteration" or rec.get("archive") is None:
            continue
        iters.append(int(rec["iteration"]))
        for m in CURVE_METRICS:
            series[m].append(float(rec["archive"][m]))
    if not iters:
        raise ReportError(f"run {run_name} logged no archive metrics")
    return np.array(iters), {m: np.array(v) for m, v in series.items()}


def band(stack) -> dict:
    """Mean and sample std over the first axis (one entry per seed); a single
    seed has a zero-width band."""
    stack = np.asarray(stack, dtype=float)
    mean = stack.mean(axis=0)
    std = stack.std(axis=0, ddof=1) if stack.shape[0] > 1 else np.zeros_like(mean)
    return {"mean": mean, "std": std}


def aggregate_curves(run_dirs):
    """Mean and sample std of each curve metric across seeds.

    All runs must share the same evaluation-iteration grid; a single run
    aggregates to zero-width bands.
    """
    if not run_dirs:
        raise ReportError("no run directories to aggregate")
    grids, per_run = [], []
    for rd in run_dirs:
        iters, series = extract_curves(read_metrics(rd), run_name=str(rd))
        grids.append(iters)
        per_run.append(series)
    for rd, grid in zip(run_dirs, grids):
        if not np.array_equal(grid, grids[0]):
            raise ReportError(
                f"run {rd} evaluates on a different iteration grid")
    out = {"iterations": grids[0]}
    for m in CURVE_METRICS:
        out[m] = band(np.stack([series[m] for series in per_run]))
    return out


def write_curves_csv(path, agg) -> None:
    """curves.csv: iteration plus mean/std columns for every curve metric."""
    header = ["iteration"]
    for m in CURVE_METRICS:
        header += [f"{m}_mean", f"{m}_std"]
    lines = [",".join(header)]
    for k, it in enumerate(agg["iterations"]):
        row = [str(int(it))]
        for m in CURVE_METRICS:
            row.append(format(agg[m]["mean"][k], ".17g"))
            row.append(format(agg[m]["std"][k], ".17g"))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


# -- SVG primitives -----------------------------------------------------------


def _finite_runs(mask):
    """Group a boolean mask into contiguous runs of True indices."""
    runs, start = [], None
    for i, ok in enumerate(mask):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(mask)))
    return runs


def _lerp_color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    rgb = tuple(round(a + (b - a) * t) for a, b in zip(_LOW_RGB, _HIGH_RGB))
    return "#%02x%02x%02x" % rgb


def _panel_svg(x0, y0, w, h, title, iters, mean, std):
    """One curve panel: frame, min/max tick labels, std band, mean line."""
    parts = [f'<g transform="translate({x0},{y0})">']
    pad_l, pad_r, pad_t, pad_b = 58, 12, 26, 30
    iw, ih = w - pad_l - pad_r, h - pad_t - pad_b
    finite = np.isfinite(mean) & np.isfinite(std)
    lo_vals = (mean - std)[finite]
    hi_vals = (mean + std)[finite]
    if lo_vals.size:
        y_lo, y_hi = float(lo_vals.min()), float(hi_vals.max())
    else:
        y_lo, y_hi = 0.0, 1.0
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    span = y_hi - y_lo
    y_lo, y_hi = y_lo - 0.05 * span, y_hi + 0.05 * span
    x_lo, x_hi = float(iters.min()), float(iters.max())
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    def sx(v):
        return pad_l + (v - x_lo) / (x_hi - x_lo) * iw

    def sy(v):
        return pad_t + (1.0 - (v - y_lo) / (y_hi - y_lo)) * ih

    parts.append(
        f'<rect x="{pad_l}" y="{pad_t}" width="{iw}" height="{ih}" '
        'fill="none" stroke="#444444" stroke-width="1"/>')
    parts.append(
        f'<text x="{pad_l}" y="16" font-size="13" font-family="monospace" '
        f'fill="#111111">{title}</text>')
    for v, anchor_y in ((y_lo, sy(y_lo)), (y_hi, sy(y_hi))):
        parts.append(
            f'<text x="{pad_l - 6}" y="{_fmt(anchor_y + 4)}" font-size="10" '
            f'font-family="monospace" text-anchor="end" '
            f'fill="#333333">{_fmt(v)}</text>')
    for v in (x_lo, x_hi):
        parts.append(
            f'<text x="{_fmt(sx(v))}" y="{h - pad_b + 14}" font-size="10" '
            f'font-family="monospace" text-anchor="middle" '
            f'fill="#333333">{_fmt(v)}</text>')

    for a, b in _finite_runs(finite):
        xs = iters[a:b]
        if b - a == 1:
            parts.append(
                f'<circle cx="{_fmt(sx(xs[0]))}" cy="{_fmt(sy(mean[a]))}" '
                'r="2.5" fill="#1f77b4"/>')
            continue
        upper = [(sx(x), sy(u)) for x, u in zip(xs, (mean + std)[a:b])]
        lower = [(sx(x), sy(l)) for x, l in zip(xs, (mean - std)[a:b])]
        band = " ".join(f"{_fmt(px)},{_fmt(py)}"
                        for px, py in upper + lower[::-1])
        parts.append(
            f'<polygon points="{band}" fill="#1f77b4" fill-opacity="0.25" '
            'stroke="none"/>')
        line = " ".join(f"{_fmt(sx(x))},{_fmt(sy(v))}"
                        for x, v in zip(xs, mean[a:b]))
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="#1f77b4" '
            'stroke-width="1.5"/>')
    parts.append("</g>")
    return "\n".join(parts)


def render_curves_svg(path, agg) -> None:
    """2x2 panel figure of the curve metrics with mean +/- std bands."""
    pw, ph = 440, 280
    width, height = 2 * pw, 2 * ph
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" '
            'fill="#ffffff"/>']
    iters = agg["iterations"]
    for k, m in enumerate(CURVE_METRICS):
        x0, y0 = (k % 2) * pw, (k // 2) * ph
        body.append(_panel_svg(x0, y0, pw, ph, m, iters,
                               agg[m]["mean"], agg[m]["std"]))
    body.append("</svg>")
    Path(path).write_text("\n".join(body) + "\n")


def render_heatmap_svg(path, grid, vmin: float, vmax: float) -> None:
    """Archive fitness heatmap.

    ``grid[i, j]`` is the fitness of the cell covering descriptor bin
    (i, j); NaN marks an empty cell.  Descriptor 0 runs along the x axis,
    descriptor 1 up the y axis.  The color scale is anchored at ``vmin``
    (the environment floor) and ``vmax`` (the observed maximum), so the
    same colors mean the same fitness across runs of one environment.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ReportError("heatmap grid must be 2-D")
    n0, n1 = grid.shape
    cell = 34
    m_left, m_bottom, m_top, legend_w = 46, 34, 14, 88
    width = m_left + n0 * cell + legend_w
    height = m_top + n1 * cell + m_bottom
    span = vmax - vmin
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" '
            'fill="#ffffff"/>']
    for i in range(n0):
        for j in range(n1):
            v = grid[i, j]
            if math.isnan(v):
                fill = _NULL_FILL
            elif span <= 0:
                fill = _lerp_color(1.0)
            else:
                fill = _lerp_color((v - vmin) / span)
            x = m_left + i * cell
            y = m_top + (n1 - 1 - j) * cell
            body.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{fill}" stroke="#ffffff" stroke-width="1"/>')
    # axis labels: descriptor ranges are always [0, 1)
    body.append(
        f'<text x="{m_left + n0 * cell / 2}" y="{height - 8}" '
        'font-size="11" font-family="monospace" text-anchor="middle" '
        'fill="#333333">descriptor 0</text>')
    body.append(
        f'<text x="14" y="{m_top + n1 * cell / 2}" font-size="11" '
        'font-family="monospace" text-anchor="middle" fill="#333333" '
        f'transform="rotate(-90 14 {m_top + n1 * cell / 2})">'
        'descriptor 1</text>')
    for label, x, anchor in (("0", m_left, "middle"),
                             ("1", m_left + n0 * cell, "middle")):
        body.append(
            f'<text x="{x}" y="{height - 20}" font-size="10" '
            f'font-family="monospace" text-anchor="{anchor}" '
            f'fill="#333333">{label}</text>')
    # legend: vertical ramp with the two anchor values
    lx = m_left + n0 * cell + 26
    lh = n1 * cell
    steps = 32
    for s in range(steps):
        t = 1.0 - s / (steps - 1)
        y = m_top + s * lh / steps
        body.append(
            f'<rect x="{lx}" y="{_fmt(y)}" width="14" '
            f'height="{_fmt(lh / steps + 0.5)}" fill="{_lerp_color(t)}" '
            'stroke="none"/>')
    body.append(
        f'<text x="{lx + 18}" y="{m_top + 9}" font-size="10" '
        f'font-family="monospace" fill="#333333">{_fmt(vmax)}</text>')
    body.append(
        f'<text x="{lx + 18}" y="{m_top + lh}" font-size="10" '
        f'font-family="monospace" fill="#333333">{_fmt(vmin)}</text>')
    body.append("</svg>")
    Path(path).write_text("\n".join(body) + "\n")


# -- report orchestration ------------------------------------------------------


def _run_offset(run_dir: Path) -> float:
    """Fitness floor for the run's environment (anchors the heatmap scale)."""
    cfg_path = run_dir / "config.json"
    if not cfg_path.is_file():
        raise ReportError(f"run {run_dir} has no config.json")
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    from .trainers import make_env  # deferred: avoids import cycles at startup

    return float(make_env(cfg["env_name"]).qd_offset)


def load_heatmap(run_dir) -> np.ndarray:
    run_dir = Path(run_dir)
    path = run_dir / "archive" / "heatmap.csv"
    if not path.is_file():
        raise ReportError(f"run {run_dir} has no archive/heatmap.csv")
    grid = np.loadtxt(path, delimiter=",", ndmin=2)
    return grid


def generate_report(run_dirs, out_dir) -> dict:
    """Render curves + per-run heatmaps for one experiment.

    Returns the mapping of artifact names to written paths.  Raises
    ``ReportError`` naming the offending run when any artifact is missing.
    """
    run_dirs = [Path(rd) for rd in run_dirs]
    if not run_dirs:
        raise ReportError("no run directories given")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    agg = aggregate_curves(run_dirs)
    written = {}
    csv_path = out_dir / "curves.csv"
    write_curves_csv(csv_path, agg)
    written["curves_csv"] = str(csv_path)
    svg_path = out_dir / "curves.svg"
    render_curves_svg(svg_path, agg)
    written["curves_svg"] = str(svg_path)
    for rd in run_dirs:
        grid = load_heatmap(rd)
        vmin = _run_offset(rd)
        finite = grid[np.isfinite(grid)]
        vmax = float(finite.max()) if finite.size else vmin
        heat_path = out_dir / f"heatmap_{rd.name}.svg"
        render_heatmap_svg(heat_path, grid, vmin, vmax)
        written[f"heatmap_{rd.name}"] = str(heat_path)
    return written
