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

from .trainers import ENVS

CURVE_METRICS = ("max_fitness", "min_fitness", "coverage", "qd_score")

# heatmap color ramp endpoints (RGB) and the fill used for empty cells
_LOW_RGB = (42, 60, 112)
_HIGH_RGB = (245, 213, 71)
_NULL_FILL = "#e0e0e0"


class ReportError(ValueError):
    """A run directory is missing or garbles an artifact a report needs."""


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
    with open(path, errors="replace") as fh:  # undecodable bytes fail as JSON below
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                rec = None
            if not isinstance(rec, dict):
                raise ReportError(f"run {run_dir}: metrics.jsonl line {n} is not a JSON object")
            records.append(rec)
    if not records:
        raise ReportError(f"run {run_dir} has an empty metrics.jsonl")
    return records


def extract_curves(records, run_name: str = "run"):
    """Pull (iterations, {metric: values}) from evaluation-cycle records."""
    iters, rows = [], []
    for n, rec in enumerate(records, 1):
        if rec.get("type") != "iteration" or rec.get("archive") is None:
            continue
        try:
            rows.append([float(rec["archive"][m]) for m in CURVE_METRICS])
            iters.append(int(rec["iteration"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ReportError(f"run {run_name}: metrics.jsonl record {n} lacks a numeric "
                              f"iteration or archive metric: {exc!r}")
    if not iters:
        raise ReportError(f"run {run_name} logged no archive metrics")
    return np.array(iters), dict(zip(CURVE_METRICS, np.array(rows).T))


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
    per_run = [extract_curves(read_metrics(rd), run_name=str(rd)) for rd in run_dirs]
    grid = per_run[0][0]
    for rd, (iters, _) in zip(run_dirs, per_run):
        if not np.array_equal(iters, grid):
            raise ReportError(f"run {rd} evaluates on a different iteration grid")
    out = {"iterations": grid}
    for m in CURVE_METRICS:
        out[m] = band(np.stack([series[m] for _, series in per_run]))
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
    """Group a boolean mask into contiguous (start, stop) runs of True indices."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], np.asarray(mask, dtype=int), [0]])))
    return list(zip(edges[::2], edges[1::2]))


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
    for label, x in (("0", m_left), ("1", m_left + n0 * cell)):
        body.append(
            f'<text x="{x}" y="{height - 20}" font-size="10" '
            f'font-family="monospace" text-anchor="middle" '
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
    try:
        cfg = json.loads((run_dir / "config.json").read_text())
        return float(ENVS[cfg["env_name"]].qd_offset)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ReportError(f"run {run_dir}: config.json is unreadable or names no known "
                          f"env_name: {exc!r}")


def load_heatmap(run_dir) -> np.ndarray:
    """The run's archive fitness grid, refused unless it is the
    (cells_per_dim, cells_per_dim) grid its archive manifest names."""
    archive = Path(run_dir) / "archive"
    try:
        cells = json.loads((archive / "manifest.json").read_text())["cells_per_dim"]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ReportError(f"run {run_dir}: archive/manifest.json is unreadable or names no "
                          f"cells_per_dim: {exc!r}")
    try:
        lines = (archive / "heatmap.csv").read_text().splitlines()
        # without comments a line loadtxt skips is a blank one; a file of
        # those alone is refused here, where loadtxt would warn and return []
        grid = (np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
                if any(line.strip() for line in lines) else np.empty((0, 0)))
    except (OSError, ValueError) as exc:
        raise ReportError(f"run {run_dir}: archive/heatmap.csv is missing or not a numeric "
                          f"grid: {exc!r}")
    if grid.shape != (cells, cells):
        raise ReportError(f"run {run_dir}: archive/heatmap.csv holds a {grid.shape} grid, "
                          f"not the ({cells}, {cells}) of archive/manifest.json")
    return grid


def _check_distinct(run_dirs) -> None:
    """Refuse one run given twice, by path or by name: it would count a seed
    twice or overwrite another run's heatmap."""
    seen = {}
    for rd in run_dirs:
        for key, why in ((rd.resolve(), "are one directory"),
                         (rd.name, f"share the name {rd.name!r}")):
            if key in seen:
                raise ReportError(f"runs {seen[key]} and {rd} {why}")
            seen[key] = rd


def generate_report(run_dirs, out_dir) -> dict:
    """Render curves + per-run heatmaps for one experiment.

    Returns the mapping of artifact names to written paths.  Every run is read
    and checked before anything is written, so a ``ReportError`` naming the
    offending run and file leaves ``out_dir`` as it was.
    """
    run_dirs = [Path(rd) for rd in run_dirs]
    if not run_dirs:
        raise ReportError("no run directories given")
    _check_distinct(run_dirs)
    agg = aggregate_curves(run_dirs)
    heatmaps = [(rd.name, load_heatmap(rd), _run_offset(rd)) for rd in run_dirs]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {"curves_csv": out_dir / "curves.csv", "curves_svg": out_dir / "curves.svg"}
    write_curves_csv(written["curves_csv"], agg)
    render_curves_svg(written["curves_svg"], agg)
    for name, grid, vmin in heatmaps:
        finite = grid[np.isfinite(grid)]
        written[f"heatmap_{name}"] = path = out_dir / f"heatmap_{name}.svg"
        render_heatmap_svg(path, grid, vmin, float(finite.max()) if finite.size else vmin)
    return {name: str(path) for name, path in written.items()}
