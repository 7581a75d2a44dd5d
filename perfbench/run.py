"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload toy-pdo --seed 0 --seconds 40 --trace 0

Workloads: toy-pdo, dogfight-pdo, ascent (see workloads.py and README.md).
The run sets its workload up several times, then repeats whole rounds of
the workload until the next round would end after ``--seconds``; it always
runs at least two rounds, so a training seed is replayed at least once.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with no layer wrappers installed.  Their times are scaled to the reference
host speed by a gauge timed alongside the workload (see gauge.py); the raw
figures are printed above the result.  ``--trace 1`` alternates untraced and
traced rounds, reports the per-layer metrics from the traced ones plus the
tracing overhead against the untraced ones, and writes the spans to
``perfbench/out/``.  The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS and OpenMP are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
MIN_ROUNDS = 2
# a fresh interpreter per sample, since a module is imported once per process
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, phasic; "
                "print(time.perf_counter() - t)")


def _import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("toy-pdo", "dogfight-pdo", "ascent"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import phasic
    except ImportError as exc:
        print(f"error: cannot import phasic from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(phasic.__file__).resolve().parent.parent != SRC:
        print(f"error: phasic was imported from {phasic.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from gauge import HostGauge, adjusted
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    workload = workloads.WORKLOADS[args.workload]
    import_times, setup_times = [], []
    setup_gauge = HostGauge()
    for _ in range(SETUP_REPEATS):
        setup_gauge.sample()
        import_times.append(_import_seconds())
        setup_gauge.sample()
        t = perf_counter()
        inputs = workload.setup(args.seed)
        setup_times.append(perf_counter() - t)

    print("environment " + json.dumps(_environment(), sort_keys=True))
    tracer = Tracer() if args.trace else None
    rounds = []
    began = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        round_began = perf_counter()
        result = workload.run_round(inputs, tracer if traced else None,
                                    None if args.trace else HostGauge())
        rounds.append((traced, result))
        gauge = f" gauge_ms={statistics.median(result.gauge) * 1e3:.4f}" if result.gauge else ""
        print(f"round {len(rounds)} traced={int(traced)} wall_s={result.wall_s:.4f}{gauge} "
              f"attempted={result.attempted} failed={result.failed} steps={result.steps} "
              f"digest={result.digest} {json.dumps(result.info, sort_keys=True)}", flush=True)
        now = perf_counter()
        if len(rounds) >= MIN_ROUNDS and now - began + (now - round_began) > args.seconds:
            break

    errors = [e for _, r in rounds for e in r.errors]
    digests = sorted({r.digest for _, r in rounds if r.digest is not None})
    if len(digests) > 1:
        errors.append(f"seed {args.seed} gave different digests across rounds: {digests}")
    for e in errors:
        print(f"check failed: {e}")
    plain = [r for t, r in rounds if not t]
    if args.trace:
        traced_rounds = [r for t, r in rounds if t]
        metrics = workload.layer_metrics(inputs, tracer.table(), tracer.counts, traced_rounds)
        # each traced round against the untraced round just before it
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(
            rounds[i][1].wall_s / rounds[i - 1][1].wall_s
            for i in range(1, len(rounds), 2)) - 1.0)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        setup = statistics.median(import_times) + statistics.median(setup_times)
        walls = [adjusted(r.wall_s, r.gauge) for r in plain]
        metrics = {
            "setup_s": adjusted(setup, setup_gauge.samples),
            "wall_ref_s": statistics.median(walls),
            "steps_per_ref_s": statistics.median(r.steps / w for r, w in zip(plain, walls)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        per_s = "ascent_steps_per_s" if args.workload == "ascent" else "env_steps_per_s"
        gauges = [statistics.median(r.gauge) for r in plain]
        print(f"{per_s} = {metrics['steps_per_ref_s']:.3f} steps/s at the reference speed, "
              f"{statistics.median(r.steps / r.wall_s for r in plain):.3f} raw")
        print(f"raw setup_s = {setup:.6f} s, raw wall_s = "
              f"{statistics.median(r.wall_s for r in plain):.6f} s; gauge median "
              f"{statistics.median(setup_gauge.samples) * 1e3:.4f} ms in set-up, "
              f"{statistics.median(gauges) * 1e3:.4f} ms in rounds "
              f"({min(gauges) * 1e3:.4f}..{max(gauges) * 1e3:.4f})")
    if "qd_score" in plain[-1].info:
        print(f"qd_score = {plain[-1].info['qd_score']!r}")
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"import_median_s={statistics.median(import_times):.6f} "
          f"setup_median_s={statistics.median(setup_times):.6f} "
          f"digest={','.join(digests)}")
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        print(f"error: metrics missing {missing}, undeclared {extra}", file=sys.stderr)
        return 3
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for _, r in rounds),
        "failed": sum(r.failed for _, r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
