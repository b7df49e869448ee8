"""setseg benchmark: one workload run per process.

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Inputs are synthesized from ``--seed``; scratch files go to
``.perfbench_work/`` and are removed at exit. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` the run measures an untraced and then a
traced phase and reports the per-layer ones. Lines before it give the
machine record, every metric in words, failed operations and checks.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import threading
from pathlib import Path

from tracing import percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

E2E_UNITS = {
    "records_per_s": "1/s",
    "op_ms_p50": "ms",
    "completed_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


REPORT_UNITS = {**E2E_UNITS, "op_ms_p90": "ms", "op_ms_max": "ms", "failed_ratio": "ratio"}


def blas_record() -> dict:
    """BLAS library from numpy's build config and its live thread count."""
    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    out = {"name": info.get("name", "?"), "version": info.get("version", "?"), "threads": None}
    maps = Path("/proc/self/maps")
    libs = set()
    if maps.exists():
        for line in maps.read_text().splitlines():
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out["threads"] = int(fn())
                return out
    return out


def machine_record() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize_ops(ops) -> dict:
    done = [op for op in ops if op.error is None]
    busy = sum(op.seconds for op in ops)
    out = {
        "records_per_s": sum(op.images for op in done) / busy,
        "completed_ratio": len(done) / len(ops),
        "failed_ratio": 1.0 - len(done) / len(ops),
        "samples": len(done),
    }
    # latency of completed operations; of all of them if none completed
    ms = [1e3 * op.seconds for op in (done or ops)]
    out["op_ms_p50"] = statistics.median(ms)
    out["op_ms_max"] = max(ms)
    # p90 only where at least ten samples lie beyond it
    if len(done) >= 100:
        out["op_ms_p90"] = percentile(ms, 0.9)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "setseg" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'setseg'}; run from a setseg checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads as wl
    from tracing import LAYER_UNITS, CoverageError, NullTracer, Tracer, instrument, layer_metrics

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]

    load_before = os.getloadavg()
    machine = machine_record()
    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch_root))
    checks = wl.Checks()
    try:
        annotations = wl.make_inputs(w, args.seed, work)
        if args.trace:
            try:
                from scipy.optimize import linear_sum_assignment
                checks.scipy_lsa = linear_sum_assignment
            except ImportError:
                print("scipy not importable: assignment-optimality check skipped")
            tracer = Tracer()
            with instrument(tracer):
                state, setup_s = wl.setup(w, annotations, work, tracer, checks)
            wl.warm_up(w, state)
            with wl.checked_matcher(checks, NullTracer()):
                plain = wl.run_phase(w, state, args.seconds / 2, NullTracer(), checks)
            with instrument(tracer), wl.checked_matcher(checks, tracer):
                phase = wl.run_phase(w, state, args.seconds / 2, tracer, checks)
            if w.kind == "train":
                first = [wl.whole_episodes(w, ph)[:1] for ph in (plain, phase)]
                checks.expect(not all(first) or first[0] == first[1],
                              "traced episode's losses or failed steps differ from untraced")
            summary = summarize_ops(phase.ops)
            try:
                metrics = layer_metrics(tracer, summary["samples"])
            except CoverageError as err:
                checks.expect(False, f"span coverage: {err}")
                metrics = {}
            plain_rate = summarize_ops(plain.ops)["records_per_s"]
            metrics["trace_overhead_ratio"] = (
                summary["records_per_s"] / plain_rate if plain_rate else 0.0)
            units = LAYER_UNITS
        else:
            tracer = NullTracer()
            state, setup_s = wl.setup(w, annotations, work, tracer, checks)
            wl.warm_up(w, state)
            with wl.checked_matcher(checks, tracer):
                phase = wl.run_phase(w, state, args.seconds, tracer, checks)
            summary = summarize_ops(phase.ops)
            metrics = {k: summary[k] for k in ("records_per_s", "op_ms_p50", "completed_ratio")}
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = peak_rss_mb()
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        for t in threading.enumerate():
            if t is not threading.main_thread():
                t.join(timeout=30)
    load_after = os.getloadavg()

    ops = phase.ops
    failed = [op for op in ops if op.error]
    detail = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "loadavg_before": load_before, "loadavg_after": load_after,
        "summary": summary, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
        "failed_ops": [{"index": op.index, "episode": op.episode, "step": op.step,
                        "reason": op.error} for op in failed],
        "checks_failed": checks.failures,
    }
    if w.kind == "train":
        detail["episodes"] = len(phase.losses)
        detail["loss_final"] = wl.loss_final(phase)
    else:
        detail["pq_sq_rq"] = phase.pq

    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          + (" (figures below are from the traced phase)" if args.trace else ""))
    print(f"machine {json.dumps(machine)} loadavg before {load_before} after {load_after}")
    for name in ("records_per_s", "op_ms_p50", "op_ms_p90", "op_ms_max", "failed_ratio"):
        if name in summary:
            print(f"  {name:<28} {summary[name]:.6g} {REPORT_UNITS[name]}")
    print(f"  {'setup_s':<28} {setup_s:.6g} s (median of {wl.SETUP_REPEATS})")
    print(f"  {'peak_rss_mb':<28} {peak_rss_mb():.6g} MB")
    if "loss_final" in detail:
        print(f"  {'loss_final':<28} {detail['loss_final']!r} (episodes {detail['episodes']})")
    if detail.get("pq_sq_rq"):
        print("  PQ/SQ/RQ {:.6f} {:.6f} {:.6f}".format(*detail["pq_sq_rq"]))
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<28} {value:.6g} {units.get(name, '')}")
    print(f"  operations {len(ops)} completed {len(ops) - len(failed)} failed {len(failed)}")
    for f in detail["failed_ops"]:
        print(f"    failed op {f['index']} (episode {f['episode']} step {f['step']}):",
              f["reason"])
    for msg in checks.failures:
        print(f"  CHECK FAILED: {msg}")
    print(f"detail {json.dumps(detail)}")
    result = {
        "correct": not checks.failures,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": units.get(k, "")} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
