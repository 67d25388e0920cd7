"""One workload process of the spectree benchmark (started by ``run.py``).

It imports spectree from ``src/`` of the checkout, builds the workload's
inputs from the seed, and reports when it was ready to issue its first
operation.  Then, depending on ``--mode``:

``setup``   exit at once (a set-up sample);
``timed``   run passes over the workload's operations until the next pass
            would end after ``--seconds``, always at least one;
``traced``  the same with spans around every layer boundary.

With ``--seconds 0`` exactly one pass runs; ``run.py`` uses that for the
traced pass and its untraced reference.

Every operation's output is checked.  The result goes to ``<out>/result.json``
and, when traced, the spans to ``<out>/spans.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _now() -> float:
    # the clock run.py read just before starting this process
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    p.add_argument("--started", type=float, required=True,
                   help="CLOCK_MONOTONIC just before this process was started")
    p.add_argument("--out", required=True, help="directory for result.json")
    return p.parse_args(argv)


def machine(cli) -> dict:
    """Cores, RAM, Python, numpy/scipy, BLAS and the CLI's effective --jobs."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "jobs_default": cli._default_jobs(None),
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through ctypes."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def run_op(cli, checks, op, csv_path: Path) -> dict:
    """One CLI call, timed, with its output checked."""
    with contextlib.suppress(FileNotFoundError):
        csv_path.unlink()
    out, err = io.StringIO(), io.StringIO()
    rc, raised = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.resolved_argv(str(csv_path)))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        raised = traceback.format_exc()
        err.write(raised)
    wall = time.perf_counter() - start
    csv_text = csv_path.read_text() if csv_path.exists() else None
    if raised is not None:
        misses, accuracy = ["raised: " + raised.strip().splitlines()[-1]], {}
    else:
        misses, accuracy = checks[op.kind](rc, out.getvalue(), csv_text, op.params)
    return {"label": op.label, "wall_s": wall, "ok": not misses, "misses": misses,
            "accuracy": accuracy, "stderr": err.getvalue()[-2000:]}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from spectree import cli

    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    out_dir = Path(args.out)
    csv_path = out_dir / "scan.csv"
    setup_s = _now() - args.started

    result = {"setup_s": setup_s}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracing.install_spectree(tracer)
        passes = []
        budget_end = time.perf_counter() + args.seconds
        while True:
            records = [run_op(cli, workloads.CHECKS, op, csv_path) for op in ops]
            passes.append({"wall_s": sum(r["wall_s"] for r in records), "ops": records})
            if time.perf_counter() + statistics.median(p["wall_s"] for p in passes) > budget_end:
                break
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(out_dir / "spans.json")
        result.update({
            "passes": passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "machine": machine(cli),
        })
    with contextlib.suppress(FileNotFoundError):
        csv_path.unlink()
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
