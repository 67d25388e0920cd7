"""Benchmark of the spectree command-line interface.

    python3 benchmarks/run.py --workload scan-corpus --seed 0 --seconds 28 --trace 0
    python3 benchmarks/run.py --workload all          # every metric, every workload

Run from the root of a checkout.  Each workload run is a closed loop with
one client: this script starts one workload process (``worker.py``) at a
time, and inside it the operations, one ``spectree.cli.main(argv)`` call
each, run one after another.  ``SPECTREE_JOBS`` and the BLAS thread
variables are cleared, so the CLI's default ``--jobs`` (the CPU count) and
BLAS's own default apply.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``wall_s``: wall time of one pass over the workload's operations, the
  median over the passes that fit in ``--seconds``;
* ``setup_s``: from the start of a workload process until it is ready to
  issue its first operation (imports plus input generation), the median of
  several fresh processes;
* ``peak_rss_mb``: ``ru_maxrss`` of the timed workload process;
* ``pass_ratio``: operations whose output passed every check, over those
  attempted (``1 - fail_ratio``).

``--trace 1`` runs one untraced pass and then one traced pass, each in a
fresh process, and reports the per-layer metrics of BENCHMARK.json from the
spans (see ``tracing.py``) plus the tracing overhead.

The run record (machine, per-operation times, accuracy figures, the full
per-span table) is printed as one JSON line before the result line, which is
the last line of standard output.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: fresh processes timed for setup_s in one run, the timed one included
SETUP_SAMPLES = 5

#: a run must end within this many seconds
RUN_DEADLINE_S = 170.0

#: variables that would override the CLI's or BLAS's default thread count
THREAD_VARIABLES = ("SPECTREE_JOBS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to an operation failing)."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time of a timed run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "spectree" / "cli.py").is_file() or not spec_path.is_file():
        raise BenchmarkError(f"no spectree sources under {ROOT / 'src'}; "
                             "run from the root of a spectree checkout")
    return json.loads(spec_path.read_text())


class Runner:
    """Starts workload processes one at a time and collects their results."""

    def __init__(self, workload: str, seed: int, seconds: float, scratch: Path):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.scratch = scratch
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
        self.children = 0

    def child(self, mode: str, seconds: float = 0.0) -> dict:
        out = self.scratch / f"{self.children:02d}-{mode}"
        out.mkdir()
        self.children += 1
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--seconds", repr(seconds), "--mode", mode,
               "--started", repr(started), "--out", str(out)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{self.workload} {mode} process passed the run deadline")
        if proc.returncode != 0:
            raise BenchmarkError(f"{self.workload} {mode} process exited {proc.returncode}")
        result = json.loads((out / "result.json").read_text())
        spans = out / "spans.json"
        if spans.exists():
            result["trace"] = json.loads(spans.read_text())
        return result


def op_counts(results) -> tuple[int, int]:
    ops = [op for r in results for p in r["passes"] for op in p["ops"]]
    return len(ops), sum(not op["ok"] for op in ops)


def slim(result: dict) -> dict:
    """A child's result for the record: per-operation times, no spans."""
    return {k: v for k, v in result.items() if k not in ("trace", "machine")}


def timed_run(runner: Runner) -> tuple[dict, list, dict]:
    setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    timed = runner.child("timed", runner.seconds)
    setups.append(timed["setup_s"])
    attempted, failed = op_counts([timed])
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in timed["passes"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["peak_rss_mb"],
        "pass_ratio": (attempted - failed) / attempted,
    }
    record = {"setup_samples_s": setups, "timed": slim(timed)}
    return metrics, [timed], record


def traced_run(runner: Runner) -> tuple[dict, list, dict]:
    plain = runner.child("timed")  # no time budget: exactly one untraced pass
    traced = runner.child("traced")
    trace = traced["trace"]
    summary = tracing.summarize(trace["names"], trace["spans"], trace["counters"])
    metrics = summary["metrics"]
    metrics["trace.untraced_wall_s"] = plain["passes"][0]["wall_s"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    gap = abs(metrics["trace.self_sum_s"] - metrics["trace.wall_s"])
    if gap > abs(metrics["trace.overhead_s"]) + 1e-9 * metrics["trace.wall_s"]:
        raise BenchmarkError(f"self times miss the traced wall time by {gap:.6g} s")
    record = {"untraced": slim(plain), "traced": slim(traced), "spans": summary["by_name"]}
    return metrics, [plain, traced], record


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as scratch:
        runner = Runner(workload, seed, seconds, Path(scratch))
        metrics, results, record = (traced_run if trace else timed_run)(runner)
    attempted, failed = op_counts(results)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    reported = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                for m in wanted}
    record.update({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "machine": results[-1]["machine"]})
    failures = [{"label": op["label"], "misses": op["misses"], "stderr": op["stderr"]}
                for r in results for p in r["passes"] for op in p["ops"] if not op["ok"]]
    if failures:
        record["failures"] = failures
    return {"record": record,
            "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": reported}}


def print_table(workload: str, trace: int, result: dict) -> None:
    print(f"# {workload} (trace {trace}): {result['attempted']} operations, "
          f"{result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"#   {name:<48} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        compileall.compile_dir(ROOT / "src" / "spectree", quiet=1)
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload != "all":
            out = run_workload(spec, args.workload, args.seed, seconds, args.trace)
            print(json.dumps({"record": out["record"]}))
            print(json.dumps(out["result"]))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                res = run_workload(spec, workload, args.seed, seconds, trace)["result"]
                print_table(workload, trace, res)
                combined["correct"] &= res["correct"]
                combined["attempted"] += res["attempted"]
                combined["failed"] += res["failed"]
                for name, m in res["metrics"].items():
                    combined["metrics"][f"{workload}/{name}"] = m
        print(json.dumps(combined))
        return 0
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
