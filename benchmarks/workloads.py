"""Workload definitions and output checks of the spectree benchmark.

Every operation is one call of the documented command-line interface,
``spectree.cli.main(argv)``.  A workload is a fixed list of such calls; only
``sandwich-table`` draws anything from the seed.  Each check returns the list
of gates the output missed (empty when it passed) plus the accuracy figures
it read, which go into the run record and are never compared as metrics.

This module uses only the standard library, so ``run.py`` can list and
validate workloads without importing numpy.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field

LOG2 = math.log(2.0)

#: annulus, grid and node count of acceptance criterion 8
RMIN, RMAX, GRID, NODES = 0.02, 0.16, 32, 128

#: gates pinned by the acceptance suite and the CLI
LADDER_RESIDUAL_GATE = 0.05
MIN_SV_GATE = 1e-4
KERNEL_REL_GATE = 1e-6
CSV_HEADER = ["re_lambda", "im_lambda", "dist_minus_one", "min_sv"]


def radial(re: float, im: float, delta: float) -> dict:
    return {"kind": "radial-exp", "amplitude": {"re": re, "im": im}, "delta": delta}


def table(values, delta: float) -> dict:
    return {
        "kind": "table",
        "values": [{"v": v, "re": x.real, "im": x.imag} for v, x in values],
        "delta": delta,
    }


#: ``SCAN_CORPUS`` of tests/test_acceptance.py: (name, k, potential, depth)
SCAN_CORPUS = [
    ("k2 radial complex", 2, radial(0.3, 0.15, 6 * LOG2), 8),
    ("k2 radial real", 2, radial(0.4, 0.0, 6 * LOG2), 8),
    ("k2 radial imaginary", 2, radial(0.0, 0.35, 6 * LOG2), 8),
    ("k2 table complex", 2, table(
        [(0, 0.3 - 0.2j), (1, 0.1 + 0j), (2, -0.15j), (4, 0.05 + 0j)], 6 * LOG2), 8),
    ("k1 radial imaginary", 1, radial(0.0, 0.2, 1.6), 20),
    ("k1 radial complex", 1, radial(0.25, -0.075, 2.0), 17),
    ("k1 table real+imag", 1, table([(0, 0.2 + 0j), (3, -0.1j)], 1.6), 8),
]


@dataclass
class Op:
    """One CLI invocation. ``{csv}`` in ``argv`` is replaced by a file path."""

    label: str
    kind: str  # "scan", "kernel" or "validate"
    argv: list[str]
    params: dict = field(default_factory=dict)

    def resolved_argv(self, csv_path: str) -> list[str]:
        return [csv_path if a == "{csv}" else a for a in self.argv]


def _scan_op(label: str, k: int, depth: int, potential: dict, threshold: str) -> Op:
    argv = [
        "scan", "--k", str(k), "--depth", str(depth),
        "--potential", json.dumps(potential),
        "--rmin", repr(RMIN), "--rmax", repr(RMAX),
        "--grid", str(GRID), "--nodes", str(NODES),
        "--threshold", threshold, "--out", "{csv}",
    ]
    return Op(f"{label} [{threshold}]", "scan", argv, {"grid": GRID, "rmin": RMIN, "rmax": RMAX})


def scan_corpus(seed: int) -> list[Op]:
    return [
        _scan_op(name, k, depth, pot, threshold)
        for name, k, pot, depth in SCAN_CORPUS
        for threshold in ("minus", "plus")
    ]


def kernel_deep(seed: int) -> list[Op]:
    return [
        Op(f"kernel k={k} depth={d}", "kernel",
           ["kernel", "--k", str(k), "--depth", str(d)], {"k": k, "depth": d})
        for k, d in ((2, 11), (3, 6), (4, 5))
    ]


def sandwich_potential(seed: int) -> dict:
    """Non-radial table on the 63 vertices of depth <= 5 of the binary tree.

    ``|M(v)| = 0.3 exp(-delta |v|)`` with ``delta = 6 ln 2``, phases drawn from
    the seed, root fixed at ``0.3 - 0.2j``.
    """
    rng = random.Random(seed)
    delta = 6 * LOG2
    values = [(0, 0.3 - 0.2j)]
    for v in range(1, 63):
        depth = (v + 1).bit_length() - 1
        phase = rng.uniform(0.0, 2.0 * math.pi)
        values.append((v, 0.3 * math.exp(-delta * depth) * complex(math.cos(phase), math.sin(phase))))
    return table(values, delta)


def sandwich_table(seed: int) -> list[Op]:
    pot = sandwich_potential(seed)
    return [_scan_op(f"k2 depth 10 table seed {seed}", 2, 10, pot, th) for th in ("minus", "plus")]


def validate_dense(seed: int) -> list[Op]:
    return [
        Op(f"validate k={k} depth={d}", "validate",
           ["validate", "--k", str(k), "--depth", str(d),
            "--potential", json.dumps(radial(0.3, 0.15, 6 * math.log(k)))],
           {"k": k, "depth": d})
        for k, d in ((2, 10), (3, 6))
    ]


#: name -> operations built from the seed; BENCHMARK.json says why each exists
WORKLOADS = {
    "scan-corpus": scan_corpus,
    "kernel-deep": kernel_deep,
    "sandwich-table": sandwich_table,
    "validate-dense": validate_dense,
}


# -- output checks -------------------------------------------------------------

def check_csv_text(text: str, rows_expected: int) -> tuple[list[str], float]:
    """Header plus ``rows_expected`` rows of 4 fields printed with ``%.17g``.

    Returns the missed gates and the smallest ``min_sv`` column value.
    """
    misses = []
    lines = list(csv.reader(text.splitlines()))
    if not lines or lines[0] != CSV_HEADER:
        return ["csv header"], math.nan
    body = lines[1:]
    if len(body) != rows_expected:
        misses.append(f"csv rows {len(body)} != {rows_expected}")
    min_sv = math.inf
    for i, row in enumerate(body):
        if len(row) != len(CSV_HEADER):
            misses.append(f"csv row {i}: {len(row)} fields")
            break
        try:
            values = [float(x) for x in row]
        except ValueError:
            misses.append(f"csv row {i}: not a number")
            break
        if any(f"{x:.17g}" != s for x, s in zip(values, row)):
            misses.append(f"csv row {i}: field is not 17-digit round-trip")
            break
        min_sv = min(min_sv, values[3])
    return misses, min_sv


def check_scan(rc: int, stdout: str, csv_text: str | None, params: dict) -> tuple[list[str], dict]:
    """Gates of acceptance criterion 8 on one ``scan`` output."""
    if rc != 0:
        return [f"exit code {rc}"], {}
    try:
        out = json.loads(stdout)
        ladder = out["ladder"]
        radii = [float(c["radius"]) for c in ladder]
        residuals = [float(c["residual"]) for c in ladder]
        rounded = [c["rounded"] for c in ladder]
        min_sv, flagged, rows = float(out["min_sv"]), out["flagged"], out["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable scan output: {exc!r}"], {}
    misses = []
    rows_expected = params["grid"] ** 2
    if not ladder or max(radii) < params["rmax"] * (1 - 1e-12):
        misses.append(f"ladder {radii} does not reach r_max {params['rmax']}")
    if any(r != 0 for r in rounded):
        misses.append(f"ladder indices {rounded}")
    if any(not r < LADDER_RESIDUAL_GATE for r in residuals):
        misses.append(f"ladder residual {max(residuals)} >= {LADDER_RESIDUAL_GATE}")
    if not min_sv > MIN_SV_GATE:
        misses.append(f"min_sv {min_sv} <= {MIN_SV_GATE}")
    if flagged != 0:
        misses.append(f"flagged {flagged}")
    if rows != rows_expected:
        misses.append(f"rows {rows} != {rows_expected}")
    if csv_text is None:
        misses.append("no csv written")
    else:
        csv_misses, csv_min_sv = check_csv_text(csv_text, rows_expected)
        misses += csv_misses
        if not csv_misses and csv_min_sv != min_sv:
            misses.append(f"csv min_sv {csv_min_sv} != reported {min_sv}")
    accuracy = {"worst_residual": max(residuals, default=math.nan), "min_sv": min_sv}
    return misses, accuracy


def check_kernel(rc: int, stdout: str, csv_text: str | None, params: dict) -> tuple[list[str], dict]:
    """``rel_frobenius_error <= 1e-6``, the gate of criterion 1 and of the CLI."""
    if rc != 0:
        return [f"exit code {rc}"], {}
    try:
        out = json.loads(stdout)
        rel = float(out["rel_frobenius_error"])
        shape = (out["k"], out["depth"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable kernel output: {exc!r}"], {}
    misses = []
    if not rel <= KERNEL_REL_GATE:
        misses.append(f"rel_frobenius_error {rel} > {KERNEL_REL_GATE}")
    if shape != (params["k"], params["depth"]):
        misses.append(f"kernel reported k, depth = {shape}")
    return misses, {"rel_frobenius_error": rel}


def check_validate(rc: int, stdout: str, csv_text: str | None, params: dict) -> tuple[list[str], dict]:
    """The final line of the table reads ``overall PASS``."""
    lines = stdout.strip().splitlines()
    last = lines[-1].split() if lines else []
    misses = [] if last == ["overall", "PASS"] else [f"final line {' '.join(last)!r}"]
    if rc != 0:
        misses.insert(0, f"exit code {rc}")
    return misses, {"checks": max(len(lines) - 1, 0)}


CHECKS = {"scan": check_scan, "kernel": check_kernel, "validate": check_validate}
