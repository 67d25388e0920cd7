"""Command-line surface: flags, exit codes, emitted artifacts."""
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import reference_pass
from spectree import (
    PotentialSpec,
    build_spherical_basis,
    build_tree,
    charval,
    direct_resolvent_block,
    from_lambda,
    from_z,
    quadrature,
    resolvent,
    t_minus,
    weights,
    weighted_resolvent_kernel,
)
from spectree.birman_schwinger import BSFactory, hol_split
from spectree.charval import ContourSpec
from spectree.cli import (
    _auto_depth,
    _fmt,
    _run_validation,
    _sphere_column_errors,
    build_parser,
    main,
)
from spectree.decomposition import verify_jacobi_form
from spectree.operators import _parent_indices, adjacency, lowering, m_tilde, raising, theta
from spectree.errors import NonConvergent, OutOfDisk, SingularOnContour
from spectree.tree import VERTEX_CAP

LOG2 = math.log(2.0)
RADIAL = json.dumps({
    "kind": "radial-exp",
    "amplitude": {"re": 0.3, "im": 0.15},
    "delta": 6 * LOG2,
})


@pytest.fixture()
def pot_file(tmp_path):
    p = tmp_path / "pot.json"
    p.write_text(RADIAL)
    return str(p)


def test_validate_passes(capsys, pot_file):
    code = main(["validate", "--k", "2", "--depth", "6", "--potential", pot_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "overall" in out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1, 2, 3])
def test_validate_depth_zero_passes(capsys, k):
    # one vertex: no Jacobi block to check and no adjacency spectrum to solve for
    code = main(["validate", "--k", str(k), "--depth", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip().splitlines()[-1].split() == ["overall", "PASS"]
    assert captured.err == ""


def _dense_validation(k, depth, spec):
    """The invariant suite with every V x V operand built whole, as a reference."""
    rows = []

    def check(name, value, tol):
        rows.append((name, float(value), tol, value <= tol))

    t = build_tree(k, depth)
    v = t.vertex_count
    check("tree sphere sizes", max(abs(t.sphere_size(r) - k**r) for r in range(depth + 1)), 0)
    a = adjacency(t)
    check("edge count = V - 1", abs(a.sum() / 2 - (v - 1)), 0)
    pi_up, pi_dn = raising(t), lowering(t)
    check("raising + lowering = adjacency", np.abs(pi_up + pi_dn - a).max(), 0)
    check("trace of lower.raise = k * interior",
          abs(np.trace(pi_dn @ pi_up) - k * (v - t.sphere_size(depth))), 0)
    check("adjacency band confinement",
          max(0.0, np.abs(np.linalg.eigvalsh(a)).max() - 2 * math.sqrt(k)), 1e-10)
    th = theta(t)
    check("parity conjugation flips adjacency", np.abs(th[:, None] * a * th[None, :] + a).max(), 0)
    m_vec, z0, eye = m_tilde(t, spec), 0.37 + 0.11j, np.eye(v)
    lhs = th[:, None] * (-a + np.diag(m_vec) + (k + 1 - z0) * eye) * th[None, :]
    rhs = a + np.diag(m_vec) + (k + 1 - z0) * eye
    check("edge-swap conjugation identity", np.abs(lhs - rhs).max(), 1e-10)
    e_m, e_p = weights(t, spec.delta if spec is not None else max(1.0, 6.0 * math.log(k)))
    check("weight pair multiplies to identity", np.abs(e_m * e_p - 1).max(), 1e-12)

    b = build_spherical_basis(t)
    check("basis count = vertex count", abs(b.total_vectors() - v), 0)
    full = np.hstack([b.global_vectors(n, j)
                      for n in range(depth + 1) if b.dims[n] for j in range(b.levels(n))])
    gram = full.T @ full
    check("basis Gram deviation", np.abs(gram - np.eye(gram.shape[0])).max(), 1e-10)
    check("block Jacobi residual",
          max(verify_jacobi_form(b, t, n) for n in range(min(depth, 5))), 1e-10)

    sp_ = from_z(k, -1.0 if k == 1 else t_minus(k) - 0.5)
    check("fourier coefficient vs quadrature", max(
        abs(resolvent.fourier_coefficient(n, sp_) - quadrature.fourier_quadrature(sp_.u, n))
        for n in range(7)), 1e-10)
    check("sine-projected coefficient vs quadrature", max(
        abs(resolvent.sine_projected_coefficient(j, l, sp_)
            - quadrature.sine_projected_quadrature(k, sp_.z, j, l))
        for j in range(4) for l in range(4)), 1e-10)
    kern = weighted_resolvent_kernel(t, b, e_m, e_m, sp_).entries
    oracle = e_m[:, None] * direct_resolvent_block(t, sp_.z) * e_m[None, :]
    # the first column of each sphere weighted by the sphere size, after one
    # power-of-two scaling; the columns are row-major copies, so each column
    # sum adds its terms in the order the CLI's does
    cols = t.sphere_offsets[:depth + 1]
    closed, exact = np.ascontiguousarray(kern[:, cols]), np.ascontiguousarray(oracle[:, cols])
    scale = 2.0 ** -math.frexp(np.abs(exact).max())[1]

    def weighted_sq(m):
        re, im = m.real * scale, m.imag * scale
        return np.diff(t.sphere_offsets) @ (re * re + im * im).sum(axis=0)

    rel = math.sqrt(weighted_sq(closed - exact)) / math.sqrt(weighted_sq(exact))
    assert abs(rel - np.linalg.norm(kern - oracle) / np.linalg.norm(oracle)) <= 1e-15
    check("weighted kernel vs direct solve (rel)", rel, 1e-6)

    if spec is not None:
        check("potential decay certificate", 0.0, 0)
        factory, lam = BSFactory(t, b, spec), 0.05j
        tmat = factory.matrix(lam, +1)
        g_pert = direct_resolvent_block(t, factory.point(lam).z, spec=spec,
                                        rows=factory.support, cols=factory.support)
        ident = np.eye(tmat.shape[0])
        x = (factory.j_phase[:, None] * factory.sqrt_abs[:, None] * g_pert
             * factory.sqrt_abs[None, :])
        s_res = (ident + tmat) @ (ident - x)
        check("resolvent-identity residual", np.abs(s_res - ident).max()
              / ((1 + np.abs(tmat).max()) * (1 + np.abs(x).max())), 1e-8)
        # the support block of the whole free solve
        g_free = direct_resolvent_block(t, factory.point(lam).z)[np.ix_(factory.support,
                                                                         factory.support)]
        x_free = (factory.j_phase[:, None] * factory.sqrt_abs[:, None] * g_free
                  * factory.sqrt_abs[None, :])
        check("sandwich vs direct solve (rel)",
              np.linalg.norm(tmat - x_free) / np.linalg.norm(tmat), 1e-8)
        check("desingularized reconstruction residual",
              hol_split(t, b, spec, lam, factory=factory)[1] / np.linalg.norm(tmat), 1e-8)
    return rows


@pytest.mark.parametrize("k,depth", [(1, 10), (2, 6), (3, 4)])
@pytest.mark.parametrize("radial", [False, True], ids=["free", "radial"])
def test_validation_rows_equal_dense_formulas(k, depth, radial):
    spec = (PotentialSpec.radial_exp(0.3 + 0.15j, max(1.0, 6 * math.log(k)))
            if radial else None)

    def printed(rows):
        return [(name, _fmt(value), tol, bool(passed)) for name, value, tol, passed in rows]

    got = printed(_run_validation(k, depth, spec))
    assert got == printed(_dense_validation(k, depth, spec))
    assert all(passed for *_, passed in got)


def test_corrupted_parent_map_fails_the_edge_count_and_trace_rows(monkeypatch):
    # the deepest vertex re-hung from the root: the parent list still has
    # V - 1 entries, but one edge skips spheres and the root has k + 1 children
    from spectree import cli

    def corrupted(t):
        v, p = _parent_indices(t)
        p = p.copy()
        p[-1] = 0
        return v, p

    monkeypatch.setattr(cli, "_parent_indices", corrupted)
    rows = {name: (value, passed) for name, value, _, passed in _run_validation(2, 3, None)}
    assert rows["edge count = V - 1"] == (1.0, False)
    assert rows["trace of lower.raise = k * interior"] == (2.0, False)


def _printed_row(stdout, name):
    """The value of row ``name`` of a ``validate`` table."""
    line = next(line for line in stdout.splitlines() if line.startswith(name))
    return float(line.split("value=")[1].split()[0])


@pytest.mark.parametrize("k,depth", [(1, 12), (2, 6), (3, 4)], ids=["k1", "k2", "k3"])
@pytest.mark.parametrize("radial", [False, True], ids=["free", "radial"])
def test_validate_kernel_row_is_the_kernel_error(capsys, k, depth, radial):
    # kernel without --z or --lam checks validate's point: t_minus(k) - 0.5,
    # or -1 on the path, where -0.5 has xi = 1/2 exactly and the comparison
    # would see no rounding; a potential sets the weight rate of both
    spec = PotentialSpec.radial_exp(0.3 + 0.15j, max(1.0, 6 * math.log(k)))
    pot = ["--potential", json.dumps(spec.to_json())] if radial else []
    assert main(["validate", "--k", str(k), "--depth", str(depth)] + pot) == 0
    row = _printed_row(capsys.readouterr().out, "weighted kernel vs direct solve (rel)")
    assert main(["kernel", "--k", str(k), "--depth", str(depth)] + pot) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["z"] == {"re": -1.0 if k == 1 else t_minus(k) - 0.5, "im": 0.0}
    assert out["rel_frobenius_error"] == row > 0.0


def test_validate_fails_a_wrong_edge_table(monkeypatch):
    # the quadrature rows check the table the kernel is assembled from, so an
    # edge table off by 1e-6 fails them without a potential
    table = resolvent.block_table
    monkeypatch.setattr(resolvent, "block_table",
                        lambda k, xi, length: table(k, xi, length) * (1 + 1e-6))
    rows = {name: passed for name, _, _, passed in _run_validation(2, 6, None)}
    assert not rows["fourier coefficient vs quadrature"]
    assert not rows["sine-projected coefficient vs quadrature"]


@pytest.mark.parametrize("k,depth", [(2, 10), (3, 6), (1, 12), (2, 11), (1, 200), (5, 5)])
def test_validation_stages_stay_within_the_budget_formula(monkeypatch, k, depth):
    import tracemalloc

    from spectree import cli

    cli._run_validation(2, 3, None)  # one-time allocations fall outside the measurement
    peaks = {}
    for name in ("_check_operators", "_check_basis", "_check_kernel", "_check_birman_schwinger"):
        def measured(*args, _name=name, _stage=getattr(cli, name)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _stage(*args)
            peaks[_name] = tracemalloc.get_traced_memory()[1] - base
        monkeypatch.setattr(cli, name, measured)
    spec = PotentialSpec.radial_exp(0.3 + 0.15j, max(1.0, 6 * math.log(k)))
    tracemalloc.start()
    try:
        rows = cli._run_validation(k, depth, spec)
    finally:
        tracemalloc.stop()
    assert all(passed for *_, passed in rows)
    assert len(peaks) == 4
    bound = cli._validation_bytes(build_tree(k, depth))
    assert max(peaks.values()) <= bound, peaks


@pytest.mark.parametrize("k,depth", [(2, 10), (2, 11), (3, 6), (4, 5)])
def test_basis_stage_holds_the_basis_and_one_gram_panel(k, depth):
    import tracemalloc

    from spectree import cli

    cli._run_validation(2, 3, None)  # one-time allocations fall outside the measurement
    t = build_tree(k, depth)
    rows = []
    tracemalloc.start()
    try:
        cli._check_basis(t, lambda *row: rows.append(row))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [name for name, *_ in rows] == [
        "basis count = vertex count", "basis Gram deviation", "block Jacobi residual"]
    assert all(value <= tol for _, value, tol in rows)
    # the stored basis, one k**r x k**r array per sphere, and one Gram panel
    basis = 8 * sum(k ** (2 * r) for r in range(depth + 1))
    assert peak <= basis + 8 * min(cli.GRAM_PANEL_ROWS, k**depth) * k**depth + 2**20


@pytest.mark.parametrize("k,depth,ragged", [(2, 10, False), (3, 6, True), (4, 5, False),
                                            (5, 4, True)])
def test_paneled_gram_deviation_equals_the_whole_gram(k, depth, ragged):
    # the deepest sphere's Gram is read in panels of rows, the last one
    # narrower where the panel width does not divide k**depth
    from spectree import cli

    width = cli.GRAM_PANEL_ROWS
    assert width < k**depth and (k**depth % width != 0) == ragged
    t = build_tree(k, depth)
    worst = 0.0
    for cols in build_spherical_basis(t).spheres:
        gram = cols.T @ cols
        gram[np.diag_indices_from(gram)] -= 1.0
        worst = max(worst, np.abs(gram).max())
    rows = {}
    cli._check_basis(t, lambda name, value, tol: rows.setdefault(name, value))
    assert rows["basis Gram deviation"] == worst > 0


def test_operators_stage_holds_no_dense_operator():
    import tracemalloc

    from spectree import cli

    cli._run_validation(2, 3, None)  # one-time allocations fall outside the measurement
    t = build_tree(2, 10)
    e_m, e_p = weights(t, 6 * LOG2)
    rows = []
    tracemalloc.start()
    try:
        cli._check_operators(t, None, e_m, e_p, lambda *row: rows.append(row))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [name for name, *_ in rows] == [
        "tree sphere sizes", "edge count = V - 1", "raising + lowering = adjacency",
        "trace of lower.raise = k * interior", "adjacency band confinement",
        "parity conjugation flips adjacency", "edge-swap conjugation identity",
        "weight pair multiplies to identity",
    ]
    # one dense 2047 x 2047 float operator alone would take 32 MiB
    assert peak < 4 * 2**20


def _env_with_src():
    """The environment with the checkout's ``src`` first on ``PYTHONPATH``."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _peak_of_cli(argv):
    """Exit code, stdout, stderr and peak RSS (KiB) of one CLI run in a child.

    The wrapper's ``RUSAGE_CHILDREN`` covers only that one process.
    """
    wrapper = (
        "import json, resource, subprocess, sys\n"
        "proc = subprocess.run([sys.executable, '-m', 'spectree.cli'] + sys.argv[1:],\n"
        "                      capture_output=True, text=True)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(json.dumps([proc.returncode, proc.stdout, proc.stderr, peak]))\n"
    )
    run = subprocess.run([sys.executable, "-c", wrapper, *argv], env=_env_with_src(),
                         capture_output=True, text=True, timeout=600)
    return json.loads(run.stdout)


def test_validate_depth_10_under_400_mib():
    # the potential of the validate-dense benchmark workload
    code, stdout, stderr, peak_kib = _peak_of_cli(
        ["validate", "--k", "2", "--depth", "10", "--potential", RADIAL])
    assert code == 0, stderr[-2000:]
    assert stdout.strip().splitlines()[-1].split() == ["overall", "PASS"]
    assert peak_kib < 400 * 2**10


def test_validate_depth_12_under_one_gib():
    code, stdout, stderr, peak_kib = _peak_of_cli(["validate", "--k", "2", "--depth", "12"])
    assert code == 0, stderr[-2000:]
    assert stdout.strip().splitlines()[-1].split() == ["overall", "PASS"]
    assert peak_kib < 2**20


@pytest.mark.parametrize("command", ["validate", "spectrum"])
def test_dense_commands_over_memory_budget_are_one_error_line(monkeypatch, capsys, command):
    monkeypatch.setattr(resolvent, "memory_budget", lambda: 1000)
    code = main([command, "--k", "2", "--depth", "6"])
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert code == 1
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "memory budget" in lines[0]


ROOT_TABLE = json.dumps({"kind": "table", "values": [{"v": 0, "re": 0.3}], "delta": 6 * LOG2})


@pytest.mark.parametrize("argv, what", [
    (["scan", "--k", "2", "--depth", "4", "--potential", ROOT_TABLE, "--rmin", "0.05",
      "--rmax", "0.15", "--grid", "4", "--nodes", "32"], "4 x 4 grid points"),
    (["index", "--k", "2", "--potential", ROOT_TABLE, "--radius", "0.1",
      "--nodes", "32"], "128 contour nodes"),
], ids=["scan grid", "index nodes"])
def test_scan_and_index_over_memory_budget_are_one_error_line(monkeypatch, capsys, argv, what):
    # the root-only table keeps the sandwich 1 x 1, so only the grid or the
    # node arrays (16 x 48 and 128 x 64 bytes) exceed the budget
    monkeypatch.setattr(resolvent, "memory_budget", lambda: 700)
    code = main(argv)
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert code == 1
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert what in lines[0] and "memory budget" in lines[0]


def test_kernel_json(capsys):
    code = main(["kernel", "--k", "2", "--depth", "6"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["rel_frobenius_error"] <= 1e-6
    assert set(out) >= {"k", "depth", "z", "max_abs_error", "rel_frobenius_error"}


def test_kernel_accepts_lambda(capsys):
    code = main(["kernel", "--k", "1", "--depth", "12", "--lam", "0.1j",
                 "--delta", "1.5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["rel_frobenius_error"] <= 1e-6


def _full_matrix_errors(closed, oracle):
    diff = closed - oracle
    return np.abs(diff).max(), np.linalg.norm(diff) / np.linalg.norm(oracle)


@pytest.mark.parametrize("k,depth", [(1, 12), (2, 6), (3, 4)])
@pytest.mark.parametrize("lam", [None, 0.12 + 0.04j], ids=["below t_minus", "above t_minus"])
def test_kernel_errors_equal_full_matrix_figures(capsys, k, depth, lam):
    point = [] if lam is None else ["--lam", str(lam)]
    code = main(["kernel", "--k", str(k), "--depth", str(depth)] + point)
    out = json.loads(capsys.readouterr().out)
    # the figures are those of the point kernel prints
    sp_ = from_z(k, complex(out["z"]["re"], out["z"]["im"])) if lam is None else from_lambda(k, lam)
    assert (sp_.z.real > t_minus(k)) == (lam is not None)
    t = build_tree(k, depth)
    e_m, _ = weights(t, out["delta"])
    closed = weighted_resolvent_kernel(t, None, e_m, e_m, sp_).entries
    oracle = e_m[:, None] * direct_resolvent_block(t, sp_.z) * e_m[None, :]
    max_err, rel = _full_matrix_errors(closed, oracle)
    assert code == 0
    # relative to the figures, which are about 1e-17 to 1e-15: an absolute
    # bound of that size could not tell two points apart
    assert out["max_abs_error"] == max_err
    assert abs(out["rel_frobenius_error"] - rel) <= 1e-13 * rel


@pytest.mark.parametrize("k,depth", [(1, 12), (2, 6), (3, 4)])
def test_sphere_column_weighting_is_exact(k, depth):
    # two radial kernels at different points differ at O(1), so a wrong
    # sphere weight would show far above roundoff
    t = build_tree(k, depth)
    e_m, _ = weights(t, max(1.0, 6 * math.log(k)))
    a = weighted_resolvent_kernel(t, None, e_m, e_m, from_z(k, t_minus(k) - 0.5)).entries
    b = weighted_resolvent_kernel(t, None, e_m, e_m, from_lambda(k, 0.12 + 0.04j)).entries
    cols = t.sphere_offsets[:depth + 1]
    max_err, rel = _sphere_column_errors(t, a[:, cols], b[:, cols])
    full_max, full_rel = _full_matrix_errors(a, b)
    assert max_err == full_max
    assert abs(rel - full_rel) <= 1e-13 * full_rel
    # entries whose squares underflow give the same figure, bit for bit
    tiny = math.ldexp(1.0, -600)
    assert _sphere_column_errors(t, tiny * a[:, cols], tiny * b[:, cols])[1] == rel


def test_kernel_depth_16_under_one_gib():
    code, stdout, stderr, peak_kib = _peak_of_cli(["kernel", "--k", "2", "--depth", "16"])
    assert code == 0, stderr[-2000:]
    out = json.loads(stdout)
    assert (out["k"], out["depth"]) == (2, 16)
    assert out["rel_frobenius_error"] <= 1e-6
    assert peak_kib < 2**20


def test_kernel_over_memory_budget_is_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(resolvent, "memory_budget", lambda: 1000)
    code = main(["kernel", "--k", "2", "--depth", "6"])
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert code == 1
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "memory budget" in lines[0]


def test_scan_writes_csv(tmp_path, capsys, pot_file):
    out_csv = tmp_path / "scan.csv"
    code = main([
        "scan", "--k", "2", "--potential", pot_file,
        "--rmin", "0.02", "--rmax", "0.16", "--grid", "8",
        "--nodes", "64", "--out", str(out_csv),
    ])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["rows"] == 64
    assert all(entry["rounded"] == 0 for entry in summary["ladder"])
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "re_lambda,im_lambda,dist_minus_one,min_sv"
    assert len(lines) == 65
    for line in lines[1:]:
        assert len(line.split(",")) == 4


def test_scan_deterministic_output(tmp_path, capsys, pot_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["scan", "--k", "2", "--potential", pot_file, "--rmin", "0.05",
          "--rmax", "0.15", "--grid", "5", "--nodes", "32", "--out", str(a)])
    main(["scan", "--k", "2", "--potential", pot_file, "--rmin", "0.05",
          "--rmax", "0.15", "--grid", "5", "--nodes", "32", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.filterwarnings("error")
def test_deep_truncation_scans_like_the_support_depth(tmp_path, capsys):
    # the support ends at sphere 19 on both trees; exponent tables as long as
    # the depth-3000 tree would overflow xi**a on the second sheet (|xi| > 1)
    potential = json.dumps({"kind": "radial-exp", "amplitude": {"re": 0, "im": 0.2},
                            "delta": 1.6})
    outputs = []
    for depth in (3000, 20):
        csv_path = tmp_path / f"depth{depth}.csv"
        code = main(["scan", "--k", "1", "--depth", str(depth), "--potential", potential,
                     "--rmin", "0.02", "--rmax", "0.16", "--grid", "4", "--nodes", "16",
                     "--out", str(csv_path)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        outputs.append((captured.out, csv_path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_scan_certification_failure_exit_code(tmp_path, capsys, pot_file):
    code = main([
        "scan", "--k", "2", "--potential", pot_file,
        "--rmin", "0.05", "--rmax", "0.15", "--grid", "4", "--nodes", "32",
        "--sv-floor", "1.0",
    ])
    capsys.readouterr()
    assert code == 2


def test_spectrum_csv(tmp_path, capsys):
    out = tmp_path / "eigs.csv"
    code = main(["spectrum", "--k", "2", "--depth", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "re,im,inside_band"
    assert len(lines) == 64  # 63 vertices + header
    values = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    assert np.all(values[:, 2] == 1.0)  # pure tree stays inside the band


def test_spectrum_csv_on_stdout_equals_the_out_file(tmp_path, capsys):
    pot = json.dumps({"kind": "table", "values": [{"v": 0, "re": -5.0, "im": 0.5}],
                      "delta": 6 * LOG2})
    argv = ["spectrum", "--k", "2", "--depth", "3", "--potential", pot]
    assert main(argv) == 0
    text = capsys.readouterr().out
    out = tmp_path / "eigs.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == text
    res = charval.spectrum(build_tree(2, 3), PotentialSpec.from_json(pot))
    assert text.splitlines() == ["re,im,inside_band"] + [
        f"{_fmt(e.real)},{_fmt(e.imag)},{int(inside)}"
        for e, inside in zip(res.eigenvalues, res.inside_band)
    ]


def test_index_json(capsys, pot_file):
    code = main(["index", "--k", "2", "--potential", pot_file,
                 "--center", "0", "--radius", "0.1", "--nodes", "64"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["rounded"] == 0
    assert set(out) == {"raw", "rounded", "residual", "min_sv"}
    assert set(out["raw"]) == {"re", "im"}


TABLE = json.dumps({
    "kind": "table",
    "values": [{"v": 0, "re": 0.3, "im": -0.2}, {"v": 2, "re": 0.0, "im": 0.1}],
    "delta": 6 * LOG2,
})


@pytest.mark.parametrize("potential, extra", [
    (RADIAL, ["--radius", "0.1", "--nodes", "64"]),
    (RADIAL, ["--center", "0.05+0.02j", "--radius", "0.03", "--threshold", "plus"]),
    (TABLE, ["--radius", "0.12", "--nodes", "64"]),
], ids=["radial", "radial plus off-center", "table"])
def test_index_matches_node_by_node_reference(capsys, potential, extra):
    code = main(["index", "--k", "2", "--potential", potential] + extra)
    out = json.loads(capsys.readouterr().out)

    args = build_parser().parse_args(["index", "--k", "2", "--potential", potential] + extra)
    spec = PotentialSpec.from_json(potential)
    factory = BSFactory(build_tree(2, _auto_depth(2, spec)), None, spec)
    sign = charval._sign_for(args.threshold)
    contour = ContourSpec(complex(args.center), args.radius, args.nodes)
    # index counts on the pivot family, bit for bit, and agrees with the
    # sandwich family, its reference route, to roundoff
    want = reference_pass(charval._pivot_family(factory, sign), None, contour)
    sandwich = reference_pass(*charval._family(factory, sign), contour)
    assert code == 0 and want.certified
    assert out == want.to_json()
    assert out["rounded"] == sandwich.rounded
    assert abs(want.raw - sandwich.raw) <= 1e-12


def test_index_contour_leaving_the_disk(capsys):
    # node 0 (0.15 + 0.15j) is inside the disk |lam| < 0.3; later nodes are not
    contour = ContourSpec(0.15j, 0.15, 32)
    code = main(["index", "--k", "2", "--potential", RADIAL, "--center", "0.15j",
                 "--radius", "0.15", "--nodes", "32"])
    captured = capsys.readouterr()
    for node, lam in enumerate(contour.points()):
        try:
            from_lambda(2, lam)
        except OutOfDisk as exc:
            want = f"error: {exc}"
            break
    assert node > 0
    assert code == 1
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [want]


def test_inline_potential_accepted(capsys):
    code = main(["index", "--k", "1", "--potential",
                 json.dumps({"kind": "radial-exp", "amplitude": {"re": 0.0, "im": 0.2},
                             "delta": 1.6}),
                 "--center", "0", "--radius", "0.1", "--nodes", "64"])
    capsys.readouterr()
    assert code == 0


def test_usage_error_exit_code(capsys):
    for argv in (
        ["scan", "--k", "2"],  # missing required flags
        ["scan", "--k", "2", "--rmin", "0.05", "--rmax", "0.15", "--jobs", "2"],  # removed flag
        ["kernel", "--k", "2", "--lam", "0.1j", "--threshold", "plus"],  # removed flag
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_commands_in_one_process_print_what_they_print_alone():
    # the shared parser and every module keep no state from one main call to
    # the next: each command's exit code and stdout equal those of its own process
    commands = [
        ["kernel", "--k", "2", "--depth", "3", "--lam", "0.1j", "--z=-5"],
        ["kernel", "--k", "2", "--depth", "4", "--lam", "0.05+0.02j"],
        SCAN + ["--grid", "4"],
        INDEX,
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from spectree.cli import main\n"
        "results = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            code = main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    results.append([code, out.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    run = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                         env=_env_with_src(), capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    together = json.loads(run.stdout)
    for argv, (code, out) in zip(commands, together):
        alone = subprocess.run([sys.executable, "-m", "spectree.cli", *argv], env=_env_with_src(),
                               capture_output=True, text=True, timeout=600)
        assert (code, out) == (alone.returncode, alone.stdout), argv
    assert [code for code, _ in together] == [1, 0, 0, 0]


def test_unknown_command_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_domain_error_maps_to_usage_exit(capsys, pot_file):
    # annulus outside the working disk is a caller error, reported not raised
    code = main(["scan", "--k", "2", "--potential", pot_file,
                 "--rmin", "0.1", "--rmax", "0.9", "--grid", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("error", [SingularOnContour, NonConvergent])
@pytest.mark.parametrize("argv", [
    ["scan", "--k", "2", "--rmin", "0.05", "--rmax", "0.15", "--grid", "4", "--nodes", "32"],
    ["index", "--k", "2", "--radius", "0.1", "--nodes", "32"],
], ids=["scan", "index"])
def test_contour_failure_is_certification_exit(monkeypatch, capsys, pot_file, error, argv):
    def failing(*args, **kwargs):
        raise error("synthetic contour failure")

    monkeypatch.setattr(charval, "contour_index", failing)
    code = main(argv + ["--potential", pot_file])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip().splitlines() == ["error: synthetic contour failure"]


def test_index_does_not_certify_a_zero_just_outside(capsys):
    # the root -0.6 table at k=2 has its one zero at lam* = 0.1235084061173993i,
    # 0.54% outside the first circle: the 128-node sum reads -1.00054, but the
    # sums with half the nodes disagree at every doubling.  On the second
    # circle lam* is node 32: the pass nudged off it straddles the zero
    pot = json.dumps({"kind": "table", "values": [{"v": 0, "re": -0.6}], "delta": 4.2})
    for radius in ("0.12284165", "0.1235084061173993"):
        code = main(["index", "--k", "2", "--depth", "10", "--nodes", "128",
                     "--radius", radius, "--potential", pot])
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert code == 2
        assert captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")


INDEX = ["index", "--k", "2", "--radius", "0.1", "--nodes", "32"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", ["-1e6", "-1e8", "-1e10", "1e8j"])
def test_kernel_at_large_z_certifies(capsys, z):
    # the decaying root of the closed form keeps its digits far from the band
    code = main(["kernel", "--k", "2", "--depth", "8", f"--z={z}"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["rel_frobenius_error"] <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k,z", [("2", "3+0.5j"), ("1", "2+0.3j"), ("4", "5+1j")])
def test_kernel_where_the_subtree_closure_cycles_certifies(capsys, k, z):
    # the direct solve's subtree_green ends in a rounding cycle at these z
    code = main(["kernel", "--k", k, "--depth", "4", f"--z={z}"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["rel_frobenius_error"] <= 1e-14


@pytest.mark.filterwarnings("error")
def test_kernel_with_overflowing_growing_weight(capsys):
    # exp(+1000 |v|) overflows below the root; kernel reads only exp(-1000 |v|)
    code = main(["kernel", "--k", "2", "--depth", "3", "--delta", "2000"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["delta"] == 2000.0 and out["rel_frobenius_error"] <= 1e-6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", [2000, 1440])
def test_validate_with_overflowing_growing_weight(capsys, delta):
    # exp(+delta/2 |v|) overflows below the root while exp(-delta/2 |v|) is 0
    # (delta 2000) or subnormal at |v| = 1 (delta 1440)
    pot = json.dumps({"kind": "radial-exp", "amplitude": 0.3, "delta": delta})
    code = main(["validate", "--k", "2", "--depth", "3", "--potential", pot])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip().splitlines()[-1].split() == ["overall", "PASS"]
    assert captured.err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amplitude", [1e200, 1e300])
@pytest.mark.parametrize("kind", ["radial-exp", "table"])
def test_validate_huge_amplitude_passes_without_warnings(capsys, kind, amplitude):
    # the Birman-Schwinger rows are relative to the size of their operands,
    # so rounding alone reads a few eps at any amplitude
    pot = _bs_potential(kind, amplitude)
    code = main(["validate", "--k", "2", "--depth", "4", "--potential", pot])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    rows = _validate_rows(captured.out)
    for name in ("resolvent-identity residual", "desingularized reconstruction residual"):
        verdict, value, _ = rows[name]
        assert verdict == "PASS" and math.isfinite(float(value.removeprefix("value=")))
    assert rows["overall"] == ["PASS"]


def _bs_potential(kind, amplitude):
    if kind == "table":
        return json.dumps({"kind": "table", "values": [{"v": 0, "re": amplitude}], "delta": 4.2})
    return json.dumps({"kind": kind, "amplitude": {"re": amplitude, "im": 0.0}, "delta": 4.2})


def _validate_rows(stdout):
    """The rows of a ``validate`` table as ``name: [verdict, value, tol]``."""
    return {line[:42].strip(): line[42:].split() for line in stdout.splitlines()}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amplitude", [0.3, 1e12])
@pytest.mark.parametrize("kind", ["radial-exp", "table"])
@pytest.mark.parametrize("broken", ["sandwich", "companion factor"])
def test_validate_fails_a_wrong_sandwich_at_any_amplitude(monkeypatch, capsys, kind,
                                                          amplitude, broken):
    # a relative error of 1e-6 in the raw sandwich, or in the factor relating
    # it to the desingularized kernel, fails the reconstruction row.  The
    # wrong sandwich fails the row against the free direct solve at any
    # amplitude; the identity row sees it only at small amplitude: a
    # relative error d in T moves (I + T)(I - X) by about d, which the row
    # reads as d / (1 + |T|)(1 + |X|), below 1e-8 at amplitude 1e12
    import spectree.birman_schwinger as bs

    if broken == "sandwich":
        matrix = bs.BSFactory.matrix
        monkeypatch.setattr(bs.BSFactory, "matrix",
                            lambda self, lam, sign=1: matrix(self, lam, sign) * (1 + 1e-6))
    else:
        monkeypatch.setattr(bs, "HOL_COMPANION_FACTOR", 2 * (1 + 1e-6))
    pot = _bs_potential(kind, amplitude)
    code = main(["validate", "--k", "2", "--depth", "4", "--potential", pot])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    rows = _validate_rows(captured.out)
    assert rows["desingularized reconstruction residual"][0] == "FAIL"
    direct = rows["sandwich vs direct solve (rel)"]
    assert direct[0] == ("FAIL" if broken == "sandwich" else "PASS")
    if broken == "sandwich":
        assert abs(float(direct[1].removeprefix("value=")) - 1e-6) < 1e-9
    if broken == "sandwich" and amplitude < 1:
        assert rows["resolvent-identity residual"][0] == "FAIL"
    assert rows["overall"] == ["FAIL"]


def test_radial_scan_at_amplitude_1e12_under_100_mib():
    # auto depth 15: the support holds 32,767 vertices, the blocks at most 15
    # levels, and no support-pair kernel is built
    pot = json.dumps({"kind": "radial-exp", "amplitude": {"re": 1e12, "im": 0.0},
                      "delta": 6 * LOG2})
    code, stdout, stderr, peak_kib = _peak_of_cli([
        "scan", "--k", "2", "--potential", pot, "--rmin", "0.02", "--rmax", "0.16",
        "--grid", "8", "--nodes", "32"])
    assert code == 0, stderr[-2000:]
    assert json.loads(stdout)["rows"] == 64
    assert peak_kib < 100 * 2**10


def _full_ball_table(path, depth):
    """A non-radial table on every vertex of the binary tree to ``depth``,
    ``|M(v)| = 0.3 exp(-2 |v|)`` with seeded phases, written to ``path``."""
    rng = np.random.default_rng(0)
    v = np.arange(2 ** (depth + 1) - 1)
    values = 0.3 * np.exp(-2.0 * np.floor(np.log2(v + 1)) + 2j * np.pi * rng.uniform(size=v.size))
    path.write_text(json.dumps({"kind": "table", "delta": 6 * LOG2, "values": [
        {"v": int(i), "re": float(x.real), "im": float(x.imag)} for i, x in zip(v, values)]}))
    return str(path)


@pytest.mark.parametrize("threshold", ["minus", "plus"])
def test_index_counts_a_32767_vertex_table_under_200_mib(tmp_path, threshold):
    # a support x support sandwich would need 40 GiB here; the pivots of the
    # determinant take O(|C|) per node
    pot = _full_ball_table(tmp_path / "ball.json", 14)
    code, stdout, stderr, peak_kib = _peak_of_cli([
        "index", "--k", "2", "--depth", "14", "--radius", "0.1", "--nodes", "128",
        "--threshold", threshold, "--potential", pot])
    assert code == 0, stderr[-2000:]
    out = json.loads(stdout)
    assert out["rounded"] == 0 and out["residual"] < 1e-6
    assert peak_kib < 200 * 2**10


SCAN = ["scan", "--k", "2", "--depth", "4", "--potential", RADIAL,
        "--rmin", "0.05", "--rmax", "0.15", "--nodes", "32"]


def _deep_k1_table(vertex, **fields):
    """``index`` on a k=1 table whose one vertex sits deep enough that
    ``exp(delta |v|)`` overflows a float; ``fields`` join the potential JSON."""
    return ["index", "--k", "1", "--radius", "0.1", "--potential", json.dumps(
        {"kind": "table", "values": [{"v": vertex, "re": 0.1}], "delta": 1.6, **fields})]


#: a table whose vertex 3 lies on sphere 2, beyond a depth-1 truncation
BEYOND_DEPTH_1 = json.dumps({"kind": "table", "delta": 4.2, "values": [
    {"v": 0, "re": -1.5}, {"v": 1, "re": -1.5}, {"v": 3, "re": -1.5}]})


def _file(tmp_path, text):
    p = tmp_path / "pot.json"
    p.write_text(text)
    return str(p)


BAD_INPUTS = [
    pytest.param("--potential", lambda tmp: INDEX + ["--potential", str(tmp / "none.json")],
                 id="missing file"),
    pytest.param("--potential", lambda tmp: INDEX + ["--potential", str(tmp)],
                 id="unreadable file"),
    pytest.param("malformed", lambda tmp: INDEX + [
        "--potential", _file(tmp, '{"kind": "radial-exp",')], id="malformed json"),
    pytest.param("'delta'", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "radial-exp", "amplitude": {"re": 0.3, "im": 0.0}})], id="no delta"),
    pytest.param("'amplitude'", lambda tmp: INDEX + ["--potential", _file(tmp, json.dumps(
        {"kind": "radial-exp", "delta": 6 * LOG2}))], id="no amplitude"),
    pytest.param("'values'", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "table", "delta": 6 * LOG2})], id="no values"),
    pytest.param("--z", lambda tmp: ["kernel", "--k", "2", "--depth", "3", "--z", "abc"],
                 id="bad z"),
    pytest.param("--lam", lambda tmp: ["kernel", "--k", "2", "--depth", "3", "--lam", "0.1jj"],
                 id="bad lam"),
    pytest.param("argument --z: not allowed with argument --lam", lambda tmp: [
        "kernel", "--k", "2", "--depth", "3", "--lam", "0.1j", "--z=-5"], id="z with lam"),
    pytest.param("--center", lambda tmp: INDEX + ["--center", "1+"], id="bad center"),
    pytest.param("grid", lambda tmp: SCAN + ["--grid", "0"], id="zero grid"),
    pytest.param("grid", lambda tmp: SCAN + ["--grid", "-3"], id="negative grid"),
    pytest.param("'values'", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "table", "delta": 6 * LOG2, "values": [{"v": -1, "re": 0.2}]})],
                 id="negative vertex"),
    *[pytest.param("'values'", lambda tmp, v=v: INDEX + ["--potential", json.dumps(
        {"kind": "table", "delta": 6 * LOG2, "values": [{"v": v, "re": 0.2}]})],
                   id=f"{name} vertex")
      for name, v in [("float", 1.7), ("negative float", -0.5), ("bool", True), ("string", "3")]],
    pytest.param("'values'", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "table", "delta": 6 * LOG2, "values": [{"v": 1, "re": 0.1}, {"v": 1, "re": 0.5}]})],
                 id="repeated vertex"),
    pytest.param("r_min < r_max", lambda tmp: SCAN + ["--rmin", "0.1", "--rmax", "0.05"],
                 id="reversed annulus"),
    pytest.param("r_min < r_max", lambda tmp: SCAN + ["--rmin", "0.1", "--rmax", "0.1"],
                 id="empty annulus"),
    pytest.param("'delta'", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "radial-exp", "amplitude": 0.3, "delta": math.nan})], id="nan delta"),
    pytest.param("'delta'", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "radial-exp", "amplitude": 0.3, "delta": math.inf})], id="infinite delta"),
    pytest.param("'amplitude'", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "radial-exp", "amplitude": {"re": math.nan, "im": 0.0}, "delta": 6 * LOG2})],
                 id="nan amplitude"),
    pytest.param("'values'", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "table", "delta": 6 * LOG2, "values": [{"v": 0, "re": 0.2, "im": math.nan}]})],
                 id="nan table value"),
    pytest.param("'C'", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "radial-exp", "amplitude": 0.3, "delta": 6 * LOG2, "C": "x"})], id="string C"),
    pytest.param("'C'", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "radial-exp", "amplitude": 0.3, "delta": 6 * LOG2, "C": math.inf})],
                 id="infinite C"),
    pytest.param("'C'", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "radial-exp", "amplitude": 0.3, "delta": 6 * LOG2, "C": 0})], id="zero C"),
    pytest.param("'C'", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "radial-exp", "amplitude": 0.3, "delta": 6 * LOG2, "C": -1.0})],
                 id="negative C"),
    pytest.param("certificate", lambda tmp: _deep_k1_table(2000, C=1e300),
                 id="huge explicit C"),
    pytest.param("certificate", lambda tmp: _deep_k1_table(2000), id="certificate overflow"),
    pytest.param("certificate", lambda tmp: _deep_k1_table(8000), id="certificate overflow deeper"),
    pytest.param("cap", lambda tmp: ["kernel", "--k", "2", "--depth", "40000"],
                 id="kernel depth past the cap"),
    pytest.param("cap", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "radial-exp", "amplitude": 1e300, "delta": 4.2})], id="index huge amplitude"),
    pytest.param("cap", lambda tmp: SCAN[:3] + SCAN[7:] + ["--potential", json.dumps(
        {"kind": "radial-exp", "amplitude": 1e300, "delta": 4.2})], id="scan huge amplitude"),
    pytest.param("cap", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "radial-exp", "amplitude": 1.0, "delta": 1e-310})], id="index tiny delta"),
    # a table vertex past int64: its sphere, and so the auto depth, is exact
    *[pytest.param(f"k={k}, depth={depth} needs over {VERTEX_CAP} vertices (the cap)",
                   lambda tmp, cmd=cmd, k=k: cmd + ["--k", str(k), "--potential", json.dumps(
                       {"kind": "table", "delta": 1.6, "values": [{"v": 10**30, "re": 0.1}]})],
                   id=f"{cmd[0]} table vertex 10**30 at k={k}")
      for k, depth in [(1, 10**30 + 1), (2, 100)]
      for cmd in (["scan", "--rmin", "0.05", "--rmax", "0.1"], ["index", "--radius", "0.1"])],
    pytest.param("'amplitude'", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "radial-exp", "amplitude": {"re": 1.7e308, "im": 1.7e308}, "delta": 4.2})],
                 id="index amplitude past the largest float"),
    pytest.param("'amplitude'", lambda tmp: INDEX + ["--depth", "4", "--potential", json.dumps(
        {"kind": "radial-exp", "amplitude": {"re": 1.7e308, "im": 1.7e308}, "delta": 4.2})],
                 id="amplitude modulus past the largest float at depth 4"),
    pytest.param("'values'", lambda tmp: INDEX + ["--depth", "4", "--potential", json.dumps(
        {"kind": "table", "delta": 4.2, "values": [{"v": 0, "re": 1.7e308, "im": 1.7e308}]})],
                 id="table value modulus past the largest float"),
    pytest.param("admissible floor", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "radial-exp", "amplitude": 1e-20, "delta": 1e-310})],
                 id="index tiny amplitude and tiny delta"),
    pytest.param("finite", lambda tmp: ["kernel", "--k", "1", "--depth", "3", "--z", "inf"],
                 id="infinite z"),
    pytest.param("too large", lambda tmp: ["kernel", "--k", "2", "--depth", "3",
                                           "--z", "1e300"], id="huge z"),
    pytest.param("weight rate", lambda tmp: ["kernel", "--k", "2", "--depth", "3",
                                             "--delta", "nan"], id="nan kernel delta"),
    pytest.param("weight rate", lambda tmp: ["kernel", "--k", "2", "--depth", "3",
                                             "--delta", "inf"], id="infinite kernel delta"),
    pytest.param("contour radius", lambda tmp: ["index", "--k", "2", "--radius", "nan"],
                 id="nan radius"),
    pytest.param("contour radius", lambda tmp: ["index", "--k", "2", "--radius", "inf"],
                 id="infinite radius"),
    pytest.param("contour center", lambda tmp: INDEX + ["--center", "infj"],
                 id="infinite center"),
    pytest.param("|lam|=0.5 outside the punctured disk", lambda tmp: INDEX + ["--radius", "0.5"],
                 id="radius past the disk"),
    pytest.param("even node count, got 17", lambda tmp: INDEX + ["--nodes", "17"],
                 id="index odd node count"),
    pytest.param("even node count, got 17", lambda tmp: SCAN + ["--grid", "4", "--nodes", "17"],
                 id="scan odd node count"),
    pytest.param("--sv-floor", lambda tmp: SCAN + ["--sv-floor", "nan"], id="nan sv floor"),
    pytest.param("--sv-floor", lambda tmp: SCAN + ["--sv-floor", "-1"], id="negative sv floor"),
    pytest.param("--out", lambda tmp: SCAN + ["--grid", "4", "--out", str(tmp / "no" / "x.csv")],
                 id="scan out in missing dir"),
    pytest.param("--out", lambda tmp: ["spectrum", "--k", "2", "--depth", "3",
                                       "--out", str(tmp / "no" / "x.csv")],
                 id="spectrum out in missing dir"),
] + [
    pytest.param("table vertex 3 lies beyond depth 1", lambda tmp, cmd=cmd: cmd + [
        "--k", "2", "--depth", "1", "--potential", BEYOND_DEPTH_1], id=f"{cmd[0]} vertex past depth")
    for cmd in (["scan", "--rmin", "0.02", "--rmax", "0.25", "--grid", "8", "--nodes", "64"],
                ["index", "--radius", "0.25"], ["validate"], ["spectrum"])
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, argv", BAD_INPUTS)
def test_bad_input_is_one_error_line(tmp_path, capsys, field, argv):
    args = argv(tmp_path)
    # argparse's refusals exit at once and print the command's usage first
    refused = field.startswith("argument ")
    if refused:
        with pytest.raises(SystemExit) as exc:
            main(args)
        code = exc.value.code
    else:
        code = main(args)
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    if refused:
        assert lines[0].startswith(f"usage: spectree {args[0]} ")
        assert not any(line.startswith("error:") for line in lines[:-1])
        lines = lines[-1:]
    assert code == 1
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert field in lines[0]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--k", "2", "--depth", "40000"],
    ["kernel", "--k", "2", "--depth", "40000"],
    ["validate", "--k", "2", "--depth", "40000"],
    SCAN[:5] + SCAN[7:] + ["--sv-floor", "nan"],
    INDEX + ["--center", "1+"],
], ids=lambda argv: argv[0])
def test_bad_potential_is_reported_before_a_second_fault(capsys, argv):
    # every command reads --potential right after --k, before its own flags
    # and before it builds a tree
    assert main(argv + ["--potential", '{"kind": "radial-exp",']) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error: potential JSON is malformed")


@pytest.mark.parametrize("argv", [
    ["scan", "--k", "1", "--depth", "3", "--rmin", "0.02", "--rmax", "0.25", "--potential",
     json.dumps({"kind": "table", "values": [{"v": 0, "re": 0.2}], "delta": 1.6})],
    ["spectrum", "--k", "2", "--depth", "3", "--potential",
     json.dumps({"kind": "radial-exp", "amplitude": 0.3, "delta": 1.0})],
], ids=["scan annulus past the disk", "spectrum decay below the floor"])
def test_usage_error_leaves_no_out_file(tmp_path, capsys, argv):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("kept\n")
    stamp = old.stat().st_mtime_ns
    assert main(argv + ["--out", str(new)]) == 1
    assert main(argv + ["--out", str(old)]) == 1
    assert not new.exists()
    assert old.read_text() == "kept\n" and old.stat().st_mtime_ns == stamp
    assert capsys.readouterr().err.count("error:") == 2


def test_scan_index_and_spectrum_never_import_scipy():
    table = json.dumps({"kind": "table", "values": [{"v": 0, "re": 0.2}], "delta": 1.6})
    script = (
        "import sys\n"
        "from spectree import cli\n"
        f"table = {table!r}\n"
        "cli.main(['scan', '--k', '1', '--potential', table, '--rmin', '0.02',\n"
        "          '--rmax', '0.15', '--grid', '4', '--nodes', '16'])\n"
        "cli.main(['index', '--k', '2', '--radius', '0.1', '--nodes', '16'])\n"
        "cli.main(['spectrum', '--k', '2', '--depth', '3'])\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        "rc = cli.main(['kernel', '--k', '2', '--depth', '4'])\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        "sys.exit(rc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_env_with_src(),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_validate_never_imports_scipy():
    radial = json.dumps({"kind": "radial-exp", "amplitude": {"re": 0.3, "im": 0.15},
                         "delta": 6 * LOG2})
    script = (
        "import sys\n"
        "from spectree import cli\n"
        "assert cli.main(['validate', '--k', '2', '--depth', '3']) == 0\n"
        f"assert cli.main(['validate', '--k', '2', '--depth', '3', '--potential', {radial!r}]) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_env_with_src(),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _auto_depth_by_resumming(k, vmax):
    """The table branch of ``_auto_depth`` as it was: every sphere size re-summed
    at each step."""
    d = 0
    while sum(k**r for r in range(d + 1)) <= vmax:
        d += 1
    return max(d + 1, 4)


@pytest.mark.parametrize("amplitude,delta,depth", [
    (1e-20, 1e-310, 4), (1e-20, 4.2, 4), (1e-14, 4.2, 4), (1.0, 4.2, 8), (1e300, 1e-310, VERTEX_CAP),
])
def test_auto_depth_of_a_radial_potential_is_finite(amplitude, delta, depth):
    # below the support cutoff the span is negative, -inf once divided by a
    # tiny delta; above it, +inf is held at the vertex cap
    spec = PotentialSpec(kind="radial-exp", delta=delta, amplitude=amplitude)
    assert _auto_depth(2, spec) == depth


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_auto_depth_of_a_table_equals_the_resumming_loop(k):
    # the re-summing loop is quadratic at k = 1, so there it runs on fewer vertices
    vertices = list(range(301)) + [1000, 1999, 2000] if k == 1 else range(2001)
    for v in vertices:
        spec = PotentialSpec.table([(v, 0.1)], 1.6)
        assert _auto_depth(k, spec) == _auto_depth_by_resumming(k, v), v


#: a table whose auto depth loops forever unless k >= 1 is checked first
K_TABLE = json.dumps({"kind": "table", "values": [{"v": 3, "re": 0.1}], "delta": 4.2})


@pytest.mark.parametrize("k", ["0", "-2"])
@pytest.mark.parametrize("argv", [
    ["validate"],
    ["kernel"],
    ["kernel", "--delta", "1"],
    ["scan", "--rmin", "0.05", "--rmax", "0.1", "--potential", K_TABLE],
    ["spectrum"],
    ["index", "--radius", "0.1", "--potential", K_TABLE],
], ids=["validate", "kernel", "kernel with delta", "scan", "spectrum", "index"])
def test_branching_factor_below_one_is_one_quick_error_line(capsys, argv, k):
    start = time.perf_counter()
    code = main(argv + ["--k", k])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.splitlines() == [f"error: branching factor must be >= 1, got {k}"]
    assert elapsed < 1.0


@pytest.mark.parametrize("command", ["scan", "index"])
def test_table_vertex_past_the_cap_is_one_quick_error_line(capsys, command):
    potential = json.dumps({"kind": "table", "values": [{"v": 10**8, "re": 0.1}], "delta": 1.6})
    argv = {
        "scan": ["scan", "--k", "1", "--rmin", "0.05", "--rmax", "0.1"],
        "index": ["index", "--k", "1", "--radius", "0.1"],
    }[command] + ["--potential", potential]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "cap" in lines[0]
    assert elapsed < 1.0
