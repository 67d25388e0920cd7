"""Command-line surface: flags, exit codes, emitted artifacts."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import reference_pass
from spectree import (
    PotentialSpec,
    build_tree,
    charval,
    direct_resolvent_block,
    from_lambda,
    from_z,
    resolvent,
    t_minus,
    weights,
    weighted_resolvent_kernel,
)
from spectree.birman_schwinger import BSFactory
from spectree.charval import ContourSpec
from spectree.cli import _auto_depth, _sphere_column_errors, build_parser, main
from spectree.errors import NonConvergent, OutOfDisk, SingularOnContour

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
    sp_ = from_z(k, t_minus(k) - 0.5) if lam is None else from_lambda(k, lam)
    assert (sp_.z.real > t_minus(k)) == (lam is not None)
    t = build_tree(k, depth)
    e_m, _ = weights(t, out["delta"])
    closed = weighted_resolvent_kernel(t, None, e_m, e_m, sp_).entries
    oracle = e_m[:, None] * direct_resolvent_block(t, sp_.z) * e_m[None, :]
    max_err, rel = _full_matrix_errors(closed, oracle)
    assert code == 0
    assert abs(out["max_abs_error"] - max_err) <= 1e-15
    assert abs(out["rel_frobenius_error"] - rel) <= 1e-15


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


def test_kernel_depth_16_under_one_gib():
    # the wrapper's RUSAGE_CHILDREN covers only the one kernel process
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    wrapper = (
        "import json, resource, subprocess, sys\n"
        "proc = subprocess.run([sys.executable, '-m', 'spectree.cli', 'kernel',\n"
        "                       '--k', '2', '--depth', '16'], capture_output=True, text=True)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(json.dumps([proc.returncode, proc.stdout, proc.stderr, peak]))\n"
    )
    run = subprocess.run([sys.executable, "-c", wrapper], env=env,
                         capture_output=True, text=True, timeout=600)
    code, stdout, stderr, peak_kib = json.loads(run.stdout)
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
    fval, fpval = charval._family(factory, charval._sign_for(args.threshold), factory.eps0)
    want = reference_pass(fval, fpval, ContourSpec(complex(args.center), args.radius, args.nodes))
    assert code == 0 and want.certified
    assert out == want.to_json()


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
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


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


INDEX = ["index", "--k", "2", "--radius", "0.1", "--nodes", "32"]
SCAN = ["scan", "--k", "2", "--depth", "4", "--potential", RADIAL,
        "--rmin", "0.05", "--rmax", "0.15", "--nodes", "32"]


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
    pytest.param("--center", lambda tmp: INDEX + ["--center", "1+"], id="bad center"),
    pytest.param("grid", lambda tmp: SCAN + ["--grid", "0"], id="zero grid"),
    pytest.param("grid", lambda tmp: SCAN + ["--grid", "-3"], id="negative grid"),
    pytest.param("'values'", lambda tmp: INDEX + ["--potential", json.dumps(
        {"kind": "table", "delta": 6 * LOG2, "values": [{"v": -1, "re": 0.2}]})],
                 id="negative vertex"),
    pytest.param("--out", lambda tmp: SCAN + ["--grid", "4", "--out", str(tmp / "no" / "x.csv")],
                 id="scan out in missing dir"),
    pytest.param("--out", lambda tmp: ["spectrum", "--k", "2", "--depth", "3",
                                       "--out", str(tmp / "no" / "x.csv")],
                 id="spectrum out in missing dir"),
]


@pytest.mark.parametrize("field, argv", BAD_INPUTS)
def test_bad_input_is_one_error_line(tmp_path, capsys, field, argv):
    code = main(argv(tmp_path))
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert code == 1
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert field in lines[0]
