"""Command-line surface: flags, exit codes, emitted artifacts."""
import json
import math

import numpy as np
import pytest

from helpers import reference_pass
from spectree import PotentialSpec, build_tree, charval, from_lambda
from spectree.birman_schwinger import BSFactory
from spectree.charval import ContourSpec
from spectree.cli import _auto_depth, build_parser, main
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
