"""Argument-principle counting, resonance indicators, Riesz ranks, scans.

The independent oracle for every contour count is the winding number of the
determinant along the same contour, computed by phase unwrapping.
"""
import json
import math

import numpy as np
import pytest

from spectree import (
    PotentialSpec,
    build_spherical_basis,
    build_tree,
    resonance_indicator,
    riesz_multiplicity,
    spectrum,
    absence_scan,
)
from spectree.birman_schwinger import BSFactory
from spectree.charval import (
    CSV_HEADER,
    ContourSpec,
    IndexReport,
    contour_index,
    _family,
    _pivot_family,
    _polar_grid,
)
from spectree.errors import (
    InvalidParameter,
    NonConvergent,
    NotIsolated,
    OutOfDisk,
    SingularOnContour,
)
from spectree.operators import perturbed_operator

LOG2 = math.log(2.0)
RADIAL_POTENTIAL = {"kind": "radial-exp", "amplitude": {"re": 0.3, "im": 0.15}, "delta": 6 * LOG2}


from helpers import (
    det_winding_oracle,
    diag_rows,
    diag_stack,
    planted_family,
    reference_pass,
    sandwich_table_spec,
)


def test_constant_identity_has_index_zero():
    rep = contour_index(lambda lam: diag_stack(lam, [1.0] * 4),
                        lambda lam: diag_stack(lam, [0.0] * 4),
                        ContourSpec(0.0, 0.1))
    assert rep.rounded == 0
    assert rep.residual < 1e-12
    assert rep.min_sv_on_contour == pytest.approx(1.0)


def test_scalar_winding():
    for form in (diag_stack, diag_rows):  # matrices, and (N, n) diagonals
        rep = contour_index(lambda lam: form(lam, [lam - 0.05, 1.0, 1.0]),
                            lambda lam: form(lam, [1.0, 0.0, 0.0]),
                            ContourSpec(0.0, 0.1))
        assert rep.rounded == 1 and rep.residual < 1e-12
        assert rep.min_sv_on_contour == pytest.approx(0.05)


def test_rank_one_double_zero_with_determinant_oracle():
    rng = np.random.default_rng(11)
    a, b = 0.03 + 0.01j, -0.05 + 0.02j
    u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    proj = np.outer(u, u.conj()) / (u.conj() @ u)

    def f(lam):
        return np.eye(8) + (2.0 * (lam - a) * (lam - b) - 1.0)[..., None, None] * proj

    def fp(lam):
        return 2.0 * ((lam - a) + (lam - b))[..., None, None] * proj

    contour = ContourSpec(0.0, 0.1)
    rep = contour_index(f, fp, contour)
    assert rep.rounded == 2
    assert det_winding_oracle(f, contour) == 2


def test_block_family_input():
    # block lists with multiplicities accumulate traces blockwise
    def f(lam):
        return [(3, diag_stack(lam, [lam - 0.01])), (1, diag_stack(lam, [1.0, 1.0]))]

    def fp(lam):
        return [(3, diag_stack(lam, [1.0 + 0j])), (1, diag_stack(lam, [0.0, 0.0]))]

    rep = contour_index(f, fp, ContourSpec(0.0, 0.05))
    assert rep.rounded == 3


def test_randomized_planted_multiplicities():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        mults = [int(rng.integers(1, 4))]
        if rng.random() < 0.5:
            mults.append(int(rng.integers(1, 3)))
        zeros = tuple(
            (0.08 * rng.random() * np.exp(2j * np.pi * rng.random()), m) for m in mults
        )
        decoys = ((0.2 + 0.05 * rng.random(), int(rng.integers(1, 3))),)
        f, fp = planted_family(rng, 8, zeros, decoys)
        contour = ContourSpec(0.0, 0.12)
        rep = contour_index(f, fp, contour)
        expected = sum(m for _, m in zeros)
        assert rep.rounded == expected, f"trial {trial}"
        assert rep.residual < 0.05
        assert det_winding_oracle(f, contour) == expected


def test_additivity_over_annuli():
    rng = np.random.default_rng(5)
    zeros = ((0.03 + 0j, 1), (0.07j, 2))
    f, fp = planted_family(rng, 6, zeros)
    inner = contour_index(f, fp, ContourSpec(0.0, 0.05)).rounded
    outer = contour_index(f, fp, ContourSpec(0.0, 0.1)).rounded
    assert inner == 1 and outer == 3  # annulus 0.05 < |lam| < 0.1 holds the double zero


def test_singular_on_contour():
    def f(lam):
        return diag_stack(lam, [1e-12, 1e-12])

    def fp(lam):
        return diag_stack(lam, [0.0, 0.0])

    with pytest.raises(SingularOnContour):
        contour_index(f, fp, ContourSpec(0.0, 0.1))


def test_exactly_singular_node_takes_the_phase_nudge():
    # F is exactly singular at nodes 7-8: the singular values are read before
    # any solve, so the pass raises SingularOnContour rather than numpy's
    # LinAlgError, and contour_index retries at the nudged phase
    import spectree.charval as cv

    contour = ContourSpec(0.0, 0.1, nodes=16)
    pts = contour.points()

    def f(lam):
        return diag_stack(lam, [np.where(np.isin(lam, pts[7:9]), 0.0, 1.0), 2.0])

    def fp(lam):
        return diag_stack(lam, [0.0, 0.0])

    with pytest.raises(SingularOnContour) as exc:
        cv._quadrature_pass(f, fp, contour, 0.0)
    assert f"node {pts[7]:.6g} " in str(exc.value)
    report = contour_index(f, fp, contour)
    assert report.rounded == 0 and report.residual == 0.0


def test_non_convergent_on_non_holomorphic_family():
    def f(lam):
        return diag_stack(lam, [1.0 + 0.5 * np.conj(lam) / 0.1])

    def fp(lam):
        # the derivative of conj(lam) along the real axis
        return diag_stack(lam, [0.5 / 0.1 + 0j])

    with pytest.raises(NonConvergent):
        contour_index(f, fp, ContourSpec(0.0, 0.1, nodes=16))


def test_zero_just_outside_is_not_certified_by_one_pass():
    # f = lam - a with a = r * 2**(1/N) outside the circle: the N-node sum is
    # -q / (1 - q) with q = (r/a)**N = 1/2, i.e. -1 to rounding, while the
    # N/2-node sum, -sqrt(1/2) / (1 - sqrt(1/2)), disagrees; so do the sums of
    # every doubling up to 512 nodes
    import spectree.charval as cv

    contour = ContourSpec(0.0, 0.1, nodes=128)
    a = 0.1 * 2.0 ** (1.0 / 128)

    def f(lam):
        return diag_stack(lam, [lam - a])

    def fp(lam):
        return diag_stack(lam, [1.0])

    report = cv._quadrature_pass(f, fp, contour, 0.0)
    assert report.rounded == -1 and report.residual < 1e-12
    # |-1 - (-sqrt(1/2) / (1 - sqrt(1/2)))| = sqrt(2)
    assert abs(report.half_gap - math.sqrt(2.0)) < 1e-12
    assert not report.certified
    with pytest.raises(NonConvergent):
        contour_index(f, fp, contour)


def test_root_table_passes_near_their_zero_are_not_certified():
    # the root -0.6 table at k=2 has its zero 0.54% outside r = 0.12284165:
    # the 128-node sum lies within RESIDUAL_TOL of -1 and the 512-node sum
    # within it of 0, but neither of the sums on half their nodes, so
    # neither pass certifies
    import spectree.charval as cv

    spec = PotentialSpec.table([(0, -0.6)], 4.2)
    f = _pivot_family(BSFactory(build_tree(2, 10), None, spec), 1)
    for nodes, rounded, gap in ((128, -1, 1.41), (512, 0, 0.27)):
        report = cv._quadrature_pass(f, None, ContourSpec(0.0, 0.12284165, nodes), 0.0)
        assert report.rounded == rounded and report.residual < cv.RESIDUAL_TOL
        assert abs(report.half_gap - gap) < 0.01
        assert not report.certified


def test_contour_spec_validation():
    with pytest.raises(InvalidParameter):
        ContourSpec(0.0, -1.0)
    with pytest.raises(InvalidParameter):
        ContourSpec(0.0, 0.1, nodes=4)


def test_odd_node_count_is_refused_before_any_evaluation():
    # with 17 nodes the even-indexed ones are not an equispaced rule, so the
    # half sum could not check the count
    calls = []

    def f(lam):
        calls.append(lam)
        return diag_rows(lam, [lam - 0.03])

    with pytest.raises(InvalidParameter, match="even node count, got 17"):
        contour_index(f, lambda lam: diag_rows(lam, [1.0]), ContourSpec(0.0, 0.1, nodes=17))
    assert calls == []


def _counting(f, sizes):
    """``f``, recording the number of nodes of every call."""
    def counted(lams):
        sizes.append(len(lams))
        return f(lams)

    return counted


def test_probe_evaluates_f_alone():
    # the one-node probe that sizes the chunks asks for F only; F' is
    # evaluated on the chunks, and a fused evaluator is asked once per chunk
    def f(lam):
        return diag_rows(lam, [lam - 0.03])

    def fp(lam):
        return diag_rows(lam, [1.0])

    f_sizes, fp_sizes, pair_sizes = [], [], []
    split = contour_index(_counting(f, f_sizes), _counting(fp, fp_sizes), ContourSpec(0.0, 0.1, 16))
    assert f_sizes == [1, 16] and fp_sizes == [16]
    fused = contour_index(_counting(lambda lam: (f(lam), fp(lam)), pair_sizes), None,
                          ContourSpec(0.0, 0.1, 16))
    assert pair_sizes == [1, 16]
    assert fused == split and split.rounded == 1


def test_index_report_json_keys():
    rep = IndexReport(raw=0.1 + 0.05j, rounded=0, residual=0.11, min_sv_on_contour=0.5,
                      half_gap=0.01)
    out = rep.to_json()
    assert set(out) == {"raw", "rounded", "residual", "min_sv"}
    assert set(out["raw"]) == {"re", "im"}


# -- resonance indicator -----------------------------------------------------


def test_bare_root_indicator_far_from_minus_one():
    t = build_tree(2, 6)
    b = build_spherical_basis(t)
    eigs, dist = resonance_indicator(t, b, None, 0.1j)
    assert eigs.size == 1
    assert dist > 0.1


def test_indicator_eigenvalues_scale_with_perturbation():
    t = build_tree(2, 6)
    b = build_spherical_basis(t)
    spec1 = PotentialSpec.table([(0, -0.4), (2, 0.2j)], delta=6 * LOG2)
    spec3 = PotentialSpec.table([(0, -3 * 0.4 - 2.0), (2, 3 * 0.2j)], delta=6 * LOG2)
    e1, _ = resonance_indicator(t, b, spec1, 0.08j)
    e3, _ = resonance_indicator(t, b, spec3, 0.08j)
    assert np.abs(np.sort_complex(e3) - 3.0 * np.sort_complex(e1)).max() < 1e-10


def test_indicator_continuity_along_grid(tree_basis, radial_spec_k2):
    t, b = tree_basis(2, 6)
    factory = BSFactory(t, b, radial_spec_k2)
    lams = np.linspace(0.05, 0.15, 41) + 0.02j
    dists = np.array([
        resonance_indicator(t, b, radial_spec_k2, l, factory=factory)[1] for l in lams
    ])
    step = abs(lams[1] - lams[0])
    lipschitz = max(
        np.linalg.norm(factory.derivative(l, +1), 2) for l in (lams[0], lams[20], lams[-1])
    )
    assert np.abs(np.diff(dists)).max() <= 1.5 * lipschitz * step + 1e-12


# -- Riesz projections ---------------------------------------------------------


def test_riesz_diagonal_double():
    op = np.diag([0.3 + 0j, 0.3, 1.5, -2.0])
    assert riesz_multiplicity(op, 0.3, ContourSpec(0.3, 0.2)) == 2


def test_riesz_jordan_block():
    op = np.array([[0.7, 1.0], [0.0, 0.7]], dtype=complex)
    # algebraic multiplicity 2 even though the kernel is one-dimensional
    assert riesz_multiplicity(op, 0.7, ContourSpec(0.7, 0.1)) == 2
    assert np.linalg.matrix_rank(op - 0.7 * np.eye(2)) == 1


def test_riesz_isolation_guard():
    op = np.diag([0.0 + 0j, 0.15, 2.0])
    with pytest.raises(NotIsolated):
        riesz_multiplicity(op, 0.0, ContourSpec(0.0, 0.1))


# -- spectra --------------------------------------------------------------------


def test_path_spectrum_closed_form():
    n = 9
    t = build_tree(1, n)
    res = spectrum(t, None)
    # zero perturbation here means the pure shifted adjacency of the path
    h = perturbed_operator(t, None).real - np.diag([-1.0] + [0.0] * n)
    eigs = np.sort(np.linalg.eigvalsh(h))
    expected = np.sort(2.0 - 2.0 * np.cos(np.arange(1, n + 2) * np.pi / (n + 2)))
    assert np.abs(eigs - expected).max() < 1e-10
    assert res.eigenvalues.shape == (n + 1,)


def test_band_containment_pure_tree():
    t = build_tree(2, 8)
    res = spectrum(t, None)
    assert np.all(res.inside_band)


def test_planted_root_eigenvalue():
    t = build_tree(2, 8)
    spec = PotentialSpec.table([(0, -5.0)], delta=6 * LOG2)
    res = spectrum(t, spec)
    out = res.outside()
    assert out.size == 1
    # rank-one defect of strength -6 at the root: the bound state solves
    # 6 xi / sqrt(2) = 1 exactly, giving z = -10/3 on the infinite tree
    assert out[0] == pytest.approx(-10.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("spec", [
    PotentialSpec.radial_exp(0.3 + 0.15j, 6 * LOG2),
    PotentialSpec.radial_exp(0.3, 6 * LOG2),
], ids=["complex", "real"])
def test_spectrum_certifies_the_potential_once(monkeypatch, spec):
    # the operator's diagonal tells a real operator from a complex one, so
    # the potential is materialized and certified only for the operator
    t = build_tree(2, 4)
    expected = spectrum(t, spec)
    check = PotentialSpec.check_assumption
    calls = []

    def counted(self, tree):
        calls.append(tree)
        return check(self, tree)

    monkeypatch.setattr(PotentialSpec, "check_assumption", counted)
    got = spectrum(t, spec)
    assert calls == [t]
    assert got.eigenvalues.tobytes() == expected.eigenvalues.tobytes()
    assert got.inside_band.tolist() == expected.inside_band.tolist()


def test_complex_potential_spectrum_is_the_sorted_dense_eigvals():
    # a complex potential takes the general eigensolver; the root defect
    # leaves the band with an imaginary part, other eigenvalues stay within
    # roundoff of the real axis or move off it by 1e-5 and more
    t = build_tree(2, 5)
    spec = PotentialSpec.table([(0, -5.0 + 0.5j), (1, 0.2j), (4, 0.05)], 6 * LOG2)
    res = spectrum(t, spec)
    dense = np.linalg.eigvals(perturbed_operator(t, spec))
    expected = sorted(dense.tolist(), key=lambda e: (e.real, e.imag))
    assert res.eigenvalues.tolist() == expected
    lo, hi = res.t_minus, res.t_plus
    tags = [abs(e - min(max(e.real, lo), hi)) <= 1e-8 for e in expected]
    assert res.inside_band.tolist() == tags
    assert 0 < sum(tags) < len(tags)
    assert res.outside()[0] == pytest.approx(expected[0]) and expected[0].imag > 0.1


# -- scans ------------------------------------------------------------------------


@pytest.mark.parametrize("annulus", [(0.02, 0.16), (0.01, 0.05), (0.001, 0.29), (0.05, 0.1)])
@pytest.mark.parametrize("grid", [1, 2, 6, 7, 32, 64, 100])
def test_polar_grid_equals_per_point_exponentials(annulus, grid):
    radii = np.linspace(*annulus, grid)
    angles = 2.0 * np.pi * np.arange(grid) / grid
    per_point = np.array([r * np.exp(1j * a) for r in radii for a in angles])
    assert np.array_equal(_polar_grid(*annulus, grid).view(float), per_point.view(float))


def test_absence_scan_smoke(tmp_path, tree_basis, radial_spec_k2):
    t, b = tree_basis(2, 8)
    csv_path = tmp_path / "scan.csv"
    rep = absence_scan(
        t, b, radial_spec_k2, (0.05, 0.2), 8, "minus", nodes=64, csv_path=csv_path
    )
    assert rep.all_indices_zero
    assert rep.min_singular_value > 1e-4
    assert rep.flagged == 0
    assert rep.grid_rows.shape == (64, 4)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 65
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed, rep.grid_rows)  # 17 digits round-trip exactly


def test_absence_scan_deterministic(tmp_path, tree_basis, radial_spec_k2):
    t, b = tree_basis(2, 6)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    absence_scan(t, b, radial_spec_k2, (0.05, 0.15), 5, nodes=32, csv_path=p1)
    absence_scan(t, b, radial_spec_k2, (0.05, 0.15), 5, nodes=32, csv_path=p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_absence_scan_ladder_closes_at_r_max(tree_basis, radial_spec_k2):
    # 0.02 * 2**m stops at 0.08; the shell out to 0.1 must still be counted
    t, b = tree_basis(2, 6)
    rep = absence_scan(t, b, radial_spec_k2, (0.02, 0.1), 4, nodes=32)
    assert [r for r, _ in rep.ladder] == [0.02, 0.04, 0.08, 0.1]
    assert rep.all_indices_zero


def test_absence_scan_annulus_guard(tree_basis, radial_spec_k2):
    t, b = tree_basis(2, 6)
    with pytest.raises(OutOfDisk):
        absence_scan(t, b, radial_spec_k2, (0.05, 0.5), 4)
    # a reversed or empty annulus is named as such, not as lying outside the disk
    for annulus in [(0.2, 0.1), (0.1, 0.1)]:
        with pytest.raises(InvalidParameter, match=r"r_min < r_max"):
            absence_scan(t, b, radial_spec_k2, annulus, 4)


def test_absence_scan_refuses_odd_nodes_before_the_grid(monkeypatch, tree_basis, radial_spec_k2):
    import spectree.charval as cv

    t, b = tree_basis(2, 6)
    chunks = []
    monkeypatch.setattr(cv, "_grid_chunk", lambda *args: chunks.append(args))
    with pytest.raises(InvalidParameter, match="even node count, got 17"):
        absence_scan(t, b, radial_spec_k2, (0.05, 0.15), 4, nodes=17)
    assert chunks == []


def test_absence_scan_partial_flush(tmp_path, monkeypatch, tree_basis, radial_spec_k2):
    # chunks of 8 points split the 36-point grid into 8+8+8+8+4
    t, b = tree_basis(2, 6)
    import spectree.charval as cv

    entries = sum(blk[0].size for _, blk in BSFactory(t, b, radial_spec_k2).blocks([0.05]))
    monkeypatch.setattr(cv, "STACK_ENTRIES", 8 * entries)
    monkeypatch.setattr(cv, "GIL_STACK", 0)
    # two threads share the 36 points 18 + 18, so the chunks stay at 8 points
    monkeypatch.setattr(cv, "pool_size", lambda: 2)
    full_path = tmp_path / "full.csv"
    absence_scan(t, b, radial_spec_k2, (0.05, 0.15), 6, nodes=32, csv_path=full_path)
    full = full_path.read_text().strip().split("\n")
    assert len(full) == 37

    original = cv._grid_chunk
    for failing in (1, 3, 5):
        # the pool runs chunks out of order, so the failure is keyed on the
        # chunk's first point
        first = _polar_grid(0.05, 0.15, 6)[8 * (failing - 1)]

        def flaky(factory, lams, sign):
            if lams[0] == first:
                raise RuntimeError("synthetic failure")
            return original(factory, lams, sign)

        monkeypatch.setattr(cv, "_grid_chunk", flaky)
        csv_path = tmp_path / f"partial{failing}.csv"
        with pytest.raises(RuntimeError):
            absence_scan(t, b, radial_spec_k2, (0.05, 0.15), 6, nodes=32, csv_path=csv_path)
        lines = csv_path.read_text().strip().split("\n")
        # header + exactly the rows of the chunks that completed
        assert lines == full[:1 + 8 * (failing - 1)]


SCAN_SPECS = [
    pytest.param(6, PotentialSpec.radial_exp(0.3 * (1 + 0.5j), 6 * LOG2), id="radial"),
    pytest.param(4, PotentialSpec.radial_exp(1.0, 6 * LOG2), id="amplitude-1"),
    pytest.param(6, PotentialSpec.table([(0, 0.3 - 0.2j), (2, 0.1j)], 6 * LOG2), id="table"),
]


@pytest.mark.parametrize("small_chunks", [False, True], ids=["default chunks", "chunks of 5"])
@pytest.mark.parametrize("depth, spec", SCAN_SPECS)
def test_absence_scan_matches_per_point_reference(
    monkeypatch, tree_basis, depth, spec, small_chunks
):
    import spectree.charval as cv

    t, b = tree_basis(2, depth)
    factory = BSFactory(t, b, spec)
    if small_chunks:
        entries = sum(blk[0].size for _, blk in factory.blocks([0.05], -1))
        monkeypatch.setattr(cv, "STACK_ENTRIES", 5 * entries)
        monkeypatch.setattr(cv, "GIL_STACK", 0)
    rep = absence_scan(t, b, spec, (0.05, 0.15), 6, "plus", nodes=32, factory=factory)

    # the ladder counts on the pivot family, bit for bit, and agrees with the
    # sandwich family, its reference route, to roundoff
    pivots, sandwich = _pivot_family(factory, -1), _family(factory, -1)
    for radius, index in rep.ladder:
        contour = ContourSpec(0.0, radius, 32)
        assert index == reference_pass(pivots, None, contour)
        want = reference_pass(*sandwich, contour)
        assert index.rounded == want.rounded
        assert abs(index.raw - want.raw) <= 1e-12

    rows, flagged = [], 0
    for lam in rep.grid_rows[:, 0] + 1j * rep.grid_rows[:, 1]:
        _, dist = resonance_indicator(t, b, spec, lam, "plus", factory=factory)
        blocks = [(d, blk[0]) for d, blk in factory.blocks([lam], -1)]
        minsv = min(
            float(np.linalg.svd(np.eye(blk.shape[0]) + blk, compute_uv=False).min())
            for _, blk in blocks
        )
        tnorm = max(float(np.linalg.norm(blk, 2)) for _, blk in blocks)
        rows.append((lam.real, lam.imag, dist, minsv))
        flagged += int(dist < cv.RESONANCE_RTOL * (1.0 + tnorm))
    assert np.array_equal(rep.grid_rows, np.array(rows))
    assert rep.flagged == flagged


def test_grid_chunks_reach_the_gil_release_length(monkeypatch, tree_basis):
    import spectree.charval as cv

    monkeypatch.setattr(cv, "pool_size", lambda: 2)
    t, b = tree_basis(2, 8)
    table = BSFactory(t, b, sandwich_table_spec()).blocks([0.05])
    assert [blk.shape for _, blk in table] == [(1, 63, 63)]
    # 2**14 // 63**2 = 4 would keep the GIL, on a grid of any size
    assert cv._grid_chunk_len(table, 1024) == cv._grid_chunk_len(table, 10) == 8
    radial = BSFactory(t, b, PotentialSpec.radial_exp(0.3 * (1 + 0.5j), 6 * LOG2)).blocks([0.05])
    assert cv._grid_chunk_len(radial, 1024) == cv._chunk_len(radial) == 80
    # a grid that fits one chunk is shared between the threads, down to the
    # GIL release length of the largest side (8): 500 // 8 + 1 = 63
    assert cv._grid_chunk_len(radial, 144) == 72
    assert cv._grid_chunk_len(radial, 100) == 63


POOL_SPECS = [
    pytest.param(6, sandwich_table_spec(), "minus", id="63-vertex table minus"),
    pytest.param(6, sandwich_table_spec(), "plus", id="63-vertex table plus"),
    pytest.param(8, PotentialSpec.radial_exp(0.3 * (1 + 0.5j), 6 * LOG2), "minus", id="radial"),
]


@pytest.mark.parametrize("depth, spec, threshold", POOL_SPECS)
def test_absence_scan_pool_of_two_matches_one(tmp_path, monkeypatch, tree_basis,
                                              depth, spec, threshold):
    import threading
    import time

    import spectree.charval as cv

    t, b = tree_basis(2, depth)
    factory = BSFactory(t, b, spec)
    grid = 12  # 144 points: 18 chunks of 8 or 2 chunks of 80 (and 64)
    original = cv._grid_chunk
    threads = set()

    def recording(factory, lams, sign):
        threads.add(threading.get_ident())
        time.sleep(0.01)  # keep the chunk busy while the pool starts its next thread
        return original(factory, lams, sign)

    monkeypatch.setattr(cv, "_grid_chunk", recording)
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(cv, "pool_size", lambda: workers)
        threads.clear()
        path = tmp_path / f"{workers}.csv"
        rep = absence_scan(t, b, spec, (0.05, 0.15), grid, threshold, nodes=32,
                           csv_path=path, factory=factory)
        assert len(threads) == workers
        outputs.append((path.read_bytes(), rep.flagged, rep.grid_rows.tobytes()))
    assert outputs[0] == outputs[1]


def test_small_grid_is_split_across_the_pool(tmp_path, monkeypatch):
    # k2 table complex fits its 1024 grid points in one chunk of 4 x 4 blocks
    import spectree.charval as cv
    from test_acceptance import SCAN_CORPUS

    _, k, spec, depth = next(row for row in SCAN_CORPUS if row[0] == "k2 table complex")
    t = build_tree(k, depth)
    original = cv._grid_chunk
    lengths = []

    def recording(factory, lams, sign):
        lengths.append(lams.size)
        return original(factory, lams, sign)

    monkeypatch.setattr(cv, "_grid_chunk", recording)
    for threshold in ("minus", "plus"):
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(cv, "pool_size", lambda: workers)
            lengths.clear()
            path = tmp_path / f"{threshold}{workers}.csv"
            rep = absence_scan(t, None, spec, (0.02, 0.16), 32, threshold, nodes=128,
                               csv_path=path)
            outputs.append((path.read_bytes(), rep.flagged, rep.grid_rows.tobytes()))
            assert lengths == [1024 // workers] * workers
        assert outputs[0] == outputs[1]
        side = max(blk.shape[-1] for _, blk in BSFactory(t, None, spec).blocks([0.05]))
        assert min(lengths) > cv.GIL_STACK // side


def test_csv_rows_are_written_as_csv_writer_writes_them(tmp_path, monkeypatch, tree_basis,
                                                         radial_spec_k2):
    import csv
    import io

    import spectree.charval as cv

    special = np.array([-0.0, 5e-324, 1e300, 1.0])

    def fixed(factory, lams, sign):
        values = np.resize(special, lams.size)
        return values, values[::-1].copy(), np.zeros(lams.size, dtype=bool)

    monkeypatch.setattr(cv, "_grid_chunk", fixed)
    t, b = tree_basis(2, 6)
    path = tmp_path / "scan.csv"
    rep = absence_scan(t, b, radial_spec_k2, (0.05, 0.15), 6, nodes=32, csv_path=path)
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(CSV_HEADER)
    writer.writerows([f"{x:.17g}" for x in row] for row in rep.grid_rows)
    assert path.read_bytes() == want.getvalue().encode()
    assert set(rep.grid_rows[:, 2]) == set(special)


def test_contour_index_chunks_match_per_node_reference(monkeypatch):
    import spectree.charval as cv

    rng = np.random.default_rng(31)
    f, fp = planted_family(rng, 8, ((0.03 + 0.01j, 2),), ((0.2, 1),))
    contour = ContourSpec(0.0, 0.1, nodes=64)

    def as_list(g):
        return lambda lam: [(1, g(lam))]

    want = reference_pass(as_list(f), as_list(fp), contour)
    assert want.rounded == 2
    for entries in (64, 7 * 64, cv.STACK_ENTRIES):  # chunks of 1, 7 and all nodes
        monkeypatch.setattr(cv, "STACK_ENTRIES", entries)
        assert contour_index(f, fp, contour) == want


def test_singular_node_is_named_across_chunks(monkeypatch):
    import spectree.charval as cv

    monkeypatch.setattr(cv, "STACK_ENTRIES", 5)  # 1x1 family: chunks of 5 nodes
    contour = ContourSpec(0.0, 0.1, nodes=16)
    pts = contour.points()

    for form in (diag_stack, diag_rows):  # matrices, and (N, n) diagonals
        def f(lam):
            return form(lam, [np.where(np.isin(lam, pts[7:9]), 1e-12, 1.0)])

        with pytest.raises(SingularOnContour) as exc:
            cv._quadrature_pass(f, lambda lam: form(lam, [0.0]), contour, 0.0)
        assert f"node {pts[7]:.6g} " in str(exc.value)


def test_frobenius_screen_keeps_exact_flags():
    from spectree.charval import RESONANCE_RTOL, _flags, _fro_norms

    rng = np.random.default_rng(8)
    n_pts = 60
    # slot 1: random blocks; slot 2: rank one (Frobenius norm = spectral norm)
    # or a scaled identity (Frobenius norm = sqrt(n) * spectral norm)
    rand = rng.standard_normal((n_pts, 5, 5)) + 1j * rng.standard_normal((n_pts, 5, 5))
    u = rng.standard_normal((n_pts, 3)) + 1j * rng.standard_normal((n_pts, 3))
    rank_one = 3.0 * u[:, :, None] * u[:, None, :].conj()
    eye = 4.0 * np.eye(3) * rng.random((n_pts, 1, 1))
    second = np.where((np.arange(n_pts) % 2 == 0)[:, None, None], rank_one, eye)
    blocks = [(2, 0.3 * rand), (1, second)]

    tnorm = np.array([
        max(float(np.linalg.norm(blk[i], 2)) for _, blk in blocks) for i in range(n_pts)
    ])
    threshold = RESONANCE_RTOL * (1.0 + tnorm)
    offsets = np.array([1 - 1e-12, 1 + 1e-12, 1 - 1e-3, 1 + 1e-3, 1e-6, 1e3])
    dist = threshold * np.resize(offsets, n_pts)
    flags = _flags(blocks, dist, _fro_norms(blk for _, blk in blocks))
    assert np.array_equal(flags, dist < threshold)
    assert 0 < flags.sum() < n_pts
    # the screen alone would flag points the exact norm rejects
    fro = np.max([np.linalg.norm(blk, axis=(-2, -1)) for _, blk in blocks], axis=0)
    assert np.any(~flags & (dist < RESONANCE_RTOL * (1.0 + fro)))


def test_family_paths_agree(tree_basis):
    # radial fast path and full-matrix path produce the same index report;
    # amplitude 1 leaves the root weightless
    t, b = tree_basis(2, 6)
    for amplitude in (0.35j, 1.0):
        factory = BSFactory(t, b, PotentialSpec.radial_exp(amplitude, 6 * LOG2))
        fval_r, fp_r = _family(factory, 1)
        rep_reduced = contour_index(fval_r, fp_r, ContourSpec(0.0, 0.1, nodes=64))

        def fval_full(lams):
            m = np.array([factory.matrix(lam, 1) for lam in lams])
            return np.eye(m.shape[-1]) + m

        def fp_full(lams):
            return np.array([factory.derivative(lam, 1) for lam in lams])

        rep_full = contour_index(fval_full, fp_full, ContourSpec(0.0, 0.1, nodes=64))
        assert rep_reduced.rounded == rep_full.rounded == 0
        assert abs(rep_reduced.raw - rep_full.raw) < 1e-10
        assert rep_reduced.min_sv_on_contour == pytest.approx(
            rep_full.min_sv_on_contour, abs=1e-10
        )


# -- the norm screen and the ladder beside the grid ------------------------------

def _radial_corpus():
    from test_acceptance import SCAN_CORPUS

    return [
        pytest.param(k, spec, depth, id=name)
        for name, k, spec, depth in SCAN_CORPUS if spec.kind == "radial-exp"
    ]


def _unscreened_grid_chunk(factory, lams, sign):
    """Distance, min singular value and flag with every block decomposed at
    every point."""
    import spectree.charval as cv

    blocks = factory.blocks(lams, sign)
    dist = np.full(lams.shape, math.inf)
    minsv = np.full(lams.shape, math.inf)
    tnorm = np.zeros(lams.shape)
    for _, b in blocks:
        dist = np.minimum(dist, np.abs(np.linalg.eigvals(b) + 1.0).min(axis=-1))
        eye_plus = np.eye(b.shape[-1]) + b
        minsv = np.minimum(minsv, np.linalg.svd(eye_plus, compute_uv=False).min(axis=-1))
        tnorm = np.maximum(tnorm, np.linalg.norm(b, 2, axis=(-2, -1)))
    return dist, minsv, dist < cv.RESONANCE_RTOL * (1.0 + tnorm)


def _unscreened_trace_and_sv(lams, fv, fp):
    """Traces and min singular values with every block decomposed at every node."""
    sv = np.full(len(lams), math.inf)
    for _, blk in fv:
        sv = np.minimum(sv, np.linalg.svd(blk, compute_uv=False).min(axis=-1))
    traces = np.zeros(len(lams), dtype=complex)
    for (mult, blk), (_, blkp) in zip(fv, fp):
        traces += mult * np.trace(np.linalg.solve(blk, blkp), axis1=-2, axis2=-1)
    return traces, sv


def _same_bits(got, want):
    return all(np.asarray(g).tobytes() == np.asarray(w).tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("threshold", ["minus", "plus"])
@pytest.mark.parametrize("k, spec, depth", _radial_corpus())
def test_screened_minima_equal_the_unscreened_reference(k, spec, depth, threshold):
    # at the upper edge dist ~ 1 - ||T_n|| on every block, so a screen whose
    # margin points the wrong way moves rows there
    import spectree.charval as cv

    factory = BSFactory(build_tree(k, depth), None, spec)
    sign = cv._sign_for(threshold)
    points = _polar_grid(0.02, 0.16, 32)
    step = cv._grid_chunk_len(factory.blocks(points[:1], sign), points.size)
    for start in range(0, points.size, step):
        lams = points[start:start + step]
        assert _same_bits(cv._grid_chunk(factory, lams, sign),
                          _unscreened_grid_chunk(factory, lams, sign))
    fval, fpval = _family(factory, sign)
    for radius in (0.02, 0.04, 0.08, 0.16):
        pts = ContourSpec(0.0, radius, 128).points()
        step = cv._chunk_len(fval(pts[:1]))
        for start in range(0, pts.size, step):
            lams = pts[start:start + step]
            got = cv._trace_and_sv(lams, fval(lams), fpval(lams))
            assert _same_bits(got, _unscreened_trace_and_sv(lams, fval(lams), fpval(lams)))


def test_screen_skips_blocks_on_the_lower_edge(monkeypatch):
    import spectree.charval as cv

    t = build_tree(2, 8)
    factory = BSFactory(t, None, PotentialSpec.radial_exp(0.3 * (1 + 0.5j), 6 * LOG2))
    slots = len(factory.blocks([0.1]))
    counts = {"eigvals": 0, "svd": 0}
    for name in counts:
        def counting(a, *args, _decompose=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += a.shape[0]
            return _decompose(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    points = _polar_grid(0.02, 0.16, 32)
    step = cv._grid_chunk_len(factory.blocks(points[:1], 1), points.size)
    for start in range(0, points.size, step):
        cv._grid_chunk(factory, points[start:start + step], 1)
    assert 0 < counts["eigvals"] < slots * points.size
    assert 0 < counts["svd"] < slots * points.size


class _Stacks:
    """A factory stand-in whose ``blocks`` returns copies of fixed stacks."""

    def __init__(self, stacks):
        self.stacks = stacks

    def blocks(self, lams, sign):
        return [(1, s.copy()) for s in self.stacks]


def test_a_nan_block_raises_as_without_the_screen():
    import spectree.charval as cv

    rng = np.random.default_rng(4)
    n_pts = 12
    lams = np.linspace(0.05, 0.1, n_pts) + 0j
    large = 0.3 * (rng.standard_normal((n_pts, 3, 3)) + 1j * rng.standard_normal((n_pts, 3, 3)))
    # the screen would skip this block everywhere but at its NaN
    small = 1e-3 * (rng.standard_normal((n_pts, 2, 2)) + 0j)
    small[5, 1, 0] = np.nan
    stacks = [large, small]

    with pytest.raises(np.linalg.LinAlgError) as want:
        _unscreened_grid_chunk(_Stacks(stacks), lams, 1)
    with pytest.raises(np.linalg.LinAlgError) as got:
        cv._grid_chunk(_Stacks(stacks), lams, 1)
    assert str(got.value) == str(want.value)

    fv = [(1, np.eye(s.shape[-1]) + s) for s in stacks]
    fp = [(1, s.copy()) for s in stacks]
    with pytest.raises(np.linalg.LinAlgError) as want:
        _unscreened_trace_and_sv(lams, fv, fp)
    with pytest.raises(np.linalg.LinAlgError) as got:
        cv._trace_and_sv(lams, fv, fp)
    assert str(got.value) == str(want.value)


def _pool_threads():
    import threading

    return {t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")}


def test_ladder_failure_cancels_the_grid(tmp_path, monkeypatch, capsys):
    import threading

    import spectree.charval as cv
    from spectree.cli import CERTIFICATION_FAILURE, main

    before = _pool_threads()
    started, ladder_failed = threading.Event(), threading.Event()
    ran = []
    original = cv._grid_chunk

    def held(factory, lams, sign):
        ran.append(lams[0])
        started.set()
        ladder_failed.wait(timeout=10)
        return original(factory, lams, sign)

    def failing(*args, **kwargs):
        assert started.wait(timeout=10)  # a chunk is in flight
        ladder_failed.set()
        raise NonConvergent("synthetic ladder failure")

    monkeypatch.setattr(cv, "_grid_chunk", held)
    monkeypatch.setattr(cv, "contour_index", failing)
    monkeypatch.setattr(cv, "GIL_STACK", 0)
    monkeypatch.setattr(cv, "STACK_ENTRIES", 1)  # one point per chunk: 144 chunks
    out = tmp_path / "scan.csv"
    code = main(["scan", "--k", "2", "--depth", "6", "--rmin", "0.05", "--rmax", "0.15",
                 "--grid", "12", "--nodes", "32", "--out", str(out),
                 "--potential", json.dumps(RADIAL_POTENTIAL)])
    captured = capsys.readouterr()
    assert code == CERTIFICATION_FAILURE
    assert captured.out == ""
    assert captured.err.strip().splitlines() == ["error: synthetic ladder failure"]
    assert not out.exists()
    assert len(ran) < 144  # the chunks that had not started never ran
    assert _pool_threads() <= before


def test_chunk_failing_during_the_ladder_leaves_earlier_rows(tmp_path, monkeypatch,
                                                            tree_basis, radial_spec_k2):
    import threading

    import spectree.charval as cv

    t, b = tree_basis(2, 6)
    entries = sum(blk[0].size for _, blk in BSFactory(t, b, radial_spec_k2).blocks([0.05]))
    monkeypatch.setattr(cv, "STACK_ENTRIES", 8 * entries)
    monkeypatch.setattr(cv, "GIL_STACK", 0)
    # two threads share the 36 points 18 + 18, so the chunks stay at 8 points
    monkeypatch.setattr(cv, "pool_size", lambda: 2)
    full_path = tmp_path / "full.csv"
    absence_scan(t, b, radial_spec_k2, (0.05, 0.15), 6, nodes=32, csv_path=full_path)
    full = full_path.read_text().strip().split("\n")

    failed = threading.Event()
    first = _polar_grid(0.05, 0.15, 6)[8 * 2]  # the third chunk
    original_chunk, original_index = cv._grid_chunk, cv.contour_index
    certified = []

    def flaky(factory, lams, sign):
        if lams[0] == first:
            failed.set()
            raise RuntimeError("synthetic failure")
        return original_chunk(factory, lams, sign)

    def after_the_failure(*args, **kwargs):
        assert failed.wait(timeout=10)
        report = original_index(*args, **kwargs)
        certified.append(report.certified)
        return report

    monkeypatch.setattr(cv, "_grid_chunk", flaky)
    monkeypatch.setattr(cv, "contour_index", after_the_failure)
    csv_path = tmp_path / "partial.csv"
    with pytest.raises(RuntimeError, match="synthetic failure"):
        absence_scan(t, b, radial_spec_k2, (0.05, 0.15), 6, nodes=32, csv_path=csv_path)
    assert certified == [True] * 3  # the whole ladder ran, and certified
    assert csv_path.read_text().strip().split("\n") == full[:1 + 8 * 2]


def test_table_scan_beside_the_ladder_under_thread_switching(monkeypatch, tree_basis):
    # more workers than cores and a short switch interval: the grid, the
    # ladder and the lazy support-pair kernel share one factory
    import sys

    import spectree.birman_schwinger as bs
    import spectree.charval as cv

    t, b = tree_basis(2, 6)
    spec = sandwich_table_spec()
    monkeypatch.setattr(cv, "pool_size", lambda: 1)
    want = absence_scan(t, b, spec, (0.05, 0.15), 6, "plus", nodes=32)
    built = []
    original = bs.ResolventKernel

    def counting(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(bs, "ResolventKernel", counting)
    monkeypatch.setattr(cv, "pool_size", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = absence_scan(t, b, spec, (0.05, 0.15), 6, "plus", nodes=32)
    finally:
        sys.setswitchinterval(interval)
    assert len(built) == 1
    assert got.ladder == want.ladder
    assert got.grid_rows.tobytes() == want.grid_rows.tobytes()
    assert got.flagged == want.flagged
