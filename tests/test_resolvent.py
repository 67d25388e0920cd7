"""Spectral coordinates, closed-form coefficients, and the kernel assembler.

Oracles, in order of independence: trapezoid quadrature on the circle for
every coefficient; the classical half-line resolvent formula for k = 1;
direct solves (boundary-closed, and plain-truncated-with-padding as a
cross-check on the closure itself) for the assembled kernel, and scipy's
sparse LU for the direct solve.
"""
import cmath
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from spectree import (
    build_tree,
    build_spherical_basis,
    direct_resolvent_block,
    fourier_coefficient,
    from_lambda,
    from_z,
    sine_projected_coefficient,
    t_minus,
    t_plus,
    weights,
    weighted_resolvent_kernel,
)
from spectree import PotentialSpec, resolvent
from spectree.errors import (
    BranchFailure,
    CapacityExceeded,
    OnSpectrum,
    OutOfDisk,
)
from spectree.operators import free_operator_sparse, m_tilde
from spectree.quadrature import (
    cauchy_reconstruct,
    fourier_quadrature,
    sine_projected_quadrature,
)
from spectree.resolvent import KERNEL_PREFACTOR, ResolventKernel

LOG2 = math.log(2.0)
U_GRID = [-2.0, -1.0, -0.25, 5.0, 4.5, 0.5 + 0.5j]


def z_from_u(k, u):
    return u * math.sqrt(k) - 2.0 * math.sqrt(k) + (k + 1.0)


# -- spectral points --------------------------------------------------------


@pytest.mark.parametrize("z", [-1e6, -1e10, 1e10j, 1e6 - 1e6j])
def test_from_z_decaying_root_far_from_band(z):
    # the root of xi**2 - 2 w xi + 1 inside the unit disk, at 50 digits
    k = 2
    with mpmath.workdps(50):
        w = 1 - (mpmath.mpc(z) + 2 * mpmath.sqrt(k) - (k + 1)) / (2 * mpmath.sqrt(k))
        root = mpmath.sqrt(w * w - 1)
        want = complex(min(w - root, w + root, key=abs))
    assert abs(from_z(k, z).eiphi - want) <= 1e-15 * abs(want)


def test_from_z_examples():
    sp = from_z(1, -1.0)
    assert sp.u == pytest.approx(-1.0)
    assert sp.two_sin_phi == pytest.approx(1j * math.sqrt(5.0), abs=1e-12)

    sp2 = from_z(2, t_minus(2) - 0.5)
    assert sp2.u == pytest.approx(-0.5 / math.sqrt(2.0), abs=1e-14)

    sp3 = from_z(2, 3.0 + 0.1j)
    assert sp3.phi.imag > 0.0


def test_from_z_on_spectrum_rejected():
    with pytest.raises(OnSpectrum):
        from_z(2, 3.0)
    with pytest.raises(OnSpectrum):
        from_z(1, 0.5 + 1e-13j)
    from_z(1, -1e-6)  # just below the lower edge is fine


@pytest.mark.parametrize("k", [1, 2, 3])
def test_branch_coherence(k):
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = complex(rng.uniform(-6, 10), rng.uniform(-2, 2))
        try:
            sp = from_z(k, z)
        except OnSpectrum:
            continue
        assert abs(sp.eiphi) < 1.0
        assert sp.phi.imag > 0.0
        # the committed coordinates satisfy both changes of variables
        assert sp.u == pytest.approx((z + 2 * math.sqrt(k) - (k + 1)) / math.sqrt(k))
        assert 2.0 - 2.0 * (sp.eiphi + 1 / sp.eiphi) / 2.0 == pytest.approx(sp.u)


def test_from_lambda_minus():
    sp = from_lambda(2, 0.1j)
    assert sp.z == pytest.approx(t_minus(2) - 0.01 * math.sqrt(2.0))
    assert sp.u == pytest.approx((0.1j) ** 2)
    assert abs(sp.eiphi) < 1.0  # upper half-plane is the physical side
    # the embedded ray continues through the band boundary values
    sp_real = from_lambda(2, 0.1)
    assert sp_real.z == pytest.approx(t_minus(2) + 0.01 * math.sqrt(2.0))
    assert abs(abs(sp_real.eiphi) - 1.0) < 1e-12


def test_from_lambda_plus_folds_to_minus():
    lam = 0.07 + 0.02j
    sp = from_lambda(2, lam)
    z_plus = t_plus(2) - lam * lam * math.sqrt(2.0)
    assert sp.z == pytest.approx(2 * (2 + 1) - z_plus)


def test_from_lambda_disk_guard():
    with pytest.raises(OutOfDisk):
        from_lambda(2, 0.5)
    with pytest.raises(OutOfDisk):
        from_lambda(2, 0.0)
    from_lambda(2, 0.5, eps0=0.6)  # explicit override widens the disk


def test_lambda_map_continuity():
    lams = 0.2 * np.exp(1j * np.linspace(0, 2 * np.pi, 81))
    pts = [from_lambda(2, l) for l in lams]
    vals = np.array([p.eiphi for p in pts])
    assert np.abs(np.diff(vals)).max() < 0.05


# -- closed-form coefficients ------------------------------------------------


def test_fourier_examples_frozen():
    sp = from_z(1, z_from_u(1, -1.0))
    # quadrature oracle: integral of 1/(3 - 2 cos t) over the circle
    assert fourier_coefficient(0, sp) == pytest.approx(1 / math.sqrt(5), abs=1e-12)
    xi = (3.0 - math.sqrt(5.0)) / 2.0
    assert sp.eiphi == pytest.approx(xi, abs=1e-12)
    assert fourier_coefficient(1, sp) == pytest.approx(0.17082039324993692, abs=1e-12)


def test_fourier_ratio_decay():
    sp = from_z(1, z_from_u(1, -1.0))
    for n in range(5):
        ratio = fourier_coefficient(n + 1, sp) / fourier_coefficient(n, sp)
        assert ratio == pytest.approx(sp.eiphi, abs=1e-12)
        assert abs(ratio) < 1.0


@pytest.mark.parametrize("u", U_GRID)
def test_fourier_matches_quadrature(u):
    sp = from_z(1, z_from_u(1, u))
    for n in range(13):
        assert abs(fourier_coefficient(n, sp) - fourier_quadrature(u, n)) < 1e-10


def test_sine_projected_symmetries():
    sp = from_z(2, z_from_u(2, -1.0))
    assert sine_projected_coefficient(0, 2, sp) == pytest.approx(
        sine_projected_coefficient(2, 0, sp), abs=1e-14
    )
    # depends only on |j - l| and j + l + 2
    direct = sine_projected_coefficient(1, 3, sp)
    via_fourier = (
        fourier_coefficient(2, sp) - fourier_coefficient(6, sp)
    ) / math.sqrt(2.0)
    assert direct == pytest.approx(via_fourier, abs=1e-14)


def test_prefactor_calibration():
    """The quadrature oracle pins the bracket scalar uniquely.

    The calibrated per-bracket constant 1 (i.e. 1/sqrt(k) on the assembled
    kernel) must pass at 1e-10; the unitary-DFT-normalization variant
    0.5*sqrt(2/pi) (a factor sqrt(2*pi) smaller) must fail by a wide margin.
    """
    rejected = 0.5 * math.sqrt(2.0 / math.pi)
    worst = 0.0
    for k in (1, 2):
        for u in U_GRID:
            z = z_from_u(k, u)
            sp = from_z(k, z)
            for j in range(5):
                for l in range(5):
                    oracle = sine_projected_quadrature(k, z, j, l, nodes=4096)
                    closed = sine_projected_coefficient(j, l, sp)
                    worst = max(worst, abs(closed - oracle))
                    if abs(oracle) > 1e-3:
                        assert abs(closed / oracle - 1.0) < 1e-10
                        assert abs(closed / oracle - rejected) > 0.5
    assert KERNEL_PREFACTOR == 1.0
    assert worst < 1e-10
    print(
        "\ncalibration: per-bracket constant 1 (assembled 1/sqrt(k)) PASSED; "
        f"normalization variant {rejected:.6f} REJECTED (worst closed-vs-quadrature "
        f"deviation {worst:.2e})"
    )


# -- assembled kernel ---------------------------------------------------------


@pytest.mark.parametrize("k,depth", [(1, 8), (2, 6), (3, 6)])
def test_kernel_matches_direct_solve(k, depth):
    t = build_tree(k, depth)
    b = build_spherical_basis(t)
    e_m, _ = weights(t, max(1.0, 6 * math.log(k)))
    tm = t_minus(k)
    for z in (tm - 0.5, tm - 1.0, tm - 2.0, tm - 0.5 + 0.1j, tm - 0.25 - 0.1j):
        sp = from_z(k, z)
        kern = weighted_resolvent_kernel(t, b, e_m, e_m, sp).entries
        oracle = e_m[:, None] * direct_resolvent_block(t, z) * e_m[None, :]
        rel = np.linalg.norm(kern - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-6


def test_boundary_closure_agrees_with_padded_truncation():
    # validates the subtree closure itself against plain truncated solves
    t = build_tree(2, 6)
    z = t_minus(2) - 2.0
    closed = direct_resolvent_block(t, z)
    # breadth-first numbering puts the depth-6 tree first in the deeper one
    small = np.arange(t.vertex_count)
    padded = direct_resolvent_block(
        build_tree(2, t.depth + 10), z, boundary="truncated", rows=small, cols=small
    )
    assert np.abs(closed - padded).max() < 1e-8


def test_k1_classical_half_line_form():
    t = build_tree(1, 10)
    b = build_spherical_basis(t)
    sp = from_z(1, -0.5)
    kern = weighted_resolvent_kernel(t, b, None, None, sp).entries
    xi = sp.eiphi
    m, n = np.meshgrid(np.arange(11), np.arange(11), indexing="ij")
    classical = (xi ** np.abs(m - n) - xi ** (m + n + 2)) / (1 / xi - xi)
    assert np.abs(kern - classical).max() < 1e-12


def test_far_z_neumann_leading_term():
    t = build_tree(2, 4)
    b = build_spherical_basis(t)
    z = -10.0
    sp = from_z(2, z)
    kern = weighted_resolvent_kernel(t, b, None, None, sp).entries
    lead = -1.0 / (z - 3.0)
    dist = abs(z - 3.0)
    assert np.abs(np.diag(kern) - lead).max() < 3.0 * math.sqrt(2) / dist**2
    off = kern - np.diag(np.diag(kern))
    assert np.abs(off).max() < 3.0 * math.sqrt(2) / dist**2


def test_kernel_complex_symmetric_at_real_z():
    t = build_tree(2, 5)
    b = build_spherical_basis(t)
    e_m, _ = weights(t, 6 * LOG2)
    kern = weighted_resolvent_kernel(t, b, e_m, e_m, from_z(2, t_minus(2) - 0.4)).entries
    assert np.abs(kern - kern.T).max() < 1e-8


def test_kernel_holomorphic_in_lambda():
    t = build_tree(2, 5)
    e_m, _ = weights(t, 6 * LOG2)
    assembler = ResolventKernel(t, e_m, e_m)
    radius, nodes = 0.05, 64
    samples = np.array([
        assembler.evaluate(from_lambda(2, radius * cmath.exp(2j * math.pi * i / nodes)))
        for i in range(nodes)
    ])
    for at in (0.01 + 0.01j, -0.02 + 0.005j, 0.015 - 0.02j):
        recon = cauchy_reconstruct(samples, radius, at)
        direct = assembler.evaluate(from_lambda(2, at))
        assert np.abs(recon - direct).max() < 1e-8


def test_sheet_swap_matches_negated_lambda():
    t = build_tree(2, 5)
    e_m, _ = weights(t, 6 * LOG2)
    assembler = ResolventKernel(t, e_m, e_m)
    lam = 0.08 + 0.03j
    swapped = assembler.evaluate(from_lambda(2, lam).sheet_swapped())
    negated = assembler.evaluate(from_lambda(2, -lam))
    assert np.abs(swapped - negated).max() < 1e-12


@pytest.mark.parametrize("k,depth", [(1, 9), (2, 6), (4, 3)])
def test_kernel_on_rectangular_subsets(k, depth):
    # rows and cols are unsorted, non-contiguous and of different sizes; the
    # weights are complex so that the conjugation of the column weight shows
    t = build_tree(k, depth)
    e_m, _ = weights(t, max(1.0, 6 * math.log(k)))
    a_w = e_m * np.exp(0.4j * np.arange(t.vertex_count))
    rng = np.random.default_rng(k)
    rows = rng.choice(t.vertex_count, size=min(23, t.vertex_count - 1), replace=False)
    cols = rng.choice(t.vertex_count, size=7, replace=False)
    assembler = ResolventKernel(t, a_w, a_w, rows=rows, cols=cols)
    for z in (t_minus(k) - 0.5, t_minus(k) - 0.25 + 0.1j):
        kern = assembler.evaluate(from_z(k, z))
        block = direct_resolvent_block(t, z, rows=rows, cols=cols)
        oracle = a_w[rows][:, None] * block * np.conj(a_w[cols])[None, :]
        assert kern.shape == (rows.size, cols.size)
        assert np.abs(kern - oracle).max() < 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("k,depth,rows", [
    (2, 6, None),
    (3, 4, np.array([0, 5, 2, 17, 39])),
    (1, 12, None),
    (2, 5, np.array([0])),
])
def test_assemble_stacked_tables_bit_for_bit(k, depth, rows):
    t = build_tree(k, depth)
    e_m, _ = weights(t, max(1.0, 6 * math.log(k)))
    assembler = ResolventKernel(t, e_m, e_m, rows=rows, cols=rows)
    lams = 0.12 * np.exp(2j * np.pi * np.arange(7) / 7 + 0.3j)
    points = [from_lambda(k, lam) for lam in lams]
    values = np.array([assembler.evaluate(p) for p in points])
    derivatives = np.array([
        assembler.assemble(w[None])[0] for w in map(assembler.derivative_tables, points)
    ])
    for tables, single in (
        (assembler.exponent_tables, values),
        (assembler.derivative_tables, derivatives),
    ):
        w = np.array([tables(p) for p in points])
        for part in (slice(None), slice(3, 4), slice(1, 3)):
            assert np.array_equal(assembler.assemble(w[part]), single[part])


@pytest.mark.parametrize("k,depth", [(1, 12), (2, 6), (3, 4)])
def test_first_vertex_columns_cover_every_depth_triple(k, depth):
    # the kernel check compares one column per sphere; every (|x|, |y|, |x∧y|)
    # label of the full kernel must occur in those columns
    t = build_tree(k, depth)
    code = ResolventKernel(t)._code
    seen = np.unique(code[:, t.sphere_offsets[:depth + 1]])
    assert np.array_equal(seen, np.unique(code))


def test_k1_coefficient_map_has_one_row():
    # on a path only term n = 0 of the map is nonzero; the full map of
    # depth 200 took 258 MiB when it kept all 201 rows
    t = build_tree(1, 200)
    tracemalloc.start()
    try:
        kernel = ResolventKernel(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel._coef.shape == kernel._sum_idx.shape == (1, t.vertex_count**2)
    assert peak < 16 * 2**20


# -- direct solve ----------------------------------------------------------------


def _splu_block(t, z, spec, boundary):
    """The full resolvent block by scipy's sparse LU (``splu``), the route the
    leaves-first elimination replaced."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    diag = np.full(t.vertex_count, -z, dtype=complex)
    if spec is not None:
        diag += m_tilde(t, spec)
    if boundary == "exact":
        s = t.sphere(t.depth)
        diag[s.start:s.stop] -= t.k * resolvent.subtree_green(t.k, z)
    h = (free_operator_sparse(t).astype(complex) + sp.diags(diag)).tocsc()
    return spla.splu(h).solve(np.eye(t.vertex_count, dtype=complex))


def _solve_cases():
    """(k, depth, potential, z) over free, radial and table potentials and z
    below the band, above it, complex inside it, far out and far up."""
    for k, depth in [(1, 12), (2, 6), (3, 4), (4, 3)]:
        delta = max(1.6, 6 * math.log(k))
        specs = {
            "free": None,
            "radial": PotentialSpec.radial_exp(0.3 + 0.15j, delta),
            "table": PotentialSpec.table([(0, 0.3 - 0.2j), (1, 0.1), (2, -0.15j), (4, 0.05)], delta),
        }
        zs = (t_minus(k) - 0.5, t_plus(k) + 0.7, k + 1.0 + 2.0j, -1e10, 1e8j)
        for name, spec in specs.items():
            for z in zs:
                yield pytest.param(k, depth, spec, z, id=f"k{k}-{name}-{z:.3g}")


@pytest.mark.parametrize("boundary", ["exact", "truncated"])
@pytest.mark.parametrize("k,depth,spec,z", list(_solve_cases()))
def test_elimination_agrees_with_sparse_lu(k, depth, spec, z, boundary):
    t = build_tree(k, depth)
    got = direct_resolvent_block(t, z, spec=spec, boundary=boundary)
    ref = _splu_block(t, z, spec, boundary)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_free_exact_pivots_are_subtree_green_inverses(k):
    # with the exact closure every vertex roots a copy of the infinite
    # subtree, so every pivot is 1 / subtree_green
    t = build_tree(k, 7 if k > 1 else 40)
    for z in (t_minus(k) - 0.5, t_plus(k) + 0.3, k + 1.0 + 2.0j):
        g = resolvent.subtree_green(k, z)
        inv = resolvent._inverse_pivots(t, z, None, "exact")
        assert np.abs(1.0 / inv - 1.0 / g).max() <= 1e-15 * abs(1.0 / g)


@pytest.mark.parametrize("k,z", [(2, 3 + 0.5j), (1, 2 + 0.3j), (4, 5 + 1j)])
def test_subtree_green_stops_in_a_rounding_cycle(k, z):
    # here the iterates cycle with steps of 1e-16 to 6e-16, never below
    # SUBTREE_TOL; the closed form's decaying root is exp(i phi) / sqrt(k)
    exact = from_z(k, z).eiphi / math.sqrt(k)
    assert abs(resolvent.subtree_green(k, z) - exact) <= 1e-15 * abs(exact)


def test_zero_pivot_raises_on_spectrum_without_warning():
    # the leaf of a 3-vertex path has pivot 2 + 0.5 - 2.5 = 0 at z = -0.5,
    # though the whole 3 x 3 operator is invertible there
    t = build_tree(1, 2)
    spec = PotentialSpec.table([(2, -2.5)], 1.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OnSpectrum, match="z=-0.5.*vertex 2"):
            direct_resolvent_block(t, -0.5, spec=spec, boundary="truncated")


@pytest.mark.parametrize("with_spec", [False, True], ids=["free", "radial"])
@pytest.mark.parametrize("subset", [False, True], ids=["full", "unsorted subset"])
def test_direct_solve_chunks_equal_one_shot_solve(with_spec, subset, monkeypatch):
    # V = 1023: the columns fall in four 256-column chunks; the reference
    # solves every column in one chunk
    t = build_tree(2, 9)
    spec = PotentialSpec.radial_exp(0.3 + 0.15j, 6 * math.log(2)) if with_spec else None
    z = t_minus(2) - 0.5
    rng = np.random.default_rng(3)
    rows = rng.permutation(t.vertex_count)[:300] if subset else None
    cols = rng.permutation(t.vertex_count)[:700] if subset else None
    got = direct_resolvent_block(t, z, spec=spec, rows=rows, cols=cols)
    monkeypatch.setattr(resolvent, "SOLVE_CHUNK", t.vertex_count)
    assert np.array_equal(got, direct_resolvent_block(t, z, spec=spec, rows=rows, cols=cols))


@pytest.mark.parametrize("k,depth", [(1, 30), (4, 4)])
def test_one_column_chunks_equal_one_shot_solve(k, depth, monkeypatch):
    # numpy rounds a lone column differently from one among many in a sum
    # over 4 or more children and in a one-element in-place product
    t = build_tree(k, depth)
    z = t_minus(k) - 0.5 + 0.2j
    whole = direct_resolvent_block(t, z)
    monkeypatch.setattr(resolvent, "SOLVE_CHUNK", 1)
    assert np.array_equal(direct_resolvent_block(t, z), whole)


@pytest.mark.parametrize("k,depth,cols", [
    (2, 9, None), (2, 11, "spheres"), (3, 6, "spheres"), (4, 5, "spheres"),
    (1, 600, "spheres"), (2, 9, "300"),
])
def test_direct_solve_peak_within_its_budget_check(k, depth, cols):
    # the check counts the rows x cols block plus three chunk-sized arrays
    t = build_tree(k, depth)
    n = t.vertex_count
    cols = {None: None, "spheres": t.sphere_offsets[:depth + 1], "300": np.arange(300)}[cols]
    width = n if cols is None else cols.size
    counted = np.dtype(complex).itemsize * (n * width + 3 * n * min(resolvent.SOLVE_CHUNK, width))
    tracemalloc.start()
    try:
        direct_resolvent_block(t, t_minus(k) - 0.5, cols=cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= counted


@pytest.mark.parametrize("k,depth", [(2, 10), (1, 300), (3, 7)])
@pytest.mark.parametrize("kind", ["radial", "table"])
def test_direct_solve_with_a_potential_peak_within_its_budget_check(monkeypatch, k, depth, kind):
    # one row and one column: the per-vertex arrays, m_tilde's temporaries
    # among them, outweigh the columns
    t = build_tree(k, depth)
    delta = max(1.6, 6 * math.log(k))
    spec = (PotentialSpec.radial_exp(0.3 + 0.15j, delta) if kind == "radial"
            else PotentialSpec.table([(0, 0.3 - 0.2j), (2, -0.15j)], delta))
    counted = []
    check = resolvent._check_budget

    def recorded(nbytes, what):
        counted.append(nbytes)
        check(nbytes, what)

    monkeypatch.setattr(resolvent, "_check_budget", recorded)
    one = np.array([0])
    tracemalloc.start()
    try:
        direct_resolvent_block(t, t_minus(k) - 0.5, spec=spec, rows=one, cols=one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counted) == 1
    assert peak <= counted[0]


def test_direct_solve_peak_under_one_and_a_half_blocks():
    t = build_tree(2, 10)
    block = np.dtype(complex).itemsize * t.vertex_count**2
    tracemalloc.start()
    try:
        out = direct_resolvent_block(t, t_minus(2) - 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (t.vertex_count, t.vertex_count)
    assert peak < 1.5 * block


# -- memory budget ---------------------------------------------------------------


def test_memory_budget_falls_back_without_meminfo(monkeypatch):
    assert resolvent.memory_budget() > 0

    def unreadable(*args, **kwargs):
        raise OSError("unreadable")

    monkeypatch.setattr(resolvent, "open", unreadable, raising=False)
    assert resolvent.memory_budget() == resolvent.FALLBACK_MEMORY_BUDGET


def test_budget_stops_full_kernel_and_solve_before_allocating(monkeypatch):
    # k=2 depth 8: the full 511 x 511 codes need about 1.3 MB, the 9 sphere
    # columns well under the budget of 1 MB
    monkeypatch.setattr(resolvent, "memory_budget", lambda: 10**6)
    t = build_tree(2, 8)
    cols = t.sphere_offsets[:t.depth + 1]
    z = t_minus(2) - 0.5
    ResolventKernel(t, cols=cols).evaluate(from_z(2, z))
    direct_resolvent_block(t, z, cols=cols)
    with pytest.raises(CapacityExceeded, match="memory budget"):
        ResolventKernel(t)
    with pytest.raises(CapacityExceeded, match="memory budget"):
        direct_resolvent_block(t, z)


def test_budget_stops_kernel_assembly_before_allocating(monkeypatch):
    # k=2 depth 8, 511 x 9 pairs: the complex output and its accumulators
    # take over 73 kB, past a 50 kB budget set once the kernel is prepared
    t = build_tree(2, 8)
    kernel = ResolventKernel(t, cols=t.sphere_offsets[:t.depth + 1])
    monkeypatch.setattr(resolvent, "memory_budget", lambda: 50_000)
    with pytest.raises(CapacityExceeded, match="511 x 9 need"):
        kernel.evaluate(from_z(2, t_minus(2) - 0.5))


def test_budget_stops_coefficient_map_before_allocating(monkeypatch):
    # k=1 depth 200, 201 x 201 pairs: the codes take 364 kB and pass a 500 kB
    # budget; the map has one key per pair, and it and its key arrays take
    # about 4.6 MB
    monkeypatch.setattr(resolvent, "memory_budget", lambda: 500_000)
    with pytest.raises(CapacityExceeded, match="coefficient map of 40401 depth triples need"):
        ResolventKernel(build_tree(1, 200))


def test_k1_kernel_budget_checks_cover_the_measured_peaks(monkeypatch):
    # at k=1 every pair has its own key, so the key arrays and temporaries
    # beside the map and the accumulators (about 110 and 65 bytes per pair)
    # dominate; a budget just under either measured peak refuses that step
    t = build_tree(1, 200)
    sp_ = from_z(1, t_minus(1) - 0.5)
    ResolventKernel(build_tree(1, 3)).evaluate(from_z(1, t_minus(1) - 0.5))
    tracemalloc.start()
    try:
        kernel = ResolventKernel(t)
        prepared = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        kernel.evaluate(sp_)
        assembled = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(resolvent, "memory_budget", lambda: prepared - 1)
    with pytest.raises(CapacityExceeded, match="coefficient map"):
        ResolventKernel(t)
    monkeypatch.setattr(resolvent, "memory_budget", lambda: assembled - 1)
    with pytest.raises(CapacityExceeded, match="kernel entries"):
        kernel.evaluate(sp_)


def test_branch_failure_at_degenerate_point():
    from spectree.resolvent import SpectralPoint

    degenerate = SpectralPoint(k=2, z=0.0, u=0.0, eiphi=1.0 + 0j)
    with pytest.raises(BranchFailure):
        fourier_coefficient(0, degenerate)
