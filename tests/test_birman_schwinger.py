"""Sandwiched operator, polar factors, desingularized coefficients.

Oracles: mpmath high-precision evaluation of the pole-free ratio, dense LU
sandwiches for the operator itself, and exact finite-matrix identities
(resolvent identity, edge-swap conjugation) that hold on any truncation.
"""
import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from spectree import (
    PotentialSpec,
    build_spherical_basis,
    build_tree,
    direct_resolvent_block,
    from_lambda,
    hol_split,
    m_tilde,
    polar_factors,
    t_plus,
    theta,
)
from spectree.birman_schwinger import (
    BSFactory,
    HOL_COMPANION_FACTOR,
    newborn_multiplicity,
    phase_ratio,
    support_vertices,
)
from spectree import charval, resolvent
from spectree.charval import ContourSpec, _family, contour_index
from spectree.errors import CapacityExceeded, OutOfDisk
from spectree.quadrature import cauchy_reconstruct

LOG2 = math.log(2.0)


def mp_phase_ratio(a, lam, dps=50):
    """Independent high-precision oracle for the desingularized ratio."""
    with mpmath.workdps(dps):
        lam = mpmath.mpc(lam)
        phi = 2 * mpmath.asin(lam / 2)
        val = (mpmath.exp(1j * a * phi) - 1) / (lam * mpmath.sqrt(4 - lam * lam))
        return complex(val)


# -- polar factors ---------------------------------------------------------


def test_polar_examples():
    j, s = polar_factors(np.array([-1.0 + 0j]))
    assert j[0] == -1.0 and s[0] == 1.0
    j, s = polar_factors(np.array([0.25j]))
    assert j[0] == pytest.approx(1j)
    j, s = polar_factors(np.array([0.0 + 0j]))
    assert j[0] == 1.0 and s[0] == 0.0


@settings(max_examples=40, deadline=None)
@given(
    re=st_.lists(
        st_.floats(-3, 3, allow_nan=False, allow_subnormal=False),
        min_size=1, max_size=8,
    ),
    im=st_.lists(
        st_.floats(-3, 3, allow_nan=False, allow_subnormal=False),
        min_size=1, max_size=8,
    ),
)
def test_polar_identity_property(re, im):
    n = min(len(re), len(im))
    m = np.array(re[:n]) + 1j * np.array(im[:n])
    j, s = polar_factors(m)
    assert np.abs(j * s * s - m).max() < 1e-12
    assert np.abs(np.abs(j) - 1.0).max() < 1e-12


def test_support_restriction():
    t = build_tree(2, 8)
    spec = PotentialSpec.radial_exp(0.3, 6 * LOG2)
    idx, r_support = support_vertices(t, m_tilde(t, spec))
    # |0.3 * 2^(-6r)| crosses 1e-14 between spheres 7 and 8
    assert r_support == 7
    assert idx.size == 2**8 - 1


# -- gamma/beta -------------------------------------------------------------


def gamma_beta(j, l, lam):
    """The pole-free pair ``(gamma, beta)`` of the level pair ``(j, l)``."""
    return phase_ratio(j + l + 2, lam), phase_ratio(abs(j - l), lam)


def test_gamma_beta_limit_at_zero():
    # closed form of the limit: i (|j-l| - (j+l+2)) / 2
    for j, l in ((0, 0), (1, 3), (2, 2), (0, 4)):
        gamma, beta = gamma_beta(j, l, 0.0)
        expected = 1j * (abs(j - l) - (j + l + 2)) / 2.0
        assert beta - gamma == pytest.approx(expected, abs=1e-14)
    gamma, beta = gamma_beta(0, 0, 0.0)
    assert beta - gamma == pytest.approx(-1j)


def test_beta_vanishes_on_diagonal():
    for lam in (0.0, 1e-4, 0.05 + 0.02j):
        assert gamma_beta(3, 3, lam)[1] == 0.0


@pytest.mark.parametrize("a", [1, 2, 7, 16, 42])
@pytest.mark.parametrize("lam", [1e-3, 1e-3 + 0j, 5e-4 - 2e-4j, 1e-5j, 0.0021, 1e-8, 1e-12j])
def test_phase_ratio_against_mpmath(a, lam):
    assert phase_ratio(a, lam) == pytest.approx(mp_phase_ratio(a, lam), abs=1e-13)


# -- the sandwiched operator --------------------------------------------------


def test_bare_root_sandwich():
    # zero potential leaves only the root defect: support {0}, phase -1,
    # so the 1x1 sandwich is minus the root resolvent entry
    t = build_tree(2, 6)
    b = build_spherical_basis(t)
    factory = BSFactory(t, b, None)
    assert np.array_equal(factory.support, [0])
    sp = from_lambda(2, 0.1j)
    assert factory.matrix(0.1j, +1)[0, 0] == pytest.approx(-sp.eiphi / math.sqrt(2), abs=1e-12)
    assert factory.j_phase[0] == -1.0


def test_physical_sheet_matches_dense_sandwich(tree_basis, radial_spec_k2):
    t, b = tree_basis(2, 8)
    factory = BSFactory(t, b, radial_spec_k2)
    for lam in (0.1j, 0.05 + 0.08j, -0.04 + 0.09j):
        tmat = factory.matrix(lam, +1)
        g = direct_resolvent_block(
            t, factory.point(lam).z, rows=factory.support, cols=factory.support
        )
        dense = factory.j_phase[:, None] * factory.sqrt_abs[:, None] * g * factory.sqrt_abs[None, :]
        assert np.abs(tmat - dense).max() < 1e-6


def test_scaling_in_the_perturbation():
    t = build_tree(2, 6)
    b = build_spherical_basis(t)
    spec1 = PotentialSpec.table([(0, -0.4), (2, 0.2j)], delta=6 * LOG2)
    spec3 = PotentialSpec.table([(0, -3 * 0.4 - 2.0), (2, 3 * 0.2j)], delta=6 * LOG2)
    # scale m_tilde (not the raw potential): m1 = (-1-0.4, 0.2j), 3*m1 = (-4.2, 0.6j)
    t1 = BSFactory(t, b, spec1).matrix(0.06j, +1)
    t3 = BSFactory(t, b, spec3).matrix(0.06j, +1)
    assert np.abs(t3 - 3.0 * t1).max() < 1e-12


def test_sign_flip_equals_negated_perturbation():
    # the sign field reuses the polar data; building the polar factors of the
    # negated perturbation from scratch must give the identical matrix
    t = build_tree(2, 6)
    b = build_spherical_basis(t)
    spec = PotentialSpec.table([(0, 0.5), (1, -0.25j)], delta=6 * LOG2)
    # m_tilde(neg) = -(-d0 + M) requires M_neg = 2*d0 - M
    neg = PotentialSpec.table([(0, 2.0 - 0.5), (1, 0.25j)], delta=6 * LOG2)
    assert np.abs(m_tilde(t, neg) + m_tilde(t, spec)).max() == 0.0
    lam = 0.07j
    flipped = BSFactory(t, b, spec).matrix(lam, -1)
    rebuilt = BSFactory(t, b, neg).matrix(lam, +1)
    assert np.abs(flipped - rebuilt).max() < 1e-13


def test_resolvent_identity_on_truncation(tree_basis, radial_spec_k2):
    # (I + J sqrt G sqrt)(I - J sqrt G_pert sqrt) = I exactly for the finite
    # truncated operator, independent of any closed form
    t, b = tree_basis(2, 6)
    spec = radial_spec_k2
    factory = BSFactory(t, b, spec)
    eye = np.eye(factory.support.size)
    for lam in (0.1j, 0.06 + 0.05j, 0.02 + 0.11j):
        z = factory.point(lam).z
        g_free = direct_resolvent_block(
            t, z, boundary="truncated", rows=factory.support, cols=factory.support
        )
        g_pert = direct_resolvent_block(
            t, z, spec=spec, boundary="truncated",
            rows=factory.support, cols=factory.support,
        )
        sand = factory.j_phase[:, None] * factory.sqrt_abs[:, None]
        left = eye + sand * g_free * factory.sqrt_abs[None, :]
        right = eye - sand * g_pert * factory.sqrt_abs[None, :]
        assert np.abs(left @ right - eye).max() < 1e-8


def test_edge_swap_reduction(tree_basis, radial_spec_k2):
    # the upper-edge sandwich, evaluated directly at z near the upper edge,
    # equals the parity-conjugated, sign-flipped lower-edge computation
    t, b = tree_basis(2, 8)
    spec = radial_spec_k2
    factory = BSFactory(t, b, spec)
    lam = 0.1j
    z_plus = t_plus(2) - lam * lam * math.sqrt(2.0)
    g_plus = direct_resolvent_block(
        t, z_plus, boundary="truncated", rows=factory.support, cols=factory.support
    )
    direct_plus = factory.j_phase[:, None] * factory.sqrt_abs[:, None] * g_plus * factory.sqrt_abs[None, :]
    z_minus = factory.point(lam).z
    g_minus = direct_resolvent_block(
        t, z_minus, boundary="truncated", rows=factory.support, cols=factory.support
    )
    lower = -(factory.j_phase[:, None] * factory.sqrt_abs[:, None] * g_minus * factory.sqrt_abs[None, :])
    th = theta(t)[factory.support]
    assert np.abs(direct_plus - th[:, None] * lower * th[None, :]).max() < 1e-10


def test_sheet_swap_symmetry(tree_basis, radial_spec_k2):
    t, b = tree_basis(2, 6)
    factory = BSFactory(t, b, radial_spec_k2)
    lam = 0.06 + 0.04j
    swapped = factory.j_phase[:, None] * factory.kernel.evaluate(factory.point(lam).sheet_swapped())
    negated = factory.matrix(-lam, +1)
    assert np.abs(swapped - negated).max() < 1e-12


def test_norm_bounded_through_origin(tree_basis, radial_spec_k2):
    t, b = tree_basis(2, 6)
    factory = BSFactory(t, b, radial_spec_k2)
    norms = [
        np.linalg.norm(factory.matrix(lam, +1), 2)
        for lam in (1e-1, 1e-2, 1e-3, 1e-4, 1e-1 * 1j, 1e-4 * 1j)
    ]
    assert max(norms) / min(norms) < 2.0


def test_hol_split_reconstruction(tree_basis, radial_spec_k2):
    t, b = tree_basis(2, 6)
    factory = BSFactory(t, b, radial_spec_k2)
    for lam in (1e-3, 0.01, 0.1j, 0.05 - 0.02j, 0.29):
        _, res = hol_split(t, b, radial_spec_k2, lam, factory=factory)
        assert res < 1e-8
    assert HOL_COMPANION_FACTOR == 2.0


def test_hol_at_zero_matches_gamma_beta_limit():
    t = build_tree(2, 3)
    b = build_spherical_basis(t)
    spec = PotentialSpec.radial_exp(0.5, 6 * LOG2)
    factory = BSFactory(t, b, spec)
    hol, res = hol_split(t, b, spec, 0.0, factory=factory)
    assert res == 0.0
    assert np.isfinite(hol).all()
    # manual assembly through gamma/beta on the 1x1 top block: the (root,root)
    # entry only sees n=0, j=l=0
    sqrt_abs = factory.sqrt_abs
    gamma, beta = gamma_beta(0, 0, 0.0)
    expected00 = (1j / (2 * math.sqrt(2))) * sqrt_abs[0] ** 2 * (beta - gamma)
    assert hol[0, 0] == pytest.approx(expected00, abs=1e-14)


def test_singular_parts_cancel_identity():
    # each bracket carries the same pole with opposite signs; the raw bracket
    # minus its pole equals i*(beta-gamma) exactly
    lam = 0.02 + 0.015j
    sp = from_lambda(2, lam)
    s = lam * cmath.sqrt(4 - lam * lam)
    for j, l in ((0, 0), (2, 5), (4, 1)):
        bracket = (
            1j * sp.eiphi ** abs(j - l) - 1j * sp.eiphi ** (j + l + 2)
        ) / sp.two_sin_phi
        gamma, beta = gamma_beta(j, l, lam)
        assert bracket == pytest.approx(1j * (beta - gamma) * s / sp.two_sin_phi, abs=1e-12)
        assert sp.two_sin_phi == pytest.approx(s, abs=1e-13)


def test_cauchy_reconstruction_of_sandwich(tree_basis, radial_spec_k2):
    t, b = tree_basis(2, 6)
    factory = BSFactory(t, b, radial_spec_k2)
    radius, nodes = 0.05, 64
    samples = np.array([
        factory.matrix(radius * cmath.exp(2j * math.pi * i / nodes), +1)
        for i in range(nodes)
    ])
    at = 0.01 + 0.01j
    recon = cauchy_reconstruct(samples, radius, at)
    assert np.abs(recon - factory.matrix(at, +1)).max() < 1e-7


def test_radial_reduction_matches_full(tree_basis, radial_spec_k2):
    # amplitude 1 cancels the root degree defect: the blocks drop the
    # weightless root level, as the support drops the root
    t, b = tree_basis(2, 6)
    lam = 0.07 - 0.05j
    for spec in (radial_spec_k2, PotentialSpec.radial_exp(1.0, 6 * LOG2)):
        factory = BSFactory(t, b, spec)
        for sign in (1, -1):
            full = factory.matrix(lam, sign)
            eig_full = np.sort_complex(np.linalg.eigvals(full))
            blocks = factory.reduced_blocks([lam], sign)
            eig_red = np.sort_complex(
                np.concatenate([np.repeat(np.linalg.eigvals(m[0]), d) for d, m in blocks])
            )
            assert eig_red.size == eig_full.size
            assert np.abs(eig_full - eig_red).max() < 1e-12


@pytest.mark.parametrize("derivative", [False, True])
def test_blocks_dispatch(tree_basis, radial_spec_k2, derivative):
    t, b = tree_basis(2, 6)
    lam = 0.07 - 0.05j

    radial = BSFactory(t, b, radial_spec_k2)
    got = radial.blocks([lam], -1, derivative=derivative)
    want = radial.reduced_blocks([lam], -1, derivative=derivative)
    assert [d for d, _ in got] == [d for d, _ in want]
    assert all(np.array_equal(g, w) for (_, g), (_, w) in zip(got, want))

    # amplitude 1 cancels the root degree defect: still reduced, and block 0
    # holds only the weighted levels 1..r_support
    cancelled = BSFactory(t, b, PotentialSpec.radial_exp(1.0, 6 * LOG2))
    assert cancelled.radial and 0 not in cancelled.support
    got = cancelled.blocks([lam], -1, derivative=derivative)
    want = cancelled.reduced_blocks([lam], -1, derivative=derivative)
    assert [d for d, _ in got] == [d for d, _ in want]
    assert all(np.array_equal(g, w) for (_, g), (_, w) in zip(got, want))
    assert got[0][1].shape[-1] == cancelled.r_support
    # k=2 depth 8: blocks on levels 1..7 hold 189 entries, the support 254**2
    deep = BSFactory(build_tree(2, 8), None, PotentialSpec.radial_exp(1.0, 6 * LOG2))
    assert sum(blk[0].size for _, blk in deep.blocks([0.1j])) == 189

    table = BSFactory(t, b, PotentialSpec.table([(0, 0.3 - 0.2j), (2, 0.1j)], 6 * LOG2))
    full = table.derivative if derivative else table.matrix
    (mult, blk), = table.blocks([lam], -1, derivative=derivative)
    assert mult == 1 and np.array_equal(blk[0], full(lam, -1))


@pytest.mark.parametrize("k, depths", [
    (1, (0, 1, 6, 12)), (2, (0, 1, 4, 8)), (3, (1, 3, 5)), (4, (2, 4)),
])
def test_block_multiplicities_match_basis_dims(k, depths):
    # the closed form BSFactory uses instead of building the spherical basis
    for depth in depths:
        t = build_tree(k, depth)
        dims = build_spherical_basis(t).dims
        assert [newborn_multiplicity(k, n) for n in range(depth + 1)] == dims.tolist()
        factory = BSFactory(t, None, PotentialSpec.radial_exp(0.3, max(1.6, 6 * math.log(k))))
        levels = range(factory.r_support + 1)
        assert [d for d, _ in factory.reduced_blocks([0.1j])] == [
            int(dims[n]) for n in levels if dims[n]
        ]


def _point_tables(sp_, size, derivative):
    """Edge table or its derivative at one point, by the plain per-point formulas."""
    lam, xi = sp_.lam, sp_.eiphi
    a = np.arange(size)
    scale = 1.0 / math.sqrt(sp_.k)
    if derivative:
        root = cmath.sqrt(4.0 - lam * lam)
        s = lam * root
        core = xi ** a * (1j * a * (2.0 / root) * s - (4.0 - 2.0 * lam * lam) / root) / (s * s)
        return 1j * scale * core
    s = -1j * (xi - 1.0 / xi)
    powers = xi ** a
    return 1j * scale * powers / s


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize("k, depth, spec", [
    pytest.param(2, 6, PotentialSpec.radial_exp(0.3 * (1 + 0.5j), 6 * LOG2), id="radial"),
    pytest.param(1, 14, PotentialSpec.radial_exp(0.25 * (1 - 0.3j), 2.0), id="radial k1"),
    pytest.param(2, 6, PotentialSpec.radial_exp(1.0, 6 * LOG2), id="amplitude-1"),
    pytest.param(2, 6, PotentialSpec.table([(0, 0.3 - 0.2j), (2, 0.1j)], 6 * LOG2),
                 id="table"),
])
def test_blocks_over_lambda_array(monkeypatch, tree_basis, k, depth, spec, derivative):
    # stacked tables equal the per-point tables, and stacked blocks equal
    # stacking the scalar calls, bit for bit
    t, b = tree_basis(k, depth)
    factory = BSFactory(t, b, spec)
    kernel = factory.kernel
    rng = np.random.default_rng(3)
    lams = 0.15 * np.sqrt(rng.random(9)) * np.exp(2j * np.pi * rng.random(9))
    points = [from_lambda(k, lam, eps0=factory.eps0) for lam in lams]
    size = 2 * factory.r_support + 3
    single = kernel.derivative_tables if derivative else kernel.exponent_tables
    per_point = [single(p) for p in points]

    def stacked(points):
        if derivative:
            return resolvent.block_table_derivative(k, [p.lam for p in points], size)
        return resolvent.block_table(k, np.array([p.eiphi for p in points]), size)

    for p, w in zip(points, per_point):
        assert np.array_equal(w, _point_tables(p, size, derivative))
    for sign in (1, -1):
        scalar = [factory.blocks([lam], sign, derivative=derivative) for lam in lams]
        for part in (slice(None), slice(0, 1), slice(2, 4)):
            assert np.array_equal(stacked(points[part]), np.array(per_point[part]))
            got = factory.blocks(lams[part], sign, derivative=derivative)
            want = scalar[part]
            assert [d for d, _ in got] == [d for d, _ in want[0]]
            for slot, (_, blk) in enumerate(got):
                assert blk.shape[0] == len(want)
                assert np.array_equal(blk, np.array([w[slot][1][0] for w in want]))

    # parameters of a stack outside the disk: the first one is named, before
    # any LAPACK call (the 16-node contour is one chunk; its node 0 is inside)
    outside = lams.copy()
    outside[[3, 6]] = (0.31 + 0.02j, 0.4j)
    contour = ContourSpec(0.16j, 0.15, nodes=16)
    entries = sum(blk[0].size for _, blk in factory.blocks(lams[:1]))
    monkeypatch.setattr(charval, "STACK_ENTRIES", 16 * entries)

    def first_error(points):
        for lam in points:
            try:
                from_lambda(k, lam, eps0=factory.eps0)
            except OutOfDisk as exc:
                return str(exc)

    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK called before the disk check")

    for name in ("solve", "svd", "eigvals"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    fval, fpval = _family(factory, 1)
    for evaluate, points in (
        (lambda: factory.blocks(outside, -1, derivative=derivative), outside),
        (lambda: (fpval if derivative else fval)(outside), outside),
        (lambda: contour_index(fval, fpval, contour), contour.points()),
    ):
        with pytest.raises(OutOfDisk) as exc:
            evaluate()
        assert str(exc.value) == first_error(points) != first_error(points[:1])


def test_derivative_matches_finite_differences(tree_basis, radial_spec_k2):
    t, b = tree_basis(2, 6)
    factory = BSFactory(t, b, radial_spec_k2)
    lam, h = 0.06 + 0.03j, 1e-6
    analytic = factory.derivative(lam, +1)
    fd = (factory.matrix(lam + h, +1) - factory.matrix(lam - h, +1)) / (2 * h)
    assert np.abs(analytic - fd).max() < 1e-8


def test_full_support_factory_over_budget_raises(monkeypatch, radial_spec_k2):
    # 10 exp(-6 ln 2 * 8) = 3.6e-14 clears the support cutoff on the deepest
    # sphere, so the support is all 511 vertices of the depth-8 tree; its
    # blocks are at most 9 x 9, and only a full support matrix needs the
    # 511 x 511 meet-depth codes
    monkeypatch.setattr(resolvent, "memory_budget", lambda: 10**6)
    t = build_tree(2, 8)
    assert BSFactory(t, None, radial_spec_k2).support.size < t.vertex_count
    radial = BSFactory(t, None, PotentialSpec.radial_exp(10.0, 6 * LOG2))
    assert radial.support.size == t.vertex_count
    assert max(blk.shape[-1] for _, blk in radial.blocks([0.05j])) == 9
    with pytest.raises(CapacityExceeded, match="511 x 511"):
        radial.matrix(0.05j)
    table = BSFactory(t, None, PotentialSpec.table([(v, 0.1) for v in range(511)], 6 * LOG2))
    with pytest.raises(CapacityExceeded, match="511 x 511"):
        table.blocks([0.05j])


def test_radial_scan_builds_no_pair_kernel(monkeypatch, radial_spec_k2):
    def refuse(*args, **kwargs):
        raise AssertionError("radial scan built a support-pair kernel")

    monkeypatch.setattr(resolvent.ResolventKernel, "__init__", refuse)
    t = build_tree(2, 8)
    report = charval.absence_scan(t, None, radial_spec_k2, (0.02, 0.16), 4, "minus", nodes=32)
    assert report.all_indices_zero and report.grid_rows.shape == (16, 4)
