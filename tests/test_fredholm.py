"""The pivot family of the tree's Fredholm determinant against the sandwich.

``prod pivots = det(I + T)`` is checked against the sandwich blocks of
:class:`BSFactory` in log form, so a large product cannot overflow; the
counts of both families are compared on contours around known zeros.
"""
import cmath
import math

import numpy as np
import pytest

from spectree import BSFactory, PotentialSpec, build_tree
from spectree.charval import ContourSpec, _family, _pivot_family, contour_index
from spectree.errors import OutOfDisk
from spectree.fredholm import FredholmPivots, algebraic_xi
from spectree.resolvent import edge_xi, t_minus

from helpers import reference_pass, sandwich_table_spec
from test_acceptance import SCAN_CORPUS

CORPUS = [pytest.param(k, spec, depth, id=name) for name, k, spec, depth in SCAN_CORPUS] + [
    pytest.param(2, sandwich_table_spec(seed), 10, id=f"sandwich-table seed {seed}")
    for seed in (0, 7)
]


def _lams(seed, count=8, radius=0.16):
    """``count`` seeded parameters, uniform on the disk of ``radius``."""
    rng = np.random.default_rng(seed)
    modulus = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    return modulus * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def _log_det(blocks):
    """``sum_n d_n log det(blk_n)`` at each parameter, by LU."""
    total = 0.0
    for d, blk in blocks:
        sign, logabs = np.linalg.slogdet(blk)
        total = total + d * (logabs + np.log(sign))
    return total


@pytest.mark.parametrize("threshold, sign", [("minus", 1), ("plus", -1)])
@pytest.mark.parametrize("k, spec, depth", CORPUS)
def test_pivot_product_and_trace_equal_the_sandwich(k, spec, depth, threshold, sign):
    factory = BSFactory(build_tree(k, depth), None, spec)
    lams = _lams(depth)
    values, derivatives = _pivot_family(factory, sign)(lams)
    fval, fpval = _family(factory, sign)
    # relative error of the product, modulo 2 pi i in the logarithm
    log_prod = sum(d * np.log(piv).sum(axis=1) for d, piv in values)
    rel = np.abs(np.expm1(log_prod - _log_det(fval(lams))))
    assert rel.max() < 1e-10
    # d/dlam log det: sum F'_ii / F_ii against Tr[(I + T)^{-1} T']
    want = sum(d * np.trace(np.linalg.solve(b, bp), axis1=-2, axis2=-1)
               for (d, b), (_, bp) in zip(fval(lams), fpval(lams)))
    got = sum(d * (dp / piv).sum(axis=1) for (d, piv), (_, dp) in zip(values, derivatives))
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("spec", [
    PotentialSpec.radial_exp(0.3 * (1 + 0.5j), 6 * math.log(2)),
    sandwich_table_spec(7),
], ids=["radial", "sandwich-table seed 7"])
def test_pivot_counts_keep_their_bits_at_every_chunk_length(monkeypatch, spec):
    import spectree.charval as cv

    factory = BSFactory(build_tree(2, 6), None, spec)
    contour = ContourSpec(0.05j, 0.1, 32)
    for sign in (1, -1):
        f = _pivot_family(factory, sign)
        split = (lambda lams: f(lams)[0]), (lambda lams: f(lams)[1])
        want = reference_pass(f, None, contour)
        n = sum(piv.shape[1] for _, piv in f([0.1])[0])
        for entries in (n, 7 * n, cv.STACK_ENTRIES):  # chunks of 1, 7 and all nodes
            monkeypatch.setattr(cv, "STACK_ENTRIES", entries)
            assert contour_index(f, None, contour) == contour_index(*split, contour) == want


#: a radial potential on the full ball to depth 4 of the ternary tree, 121 vertices
TERNARY_RADIAL = PotentialSpec.radial_exp(0.3 + 0.1j, 6 * math.log(3))


def _ternary_leaf_scaled():
    """:data:`TERNARY_RADIAL` as a table on the ball, its last leaf scaled by 1.5."""
    values = TERNARY_RADIAL.materialize(build_tree(3, 4))
    values[-1] *= 1.5
    return PotentialSpec.table(enumerate(values), TERNARY_RADIAL.delta)


def _separate_sweeps(pivots, lams, sign):
    """The pivot runs, and their derivatives from a second sweep that
    recomputes the pivots: the two evaluations one sweep now replaces."""
    lams = np.asarray(lams, dtype=complex)
    rk = math.sqrt(pivots.k)
    xi = algebraic_xi(lams)
    g = (xi / rk)[:, None]
    z = (t_minus(pivots.k) + rk * lams * lams)[:, None]
    dg = (1j * xi / np.sqrt(1.0 - 0.25 * lams * lams) / rk)[:, None]
    dz = (2.0 * rk * lams)[:, None]
    sweeps = []
    for derivative in (False, True):
        out = np.empty((lams.size, pivots.classes), dtype=complex)
        inv = q_inv2 = None
        for cols, m, free, kids, heads, groups in pivots._spheres:
            p = (pivots.k + 1.0 + sign * m) - z - free * g
            if groups.size:
                p[:, heads] -= np.add.reduceat(inv[:, kids], groups, axis=1)
            inv = 1.0 / p
            if derivative:
                q = -dz - free * dg
                if groups.size:
                    q[:, heads] += np.add.reduceat(q_inv2[:, kids], groups, axis=1)
                q_inv2 = q * inv * inv
                out[:, cols] = q * g + p * dg
            else:
                out[:, cols] = p * g
        sweeps.append([(d, np.ascontiguousarray(out[:, cols])) for d, cols in pivots.runs])
    return sweeps


@pytest.mark.parametrize("k, spec, depth", [
    pytest.param(k, spec, depth, id=name) for name, k, spec, depth in SCAN_CORPUS
] + [pytest.param(3, _ternary_leaf_scaled(), 4, id="ternary one leaf scaled")])
def test_pivot_stacks_are_c_contiguous(k, spec, depth):
    # the traces sum each stack's rows, and a column-major stack (a gather of
    # scattered columns) sums them in another order, moving the last bits;
    # the one sweep keeps the bits of two at every chunk length
    factory = BSFactory(build_tree(k, depth), None, spec)
    m = factory.j_phase * factory.sqrt_abs**2
    pivots = FredholmPivots(k, factory.support, m, factory.eps0)
    nodes = ContourSpec(0.01j, 0.1, 32).points()
    for sign in (1, -1):
        f = _pivot_family(factory, sign)
        want = _separate_sweeps(pivots, nodes, sign)
        for step in (1, 7, nodes.size):  # chunks of 1, 7 and all nodes
            for start in range(0, nodes.size, step):
                rows = slice(start, start + step)
                for fused, separate in zip(f(nodes[rows]), want, strict=True):
                    for (d, got), (e, ref) in zip(fused, separate, strict=True):
                        assert d == e and got.flags.c_contiguous
                        assert got.tobytes() == ref[rows].tobytes()


def test_radial_closure_keeps_one_pivot_class_per_sphere():
    t = build_tree(3, 4)
    factory = BSFactory(t, None, TERNARY_RADIAL)
    m = factory.j_phase * factory.sqrt_abs**2
    pivots = FredholmPivots(3, factory.support, m, factory.eps0)
    assert (pivots.size, pivots.classes) == (121, 5)
    # columns in sweep order, the deepest sphere first: the root is the last
    assert pivots.runs == [(3**r, slice(4 - r, 5 - r)) for r in range(5)]
    # the same values as a table, one leaf scaled: the leaf's path splits
    # off, one vertex per sphere, and the rest of each sphere stays one class
    table = BSFactory(t, None, _ternary_leaf_scaled())
    f = _pivot_family(table, 1)
    split = FredholmPivots(3, table.support, table.j_phase * table.sqrt_abs**2, table.eps0)
    assert (split.size, split.classes) == (121, 9)
    assert [d for d, _ in split.runs] == [1, 2, 8, 26, 80]
    lams = _lams(5)
    log_prod = sum(d * np.log(piv).sum(axis=1) for d, piv in f(lams)[0])
    rel = np.abs(np.expm1(log_prod - _log_det(_family(table, 1)[0](lams))))
    assert rel.max() < 1e-10


def test_closure_holds_the_support_and_its_ancestors():
    # vertices 9 and 4 of the binary tree: ancestors 4 -> 1 -> 0
    pivots = FredholmPivots(2, [4, 9], [0.1, 0.2j], 0.3)
    assert (pivots.size, pivots.classes) == (4, 4)
    assert pivots.runs == [(1, slice(0, 4))]
    # a lone root has no child in C: its pivot is (k + 1 + m - z - k g) g
    root = FredholmPivots(3, [0], [0.25], 0.3)
    lam = np.array([0.05 + 0.02j])
    g = algebraic_xi(lam)[0] / 3**0.5
    z = (4.0 - 2 * 3**0.5) + 3**0.5 * lam[0] ** 2
    assert root.pivots(lam, 1)[0][0, 0] == pytest.approx((4.0 + 0.25 - z - 3 * g) * g, rel=1e-14)


def test_parameters_are_checked_in_order_before_arithmetic():
    pivots = FredholmPivots(2, [0], [0.3], 0.3)
    with pytest.raises(OutOfDisk, match=r"\|lam\|=0\.4 "):
        pivots.pivots([0.1, 0.4, 0.0], 1)
    with pytest.raises(OutOfDisk, match=r"\|lam\|=0 "):
        pivots.pivots([0.0, 0.4], -1)


def test_algebraic_xi_equals_edge_xi():
    lams = np.concatenate([_lams(3, 400, 0.3), [1e-12, 0.29j, -0.29 - 0.001j]])
    want = np.array([edge_xi(complex(lam)) for lam in lams])
    assert np.abs(algebraic_xi(lams) - want).max() < 1e-15
    # real parameters lie on the band: |xi| = 1
    on_band = algebraic_xi(_lams(4, 50, 0.3).real)
    assert all(cmath.isclose(abs(x), 1.0, rel_tol=1e-15) for x in on_band)


@pytest.mark.parametrize("root, radius", [(-0.6, 0.16), (-0.3, 0.1)])
def test_root_tables_count_one_zero_on_both_routes(root, radius):
    # -0.3 has its zero on the second sheet (Im lam < 0)
    spec = PotentialSpec.table([(0, root)], 4.2)
    factory = BSFactory(build_tree(2, 10), None, spec)
    contour = ContourSpec(0.0, radius, 128)
    pivots = contour_index(_pivot_family(factory, 1), None, contour)
    sandwich = contour_index(*_family(factory, 1), contour)
    assert pivots.rounded == sandwich.rounded == 1
    assert pivots.certified and sandwich.certified
    # a 1 x 1 sandwich: its one pivot is det(I + T) itself
    assert pivots.min_sv_on_contour == pytest.approx(sandwich.min_sv_on_contour, rel=1e-12)
