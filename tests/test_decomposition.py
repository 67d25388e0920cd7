"""Spherical decomposition: dimensions, orthonormality, block Jacobi form.

Two independent oracles: a Gram-Schmidt construction of the newborn spaces
(rank and span comparison) and circle quadrature for the Jacobi symbol.
"""
import dataclasses
import math

import numpy as np
import pytest

from helpers import stacked_spheres
from spectree import build_spherical_basis, build_tree, projector, verify_jacobi_form
from spectree.decomposition import apply_adjacency_level, helmert_complement
from spectree.operators import adjacency, raising
from spectree.quadrature import jacobi_symbol_quadrature


def gram_schmidt_complement_oracle(t, n):
    """Orthonormal basis of sphere n minus the raised image, by plain MGS."""
    k = t.k
    size = t.sphere_size(n)
    raised = np.zeros((size, t.sphere_size(n - 1)))
    up = raising(t)
    s_prev, s_cur = t.sphere(n - 1), t.sphere(n)
    raised = up[s_cur.start:s_cur.stop, s_prev.start:s_prev.stop] / math.sqrt(k)
    basis = []
    for i in range(size):
        v = np.zeros(size)
        v[i] = 1.0
        for _ in range(2):  # one reorthogonalization pass
            v -= raised @ (raised.T @ v)
            for u in basis:
                v -= u * (u @ v)
        if np.linalg.norm(v) > 1e-8:
            basis.append(v / np.linalg.norm(v))
    return np.array(basis).T


@pytest.mark.parametrize("k", [2, 3])
def test_newborn_dimensions(k):
    t = build_tree(k, 5)
    b = build_spherical_basis(t)
    assert b.dims[0] == 1
    assert b.dims[1] == k - 1
    for n in range(1, 6):
        assert b.dims[n] == k ** (n - 1) * (k - 1)


def test_k1_single_block():
    t = build_tree(1, 6)
    b = build_spherical_basis(t)
    assert b.dims[0] == 1 and np.all(b.dims[1:] == 0)
    assert b.total_vectors() == t.vertex_count


@pytest.mark.parametrize("k,n", [(2, 2), (2, 4), (3, 2)])
def test_newborn_space_matches_gram_schmidt_oracle(k, n):
    t = build_tree(k, n + 1)
    b = build_spherical_basis(t)
    oracle = gram_schmidt_complement_oracle(t, n)
    ours = b.chi[n]
    assert oracle.shape == ours.shape
    # same span: projectors agree
    assert np.abs(oracle @ oracle.T - ours @ ours.T).max() < 1e-10


def test_helmert_block_exact():
    for k in (2, 3, 5):
        h = helmert_complement(k)
        assert np.abs(h.T @ h - np.eye(k - 1)).max() < 1e-15
        assert np.abs(h.sum(axis=0)).max() < 1e-15


@pytest.mark.parametrize("k,depth", [(1, 7), (2, 6), (3, 4)])
def test_completeness_and_isometry(k, depth):
    t = build_tree(k, depth)
    b = build_spherical_basis(t)
    assert b.total_vectors() == t.vertex_count
    cols = [
        b.global_vectors(n, j)
        for n in range(depth + 1)
        if b.dims[n]
        for j in range(b.levels(n))
    ]
    full = np.hstack(cols)
    assert full.shape == (t.vertex_count, t.vertex_count)
    gram = full.T @ full
    assert np.abs(gram - np.eye(t.vertex_count)).max() < 1e-10
    # lifting preserves norms
    for n in range(depth + 1):
        if not b.dims[n]:
            continue
        norms0 = np.linalg.norm(b.chi[n], axis=0)
        for j in range(b.levels(n)):
            assert np.abs(np.linalg.norm(b.lifted[n][j], axis=0) - norms0).max() < 1e-12


@pytest.mark.parametrize("k,depth", [
    (1, 0), (1, 1), (1, 9), (2, 0), (2, 1), (2, 4), (2, 8), (3, 0), (3, 5),
    (4, 0), (4, 4), (5, 0), (5, 3),
])
def test_sphere_layout(k, depth):
    t = build_tree(k, depth)
    b = build_spherical_basis(t)
    assert b.total_vectors() == t.vertex_count
    assert len(b.spheres) == depth + 1
    ref = stacked_spheres(t)
    for r, ours in enumerate(b.spheres):
        assert ours.shape == (k**r, k**r) and ours.flags.c_contiguous
        assert ours.tobytes() == ref[r].tobytes()
    starts = np.concatenate(([0], np.cumsum(b.dims)))
    for n in range(depth + 1):
        assert b.chi[n].shape == (k**n, b.dims[n])
        if b.dims[n]:
            assert b.chi[n] is b.lifted[n][0]
            if n:
                # the newborn block is written through this reshape, so it
                # must be a view: a copy would lose the writes
                m = k ** (n - 1)
                assert np.shares_memory(b.chi[n].reshape(m, k, m, k - 1), b.spheres[n])
        else:  # every n >= 1 at k = 1: no levels are stored
            assert b.levels(n) == 0 and b.lifted[n] == []
        assert len(b.lifted[n]) == b.levels(n)
        for j, fam in enumerate(b.lifted[n]):
            assert fam.shape == (k ** (n + j), b.dims[n])
            assert np.array_equal(fam, ref[n + j][:, starts[n]:starts[n + 1]])
            if fam.size:
                assert np.shares_memory(fam, b.spheres[n + j])
    # the Jacobi check reads the column views with the bits of contiguous copies
    copies = dataclasses.replace(
        b, lifted=[[np.ascontiguousarray(a) for a in fam] for fam in b.lifted])
    for n in range(min(depth, 5)):
        assert verify_jacobi_form(b, t, n) == verify_jacobi_form(copies, t, n)


def test_path_basis_stores_only_the_root_block():
    # at k = 1 every block n >= 1 has width 0: the depth-600 path keeps the
    # root block's 601 levels and one empty chi view per other block
    import tracemalloc

    tracemalloc.start()
    try:
        b = build_spherical_basis(build_tree(1, 600))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert sum(len(f) for f in b.lifted) == 601
    assert b.total_vectors() == 601


def test_triangular_identity():
    t = build_tree(2, 8)
    b = build_spherical_basis(t)
    for r in range(9):
        assert sum(int(b.dims[n]) for n in range(r + 1)) == 2**r


def test_projectors():
    t = build_tree(2, 4)
    b = build_spherical_basis(t)
    eye = np.eye(t.vertex_count)
    total = np.zeros_like(eye)
    projs = [projector(b, n) for n in range(5)]
    for n, p in enumerate(projs):
        assert np.abs(p - p.T).max() < 1e-12
        assert np.abs(p @ p - p).max() < 1e-10
        expected_rank = int(b.dims[n]) * (4 - n + 1)
        assert round(np.trace(p)) == expected_rank
        total += p
    assert np.abs(total - eye).max() < 1e-10
    for n in range(5):
        for m in range(n + 1, 5):
            if b.dims[n] and b.dims[m]:
                assert np.abs(projs[n] @ projs[m]).max() < 1e-12


def test_projector_k1_is_identity():
    t = build_tree(1, 5)
    b = build_spherical_basis(t)
    assert np.abs(projector(b, 0) - np.eye(6)).max() < 1e-12


def test_projector_commutes_with_adjacency_interior():
    t = build_tree(2, 5)
    b = build_spherical_basis(t)
    a = adjacency(t)
    boundary = t.sphere(5)
    for n in range(4):
        p = projector(b, n)
        comm = p @ a - a @ p
        comm[boundary.start:boundary.stop, :] = 0.0
        comm[:, boundary.start:boundary.stop] = 0.0
        assert np.abs(comm).max() < 1e-10


@pytest.mark.parametrize("k,depth,n", [(2, 6, 1), (2, 6, 3), (3, 5, 2), (1, 6, 0)])
def test_jacobi_form_residual(k, depth, n):
    t = build_tree(k, depth)
    b = build_spherical_basis(t)
    assert verify_jacobi_form(b, t, n) <= 1e-10


def _dense_jacobi_deviation(b, t, n):
    """The block-``n`` Jacobi deviation from the full ``(levels * d)**2`` Gram
    of the adjacency against its expected form, truncation level dropped."""
    if b.dims[n] == 0:
        return 0.0
    nlev, d = b.levels(n), int(b.dims[n])
    # contiguous copies of the column views, as verify_jacobi_form reads them
    fam = [np.ascontiguousarray(a) for a in b.lifted[n]]
    gram = np.zeros((nlev, d, nlev, d))
    for j in range(nlev):
        down, up = apply_adjacency_level(t, fam[j], n + j)
        if j >= 1:
            gram[j, :, j - 1, :] = (fam[j - 1].T @ down).T
        if j + 1 < nlev and up is not None:
            gram[j, :, j + 1, :] = (fam[j + 1].T @ up).T
    expected = np.zeros_like(gram)
    for j in range(nlev - 1):
        expected[j, :, j + 1, :] = np.sqrt(t.k) * np.eye(d)
        expected[j + 1, :, j, :] = np.sqrt(t.k) * np.eye(d)
    dev = np.abs(gram - expected)
    if nlev > 1:
        dev = dev[: nlev - 1, :, : nlev - 1, :]
    return float(dev.max(initial=0.0))


@pytest.mark.parametrize("k,depth", [(1, 30), (2, 6), (2, 10), (3, 4), (4, 4)])
def test_jacobi_bands_equal_dense_deviation(k, depth):
    t = build_tree(k, depth)
    b = build_spherical_basis(t)
    for n in range(depth + 1):
        assert verify_jacobi_form(b, t, n) == _dense_jacobi_deviation(b, t, n)


def test_jacobi_symbol_quadrature_oracle():
    # the multiplication-operator form of the block adjacency: quadrature of
    # 2 sqrt(k) cos(t) against the sine basis reproduces the two off-diagonals
    for k in (1, 2, 3):
        for j in range(4):
            for l in range(4):
                got = jacobi_symbol_quadrature(k, j, l)
                expected = math.sqrt(k) if abs(j - l) == 1 else 0.0
                assert abs(got - expected) < 1e-10

