"""Orthogonal sphere-wise decomposition of the truncated tree space.

The space over the vertex set splits into invariant blocks indexed by a
birth level ``n``: the block born at level ``n`` is spanned by an
orthonormal family on the sphere ``S_n`` (orthogonal to everything raised
from ``S_{n-1}``) together with all of its normalized raises to deeper
spheres.  Restricted to one block, the adjacency acts as a free Jacobi
matrix with off-diagonal ``sqrt(k)``, which is what makes a closed-form
resolvent possible.

Basis vectors are stored sphere-locally, one C-contiguous
``(|S_r|, |S_r|)`` array ``spheres[r]`` per sphere whose columns are the
orthonormal vectors supported on ``S_r``, block ``n`` taking columns
``starts[n]:starts[n + 1]`` with ``starts = cumsum([0, *dims])``.  The
families are column views of these arrays: ``lifted[n][j]`` is block ``n``
in ``spheres[n + j]``, of shape ``(|S_{n+j}|, dims[n])``, and ``chi[n]`` is
``lifted[n][0]``.  A zero-width block (every ``n >= 1`` at ``k = 1``) stores
no levels: ``lifted[n]`` is empty and ``chi[n]`` is a ``(|S_n|, 0)`` view.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRange
from .tree import TreeGraph


def helmert_complement(k: int) -> np.ndarray:
    """Orthonormal basis of the mean-zero subspace of R^k, as a (k, k-1) matrix.

    Column ``m`` is ``(1, ..., 1, -(m+1), 0, ..., 0) / sqrt((m+1)(m+2))`` with
    ``m + 1`` leading ones.  Exactly orthonormal and exactly orthogonal to the
    constant vector.
    """
    h = np.zeros((k, k - 1))
    for m in range(k - 1):
        h[: m + 1, m] = 1.0
        h[m + 1, m] = -(m + 1.0)
        h[:, m] /= np.sqrt((m + 1.0) * (m + 2.0))
    return h


@dataclass
class SphericalBasis:
    """Orthonormal bases of the invariant blocks of a truncated tree.

    Attributes
    ----------
    tree : TreeGraph
    dims : ndarray
        ``dims[n]`` is the dimension of the newborn space at level ``n``
        (``1`` at the root, ``k**(n-1) * (k-1)`` for ``n >= 1``).
    spheres : list of ndarray
        ``spheres[r]`` is the C-contiguous ``k**r x k**r`` array of all basis
        columns on ``S_r``, the blocks ``n = 0 ... r`` side by side in
        ascending order (block ``n`` is ``dims[n]`` columns wide).  The
        families below are column views of it, so the basis is stored once.
    chi : list of ndarray
        ``chi[n]`` holds the newborn orthonormal columns on ``S_n``, one view
        per block, ``(k**n, 0)`` for a zero-width block.
    lifted : list of list of ndarray
        ``lifted[n][j]`` holds the normalized ``j``-fold raises on ``S_{n+j}``,
        the view of block ``n`` in ``spheres[n + j]``; ``lifted[n][0] is chi[n]``.
        A zero-width block stores no levels: ``lifted[n] == []``.
    """

    tree: TreeGraph
    dims: np.ndarray
    spheres: list = field(repr=False)
    chi: list = field(repr=False)
    lifted: list = field(repr=False)

    def levels(self, n: int) -> int:
        """Number of stored lift levels for block ``n``: ``depth - n + 1``, or
        ``0`` for a zero-width block."""
        return len(self.lifted[n])

    def total_vectors(self) -> int:
        return int(sum(self.dims[n] * self.levels(n) for n in range(self.tree.depth + 1)))

    def global_vectors(self, n: int, j: int) -> np.ndarray:
        """The columns of ``lifted[n][j]`` embedded as full-length vectors."""
        t = self.tree
        out = np.zeros((t.vertex_count, self.dims[n]))
        s = t.sphere(n + j)
        out[s.start:s.stop, :] = self.lifted[n][j]
        return out


def build_spherical_basis(t: TreeGraph) -> SphericalBasis:
    """Construct the full decomposition of the depth-``R`` truncation.

    The newborn space at level ``n >= 1`` is the orthogonal complement, inside
    the sphere ``S_n``, of the raise of ``S_{n-1}``; since sibling groups have
    disjoint supports this complement is assembled exactly from per-family
    mean-zero blocks.  Raising is ``value -> value / sqrt(k)`` copied to the
    k children, which preserves norms by construction.  Every family is
    written in place into its columns of the sphere it lives on; a block of
    width 0 is neither written nor raised.
    """
    k, depth = t.k, t.depth
    inv_sqrt_k = 1.0 / np.sqrt(k)
    dims = np.array([1] + [k ** (n - 1) * (k - 1) for n in range(1, depth + 1)], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(dims)))
    spheres = [np.empty((k**r, k**r)) for r in range(depth + 1)]
    chi = [spheres[n][:, starts[n]:starts[n + 1]] for n in range(depth + 1)]
    lifted: list[list[np.ndarray]] = []
    for n in range(depth + 1):
        if not dims[n]:
            lifted.append([])
            continue
        block = slice(starts[n], starts[n + 1])
        cols = [chi[n]] + [spheres[r][:, block] for r in range(n + 1, depth + 1)]
        if n == 0:
            cols[0][...] = 1.0
        else:
            cols[0][...] = np.kron(np.eye(k ** (n - 1)), helmert_complement(k))
        # row i of a sphere is the parent of rows k i ... k i + k - 1 below it
        for prev, view in zip(cols, cols[1:]):
            children = view.reshape(prev.shape[0], k, view.shape[1])
            np.multiply(prev[:, None, :], inv_sqrt_k, out=children)
        lifted.append(cols)
    return SphericalBasis(tree=t, dims=dims, spheres=spheres, chi=chi, lifted=lifted)


def projector(b: SphericalBasis, n: int) -> np.ndarray:
    """Orthogonal projector onto the block born at level ``n`` (dense)."""
    t = b.tree
    if not 0 <= n <= t.depth:
        raise IndexOutOfRange(f"block index {n} outside 0..{t.depth}")
    p = np.zeros((t.vertex_count, t.vertex_count))
    for j in range(b.levels(n)):
        s = t.sphere(n + j)
        blk = b.lifted[n][j]
        p[s.start:s.stop, s.start:s.stop] += blk @ blk.T
    return p


def apply_adjacency_level(
    t: TreeGraph, arr: np.ndarray, r: int
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Apply the adjacency to columns supported on ``S_r``.

    Returns the components on ``S_{r-1}`` and ``S_{r+1}`` (``None`` when the
    sphere does not exist).  Works purely by index arithmetic: the breadth
    first layout makes each sibling family a contiguous row block.
    """
    k = t.k
    down = None
    up = None
    if r > 0:
        down = arr.reshape(t.sphere_size(r - 1), k, -1).sum(axis=1)
    if r < t.depth:
        up = np.repeat(arr, k, axis=0)
    return down, up


def verify_jacobi_form(b: SphericalBasis, t: TreeGraph, n: int) -> float:
    """Max deviation of the block-``n`` adjacency matrix from the free Jacobi form.

    In the lifted basis ordered by level the adjacency must be tridiagonal
    with off-diagonal ``sqrt(k)`` and vanishing diagonal, with matching
    column indices only.  Rows/columns at the truncation sphere are excluded
    from the reported deviation.
    """
    nlev = b.levels(n)
    # entries with |level difference| != 1 vanish structurally (disjoint
    # sphere supports), so only the two bands can deviate; a band counts when
    # both of its levels lie above the truncation level nlev - 1
    band = np.sqrt(t.k) * np.eye(int(b.dims[n]))
    # contiguous copies of the block's column views: BLAS sums a strided
    # column in another order, which would move the residual's last bits
    fam = [np.ascontiguousarray(a) for a in b.lifted[n]]
    worst = 0.0
    for j in range(nlev - 1):
        down, up = apply_adjacency_level(t, fam[j], n + j)
        if j >= 1:
            worst = max(worst, np.abs((fam[j - 1].T @ down).T - band).max())
        if j + 2 < nlev:
            worst = max(worst, np.abs((fam[j + 1].T @ up).T - band).max())
    return float(worst)
