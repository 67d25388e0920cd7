"""Orthogonal sphere-wise decomposition of the truncated tree space.

The space over the vertex set splits into invariant blocks indexed by a
birth level ``n``: the block born at level ``n`` is spanned by an
orthonormal family on the sphere ``S_n`` (orthogonal to everything raised
from ``S_{n-1}``) together with all of its normalized raises to deeper
spheres.  Restricted to one block, the adjacency acts as a free Jacobi
matrix with off-diagonal ``sqrt(k)``, which is what makes a closed-form
resolvent possible.

Basis vectors are stored sphere-locally: ``chi[n]`` has shape
``(|S_n|, dims[n])`` and ``lifted[n][j]`` has shape ``(|S_{n+j}|, dims[n])``
with columns forming the orthonormal vectors supported on ``S_{n+j}``.
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
    chi : list of ndarray
        ``chi[n]`` holds the newborn orthonormal columns on ``S_n``.
    lifted : list of list of ndarray
        ``lifted[n][j]`` holds the normalized ``j``-fold raises on ``S_{n+j}``;
        ``lifted[n][0] is chi[n]``.
    """

    tree: TreeGraph
    dims: np.ndarray
    chi: list = field(repr=False)
    lifted: list = field(repr=False)

    def levels(self, n: int) -> int:
        """Number of stored lift levels for block ``n`` (depth - n + 1)."""
        return self.tree.depth - n + 1

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
    k children, which preserves norms by construction.
    """
    k = t.k
    inv_sqrt_k = 1.0 / np.sqrt(k)
    chi: list[np.ndarray] = []
    lifted: list[list[np.ndarray]] = []
    for n in range(t.depth + 1):
        if n == 0:
            c = np.ones((1, 1))
        elif k == 1:
            c = np.zeros((1, 0))
        else:
            c = np.kron(np.eye(k ** (n - 1)), helmert_complement(k))
        chi.append(c)
        cols = [c]
        for _ in range(t.depth - n):
            cols.append(np.repeat(cols[-1], k, axis=0) * inv_sqrt_k)
        lifted.append(cols)
    dims = np.array([c.shape[1] for c in chi], dtype=np.int64)
    return SphericalBasis(tree=t, dims=dims, chi=chi, lifted=lifted)


def projector(b: SphericalBasis, n: int) -> np.ndarray:
    """Orthogonal projector onto the block born at level ``n`` (dense)."""
    t = b.tree
    if not 0 <= n <= t.depth:
        raise IndexOutOfRange(f"block index {n} outside 0..{t.depth}")
    p = np.zeros((t.vertex_count, t.vertex_count))
    if b.dims[n] == 0:
        return p
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
    if b.dims[n] == 0:
        return 0.0
    nlev = b.levels(n)
    # entries with |level difference| != 1 vanish structurally (disjoint
    # sphere supports), so only the two bands can deviate; a band counts when
    # both of its levels lie above the truncation level nlev - 1
    band = np.sqrt(t.k) * np.eye(int(b.dims[n]))
    worst = 0.0
    for j in range(nlev - 1):
        down, up = apply_adjacency_level(t, b.lifted[n][j], n + j)
        if j >= 1:
            worst = max(worst, np.abs((b.lifted[n][j - 1].T @ down).T - band).max())
        if j + 2 < nlev:
            worst = max(worst, np.abs((b.lifted[n][j + 1].T @ up).T - band).max())
    return float(worst)
