"""Truncated regular rooted k-ary trees with arithmetic vertex indexing.

Vertices are numbered breadth-first: the root is ``0`` and the children of
vertex ``v`` are ``k*v + 1, ..., k*v + k``.  The sphere ``S_r`` (all
vertices at distance ``r`` from the root) therefore occupies a contiguous
index range, and parent/child/depth queries reduce to index arithmetic --
no adjacency lists are stored.  Every layer reads the sphere of a vertex
from :func:`sphere_of` and a sphere's newborn block count from
:func:`newborn_multiplicity`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityExceeded, IndexOutOfRange, InvalidParameter, RootHasNoParent

#: most vertices :func:`build_tree` builds
VERTEX_CAP = 10_000_000


@dataclass(frozen=True)
class TreeGraph:
    """A depth-``R`` truncation of the regular rooted k-ary tree.

    Attributes
    ----------
    k : int
        Branching factor; every vertex of depth ``< depth`` has ``k`` children.
    depth : int
        Truncation radius ``R``; the deepest sphere is ``S_R``.
    vertex_count : int
        ``sum(k**r for r in range(depth + 1))``.
    sphere_offsets : ndarray
        ``sphere_offsets[r]`` is the first vertex index of ``S_r``; the array
        has one trailing entry equal to ``vertex_count``.
    """

    k: int
    depth: int
    vertex_count: int
    sphere_offsets: np.ndarray = field(repr=False)

    def sphere(self, r: int) -> range:
        """Index range of the sphere ``S_r``."""
        if not 0 <= r <= self.depth:
            raise IndexOutOfRange(f"sphere radius {r} outside 0..{self.depth}")
        return range(self.sphere_offsets[r], self.sphere_offsets[r + 1])

    def sphere_size(self, r: int) -> int:
        return len(self.sphere(r))

    def depths(self) -> np.ndarray:
        """Depth of every vertex, as a length-``vertex_count`` int array."""
        return sphere_of(self.k, np.arange(self.vertex_count, dtype=np.int64))


def sphere_of(k: int, v):
    """The radius ``r`` of the sphere holding vertex ``v`` on the untruncated
    tree (``v`` itself at ``k = 1``), for one int of any size or an int array."""
    if k == 1:
        return v
    offsets = [0]  # offsets[r] = (k**r - 1) / (k - 1), the first vertex of S_r
    top = int(np.max(v, initial=0))
    while offsets[-1] <= top:
        offsets.append(k * offsets[-1] + 1)
    if np.ndim(v) == 0:
        return len(offsets) - 2  # exact, where numpy would compare in floats
    return np.searchsorted(np.array(offsets), v, side="right") - 1


def newborn_multiplicity(k: int, n: int) -> int:
    """Number of spherical blocks born on sphere ``n`` of the k-ary tree.

    ``1`` at the root and ``k**(n-1) * (k-1)`` below it (``0`` for the path,
    ``k = 1``): the dimension of the functions on ``S_n`` orthogonal to
    those lifted from ``S_{n-1}``.
    """
    return 1 if n == 0 else k ** (n - 1) * (k - 1)


def check_branching_factor(k: int) -> None:
    """Raise :class:`InvalidParameter` unless ``k >= 1``."""
    if k < 1:
        raise InvalidParameter(f"branching factor must be >= 1, got {k}")


def build_tree(k: int, depth: int) -> TreeGraph:
    """Construct the depth-``depth`` truncation of the rooted k-ary tree.

    Raises
    ------
    InvalidParameter
        If ``k < 1`` or ``depth < 0``.
    CapacityExceeded
        If the vertex count would exceed :data:`VERTEX_CAP`.
    """
    check_branching_factor(k)
    if depth < 0:
        raise InvalidParameter(f"depth must be >= 0, got {depth}")
    # the deepest sphere alone has k**depth vertices: bound it before forming
    # any power, so a huge depth costs no big-integer arithmetic
    fits = depth < VERTEX_CAP and k ** min(depth, VERTEX_CAP.bit_length()) <= VERTEX_CAP
    sizes = [k**r for r in range(depth + 1)] if fits else []
    count = sum(sizes)
    if not fits or count > VERTEX_CAP:
        raise CapacityExceeded(f"k={k}, depth={depth} needs over {VERTEX_CAP} vertices (the cap)")
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    return TreeGraph(k=k, depth=depth, vertex_count=count, sphere_offsets=offsets)


def _check_vertex(t: TreeGraph, v: int) -> None:
    if not 0 <= v < t.vertex_count:
        raise IndexOutOfRange(f"vertex {v} outside 0..{t.vertex_count - 1}")


def vertex_depth(t: TreeGraph, v: int) -> int:
    """Distance from the root to vertex ``v`` (the radius of its sphere)."""
    _check_vertex(t, v)
    return int(sphere_of(t.k, v))


def parent(t: TreeGraph, v: int) -> int:
    """Parent of ``v``; the root has none."""
    _check_vertex(t, v)
    if v == 0:
        raise RootHasNoParent("vertex 0 is the root")
    return (v - 1) // t.k


def children(t: TreeGraph, v: int) -> range:
    """Children of ``v`` as an index range; empty on the deepest sphere."""
    _check_vertex(t, v)
    if vertex_depth(t, v) == t.depth:
        return range(0)
    return range(t.k * v + 1, t.k * v + t.k + 1)
