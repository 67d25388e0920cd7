"""The tree's Fredholm determinant on the support's ancestor closure.

Let ``C`` be the support of ``m`` together with all its ancestors.
Eliminating leaves first on the whole (untruncated) tree, every vertex
outside ``C`` roots a free subtree, whose pivot is ``1/g`` with
``g = xi/sqrt(k)`` the subtree Green function.  So

    det(I + T(lam)) = prod_{v in C} p_v g,
    p_v = k+1 + sign m_v - z - sum_{c child in C} 1/p_c - (k - #children in C) g,

with ``z = t_minus + sqrt(k) lam^2`` and ``sign = -1`` at the upper edge,
where ``m`` is negated.  Only ``m``'s own support is truncated.  Forward
mode gives ``q_v = p_v'``:

    q_v = -z' - (k - #children in C) g' + sum_{c child in C} q_c/p_c^2.

The pivots ``p_v g`` form a diagonal family whose trace integral counts the
zeros of the determinant with multiplicity (Gohberg & Sigal 1971), at
O(|C|) per parameter, or less: vertices of a sphere whose weighted subtrees
agree share one pivot, so radial data need one per sphere.  The product is
never formed: on a large support it overflows a float long before any pivot
does.

``xi = (sqrt(1 - lam^2/4) + i lam/2)^2`` is the edge root in algebraic form,
and its derivative is ``i xi / sqrt(1 - lam^2/4)``.  This module shares no
code with the closed-form kernel or the direct solve, so it is a third
independent route to the same zeros.  Spheres come from :func:`tree.sphere_of`.
"""
from __future__ import annotations

import math

import numpy as np

from .resolvent import checked_lambda, t_minus
from .tree import sphere_of


def algebraic_xi(lams: np.ndarray) -> np.ndarray:
    """``exp(i phi)`` at each edge parameter, ``phi = 2 arcsin(lam/2)``, without ``asin``."""
    half = 0.5 * np.asarray(lams, dtype=complex)
    return (np.sqrt(1.0 - half * half) + 1j * half) ** 2


def _as_slice(index: np.ndarray):
    """``index`` as a slice when it is a range, so that gathers are views."""
    if index.size and np.array_equal(index, np.arange(index[0], index[0] + index.size)):
        return slice(int(index[0]), int(index[0]) + index.size)
    return index


class FredholmPivots:
    """Leaves-first pivots of ``I + T`` on the support's ancestor closure.

    ``support`` holds the sorted vertices carrying ``m``, ``m`` its values
    there, and ``eps0`` the radius of the punctured disk of parameters.

    A pivot depends only on the weighted subtree below its vertex, so the
    vertices of a sphere whose subtrees in ``C`` carry the same ``m`` share
    one pivot.  Each such class is kept once, with its multiplicity (its
    number of vertices): one class per vertex of a table without symmetry,
    one per sphere on radial data, whose closure is a full ball.  Columns
    are the classes in sweep order (the deepest sphere first, each sphere's
    classes by their first vertex); :attr:`runs` gathers them by
    multiplicity.
    """

    def __init__(self, k: int, support, m, eps0: float):
        self.k, self.eps0 = k, eps0
        support = np.asarray(support, dtype=np.int64)
        m = np.asarray(m, dtype=complex)
        depth = sphere_of(k, support)
        bounds = np.searchsorted(depth, np.arange(depth[-1] + 2))
        # per sphere, deepest first: its columns, m of its classes, their
        # children outside C, their child entries (the class below of each
        # child in C, grouped by parent class), the classes with children and
        # their groups' starts
        self._spheres, mults, stop = [], [], 0
        below = below_class = np.empty(0, dtype=np.int64)
        for r in range(depth[-1], -1, -1):
            held, up = support[bounds[r]:bounds[r + 1]], (below - 1) // k
            verts = np.union1d(held, up)
            m_here = np.zeros(verts.size, dtype=complex)
            m_here[np.searchsorted(verts, held)] = m[bounds[r]:bounds[r + 1]]
            # a vertex's key: m bit for bit, then its children's classes
            # sorted and padded with -1
            owner = np.searchsorted(verts, up)
            order = np.lexsort((below_class, owner))
            owner, kids = owner[order], below_class[order]
            starts = np.flatnonzero(np.diff(owner, prepend=-1))
            lengths = np.diff(np.append(starts, owner.size))
            keys = np.full((verts.size, 2 + lengths.max(initial=0)), -1, dtype=np.int64)
            keys[:, :2] = m_here.view(np.int64).reshape(-1, 2)
            keys[owner, 2 + np.arange(owner.size) - np.repeat(starts, lengths)] = kids
            _, first, cls, count = np.unique(keys, axis=0, return_index=True,
                                             return_inverse=True, return_counts=True)
            # classes in order of their first vertex, so that on a sphere
            # without symmetry classes, child entries and heads are ranges
            by_vertex = np.argsort(first)
            label = np.empty_like(by_vertex)
            label[by_vertex] = np.arange(by_vertex.size)
            first, count = first[by_vertex], count[by_vertex]
            entries = keys[first, 2:]
            children = (entries >= 0).sum(axis=1)
            heads = np.flatnonzero(children)
            self._spheres.append((slice(stop, stop + first.size), m_here[first],
                                  k - children.astype(float),
                                  _as_slice(entries[entries >= 0]), _as_slice(heads),
                                  np.cumsum(children[heads]) - children[heads]))
            mults.append(count)
            stop += first.size
            below, below_class = verts, label[cls.reshape(-1)]
        mults = np.concatenate(mults)
        #: vertices of the closure, and the pivot classes kept for them
        self.size, self.classes = int(mults.sum()), int(mults.size)
        #: ``(multiplicity, columns)`` of the classes, by ascending multiplicity
        self.runs = [(int(d), _as_slice(np.flatnonzero(mults == d))) for d in np.unique(mults)]

    def pivots(self, lams, sign: int) -> tuple[np.ndarray, np.ndarray]:
        """The pivots ``p_v g`` of the classes at each parameter and their
        derivatives ``q_v g + p_v g'``, both shaped ``(N, classes)``, from
        one sweep: ``q`` needs ``p`` sphere by sphere.

        Every parameter is checked against the disk, in order, before any
        arithmetic.
        """
        lams = np.array([checked_lambda(one, self.eps0) for one in lams], dtype=complex)
        rk = math.sqrt(self.k)
        xi = algebraic_xi(lams)
        g = (xi / rk)[:, None]
        z = (t_minus(self.k) + rk * lams * lams)[:, None]
        dg = (1j * xi / np.sqrt(1.0 - 0.25 * lams * lams) / rk)[:, None]
        dz = (2.0 * rk * lams)[:, None]
        out = np.empty((lams.size, self.classes), dtype=complex)
        dout = np.empty_like(out)
        inv = q_inv2 = None
        for cols, m, free, kids, heads, groups in self._spheres:
            p = (self.k + 1.0 + sign * m) - z - free * g
            q = -dz - free * dg
            if groups.size:
                p[:, heads] -= np.add.reduceat(inv[:, kids], groups, axis=1)
                q[:, heads] += np.add.reduceat(q_inv2[:, kids], groups, axis=1)
            inv = 1.0 / p
            q_inv2 = q * inv * inv
            out[:, cols] = p * g
            dout[:, cols] = q * g + p * dg
        return out, dout

    def family(self, sign: int):
        """The evaluator ``f(lams) -> (F, F')`` of the pivots and their
        derivatives for :func:`charval.contour_index` (with ``fprime=None``),
        each as ``(multiplicity, (N, n))`` diagonal pairs, one per run."""
        def evaluate(lams):
            # C order keeps the bits of the traces' row sums
            return tuple([(d, np.ascontiguousarray(a[:, cols])) for d, cols in self.runs]
                         for a in self.pivots(lams, sign))

        return evaluate
