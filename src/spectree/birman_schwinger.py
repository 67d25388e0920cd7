"""Sandwiched resolvent near the band edge and its desingularized form.

The object of interest is ``sign * J sqrt|m| (free - z(lam))^{-1} sqrt|m|``
with ``m = -d0 + M`` the effective perturbation, ``m = J |m|`` its polar
factorization, and ``z(lam)`` the lower-edge parametrization.  On a
compactly supported ``m`` this is a small dense matrix; an eigenvalue at
``-1`` is exactly the edge-resonance condition.

Each closed-form bracket carries a simple pole ``1/(lam sqrt(4-lam^2))``
at the edge; the two pole parts cancel in the combination

    gamma(lam) = (exp(i a phi(lam)) - 1) / (lam sqrt(4 - lam^2)),  a = j+l+2,
    beta(lam)  = same with a = |j-l|,

leaving a kernel that is holomorphic through ``lam = 0``.  Both are one
closed form with ``expm1`` in the numerator, accurate up to and at the origin.

For radial potentials the sandwich commutes with the sibling-permutation
symmetry, so it is unitarily equivalent to a direct sum of per-block level
matrices with known multiplicities; scans use that exact reduction, and the
full support matrix stays available as the reference route.  Only that
route reads the support-pair meet depths, so only it builds a kernel assembler.
"""
from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import InvalidParameter
from .operators import SUPPORT_CUTOFF, PotentialSpec, m_tilde
from .resolvent import (
    DEFAULT_DISK_RADIUS,
    ResolventKernel,
    SpectralPoint,
    _pow2_scale,
    block_table,
    block_table_derivative,
    checked_lambda,
    disk_radius,
    edge_xi,
    from_lambda,
)
from .tree import TreeGraph, newborn_multiplicity, sphere_of

#: scalar relating the raw sandwich to the desingularized kernel:
#: the two pole parts cancel and each bracket contributes twice the
#: desingularized coefficient.  Pinned by the same quadrature calibration
#: as the kernel prefactor.
HOL_COMPANION_FACTOR = 2.0


def polar_factors(m_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar factorization of a diagonal: phases ``J`` and moduli roots.

    ``J(v) = m(v)/|m(v)|`` where ``m(v) != 0`` and ``1`` elsewhere.  The
    product ``J * sqrt_abs**2`` is ``m`` up to rounding, not exactly: each
    component carries five roundings (the division by the computed modulus,
    the root, its square and the product; the modulus's own rounding
    cancels), so for ``m`` in the normal range
    ``|J * sqrt_abs**2 - m| <= 2.5 eps |m|`` to first order in ``eps``
    (a sample of 10**6 random values read at most 1.42 eps, and about half
    of them differ from ``m``).
    """
    m_vec = np.asarray(m_vec, dtype=complex)
    mod = np.abs(m_vec)
    # componentwise real division stays graceful down to subnormal moduli
    safe = np.where(mod > 0, mod, 1.0)
    j_phase = m_vec.real / safe + 1j * (m_vec.imag / safe)
    j_phase[mod == 0] = 1.0
    return j_phase, np.sqrt(mod)


# -- gamma/beta ----------------------------------------------------------------

def phase_ratio(a: int, lam: complex) -> complex:
    """``(exp(i a phi(lam)) - 1) / (lam sqrt(4 - lam^2))``, finite at 0.

    ``gamma`` is this ratio at ``a = j+l+2`` and ``beta`` at ``a = |j-l|``.
    ``expm1`` keeps the numerator accurate as ``lam -> 0``; at ``lam = 0`` the
    ratio is its limit ``i a / 2``.
    """
    lam = complex(lam)
    if abs(lam) >= 2.0:
        raise InvalidParameter(f"|lam|={abs(lam):.3g} outside the principal disk")
    if lam == 0:
        return 0.5j * a
    phi = 2.0 * cmath.asin(lam / 2.0)
    return complex(np.expm1(1j * a * phi)) / (lam * cmath.sqrt(4.0 - lam * lam))


# -- the sandwiched operator ----------------------------------------------------

def support_vertices(t: TreeGraph, m_vec: np.ndarray) -> tuple[np.ndarray, int]:
    """Vertices carrying the sandwich: ``m != 0`` up to the last relevant sphere.

    The supporting radius is the sphere of the last vertex (vertices are numbered
    sphere by sphere) whose ``|m|`` reaches :data:`SUPPORT_CUTOFF`, or ``0``;
    beyond it the sandwich weights are numerically zero.
    """
    mod = np.abs(m_vec)
    reached = np.flatnonzero(mod >= SUPPORT_CUTOFF)
    r_support = sphere_of(t.k, int(reached[-1])) if reached.size else 0
    limit = t.sphere_offsets[r_support + 1]
    idx = np.nonzero(mod[:limit] > 0)[0]
    if idx.size == 0:
        raise InvalidParameter("perturbation vanishes identically on the truncation")
    return idx, r_support


class BSFactory:
    """Precomputed machinery for evaluating the sandwich at many parameters.

    Builds the support and the polar factors once.  It holds arrays of the
    support's size only: the constructor reads ``m_tilde`` of the whole ball
    and drops it.  ``radial`` is set when the
    perturbation is constant on spheres, in which case :meth:`reduced_blocks`
    exposes the exact per-block reduction (level matrices ``T_n``, block ``n``
    with multiplicity :func:`newborn_multiplicity`).  :meth:`blocks` returns
    the reduction for radial data and the full support matrix, from
    :attr:`kernel`, otherwise.
    ``b`` is unused: the multiplicities are known in closed form, so no
    spherical basis is built; the argument stays for existing callers.
    Parameters must lie in the punctured disk ``0 < |lam| < eps0``.
    """

    def __init__(self, t: TreeGraph, b: object, spec: PotentialSpec | None):
        self.tree = t
        m_vec = m_tilde(t, spec)
        self.support, self.r_support = support_vertices(t, m_vec)
        self.j_phase, self.sqrt_abs = polar_factors(m_vec[self.support])
        self.eps0 = disk_radius(spec.delta) if spec is not None else DEFAULT_DISK_RADIUS
        #: edge table length: a support pair reads up to ``w[2 r_support + 2]``
        self.table_length = 2 * self.r_support + 3
        self.radial = spec is None or spec.radial
        if self.radial:
            self._prepare_radial(m_vec[self.tree.sphere_offsets[:self.r_support + 1]])

    def _prepare_radial(self, m_heads: np.ndarray) -> None:
        """Per-block weighted levels and weights of the level matrices, from
        ``m_tilde`` at the first vertex of each sphere of the support.

        A weightless level is a zero row and column of ``T_n``, so each block
        keeps only its weighted levels, as the support does.
        """
        j_radial, a_radial = polar_factors(m_heads)
        # level pairs (j, l) of the largest block; block n reads it at its
        # levels counted from n
        lv = np.arange(self.r_support + 1)
        self._sum_idx = np.add.outer(lv, lv) + 2
        self._diff_idx = np.abs(np.subtract.outer(lv, lv))
        # per block n: multiplicity, weighted levels counted from n (never
        # empty: level r_support carries weight), row and column weights,
        # shaped to broadcast over a stack of level matrices
        self._levels = []
        for n in range(self.r_support + 1):
            d = newborn_multiplicity(self.tree.k, n)
            if d == 0:
                continue
            held = np.flatnonzero(a_radial[n:] > 0)
            a, jph = a_radial[n + held], j_radial[n + held]
            self._levels.append((d, held, (jph * a)[None, :, None], a[None, None, :]))

    # -- spectral-point plumbing ------------------------------------------

    def point(self, lam: complex) -> SpectralPoint:
        return from_lambda(self.tree.k, lam, eps0=self.eps0)

    def _tables(self, lams, derivative: bool) -> np.ndarray:
        """Edge table (or its derivative) at each of ``lams``, stacked to ``(N, E)``.

        Every parameter is checked against the disk, in order, before any
        table is built.
        """
        lams = [checked_lambda(one, self.eps0) for one in lams]
        if derivative:
            return block_table_derivative(self.tree.k, lams, self.table_length)
        return block_table(self.tree.k, np.array([edge_xi(x) for x in lams]), self.table_length)

    # -- full support matrices ---------------------------------------------

    @functools.cached_property
    def kernel(self) -> ResolventKernel:
        """Kernel assembler on the support pairs, built when a full support
        matrix is first evaluated (never by a radial scan)."""
        return ResolventKernel(
            self.tree, a_weight=self.sqrt_abs, b_weight=self.sqrt_abs,
            rows=self.support, cols=self.support,
        )

    def _sandwich(self, w: np.ndarray, sign: int) -> np.ndarray:
        """``sign * J * kernel`` on the support for an ``(N, E)`` table."""
        out = self.kernel.assemble(w)
        # this operand order keeps the bits of ``(sign * J) * kernel``
        np.multiply(sign * self.j_phase[:, None], out, out=out)
        return out

    def matrix(self, lam: complex, sign: int = 1) -> np.ndarray:
        return self._sandwich(self._tables([lam], False), sign)[0]

    def derivative(self, lam: complex, sign: int = 1) -> np.ndarray:
        return self._sandwich(self._tables([lam], True), sign)[0]

    def hol_matrix(self, lam: complex) -> np.ndarray:
        """Desingularized kernel on the support (no phase factor applied)."""
        ratios = np.array([[phase_ratio(a, lam) for a in range(self.table_length)]])
        scale = 1j / (2.0 * math.sqrt(self.tree.k))
        return self.kernel.assemble(scale * ratios)[0]

    # -- exact radial reduction ---------------------------------------------

    def reduced_blocks(
        self, lams, sign: int = 1, *, derivative: bool = False,
    ) -> list[tuple[int, np.ndarray]]:
        """Per-block level matrices ``(multiplicity, T_n)`` for radial data.

        For a 1-D sequence of ``N`` parameters each ``T_n`` is stacked to
        shape ``(N, nlev, nlev)`` over the weighted levels of block ``n``.  The
        union of their spectra (with multiplicities) equals the spectrum of
        the full support matrix.
        """
        if not self.radial:
            raise InvalidParameter("reduced blocks require a radial perturbation")
        w = self._tables(lams, derivative)
        g = w[:, self._diff_idx] - w[:, self._sum_idx]
        return [
            (d, sign * rows * g[:, held[:, None], held] * cols)
            for d, held, rows, cols in self._levels
        ]

    def blocks(
        self, lams, sign: int = 1, *, derivative: bool = False,
    ) -> list[tuple[int, np.ndarray]]:
        """The sandwich (or its derivative) as ``(multiplicity, stack)`` pairs.

        The exact reduction for radial data; otherwise the full support matrix
        as a single block.  ``lams`` is a 1-D sequence, as for
        :meth:`reduced_blocks`.
        """
        if self.radial:
            return self.reduced_blocks(lams, sign, derivative=derivative)
        return [(1, self._sandwich(self._tables(lams, derivative), sign))]


def hol_split(
    t: TreeGraph,
    b: object,
    spec: PotentialSpec | None,
    lam: complex,
    *,
    factory: BSFactory | None = None,
) -> tuple[np.ndarray, float]:
    """Desingularized kernel at ``lam`` plus its reconstruction residual.

    Returns ``(hol, residual)`` where ``residual`` is the Frobenius distance
    between the raw sandwich and ``HOL_COMPANION_FACTOR * J * hol``.  At
    ``lam = 0`` the raw form is undefined (it is the removable point) and the
    residual is reported as ``0.0`` by convention.  ``b`` is unused, as for
    :class:`BSFactory`.
    """
    factory = factory or BSFactory(t, b, spec)
    hol = factory.hol_matrix(lam)
    if lam == 0:
        return hol, 0.0
    raw = factory.matrix(lam, +1)
    diff = raw - HOL_COMPANION_FACTOR * factory.j_phase[:, None] * hol
    # one exact power-of-two scaling, so the squares of a huge residual do
    # not overflow and every finite residual keeps its bits
    scale = _pow2_scale(diff)
    return hol, float(np.linalg.norm(diff * scale) / scale)
