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

leaving a kernel that is holomorphic through ``lam = 0``.  ``gamma``/``beta``
are evaluated in closed form away from the origin and by short Maclaurin
series inside ``|lam| < 1e-3`` to dodge cancellation.

For radial potentials the sandwich commutes with the sibling-permutation
symmetry, so it is unitarily equivalent to a direct sum of per-block level
matrices with known multiplicities; scans use that exact reduction, and the
full support matrix stays available as the reference route.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import InvalidParameter
from .operators import PotentialSpec, m_tilde
from .resolvent import (
    DEFAULT_DISK_RADIUS,
    ResolventKernel,
    SpectralPoint,
    disk_radius,
    from_lambda,
)
from .tree import TreeGraph

#: scalar relating the raw sandwich to the desingularized kernel:
#: the two pole parts cancel and each bracket contributes twice the
#: desingularized coefficient.  Pinned by the same quadrature calibration
#: as the kernel prefactor.
HOL_COMPANION_FACTOR = 2.0

#: below this radius gamma/beta switch to their Maclaurin series
SERIES_RADIUS = 1e-3

#: number of retained Maclaurin coefficients
SERIES_TERMS = 8

#: support cutoff: vertices with |m| below this are dropped from the sandwich
SUPPORT_CUTOFF = 1e-14


def polar_factors(m_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar factorization of a diagonal: phases ``J`` and moduli roots.

    ``J(v) = m(v)/|m(v)|`` where ``m(v) != 0`` and ``1`` elsewhere, so that
    ``J * sqrt_abs**2 == m`` holds entrywise exactly.
    """
    m_vec = np.asarray(m_vec, dtype=complex)
    mod = np.abs(m_vec)
    # componentwise real division stays graceful down to subnormal moduli
    safe = np.where(mod > 0, mod, 1.0)
    j_phase = m_vec.real / safe + 1j * (m_vec.imag / safe)
    j_phase[mod == 0] = 1.0
    return j_phase, np.sqrt(mod)


# -- gamma/beta ----------------------------------------------------------------

def _working_len() -> int:
    return SERIES_TERMS + 4


@lru_cache(maxsize=None)
def _phi_coeffs() -> tuple[float, ...]:
    # 2*arcsin(lam/2): coefficient of lam^(2m+1) is C(2m,m) / (16^m (2m+1))
    n = _working_len()
    c = np.zeros(n)
    for m in range((n - 1) // 2 + 1):
        if 2 * m + 1 < n:
            c[2 * m + 1] = math.comb(2 * m, m) / (16.0**m * (2 * m + 1))
    return tuple(c)


@lru_cache(maxsize=None)
def _inv_sqrt_coeffs() -> tuple[float, ...]:
    # (4 - lam^2)^(-1/2) = (1/2) sum C(2m,m) (lam^2/16)^m
    n = _working_len()
    c = np.zeros(n)
    for m in range(n // 2 + 1):
        if 2 * m < n:
            c[2 * m] = 0.5 * math.comb(2 * m, m) / 16.0**m
    return tuple(c)


@lru_cache(maxsize=None)
def phase_ratio_series(a: int) -> tuple[complex, ...]:
    """Maclaurin coefficients of ``(exp(i a phi(lam)) - 1) / (lam sqrt(4-lam^2))``."""
    n = _working_len()
    phi = np.array(_phi_coeffs())
    expm1 = np.zeros(n, dtype=complex)
    power = np.zeros(n, dtype=complex)
    power[0] = 1.0
    fact = 1.0
    for p in range(1, n):
        power = P.polymul(power, phi)[:n]
        fact *= p
        expm1 += (1j * a) ** p / fact * power
    ratio = expm1[1:]  # divide by lam; the constant term vanishes
    ratio = P.polymul(ratio, np.array(_inv_sqrt_coeffs()))[:SERIES_TERMS]
    return tuple(ratio)


def phase_ratio(a: int, lam: complex) -> complex:
    """``(exp(i a phi(lam)) - 1) / (lam sqrt(4 - lam^2))``, finite at 0."""
    lam = complex(lam)
    if abs(lam) >= 2.0:
        raise InvalidParameter(f"|lam|={abs(lam):.3g} outside the principal disk")
    if abs(lam) < SERIES_RADIUS:
        return complex(P.polyval(lam, np.array(phase_ratio_series(a))))
    phi = 2.0 * cmath.asin(lam / 2.0)
    return (cmath.exp(1j * a * phi) - 1.0) / (lam * cmath.sqrt(4.0 - lam * lam))


@dataclass(frozen=True)
class GammaBeta:
    """Desingularized coefficient pair for one level pair ``(j, l)``."""

    j: int
    l: int
    lam: complex
    gamma: complex
    beta: complex


def gamma_beta(j: int, l: int, lam: complex) -> GammaBeta:
    """Evaluate the pole-free coefficient pair at ``lam`` (``lam = 0`` allowed)."""
    return GammaBeta(
        j=j, l=l, lam=complex(lam),
        gamma=phase_ratio(j + l + 2, lam),
        beta=phase_ratio(abs(j - l), lam),
    )


# -- the sandwiched operator ----------------------------------------------------

def newborn_multiplicity(k: int, n: int) -> int:
    """Number of spherical blocks born at level ``n`` of the k-ary tree.

    ``1`` at the root and ``k**(n-1) * (k-1)`` below it (``0`` for the path,
    ``k = 1``): the dimension of the functions on sphere ``n`` orthogonal to
    those lifted from sphere ``n - 1``.
    """
    return 1 if n == 0 else k ** (n - 1) * (k - 1)


def support_vertices(
    t: TreeGraph, m_vec: np.ndarray, cutoff: float = SUPPORT_CUTOFF
) -> tuple[np.ndarray, int]:
    """Vertices carrying the sandwich: ``m != 0`` up to the last relevant sphere.

    The supporting radius is the largest sphere whose maximal ``|m|`` still
    reaches ``cutoff``; beyond it the sandwich weights are numerically zero.
    """
    mod = np.abs(m_vec)
    r_support = 0
    for r in range(t.depth + 1):
        s = t.sphere(r)
        if mod[s.start:s.stop].max(initial=0.0) >= cutoff:
            r_support = r
    limit = t.sphere_offsets[r_support + 1]
    idx = np.nonzero(mod[:limit] > 0)[0]
    if idx.size == 0:
        raise InvalidParameter("perturbation vanishes identically on the truncation")
    return idx, r_support


@dataclass
class BSOperator:
    """Finite matrix realization of the sandwiched resolvent on its support."""

    support: np.ndarray
    matrix: np.ndarray
    j_phase: np.ndarray
    sqrt_abs: np.ndarray
    lam: complex
    sign: int
    point: SpectralPoint


class BSFactory:
    """Precomputed machinery for evaluating the sandwich at many parameters.

    Builds the support, the polar factors and the restricted kernel assembler
    once.  ``radial`` is set when the perturbation is constant on spheres, in
    which case :meth:`reduced_blocks` exposes the exact per-block reduction
    (level matrices ``T_n`` with the multiplicity of the newborn block ``n``,
    ``1`` at ``n = 0`` and ``k**(n-1) * (k-1)`` above).  :meth:`blocks` picks
    the reduction or the full support matrix.  ``b`` is unused: the
    multiplicities are known in closed form, so no spherical basis is built;
    the argument stays for existing callers.
    """

    def __init__(
        self,
        t: TreeGraph,
        b: object,
        spec: PotentialSpec | None,
        *,
        allow_violation: bool = False,
        cutoff: float = SUPPORT_CUTOFF,
    ):
        self.tree = t
        self.spec = spec
        self.m_vec = m_tilde(t, spec, allow_violation=allow_violation)
        self.support, self.r_support = support_vertices(t, self.m_vec, cutoff)
        j_full, sqrt_full = polar_factors(self.m_vec)
        self.j_phase = j_full[self.support]
        self.sqrt_abs = sqrt_full[self.support]
        self.eps0 = disk_radius(t.k, spec.delta) if spec is not None else DEFAULT_DISK_RADIUS
        self.kernel = ResolventKernel(
            t, a_weight=sqrt_full, b_weight=sqrt_full,
            rows=self.support, cols=self.support,
        )
        self.radial = spec is None or spec.kind == "radial-exp"
        self._reduced = self.radial and self._prepare_radial(j_full, sqrt_full)
        #: matrix entries per parameter over all blocks :meth:`blocks` returns
        self.block_entries = (
            sum(nlev * nlev for _, nlev, _, _ in self._levels) if self._reduced
            else self.support.size ** 2
        )

    def _prepare_radial(self, j_full, sqrt_full) -> bool:
        """Per-block weights of the level matrices; whether every sphere up
        to the support radius carries weight."""
        t = self.tree
        a_radial = np.zeros(self.r_support + 1)
        j_radial = np.ones(self.r_support + 1, dtype=complex)
        for r in range(self.r_support + 1):
            s = t.sphere(r)
            a_radial[r] = sqrt_full[s.start]
            j_radial[r] = j_full[s.start]
        # level pairs (j, l) of the largest block; block n is its top-left corner
        lv = np.arange(self.r_support + 1)
        self._plus_idx = np.add.outer(lv, lv) + 2
        self._minus_idx = np.abs(np.subtract.outer(lv, lv))
        # per block n: multiplicity, level count, row and column weights.  The
        # weights are 3-D so that scalar and stacked calls run the same numpy
        # multiply loop and agree bit for bit.
        self._levels = []
        for n in range(self.r_support + 1):
            d = newborn_multiplicity(t.k, n)
            if d == 0:
                continue
            nlev = self.r_support - n + 1
            a = a_radial[n:n + nlev]
            jph = j_radial[n:n + nlev]
            self._levels.append((d, nlev, (jph * a)[None, :, None], a[None, None, :]))
        return bool(np.all(a_radial > 0))

    # -- spectral-point plumbing ------------------------------------------

    def point(self, lam: complex, *, eps0: float | None = None) -> SpectralPoint:
        return from_lambda(self.tree.k, lam, "minus", eps0=eps0 or self.eps0)

    def _tables(self, lam, derivative: bool, eps0: float | None):
        """Exponent (or derivative) tables at each ``lam``, stacked to ``(N, E)``.

        Every parameter is checked against the disk, in order, before any
        table is built.
        """
        points = [self.point(one, eps0=eps0) for one in np.atleast_1d(lam)]
        stack = self.kernel.derivative_stack if derivative else self.kernel.exponent_stack
        return stack(points)

    # -- full support matrices ---------------------------------------------

    def _sandwich(self, plus: np.ndarray, minus: np.ndarray, sign: int) -> np.ndarray:
        """``sign * J * kernel`` on the support for ``(N, E)`` tables."""
        return sign * self.j_phase[:, None] * self.kernel.assemble(plus, minus)

    def matrix_at(self, sp_: SpectralPoint, sign: int) -> np.ndarray:
        plus, minus = self.kernel.exponent_tables(sp_)
        return self._sandwich(plus[None], minus[None], sign)[0]

    def matrix(self, lam: complex, sign: int = 1, *, eps0: float | None = None) -> np.ndarray:
        return self.matrix_at(self.point(lam, eps0=eps0), sign)

    def derivative(self, lam: complex, sign: int = 1, *, eps0: float | None = None) -> np.ndarray:
        return self._sandwich(*self._tables(lam, True, eps0), sign)[0]

    def operator(self, lam: complex, sign: int = 1, *, eps0: float | None = None) -> BSOperator:
        sp_ = self.point(lam, eps0=eps0)
        return BSOperator(
            support=self.support,
            matrix=self.matrix_at(sp_, sign),
            j_phase=self.j_phase,
            sqrt_abs=self.sqrt_abs,
            lam=complex(lam),
            sign=sign,
            point=sp_,
        )

    def hol_matrix(self, lam: complex) -> np.ndarray:
        """Desingularized kernel on the support (no phase factor applied)."""
        n_exp = 2 * self.tree.depth + 2
        ratios = np.array([phase_ratio(a, lam) for a in range(n_exp + 1)])
        scale = 1j / (2.0 * math.sqrt(self.tree.k))
        return self.kernel.assemble(-scale * ratios, scale * ratios)

    # -- exact radial reduction ---------------------------------------------

    def reduced_blocks(
        self, lam, sign: int = 1, *, derivative: bool = False,
        eps0: float | None = None,
    ) -> list[tuple[int, np.ndarray]]:
        """Per-block level matrices ``(multiplicity, T_n)`` for radial data.

        ``lam`` is a scalar or a 1-D array; for an array of ``N`` parameters
        each ``T_n`` is stacked to shape ``(N, nlev, nlev)``.  The union of
        their spectra (with multiplicities) equals the spectrum of the full
        support matrix, up to exact zeros for spheres where the perturbation
        vanishes.
        """
        if not self.radial:
            raise InvalidParameter("reduced blocks require a radial perturbation")
        plus_t, minus_t = self._tables(lam, derivative, eps0)
        g = plus_t[:, self._plus_idx] + minus_t[:, self._minus_idx]
        out = []
        for d, nlev, rows, cols in self._levels:
            t_n = sign * rows * g[:, :nlev, :nlev] * cols
            out.append((d, t_n if np.ndim(lam) else t_n[0]))
        return out

    def blocks(
        self, lam, sign: int = 1, *, derivative: bool = False,
        eps0: float | None = None,
    ) -> list[tuple[int, np.ndarray]]:
        """The sandwich (or its derivative) as ``(multiplicity, block)`` pairs.

        The exact radial reduction when every sphere up to the support radius
        carries weight; otherwise the full support matrix as a single block.
        A weightless sphere (the root, when the potential cancels the degree
        defect) would add spurious zero eigenvalues to the level matrices.
        ``lam`` is a scalar or a 1-D array, as for :meth:`reduced_blocks`.
        """
        if self._reduced:
            return self.reduced_blocks(lam, sign, derivative=derivative, eps0=eps0)
        stack = self._sandwich(*self._tables(lam, derivative, eps0), sign)
        return [(1, stack if np.ndim(lam) else stack[0])]


def bs_operator(
    t: TreeGraph,
    b: object,
    spec: PotentialSpec | None,
    lam: complex,
    sign: int = 1,
    *,
    eps0: float | None = None,
    factory: BSFactory | None = None,
) -> BSOperator:
    """One-shot construction of the sandwiched operator at edge parameter ``lam``.

    ``sign = -1`` gives the companion family used at the upper band edge
    (equivalently, the sandwich built from the negated perturbation).  ``b``
    is unused, as for :class:`BSFactory`.
    """
    if sign not in (1, -1):
        raise InvalidParameter("sign must be +1 or -1")
    factory = factory or BSFactory(t, b, spec)
    return factory.operator(lam, sign, eps0=eps0)


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
    recon = HOL_COMPANION_FACTOR * factory.j_phase[:, None] * hol
    return hol, float(np.linalg.norm(raw - recon))
