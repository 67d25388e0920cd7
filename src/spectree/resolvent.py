"""Closed-form weighted resolvent kernel of the free tree operator.

The free operator ``-adjacency + (k+1)`` restricted to one invariant block
is a half-line Jacobi matrix with off-diagonal ``sqrt(k)``, whose resolvent
has an explicit kernel in the scaled variable

    u = (z + 2 sqrt(k) - (k+1)) / sqrt(k),   u = 4 sin^2(phi/2),

where the branch of ``phi`` is fixed so that ``|exp(i phi)| < 1`` away from
the band (decaying boundary values).  Writing ``xi = exp(i phi)``, the
block resolvent entries are

    g(j, l) = w[|j-l|] - w[j+l+2],   w[a] = i xi^a / (sqrt(k) 2 sin phi),

so one table ``w`` (:func:`block_table`) carries every entry, and the full
kernel is the sum of these blocks over their birth levels
``n``.  That sum depends only on ``a = |x|``, ``b = |y|`` and the meet depth
``c = |x∧y|`` (Figà-Talamanca & Nebbia 1991):

    G(a, b, c) = sum_{n=0}^{min(c+1, a, b)} P_n(c) k^{-(a+b-2n)/2} g(a-n, b-n)

with the newborn projector ``P_0 = 1``, ``P_n = 1 - 1/k`` for ``1 <= n <= c``
and ``P_{c+1} = -1/k``.

Near a band edge the spectral parameter is re-parametrized by ``lam`` with
``u = lam**2`` and ``phi = 2 arcsin(lam/2)``; the upper half-plane in
``lam`` maps onto the physical side and the lower half-plane continues the
kernel across the edge onto the second sheet.

The scalar in front of the bracket is pinned by an independent quadrature
oracle; see :data:`KERNEL_PREFACTOR`.  :func:`direct_resolvent_block` is the
other reference: it solves on the tree by leaves-first elimination and shares
no code with the closed form.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchFailure,
    CapacityExceeded,
    InvalidParameter,
    OnSpectrum,
    OutOfDisk,
)
from .operators import m_tilde
from .tree import TreeGraph, sphere_of

#: Scalar multiplying each closed-form bracket, relative to the quadrature
#: normalization ``(1/pi) * integral over the circle``.  Fixed uniquely by the
#: calibration test (sine-projected coefficients against direct quadrature);
#: the rejected alternative ``0.5 * sqrt(2/pi)`` is off by ``sqrt(2*pi)``.
KERNEL_PREFACTOR = 1.0

#: default radius of the working punctured disk in the edge parameter
DEFAULT_DISK_RADIUS = 0.3

#: memory budget in bytes when ``/proc/meminfo`` cannot be read
FALLBACK_MEMORY_BUDGET = 4 * 2**30

#: right-hand-side columns per elimination sweep in :func:`direct_resolvent_block`
SOLVE_CHUNK = 256

#: bytes per vertex :func:`direct_resolvent_block` holds besides its columns:
#: the inverse pivots and, when given a potential, ``m_tilde``'s temporaries
#: (about 93 measured at most; the rest is headroom for other numpy versions)
SOLVE_VERTEX_BYTES = 128


def memory_budget() -> int:
    """Bytes the large arrays of one kernel, direct solve, ``validate`` stage
    or dense spectrum may take.

    ``MemAvailable`` from ``/proc/meminfo``, or :data:`FALLBACK_MEMORY_BUDGET`
    where that cannot be read.
    """
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return FALLBACK_MEMORY_BUDGET


def _check_budget(nbytes: int, what: str) -> None:
    """Raise :class:`CapacityExceeded` before ``what`` allocates past the budget."""
    budget = memory_budget()
    if nbytes > budget:
        raise CapacityExceeded(
            f"{what} need {nbytes / 2**30:.3g} GiB, over the "
            f"{budget / 2**30:.3g} GiB memory budget"
        )


def _pow2_scale(a) -> float:
    """The power of two ``2**-e`` that brings ``max|a|`` into ``[1/2, 1)``.

    Scaling by it is exact, so the squares of the largest scaled entries
    neither overflow nor underflow, and a norm of the scaled array divided
    by it again keeps its bits.  ``1.0`` when ``a`` is all zeros, or its
    largest modulus is infinite or NaN.
    """
    return math.ldexp(1.0, -math.frexp(np.abs(a).max(initial=0.0))[1])


def t_minus(k: int) -> float:
    """Lower band edge ``-2 sqrt(k) + k + 1``."""
    return -2.0 * math.sqrt(k) + k + 1.0

def t_plus(k: int) -> float:
    """Upper band edge ``+2 sqrt(k) + k + 1``."""
    return 2.0 * math.sqrt(k) + k + 1.0


def disk_radius(delta: float) -> float:
    """Working radius ``min(delta/8, 0.3)`` of the punctured edge disk."""
    return min(delta / 8.0, DEFAULT_DISK_RADIUS)


@dataclass(frozen=True)
class SpectralPoint:
    """Coupled spectral coordinates ``(z, u, phi)`` with a committed branch.

    ``eiphi`` stores ``exp(i phi)`` and is the single source of truth for all
    branch-dependent quantities; ``lam`` is set when the point was built from
    the edge parametrization (``None`` for a plain spectral parameter).
    """

    k: int
    z: complex
    u: complex
    eiphi: complex
    lam: complex | None = None

    @property
    def phi(self) -> complex:
        return -1j * cmath.log(self.eiphi)

    @property
    def two_sin_phi(self) -> complex:
        return _checked_two_sin_phi(self.eiphi)

    def sheet_swapped(self) -> "SpectralPoint":
        """Same point with ``exp(i phi) -> exp(-i phi)`` (other sheet)."""
        return SpectralPoint(
            k=self.k, z=self.z, u=self.u, eiphi=1.0 / self.eiphi, lam=self.lam,
        )


def _distance_to_band(k: int, z):
    """Distance from ``z`` (a number or an array) to the band ``[t_minus, t_plus]``:
    ``|Im z|`` above it, else the distance to the nearer edge."""
    x = np.real(z)
    # |z - clip(Re z)| by hypot, which Python's abs(complex) also rounds by
    return np.hypot(x - np.clip(x, t_minus(k), t_plus(k)), np.imag(z))


def from_z(k: int, z: complex) -> SpectralPoint:
    """Spectral point from a parameter off the band.

    Raises
    ------
    InvalidParameter
        If ``z`` is not finite, or so large that ``cos(phi)**2`` overflows.
    OnSpectrum
        If ``z`` is within ``1e-12`` of the band ``[t_minus, t_plus]``.

    ``exp(i phi)`` is the decaying root of ``xi**2 - 2 cos(phi) xi + 1``. It is
    taken as the reciprocal of the growing root ``cos(phi) ± sqrt(cos(phi)**2 - 1)``,
    whose two terms add, so no digits cancel at large ``|z|``.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise InvalidParameter(f"spectral parameter z must be finite, got {z}")
    if _distance_to_band(k, z) < 1e-12:
        raise OnSpectrum(f"z={z} lies on the essential spectrum of the k={k} tree")
    u = (z + 2.0 * math.sqrt(k) - (k + 1.0)) / math.sqrt(k)
    w = 1.0 - u / 2.0  # cos(phi)
    if not cmath.isfinite(w * w):
        raise InvalidParameter(f"spectral parameter z={z} is too large: cos(phi)**2 overflows")
    root = cmath.sqrt(w * w - 1.0)
    grow = w + root if abs(w + root) >= abs(w - root) else w - root
    return SpectralPoint(k=k, z=z, u=u, eiphi=1.0 / grow)


def checked_lambda(lam: complex, eps0: float) -> complex:
    """``lam`` as a Python complex.

    Raises
    ------
    OutOfDisk
        Unless ``0 < |lam| < eps0``.
    """
    lam = complex(lam)
    if not 0.0 < abs(lam) < eps0:
        raise OutOfDisk(f"|lam|={abs(lam):.3g} outside the punctured disk (0, {eps0:.3g})")
    return lam


def edge_xi(lam: complex) -> complex:
    """``exp(i phi)`` at the edge parameter ``lam``, ``phi = 2 arcsin(lam/2)``."""
    return cmath.exp(2j * cmath.asin(lam / 2.0))


def from_lambda(k: int, lam: complex, *, eps0: float = DEFAULT_DISK_RADIUS) -> SpectralPoint:
    """Spectral point from the band-edge parameter ``lam``.

    ``z = t_minus + lam**2 sqrt(k)`` and ``phi = 2 arcsin(lam/2)`` (principal
    branch); ``Im(lam) >= 0`` is the physical half-plane.  The upper edge
    folds onto the lower one through ``2(k+1) - z``, so one parametrization
    serves both edges.

    Raises
    ------
    OutOfDisk
        Unless ``0 < |lam| < eps0``.
    """
    lam = checked_lambda(lam, eps0)
    u = lam * lam
    return SpectralPoint(k=k, z=t_minus(k) + u * math.sqrt(k), u=u, eiphi=edge_xi(lam), lam=lam)


def _checked_two_sin_phi(xi: complex) -> complex:
    s = -1j * (xi - 1.0 / xi)
    if abs(s) < 1e-14 * (1.0 + abs(xi)) ** 2:
        raise BranchFailure("2 sin(phi) vanished; kernel closed form undefined")
    return s


def fourier_coefficient(n: int, sp_: SpectralPoint) -> complex:
    """Closed form of ``(1/2pi) * int exp(i n t) / (2 - 2 cos t - u) dt``.

    Entry ``|n|`` of the path's :func:`block_table` (``k = 1``); the identity holds
    for ``u`` off ``[0, 4]``, elsewhere it is the continued (boundary) value on
    the committed sheet.
    """
    return complex(block_table(1, np.array([sp_.eiphi]), abs(n) + 1)[0, abs(n)])


def sine_projected_coefficient(j: int, l: int, sp_: SpectralPoint) -> complex:
    """Closed form ``w[|j-l|] - w[j+l+2]`` (:func:`block_table`) of the
    sine-projected block resolvent entry.

    Equals ``(1/pi) * int (-2 sqrt(k) cos t + k + 1 - z)^{-1}
    sin((j+1) t) sin((l+1) t) dt`` for ``u`` off ``[0, 4]``, and its
    continuation elsewhere on the committed sheet.
    """
    w = block_table(sp_.k, np.array([sp_.eiphi]), j + l + 3)[0]
    return complex(w[abs(j - l)] - w[j + l + 2])


@dataclass
class KernelMatrix:
    """Assembled weighted-resolvent kernel."""

    entries: np.ndarray

    @property
    def hs_norm(self) -> float:
        return float(np.linalg.norm(self.entries))


class ResolventKernel:
    """Reusable assembler for ``A (free - z)^{-1} B*`` kernels.

    The depth triple of every (row, col) pair and the linear map from the
    table ``w`` to ``G`` (module docstring) are prepared once; each
    evaluation is a short accumulation over the triples that occur plus one
    gather.  ``rows``/``cols`` restrict the output to a vertex subset (used
    for compactly supported sandwiches); ``a_weight``/``b_weight`` are
    aligned with them, one weight per row or column (per vertex when
    ``rows``/``cols`` is ``None``).
    """

    def __init__(
        self,
        t: TreeGraph,
        a_weight: np.ndarray | None = None,
        b_weight: np.ndarray | None = None,
        rows: np.ndarray | None = None,
        cols: np.ndarray | None = None,
    ):
        self.tree = t
        self.a_weight = a_weight
        self.b_weight = b_weight
        self.rows = np.arange(t.vertex_count) if rows is None else np.asarray(rows)
        self.cols = np.arange(t.vertex_count) if cols is None else np.asarray(cols)
        self._prepare()

    def _prepare(self) -> None:
        t, k = self.tree, self.tree.k
        da, db = sphere_of(k, self.rows), sphere_of(k, self.cols)
        # code each pair by its (|x|, |y|, gap) triple in the box of the row
        # and column depths that occur: on a path the gap is 0, else at most
        # min(|x|, |y|).  Term n of G adds coef * (w[|a-b|] - w[a+b-2n+2]),
        # nonzero only for n <= top = min(c+1, a, b), and at k = 1 (P_n = 1 -
        # 1/k = 0 for 1 <= n <= c = top) only for n = 0
        top_a, top_b = int(da.max(initial=0)), int(db.max(initial=0))
        n_gap = 1 if k == 1 else min(top_a, top_b) + 1
        # the box has a side per depth that occurs, so at most one per row or column
        pairs = self.rows.size * self.cols.size
        box = min(top_a + 1, self.rows.size) * min(top_b + 1, self.cols.size) * n_gap
        triples = min(box, pairs)
        small = np.min_scalar_type(t.depth)
        # peak: per pair the codes and the gaps, beside the larger of two
        # stages: the labels (per box entry a count, per triple its code) or
        # the map (per triple five intp arrays, per map entry three of 8 bytes
        # and a mask); per depth a count, ten intp arrays per row or column,
        # and numpy's buffers for three 8-byte operands of a small broadcast
        _check_budget(
            pairs * (8 + small.itemsize) + max(8 * (box + triples), (40 + 25 * n_gap) * triples)
            + 8 * (top_a + top_b + 2) + 80 * (self.rows.size + self.cols.size)
            + 24 * np.getbufsize(),
            f"meet-depth codes of {self.rows.size} x {self.cols.size} vertex pairs "
            f"and kernel coefficient map of {triples} depth triples",
        )
        # each rank table is read and dropped before the next is made
        depth_a, rank_a = _ranks(da, top_a + 1, np.min_scalar_type(top_a + 1))
        rank_a = rank_a[da].astype(np.intp)
        depth_b, rank_b = _ranks(db, top_b + 1, np.min_scalar_type(top_b + 1))
        rank_b = rank_b[db].astype(np.intp)
        n_b = depth_b.size * n_gap
        # gap = min(|x|, |y|) - |x∧y|, one less for each level r >= 1 where the
        # ancestors agree.  Each side starts at its ancestor on the deepest
        # level (index i on sphere a: (i - off[a]) // k**(a - r)) and takes
        # one parent step per level below
        if n_gap == 1:
            gap = np.zeros((da.size, db.size), small)
        else:
            gap = np.minimum.outer(da.astype(small), db.astype(small))
        deepest = n_gap - 1
        ca = (self.rows - t.sphere_offsets[da]) // k ** np.maximum(da - deepest, 0)
        cb = (self.cols - t.sphere_offsets[db]) // k ** np.maximum(db - deepest, 0)
        for r in range(deepest, 0, -1):
            on_a, on_b = da >= r, db >= r
            gap -= np.where(on_a, ca, -1)[:, None] == np.where(on_b, cb, -2)
            ca = np.where(on_a, ca // k, ca)
            cb = np.where(on_b, cb // k, cb)
        code = np.add.outer(rank_a * n_b, rank_b * n_gap)
        code += gap
        del gap
        # a pair's label is the rank of its code among the codes that occur.
        # The gathers write in place (each index is read before its slot is
        # written); "clip" keeps numpy from buffering the output
        found, labels = _ranks(code, depth_a.size * n_b, np.intp)
        self._code = np.take(labels, code, out=code, mode="clip")
        del labels, code
        a, rest = np.divmod(found, n_b)
        del found
        b, g = np.divmod(rest, n_gap)
        del rest
        a = np.take(depth_a, a, out=a, mode="clip")
        b = np.take(depth_b, b, out=b, mode="clip")
        c = np.minimum(a, b)
        c -= g
        top = c + (g > 0)
        del g
        n = np.arange(n_gap)[:, None]
        proj = np.where(n == 0, 1.0, np.where(n <= c, 1.0 - 1.0 / k, -1.0 / k))
        del c
        self._coef = np.where(n <= top, proj * float(k) ** (n - (a + b) / 2.0), 0.0)
        del proj
        self._sum_idx = np.where(n <= top, a + b - 2 * n + 2, 0)
        self._diff_idx = np.abs(a - b)
        #: largest table index any pair reads: ``a + b + 2`` at ``n = 0``
        self.max_exponent = top_a + top_b + 2

    def exponent_tables(self, sp_: SpectralPoint) -> np.ndarray:
        """:func:`block_table` at ``sp_``, as long as :meth:`assemble` reads."""
        return block_table(self.tree.k, np.array([sp_.eiphi]), self.max_exponent + 1)[0]

    def derivative_tables(self, sp_: SpectralPoint) -> np.ndarray:
        """:func:`block_table_derivative` at ``sp_`` (lam form only)."""
        if sp_.lam is None:
            raise InvalidParameter("derivative tables need an edge-parametrized point")
        return block_table_derivative(self.tree.k, [sp_.lam], self.max_exponent + 1)[0]

    def assemble(self, w: np.ndarray) -> np.ndarray:
        """Kernel entries ``a[x] G(|x|, |y|, |x∧y|) conj(b[y])`` from the table ``w``.

        ``G`` is the fixed linear map of the table built in :meth:`_prepare`;
        ``a`` and ``b`` are the weights, aligned with ``rows`` and ``cols``.
        An ``(N, E)`` table gives a ``(N, rows, cols)`` stack whose slices
        equal the one-table results bit for bit (the map is accumulated
        elementwise in a fixed order, not by BLAS).
        """
        count, keys = w.shape[0], self._diff_idx.size
        # the loop holds g, near and three (N, keys) temporaries; the gather
        # holds g, near and the output
        _check_budget(
            16 * count * max(5 * keys, self._code.size + 2 * keys),
            f"kernel entries of {count} x {self.rows.size} x {self.cols.size}",
        )
        g = np.zeros((count, keys), dtype=complex)
        near = w[:, self._diff_idx]
        for coef, s_idx in zip(self._coef, self._sum_idx):
            g += coef * (near - w[:, s_idx])
        out = g[:, self._code]
        if self.a_weight is not None:
            out *= self.a_weight[:, None]
        if self.b_weight is not None:
            out *= np.conj(self.b_weight)
        return out

    def evaluate(self, sp_: SpectralPoint) -> np.ndarray:
        return self.assemble(self.exponent_tables(sp_)[None])[0]


def _ranks(keys: np.ndarray, size: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The values that occur in ``keys`` (all below ``size``), ascending, and
    a ``size`` table of ``dtype`` that holds each one's rank among them.

    Counted, not sorted: the values are marked, then the marks are summed in
    place.
    """
    seen = np.zeros(size, dtype)
    seen[keys] = 1
    found = np.flatnonzero(seen)
    np.cumsum(seen, dtype=dtype, out=seen)
    seen -= 1
    return found, seen


def block_table(k: int, xi: np.ndarray, length: int) -> np.ndarray:
    """``w[a] = i xi^a / (sqrt(k) 2 sin phi)`` for ``a < length`` at each
    ``exp(i phi)`` of ``xi``, stacked to ``(N, length)``.

    The block resolvent entry is ``g(j, l) = w[|j-l|] - w[j+l+2]``.  The
    per-point scalars stay Python complex arithmetic; only the powers and
    tables broadcast over the points, so each row equals the single-point
    table bit for bit.
    """
    s = np.array([_checked_two_sin_phi(complex(x)) for x in xi])[:, None]
    powers = xi[:, None] ** np.arange(length)
    scale = KERNEL_PREFACTOR / math.sqrt(k)
    return 1j * scale * powers / s


def block_table_derivative(k: int, lams, length: int) -> np.ndarray:
    """Edge-parameter derivative of :func:`block_table` at each of ``lams``,
    stacked to ``(N, length)``.

    With ``s = lam sqrt(4 - lam^2)`` and ``phi = 2 arcsin(lam/2)``,
    ``d/dlam [xi^a / s] = xi^a (i a phi' s - s') / s^2`` where
    ``phi' = 2 / sqrt(4 - lam^2)`` and ``s' = (4 - 2 lam^2) / sqrt(4 - lam^2)``.
    ``lams`` hold Python complex values, as :func:`checked_lambda` returns
    them; ``xi``, ``s``, ``s'``, ``phi'`` and ``s^2`` are Python complex
    scalars per parameter (numpy's vectorized complex multiply may round
    differently).
    """
    scalars = []
    for lam in lams:
        root = cmath.sqrt(4.0 - lam * lam)
        s = lam * root
        scalars.append((edge_xi(lam), s, (4.0 - 2.0 * lam * lam) / root, 2.0 / root, s * s))
    xi, s, sprime, phiprime, s2 = (np.array(col)[:, None] for col in zip(*scalars))
    a = np.arange(length)
    powers = xi ** a
    core = powers * (1j * a * phiprime * s - sprime) / s2
    scale = KERNEL_PREFACTOR / math.sqrt(k)
    return 1j * scale * core


def weighted_resolvent_kernel(
    t: TreeGraph,
    b: object,
    a_weight: np.ndarray | None,
    b_weight: np.ndarray | None,
    sp_: SpectralPoint,
) -> KernelMatrix:
    """Assemble the full kernel of ``A (free - z)^{-1} B*`` on the truncation.

    ``b`` is unused: the kernel is assembled from meet depths, not from the
    spherical basis; the argument stays for existing callers.
    ``a_weight``/``b_weight`` are diagonal weights (``None`` = identity).
    """
    return KernelMatrix(ResolventKernel(t, a_weight, b_weight).evaluate(sp_))


# -- direct-solve oracle ------------------------------------------------------

#: step size at which the fixed point of :func:`subtree_green` has converged
SUBTREE_TOL = 1e-16

#: fixed-point steps :func:`subtree_green` takes before it gives up
SUBTREE_MAX_ITER = 100_000


def subtree_green(k: int, z: complex) -> complex:
    """Root resolvent entry of one dangling k-ary subtree, by fixed point.

    Eliminating the subtree below a vertex renormalizes its diagonal, and the
    per-subtree entry satisfies ``g = 1 / (k + 1 - z - k g)``.  Iterating from
    ``g = 0`` converges to the decaying branch for ``z`` off the band; this is
    deliberately independent of the closed-form branch machinery.

    The iteration stops when a step falls below :data:`SUBTREE_TOL`, or when
    it repeats an earlier iterate.  Rounding can trap it in a cycle a few ulps
    wide around the fixed point, whose steps stay above the tolerance for
    good (at ``k = 2, z = 3 + 0.5j`` a 2-cycle with steps of ``2.2e-16``).  A
    repeat is found by Brent's method, comparing with the iterate saved at
    each power of two.  Once the iterates repeat, no later step can fall
    below the tolerance, so every ``z`` that converged on the step alone
    returns the same value as before.
    """
    g, saved, span = 0.0 + 0.0j, None, 1
    base = (k + 1.0) - z
    for i in range(1, SUBTREE_MAX_ITER + 1):
        g_next = 1.0 / (base - k * g)
        if abs(g_next - g) < SUBTREE_TOL or g_next == saved:
            return g_next
        if i == span:
            saved, span = g_next, 2 * span
        g = g_next
    raise OnSpectrum(f"subtree closure did not converge at z={z}")


def direct_resolvent_block(
    t: TreeGraph,
    z: complex,
    *,
    spec=None,
    boundary: str = "exact",
    rows: np.ndarray | None = None,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Resolvent block of the (optionally perturbed) operator by direct solve.

    The independent reference path for every closed-form kernel.  With
    ``boundary="exact"`` the deepest sphere is closed with the dangling
    subtree self-energy ``k * subtree_green(z)``, so the solve reproduces
    the *untruncated* operator's resolvent block exactly; with
    ``boundary="truncated"`` it is the plain compression (boundary
    reflections and all).

    The solve is Gaussian elimination leaves first, which on a tree creates
    no fill (Parter 1961): each pivot is the inverse of the root Green
    function of the subtree below its vertex, the recursion
    :func:`subtree_green` iterates.  There is no pivoting, so the solve
    fails where some subtree operator is singular at ``z`` even though the
    whole operator is not.  A pivot that is merely small loses digits; since
    every caller compares this block with an independent closed form, that
    can only turn a check into a spurious FAIL, never into a false PASS.

    The pivots are computed on the whole tree, but the sweeps over the
    columns, and the solution they hold, stop at the deepest sphere of
    ``rows`` and ``cols``: a block of shallow rows and columns costs the
    ball it lives in, and each of its entries has the bits of the same entry
    of the full solve.

    Raises
    ------
    OnSpectrum
        If a pivot is zero or not finite.
    """
    if boundary not in ("exact", "truncated"):
        raise InvalidParameter(f"unknown boundary mode {boundary!r}")
    n, k = t.vertex_count, t.k
    rows = np.arange(n) if rows is None else np.asarray(rows)
    cols = np.arange(n) if cols is None else np.asarray(cols)
    # the sweeps stop at the deepest sphere of a row or column: below it the
    # right-hand sides vanish, so those spheres only add signed zeros to
    # their parents, which leave every sum's bits as they are
    deep = sphere_of(k, int(max(rows.max(initial=0), cols.max(initial=0))))
    off = t.sphere_offsets
    swept = int(off[deep + 1])
    step = SOLVE_CHUNK
    # the returned rows x cols block, plus one chunk's identity columns, their
    # solution and its gathered rows on the swept spheres, plus the
    # per-vertex arrays
    _check_budget(
        np.dtype(complex).itemsize * (rows.size * cols.size + 3 * swept * min(step, cols.size))
        + SOLVE_VERTEX_BYTES * n,
        f"direct-solve columns for {cols.size} of {n} vertices",
    )

    inv = _inverse_pivots(t, z, spec, boundary)
    out = np.empty((rows.size, cols.size), dtype=complex)
    for start in range(0, cols.size, step):
        chunk = cols[start:start + step]
        x = np.zeros((swept, chunk.size), dtype=complex)
        x[chunk, np.arange(chunk.size)] = 1.0
        # forward sweep leaves first, fused with the diagonal solve: a sphere
        # scaled by its inverse pivots is what its parents add.  Not ``*=``:
        # numpy rounds a one-element in-place complex product differently, so
        # a one-column chunk would not equal the same column in a wider one
        for r in range(deep, -1, -1):
            lo, hi = off[r:r + 2]
            x[lo:hi] = x[lo:hi] * inv[lo:hi, None]
            if r:
                x[off[r - 1]:lo] += _child_sum(x[lo:hi], k)
        # back sweep from the root: each vertex adds its parent over its pivot
        for r in range(1, deep + 1):
            lo, hi = off[r:r + 2]
            parents = x[off[r - 1]:lo]
            for kid, scale in zip(_children(x[lo:hi], k), _children(inv[lo:hi], k)):
                kid += scale[:, None] * parents
        out[:, start:start + chunk.size] = x[rows, :]
    return out


def _inverse_pivots(t: TreeGraph, z: complex, spec, boundary: str) -> np.ndarray:
    """Reciprocal pivots of the leaves-first elimination, one per vertex.

    A vertex's pivot is its diagonal ``k + 1 - z``, plus ``m_tilde`` when
    ``spec`` is given and minus the closure on the deepest sphere, minus the
    reciprocal pivots of its children.  Each sphere is checked before its
    reciprocals are taken.
    """
    k = t.k
    inv = np.full(t.vertex_count, (k + 1.0) - z, dtype=complex)
    if spec is not None:
        inv += m_tilde(t, spec)
    if boundary == "exact":
        inv[t.sphere_offsets[t.depth]:] -= k * subtree_green(k, z)
    for r in range(t.depth, -1, -1):
        lo, hi = t.sphere_offsets[r:r + 2]
        piv = inv[lo:hi]
        bad = np.flatnonzero((piv == 0) | ~np.isfinite(piv))
        if bad.size:
            raise OnSpectrum(
                f"z={z}: zero or non-finite elimination pivot at vertex "
                f"{lo + bad[0]}; a subtree operator is singular there"
            )
        np.reciprocal(piv, out=piv)
        if r:
            inv[t.sphere_offsets[r - 1]:lo] -= _child_sum(piv, k)
    return inv


def _children(a: np.ndarray, k: int) -> np.ndarray:
    """Views of a sphere's rows by child number: row ``i`` of view ``j`` is
    child ``j`` of the ``i``-th vertex one sphere up."""
    return a.reshape(-1, k, *a.shape[1:]).swapaxes(0, 1)


def _child_sum(a: np.ndarray, k: int) -> np.ndarray:
    """Sum over each vertex's children of a sphere's rows, one child at a time,
    so every column rounds the same whatever the column count."""
    first, *rest = _children(a, k)
    total = first.copy()
    for kid in rest:
        total += kid
    return total
