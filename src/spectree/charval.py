"""Characteristic-value counting, resonance indicators, and spectral scans.

The counting tool is the operator-valued argument principle: for a family
``F(lam)`` invertible on a circle, the trace integral

    (1 / 2 pi i) * integral of Tr[F(lam)^{-1} F'(lam)] d lam

equals the number of parameters inside the circle where ``F`` fails to be
invertible, counted with multiplicity.  Trapezoidal quadrature on the circle
is spectrally accurate for the analytic integrand, so the raw value lands on
an integer to many digits whenever the circle is comfortably away from
characteristic values; the residual after rounding is the certificate.

Families are evaluated on arrays of nodes: ``f(lams)`` takes a 1-D array of
parameters and returns the values stacked along a leading axis, either as one
``(N, n, n)`` array or as a list of ``(multiplicity, (N, n, n) stack)`` pairs
(the exact reduction available for radial perturbations); traces and
singular values then accumulate blockwise.

Each contour pass asks the family for one chunk of nodes at a time and each
scan evaluates the sandwich on a chunk of grid points at once, then calls
LAPACK once per block slot per chunk.  A chunk holds at most
:data:`STACK_ENTRIES` matrix entries over all its stacked blocks, and the
results equal the per-point computation bit for bit.

A scan's grid chunks run on a thread pool with one thread per usable core
(:func:`pool_size`): numpy releases the GIL inside a stacked LAPACK call, so
the chunks' eigenvalue and singular-value solves overlap.  Rows reach the CSV
in chunk order, so a failing chunk leaves exactly the rows of the chunks
before it.  numpy keeps the GIL on small stacks (see :data:`GIL_STACK`), so a
grid chunk holds at least enough points to release it.  The contour ladder
stays serial: each of its chunks holds the family, its derivative and their
solve at once, and threading them as well raised the peak memory of a scan of
a 63-vertex table by 13% over a serial scan, against 7% for the threaded grid
alone.
"""

import cmath
import copy
import csv
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .birman_schwinger import BSFactory
from .errors import (
    InvalidParameter,
    NonConvergent,
    NotIsolated,
    OutOfDisk,
    SingularOnContour,
)
from .operators import PotentialSpec, perturbed_operator, m_tilde
from .resolvent import _check_budget, t_minus, t_plus
from .tree import TreeGraph

#: resonance flag threshold: an eigenvalue of the sandwich counts as "-1"
#: when its distance is below RESONANCE_RTOL * (1 + norm)
RESONANCE_RTOL = 1e-6

#: upper bound on the matrix entries of one chunk, summed over its stacked
#: blocks (256 KiB of complex data): larger chunks save no time and raise the
#: peak memory of a scan by several MiB
STACK_ENTRIES = 2**14

#: numpy releases the GIL inside a LAPACK call on a stack of ``N`` matrices of
#: side ``n`` only when ``N * n`` exceeds this, so a grid chunk holds more
#: points than ``GIL_STACK / n`` for its largest block side ``n``
GIL_STACK = 500

#: a contour count certifies when its raw value lies this close to an integer
RESIDUAL_TOL = 0.1

#: a contour node where the family's min singular value drops below this is
#: singular
SV_FLOOR = 1e-10

#: times a contour pass doubles its node count before it gives up
MAX_DOUBLINGS = 2

#: ratio of consecutive radii on the ladder of circles of :func:`absence_scan`
LADDER_FACTOR = 2.0

#: eigenvalues within this distance of ``[t_minus, t_plus]`` lie in the band
BAND_TOL = 1e-8


def _chunk_len(entries: int) -> int:
    """Points per chunk when one point's blocks hold ``entries`` entries."""
    return max(1, STACK_ENTRIES // entries)


def _grid_chunk_len(factory: BSFactory) -> int:
    """Points per grid chunk: :func:`_chunk_len`, raised until the largest
    block's stack is long enough for numpy to release the GIL."""
    return max(_chunk_len(factory.block_entries), GIL_STACK // factory.block_side + 1)


def pool_size() -> int:
    """Threads of a scan's grid pool: one per core this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ContourSpec:
    """Positively oriented circle with a fixed trapezoidal node count."""

    center: complex
    radius: float
    nodes: int = 256

    def __post_init__(self):
        if not cmath.isfinite(self.center):
            raise InvalidParameter(f"contour center must be finite, got {self.center}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise InvalidParameter(f"contour radius must be positive and finite, got {self.radius}")
        if self.nodes < 16:
            raise InvalidParameter("contour needs at least 16 nodes")

    def points(self, nodes: int | None = None, phase: float = 0.0) -> np.ndarray:
        n = nodes or self.nodes
        t = 2.0 * np.pi * np.arange(n) / n + phase
        return self.center + self.radius * np.exp(1j * t)


@dataclass(frozen=True)
class IndexReport:
    """Result of one argument-principle quadrature."""

    raw: complex
    rounded: int
    residual: float
    min_sv_on_contour: float

    @property
    def certified(self) -> bool:
        return self.residual < RESIDUAL_TOL and self.min_sv_on_contour > 0

    def to_json(self) -> dict:
        return {
            "raw": {"re": self.raw.real, "im": self.raw.imag},
            "rounded": self.rounded,
            "residual": self.residual,
            "min_sv": self.min_sv_on_contour,
        }


def _block_list(val) -> list[tuple[int, np.ndarray]]:
    """A family value as ``(multiplicity, stack)`` pairs; one array is one block."""
    return [(1, val)] if isinstance(val, np.ndarray) else val


def _trace_and_sv(lams, fv, fp) -> tuple[np.ndarray, np.ndarray]:
    """``Tr[F^{-1} F']`` and the min singular value of ``F`` at each node of a chunk.

    ``fv``/``fp`` are the stacked blocks of ``F`` and ``F'`` at the nodes
    ``lams``; every block slot is decomposed in one LAPACK call.  The singular
    values come first, so a node below :data:`SV_FLOOR` raises
    :class:`SingularOnContour` before any solve.  Traces add up slot by slot
    in block order, as for a single node.
    """
    sv = np.full(len(lams), math.inf)
    for _, blk in fv:
        sv = np.minimum(sv, np.linalg.svd(blk, compute_uv=False).min(axis=-1))
    low = np.flatnonzero(sv < SV_FLOOR)
    if low.size:
        raise SingularOnContour(
            f"family singular at contour node {lams[low[0]]:.6g} (sv={sv[low[0]]:.3g})"
        )
    traces = np.zeros(len(lams), dtype=complex)
    for (mult, blk), (_, blkp) in zip(fv, fp):
        traces += mult * np.trace(np.linalg.solve(blk, blkp), axis1=-2, axis2=-1)
    return traces, sv


def contour_index(f, fprime, contour: ContourSpec = ContourSpec(0.0, 0.1)) -> IndexReport:
    """Count characteristic values of ``f`` inside the contour.

    ``f(lams)`` returns the family values at a 1-D array of nodes, stacked
    along the first axis (an array or a block list, see the module
    docstring); ``fprime`` its derivative, in the same form.  Nodes are
    doubled up to :data:`MAX_DOUBLINGS` times until the quadrature result
    sits within :data:`RESIDUAL_TOL` of an integer.

    Raises
    ------
    SingularOnContour
        If the family drops below :data:`SV_FLOOR` at some node (after one
        automatic node-phase nudge).
    NonConvergent
        If the residual never certifies.
    CapacityExceeded
        If the node arrays of the last doubling would not fit the memory
        budget.
    """
    nodes = contour.nodes
    # the last doubling's angles, their exponentials, nodes and unit phases
    most = nodes << MAX_DOUBLINGS
    _check_budget(4 * np.dtype(complex).itemsize * most, f"{most} contour nodes")
    for _ in range(MAX_DOUBLINGS + 1):
        report = None
        for phase in (0.0, math.pi / nodes):
            try:
                report = _quadrature_pass(f, fprime, contour, nodes, phase)
                break
            except SingularOnContour:
                if phase != 0.0:
                    raise
        assert report is not None
        if report.residual < RESIDUAL_TOL:
            return report
        nodes *= 2
    raise NonConvergent(
        f"index residual {report.residual:.3g} after {nodes // 2} nodes"
    )


def _quadrature_pass(f, fprime, contour, nodes, phase) -> IndexReport:
    pts = contour.points(nodes, phase)
    unit = (pts - contour.center) / contour.radius
    # chunks are sized from the blocks of the first node
    step = _chunk_len(sum(b[0].size for _, b in _block_list(f(pts[:1]))))
    total = 0.0 + 0.0j
    min_sv = math.inf
    for start in range(0, nodes, step):
        lams = pts[start:start + step]
        traces, svs = _trace_and_sv(lams, _block_list(f(lams)), _block_list(fprime(lams)))
        for u, tr, sv in zip(unit[start:], traces, svs):
            min_sv = min(min_sv, float(sv))
            total += u * tr
    raw = contour.radius * total / nodes
    rounded = int(round(raw.real))
    return IndexReport(
        raw=complex(raw),
        rounded=rounded,
        residual=float(abs(raw - rounded)),
        min_sv_on_contour=float(min_sv),
    )


# -- resonance machinery ---------------------------------------------------------


def _sign_for(threshold: str) -> int:
    if threshold not in ("minus", "plus"):
        raise InvalidParameter(f"threshold must be 'minus' or 'plus', got {threshold!r}")
    return 1 if threshold == "minus" else -1


def _family(factory: BSFactory, sign: int, eps0: float | None = None):
    """Evaluators for F = I + T and F' = T' as block lists.

    Both take a 1-D array of parameters, as :meth:`BSFactory.blocks`.  A given
    ``eps0`` replaces the factory's working disk radius for these evaluators
    only, so a contour may reach past it (on a shallow copy of the factory).
    """
    if eps0 is not None:
        factory = copy.copy(factory)
        factory.eps0 = eps0

    def fval(lams):
        return [(d, np.eye(b.shape[-1]) + b) for d, b in factory.blocks(lams, sign)]

    def fpval(lams):
        return factory.blocks(lams, sign, derivative=True)

    return fval, fpval


def _flags(blocks, dist: np.ndarray) -> np.ndarray:
    """Resonance flags ``dist < RESONANCE_RTOL * (1 + ||T||_2)`` of a chunk.

    ``||T||_2`` is the largest spectral norm over the stacked blocks.  The
    Frobenius norm bounds it from above, so only points that pass the
    Frobenius screen need the exact norm.  The screen's 1e-3 margin covers
    the rounding of both computed norms (relative errors of order
    ``n * eps``), so the flags equal the exact test.
    """
    fro = np.sqrt(np.max([
        np.einsum("nij,nij->n", b.real, b.real) + np.einsum("nij,nij->n", b.imag, b.imag)
        for _, b in blocks
    ], axis=0))
    flags = np.zeros(dist.shape, dtype=bool)
    for i in np.nonzero(dist < RESONANCE_RTOL * (1.0 + 1.001 * fro))[0]:
        tnorm = max(float(np.linalg.norm(b[i], 2)) for _, b in blocks)
        flags[i] = dist[i] < RESONANCE_RTOL * (1.0 + tnorm)
    return flags


def _grid_chunk(factory: BSFactory, lams: np.ndarray, sign):
    """Distance of the spectrum of T to ``-1``, min singular value of ``I + T``
    and the resonance flag at each parameter of a chunk.

    The blocks of ``T`` become ``I + T`` in place once the distances and flags
    are read, so a chunk holds one copy of its stack.
    """
    blocks = factory.blocks(lams, sign)
    dist = np.full(lams.shape, math.inf)
    for _, b in blocks:
        dist = np.minimum(dist, np.abs(np.linalg.eigvals(b) + 1.0).min(axis=-1))
    flags = _flags(blocks, dist)
    minsv = np.full(lams.shape, math.inf)
    for _, b in blocks:
        b += np.eye(b.shape[-1])
        minsv = np.minimum(minsv, np.linalg.svd(b, compute_uv=False).min(axis=-1))
    return dist, minsv, flags


def _polar_grid(r_min: float, r_max: float, grid: int) -> np.ndarray:
    """``grid`` radii by ``grid`` angles over the annulus, radius-major."""
    radii = np.linspace(r_min, r_max, grid)
    angles = 2.0 * np.pi * np.arange(grid) / grid
    return np.outer(radii, np.exp(1j * angles)).ravel()


def resonance_indicator(
    t: TreeGraph,
    b: object,
    spec: PotentialSpec | None,
    lam: complex,
    threshold: str = "minus",
    *,
    factory: BSFactory | None = None,
) -> tuple[np.ndarray, float]:
    """Eigenvalues of the sandwich at ``lam`` and their distance to ``-1``.

    ``b`` is unused, as for :class:`BSFactory`.
    """
    factory = factory or BSFactory(t, b, spec)
    eigs = np.concatenate([
        np.repeat(np.linalg.eigvals(blk[0]), d)
        for d, blk in factory.blocks([lam], _sign_for(threshold))
    ])
    return eigs, float(np.min(np.abs(eigs + 1.0)))


@dataclass
class ScanReport:
    """Outcome of an annulus scan at one band edge."""

    threshold: str
    ladder: list[tuple[float, IndexReport]]
    grid_rows: np.ndarray  # columns: re, im, dist_to_minus_one, min_sv
    min_singular_value: float
    flagged: int = 0

    @property
    def all_indices_zero(self) -> bool:
        return all(rep.rounded == 0 and rep.certified for _, rep in self.ladder)


CSV_HEADER = ["re_lambda", "im_lambda", "dist_minus_one", "min_sv"]


def absence_scan(
    t: TreeGraph,
    b: object,
    spec: PotentialSpec | None,
    annulus: tuple[float, float],
    grid: int,
    threshold: str = "minus",
    *,
    nodes: int = 256,
    csv_path=None,
    factory: BSFactory | None = None,
) -> ScanReport:
    """Certify the absence of edge resonances on an annulus.

    Runs the argument-principle counter on the geometric ladder of circles
    ``r_min * LADDER_FACTOR**m`` inside ``[r_min, r_max]``, closed by a circle
    at ``r_max`` when the ladder falls short of it, and tabulates the
    eigenvalue distance to ``-1`` and the smallest singular value of
    ``I + T`` on a ``grid x grid`` polar grid.  The grid is evaluated in
    chunks of points on :func:`pool_size` threads; rows stream to
    ``csv_path`` in chunk order, so a failure leaves exactly the rows of the
    chunks before the failing one.  ``b`` is unused, as for
    :class:`BSFactory`.
    """
    from concurrent.futures import ThreadPoolExecutor

    r_min, r_max = annulus
    if grid < 1:
        raise InvalidParameter(f"grid must be >= 1, got {grid}")
    # the grid points, the rows kept per chunk and their concatenation
    _check_budget(
        grid * grid * (np.dtype(complex).itemsize + 2 * len(CSV_HEADER) * np.dtype(float).itemsize),
        f"{grid} x {grid} grid points and rows",
    )
    factory = factory or BSFactory(t, b, spec)
    eps0 = factory.eps0
    if not 0.0 < r_min < r_max < eps0:
        raise OutOfDisk(
            f"annulus ({r_min}, {r_max}) must sit inside the working disk (0, {eps0:.3g})"
        )
    sign = _sign_for(threshold)
    fval, fpval = _family(factory, sign)

    circles = [r_min]
    while circles[-1] * LADDER_FACTOR <= r_max * (1.0 + 1e-12):
        circles.append(circles[-1] * LADDER_FACTOR)
    if circles[-1] < r_max * (1.0 - 1e-12):
        circles.append(r_max)
    ladder = [
        (radius, contour_index(fval, fpval, ContourSpec(0.0, radius, nodes)))
        for radius in circles
    ]

    points = _polar_grid(r_min, r_max, grid)
    step = _grid_chunk_len(factory)
    starts = range(0, points.size, step)

    chunks = []
    flagged = 0
    with (
        open(csv_path, "w", newline="") if csv_path else nullcontext() as sink,
        ThreadPoolExecutor(pool_size()) as pool,
    ):
        writer = csv.writer(sink) if sink else None
        if writer:
            writer.writerow(CSV_HEADER)
        results = pool.map(lambda s: _grid_chunk(factory, points[s:s + step], sign), starts)
        for start, (dist, minsv, flags) in zip(starts, results):
            lams = points[start:start + step]
            rows = np.column_stack([lams.real, lams.imag, dist, minsv])
            chunks.append(rows)
            flagged += int(flags.sum())
            if writer:
                writer.writerows([f"{x:.17g}" for x in row] for row in rows)

    grid_rows = np.concatenate(chunks)
    return ScanReport(
        threshold=threshold,
        ladder=ladder,
        grid_rows=grid_rows,
        min_singular_value=float(grid_rows[:, 3].min()),
        flagged=flagged,
    )


# -- Riesz projections and direct spectra ---------------------------------------


def riesz_multiplicity(op: np.ndarray, z0: complex, contour: ContourSpec) -> int:
    """Algebraic multiplicity of ``z0`` as rank of the spectral projector.

    The projector is the contour integral of the resolvent around ``z0``;
    its rank is read off the singular values (threshold 0.5).  The point must
    be isolated: every eigenvalue outside the circle must stay at least two
    radii away from ``z0``.
    """
    eigs = np.linalg.eigvals(op)
    dist = np.abs(eigs - z0)
    outside = dist > contour.radius
    if np.any(outside & (dist < 2.0 * contour.radius)):
        raise NotIsolated(
            f"spectrum within 2x contour radius of {z0:.6g}; shrink the circle"
        )
    n = op.shape[0]
    pts = contour.points()
    unit = (pts - contour.center) / contour.radius
    proj = np.zeros((n, n), dtype=complex)
    eye = np.eye(n)
    for zeta, u in zip(pts, unit):
        proj += u * np.linalg.solve(zeta * eye - op, eye)
    proj *= contour.radius / pts.size
    sv = np.linalg.svd(proj, compute_uv=False)
    return int(np.sum(sv > 0.5))


@dataclass
class SpectrumResult:
    """Eigenvalues of the perturbed truncation, tagged against the band."""

    eigenvalues: np.ndarray
    inside_band: np.ndarray
    t_minus: float
    t_plus: float

    def outside(self) -> np.ndarray:
        return self.eigenvalues[~self.inside_band]


def spectrum(t: TreeGraph, spec: PotentialSpec | None) -> SpectrumResult:
    """Dense eigensolve of the perturbed truncated operator."""
    # the dense complex operator plus the eigensolver's copy of it
    v = t.vertex_count
    _check_budget(2 * np.dtype(complex).itemsize * v * v,
                  f"dense operator and eigensolve on {v} vertices")
    m_vec = m_tilde(t, spec)
    h = perturbed_operator(t, spec)
    if np.abs(m_vec.imag).max(initial=0.0) == 0.0:
        eigs = np.linalg.eigvalsh(h.real).astype(complex)
    else:
        eigs = np.linalg.eigvals(h)
        eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    lo, hi = t_minus(t.k), t_plus(t.k)
    x = np.clip(eigs.real, lo, hi)
    inside = np.abs(eigs - x) <= BAND_TOL
    return SpectrumResult(
        eigenvalues=eigs, inside_band=inside, t_minus=lo, t_plus=hi
    )
