"""Characteristic-value counting, resonance indicators, and spectral scans.

The counting tool is the operator-valued argument principle: for a family
``F(lam)`` invertible on a circle, the trace integral

    (1 / 2 pi i) * integral of Tr[F(lam)^{-1} F'(lam)] d lam

equals the number of parameters inside the circle where ``F`` fails to be
invertible, counted with multiplicity.  :class:`ContourSpec` owns the
trapezoidal rule on the circle, which is spectrally accurate for the
analytic integrand, so the raw value lands on an integer to many digits
whenever the circle is comfortably away from characteristic values.  A count
certifies on its nearness to an integer and on its agreement with the rule
on every other node of the same pass; :attr:`IndexReport.certified` is the
one statement of that rule, and :func:`contour_index`, ``scan`` and
``index`` all read it.

Families are evaluated on arrays of nodes: ``f(lams)`` takes a 1-D array of
parameters and returns the values stacked along a leading axis, either as one
stack or as a list of ``(multiplicity, stack)`` pairs (the exact reduction
available for radial perturbations); traces and singular values accumulate
blockwise.  A stack is an ``(N, n, n)`` array of matrices or an ``(N, n)``
array of diagonals, each row read as ``diag(row)``: its singular values are
the moduli of its entries and its trace is ``sum F'_ii / F_ii``.  A family
is handed to :func:`contour_index` as two evaluators ``f`` and ``fprime``, or
as one ``f`` returning the pair ``(F, F')`` with ``fprime=None``.

The ladder of :func:`absence_scan` and the ``index`` command count on the
diagonal pivot family of the tree's Fredholm determinant
(:func:`_pivot_family`, :mod:`spectree.fredholm`): one evaluator whose single
sweep gives the pivots and their derivatives, at most O(|C|) per node on the
support's ancestor closure ``C``, with no LAPACK.  Its zeros are those of
the sandwich family ``I + T`` (:func:`_family`), which stays the reference
route; its ``min_sv`` is the smallest pivot modulus on the contour.

Each contour pass asks the family for one chunk of nodes at a time and each
scan evaluates the sandwich on a chunk of grid points at once, then calls
LAPACK (on matrix stacks) once per block slot per chunk.  Both size their
chunks by one rule (:func:`_chunk_len`), read from the blocks of the chunk's
first point: a chunk holds at most :data:`STACK_ENTRIES` matrix (or
diagonal) entries over all its stacked blocks, and the results equal the
per-point computation bit for bit.

On the grid, only the matrices that can set a minimum reach LAPACK.  Every
eigenvalue ``mu`` of a block ``T`` has ``|mu + 1| >= 1 - ||T||_F``, and
``sigma_min(I + T) >= 1 - ||T||_F``; the blocks born deep in a radial family
have small norms, so their bound already exceeds the minimum of the blocks
before them at most points, and those points skip them
(:func:`_screened_min`).  A skipped value could only be larger than the
minimum, so the distances and singular values keep their bits.  The contour
takes the singular values of every block: no production pass hands it
matrices, only the reference route and test families.

A scan's grid chunks run on a thread pool with one thread per usable core
(:func:`pool_size`): numpy releases the GIL inside a stacked LAPACK call, so
the chunks' eigenvalue and singular-value solves overlap.  A grid that would
fit one chunk is shared evenly between the threads, but numpy keeps the GIL
on small stacks (see :data:`GIL_STACK`), so a grid chunk holds at least
enough points to release it (:func:`_grid_chunk_len`).  The pivots are set
up, and the contour ladder runs, on the calling thread while the pool works
through the grid, one circle and one chunk at a time.  Once the ladder is
done, rows reach the CSV in chunk order, one write per chunk, so a failing
chunk leaves exactly the rows of the chunks before it; a failing ladder
cancels the chunks that have not started and opens no CSV.
"""

import cmath
import copy
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .birman_schwinger import BSFactory
from .errors import (
    InvalidParameter,
    NonConvergent,
    NotIsolated,
    OutOfDisk,
    SingularOnContour,
)
from .fredholm import FredholmPivots
from .operators import PotentialSpec, perturbed_operator
from .resolvent import _check_budget, _distance_to_band, t_minus, t_plus
from .tree import TreeGraph

#: resonance flag threshold: an eigenvalue of the sandwich counts as "-1"
#: when its distance is below RESONANCE_RTOL * (1 + norm)
RESONANCE_RTOL = 1e-6

#: upper bound on the matrix entries of one chunk, summed over its stacked
#: blocks (256 KiB of complex data): larger chunks save no time and raise the
#: peak memory of a scan by several MiB
STACK_ENTRIES = 2**14

#: relative margin of the Frobenius screens, over the rounding of the computed
#: norms and decompositions (relative errors of order ``n * eps``): a block
#: skips LAPACK only where ``(1 - SCREEN * ||T||_F) / SCREEN`` exceeds the
#: minimum so far, and a resonance flag needs the exact norm only where
#: ``SCREEN * ||T||_F`` admits it
SCREEN = 1.001

#: numpy releases the GIL inside a LAPACK call on a stack of ``N`` matrices of
#: side ``n`` only when ``N * n`` exceeds this, so a grid chunk holds more
#: points than ``GIL_STACK / n`` for its largest block side ``n``
GIL_STACK = 500

#: a contour count certifies when its raw value lies this close to an integer
#: and to the sum of the same pass on half its nodes
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


def _chunk_len(value) -> int:
    """Points per chunk, from one point's family value (a stack or a block
    list): at most :data:`STACK_ENTRIES` entries over its stacked blocks."""
    entries = sum(blk[0].size for _, blk in _block_list(value))
    return max(1, STACK_ENTRIES // entries)


def _grid_chunk_len(blocks, points: int) -> int:
    """Points per chunk of a ``points``-point grid, from one point's sandwich
    blocks: :func:`_chunk_len`, capped at an even share of the pool's
    threads so that a small grid feeds them all, then raised until the
    largest block's stack is long enough for numpy to release the GIL."""
    share = -(-points // pool_size())
    return max(min(_chunk_len(blocks), share),
               GIL_STACK // max(blk.shape[-1] for _, blk in blocks) + 1)


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

    def points(self, phase: float = 0.0) -> np.ndarray:
        t = 2.0 * np.pi * np.arange(self.nodes) / self.nodes + phase
        return self.center + self.radius * np.exp(1j * t)

    def integrate(self, values, phase: float = 0.0):
        """Trapezoidal ``(1 / 2 pi i) * integral`` of the function whose values
        (scalars or arrays, any iterable) at ``points(phase)`` are ``values``."""
        unit = (self.points(phase) - self.center) / self.radius
        total = 0.0 + 0.0j
        for u, v in zip(unit, values, strict=True):
            total += u * v
        return self.radius * total / self.nodes


@dataclass(frozen=True)
class IndexReport:
    """Result of one argument-principle quadrature."""

    raw: complex
    rounded: int
    residual: float
    min_sv_on_contour: float
    #: distance of ``raw`` to the sum of the same pass on half its nodes
    half_gap: float

    @property
    def certified(self) -> bool:
        """The only rule for when a count certifies: ``raw`` lies within
        :data:`RESIDUAL_TOL` of an integer and of the half-node sum, and the
        family stays invertible on the contour."""
        return (self.residual < RESIDUAL_TOL and self.half_gap < RESIDUAL_TOL
                and self.min_sv_on_contour > 0)

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


def _fro_norms(stacks) -> np.ndarray:
    """Frobenius norm of every matrix of every stack, shaped ``(stacks, N)``."""
    return np.sqrt([
        np.einsum("nij,nij->n", s.real, s.real) + np.einsum("nij,nij->n", s.imag, s.imag)
        for s in stacks
    ])


def _screened_min(stacks, norms: np.ndarray, decompose) -> np.ndarray:
    """Min over the stacks of ``decompose(stack)`` at each point, computing a
    value only where it could set the minimum.

    ``decompose`` maps a stack to one value per matrix, and ``norms[i]``
    bounds the values of stack ``i`` from below by ``1 - norms[i]`` (an
    eigenvalue distance ``|mu + 1| >= 1 - ||T||_F``, a singular value
    ``sigma_min(I + T) >= 1 - ||T||_F``).  Stacks are visited in descending
    norm, and a matrix is skipped where its bound ``(1 - SCREEN * norm) /
    SCREEN`` exceeds the minimum so far: its value could only be larger.  A
    matrix with a NaN norm is never skipped.  LAPACK results are per matrix
    and ``np.minimum`` is exact, so the minima equal the unscreened ones bit
    for bit.
    """
    best = np.full(norms.shape[1], math.inf)
    for i in np.argsort(-norms.max(axis=1)):
        need = ~((1.0 - SCREEN * norms[i]) / SCREEN > best)
        if need.all():
            best = np.minimum(best, decompose(stacks[i]))
        elif need.any():
            best[need] = np.minimum(best[need], decompose(stacks[i][need]))
    return best


def _sv_min(stack: np.ndarray) -> np.ndarray:
    """Smallest singular value of each matrix of a stack."""
    return np.linalg.svd(stack, compute_uv=False).min(axis=-1)


def _trace_and_sv(lams, fv, fp) -> tuple[np.ndarray, np.ndarray]:
    """``Tr[F^{-1} F']`` and the min singular value of ``F`` at each node of a chunk.

    ``fv``/``fp`` are the values of ``F`` and ``F'`` at the nodes ``lams``.
    Diagonal ``(N, n)`` stacks give the moduli of their entries as singular
    values and ``sum F'_ii / F_ii`` as traces.  Matrix stacks (the sandwich
    of the reference route) are decomposed one block slot per LAPACK call,
    every block: the norm screen is the grid's alone.  The singular values
    come first, so a node below :data:`SV_FLOOR` raises
    :class:`SingularOnContour` before any solve.  Traces add up slot by slot
    in block order, as for a single node.
    """
    fv, fp = _block_list(fv), _block_list(fp)
    diagonal = fv[0][1].ndim == 2
    sv = np.min([np.abs(blk).min(axis=1) if diagonal else _sv_min(blk) for _, blk in fv], axis=0)
    low = np.flatnonzero(sv < SV_FLOOR)
    if low.size:
        raise SingularOnContour(
            f"family singular at contour node {lams[low[0]]:.6g} (sv={sv[low[0]]:.3g})"
        )
    traces = np.zeros(len(lams), dtype=complex)
    for (mult, blk), (_, blkp) in zip(fv, fp):
        if diagonal:
            traces += mult * (blkp / blk).sum(axis=1)
        else:
            traces += mult * np.trace(np.linalg.solve(blk, blkp), axis1=-2, axis2=-1)
    return traces, sv


def contour_index(f, fprime, contour: ContourSpec) -> IndexReport:
    """Count characteristic values of ``f`` inside the contour.

    ``f(lams)`` returns the family values at a 1-D array of nodes, stacked
    along the first axis (an array or a block list, see the module
    docstring); ``fprime`` its derivative, in the same form.  With
    ``fprime=None``, ``f(lams)`` returns the pair ``(F, F')`` from one
    evaluation.  The report of the first pass that certifies
    (:attr:`IndexReport.certified`: its sum lies within :data:`RESIDUAL_TOL`
    of an integer and of the sum with half the nodes, its even-indexed ones)
    is returned; else the nodes double, up to :data:`MAX_DOUBLINGS` times.

    Raises
    ------
    InvalidParameter
        If the node count is odd: the half rule needs equispaced nodes.
    SingularOnContour
        If the family drops below :data:`SV_FLOOR` at some node (after one
        automatic node-phase nudge).
    NonConvergent
        If no pass certifies.
    CapacityExceeded
        If the node arrays of the last doubling would not fit the memory
        budget.
    """
    _check_even_nodes(contour.nodes)
    # the last doubling's nodes, traces in chunks, joined and weighted, and
    # the angles, exponentials, nodes and unit phases of ContourSpec.integrate
    most = contour.nodes << MAX_DOUBLINGS
    _check_budget(8 * np.dtype(complex).itemsize * most, f"{most} contour nodes")
    for _ in range(MAX_DOUBLINGS + 1):
        try:
            report = _quadrature_pass(f, fprime, contour, 0.0)
        except SingularOnContour:
            report = _quadrature_pass(f, fprime, contour, math.pi / contour.nodes)
        if report.certified:
            return report
        last, contour = contour.nodes, replace(contour, nodes=2 * contour.nodes)
    raise NonConvergent(f"index residual {report.residual:.3g} and {last // 2}-node gap "
                        f"{report.half_gap:.3g} after {last} nodes")


def _check_even_nodes(nodes: int) -> None:
    """Refuse an odd node count: the even-indexed nodes of an odd rule are not
    equispaced, so the half sum of :func:`contour_index` could not check it."""
    if nodes % 2:
        raise InvalidParameter(f"contour needs an even node count, got {nodes}")


def _quadrature_pass(f, fprime, contour, phase) -> IndexReport:
    """The report of one pass over ``contour.points(phase)``, its half gap
    read from the rule with half the nodes on the same traces; ``f`` and
    ``fprime`` are as for :func:`contour_index`."""
    pts = contour.points(phase)
    # chunks are sized from the blocks of the first node's F
    probe = f(pts[:1])
    step = _chunk_len(probe[0] if fprime is None else probe)
    chunks, min_sv = [], math.inf
    for start in range(0, contour.nodes, step):
        lams = pts[start:start + step]
        pair = f(lams) if fprime is None else (f(lams), fprime(lams))
        traces, svs = _trace_and_sv(lams, *pair)
        chunks.append(traces)
        min_sv = min(min_sv, *svs)
    traces = np.concatenate(chunks)
    raw = contour.integrate(traces, phase)
    # the rule on the even-indexed nodes weighs them by 2 / nodes, the odd ones by 0
    half = contour.integrate(traces * np.resize([2.0, 0.0], traces.size), phase)
    rounded = int(round(raw.real))
    return IndexReport(complex(raw), rounded, float(abs(raw - rounded)), float(min_sv),
                       float(abs(raw - half)))


# -- resonance machinery ---------------------------------------------------------


def _sign_for(threshold: str) -> int:
    if threshold not in ("minus", "plus"):
        raise InvalidParameter(f"threshold must be 'minus' or 'plus', got {threshold!r}")
    return 1 if threshold == "minus" else -1


def _family(factory: BSFactory, sign: int, eps0: float | None = None):
    """Evaluators for F = I + T and F' = T' as block lists: the sandwich
    family, the reference route for the counts of :func:`_pivot_family`.

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


def _pivot_family(factory: BSFactory, sign: int):
    """The evaluator ``f(lams) -> (F, F')`` of the pivots of ``det(I + T)``
    on the support's ancestor closure ``C`` and their derivatives, from one
    sweep, each as ``(multiplicity, (N, n))`` diagonal pairs
    (:class:`~spectree.fredholm.FredholmPivots`): the family the ladder and
    ``index`` count on, with ``fprime=None``.  Its zeros are those of
    :func:`_family`, with multiplicity, at O(|C|) per parameter or less.

    The pivots read ``J * sqrt_abs**2``, the factors the sandwich itself
    uses, not ``m``: the two differ by rounding
    (:func:`~spectree.birman_schwinger.polar_factors`)."""
    m = factory.j_phase * factory.sqrt_abs**2
    return FredholmPivots(factory.tree.k, factory.support, m, factory.eps0).family(sign)


def _flags(blocks, dist: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Resonance flags ``dist < RESONANCE_RTOL * (1 + ||T||_2)`` of a chunk.

    ``||T||_2`` is the largest spectral norm over the stacked blocks, and
    ``norms`` holds their Frobenius norms (:func:`_fro_norms`).  The Frobenius
    norm bounds the spectral norm from above, so only points that pass the
    Frobenius screen need the exact norm.  The screen's margin
    :data:`SCREEN` covers the rounding of both computed norms, so the flags
    equal the exact test.
    """
    fro = norms.max(axis=0)
    flags = np.zeros(dist.shape, dtype=bool)
    for i in np.nonzero(dist < RESONANCE_RTOL * (1.0 + SCREEN * fro))[0]:
        tnorm = max(float(np.linalg.norm(b[i], 2)) for _, b in blocks)
        flags[i] = dist[i] < RESONANCE_RTOL * (1.0 + tnorm)
    return flags


def _eig_dist(stack: np.ndarray) -> np.ndarray:
    """Distance of the spectrum of each matrix of a stack to ``-1``."""
    return np.abs(np.linalg.eigvals(stack) + 1.0).min(axis=-1)


def _grid_chunk(factory: BSFactory, lams: np.ndarray, sign):
    """Distance of the spectrum of T to ``-1``, min singular value of ``I + T``
    and the resonance flag at each parameter of a chunk.

    Both minima are screened by ``||T||_F`` (:func:`_screened_min`).  The
    blocks of ``T`` become ``I + T`` in place once the distances and flags
    are read, so a chunk holds one copy of its stack.
    """
    blocks = factory.blocks(lams, sign)
    stacks = [b for _, b in blocks]
    norms = _fro_norms(stacks)
    dist = _screened_min(stacks, norms, _eig_dist)
    flags = _flags(blocks, dist, norms)
    for b in stacks:
        b += np.eye(b.shape[-1])
    return dist, _screened_min(stacks, norms, _sv_min), flags


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

#: one CSV row of 17-digit fields, as ``csv.writer`` (excel dialect) writes it
ROW = "%.17g,%.17g,%.17g,%.17g\r\n"


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

    Runs the argument-principle counter on the pivot family
    (:func:`_pivot_family`) on the geometric ladder of circles
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
    if r_min >= r_max:
        raise InvalidParameter(f"annulus needs r_min < r_max, got ({r_min}, {r_max})")
    if grid < 1:
        raise InvalidParameter(f"grid must be >= 1, got {grid}")
    # the grid points and their rows
    _check_budget(
        grid * grid * (np.dtype(complex).itemsize + len(CSV_HEADER) * np.dtype(float).itemsize),
        f"{grid} x {grid} grid points and rows",
    )
    factory = factory or BSFactory(t, b, spec)
    eps0 = factory.eps0
    if not 0.0 < r_min < r_max < eps0:
        raise OutOfDisk(
            f"annulus ({r_min}, {r_max}) must sit inside the working disk (0, {eps0:.3g})"
        )
    sign = _sign_for(threshold)

    circles = [r_min]
    while circles[-1] * LADDER_FACTOR <= r_max * (1.0 + 1e-12):
        circles.append(circles[-1] * LADDER_FACTOR)
    if circles[-1] < r_max * (1.0 - 1e-12):
        circles.append(r_max)
    contours = [ContourSpec(0.0, radius, nodes) for radius in circles]
    _check_even_nodes(nodes)

    points = _polar_grid(r_min, r_max, grid)
    grid_rows = np.empty((points.size, len(CSV_HEADER)))
    # the probe builds a table's kernel here, once: cached_property has no
    # lock from Python 3.12 on, so two pool threads could each build it
    step = _grid_chunk_len(factory.blocks(points[:1], sign), points.size)
    starts = range(0, points.size, step)

    flagged = 0
    with ThreadPoolExecutor(pool_size()) as pool:
        futures = [pool.submit(_grid_chunk, factory, points[s:s + step], sign) for s in starts]
        try:
            # the pivots are set up while the pool works through the grid
            f = _pivot_family(factory, sign)
            ladder = [(c.radius, contour_index(f, None, c)) for c in contours]
            with open(csv_path, "w", newline="") if csv_path else nullcontext() as sink:
                if sink:
                    sink.write(",".join(CSV_HEADER) + "\r\n")
                for start, future in zip(starts, futures):
                    dist, minsv, flags = future.result()
                    lams = points[start:start + step]
                    rows = grid_rows[start:start + step]
                    np.stack([lams.real, lams.imag, dist, minsv], axis=1, out=rows)
                    flagged += int(flags.sum())
                    if sink:
                        sink.write("".join(ROW % tuple(r) for r in rows.tolist()))
        finally:
            # a failure leaves the chunks that have not started unrun
            for future in futures:
                future.cancel()

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
    eye = np.eye(op.shape[0])
    proj = contour.integrate(np.linalg.solve(zeta * eye - op, eye) for zeta in contour.points())
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
    h = perturbed_operator(t, spec)
    # the off-diagonal entries are real, so h is real where its diagonal is
    if not h.diagonal().imag.any():
        eigs = np.linalg.eigvalsh(h.real).astype(complex)
    else:
        eigs = np.linalg.eigvals(h)
        eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    return SpectrumResult(
        eigenvalues=eigs, inside_band=_distance_to_band(t.k, eigs) <= BAND_TOL,
        t_minus=t_minus(t.k), t_plus=t_plus(t.k),
    )
