"""Command-line front end.

Subcommands
-----------
validate   run the cross-checking invariant suite, print a pass/fail table;
           its kernel row is the relative error ``kernel`` prints
kernel     closed-form kernel vs direct-solve reference, max/relative error,
           compared on one column per sphere (its first vertex) with each
           column weighted by the sphere size: by the tree symmetry these are
           the full V x V figures, and k=2 depth 16 fits well under 1 GiB
scan       absence-of-resonances certification over an annulus, CSV output
spectrum   eigenvalues of the perturbed truncation, CSV output
index      one argument-principle count, JSON output

Exit codes: 0 success, 1 usage error, 2 certification failure (including a
contour count that hits a singular node or never settles on an integer).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import charval, quadrature
from .birman_schwinger import BSFactory, hol_split
from .charval import ContourSpec, absence_scan, spectrum
from .decomposition import build_spherical_basis, verify_jacobi_form
from .errors import InvalidParameter, NonConvergent, SingularOnContour, SpectreeError
from .operators import (
    PotentialSpec,
    _parent_indices,
    adjacency_radius_bound,
    m_tilde,
    theta,
    weights,
)
from .resolvent import (
    ResolventKernel,
    SpectralPoint,
    _check_budget,
    _pow2_scale,
    direct_resolvent_block,
    from_lambda,
    from_z,
    sine_projected_coefficient,
    fourier_coefficient,
    t_minus,
)
from .tree import TreeGraph, build_tree, check_branching_factor, newborn_multiplicity

USAGE_ERROR, CERTIFICATION_FAILURE = 1, 2

#: rows of one panel of a sphere's Gram in ``validate``'s basis check
GRAM_PANEL_ROWS = 128

#: most relative Frobenius error of the weighted kernel against the direct
#: solve: ``kernel``'s exit code and ``validate``'s kernel row
KERNEL_REL_TOL = 1e-6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_potential(arg: str | None) -> PotentialSpec | None:
    if arg is None:
        return None
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            with open(arg, errors="replace") as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidParameter(f"--potential: cannot read {arg!r}: {exc.strerror}") from None
    return PotentialSpec.from_json(text)


def _check_out(path: str | None) -> None:
    """Fail with one ``--out`` error before any work if ``path`` cannot be written.

    A file the probe creates is removed again, so a later usage error leaves
    no empty file behind; an existing file is opened but not written.
    """
    if path is None:
        return
    try:
        created = not os.path.exists(path)
        with open(path, "a"):
            pass
        if created:
            os.remove(path)
    except OSError as exc:
        raise InvalidParameter(f"--out: cannot write {path!r}: {exc.strerror}") from None


def _complex_arg(flag: str, text: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise InvalidParameter(f"{flag}: not a complex literal: {text!r}") from None


def _default_jobs(value) -> int:
    # threads of a scan's grid pool, for the machine record of benchmarks/worker.py
    return charval.pool_size()


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared after it;
    parsing leaves it unchanged."""
    p = _Parser(prog="spectree", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, run, depth=None):
        # depth None is the command's auto depth
        sp.set_defaults(run=run)
        sp.add_argument("--k", type=int, required=True, help="branching factor")
        sp.add_argument("--depth", type=int, default=depth, help="truncation depth")
        sp.add_argument("--potential", default=None,
                        help="potential JSON (inline or file path)")

    v = sub.add_parser("validate", help="run the invariant suite")
    common(v, _cmd_validate, depth=8)

    kcmd = sub.add_parser("kernel", help="closed form vs direct solve")
    common(kcmd, _cmd_kernel, depth=8)
    point = kcmd.add_mutually_exclusive_group()
    point.add_argument("--z", default=None, help="spectral parameter (complex literal)")
    point.add_argument("--lam", default=None, help="edge parameter (complex literal)")
    kcmd.add_argument("--delta", type=float, default=None, help="weight decay rate")

    s = sub.add_parser("scan", help="absence-of-resonances certification")
    common(s, _cmd_scan)
    s.add_argument("--rmin", type=float, required=True)
    s.add_argument("--rmax", type=float, required=True)
    s.add_argument("--grid", type=int, default=32)
    s.add_argument("--nodes", type=int, default=256)
    s.add_argument("--threshold", choices=("minus", "plus"), default="minus")
    s.add_argument("--sv-floor", type=float, default=1e-4,
                   help="certification floor for min singular value")
    s.add_argument("--out", default=None, help="CSV output path")

    e = sub.add_parser("spectrum", help="eigenvalues of the perturbed truncation")
    common(e, _cmd_spectrum, depth=10)
    e.add_argument("--out", default=None, help="CSV output path")

    i = sub.add_parser("index", help="one argument-principle count")
    common(i, _cmd_index)
    i.add_argument("--center", default="0", help="contour center (complex literal)")
    i.add_argument("--radius", type=float, required=True)
    i.add_argument("--nodes", type=int, default=256)
    i.add_argument("--threshold", choices=("minus", "plus"), default="minus")
    return p


# -- validate ------------------------------------------------------------------

def _default_delta(k: int, spec: PotentialSpec | None) -> float:
    """Weight rate of ``validate`` and ``kernel``: the potential's decay rate,
    else ``max(1, 6 ln k)``."""
    return spec.delta if spec is not None else max(1.0, 6.0 * math.log(k))


def _validation_bytes(t: TreeGraph) -> int:
    """Peak bytes of the largest ``validate`` stage on ``t``.

    The basis stage holds the stored basis, one ``k**r x k**r`` array of
    floats per sphere, written in place, and one panel of a sphere's Gram at
    a time: at most :data:`GRAM_PANEL_ROWS` rows of the deepest sphere's
    Gram.  After the Gram, its Jacobi check of a block ``n < 5`` with three
    or more levels holds two of the block's levels above the truncation
    sphere, one of them lowered and one raised, all ``dims[n]`` columns wide, and four ``dims[n] x dims[n]`` arrays.
    The kernel stage compares ``V x (depth + 1)`` entries and holds at most
    eight complex numbers per entry: its coefficient map, with one depth
    triple per entry at k = 1, then the kernel, the direct solve and their
    difference.  It is the larger stage at k = 1, where it is ``V x V``.  One MiB more covers the fixed-size
    arrays, such as the quadrature nodes.  The Birman-Schwinger stage, run
    only with a potential, scales with the potential's support, and its
    kernel and solve check the budget themselves.
    """
    k, depth, size = t.k, t.depth, np.dtype(float).itemsize
    panel = size * min(GRAM_PANEL_ROWS, k**depth) * k**depth
    widths = [newborn_multiplicity(k, n) for n in range(min(depth - 1, 5))]
    jacobi = size * max((d * (2 * k ** (depth - 2) + 2 * k ** (depth - 1) + 4 * d) for d in widths),
                        default=0)
    basis = size * sum(k ** (2 * r) for r in range(depth + 1)) + max(panel, jacobi)
    kernel = 8 * np.dtype(complex).itemsize * t.vertex_count * (depth + 1)
    return max(basis, kernel) + 2**20


def _run_validation(k: int, depth: int, spec: PotentialSpec | None):
    """The invariant suite as ``(name, value, tol, passed)`` rows.

    Each stage builds its own arrays, so they are freed when it returns and
    the peak is that of the largest stage.
    """
    rows = []

    def check(name, value, tol):
        rows.append((name, float(value), tol, value <= tol))

    t = build_tree(k, depth)
    _check_budget(_validation_bytes(t), f"validate's checks on {t.vertex_count} vertices")
    e_m, e_p = weights(t, _default_delta(k, spec))
    _check_operators(t, spec, e_m, e_p, check)
    _check_basis(t, check)
    _check_kernel(t, e_m, check)
    if spec is not None:
        _check_birman_schwinger(t, spec, check)
    return rows


def _check_operators(t: TreeGraph, spec, e_m, e_p, check) -> None:
    k, depth, n = t.k, t.depth, t.vertex_count
    check("tree sphere sizes", max(abs(t.sphere_size(r) - k**r) for r in range(depth + 1)), 0)
    # the edges (v, p) of the parent map p = (v - 1) // k; every figure up to
    # the band row is an exact integer or an exact 0
    v, p = _parent_indices(t)
    # the two counts below read the edges against the sphere offsets, which
    # do not come from the parent map: a tree edge joins consecutive spheres
    r = t.depths()
    check("edge count = V - 1", abs(np.count_nonzero(r[v] == r[p] + 1) - (n - 1)), 0)
    # raising and lowering are the two directions of one edge: each vertex
    # lies in its parent's child range k p + 1 ... k p + k
    check("raising + lowering = adjacency", np.count_nonzero((v <= k * p) | (v > k * p + k)), 0)
    # the diagonal of lower.raise counts each vertex's children: k above the
    # deepest sphere and none on it, so the trace is k * interior
    check("trace of lower.raise = k * interior",
          np.abs(np.bincount(p, minlength=n) - k * (r < depth)).sum(), 0)
    check("adjacency band confinement",
          max(0.0, adjacency_radius_bound(t) - 2 * math.sqrt(k)), 1e-10)
    th = theta(t)
    edge = np.abs(th[v] * th[p] + 1).max(initial=0.0)
    check("parity conjugation flips adjacency", edge, 0)
    # th (-a + diag(s)) th = a + diag(s) with s = m + c: the edge term above
    # and a diagonal term
    shift = m_tilde(t, spec) + (k + 1 - (0.37 + 0.11j))
    check("edge-swap conjugation identity", max(edge, np.abs(th * shift * th - shift).max()), 1e-10)
    # where e+ overflows, e- = 1/e+ lies below the reciprocal of the largest float
    finite = np.isfinite(e_p)
    deviation = np.abs(e_m[finite] * e_p[finite] - 1).max(initial=0.0)
    if np.any(e_m[~finite] * np.finfo(float).max > 1.0):
        deviation = math.inf
    check("weight pair multiplies to identity", deviation, 1e-12)


def _check_basis(t: TreeGraph, check) -> None:
    b = build_spherical_basis(t)
    check("basis count = vertex count", abs(b.total_vectors() - t.vertex_count), 0)
    # columns on different spheres have disjoint support, so the Gram is block
    # diagonal: one k**r x k**r block per sphere r, read from the stored sphere.
    # The block is symmetric, so it is read in panels of rows i:j of its lower
    # triangle and diagonal, which check every column pair once
    worst = 0.0
    for cols in b.spheres:
        for i in range(0, cols.shape[1], GRAM_PANEL_ROWS):
            j = min(i + GRAM_PANEL_ROWS, cols.shape[1])
            panel = cols[:, i:j].T @ cols[:, :j]
            panel[:, i:][np.diag_indices(j - i)] -= 1.0
            worst = max(worst, np.abs(panel, out=panel).max())
            del panel
    check("basis Gram deviation", worst, 1e-10)
    jac = max((verify_jacobi_form(b, t, n) for n in range(min(t.depth, 5))), default=0.0)
    check("block Jacobi residual", jac, 1e-10)


def _check_kernel(t: TreeGraph, e_m: np.ndarray, check) -> None:
    k = t.k
    sp_ = from_z(k, -1.0 if k == 1 else t_minus(k) - 0.5)
    qf = max(
        abs(fourier_coefficient(n, sp_) - quadrature.fourier_quadrature(sp_.u, n))
        for n in range(7)
    )
    check("fourier coefficient vs quadrature", qf, 1e-10)
    qs = max(
        abs(sine_projected_coefficient(j, l, sp_)
            - quadrature.sine_projected_quadrature(k, sp_.z, j, l))
        for j in range(4) for l in range(4)
    )
    check("sine-projected coefficient vs quadrature", qs, 1e-10)
    check("weighted kernel vs direct solve (rel)", _kernel_errors(t, sp_, e_m)[1], KERNEL_REL_TOL)


def _check_birman_schwinger(t: TreeGraph, spec: PotentialSpec, check) -> None:
    # the factory's m_tilde raises AssumptionViolated unless the decay
    # certificate holds
    factory = BSFactory(t, None, spec)
    check("potential decay certificate", 0.0, 0)
    lam = 0.05j
    z = factory.point(lam).z
    tmat = factory.matrix(lam, +1)

    def sandwiched(g):
        # J sqrt|m| g sqrt|m| on the support, the form of the sandwich T
        return factory.j_phase[:, None] * factory.sqrt_abs[:, None] * g * factory.sqrt_abs[None, :]

    x = sandwiched(direct_resolvent_block(t, z, spec=spec, rows=factory.support,
                                          cols=factory.support))
    eye = np.eye(tmat.shape[0])
    # every row is relative to the size of its operands, so rounding alone
    # reads a few eps at any amplitude; none squares an unscaled entry
    s_res = (eye + tmat) @ (eye - x)
    s_res -= eye
    size = (1.0 + np.abs(tmat).max()) * (1.0 + np.abs(x).max())
    check("resolvent-identity residual", np.abs(s_res).max() / size, 1e-8)
    del x, s_res
    # T against the free direct solve: unlike the identity row, this loses no
    # digits as the amplitude grows, so a wrong T fails it at any amplitude
    scale = _pow2_scale(tmat)
    diff = tmat - sandwiched(direct_resolvent_block(t, z, rows=factory.support,
                                                    cols=factory.support))
    check("sandwich vs direct solve (rel)",
          np.linalg.norm(diff * scale) / np.linalg.norm(tmat * scale), 1e-8)
    del diff
    _, hol_res = hol_split(t, None, spec, lam, factory=factory)
    check("desingularized reconstruction residual",
          hol_res / (np.linalg.norm(tmat * scale) / scale), 1e-8)


def _cmd_validate(args, spec: PotentialSpec | None) -> int:
    rows = _run_validation(args.k, args.depth, spec)
    width = max(len(r[0]) for r in rows)
    ok = True
    for name, value, tol, passed in rows:
        ok &= passed
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  "
              f"value={_fmt(value)} tol={_fmt(float(tol))}")
    print(f"{'overall':<{width}}  {'PASS' if ok else 'FAIL'}")
    return 0 if ok else CERTIFICATION_FAILURE


# -- kernel ----------------------------------------------------------------------

def _sphere_column_errors(t: TreeGraph, closed: np.ndarray, oracle: np.ndarray) -> tuple[float, float]:
    """Max and relative Frobenius error over all V x V entries, from the columns
    at the first vertex of each sphere.

    Both routes are invariant under the tree automorphisms, which act
    transitively on each sphere, so every column of sphere ``b`` is a row
    permutation of its first one: its squared norm counts ``k**b`` times and
    the max is already attained.  The squares are taken after one exact
    power-of-two scaling, so tiny entries (huge ``|z|``) do not underflow.
    """
    sizes = np.diff(t.sphere_offsets)
    diff = closed - oracle
    scale = _pow2_scale(oracle)

    def weighted_sq(m):
        # in place, so the scaled copy adds no array to the squares' peak
        re, im = m.real * scale, m.imag * scale
        re *= re
        re += im * im
        return sizes @ re.sum(axis=0)

    rel = math.sqrt(weighted_sq(diff)) / math.sqrt(weighted_sq(oracle))
    return float(np.abs(diff).max()), rel


def _kernel_errors(t: TreeGraph, sp_: SpectralPoint, e_m: np.ndarray) -> tuple[float, float]:
    """:func:`_sphere_column_errors` of the closed-form kernel against the
    direct solve at ``sp_``, both weighted by ``e_m`` on each side."""
    cols = t.sphere_offsets[:t.depth + 1]
    kern = ResolventKernel(t, e_m, e_m, cols=cols).evaluate(sp_)
    oracle = e_m[:, None] * direct_resolvent_block(t, sp_.z, cols=cols) * e_m[cols]
    return _sphere_column_errors(t, kern, oracle)


def _cmd_kernel(args, spec: PotentialSpec | None) -> int:
    delta = args.delta if args.delta is not None else _default_delta(args.k, spec)
    if args.lam is not None:
        sp_ = from_lambda(args.k, _complex_arg("--lam", args.lam))
    else:
        z = _complex_arg("--z", args.z) if args.z is not None else t_minus(args.k) - 0.5
        sp_ = from_z(args.k, z)
    t = build_tree(args.k, args.depth)
    e_m, _ = weights(t, delta)
    max_err, rel = _kernel_errors(t, sp_, e_m)
    print(json.dumps({
        "k": args.k,
        "depth": args.depth,
        "z": {"re": sp_.z.real, "im": sp_.z.imag},
        "delta": delta,
        "max_abs_error": max_err,
        "rel_frobenius_error": rel,
    }))
    return 0 if rel <= KERNEL_REL_TOL else CERTIFICATION_FAILURE


# -- scan ------------------------------------------------------------------------

def _cmd_scan(args, spec: PotentialSpec | None) -> int:
    if not (math.isfinite(args.sv_floor) and args.sv_floor >= 0):
        raise InvalidParameter(f"--sv-floor must be finite and non-negative, got {args.sv_floor}")
    t = build_tree(args.k, args.depth)
    _check_out(args.out)
    report = absence_scan(
        t, None, spec, (args.rmin, args.rmax), args.grid, args.threshold,
        nodes=args.nodes, csv_path=args.out,
    )
    summary = {
        "threshold": report.threshold,
        "ladder": [
            {"radius": r, **rep.to_json()} for r, rep in report.ladder
        ],
        "min_sv": report.min_singular_value,
        "flagged": report.flagged,
        "rows": int(report.grid_rows.shape[0]),
    }
    print(json.dumps(summary))
    ok = report.all_indices_zero and report.min_singular_value > args.sv_floor
    return 0 if ok else CERTIFICATION_FAILURE


def _auto_depth(k: int, spec: PotentialSpec | None) -> int:
    """Depth of ``scan`` and ``index`` without ``--depth``."""
    return 8 if spec is None else spec.support_depth(k)


# -- spectrum --------------------------------------------------------------------

def _cmd_spectrum(args, spec: PotentialSpec | None) -> int:
    t = build_tree(args.k, args.depth)
    _check_out(args.out)
    result = spectrum(t, spec)
    lines = ["re,im,inside_band"]
    for e, inside in zip(result.eigenvalues, result.inside_band):
        lines.append(f"{_fmt(e.real)},{_fmt(e.imag)},{int(inside)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- index -----------------------------------------------------------------------

def _cmd_index(args, spec: PotentialSpec | None) -> int:
    center = _complex_arg("--center", args.center)
    t = build_tree(args.k, args.depth)
    factory = BSFactory(t, None, spec)
    f = charval._pivot_family(factory, charval._sign_for(args.threshold))
    report = charval.contour_index(f, None, ContourSpec(center, args.radius, args.nodes))
    print(json.dumps(report.to_json()))
    return 0 if report.certified else CERTIFICATION_FAILURE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every command does arithmetic on k before it builds a tree, and
        # reads the potential before its own flags
        check_branching_factor(args.k)
        spec = _load_potential(args.potential)
        if args.depth is None:
            args.depth = _auto_depth(args.k, spec)
        return args.run(args, spec)
    except SpectreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (SingularOnContour, NonConvergent)):
            return CERTIFICATION_FAILURE
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
