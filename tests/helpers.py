"""Shared synthetic families for argument-principle tests.

Families take a scalar or a 1-D array of parameters; an array of ``N``
parameters gives the values stacked to shape ``(N, n, n)``.
"""
import dataclasses
import math
import random

import numpy as np
from numpy.polynomial import Polynomial

from spectree import PotentialSpec
from spectree.charval import IndexReport
from spectree.decomposition import helmert_complement


def det_winding_oracle(f, contour, nodes=4096):
    """Winding number of det F along the contour by phase unwrapping."""
    pts = dataclasses.replace(contour, nodes=nodes).points()
    phases = np.unwrap(np.angle(np.linalg.det(f(pts))))
    closing = np.angle(np.linalg.det(f(pts[0]))) - phases[-1]
    closing = (closing + np.pi) % (2 * np.pi) - np.pi
    return round((phases[-1] + closing - phases[0]) / (2 * np.pi))


def diag_rows(lam, diagonal):
    """The diagonal at each parameter; entries are scalars or arrays like ``lam``.

    A 1-D array ``lam`` gives an ``(N, n)`` array, the diagonal form of a family.
    """
    return np.stack(np.broadcast_arrays(*diagonal, lam)[:-1], axis=-1)


def diag_stack(lam, diagonal):
    """``diag(diagonal)`` at each parameter, as :func:`diag_rows`.

    A scalar ``lam`` gives one ``(n, n)`` matrix, a 1-D array an ``(N, n, n)`` stack.
    """
    return diag_rows(lam, diagonal)[..., :, None] * np.eye(len(diagonal))


def planted_family(rng, n, zeros, decoys=()):
    """F(lam) = U diag(d_i(lam)) V with chosen zeros planted in the diagonal.

    ``zeros``/``decoys`` are (position, multiplicity) pairs; the analytic
    derivative comes from exact polynomial differentiation.  A scalar ``lam``
    is the ``N = 1`` case of the stacked evaluation, so both agree bit for bit.
    """
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    polys = []
    for _ in range(n):
        c = 1.0 + 0.2 * rng.standard_normal() + 0.1j * rng.standard_normal()
        polys.append(Polynomial([c]))
    for idx, (z0, mult) in enumerate(tuple(zeros) + tuple(decoys)):
        slot = idx % n
        polys[slot] = polys[slot] * Polynomial([-z0, 1.0]) ** mult
    dpolys = [p.deriv() for p in polys]

    def evaluate(ps, lam):
        lams = np.atleast_1d(np.asarray(lam, dtype=complex))
        out = u @ diag_stack(lams, [p(lams) for p in ps]) @ v
        return out if np.ndim(lam) else out[0]

    return (lambda lam: evaluate(polys, lam)), (lambda lam: evaluate(dpolys, lam))


def reference_pass(f, fprime, contour):
    """One trapezoidal pass evaluated one node per call, without chunking,
    with the rule on its even-indexed nodes (weight ``2 / nodes``) summed
    beside it for the half gap.

    A family value is a list of ``(multiplicity, stack)`` pairs; a 2-D
    ``(1, n)`` stack is the diagonal matrix ``diag(row)``.  With
    ``fprime=None``, ``f`` returns the pair ``(F, F')``.
    """
    if fprime is None:
        return reference_pass(lambda lam: f(lam)[0], lambda lam: f(lam)[1], contour)
    pts = contour.points()
    unit = (pts - contour.center) / contour.radius
    total = half = 0.0 + 0.0j
    min_sv = math.inf
    for i, (lam, u) in enumerate(zip(pts, unit)):
        tr = 0.0 + 0.0j
        sv = math.inf
        for (mult, blk), (_, blkp) in zip(f([lam]), fprime([lam])):
            if blk.ndim == 2:
                tr += mult * np.sum(blkp[0] / blk[0])
                sv = min(sv, float(np.abs(blk[0]).min()))
            else:
                tr += mult * np.trace(np.linalg.solve(blk[0], blkp[0]))
                sv = min(sv, float(np.linalg.svd(blk[0], compute_uv=False).min()))
        min_sv = min(min_sv, sv)
        total += u * tr
        if i % 2 == 0:
            half += u * (2.0 * tr)
    raw = contour.radius * total / contour.nodes
    gap = abs(raw - contour.radius * half / contour.nodes)
    rounded = int(round(raw.real))
    return IndexReport(complex(raw), rounded, float(abs(raw - rounded)), float(min_sv),
                       float(gap))


def sandwich_table_spec(seed=0):
    """Non-radial table on the 63 vertices of depth <= 5 of the binary tree:
    ``|M(v)| = 0.3 exp(-6 ln 2 |v|)``, phases drawn from the seed, root
    ``0.3 - 0.2j`` (the potential of the benchmark's ``sandwich-table``)."""
    rng = random.Random(seed)
    delta = 6 * math.log(2.0)
    values = [(0, 0.3 - 0.2j)]
    for v in range(1, 63):
        depth = (v + 1).bit_length() - 1
        phase = rng.uniform(0.0, 2.0 * math.pi)
        modulus = 0.3 * math.exp(-delta * depth)
        values.append((v, modulus * complex(math.cos(phase), math.sin(phase))))
    return PotentialSpec.table(values, delta)


def sorted_kernel_labels(t, rows, cols):
    """The depth-triple labels and coefficient map of ``ResolventKernel`` built
    by sorting, as the reference for its counting.

    Each pair is coded by ``(|x|, |y|, gap)`` in the box of all depths up to
    the deepest, its meet depth is found by taking every ancestor afresh at
    each level, and its label is the rank of its code under ``np.unique``.
    Returns the ``_code``, ``_coef``, ``_sum_idx`` and ``_diff_idx`` arrays
    and ``max_exponent``.
    """
    k = t.k
    da = np.searchsorted(t.sphere_offsets, rows, side="right") - 1
    db = np.searchsorted(t.sphere_offsets, cols, side="right") - 1
    top_a, top_b = int(da.max(initial=0)), int(db.max(initial=0))
    n_gap, n_b = 1 if k == 1 else min(top_a, top_b) + 1, top_b + 1
    small = np.min_scalar_type(t.depth)
    kind = np.result_type(np.min_scalar_type((top_a + 1) * n_b * n_gap), small)
    pa, pb = rows - t.sphere_offsets[da], cols - t.sphere_offsets[db]
    if n_gap == 1:
        gap = np.zeros((da.size, db.size), small)
    else:
        gap = np.minimum.outer(da.astype(small), db.astype(small))
    for r in range(1, n_gap):
        up_a = np.where(da >= r, pa // k ** np.maximum(da - r, 0), -1)
        up_b = np.where(db >= r, pb // k ** np.maximum(db - r, 0), -2)
        gap -= up_a[:, None] == up_b
    code = (da * n_b * n_gap).astype(kind)[:, None] + (db * n_gap).astype(kind) + gap
    found, rank = np.unique(code, return_inverse=True)
    a, rest = np.divmod(found.astype(np.intp), n_b * n_gap)
    b, g = np.divmod(rest, n_gap)
    c = np.minimum(a, b) - g
    top = c + (g > 0)
    n = np.arange(n_gap)[:, None]
    proj = np.where(n == 0, 1.0, np.where(n <= c, 1.0 - 1.0 / k, -1.0 / k))
    return {
        "_code": rank.reshape(code.shape),
        "_coef": np.where(n <= top, proj * float(k) ** (n - (a + b) / 2.0), 0.0),
        "_sum_idx": np.where(n <= top, a + b - 2 * n + 2, 0),
        "_diff_idx": np.abs(a - b),
        "max_exponent": top_a + top_b + 2,
    }


def stacked_spheres(t):
    """Each sphere's basis columns built family by family and stacked, as the
    reference for ``SphericalBasis.spheres``.

    Block ``n`` is its newborn columns (a Kronecker product of Helmert blocks)
    raised by ``np.repeat(..., k, axis=0) * 1/sqrt(k)`` one sphere at a time;
    sphere ``r`` is ``np.hstack`` of the nonempty blocks ``n = 0 ... r``.
    """
    k = t.k
    inv_sqrt_k = 1.0 / np.sqrt(k)
    on_sphere = [[] for _ in range(t.depth + 1)]
    for n in range(t.depth + 1):
        if n == 0:
            c = np.ones((1, 1))
        elif k == 1:
            continue
        else:
            c = np.kron(np.eye(k ** (n - 1)), helmert_complement(k))
        on_sphere[n].append(c)
        for r in range(n + 1, t.depth + 1):
            c = np.repeat(c, k, axis=0) * inv_sqrt_k
            on_sphere[r].append(c)
    return [np.hstack(blocks) for blocks in on_sphere]
