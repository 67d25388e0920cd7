"""Shared synthetic families for argument-principle tests.

Families take a scalar or a 1-D array of parameters; an array of ``N``
parameters gives the values stacked to shape ``(N, n, n)``.
"""
import math

import numpy as np
from numpy.polynomial import Polynomial

from spectree.charval import IndexReport


def det_winding_oracle(f, contour, nodes=4096):
    """Winding number of det F along the contour by phase unwrapping."""
    pts = contour.points(nodes)
    phases = np.unwrap(np.angle(np.linalg.det(f(pts))))
    closing = np.angle(np.linalg.det(f(pts[0]))) - phases[-1]
    closing = (closing + np.pi) % (2 * np.pi) - np.pi
    return round((phases[-1] + closing - phases[0]) / (2 * np.pi))


def diag_stack(lam, diagonal):
    """``diag(diagonal)`` at each parameter; entries are scalars or arrays like ``lam``.

    A scalar ``lam`` gives one ``(n, n)`` matrix, a 1-D array an ``(N, n, n)`` stack.
    """
    d = np.stack(np.broadcast_arrays(*diagonal, lam)[:-1], axis=-1)
    return d[..., :, None] * np.eye(len(diagonal))


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
    """One trapezoidal pass evaluated one node per call, without chunking."""
    pts = contour.points()
    unit = (pts - contour.center) / contour.radius
    total = 0.0 + 0.0j
    min_sv = math.inf
    for lam, u in zip(pts, unit):
        tr = 0.0 + 0.0j
        sv = math.inf
        for (mult, blk), (_, blkp) in zip(f([lam]), fprime([lam])):
            tr += mult * np.trace(np.linalg.solve(blk[0], blkp[0]))
            sv = min(sv, float(np.linalg.svd(blk[0], compute_uv=False).min()))
        min_sv = min(min_sv, sv)
        total += u * tr
    raw = contour.radius * total / contour.nodes
    rounded = int(round(raw.real))
    return IndexReport(complex(raw), rounded, float(abs(raw - rounded)), float(min_sv))
