"""Operators on the truncated tree, materialized as numpy arrays.

Conventions
-----------
* Full operators (adjacency, raising/lowering, the Laplacian) are dense
  2-D ``float64`` arrays; mixing them with complex data upcasts
  automatically.  They are references for tests and demos: ``validate``
  checks the operators on the parent index itself, with the adjacency's
  spectral radius bounded by :func:`adjacency_radius_bound`, and the direct
  solve eliminates on the tree without any matrix.  The scipy forms
  ``adjacency_sparse`` and ``free_operator_sparse`` are kept for tests and
  tracing.  Only ``spectrum``, which needs every eigenvalue, builds a dense
  operator.
* Multiplication operators (degree terms, potentials, parity, weights)
  are represented by their diagonal as 1-D arrays.
* The Laplacian is always formed with the *untruncated* vertex degrees
  ``k + 1 - d0``, so the truncated operator is the compression of the
  full-tree operator and its spectrum stays inside the numerical range.

The perturbed operator splits as ``(-adjacency + (k+1)) + m_tilde`` where
``m_tilde = -d0 + potential`` carries the whole perturbation, including
the root degree defect.  Only :class:`PotentialSpec` reads a potential's
kind; other modules ask its ``radial`` and ``support_depth``.  Its decay
certificate reads the potential's own entries (one for radial-exp, the
listed vertices of a table), so ``m_tilde`` is the one array of the ball it
builds.
"""
from __future__ import annotations

import cmath
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import AssumptionViolated, InvalidParameter
from .tree import VERTEX_CAP, TreeGraph, sphere_of

# scipy is imported inside the sparse functions, which no command calls, so
# that no command loads it
if TYPE_CHECKING:
    import scipy.sparse as sp

#: admissibility rule for the decay rate: delta > 0 when k = 1,
#: delta >= 6 ln k otherwise.
_DECAY_SLACK = 1e-12

#: support cutoff: vertices with |m| below this are dropped from the sandwich
SUPPORT_CUTOFF = 1e-14


def _parent_indices(t: TreeGraph) -> tuple[np.ndarray, np.ndarray]:
    v = np.arange(1, t.vertex_count, dtype=np.int64)
    return v, (v - 1) // t.k


def adjacency(t: TreeGraph) -> np.ndarray:
    """Dense adjacency matrix: 1 whenever two vertices share an edge."""
    a = np.zeros((t.vertex_count, t.vertex_count))
    v, p = _parent_indices(t)
    a[v, p] = 1.0
    a[p, v] = 1.0
    return a


def adjacency_radius_bound(t: TreeGraph) -> float:
    """Upper bound on the adjacency's spectral radius, from the parent index.

    For ``a >= 0`` and any ``x > 0``, ``rho(a) <= max_v (a x)_v / x_v``
    (Collatz-Wielandt).  With ``x_v = k**(-|v|/2) sin(pi (|v| + 1) / (R + 2))``
    every ratio is ``2 sqrt(k) cos(pi / (R + 2))`` up to rounding: ``x`` is the
    Perron vector, so the bound is the radius itself, below ``2 sqrt(k)``.
    """
    r = t.depths()
    x = float(t.k) ** (-0.5 * r) * np.sin(math.pi * (r + 1) / (t.depth + 2))
    v, p = _parent_indices(t)
    ax = np.zeros(t.vertex_count)
    ax[v] = x[p]
    ax += np.bincount(p, weights=x[v], minlength=t.vertex_count)
    return float((ax / x).max())


def adjacency_sparse(t: TreeGraph) -> sp.csr_matrix:
    """CSR adjacency, for trees too large to hold densely."""
    import scipy.sparse as sp

    v, p = _parent_indices(t)
    rows = np.concatenate([v, p])
    cols = np.concatenate([p, v])
    data = np.ones(rows.size)
    return sp.csr_matrix((data, (rows, cols)), shape=(t.vertex_count, t.vertex_count))


def raising(t: TreeGraph) -> np.ndarray:
    """Sum over the parent: maps functions on ``S_r`` into ``S_{r+1}``."""
    a = np.zeros((t.vertex_count, t.vertex_count))
    v, p = _parent_indices(t)
    a[v, p] = 1.0
    return a


def lowering(t: TreeGraph) -> np.ndarray:
    """Sum over the children; the transpose of :func:`raising`."""
    return raising(t).T.copy()


def degree_terms(t: TreeGraph) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals ``(d, d0)`` with ``d = k + 1 - d0`` and ``d0`` the root indicator."""
    d0 = np.zeros(t.vertex_count)
    d0[0] = 1.0
    d = (t.k + 1.0) - d0
    return d, d0


def laplacian(t: TreeGraph) -> np.ndarray:
    """``-adjacency + diag(k + 1 - d0)``, the compression of the full-tree Laplacian."""
    d, _ = degree_terms(t)
    m = -adjacency(t)
    m[np.diag_indices_from(m)] += d
    return m


def free_operator(t: TreeGraph) -> np.ndarray:
    """``-adjacency + (k+1)``: the unperturbed operator whose band is [t-, t+]."""
    m = -adjacency(t)
    m[np.diag_indices_from(m)] += t.k + 1.0
    return m


def free_operator_sparse(t: TreeGraph) -> sp.csr_matrix:
    import scipy.sparse as sp

    m = -adjacency_sparse(t)
    return (m + sp.identity(t.vertex_count, format="csr") * (t.k + 1.0)).tocsr()


def theta(t: TreeGraph) -> np.ndarray:
    """Diagonal of the depth-parity involution ``(-1)**|v|``.

    Conjugation by it flips the sign of the adjacency and fixes every
    multiplication operator, which is what maps one spectral edge onto
    the other.
    """
    return np.where(t.depths() % 2 == 0, 1.0, -1.0)


def weights(t: TreeGraph, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Exponential weight diagonals ``e∓ = exp(∓(delta/2)|v|)``.

    The pair multiplies to the identity; sandwiching the resolvent between
    the decaying weight on both sides is what makes it Hilbert-Schmidt.  An
    entry of ``e+`` that overflows is ``inf``, without a warning: the kernel
    reads only ``e-``.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise InvalidParameter(f"weight rate must be positive and finite, got {delta}")
    r = t.depths()
    e_minus = np.exp(-0.5 * delta * r)
    with np.errstate(over="ignore"):
        e_plus = np.exp(0.5 * delta * r)
    return e_minus, e_plus


def delta_floor(k: int) -> float:
    """Smallest admissible decay rate for branching factor ``k``."""
    return 0.0 if k == 1 else 6.0 * math.log(k)


@dataclass(frozen=True)
class PotentialSpec:
    """Per-vertex complex potential with an exponential decay certificate.

    Two kinds are supported:

    * ``radial-exp``: ``M(v) = amplitude * exp(-delta * |v|)``,
    * ``table``: explicit values on finitely many vertices, zero elsewhere.

    ``c_const`` is the positive certificate constant ``C`` in
    ``|M(v)| <= C * exp(-delta * |v|)``; when absent it is estimated on the
    truncation as ``max |M(v)| * exp(delta * |v|)``.
    """

    kind: str
    delta: float
    amplitude: complex = 0.0
    values: tuple[tuple[int, complex], ...] = ()
    c_const: float | None = None

    def __post_init__(self):
        if self.kind not in ("radial-exp", "table"):
            raise InvalidParameter(f"unknown potential kind {self.kind!r}")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise InvalidParameter(
                f"potential field 'delta' must be positive and finite, got {self.delta!r}"
            )
        # hypot, as abs() raises where finite parts have an overflowing modulus
        amp = self.amplitude
        if not math.isfinite(math.hypot(amp.real, amp.imag)):
            raise InvalidParameter(f"potential field 'amplitude' has no finite modulus: {amp!r}")
        if self.c_const is not None and not 0.0 < self.c_const < math.inf:
            raise InvalidParameter(f"potential field 'C' must be positive and finite: {self.c_const!r}")
        # a bool or float vertex is refused, not rounded to some other vertex
        odd = [v for v, _ in self.values if type(v) is not int]
        if odd:
            raise InvalidParameter(f"potential field 'values' has non-integer vertices {odd}")
        negative = [v for v, _ in self.values if v < 0]
        if negative:
            raise InvalidParameter(f"potential field 'values' has negative vertices {negative}")
        repeated = sorted(v for v, n in Counter(v for v, _ in self.values).items() if n > 1)
        if repeated:
            raise InvalidParameter(f"potential field 'values' repeats vertices {repeated}")
        nonfinite = [v for v, x in self.values if not math.isfinite(math.hypot(x.real, x.imag))]
        if nonfinite:
            raise InvalidParameter(
                f"potential field 'values' has no finite modulus at vertices {nonfinite}")

    @classmethod
    def radial_exp(cls, amplitude: complex, delta: float) -> "PotentialSpec":
        return cls(kind="radial-exp", delta=delta, amplitude=complex(amplitude))

    @classmethod
    def table(cls, values, delta: float, c_const: float | None = None) -> "PotentialSpec":
        # numpy integers become ints; __post_init__ refuses a bool or float
        vals = tuple((operator.index(v) if isinstance(v, np.integer) else v, complex(x))
                     for v, x in values)
        return cls(kind="table", delta=delta, values=vals, c_const=c_const)

    @property
    def radial(self) -> bool:
        """Whether ``M`` is constant on every sphere, as ``radial-exp`` is."""
        return self.kind == "radial-exp"

    def support_depth(self, k: int) -> int:
        """A depth, at least 4, holding the support down to :data:`SUPPORT_CUTOFF`
        (a table: one past its deepest vertex); :func:`build_tree` refuses a huge one."""
        if not self.radial:
            return max(sphere_of(k, max((v for v, _ in self.values), default=0)) + 1, 4)
        if self.amplitude == 0:
            return 4
        # in logs, so a huge amplitude does not overflow; the clamps keep a
        # tiny delta's +-inf out of ceil
        span = (cmath.log(self.amplitude).real - math.log(SUPPORT_CUTOFF)) / self.delta
        return max(4, math.ceil(min(max(span, 0.0), VERTEX_CAP)))

    def materialize(self, t: TreeGraph) -> np.ndarray:
        """Potential values on every vertex of the truncation (radial-exp's
        once per sphere, repeated over it).  Raises :class:`InvalidParameter`
        for a table vertex beyond ``t``, which would otherwise drop out of
        everything computed on ``t``."""
        if self.radial:
            per_sphere = complex(self.amplitude) * np.exp(-self.delta * np.arange(t.depth + 1))
            return np.repeat(per_sphere, np.diff(t.sphere_offsets))
        vertices, values = self._entries(t)
        m = np.zeros(t.vertex_count, dtype=complex)
        m[vertices] = values
        return m

    def _entries(self, t: TreeGraph) -> tuple[np.ndarray, np.ndarray]:
        """A table's vertices and values as arrays, each vertex checked to lie on ``t``."""
        deepest = max((v for v, _ in self.values), default=0)
        if deepest >= t.vertex_count:
            raise InvalidParameter(
                f"table vertex {deepest} lies beyond depth {t.depth}, "
                f"whose last vertex is {t.vertex_count - 1}"
            )
        return (np.array([v for v, _ in self.values], dtype=np.int64),
                np.array([x for _, x in self.values], dtype=complex))

    def check_assumption(self, t: TreeGraph) -> None:
        """Raise :class:`AssumptionViolated` unless the decay certificate holds:
        ``log|M(v)| + delta |v| <= log C`` (up to ``1e-12``) on the potential's
        own nonzero entries: the root's amplitude for radial-exp, and a table's
        listed vertices (:class:`InvalidParameter` if one lies beyond ``t``).
        """
        floor = delta_floor(t.k)
        if self.delta < floor - _DECAY_SLACK:
            raise AssumptionViolated(
                f"decay rate {self.delta:.6g} below the admissible floor "
                f"{floor:.6g} for k={t.k}"
            )
        if self.radial:
            vertices, values = np.zeros(1, dtype=np.int64), np.array([self.amplitude])
        else:
            vertices, values = self._entries(t)
        nz = np.flatnonzero(values)
        # in log space: exp(delta |v|) overflows on deep vertices that carry weight
        log_m = np.log(np.abs(values[nz])) + self.delta * sphere_of(t.k, vertices[nz])
        if self.c_const is not None:
            c = float(self.c_const)
        else:
            log_c = np.max(log_m, initial=-np.inf)
            if log_c > math.log(np.finfo(float).max):
                raise AssumptionViolated(
                    f"decay certificate constant C = exp({log_c:.6g}) overflows a float"
                )
            c = math.exp(log_c)
        if log_m.size and log_m.max() > math.log(c) + 1e-12:
            raise AssumptionViolated("materialized potential exceeds its certificate")

    # -- JSON wire format ---------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "radial-exp":
            out = {
                "kind": "radial-exp",
                "amplitude": {"re": self.amplitude.real, "im": self.amplitude.imag},
                "delta": self.delta,
            }
        else:
            out = {
                "kind": "table",
                "values": [
                    {"v": v, "re": x.real, "im": x.imag} for v, x in self.values
                ],
                "delta": self.delta,
            }
        if self.c_const is not None:
            out["C"] = self.c_const
        return out

    @classmethod
    def from_json(cls, obj: dict | str) -> "PotentialSpec":
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except json.JSONDecodeError as exc:
                raise InvalidParameter(f"potential JSON is malformed: {exc}") from None
        if not isinstance(obj, dict):
            raise InvalidParameter("potential JSON must be an object")
        kind = obj.get("kind")
        delta = _field(obj, "delta", float)
        c = _field(obj, "C", float) if "C" in obj else None
        if kind == "radial-exp":
            amp = _field(obj, "amplitude", _complex_field)
            spec = cls(kind="radial-exp", delta=delta, amplitude=amp, c_const=c)
        elif kind == "table":
            vals = _field(obj, "values", lambda entries: tuple(
                (e["v"], complex(float(e["re"]), float(e.get("im", 0.0))))
                for e in entries
            ))
            spec = cls(kind="table", delta=delta, values=vals, c_const=c)
        else:
            raise InvalidParameter(f"unknown potential kind {kind!r}")
        return spec


def _field(obj: dict, name: str, convert):
    """``convert(obj[name])``, failing with the field's name."""
    if name not in obj:
        raise InvalidParameter(f"potential JSON lacks {name!r}")
    try:
        return convert(obj[name])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"potential field {name!r} is invalid: {exc!r}") from None


def _complex_field(x) -> complex:
    if isinstance(x, dict):
        return complex(float(x["re"]), float(x.get("im", 0.0)))
    return complex(x)


def m_tilde(t: TreeGraph, spec: PotentialSpec | None) -> np.ndarray:
    """Diagonal of the effective perturbation ``-d0 + M``, with ``M``
    admissibility-checked by :meth:`PotentialSpec.check_assumption`."""
    if spec is not None:
        spec.check_assumption(t)
    # -0j: the negated zeros of -d0, bit for bit
    m = np.full(t.vertex_count, -0j) if spec is None else spec.materialize(t)
    m[0] -= 1.0
    return m


def perturbed_operator(t: TreeGraph, spec: PotentialSpec | None) -> np.ndarray:
    """Dense ``-adjacency + (k+1) + diag(m_tilde)``."""
    h = free_operator(t).astype(complex)
    h[np.diag_indices_from(h)] += m_tilde(t, spec)
    return h
