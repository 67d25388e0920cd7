"""Operator materialization: adjacency split, degree terms, potentials, weights."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from spectree import (
    PotentialSpec,
    adjacency,
    build_tree,
    degree_terms,
    laplacian,
    lowering,
    m_tilde,
    raising,
    theta,
    weights,
)
from spectree.errors import AssumptionViolated, InvalidParameter
from spectree.operators import adjacency_radius_bound, adjacency_sparse

LOG2 = math.log(2.0)


def test_path_adjacency_tridiagonal():
    a = adjacency(build_tree(1, 2))
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    assert np.array_equal(a, expected)


def test_star_eigenvalues():
    a = adjacency(build_tree(2, 1))
    eigs = np.sort(np.linalg.eigvalsh(a))
    assert np.allclose(eigs, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)


@pytest.mark.parametrize("k,depth", [(1, 8), (2, 6), (3, 4)])
def test_adjacency_symmetry_and_confinement(k, depth):
    a = adjacency(build_tree(k, depth))
    assert np.array_equal(a, a.T)
    eigs = np.linalg.eigvalsh(a)
    assert np.abs(eigs).max() <= 2.0 * math.sqrt(k) + 1e-10


@pytest.mark.parametrize("depth", range(8))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_adjacency_radius_bound_is_the_radius(k, depth):
    t = build_tree(k, depth)
    bound = adjacency_radius_bound(t)
    assert abs(bound - 2 * math.sqrt(k) * math.cos(math.pi / (depth + 2))) <= 1e-12
    if t.vertex_count <= 1400:
        radius = np.abs(np.linalg.eigvalsh(adjacency(t))).max()
    else:
        # up to 21,845 vertices: too many to diagonalize densely
        from scipy.sparse.linalg import eigsh

        radius = abs(eigsh(adjacency_sparse(t), k=1, which="LM", return_eigenvectors=False)[0])
    # the bound is the radius itself, so rounding may put it an ulp or two below
    assert bound >= radius - 1e-14


@pytest.mark.parametrize("k,depth", [(1, 6), (2, 5), (3, 4)])
def test_raising_lowering_split(k, depth):
    t = build_tree(k, depth)
    up, dn = raising(t), lowering(t)
    assert np.array_equal(dn, up.T)
    assert np.array_equal(up + dn, adjacency(t))
    # nothing points into the root sphere
    assert np.abs(up[0, :]).max() == 0.0
    # lower.raise = k on every vertex that still has children
    prod = dn @ up
    interior = t.vertex_count - t.sphere_size(depth)
    assert np.allclose(prod[:interior, :interior], k * np.eye(interior))
    assert np.trace(prod) == pytest.approx(k * interior)


def test_degree_terms_and_laplacian():
    t = build_tree(2, 3)
    d, d0 = degree_terms(t)
    assert d0[0] == 1.0 and np.all(d0[1:] == 0.0)
    assert np.all(d == 3.0 - d0)
    lap = laplacian(t)
    assert np.array_equal(lap, -adjacency(t) + np.diag(d))
    # actual truncated degrees: leaves have a single edge
    row_sums = adjacency(t).sum(axis=1)
    leaves = t.sphere(3)
    assert np.all(row_sums[leaves.start:leaves.stop] == 1.0)
    assert np.all(row_sums[1:leaves.start] == 3.0)


def test_theta_conjugations():
    t = build_tree(2, 2)
    th = theta(t)
    assert np.array_equal(th, [1, -1, -1, 1, 1, 1, 1])
    a = adjacency(t)
    assert np.abs(th[:, None] * a * th[None, :] + a).max() == 0.0
    spec = PotentialSpec.radial_exp(0.5 + 0.25j, 6 * LOG2)
    m = m_tilde(t, spec)
    assert np.abs(th * m * th - m).max() == 0.0
    # conjugation swaps the spectral parameter about the band center
    z = 0.83 + 0.41j
    eye = np.eye(t.vertex_count)
    lhs = th[:, None] * (-a + np.diag(m) + (3 - z) * eye) * th[None, :]
    rhs = -(-a + 3 * eye) + np.diag(m) + (6 - z) * eye
    assert np.abs(lhs - rhs).max() < 1e-14


def test_weights():
    t = build_tree(2, 5)
    delta = 6 * LOG2
    e_m, e_p = weights(t, delta)
    assert e_m[0] == 1.0 and e_p[0] == 1.0
    assert np.abs(e_m * e_p - 1.0).max() < 1e-12
    r = t.depths()
    assert np.allclose(e_m, np.exp(-delta * r / 2.0))
    # the growing weight times the perturbation stays bounded
    spec = PotentialSpec.radial_exp(0.5, delta)
    m = m_tilde(t, spec)
    assert np.isfinite((np.abs(m) * np.exp(delta * r)).max())
    with pytest.raises(InvalidParameter):
        weights(t, 0.0)


def test_potential_zero_gives_root_defect():
    t = build_tree(2, 3)
    m = m_tilde(t, None)
    assert m[0] == -1.0 and np.all(m[1:] == 0.0)


def test_radial_certificate_holds():
    t = build_tree(2, 6)
    spec = PotentialSpec.radial_exp(0.5, 6 * LOG2)
    spec.check_assumption(t)
    m = m_tilde(t, spec)
    r = t.depths()
    assert np.all(np.abs(m) <= 1.5 * np.exp(-6 * LOG2 * r) + 1e-12)


@pytest.mark.parametrize("spec", [
    PotentialSpec.radial_exp(0.3 + 0.15j, 6 * LOG2),
    PotentialSpec.table([(0, 0.3 - 0.2j), (5, 0.01)], 6 * LOG2),
    PotentialSpec.table([(0, 0.3)], 6 * LOG2, c_const=1.0),
], ids=["radial", "table", "table-with-C"])
def test_m_tilde_materializes_the_potential_once(monkeypatch, spec):
    # the decay check reads the values and depths m_tilde returns with
    from spectree.tree import TreeGraph

    t = build_tree(2, 6)
    expected = m_tilde(t, spec)
    calls = {"materialize": 0, "depths": 0}

    def counted(owner, name):
        method = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(PotentialSpec, "materialize")
    counted(TreeGraph, "depths")
    got = m_tilde(t, spec)
    assert calls == {"materialize": 1, "depths": 1}
    assert got.tobytes() == expected.tobytes()


def test_assumption_violation_and_override():
    t = build_tree(2, 4)
    bad = PotentialSpec.radial_exp(0.5, 0.5 * LOG2)
    with pytest.raises(AssumptionViolated):
        m_tilde(t, bad)
    # k = 1 admits any positive rate
    t1 = build_tree(1, 4)
    PotentialSpec.radial_exp(0.5, 0.5 * LOG2).check_assumption(t1)


def test_certificate_estimation():
    # without C, the check estimates it as max |M(v)| exp(delta |v|): the
    # estimate passes a given C just above it and fails one just below
    t = build_tree(2, 4)
    values, delta = [(0, 1.0), (3, 0.25j)], 6 * LOG2
    r3 = 2  # vertex 3 sits on sphere 2
    c = max(1.0, 0.25 * math.exp(delta * r3))
    PotentialSpec.table(values, delta).check_assumption(t)
    PotentialSpec.table(values, delta, c_const=c * (1 + 1e-9)).check_assumption(t)
    with pytest.raises(AssumptionViolated, match="exceeds its certificate"):
        PotentialSpec.table(values, delta, c_const=c * (1 - 1e-9)).check_assumption(t)


def test_huge_explicit_certificate_is_checked_in_log_space():
    # 0.1 exp(1.6 * 2000) needs C >= exp(3197.7); an absolute slack of
    # 1e-12 * (1 + C) = 1e288 would let this table pass
    deep = PotentialSpec.table([(2000, 0.1)], 1.6, c_const=1e300)
    with pytest.raises(AssumptionViolated, match="exceeds its certificate"):
        deep.check_assumption(build_tree(1, 2000))
    PotentialSpec.table([(20, 0.1)], 1.6, c_const=1e300).check_assumption(build_tree(1, 20))


@pytest.mark.parametrize("v", [1.7, 1.0, True, "1"])
def test_table_refuses_the_vertices_json_input_refuses(v):
    # once rounded by int(), so 1.7 and True both became vertex 1
    with pytest.raises(InvalidParameter, match="non-integer vertices"):
        PotentialSpec.table([(v, 0.1)], 1.6)
    with pytest.raises(InvalidParameter, match="non-integer vertices"):
        PotentialSpec.from_json(json.dumps(
            {"kind": "table", "values": [{"v": v, "re": 0.1}], "delta": 1.6}))


def test_table_takes_numpy_integer_vertices():
    spec = PotentialSpec.table([(np.int64(3), 0.1), (np.uint8(1), 0.2j)], 1.6)
    assert spec.values == ((3, 0.1), (1, 0.2j))
    assert [type(v) for v, _ in spec.values] == [int, int]


def test_json_round_trip():
    spec = PotentialSpec.from_json(
        '{"kind":"radial-exp","amplitude":{"re":0.5,"im":0.1},"delta":4.2}'
    )
    assert spec.amplitude == 0.5 + 0.1j and spec.delta == 4.2
    again = PotentialSpec.from_json(json.dumps(spec.to_json()))
    assert again == spec

    table = PotentialSpec.from_json(
        '{"kind":"table","values":[{"v":0,"re":1.0,"im":0.0},{"v":2,"re":0.0,"im":-0.5}],'
        '"delta":4.2,"C":1.0}'
    )
    assert table.values == ((0, 1.0 + 0j), (2, -0.5j))
    assert PotentialSpec.from_json(json.dumps(table.to_json())) == table


@settings(max_examples=40, deadline=None)
@given(
    re=st_.floats(-2, 2, allow_nan=False),
    im=st_.floats(-2, 2, allow_nan=False),
    delta=st_.floats(0.2, 8.0, allow_nan=False),
)
def test_json_round_trip_property(re, im, delta):
    spec = PotentialSpec.radial_exp(complex(re, im), delta)
    assert PotentialSpec.from_json(json.dumps(spec.to_json())) == spec
