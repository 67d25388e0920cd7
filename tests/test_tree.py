"""Tree construction and index-arithmetic navigation.

The independent oracle here is an explicit breadth-first construction with
a queue; the library must reproduce its parent/depth tables exactly.
"""
import collections
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from spectree import build_tree, children, parent, vertex_depth
from spectree.errors import (
    CapacityExceeded,
    IndexOutOfRange,
    InvalidParameter,
    RootHasNoParent,
)
from spectree.tree import VERTEX_CAP, sphere_of


def bfs_oracle(k, depth):
    """Parent/depth tables from an explicit queue-driven BFS construction."""
    parents = {0: None}
    depths = {0: 0}
    queue = collections.deque([0])
    next_id = 1
    while queue:
        v = queue.popleft()
        if depths[v] == depth:
            continue
        for _ in range(k):
            parents[next_id] = v
            depths[next_id] = depths[v] + 1
            queue.append(next_id)
            next_id += 1
    return parents, depths


def test_vertex_count_examples():
    assert build_tree(2, 3).vertex_count == 15
    assert build_tree(1, 5).vertex_count == 6
    assert [build_tree(3, 4).sphere_size(r) for r in range(5)] == [1, 3, 9, 27, 81]


def test_path_graph_navigation():
    t = build_tree(1, 5)
    assert list(children(t, 4)) == [5]
    assert parent(t, 4) == 3
    assert vertex_depth(t, 5) == 5


def test_depth_examples():
    t = build_tree(2, 4)
    assert vertex_depth(t, 0) == 0
    assert vertex_depth(t, 1) == 1
    assert vertex_depth(t, 7) == 3  # bfs_oracle confirms below


def test_parent_children_examples():
    t = build_tree(2, 3)
    assert list(children(t, 0)) == [1, 2]
    assert parent(t, 3) == 1


@pytest.mark.parametrize("k,depth", [(1, 7), (2, 5), (3, 4), (5, 3)])
def test_against_bfs_oracle(k, depth):
    t = build_tree(k, depth)
    parents, depths = bfs_oracle(k, depth)
    assert len(parents) == t.vertex_count
    # the array form of sphere_of, and the depths the tree hands out
    expected = [depths[v] for v in range(t.vertex_count)]
    assert sphere_of(k, np.arange(t.vertex_count)).tolist() == expected
    assert t.depths().tolist() == expected
    for v in range(t.vertex_count):
        assert vertex_depth(t, v) == depths[v]
        if v == 0:
            with pytest.raises(RootHasNoParent):
                parent(t, v)
        else:
            assert parent(t, v) == parents[v]


@pytest.mark.parametrize("k,depth", [(1, 6), (2, 6), (4, 4)])
def test_structural_invariants(k, depth):
    t = build_tree(k, depth)
    # breadth-first order: offsets strictly increasing, spheres contiguous
    assert np.all(np.diff(t.sphere_offsets) > 0)
    edge_count = 0
    for v in range(t.vertex_count):
        kids = list(children(t, v))
        edge_count += len(kids)
        if vertex_depth(t, v) < depth:
            assert len(kids) == k
            for c in kids:
                assert parent(t, c) == v
                assert vertex_depth(t, c) == vertex_depth(t, v) + 1
        else:
            assert kids == []
    assert edge_count == t.vertex_count - 1


@settings(max_examples=60, deadline=None)
@given(k=st_.integers(1, 6), depth=st_.integers(0, 6), seed=st_.integers(0, 2**31))
def test_parent_depth_property(k, depth, seed):
    t = build_tree(k, depth)
    v = seed % t.vertex_count
    if v != 0:
        assert vertex_depth(t, parent(t, v)) == vertex_depth(t, v) - 1


def test_errors():
    with pytest.raises(InvalidParameter):
        build_tree(0, 3)
    with pytest.raises(InvalidParameter):
        build_tree(2, -1)
    with pytest.raises(CapacityExceeded):
        build_tree(2, 40)
    t = build_tree(2, 3)
    with pytest.raises(IndexOutOfRange):
        vertex_depth(t, 15)
    with pytest.raises(IndexOutOfRange):
        parent(t, -1)


def _timed(f, *args):
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start


@pytest.mark.parametrize("k, depth", [(1, 10**12), (2, 10**9)])
def test_cap_is_checked_before_the_sphere_sizes(k, depth):
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded):
        build_tree(k, depth)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_sphere_offsets_are_the_cumulative_sphere_sizes(k):
    # every depth up to the cap (the path: a sample of them), then the cap itself
    if k == 1:
        depths = [*range(64), 3000, 10**6]
    else:
        top = next(d for d in range(VERTEX_CAP) if (k ** (d + 2) - 1) // (k - 1) > VERTEX_CAP)
        depths = range(top + 1)
    for depth in depths:
        t = build_tree(k, depth)
        expected = np.concatenate([[0], np.cumsum([k**r for r in range(depth + 1)])])
        assert t.sphere_offsets.dtype == np.int64
        assert np.array_equal(t.sphere_offsets, expected)
        assert type(t.vertex_count) is int and t.vertex_count == expected[-1]
    last = VERTEX_CAP - 1 if k == 1 else depths[-1]
    assert build_tree(k, last).vertex_count <= VERTEX_CAP
    with pytest.raises(CapacityExceeded):
        build_tree(k, last + 1)


def test_path_of_a_million_spheres_builds_in_closed_form():
    # a Python list of k**r takes about 0.3 s at this depth (2-core machine);
    # the closed form is one arange
    build_tree(1, 10**6)
    best = min(_timed(build_tree, 1, 10**6) for _ in range(3))
    assert best < 0.05
