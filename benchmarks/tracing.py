"""Spans around the calls into spectree's modules, and their self times.

The tracer wraps functions from outside the program: it rebinds the module
and class attributes that hold them (including the names that
``from ... import`` copied into other spectree modules) and the
``numpy.linalg`` entry points that spectree calls.  Each call becomes one
span ``(id, name, start, end, parent, thread)``; spans stay in memory until
:meth:`Tracer.dump` writes them out.

A span opened in a worker thread with no open span of its own takes as
parent the innermost open span of the thread that installed the tracer,
which is the thread that handed it the work (``absence_scan``'s pool).

Self time is the time during which a span is open and none of its children
is.  When spans of several threads satisfy that at once, the shared time is
split evenly between them, so the self times of all spans add up to the time
covered by the root spans.  With one thread this is the usual rule: a span's
duration minus the part of it its child spans cover.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: spectree modules, in pipeline order; the first part of every span name
LAYERS = ("cli", "tree", "operators", "decomposition", "resolvent",
          "birman_schwinger", "charval", "quadrature")

LINALG = ("svd", "eigvals", "solve", "norm")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._undo: list[tuple] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, nid_for, after=None):
        """``fn`` recorded as a span named by ``nid_for()``; ``after(result, args)``
        runs once the span is closed."""
        spans, stacks, ids, home = self.spans, self._stacks, self._ids, self._home
        clock, get_ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = nid_for()
            tid = get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            if stack:
                parent = stack[-1]
            else:
                home_stack = stacks.get(home) if tid != home else None
                parent = home_stack[-1] if home_stack else -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, nid, start, end, parent, tid))
            if after is not None:
                after(result, args)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, *, after=None, inner=None):
        """Trace ``owner.attr`` under ``name``.

        For a module function every spectree module binding the same object
        is rebound.  ``inner`` replaces the function inside the span (used to
        count what the call is given).
        """
        original = vars(owner)[attr]
        nid = self.name_id(name)
        traced = self.wrap(inner or original, lambda: nid, after)
        self._rebind(owner, attr, traced)
        if isinstance(owner, type):
            return
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod is owner or not (mod_name == "spectree" or mod_name.startswith("spectree.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, key, traced)

    def patch_linalg(self, linalg_module, attr: str):
        """Trace ``numpy.linalg.<attr>`` as ``<caller layer>.linalg.<attr>``."""
        for layer in LAYERS:
            self.name_id(f"{layer}.linalg.{attr}")
        cache: dict[str, int] = {}

        def nid_for():
            module = sys._getframe(2).f_globals.get("__name__", "")
            nid = cache.get(module)
            if nid is None:
                parts = module.split(".")
                layer = parts[1] if parts[0] == "spectree" and len(parts) > 1 else "other"
                nid = cache[module] = self.name_id(f"{layer}.linalg.{attr}")
            return nid

        self._rebind(linalg_module, attr, self.wrap(getattr(linalg_module, attr), nid_for))

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": dict(self.counters)}, fh)


def install_spectree(tracer: Tracer) -> None:
    """Wrap the public entry points each per-layer metric is read from."""
    import numpy as np

    from spectree import (birman_schwinger, charval, cli, decomposition,
                          operators, quadrature, resolvent, tree)

    counters = tracer.counters
    for key in ("operators.dense.bytes", "decomposition.basis.bytes",
                "birman_schwinger.support.size", "charval.grid.points",
                "charval.contour.nodes", "charval.contour.evals"):
        counters[key] = 0

    def add_bytes(key):
        def after(result, args):
            counters[key] += result.nbytes
        return after

    def basis_bytes(result, args):
        arrays = {id(a): a for level in result.lifted for a in level}
        arrays.update({id(a): a for a in result.chi})
        counters["decomposition.basis.bytes"] += sum(a.nbytes for a in arrays.values())

    def support_size(result, args):
        key = "birman_schwinger.support.size"
        counters[key] = max(counters[key], args[0].support.size)

    def grid_points(result, args):
        counters["charval.grid.points"] += result.grid_rows.shape[0]

    contour_index = charval.contour_index
    signature = inspect.signature(contour_index)

    def counted_contour_index(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        f = bound.arguments["f"]
        counters["charval.contour.nodes"] += bound.arguments["contour"].nodes

        def counted(lam):
            counters["charval.contour.evals"] += 1
            return f(lam)

        bound.arguments["f"] = counted
        return contour_index(*bound.args, **bound.kwargs)

    p = tracer.patch
    p(cli, "main", "cli.main")
    p(tree, "build_tree", "tree.build_tree")
    for fn in ("adjacency", "raising", "lowering", "laplacian", "free_operator",
               "perturbed_operator"):
        p(operators, fn, "operators.dense", after=add_bytes("operators.dense.bytes"))
    for fn in ("adjacency_sparse", "free_operator_sparse"):
        p(operators, fn, "operators.sparse")
    for fn in ("m_tilde", "theta", "weights"):
        p(operators, fn, f"operators.{fn}")
    p(decomposition, "build_spherical_basis", "decomposition.build_spherical_basis",
      after=basis_bytes)
    p(decomposition, "verify_jacobi_form", "decomposition.verify_jacobi_form")
    p(decomposition.SphericalBasis, "global_vectors", "decomposition.global_vectors")
    p(resolvent.ResolventKernel, "__init__", "resolvent.ResolventKernel.init")
    p(resolvent.ResolventKernel, "assemble", "resolvent.assemble")
    p(resolvent.ResolventKernel, "exponent_tables", "resolvent.tables")
    p(resolvent.ResolventKernel, "derivative_tables", "resolvent.tables")
    p(resolvent, "weighted_resolvent_kernel", "resolvent.weighted_resolvent_kernel")
    p(resolvent, "direct_resolvent_block", "resolvent.direct_resolvent_block")
    p(birman_schwinger.BSFactory, "__init__", "birman_schwinger.BSFactory.init",
      after=support_size)
    p(birman_schwinger.BSFactory, "reduced_blocks", "birman_schwinger.reduced_blocks")
    p(birman_schwinger.BSFactory, "matrix", "birman_schwinger.matrix")
    p(birman_schwinger.BSFactory, "derivative", "birman_schwinger.matrix")
    p(birman_schwinger, "hol_split", "birman_schwinger.hol_split")
    p(charval, "absence_scan", "charval.absence_scan", after=grid_points)
    p(charval, "contour_index", "charval.contour_index", inner=counted_contour_index)
    for fn in ("circle_nodes", "fourier_quadrature", "sine_projected_quadrature",
               "jacobi_symbol_quadrature", "cauchy_reconstruct"):
        p(quadrature, fn, f"quadrature.{fn}")
    for fn in LINALG:
        tracer.patch_linalg(np.linalg, fn)


# -- analysis --------------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Self time of every span, keyed by span id (see the module docstring)."""
    parent_of = {s[0]: s[4] for s in spans}
    events = []
    for sid, _, start, end, _, _ in spans:
        events.append((start, 0, sid))   # opens before closes at equal times,
        events.append((end, 1, -sid))    # parents open first and close last
    events.sort()
    open_children: dict[int, int] = {}
    leaves: set[int] = set()
    out = {s[0]: 0.0 for s in spans}
    last = None
    for t, kind, key in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for sid in leaves:
                out[sid] += share
        last = t
        if kind == 0:
            sid = key
            parent = parent_of[sid]
            if parent in open_children:
                if open_children[parent] == 0:
                    leaves.discard(parent)
                open_children[parent] += 1
            open_children[sid] = 0
            leaves.add(sid)
        else:
            sid = -key
            del open_children[sid]
            leaves.discard(sid)
            parent = parent_of[sid]
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return out


def summarize(names, spans, counters) -> dict:
    """Calls and self time per span name, per layer, and the trace totals."""
    selfs = self_times(spans)
    by_name = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in names}
    for sid, nid, start, end, _, _ in spans:
        row = by_name[names[nid]]
        row["calls"] += 1
        row["self_s"] += selfs[sid]
        row["total_s"] += end - start
    metrics: dict[str, float] = {}
    for name, row in by_name.items():
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in by_name.items() if name.startswith(layer + "."))
        metrics[f"{layer}.linalg.self_s"] = sum(
            row["self_s"] for name, row in by_name.items()
            if name.startswith(layer + ".linalg."))
    metrics.update(counters)
    nodes = counters.get("charval.contour.nodes", 0)
    metrics["charval.contour.evals_per_node"] = (
        counters.get("charval.contour.evals", 0) / nodes if nodes else 0.0)
    metrics["trace.wall_s"] = by_name["cli.main"]["total_s"]
    metrics["trace.self_sum_s"] = sum(selfs.values())
    metrics["trace.spans"] = len(spans)
    return {"metrics": metrics, "by_name": by_name}
