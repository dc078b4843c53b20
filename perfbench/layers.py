"""Per-layer counters and timers, installed around the library's layer
entry points from outside the library.

``Tracer.install()`` rebinds every name under which a package module refers
to a traced function (``from .geometry import dist2`` makes a second
binding in each importing module), and ``uninstall()`` restores them.
Times are inclusive: ``solver.feasibility_s`` contains the stage times, and
``kernel.kernelize_s`` contains the ``udg.build_graph`` time of its graph.
Generators (moved-set enumeration, lattice ``near_points``) are timed while
they compute their next item, not while the caller holds the item.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from diskdispersal import (geometry, gridtiling, instance_io, kernel, numerics,
                           solver, udg)

clock = time.perf_counter

# name, unit for every per-layer metric, in report order
METRICS = [
    ("kernel.kernelize_s", "s"), ("kernel.kernelize_calls", "count"),
    ("kernel.kept_disks", "count"), ("kernel.decided_no", "count"),
    ("udg.build_graph_s", "s"), ("udg.build_graph_calls", "count"),
    ("udg.edges", "count"),
    ("solver.enumerate_s", "s"), ("solver.sets_yielded", "count"),
    ("solver.feasibility_s", "s"), ("solver.feasibility_calls", "count"),
    ("solver.stage1_s", "s"), ("solver.stage1_calls", "count"),
    ("solver.stage1_hits", "count"),
    ("solver.stage2_s", "s"), ("solver.stage2_calls", "count"),
    ("solver.stage2_hits", "count"),
    ("solver.stage3_s", "s"), ("solver.stage3_calls", "count"),
    ("solver.stage3_refuted", "count"), ("solver.stage3_feasible", "count"),
    ("solver.grid_passes", "count"),
    ("numerics.compare_s", "s"), ("numerics.compare_calls", "count"),
    ("geometry.dist2_s", "s"), ("geometry.dist2_calls", "count"),
    ("instance_io.parse_s", "s"), ("instance_io.write_s", "s"),
    ("instance_io.validate_s", "s"),
    ("instance_io.near_points_s", "s"), ("instance_io.near_points_calls", "count"),
    ("gridtiling.generate_s", "s"), ("gridtiling.witness_s", "s"),
]


class Tracer:
    def __init__(self):
        self.stats = defaultdict(float)
        self._saved = []          # (namespace, name, original)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, prefix, count=None):
        """Time every call under prefix_s / prefix_calls; count(result)
        adds further counters."""
        stats = self.stats
        t_key, c_key = prefix + "_s", prefix + "_calls"

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stats[t_key] += clock() - t0
                stats[c_key] += 1
            if count is not None:
                count(result)
            return result
        return wrapper

    def _timed_iter(self, fn, t_key, c_key, item_key=None):
        """Time a generator function while it computes each item."""
        stats = self.stats

        def wrapper(*args, **kwargs):
            stats[c_key] += 1
            it = fn(*args, **kwargs)
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    stats[t_key] += clock() - t0
                    return
                stats[t_key] += clock() - t0
                if item_key is not None:
                    stats[item_key] += 1
                yield item
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _rebind(self, original, wrapper):
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if name != "diskdispersal" and not name.startswith("diskdispersal."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        s = self.stats

        def kept(result):
            if result is None:
                s["kernel.decided_no"] += 1
            else:
                s["kernel.kept_disks"] += len(result[0].disks)

        def edges(g):
            s["udg.edges"] += len(g.edges)

        def hit(key):
            def count(result):
                if result is not None:
                    s[key] += 1
            return count

        def grid(res):
            if res.status == "infeasible":
                s["solver.stage3_refuted"] += 1
            elif res.status == "feasible":
                s["solver.stage3_feasible"] += 1

        wraps = [
            (kernel.kernelize, self._timed(kernel.kernelize, "kernel.kernelize", kept)),
            (udg.build_graph, self._timed(udg.build_graph, "udg.build_graph", edges)),
            (solver.enumerate_candidate_sets, self._timed_iter(
                solver.enumerate_candidate_sets, "solver.enumerate_s",
                "solver.enumerate_calls", "solver.sets_yielded")),
            (solver.feasibility, self._timed(solver.feasibility, "solver.feasibility")),
            (solver._stage_candidates, self._timed(
                solver._stage_candidates, "solver.stage1", hit("solver.stage1_hits"))),
            (solver._stage_numeric, self._timed(
                solver._stage_numeric, "solver.stage2", hit("solver.stage2_hits"))),
            (solver._stage_grid, self._timed(solver._stage_grid, "solver.stage3", grid)),
            (solver._grid_pass, self._timed(solver._grid_pass, "solver.grid_pass")),
            (numerics.compare, self._timed(numerics.compare, "numerics.compare")),
            (geometry.dist2, self._timed(geometry.dist2, "geometry.dist2")),
            (instance_io.parse_instance, self._timed(
                instance_io.parse_instance, "instance_io.parse")),
            (instance_io.write_instance, self._timed(
                instance_io.write_instance, "instance_io.write")),
            (instance_io.validate_witness, self._timed(
                instance_io.validate_witness, "instance_io.validate")),
            (gridtiling.gen_gridtiling, self._timed(
                gridtiling.gen_gridtiling, "gridtiling.generate")),
            (gridtiling.gridtiling_witness, self._timed(
                gridtiling.gridtiling_witness, "gridtiling.witness")),
        ]
        for original, wrapper in wraps:
            self._rebind(original, wrapper)
        near = instance_io.LatticeBlock.near_points
        self._saved.append((instance_io.LatticeBlock, "near_points", near))
        instance_io.LatticeBlock.near_points = self._timed_iter(
            near, "instance_io.near_points_s", "instance_io.near_points_calls")

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self) -> dict:
        s = self.stats
        out = {name: s.get(name, 0.0) for name, _ in METRICS}
        out["solver.grid_passes"] = s.get("solver.grid_pass_calls", 0.0)
        return out

    def accounting_errors(self) -> list[str]:
        """Pipeline identities that every traced solve must satisfy."""
        s = self.stats
        g = lambda k: int(s.get(k, 0))  # noqa: E731
        errs = []
        if g("solver.feasibility_calls") != g("solver.stage1_calls"):
            errs.append("feasibility calls != stage 1 calls")
        if g("solver.stage2_calls") != g("solver.stage1_calls") - g("solver.stage1_hits"):
            errs.append("stage 2 calls != stage 1 calls - stage 1 hits")
        if g("solver.stage3_calls") != g("solver.stage2_calls") - g("solver.stage2_hits"):
            errs.append("stage 3 calls != stage 2 calls - stage 2 hits")
        if g("solver.sets_yielded") < g("solver.feasibility_calls"):
            errs.append("more feasibility calls than moved sets")
        return errs
