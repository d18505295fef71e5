"""In-memory span recorder that wraps reachplan's public functions.

A span is one call of a wrapped function: its name, start, end, parent
span and outcome. Span names are layer metric names; several functions
can share one name (``reach.certify`` covers both certification entry
points). Wrapping replaces every binding of a function in every loaded
``reachplan`` module, so a call is traced whichever module it goes
through (``solve_lp`` is imported by ``optim``, ``reach`` and
``planner``).
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# span name -> defining "module:qualname" of each function it covers
SPANS = {
    "cli": ["cli:main"],
    "planner": ["planner:run_mission"],
    "optim.solve_lp": ["optim:solve_lp"],
    "optim.linear_feasible": ["optim:linear_feasible"],
    "optim.maximin_lp": ["optim:maximin_lp"],
    "optim.solve_qp": ["optim:solve_qp"],
    "reach.controller": ["reach:PWAController.__call__"],
    "geometry.locate_simplex": ["geometry:locate_simplex"],
    "reach.synthesize_controller": ["reach:synthesize_controller"],
    "reach.certify": ["reach:facet_reachable", "reach:relaxed_facet_reachable"],
    "reach.predict": ["reach:predict_unreachable", "reach:predict_reachable",
                      "reach:robust_exit_time_bound"],
    "partition.adjacency": ["partition:adjacency"],
    "partition.refine_segment": ["partition:PartitionTree.refine_segment"],
    "graph.rebuild": ["graph:ReachGraph.rebuild"],
    "graph.refresh_uncertain_weights": ["graph:ReachGraph.refresh_uncertain_weights"],
    "graph.shortest_path": ["graph:ReachGraph.shortest_path"],
    "dynamics.integrate": ["dynamics:integrate"],
    "terminal.clf_cbf_control": ["terminal:clf_cbf_control"],
    "sysid.identify_affine": ["sysid:identify_affine"],
    "deviation.cell_pair_bounds": ["deviation:cell_pair_bounds"],
}

# counter name -> functions counted per call without a span (too hot to time)
COUNTERS = {"dynamics.rk4_steps": ["dynamics:_rk4_step"]}


def _found(result) -> float:
    return float(result is not None and result is not False)


# span name -> value recorded from the call's return value
OUTCOMES = {
    "optim.solve_lp": lambda r: float(r[0] == "infeasible"),
    "reach.certify": _found,
    "reach.predict": _found,
    "dynamics.integrate": lambda r: float(r.clamp_warnings),
}

NO_ERROR, SOLVER_ERROR, OTHER_ERROR = 0, 1, 2


class Tracer:
    """Spans kept in flat arrays; parents always precede their children."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.nested = array("b")     # 1 when inside a span of the same name
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}
        self._restore: list = []

    def __len__(self) -> int:
        return len(self.name)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, outcome=None):
        """Wrap fn so that each call records one span called ``name``."""
        from reachplan.optim import SolverError

        nid = self._name_id(name)
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            d = depth.get(nid, 0)
            self.nested.append(1 if d else 0)
            depth[nid] = d + 1
            self.raised.append(NO_ERROR)
            self.value.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except SolverError:
                self.raised[idx] = SOLVER_ERROR
                raise
            except Exception:
                self.raised[idx] = OTHER_ERROR
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
                depth[nid] = d
            if outcome is not None:
                self.value[idx] = outcome(result)
            return result

        return traced

    def counter(self, name: str, fn):
        """Wrap fn so that each call adds one to counter ``name``."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # ---------------- installing wrappers ----------------

    def install(self) -> None:
        """Replace every binding of the traced functions with its wrapper."""
        for name, targets in SPANS.items():
            for target in targets:
                self._replace(target, lambda fn, n=name: self.span(n, fn, OUTCOMES.get(n)))
        for name, targets in COUNTERS.items():
            for target in targets:
                self._replace(target, lambda fn, n=name: self.counter(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, target: str, make_wrapper) -> None:
        module_name, qualname = target.split(":")
        module = sys.modules[f"reachplan.{module_name}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, make_wrapper(original))
            return
        original = getattr(module, qualname)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "reachplan" or mod_name.startswith("reachplan.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    # ---------------- reading spans back ----------------

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict:
        """Spans lo..hi as numpy arrays, with self time per span."""
        hi = len(self) if hi is None else hi
        parent = np.array(self.parent[lo:hi], dtype=np.int64)
        dur = np.array(self.end[lo:hi]) - np.array(self.start[lo:hi])
        child = np.zeros(hi - lo)
        inside = parent >= lo
        np.add.at(child, parent[inside] - lo, dur[inside])
        return {
            "name": np.array(self.name[lo:hi], dtype=np.int64),
            "nested": np.array(self.nested[lo:hi], dtype=np.int8),
            "raised": np.array(self.raised[lo:hi], dtype=np.int8),
            "value": np.array(self.value[lo:hi]),
            "self_s": dur - child,
        }

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per span name: outer calls, self time, outcome sum, errors."""
        a = self.arrays(lo, hi)
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            outer = sel & (a["nested"] == 0)
            out[name] = {
                "calls": int(np.count_nonzero(outer)),
                "self_s": float(np.sum(a["self_s"][sel])),
                "value": float(np.sum(a["value"][outer])),
                "solver_errors": int(np.count_nonzero(sel & (a["raised"] == SOLVER_ERROR))),
            }
        return out

    def save(self, path: str) -> None:
        """Write every span, for reading back with numpy.load."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.name),
            parent=np.array(self.parent), start=np.array(self.start),
            end=np.array(self.end), value=np.array(self.value),
            raised=np.array(self.raised))
