"""Spans and captured results around trajmatch's public functions.

The program is not edited: `Probe.install` rebinds each wrapped function in
every loaded `trajmatch` module, including the names other modules imported
with `from .x import f`. Spans are kept in flat arrays in memory and written
out once, after the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# Functions whose return values the checks need. They are wrapped in every
# run, traced or not; they are called a few times per command, so the
# wrappers cost nothing measurable. `matcher.match` also gives the
# untraced run its match time.
CAPTURED = {
    "staypoint.dbscan": ("trajmatch.staypoint", "dbscan"),
    "staypoint.summarize": ("trajmatch.staypoint", "summarize_clusters"),
    "staypoint.reduce": ("trajmatch.staypoint", "reduce_trajectory"),
    "matcher.match": ("trajmatch.matcher", "match_trajectory"),
}

# Further functions wrapped only in the traced run. Several functions may
# share one span name; their times add up.
TRACED = {
    "io.parse_network": [("trajmatch.io", "parse_road_network")],
    "io.parse_trajectory": [("trajmatch.io", "parse_trajectory")],
    "io.write": [("trajmatch.io", "write_trajectory"),
                 ("trajmatch.staypoint", "write_staypoints"),
                 ("trajmatch.matcher", "write_match_result"),
                 ("trajmatch.matcher", "write_edge_sequence"),
                 ("trajmatch.evalbench", "export_report")],
    "geo.index_build": [("trajmatch.geo", "index_build")],
    "geo.index_query": [("trajmatch.geo", "SpatialIndex.query")],
    "geo.project": [("trajmatch.geo", "project_onto_polyline")],
    "fuzzy.evaluate": [("trajmatch.fuzzy", "evaluate")],
    "matcher.score_link": [("trajmatch.matcher", "score_link")],
    "matcher.candidate_links": [("trajmatch.matcher", "candidate_links")],
    "evalbench.run_pipeline": [("trajmatch.evalbench", "run_pipeline")],
    "evalbench.lcs": [("trajmatch.evalbench", "correct_link_count")],
}

# Spans whose time `matcher.self_s` subtracts from `matcher.match`.
MATCH_CHILDREN = ("matcher.score_link", "matcher.candidate_links")


class Probe:
    def __init__(self, traced: bool):
        self.traced = traced
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.calls: list[dict] = []
        self._match_by_traj: dict[int, dict] = {}

    def install(self):
        for mod in ("trajmatch", "trajmatch.cli"):
            importlib.import_module(mod)
        for name, (mod, attr) in CAPTURED.items():
            self._install(name, mod, attr, capture=True)
        if self.traced:
            for name, targets in TRACED.items():
                for mod, attr in targets:
                    self._install(name, mod, attr, capture=False)

    def _install(self, name, modname, attr, capture):
        mod = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, self._wrap(name, getattr(cls, meth), capture))
            return
        orig = getattr(mod, attr)
        wrapper = self._wrap(name, orig, capture)
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").split(".")[0] != "trajmatch":
                continue
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)

    def _wrap(self, name, fn, capture):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if capture:
                self._capture(name, args, result)
            return result

        return wrapper

    def _capture(self, name, args, result):
        if name == "matcher.match":
            # `pipeline` matches the same trajectory object five times;
            # keep its first result and count the calls.
            traj = args[1]
            seen = self._match_by_traj.get(id(traj))
            if seen is not None:
                seen["calls"] += 1
                return
            entry = {"name": name, "traj": traj, "result": result, "calls": 1}
            self._match_by_traj[id(traj)] = entry
        else:
            entry = {"name": name, "args": args, "result": result}
        self.calls.append(entry)

    def take_calls(self) -> list[dict]:
        """Captured calls since the last take, in call order."""
        calls, self.calls = self.calls, []
        self._match_by_traj = {}
        return calls

    def mark(self) -> int:
        return len(self.span_start)

    def summary(self, lo: int, hi: int, durations) -> dict[str, tuple[int, float]]:
        """Per span name, the (calls, seconds) of spans lo..hi-1, with
        `durations(starts, ends)` giving the seconds of each span, plus
        `matcher.self` for the match time not under MATCH_CHILDREN spans.
        Those functions are called only from inside `match_trajectory` and
        never from each other, so their spans add up to the time covered."""
        # Copies, not views: an array.array that exports its buffer
        # cannot grow any more.
        name = np.array(self.span_name[lo:hi])
        dur = durations(np.array(self.span_start[lo:hi]), np.array(self.span_end[lo:hi]))
        out = {n: (int(np.sum(name == i)), float(dur[name == i].sum()))
               for i, n in enumerate(self.names)}
        if self.traced:
            calls, match_s = out["matcher.match"]
            covered = sum(out[n][1] for n in MATCH_CHILDREN)
            out["matcher.self"] = (calls, match_s - covered)
        return out

    def write_spans(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.array(self.span_name), parent=np.array(self.span_parent),
            start=np.array(self.span_start), end=np.array(self.span_end))
