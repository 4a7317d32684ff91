"""Outside-in tracing of refodom: spans around the public functions of each
module, installed from the benchmark's own files and removed afterwards.

A wrapped function replaces every reference to the original in every loaded
`refodom` module, so calls that cross modules through `from .x import f`
are traced too. Spans are kept in memory as (id, parent, root, name, start,
end) tuples and written out when the run ends. Counters are recorded at the
same boundaries, so ratios are measured where the work happens.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time

import numpy as np

# Spans whose time and count the per-layer metrics read.
DETECT = "detector.detect"
SPLIT = "layers.split_points"
MARKER_LAYER = "layers.build_marker_layer"
BUILD_GRIDS = "ndt.build_grids"
NEWTON = "ndt.newton_ascent"
OBJECTIVE = "ndt.objective"
SCORE_TERMS = "ndt.score_terms"
MATCHERS = ("ndt.match", "layers.match_layered", "tracking.match_tracked")
ASSIGN = "tracking.Tracker.assign"
UPDATE = "tracking.Tracker.update"
MERGE = "tracking.merge_reference_tracks"
PROCESS_SCAN = "odometry.Odometry.process_scan"
REBUILD = "odometry.LocalMap.rebuild"
ADD_KEYFRAME = "odometry.LocalMap.add"
SIMULATE_SCAN = "simulator.simulate_scan"
WRITE_LOG = "scan.write_scan_log"
READ_LOG = "scan.read_scan_log"
EVALUATION = ("evaluation.compute_ate", "evaluation.evaluate_detector")


class Tracer:
    """Span recorder with counters. install() patches refodom, uninstall()
    restores every replaced attribute."""

    def __init__(self):
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._undo: list = []

    # -- span recording -----------------------------------------------------

    def _wrap(self, name, fn, on_result=None, on_args=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_args is not None:
                args, kwargs = on_args(args, kwargs)
            stack = tracer._stack
            sid = len(tracer.spans)
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else sid
            tracer.spans.append((sid, parent, root, name, 0, 0))
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans[sid] = (sid, parent, root, name, start, end)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _replace_function(self, module, attr, name, **hooks):
        orig = getattr(module, attr)
        wrapped = self._wrap(name, orig, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("refodom"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))

    def _replace_method(self, cls, attr, name, **hooks):
        orig = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, orig, **hooks))
        self._undo.append((cls, attr, orig))

    # -- counters taken at the boundaries -------------------------------------

    def _count_detect(self, args, kwargs, detections):
        scan = args[0]
        params = args[1] if len(args) > 1 else kwargs.get("params")
        i_min = args[2] if len(args) > 2 else kwargs.get("i_min")
        if params is None:
            from refodom.detector import DetectorParams
            params = DetectorParams()
        if i_min is None:
            i_min = scan.spec.i_min
        r = scan.ranges
        with np.errstate(invalid="ignore"):
            hot = (scan.intensities >= i_min) & (r >= params.r_min) & (r <= params.r_max)
        self.counts["detector.candidates"] += int(np.count_nonzero(hot & np.isfinite(r)))
        self.counts["detector.detections"] += len(detections)

    def _count_split(self, args, kwargs, result):
        self.counts["layers.marker_points"] += len(result[1])

    def _count_grids(self, args, kwargs, grids):
        self.counts["ndt.cells"] += sum(len(g) for g in grids)

    def _count_score_terms(self, args, kwargs, result):
        self.counts["ndt.score_terms_points"] += int(result[4])

    def _count_newton(self, args, kwargs, result):
        self.counts["ndt.iterations"] += int(result.iterations)

    def _wrap_objective(self, args, kwargs):
        args = list(args)
        if args:
            args[0] = self._wrap(OBJECTIVE, args[0])
        else:
            kwargs = dict(kwargs, objective=self._wrap(OBJECTIVE, kwargs["objective"]))
        return tuple(args), kwargs

    def _count_shared(self, args, kwargs, result):
        current = args[2] if len(args) > 2 else kwargs["current_tracks"]
        reference = args[3] if len(args) > 3 else kwargs["reference_tracks"]
        self.counts["tracking.shared_tracks"] += len(set(current) & set(reference))

    def _count_live(self, args, kwargs, result):
        self.counts["tracking.live_tracks"] += len(args[0].tracks)

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap the public functions of every refodom layer."""
        import refodom.detector as detector
        import refodom.evaluation as evaluation
        import refodom.layers as layers
        import refodom.ndt as ndt
        import refodom.odometry as odometry
        import refodom.scan as scan
        import refodom.simulator as simulator
        import refodom.tracking as tracking

        fn = self._replace_function
        fn(simulator, "simulate_scan", SIMULATE_SCAN)
        fn(scan, "write_scan_log", WRITE_LOG)
        fn(scan, "read_scan_log", READ_LOG)
        fn(detector, "detect", DETECT, on_result=self._count_detect)
        fn(layers, "split_points", SPLIT, on_result=self._count_split)
        fn(layers, "build_marker_layer", MARKER_LAYER)
        fn(layers, "match_layered", MATCHERS[1])
        fn(ndt, "build_grids", BUILD_GRIDS, on_result=self._count_grids)
        fn(ndt, "score_terms", SCORE_TERMS, on_result=self._count_score_terms)
        fn(ndt, "newton_ascent", NEWTON, on_args=self._wrap_objective,
           on_result=self._count_newton)
        fn(ndt, "match", MATCHERS[0])
        fn(tracking, "match_tracked", MATCHERS[2], on_result=self._count_shared)
        fn(tracking, "merge_reference_tracks", MERGE)
        fn(evaluation, "compute_ate", EVALUATION[0])
        fn(evaluation, "evaluate_detector", EVALUATION[1])
        meth = self._replace_method
        meth(tracking.Tracker, "assign", ASSIGN)
        meth(tracking.Tracker, "update", UPDATE, on_result=self._count_live)
        meth(odometry.LocalMap, "rebuild", REBUILD)
        meth(odometry.LocalMap, "add", ADD_KEYFRAME)
        meth(odometry.Odometry, "process_scan", PROCESS_SCAN)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- aggregation ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total ns, and ns covered by direct children."""
        out: dict = {}
        child_ns: collections.Counter = collections.Counter()
        for sid, parent, _, name, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for sid, parent, _, name, start, end in self.spans:
            rec = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            rec["calls"] += 1
            rec["total_ns"] += end - start
            rec["self_ns"] += end - start - child_ns[sid]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for sid, parent, root, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "request": root,
                                    "name": name, "start_ns": start,
                                    "end_ns": end}))
                f.write("\n")
