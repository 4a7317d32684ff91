"""The benchmark's outside-in tracer, perfbench/tracing.py, against the
package: every function it patches exists, a traced run records exactly one
Newton ascent per match, one score_terms call per objective evaluation, one
reference-track merge per map rebuild and no match inside another, and
uninstall() puts every original back. The tracer is loaded from its file,
read-only."""

import collections
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from refodom.geometry import Pose2D
from refodom.odometry import MODES, Odometry, OdometryConfig
from refodom.scan import get_sensor
from refodom.simulator import SimConfig, builtin_worlds, simulate_trajectory

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
N_SCANS = 20


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True      # leave no cache beside the file
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def resolve(span_name):
    """The refodom attribute a span is named after, e.g. 'ndt.match' or
    'tracking.Tracker.assign'."""
    module, *path = span_name.split(".")
    obj = importlib.import_module("refodom." + module)
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def refodom_references(originals):
    """(module, name) -> original for every reference to an original in a
    loaded refodom module."""
    refs = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("refodom"):
            continue
        for key, value in vars(mod).items():
            if any(value is orig for orig in originals.values()):
                refs[mod, key] = value
    return refs


@pytest.fixture(scope="module")
def tracing():
    return load_tracing()


@pytest.fixture(scope="module")
def scans():
    cfg = SimConfig(spec=get_sensor("r2000"), seed=0)
    scans, _ = simulate_trajectory(builtin_worlds()["corridor_marked"],
                                   [Pose2D(0.0, 1.5, 0.0), Pose2D(1.0, 1.5, 0.0)],
                                   2.0, cfg)
    assert len(scans) >= N_SCANS
    return scans[:N_SCANS]


def patched_names(t):
    return (t.DETECT, t.SPLIT, t.MARKER_LAYER, t.BUILD_GRIDS, t.NEWTON,
            t.SCORE_TERMS, *t.MATCHERS, t.ASSIGN, t.UPDATE, t.MERGE,
            t.PROCESS_SCAN, t.REBUILD, t.ADD_KEYFRAME, t.SIMULATE_SCAN,
            t.WRITE_LOG, t.READ_LOG, *t.EVALUATION)


def test_tracer_patches_and_restores_the_package(tracing, scans):
    names = patched_names(tracing)
    originals = {name: resolve(name) for name in names}
    assert all(callable(fn) for fn in originals.values())
    refs = refodom_references(originals)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in names:
            assert resolve(name) is not originals[name], name
            assert resolve(name).__wrapped__ is originals[name], name
        for (mod, key), orig in refs.items():
            assert getattr(mod, key) is not orig, (mod.__name__, key)
        for mode in MODES:
            Odometry(OdometryConfig(mode=mode, match_stride=8)).run(scans)
    finally:
        tracer.uninstall()

    for name in names:
        assert resolve(name) is originals[name], name
    for (mod, key), orig in refs.items():
        assert getattr(mod, key) is orig, (mod.__name__, key)

    spans = {sid: (parent, name) for sid, parent, _, name, _, _ in tracer.spans}
    calls = collections.Counter(name for _, name in spans.values())
    matchers = set(tracing.MATCHERS)
    # Every mode matched through its own entry point: all scans but the
    # bootstrap, plus the rematches after keyframe promotions.
    for matcher in tracing.MATCHERS:
        assert calls[matcher] >= N_SCANS - 1, matcher
    assert calls[tracing.NEWTON] == sum(calls[m] for m in matchers)
    ascents = collections.Counter(parent for parent, name in spans.values()
                                  if name == tracing.NEWTON)
    assert set(ascents) == {sid for sid, (_, name) in spans.items() if name in matchers}
    assert set(ascents.values()) == {1}
    for sid, (parent, name) in spans.items():
        if name in matchers:        # no match runs inside another
            outer = parent
            while outer >= 0:
                assert spans[outer][1] not in matchers
                outer = spans[outer][0]
        if name == tracing.OBJECTIVE:
            assert spans[parent][1] == tracing.NEWTON
        if name == tracing.SCORE_TERMS:
            assert spans[parent][1] == tracing.OBJECTIVE
    # One NDT term per objective, whatever the mode.
    assert calls[tracing.SCORE_TERMS] == calls[tracing.OBJECTIVE] > calls[tracing.NEWTON]
    # The reference tracks are merged once per map change, not once per match.
    assert calls[tracing.MERGE] == calls[tracing.REBUILD] > 0
    assert tracer.counts["ndt.cells"] > 0
    assert tracer.counts["tracking.shared_tracks"] > 0
