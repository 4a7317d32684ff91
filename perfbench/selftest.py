"""Self-tests of the benchmark's own checks: each feeds a perturbed input and
shows that the matching check fails, next to the unperturbed control.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

They take a few seconds and are not part of the repository's test suite.
"""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from refodom.detector import detect  # noqa: E402
from refodom.evaluation import compute_ate  # noqa: E402
from refodom.geometry import Pose2D  # noqa: E402
from refodom.scan import LaserScan, get_sensor, read_scan_log, write_scan_log  # noqa: E402
from refodom.simulator import SimConfig, builtin_worlds, simulate_scan  # noqa: E402


def fails(fn, *args) -> str:
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        return str(exc)
    raise AssertionError(f"{fn.__name__} accepted a perturbed input")


def _ate_inputs(estimate_xy, reference_xy):
    est = [(0.02 * k, Pose2D(x, y, 0.0)) for k, (x, y) in enumerate(estimate_xy)]
    ref = [(0.02 * k, Pose2D(x, y, 0.0)) for k, (x, y) in enumerate(reference_xy)]
    report = compute_ate(est, ref)
    return estimate_xy, reference_xy, report.rmse, report.max_error, 0.2


def test_trajectory_shifted_by_one_metre():
    rng = np.random.default_rng(1)
    ref = np.column_stack((np.linspace(0.0, 10.0, 251), np.full(251, 1.5)))
    est = ref + rng.normal(0.0, 0.005, ref.shape)
    checks.check_ate(*_ate_inputs(est, ref))
    shifted = est.copy()
    shifted[125:, 0] += 1.0
    assert "max ATE" in fails(checks.check_ate, *_ate_inputs(shifted, ref))


def test_toolkit_ate_that_disagrees_with_the_closed_form():
    ref = np.column_stack((np.linspace(0.0, 10.0, 251), np.full(251, 1.5)))
    est, ref, rms, mx, bound = _ate_inputs(ref + 0.001 * np.sin(ref), ref)
    assert "closed form" in fails(checks.check_ate, est, ref, rms + 1e-6, mx, bound)


def test_detection_moved_onto_a_distractor_post():
    world = builtin_worlds()["distractor_hall"]
    pose = Pose2D(7.0, 1.5, 0.3)    # marker at x=10 and the post at (8, 2.2) in view
    scan = simulate_scan(world, pose, SimConfig(spec=get_sensor("r2000"), seed=3))
    centres = np.array([d.center for d in detect(scan)]).reshape(-1, 2)
    geometry = checks.marker_geometry(world)
    assert len(centres) >= 1
    assert checks.scan_detection_errors(scan, pose, centres, geometry) == (0, 0)
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    dx, dy = 8.0 - pose.x, 2.2 - pose.y
    moved = centres.copy()
    moved[0] = (c * dx + s * dy, -s * dx + c * dy)      # the post, in the sensor frame
    outside, _ = checks.scan_detection_errors(scan, pose, moved, geometry)
    assert outside == 1


def test_scan_log_value_changed_after_the_round_trip():
    world = builtin_worlds()["corridor_marked"]
    cfg = SimConfig(spec=get_sensor("r2000"), seed=0)
    rng = np.random.default_rng(0)
    scans = [simulate_scan(world, Pose2D(0.1 * k, 1.5, 0.0), cfg, rng, 0.02 * k)
             for k in range(3)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scans.jsonl"
        write_scan_log(path, scans)
        back = read_scan_log(path)
    checks.check_round_trip(scans, back)
    assert np.isnan(back[1].ranges).any()

    def altered(scan, ranges):
        return LaserScan(scan.timestamp, scan.start_angle, ranges, scan.intensities, scan.spec)

    finite = np.flatnonzero(np.isfinite(back[1].ranges))[0]
    nudged = back[1].ranges.copy()
    nudged[finite] = np.nextafter(nudged[finite], np.inf)   # one ulp
    assert "ranges" in fails(checks.check_round_trip, scans, [back[0], altered(back[1], nudged), back[2]])
    filled = np.nan_to_num(back[1].ranges, nan=1.0)          # a NaN beam made valid
    assert "ranges" in fails(checks.check_round_trip, scans, [back[0], altered(back[1], filled), back[2]])


def test_percentile_over_too_few_samples():
    need = math.ceil(checks.MIN_TAIL_SAMPLES * 100 / (100 - 97.0))
    values = np.arange(need, dtype=float)
    assert checks.percentile(values, 97.0) == float(np.percentile(values, 97.0))
    assert "samples" in fails(checks.percentile, values[:-1], 97.0)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} self-tests passed")
