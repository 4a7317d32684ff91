import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refodom.evaluation import (MarkerLabel, associate_by_time, compute_ate,
                                evaluate_detector, labels_from_world, pr_sweep,
                                threshold_detector)
from refodom.geometry import Pose2D, compose
from refodom.scan import LaserScan, get_sensor
from refodom.simulator import SimConfig, builtin_worlds, simulate_scan


def straight_trajectory(n=120, dt=0.02):
    return [(k * dt, Pose2D(0.1 * k, 0.05 * math.sin(0.1 * k), 0.01 * k))
            for k in range(n)]


def test_identical_trajectories_zero_rmse():
    traj = straight_trajectory()
    report = compute_ate(traj, traj)
    assert report.rmse <= 1e-9
    assert report.max_error <= 1e-9
    assert report.success


def test_rigid_copy_aligns_to_zero():
    traj = straight_trajectory()
    g = Pose2D(3.0, -2.0, 0.7)
    moved = [(t, compose(g, p)) for t, p in traj]
    report = compute_ate(moved, traj)
    assert report.rmse <= 1e-6
    # recovered alignment undoes g
    recovered = compose(report.aligned_transform, g)
    assert abs(recovered.x) < 1e-6 and abs(recovered.y) < 1e-6
    assert abs(recovered.theta) < 1e-6


def test_single_outlier_fails_threshold():
    traj = straight_trajectory(n=120)
    bad = list(traj)
    t, p = bad[60]
    bad[60] = (t, Pose2D(p.x + 2.0, p.y, p.theta))
    report = compute_ate(bad, traj, fail_threshold=1.0)
    assert not report.success
    assert report.max_error > 1.0
    assert "FAILED" in report.summary()


def test_align_recovers_random_transforms():
    rng = np.random.default_rng(0)
    traj = straight_trajectory()
    for _ in range(10):
        g = Pose2D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3))
        moved = [(t, compose(g, p)) for t, p in traj]
        est = compute_ate(traj, moved).aligned_transform
        assert est.x == pytest.approx(g.x, abs=1e-9)
        assert est.y == pytest.approx(g.y, abs=1e-9)
        assert est.theta == pytest.approx(g.theta, abs=1e-9)


def test_associate_by_time_gap():
    ref = [(0.0, Pose2D()), (1.0, Pose2D(1, 0, 0))]
    est = [(0.01, Pose2D()), (0.6, Pose2D()), (5.0, Pose2D())]
    pairs = associate_by_time(est, ref, max_gap=0.05)
    assert len(pairs) == 1


def test_compute_ate_needs_overlap():
    ref = [(0.0, Pose2D()), (0.02, Pose2D(1, 0, 0))]
    est = [(100.0, Pose2D()), (100.02, Pose2D())]
    with pytest.raises(ValueError):
        compute_ate(est, ref)


def test_marker_label_boxes():
    lbl = MarkerLabel(0.0, 0.0, 1.0, 1.0)
    grown = lbl.grown(0.1)
    assert grown.x_min == pytest.approx(-0.1)
    inside = lbl.contains(np.array([[0.5, 0.5], [2.0, 0.5]]))
    assert list(inside) == [True, False]
    assert lbl.center == pytest.approx([0.5, 0.5])
    with pytest.raises(ValueError):
        MarkerLabel(1.0, 0.0, 0.0, 1.0)


def test_labels_from_world():
    world = builtin_worlds()["corridor_marked"]
    labels = labels_from_world(world)
    assert len(labels) == len(world.markers)
    for lbl in labels:
        assert lbl.normal is not None
        assert np.linalg.norm(lbl.normal) == pytest.approx(1.0)


def test_threshold_detector_runs_and_groups():
    spec = get_sensor("lms151")
    ranges = np.full(spec.beam_count, 2.0)
    intensities = np.zeros(spec.beam_count)
    intensities[100:104] = 1500.0  # one hot run
    intensities[200:202] = 1500.0  # another
    scan = LaserScan(0.0, -spec.fov / 2, ranges, intensities, spec)
    dets = threshold_detector(scan)
    assert len(dets) == 2
    assert dets[0].support_start == 100 and dets[0].support_end == 103


def test_evaluate_detector_counts():
    world = builtin_worlds()["corridor_marked"]
    cfg = SimConfig(spec=get_sensor("lms151"), range_noise_sigma=0.0)
    pose = Pose2D(4.0, 1.5, math.pi / 2)
    scan = simulate_scan(world, pose, cfg)
    labels = labels_from_world(world)
    from refodom.detector import detect
    point = evaluate_detector([(scan, pose, detect(scan))], labels)
    assert 0.0 <= point.precision <= 1.0
    assert 0.0 <= point.recall <= 1.0
    assert point.tp + point.fp == len(detect(scan))


def test_pr_sweep_bounds_and_monotone_fp():
    world = builtin_worlds()["corridor_marked"]
    cfg = SimConfig(spec=get_sensor("lms151"), seed=0)
    pose = Pose2D(4.0, 1.5, math.pi / 2)
    scan = simulate_scan(world, pose, cfg)
    labels = labels_from_world(world)
    points = pr_sweep([(scan, pose)], labels, threshold_detector,
                      np.linspace(500, 5000, 5))
    assert len(points) == 5
    fps = [p.fp for p in points]
    assert fps == sorted(fps, reverse=True)  # higher threshold, fewer FPs
    for p in points:
        assert 0.0 <= p.precision <= 1.0 and 0.0 <= p.recall <= 1.0


# -- the old code as oracle ---------------------------------------------------

def old_threshold_detector(scan, i_min):
    """threshold_detector as a loop that closes a run at every beam gap."""
    points, intensities, beam_idx = scan.to_cartesian()
    runs, run = [], []
    for k in range(len(points)):
        if intensities[k] < i_min:
            continue
        if run and beam_idx[k] != beam_idx[run[-1]] + 1:
            runs.append(run)
            run = []
        run.append(k)
    if run:
        runs.append(run)
    return [(points[r].mean(axis=0), int(beam_idx[r[0]]), int(beam_idx[r[-1]]),
             float(intensities[r].mean())) for r in runs]


@settings(max_examples=200, deadline=None)
@given(hot=st.lists(st.booleans(), min_size=1, max_size=80),
       invalid=st.lists(st.booleans(), min_size=80, max_size=80),
       seed=st.integers(0, 2**32 - 1), start=st.integers(0, 460))
def test_threshold_detector_equals_closure_loop(hot, invalid, seed, start):
    # Runs split at gaps in the beam index, whether a cold or an invalid beam
    # makes the gap; centres and mean intensities keep every bit.
    spec = get_sensor("lms151")
    rng = np.random.default_rng(seed)
    n = spec.beam_count
    ranges = rng.uniform(0.5, 15.0, n)
    intensities = rng.uniform(0.0, 900.0, n)
    window = slice(start, start + len(hot))
    intensities[window] = np.where(hot, rng.uniform(1000.0, 3000.0, len(hot)),
                                   intensities[window])
    ranges[window] = np.where(invalid[:len(hot)], np.nan, ranges[window])
    scan = LaserScan(0.0, -spec.fov / 2, ranges, intensities, spec)
    got = [(d.center, d.support_start, d.support_end, d.mean_intensity)
           for d in threshold_detector(scan, 1000.0)]
    want = old_threshold_detector(scan, 1000.0)
    assert len(got) == len(want)
    for (c, s, e, m), (c0, s0, e0, m0) in zip(got, want):
        assert c.tobytes() == c0.tobytes()
        assert (s, e) == (s0, e0) and m == m0


def old_compute_ate(estimate, reference):
    """compute_ate that associated the trajectories a second time after the
    alignment had done so."""
    from refodom.evaluation import _align, _default_max_gap
    from refodom.geometry import transform_points
    max_gap = _default_max_gap(reference)
    g = _align(estimate, reference, max_gap)[0]
    pairs = associate_by_time(estimate, reference, max_gap)
    a = np.array([[p.x, p.y] for p, _ in pairs])
    b = np.array([[p.x, p.y] for _, p in pairs])
    errors = np.linalg.norm(transform_points(g, a) - b, axis=1)
    return g, errors


def test_compute_ate_equals_double_association():
    rng = np.random.default_rng(11)
    ref = straight_trajectory()
    est = [(t + rng.uniform(-0.004, 0.004),
            compose(Pose2D(1.0, -0.5, 0.3),
                    Pose2D(p.x + rng.normal(0, 0.02), p.y + rng.normal(0, 0.02), p.theta)))
           for t, p in ref[5:]]
    report = compute_ate(est, ref)
    g, errors = old_compute_ate(est, ref)
    assert report.aligned_transform == g
    assert report.per_pose_errors.tobytes() == errors.tobytes()
