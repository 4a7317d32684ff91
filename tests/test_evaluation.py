import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refodom.detector import MarkerDetection
from refodom.evaluation import (GROW_MARGIN, LABEL_PAD, associate_by_time, compute_ate,
                                evaluate_detector, labels_from_world, pr_sweep,
                                threshold_detector)
from refodom.geometry import Pose2D, compose, inverse, transform_points
from refodom.scan import LaserScan, get_sensor
from refodom.simulator import (Segment, SimConfig, World, builtin_worlds,
                               simulate_scan)


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
    # Each box is the marker's extent padded by LABEL_PAD on every side.
    world = builtin_worlds()["distractor_hall"]
    boxes, _ = labels_from_world(world)
    for box, m in zip(boxes, world.markers):
        e1, e2 = world.marker_endpoints(m)
        assert box.tolist() == [min(e1[0], e2[0]) - LABEL_PAD, min(e1[1], e2[1]) - LABEL_PAD,
                                max(e1[0], e2[0]) + LABEL_PAD, max(e1[1], e2[1]) + LABEL_PAD]


def test_labels_from_world():
    for name in ("corridor_marked", "distractor_hall", "corridor"):
        world = builtin_worlds()[name]
        boxes, normals = labels_from_world(world)
        assert boxes.shape == (len(world.markers), 4)
        assert normals.shape == (len(world.markers), 2)
        assert np.all(boxes[:, 2] > boxes[:, 0]) and np.all(boxes[:, 3] > boxes[:, 1])
        assert np.linalg.norm(normals, axis=1) == pytest.approx(1.0)


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
    return [(points[r].mean(axis=0), int(beam_idx[r[0]]), int(beam_idx[r[-1]]))
            for r in runs]


@settings(max_examples=200, deadline=None)
@given(hot=st.lists(st.booleans(), min_size=1, max_size=80),
       invalid=st.lists(st.booleans(), min_size=80, max_size=80),
       seed=st.integers(0, 2**32 - 1), start=st.integers(0, 460))
def test_threshold_detector_equals_closure_loop(hot, invalid, seed, start):
    # Runs split at gaps in the beam index, whether a cold or an invalid beam
    # makes the gap; centres keep every bit.
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
    got = [(d.center, d.support_start, d.support_end)
           for d in threshold_detector(scan, 1000.0)]
    want = old_threshold_detector(scan, 1000.0)
    assert len(got) == len(want)
    for (c, s, e), (c0, s0, e0) in zip(got, want):
        assert c.tobytes() == c0.tobytes()
        assert (s, e) == (s0, e0)


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


@dataclass(frozen=True)
class OldLabel:
    """The label class evaluate_detector looped over, one box at a time."""
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    normal: tuple

    def grown(self, margin):
        return OldLabel(self.x_min - margin, self.y_min - margin,
                        self.x_max + margin, self.y_max + margin, self.normal)

    def contains(self, points):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return ((pts[:, 0] >= self.x_min) & (pts[:, 0] <= self.x_max)
                & (pts[:, 1] >= self.y_min) & (pts[:, 1] <= self.y_max))

    @property
    def center(self):
        return np.array([(self.x_min + self.x_max) / 2.0,
                         (self.y_min + self.y_max) / 2.0])


def old_evaluate_detector(scan_records, labels, fn_max_range, fn_max_incidence):
    """evaluate_detector as a loop over the labels of every scan."""
    grown = [OldLabel(*box, tuple(n)).grown(GROW_MARGIN) for box, n in zip(*labels)]
    tp = fp = fn = detected_boxes = 0
    for scan, pose, detections in scan_records:
        points, _, _ = scan.to_cartesian()
        world_pts = transform_points(pose, points)
        centers = np.array([d.center for d in detections], dtype=float).reshape(-1, 2)
        world_centers = transform_points(pose, centers)
        in_any = np.zeros(len(world_centers), dtype=bool)
        sensor = np.array([pose.x, pose.y])
        for lbl in grown:
            inside_det = lbl.contains(world_centers)
            in_any |= inside_det
            if not lbl.contains(world_pts).any():
                continue
            if fn_max_range is not None and \
                    float(np.linalg.norm(lbl.center - sensor)) > fn_max_range:
                continue
            if fn_max_incidence is not None:
                to_sensor = sensor - lbl.center
                dist = float(np.linalg.norm(to_sensor))
                if dist > 1e-9:
                    cos_inc = abs(float(np.dot(to_sensor, lbl.normal))) / dist
                    if math.acos(min(1.0, max(-1.0, cos_inc))) > fn_max_incidence:
                        continue
            if inside_det.any():
                detected_boxes += 1
            else:
                fn += 1
        tp += int(in_any.sum())
        fp += int((~in_any).sum())
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = detected_boxes / (detected_boxes + fn) if detected_boxes + fn else 1.0
    return tp, fp, fn, precision, recall


def rotated_world(world, angle):
    """The world turned about the origin, so that no wall is axis-aligned."""
    turn = Pose2D(0.0, 0.0, angle)
    return World(world.name, tuple(
        Segment(tuple(transform_points(turn, [s.p1])[0]), tuple(transform_points(turn, [s.p2])[0]),
                s.reflectivity) for s in world.segments), world.markers), turn


WORLDS = [rotated_world(builtin_worlds()[name], angle) for name, angle in
          (("corridor_marked", 0.0), ("distractor_hall", 0.0), ("corridor", 0.0),
           ("corridor_marked", 0.4))]
LMS151 = SimConfig(spec=get_sensor("lms151"), seed=0)


def _detection(center):
    return MarkerDetection(center=np.asarray(center, dtype=float), normal=np.zeros(2),
                           support_start=0, support_end=0, incidence_angle=0.0)


@settings(max_examples=200, deadline=None)
@given(world_turn=st.sampled_from(WORLDS),
       poses=st.lists(st.tuples(st.floats(-2.0, 42.0), st.floats(0.3, 2.7),
                                st.floats(-math.pi, math.pi)), min_size=1, max_size=3),
       picks=st.lists(st.tuples(st.integers(0, 20), st.floats(-0.3, 0.3),
                                st.floats(-0.3, 0.3)), max_size=6),
       fn_max_range=st.none() | st.floats(0.5, 8.0),
       fn_max_incidence=st.none() | st.floats(0.0, math.pi / 2))
def test_evaluate_detector_equals_label_loop(world_turn, poses, picks, fn_max_range,
                                             fn_max_incidence):
    # Detections lie near marker centres (true or false positives, by the
    # offset) or, for picks past the marker count, at an offset from the sensor.
    world, turn = world_turn
    labels = labels_from_world(world)
    marker_centers = (labels[0][:, :2] + labels[0][:, 2:]) / 2.0
    records = []
    for x, y, theta in poses:
        pose = compose(turn, Pose2D(x, y, theta))
        scan = simulate_scan(world, pose, LMS151)
        world_centers = [marker_centers[k] + (dx, dy) if k < len(marker_centers)
                         else (pose.x + dx, pose.y + dy) for k, dx, dy in picks]
        sensor_centers = transform_points(inverse(pose), np.reshape(world_centers, (-1, 2)))
        records.append((scan, pose, [_detection(c) for c in sensor_centers]))
    p = evaluate_detector(records, labels, 0.0, fn_max_range, fn_max_incidence)
    assert (p.tp, p.fp, p.fn, p.precision, p.recall) == \
        old_evaluate_detector(records, labels, fn_max_range, fn_max_incidence)


def test_grown_box_edges_count_as_inside():
    # At the identity pose the sensor frame is the world frame bit for bit,
    # so a detection can sit exactly on a grown box edge, or one ulp outside.
    world = builtin_worlds()["corridor_marked"]
    labels = labels_from_world(world)
    x_min, y_min, x_max, y_max = labels[0][0] + [-GROW_MARGIN, -GROW_MARGIN,
                                                 GROW_MARGIN, GROW_MARGIN]
    spec = get_sensor("lms151")
    blind = LaserScan(0.0, -spec.fov / 2, np.full(spec.beam_count, np.nan),
                      np.zeros(spec.beam_count), spec)
    xc, yc = (x_min + x_max) / 2.0, (y_min + y_max) / 2.0
    on_edges = [(x_min, yc), (x_max, yc), (xc, y_min), (xc, y_max)]
    outside = [(np.nextafter(x_min, -np.inf), yc), (np.nextafter(x_max, np.inf), yc),
               (xc, np.nextafter(y_min, -np.inf)), (xc, np.nextafter(y_max, np.inf))]
    p = evaluate_detector([(blind, Pose2D(), [_detection(c) for c in on_edges + outside])],
                          labels)
    assert (p.tp, p.fp, p.fn) == (4, 4, 0)
