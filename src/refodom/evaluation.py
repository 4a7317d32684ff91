"""Trajectory and detector evaluation.

Trajectories are rigidly aligned by the closed-form least-squares solution of
the 2D absolute orientation problem before per-pose errors are computed; a
run fails when the maximum error exceeds the failure threshold. Detector
quality is measured against world-frame marker bounding boxes grown by a
margin, with false negatives counted per visible box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import MarkerDetection
from .geometry import Pose2D, transform_points
from .scan import LaserScan

DEFAULT_FAIL_THRESHOLD = 1.0  # m
GROW_MARGIN = 0.10            # m, label boxes grow by this before matching


@dataclass
class TrajectoryReport:
    rmse: float
    max_error: float
    per_pose_errors: np.ndarray
    aligned_transform: Pose2D
    success: bool
    fail_threshold: float = DEFAULT_FAIL_THRESHOLD

    def summary(self) -> str:
        status = "SUCCESS" if self.success else "FAILED"
        return (f"{status} rmse={self.rmse:.4f} m max={self.max_error:.4f} m "
                f"threshold={self.fail_threshold:.2f} m poses={len(self.per_pose_errors)}")


@dataclass(frozen=True)
class MarkerLabel:
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    normal: tuple | None = None   # world-frame wall normal, for visibility gating

    def __post_init__(self):
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError("label box must have positive area")

    def grown(self, margin: float) -> "MarkerLabel":
        return MarkerLabel(self.x_min - margin, self.y_min - margin,
                           self.x_max + margin, self.y_max + margin, self.normal)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return ((pts[:, 0] >= self.x_min) & (pts[:, 0] <= self.x_max)
                & (pts[:, 1] >= self.y_min) & (pts[:, 1] <= self.y_max))

    @property
    def center(self) -> np.ndarray:
        return np.array([(self.x_min + self.x_max) / 2.0,
                         (self.y_min + self.y_max) / 2.0])


@dataclass
class PRPoint:
    threshold: float
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int


def associate_by_time(estimate, reference, max_gap: float):
    """Nearest-timestamp association between two (t, pose) sequences."""
    pairs = []
    ref_times = np.array([t for t, _ in reference])
    for t, pose in estimate:
        i = int(np.argmin(np.abs(ref_times - t)))
        if abs(ref_times[i] - t) <= max_gap:
            pairs.append((pose, reference[i][1]))
    return pairs


def _default_max_gap(reference) -> float:
    times = np.array([t for t, _ in reference])
    if len(times) < 2:
        return math.inf
    return 0.5 * float(np.median(np.diff(times)))


def _align(estimate, reference, max_gap):
    """(g, a, b): the (n, 2) estimate and reference positions of the
    temporally associated pose pairs, and the closed-form rigid transform g
    minimizing sum ||g * a_i - b_i||^2."""
    if max_gap is None:
        max_gap = _default_max_gap(reference)
    pairs = associate_by_time(estimate, reference, max_gap)
    if len(pairs) < 2:
        raise ValueError("need at least 2 temporally associated pose pairs")
    a = np.array([[p.x, p.y] for p, _ in pairs])
    b = np.array([[p.x, p.y] for _, p in pairs])
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    da, db = a - mu_a, b - mu_b
    s_cos = float(np.sum(da * db))
    s_sin = float(np.sum(da[:, 0] * db[:, 1] - da[:, 1] * db[:, 0]))
    theta = math.atan2(s_sin, s_cos)
    c, s = math.cos(theta), math.sin(theta)
    tx = mu_b[0] - (c * mu_a[0] - s * mu_a[1])
    ty = mu_b[1] - (s * mu_a[0] + c * mu_a[1])
    return Pose2D(tx, ty, theta), a, b


def compute_ate(estimate, reference,
                fail_threshold: float = DEFAULT_FAIL_THRESHOLD,
                max_gap: float | None = None) -> TrajectoryReport:
    """Absolute tracking error after optimal rigid alignment."""
    g, a, b = _align(estimate, reference, max_gap)
    errors = np.linalg.norm(transform_points(g, a) - b, axis=1)
    rmse = float(np.sqrt(np.mean(errors ** 2)))
    max_error = float(errors.max())
    return TrajectoryReport(rmse, max_error, errors, g,
                            max_error <= fail_threshold, fail_threshold)


def threshold_detector(scan: LaserScan, i_min: float | None = None):
    """Baseline: every maximal run of consecutive beams at or above the
    intensity threshold becomes one detection at the run's mean position."""
    if i_min is None:
        i_min = scan.spec.i_min
    points, intensities, beam_idx = scan.to_cartesian()
    hot = np.flatnonzero(intensities >= i_min)
    runs = np.split(hot, np.flatnonzero(np.diff(beam_idx[hot]) > 1) + 1) if len(hot) else []
    return [MarkerDetection(
        center=points[run].mean(axis=0),
        normal=np.array([0.0, 0.0]),
        support_start=int(beam_idx[run[0]]),
        support_end=int(beam_idx[run[-1]]),
        incidence_angle=0.0,
        mean_intensity=float(intensities[run].mean()),
    ) for run in runs]


def evaluate_detector(scan_records, labels, threshold: float = 0.0,
                      fn_max_range: float | None = None,
                      fn_max_incidence: float | None = None) -> PRPoint:
    """Precision/recall of per-scan detections against grown label boxes.

    scan_records is an iterable of (scan, ground-truth Pose2D, detections).
    A detection is a true positive when its world-frame center lies in any
    grown box. A visible box (one containing a scan point) with no detection
    inside counts as one false negative; visibility can be restricted by
    range / incidence so recall is measured only where detection is feasible.
    Recall is per (scan, box): detected boxes / visible boxes.
    """
    grown = [lbl.grown(GROW_MARGIN) for lbl in labels]
    tp = fp = fn = 0
    detected_boxes = 0
    for scan, pose, detections in scan_records:
        points, _, _ = scan.to_cartesian()
        world_pts = transform_points(pose, points)
        centers = np.array([d.center for d in detections], dtype=float).reshape(-1, 2)
        world_centers = transform_points(pose, centers)
        in_any = np.zeros(len(world_centers), dtype=bool)
        sensor = np.array([pose.x, pose.y])
        for lbl in grown:
            inside_det = lbl.contains(world_centers) if len(world_centers) else \
                np.zeros(0, dtype=bool)
            in_any |= inside_det
            visible = bool(lbl.contains(world_pts).any())
            if not visible:
                continue
            if fn_max_range is not None and \
                    float(np.linalg.norm(lbl.center - sensor)) > fn_max_range:
                continue
            if fn_max_incidence is not None and lbl.normal is not None:
                to_sensor = sensor - lbl.center
                dist = float(np.linalg.norm(to_sensor))
                if dist > 1e-9:
                    cos_inc = abs(float(np.dot(to_sensor, lbl.normal))) / dist
                    incidence = math.acos(min(1.0, max(-1.0, cos_inc)))
                    if incidence > fn_max_incidence:
                        continue
            if inside_det.any():
                detected_boxes += 1
            else:
                fn += 1
        tp += int(in_any.sum())
        fp += int((~in_any).sum())
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    visible_total = detected_boxes + fn
    recall = detected_boxes / visible_total if visible_total else 1.0
    return PRPoint(threshold, precision, recall, tp, fp, fn)


def pr_sweep(scans_with_poses, labels, detector_fn, thresholds,
             fn_max_range: float | None = None,
             fn_max_incidence: float | None = None) -> list[PRPoint]:
    """Sweep an intensity threshold; detector_fn(scan, i_min) -> detections.
    Returns one PRPoint per threshold, in sweep order."""
    points = []
    for thr in thresholds:
        records = ((scan, pose, detector_fn(scan, thr))
                   for scan, pose in scans_with_poses)
        points.append(evaluate_detector(records, labels, thr,
                                        fn_max_range, fn_max_incidence))
    return points


def labels_from_world(world, pad: float = 0.02):
    """Axis-aligned label boxes (with wall normals) for every world marker."""
    labels = []
    for m in world.markers:
        e1, e2 = world.marker_endpoints(m)
        seg = world.segments[m.segment]
        d = np.asarray(seg.p2, dtype=float) - np.asarray(seg.p1, dtype=float)
        n = np.array([-d[1], d[0]])
        n = n / np.linalg.norm(n)
        labels.append(MarkerLabel(
            min(e1[0], e2[0]) - pad, min(e1[1], e2[1]) - pad,
            max(e1[0], e2[0]) + pad, max(e1[1], e2[1]) + pad,
            normal=(float(n[0]), float(n[1])),
        ))
    return labels
