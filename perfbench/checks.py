"""The benchmark's own output checks.

Each check recomputes what it verifies apart from the code under test, or
tests a property the method must have, and raises CheckFailed with a
one-line reason. perfbench/selftest.py feeds each one a perturbed input.
"""

from __future__ import annotations

import math

import numpy as np

# A tail percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
ATE_AGREEMENT_M = 1e-9      # compute_ate vs the closed-form alignment here
LABEL_PAD_M = 0.02          # marker strip to label box, as the toolkit labels
LABEL_GROW_M = 0.10         # label box to accepted detection region
VISIBLE_RANGE_M = 6.0       # a marker must be found within this range ...
VISIBLE_INCIDENCE = math.radians(60.0)  # ... and this incidence angle


class CheckFailed(AssertionError):
    pass


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def percentile(values, q: float, min_tail: int = MIN_TAIL_SAMPLES) -> float:
    """Linear-interpolated q-th percentile, refused when fewer than min_tail
    samples lie beyond it."""
    n = len(values)
    require(n * (100.0 - q) / 100.0 >= min_tail,
            f"p{q:g} needs {math.ceil(min_tail * 100.0 / (100.0 - q))} samples, got {n}")
    return float(np.percentile(np.asarray(values, dtype=float), q))


# -- scan log round trip ---------------------------------------------------------

def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape:
        return False
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    if not np.array_equal(nan_a, nan_b):
        return False
    keep = ~nan_a
    return bool(np.array_equal(a[keep].view(np.uint64), b[keep].view(np.uint64)))


def check_round_trip(simulated, read_back) -> None:
    """The scan log read back is bit-identical to the simulated scans, with
    NaN (invalid beam) positions preserved."""
    require(len(simulated) == len(read_back),
            f"log holds {len(read_back)} scans, {len(simulated)} were written")
    for k, (a, b) in enumerate(zip(simulated, read_back)):
        require(a.timestamp == b.timestamp and a.start_angle == b.start_angle
                and a.spec == b.spec, f"scan {k}: header changed in the round trip")
        require(_same_bits(a.ranges, b.ranges), f"scan {k}: ranges changed in the round trip")
        require(_same_bits(a.intensities, b.intensities),
                f"scan {k}: intensities changed in the round trip")


# -- odometry outputs ------------------------------------------------------------

def check_timestamps(scan_times, output_times, keyframe_times) -> None:
    """One pose per scan with the input timestamps; keyframe timestamps
    strictly increase and are a subset of the scan timestamps."""
    require(list(output_times) == list(scan_times),
            f"{len(output_times)} poses for {len(scan_times)} scans or timestamps differ")
    kf = np.asarray(keyframe_times, dtype=float)
    require(len(kf) >= 1, "no keyframe")
    require(bool(np.all(np.diff(kf) > 0)), "keyframe timestamps do not strictly increase")
    require(set(kf.tolist()) <= set(scan_times), "a keyframe timestamp is not a scan timestamp")


def aligned_errors(estimate_xy, reference_xy) -> np.ndarray:
    """Per-pose position errors after the least-squares rigid alignment of the
    estimate onto the reference (Kabsch via SVD, reflection excluded)."""
    est = np.asarray(estimate_xy, dtype=float)
    ref = np.asarray(reference_xy, dtype=float)
    mu_e, mu_r = est.mean(axis=0), ref.mean(axis=0)
    u, _, vt = np.linalg.svd((est - mu_e).T @ (ref - mu_r))
    d = np.diag([1.0, np.sign(np.linalg.det(vt.T @ u.T))])
    rot = vt.T @ d @ u.T
    return np.linalg.norm((est - mu_e) @ rot.T + mu_r - ref, axis=1)


def check_ate(estimate_xy, reference_xy, toolkit_rms: float, toolkit_max: float,
              bound: float) -> tuple[float, float]:
    """The toolkit's ATE agrees with the closed-form alignment here, and the
    maximum error stays under the workload's acceptance bound. Returns
    (rms, max) of the independent computation."""
    err = aligned_errors(estimate_xy, reference_xy)
    rms, mx = float(np.sqrt(np.mean(err ** 2))), float(err.max())
    require(abs(rms - toolkit_rms) <= ATE_AGREEMENT_M and abs(mx - toolkit_max) <= ATE_AGREEMENT_M,
            f"compute_ate rms/max {toolkit_rms:.9f}/{toolkit_max:.9f} m vs "
            f"closed form {rms:.9f}/{mx:.9f} m")
    require(mx < bound, f"max ATE {mx:.4f} m is not under {bound} m")
    return rms, mx


# -- marker detections -------------------------------------------------------------

def marker_geometry(world):
    """(centres (K,2), boxes (K,4) as x0 y0 x1 y1, unit wall normals (K,2)) of
    every world marker, computed from the segment list."""
    centres, boxes, normals = [], [], []
    for m in world.markers:
        seg = world.segments[m.segment]
        p1, p2 = np.asarray(seg.p1, dtype=float), np.asarray(seg.p2, dtype=float)
        along = (p2 - p1) / math.dist(seg.p1, seg.p2)
        a = p1 + along * (m.offset - m.width / 2)
        b = p1 + along * (m.offset + m.width / 2)
        centres.append((a + b) / 2)
        boxes.append([min(a[0], b[0]) - LABEL_PAD_M, min(a[1], b[1]) - LABEL_PAD_M,
                      max(a[0], b[0]) + LABEL_PAD_M, max(a[1], b[1]) + LABEL_PAD_M])
        normals.append([-along[1], along[0]])
    return np.array(centres).reshape(-1, 2), np.array(boxes).reshape(-1, 4), \
        np.array(normals).reshape(-1, 2)


def _inside(points, box, margin):
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    return ((p[:, 0] >= box[0] - margin) & (p[:, 0] <= box[2] + margin)
            & (p[:, 1] >= box[1] - margin) & (p[:, 1] <= box[3] + margin))


def _to_world(pose, points):
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    return np.column_stack((c * p[:, 0] - s * p[:, 1] + pose.x,
                            s * p[:, 0] + c * p[:, 1] + pose.y))


def scan_detection_errors(scan, pose, centres_sensor, geometry) -> tuple[int, int]:
    """(detections outside every grown label box, visible markers missed) for
    one scan. A marker is visible when a beam lands in its label box, within
    VISIBLE_RANGE_M and VISIBLE_INCIDENCE of the sensor."""
    _, boxes, normals = geometry
    det_world = _to_world(pose, centres_sensor)
    finite = np.isfinite(scan.ranges)
    r = scan.ranges[finite]
    b = scan.start_angle + np.nonzero(finite)[0] * scan.spec.angular_resolution
    beams_world = _to_world(pose, np.column_stack((r * np.cos(b), r * np.sin(b))))
    sensor = np.array([pose.x, pose.y])
    matched = np.zeros(len(det_world), dtype=bool)
    missed = 0
    for box, normal in zip(boxes, normals):
        hit = _inside(det_world, box, LABEL_GROW_M)
        matched |= hit
        centre = np.array([(box[0] + box[2]) / 2, (box[1] + box[3]) / 2])
        to_sensor = sensor - centre
        dist = float(np.linalg.norm(to_sensor))
        incidence = math.acos(min(1.0, abs(float(to_sensor @ normal)) / dist))
        visible = (bool(_inside(beams_world, box, LABEL_GROW_M).any())
                   and dist <= VISIBLE_RANGE_M and incidence <= VISIBLE_INCIDENCE)
        if visible and not hit.any():
            missed += 1
    return int((~matched).sum()), missed


def detection_position_errors(pose, centres_sensor, marker_centres) -> np.ndarray:
    """Distance from each detection, placed in the world by the ground-truth
    pose, to the nearest true marker centre."""
    det_world = _to_world(pose, centres_sensor)
    if len(det_world) == 0:
        return np.zeros(0)
    d = det_world[:, None, :] - marker_centres[None, :, :]
    return np.sqrt((d ** 2).sum(axis=2)).min(axis=1)
