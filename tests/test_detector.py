import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refodom.detector import (DetectorParams, MarkerDetection, detect,
                              detection_to_line, expected_point_count,
                              fit_line, _GROW_CHUNK, _grow_wall_segments,
                              _merge_duplicates)
from refodom.geometry import Pose2D
from refodom.scan import get_sensor
from refodom.simulator import SimConfig, builtin_worlds, simulate_scan


# -- fit_line -----------------------------------------------------------------

def test_fit_line_exact_horizontal():
    pts = np.column_stack((np.linspace(0, 1, 8), np.full(8, 2.0)))
    direction, normal, mse = fit_line(pts)
    assert abs(direction[1]) < 1e-12
    assert mse == pytest.approx(0.0, abs=1e-15)
    # normal points toward the origin (downward from y=2)
    assert normal == pytest.approx([0.0, -1.0], abs=1e-12)


def test_fit_line_square_mse():
    # Four corners of an axis-aligned square centered at (0, 5): both principal
    # directions carry the same variance, the fit picks one, and the mean
    # squared perpendicular distance is the variance along the other: a^2.
    a = 0.1
    pts = np.array([[-a, 5 - a], [a, 5 - a], [a, 5 + a], [-a, 5 + a]])
    _, _, mse = fit_line(pts)
    assert mse == pytest.approx(a * a, rel=1e-12)


def test_fit_line_noisy_recovers_direction():
    rng = np.random.default_rng(0)
    t = np.linspace(0, 2, 60)
    theta = 0.3
    pts = np.column_stack((3 + t * math.cos(theta), 1 + t * math.sin(theta)))
    pts += rng.normal(0, 1e-3, pts.shape)
    direction, normal, mse = fit_line(pts)
    assert abs(abs(direction @ [math.cos(theta), math.sin(theta)]) - 1) < 1e-4
    assert abs(normal @ direction) < 1e-12
    assert mse < 1e-5


def test_fit_line_rejects_degenerate():
    with pytest.raises(ValueError):
        fit_line(np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError):
        fit_line(np.tile([2.0, 3.0], (5, 1)))


def test_fit_line_degeneracy_guard_as_allclose():
    # The guard rejects exactly the inputs whose covariance np.allclose(cov,
    # 0, atol=1e-18) calls zero: spreads around the threshold, and NaN input,
    # which is fitted (to NaN), not rejected.
    rng = np.random.default_rng(8)
    inputs = [np.tile([2.0, 3.0], (6, 1)) + scale * rng.normal(size=(6, 2))
              for scale in np.geomspace(1e-11, 1e-7, 40)]
    inputs.append(np.array([[np.nan, 1.0], [1.0, 1.0], [2.0, 1.0]]))
    rejected = 0
    for pts in inputs:
        d = pts - pts.mean(axis=0)
        degenerate = np.allclose(d.T @ d / len(pts), 0.0, atol=1e-18)
        try:
            fit_line(pts)
        except ValueError as exc:
            assert degenerate and "degenerate" in str(exc)
            rejected += 1
        else:
            assert not degenerate
    assert 0 < rejected < len(inputs) - 1


# -- expected point count -----------------------------------------------------

def test_expected_point_count_worked_case():
    # Head-on marker (5 cm) at 1 m with 0.5 deg beams.
    n = expected_point_count(np.array([1.0, 0.0]), 0.0, 0.05, math.radians(0.5))
    assert n == 8


def test_expected_point_count_monotonic_in_range():
    prev = None
    for r in np.linspace(0.5, 6.0, 12):
        n = expected_point_count(np.array([r, 0.0]), 0.0, 0.05, math.radians(0.5))
        if prev is not None:
            assert n <= prev
        prev = n


def test_expected_point_count_rejects_too_close():
    with pytest.raises(ValueError):
        expected_point_count(np.array([0.01, 0.0]), 0.0, 0.05, math.radians(0.5))


def oracle_beam_count(r, incidence, width, resolution, phase):
    """Independent ray enumeration: count the beams of an angular grid with
    the given phase whose center falls within one beam divergence of the
    marker's subtended arc."""
    half = width / 2.0
    tangent = np.array([-math.sin(incidence), math.cos(incidence)])
    e1 = np.array([r, 0.0]) + half * tangent
    e2 = np.array([r, 0.0]) - half * tangent
    psi1 = math.atan2(e1[1], e1[0])
    psi2 = math.atan2(e2[1], e2[0])
    lo, hi = min(psi1, psi2) - resolution, max(psi1, psi2) + resolution
    k_lo = math.ceil((lo - phase) / resolution)
    k_hi = math.floor((hi - phase) / resolution)
    return k_hi - k_lo + 1


def test_expected_point_count_matches_ray_oracle():
    rng = np.random.default_rng(42)
    resolutions = [get_sensor(n).angular_resolution for n in ("lms151", "r2000", "os32c")]
    for _ in range(300):
        r = rng.uniform(0.5, 6.0)
        inc = rng.uniform(0.0, math.radians(60.0))
        res = resolutions[rng.integers(len(resolutions))]
        phase = rng.uniform(0, res)
        predicted = expected_point_count(np.array([r, 0.0]), inc, 0.05, res)
        actual = oracle_beam_count(r, inc, 0.05, res, phase)
        assert abs(predicted - actual) <= 1


# -- wall-segment growth -------------------------------------------------------

def grow_per_beam(points, finite, j, window):
    """The beam-by-beam growth that _grow_wall_segments replaced, kept as its
    oracle: extend [lo, hi] from beam j while the next beam is finite and
    within the window of p_j."""
    n = len(points)
    pj = points[j]
    lo = j
    while lo - 1 >= 0 and finite[lo - 1] and np.linalg.norm(points[lo - 1] - pj) <= window:
        lo -= 1
    hi = j
    while hi + 1 < n and finite[hi + 1] and np.linalg.norm(points[hi + 1] - pj) <= window:
        hi += 1
    return lo, hi


def assert_growth_matches_oracle(points, finite, seeds, window):
    lo, hi = _grow_wall_segments(points, finite, np.asarray(seeds, dtype=np.int64), window)
    for j, l, h in zip(seeds, lo, hi):
        assert (l, h) == grow_per_beam(points, finite, j, window), j


@st.composite
def beam_rows(draw):
    """Beam endpoints as detect() builds them: wall runs of small steps
    broken by depth jumps, NaN beams at zero, and a window that is either
    drawn or exactly one beam's distance from a seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 4 * _GROW_CHUNK + 3))
    steps = rng.uniform(0.0, 0.01, (n, 2))
    jumps = rng.random(n) < draw(st.sampled_from([0.0, 0.01, 0.05]))
    steps[jumps] += rng.uniform(-1.0, 1.0, (int(jumps.sum()), 2))
    points = rng.uniform(-5.0, 5.0, 2) + np.cumsum(steps, axis=0)
    finite = rng.random(n) >= draw(st.sampled_from([0.0, 0.02, 0.2]))
    points[~finite] = 0.0
    seeds = sorted({0, n - 1} | set(rng.integers(0, n, 8).tolist()))
    if draw(st.booleans()):
        j, k = rng.integers(0, n, 2)
        window = float(np.linalg.norm(points[k] - points[j])) or 0.1
    else:
        window = draw(st.sampled_from([0.02, 0.15, 0.5, 10.0]))
    return points, finite, seeds, window


@settings(max_examples=300, deadline=None, database=None)
@given(row=beam_rows())
def test_grown_segments_equal_per_beam_growth(row):
    assert_growth_matches_oracle(*row)


def test_growth_spans_chunks_and_reaches_both_ends():
    n = 3 * _GROW_CHUNK + 7
    points = np.column_stack((np.linspace(1.0, 2.0, n), np.full(n, 0.5)))
    finite = np.ones(n, dtype=bool)
    lo, hi = _grow_wall_segments(points, finite, np.array([0, n // 2, n - 1]), 5.0)
    assert lo.tolist() == [0, 0, 0] and hi.tolist() == [n - 1] * 3
    finite[[10, n - 5]] = False
    assert_growth_matches_oracle(points, finite, [0, 9, 11, n // 2, n - 6, n - 1], 5.0)
    lo, hi = _grow_wall_segments(points, finite, np.array([n // 2]), 5.0)
    assert (lo[0], hi[0]) == (11, n - 6)


def test_growth_window_ties_follow_the_norm_bit_for_bit():
    # The window equals one neighbour's np.linalg.norm distance exactly, so
    # the neighbour counts; a distance that rounds differently by one ulp
    # would flip it.
    rng = np.random.default_rng(17)
    for _ in range(400):
        points = np.vstack((np.zeros(2), rng.normal(0.0, 0.1, 2)))
        window = float(np.linalg.norm(points[1]))
        lo, hi = _grow_wall_segments(points, np.ones(2, dtype=bool), np.array([0]), window)
        assert (lo[0], hi[0]) == (0, 1)


# -- params validation --------------------------------------------------------

def test_detector_params_validation():
    with pytest.raises(ValueError):
        DetectorParams(r_min=2.0, r_max=1.0)
    with pytest.raises(ValueError):
        DetectorParams(p_min=2)
    with pytest.raises(ValueError):
        DetectorParams(jump_fraction=0.0)
    with pytest.raises(ValueError):
        DetectorParams(flat_angle_max=math.pi / 2)
    for bad in ({"flat_angle_max": 0.0}, {"p_min": 5.0}, {"duplicate_merge_dist": -0.1},
                {"duplicate_merge_dist": math.inf}, {"window": -1.0}):
        with pytest.raises(ValueError):
            DetectorParams(**bad)
    assert DetectorParams(duplicate_merge_dist=0.0).duplicate_merge_dist == 0.0


# -- detect on simulated scans -----------------------------------------------

def marked_scan(pose=Pose2D(0.0, 1.5, 0.0), sensor="lms151", seed=0):
    world = builtin_worlds()["corridor_marked"]
    cfg = SimConfig(spec=get_sensor(sensor), seed=seed)
    return simulate_scan(world, pose, cfg), world


def test_detect_finds_nearby_marker():
    scan, world = marked_scan(Pose2D(2.0, 1.5, 0.0))
    detections = detect(scan)
    assert detections, "expected at least one marker detection"
    centers_world = np.array([d.center for d in detections]) + [2.0, 1.5]
    marker_xy = np.array([[np.mean([e1[0], e2[0]]), np.mean([e1[1], e2[1]])]
                          for e1, e2 in (world.marker_endpoints(m) for m in world.markers)])
    # every detection lies on a true marker
    for c in centers_world:
        assert np.linalg.norm(marker_xy - c, axis=1).min() < 0.05


def test_detect_normal_faces_sensor():
    scan, _ = marked_scan(Pose2D(2.0, 1.5, 0.0))
    for det in detect(scan):
        assert np.dot(det.normal, -det.center) > 0
        assert np.linalg.norm(det.normal) == pytest.approx(1.0, abs=1e-9)
        assert 0 <= det.incidence_angle <= math.radians(80)


def test_detect_support_indices_cover_hot_beams():
    scan, _ = marked_scan(Pose2D(2.0, 1.5, 0.0))
    for det in detect(scan):
        assert det.support_start <= det.support_end
        seg = scan.intensities[det.support_start:det.support_end + 1]
        assert seg.mean() == pytest.approx(det.mean_intensity)


def test_detect_nothing_without_markers():
    world = builtin_worlds()["corridor"]
    cfg = SimConfig(spec=get_sensor("lms151"), seed=0)
    scan = simulate_scan(world, Pose2D(2.0, 1.5, 0.0), cfg)
    assert detect(scan) == []


def test_detect_high_threshold_suppresses():
    scan, _ = marked_scan(Pose2D(2.0, 1.5, 0.0))
    assert detect(scan, i_min=1e7) == []


def test_detect_range_gate():
    # Push r_max below the marker distance: detection must vanish.
    scan, _ = marked_scan(Pose2D(2.0, 1.5, 0.0))
    near_only = DetectorParams(r_min=0.5, r_max=1.0)
    assert detect(scan, near_only) == []


def test_detect_deterministic():
    scan, _ = marked_scan(Pose2D(2.0, 1.5, 0.0))
    a = detect(scan)
    b = detect(scan)
    assert len(a) == len(b)
    for da, db in zip(a, b):
        assert np.array_equal(da.center, db.center)


# -- duplicate merge ----------------------------------------------------------

def _det(center, start, end):
    return MarkerDetection(center=np.asarray(center, dtype=float),
                           normal=np.array([1.0, 0.0]),
                           support_start=start, support_end=end,
                           incidence_angle=0.0, mean_intensity=100.0)


def test_merge_duplicates_keeps_larger_support():
    small = _det([1.0, 0.0], 10, 12)
    big = _det([1.02, 0.0], 20, 26)
    kept = _merge_duplicates([small, big], merge_dist=0.10)
    assert kept == [big]


def test_merge_duplicates_keeps_distant():
    a = _det([1.0, 0.0], 10, 12)
    b = _det([3.0, 0.0], 20, 22)
    kept = _merge_duplicates([a, b], merge_dist=0.10)
    assert kept == [a, b]  # sorted by support start


def test_detection_to_line_fields():
    det = _det([1.5, -0.5], 10, 14)
    line = detection_to_line(0.25, det)
    parts = line.split()
    assert len(parts) == 6
    assert float(parts[0]) == 0.25
    assert float(parts[1]) == 1.5
    assert float(parts[2]) == -0.5
    assert int(parts[4]) == 5
