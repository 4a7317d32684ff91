import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refodom.scan import (LaserScan, LidarSpec, SENSOR_PRESETS, get_sensor,
                          read_scan_log, scan_from_json, scan_to_json,
                          write_scan_log)


def make_scan(spec=None, timestamp=0.25):
    if spec is None:
        spec = get_sensor("lms151")
    n = spec.beam_count
    rng = np.random.default_rng(7)
    ranges = rng.uniform(0.5, 15.0, n)
    ranges[::17] = np.nan
    intensities = rng.uniform(0.0, 2000.0, n)
    intensities[np.isnan(ranges)] = 0.0
    return LaserScan(timestamp, -spec.fov / 2, ranges, intensities, spec)


def test_sensor_presets_exist():
    for name in ("lms151", "r2000", "os32c"):
        spec = get_sensor(name)
        assert spec.name == name
        assert spec.beam_count > 100


def test_get_sensor_unknown_lists_presets():
    with pytest.raises(KeyError) as exc:
        get_sensor("nope")
    msg = str(exc.value)
    for name in SENSOR_PRESETS:
        assert name in msg


def test_lidar_spec_validation():
    with pytest.raises(ValueError):
        LidarSpec("x", 50.0, math.radians(270), -0.1, 1000.0, 1, 18.0)
    with pytest.raises(ValueError):
        LidarSpec("x", 50.0, 7.0, math.radians(0.5), 1000.0, 1, 18.0)
    with pytest.raises(ValueError):
        LidarSpec("x", 50.0, math.radians(270), math.radians(0.5), 0.0, 1, 18.0)
    with pytest.raises(ValueError):
        LidarSpec("x", 50.0, math.radians(270), math.radians(0.5), 1000.0, -1, 18.0)


def test_beam_count_lms151():
    spec = get_sensor("lms151")
    assert spec.beam_count == 541  # 270 deg at 0.5 deg plus the closing beam


def test_scan_shape_validation():
    spec = get_sensor("lms151")
    with pytest.raises(ValueError):
        LaserScan(0.0, 0.0, np.zeros(10), np.zeros(11), spec)
    with pytest.raises(ValueError):
        LaserScan(0.0, 0.0, np.array([-1.0]), np.array([0.0]), spec)


def test_scan_rejects_infinite_ranges():
    spec = get_sensor("lms151")
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError):
            LaserScan(0.0, 0.0, np.array([1.0, bad, np.nan]), np.zeros(3), spec)


def test_scan_arrays_read_only():
    scan = make_scan()
    with pytest.raises(ValueError):
        scan.ranges[0] = 1.0


def test_to_cartesian_skips_invalid_beams():
    spec = get_sensor("lms151")
    ranges = np.full(spec.beam_count, np.nan)
    ranges[10] = 2.0
    intensities = np.zeros(spec.beam_count)
    scan = LaserScan(0.0, -spec.fov / 2, ranges, intensities, spec)
    pts, inten, idx = scan.to_cartesian()
    assert len(pts) == 1
    assert idx[0] == 10
    bearing = -spec.fov / 2 + 10 * spec.angular_resolution
    assert pts[0] == pytest.approx([2.0 * math.cos(bearing),
                                    2.0 * math.sin(bearing)], abs=1e-12)


def old_to_cartesian_points(scan):
    """The per-call trig conversion that points() replaced."""
    idx = np.nonzero(np.isfinite(scan.ranges))[0]
    b = scan.start_angle + idx * scan.spec.angular_resolution
    r = scan.ranges[idx]
    return np.column_stack((r * np.cos(b), r * np.sin(b))), idx


def old_detector_points(scan):
    """The detector's own trig conversion that points() replaced: every beam,
    0 for invalid ones."""
    finite = np.isfinite(scan.ranges)
    bearings = scan.start_angle + np.arange(len(scan)) * scan.spec.angular_resolution
    r = np.where(finite, scan.ranges, 0.0)
    return np.column_stack((r * np.cos(bearings), r * np.sin(bearings)))


@pytest.mark.parametrize("sensor", ["lms151", "r2000"])
@pytest.mark.parametrize("start", [None, 0.7, -3.0])
def test_points_equal_trig_formula_bit_for_bit(sensor, start):
    spec = get_sensor(sensor)
    scan = make_scan(spec)
    if start is not None:
        scan = LaserScan(0.0, start, scan.ranges, scan.intensities, spec)
    finite = np.isfinite(scan.ranges)
    assert not finite.all()
    points = scan.points()
    assert points.shape == (len(scan), 2)
    assert np.isnan(points[~finite]).all()
    assert points[finite].tobytes() == old_detector_points(scan)[finite].tobytes()
    pts, inten, idx = scan.to_cartesian()
    old_pts, old_idx = old_to_cartesian_points(scan)
    assert np.array_equal(idx, old_idx)
    assert pts.tobytes() == old_pts.tobytes()
    assert inten.tobytes() == scan.intensities[old_idx].tobytes()


def test_points_are_a_fresh_array_per_call():
    # The beam directions are shared by every scan of a layout; writing into
    # one call's result must not reach them.
    scan = make_scan()
    first = scan.points()
    expected = first.copy()
    first[:] = 0.0
    assert scan.points().tobytes() == expected.tobytes()
    assert make_scan(timestamp=1.0).points().tobytes() == expected.tobytes()


def test_json_roundtrip_bit_exact():
    scan = make_scan()
    back = scan_from_json(scan_to_json(scan))
    assert back.timestamp == scan.timestamp
    assert back.start_angle == scan.start_angle
    assert back.spec == scan.spec
    # bit-exact values, identical NaN pattern
    assert np.array_equal(back.ranges, scan.ranges, equal_nan=True)
    assert np.array_equal(back.intensities, scan.intensities)


def test_json_nan_encodes_as_null():
    scan = make_scan()
    rec = json.loads(scan_to_json(scan))
    nan_positions = np.isnan(scan.ranges)
    for k, v in enumerate(rec["ranges"]):
        assert (v is None) == bool(nan_positions[k])


def test_json_custom_sensor_embedded():
    spec = LidarSpec("custom", 25.0, math.radians(180), math.radians(1.0),
                     500.0, 2, 10.0)
    scan = LaserScan(0.0, -spec.fov / 2, np.ones(spec.beam_count),
                     np.zeros(spec.beam_count), spec)
    rec = json.loads(scan_to_json(scan))
    assert isinstance(rec["sensor"], dict)
    assert scan_from_json(scan_to_json(scan)).spec == spec


def test_scan_log_roundtrip(tmp_path):
    scans = [make_scan(timestamp=0.02 * k) for k in range(5)]
    path = tmp_path / "scans.jsonl"
    write_scan_log(path, scans)
    back = read_scan_log(path)
    assert len(back) == 5
    for a, b in zip(scans, back):
        assert np.array_equal(a.ranges, b.ranges, equal_nan=True)


def test_scan_log_rewrite_byte_identical(tmp_path):
    scans = [make_scan(timestamp=0.02 * k) for k in range(3)]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_scan_log(p1, scans)
    write_scan_log(p2, read_scan_log(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_scan_log_malformed_reports_line_number(tmp_path):
    path = tmp_path / "scans.jsonl"
    lines = [scan_to_json(make_scan()), "{not json", scan_to_json(make_scan(timestamp=1.0))]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read_scan_log(path)
    assert ":2:" in str(exc.value)


def test_scan_log_skips_blank_lines(tmp_path):
    path = tmp_path / "scans.jsonl"
    path.write_text(scan_to_json(make_scan()) + "\n\n")
    assert len(read_scan_log(path)) == 1


CUSTOM_SPEC = LidarSpec("custom", 25.0, math.radians(180), math.radians(1.0),
                        500.0, 2, 10.0)
SPECIAL_RANGES = [math.nan, 0.0, -0.0, 5e-324, 1e-6, 29.999999999999996, 1e300]


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from([get_sensor("lms151"), CUSTOM_SPEC]),
       seed=st.integers(0, 2**32 - 1),
       special_fraction=st.floats(0.0, 1.0),
       timestamp=st.floats(0.0, 1e6, allow_nan=False),
       start_angle=st.floats(-math.pi, math.pi))
def test_scan_log_round_trip_is_bit_exact(spec, seed, special_fraction, timestamp,
                                          start_angle):
    # NaN and zero ranges, subnormals and arbitrary float bits survive the
    # log, for a preset and for an embedded custom sensor.
    rng = np.random.default_rng(seed)
    n = spec.beam_count
    ranges = rng.uniform(0.0, 30.0, n)
    special = rng.random(n) < special_fraction
    ranges[special] = rng.choice(SPECIAL_RANGES, int(special.sum()))
    intensities = rng.uniform(0.0, 5000.0, n)
    intensities[np.isnan(ranges)] = 0.0
    intensities[rng.random(n) < special_fraction / 4] = math.nan
    scans = [LaserScan(timestamp + k, start_angle, ranges[::-1] if k else ranges,
                       intensities, spec) for k in range(2)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scans.jsonl"
        write_scan_log(path, scans)
        back = read_scan_log(path)
    assert len(back) == len(scans)
    for a, b in zip(scans, back):
        assert b.spec == a.spec
        assert b.timestamp == a.timestamp and b.start_angle == a.start_angle
        assert b.ranges.tobytes() == a.ranges.tobytes()
        assert b.intensities.tobytes() == a.intensities.tobytes()
