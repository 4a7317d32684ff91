import json
import math

import numpy as np
import pytest

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
