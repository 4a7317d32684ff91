import json
import math

import numpy as np
import pytest

from refodom.geometry import Pose2D
from refodom.scan import get_sensor
from refodom.simulator import (Marker, Segment, SimConfig, World,
                               builtin_trajectory, builtin_worlds,
                               interpolate_waypoints, load_world,
                               simulate_scan, simulate_trajectory,
                               world_from_json, world_to_json)


def square_room(size=4.0):
    s = size
    return World("square", (Segment((-s, -s), (s, -s)), Segment((s, -s), (s, s)),
                            Segment((s, s), (-s, s)), Segment((-s, s), (-s, -s))))


def noiseless(sensor="lms151", **kw):
    return SimConfig(spec=get_sensor(sensor), range_noise_sigma=0.0, **kw)


def bearings(scan):
    """Sensor-frame bearing of every beam."""
    return scan.start_angle + np.arange(len(scan)) * scan.spec.angular_resolution


def test_square_room_ranges_analytic():
    # Sensor at the center of a square room: range along each bearing is the
    # distance to the nearest axis-aligned wall.
    cfg = noiseless()
    scan = simulate_scan(square_room(4.0), Pose2D(), cfg)
    for b, r in zip(bearings(scan)[::25], scan.ranges[::25]):
        expected = min(4.0 / abs(math.cos(b)) if abs(math.cos(b)) > 1e-9 else math.inf,
                       4.0 / abs(math.sin(b)) if abs(math.sin(b)) > 1e-9 else math.inf)
        assert r == pytest.approx(expected, abs=1e-9)


def test_beams_beyond_usable_range_are_nan():
    big = square_room(25.0)  # beyond the lms151 18 m usable range
    scan = simulate_scan(big, Pose2D(), noiseless())
    assert np.all(np.isnan(scan.ranges))
    assert np.all(scan.intensities == 0.0)


def test_simulate_scan_deterministic():
    world = builtin_worlds()["corridor_marked"]
    cfg = SimConfig(spec=get_sensor("lms151"), seed=3)
    a = simulate_scan(world, Pose2D(2.0, 1.5, 0.0), cfg)
    b = simulate_scan(world, Pose2D(2.0, 1.5, 0.0), cfg)
    assert np.array_equal(a.ranges, b.ranges, equal_nan=True)
    assert np.array_equal(a.intensities, b.intensities)


def test_different_seed_differs():
    world = builtin_worlds()["corridor_marked"]
    a = simulate_scan(world, Pose2D(2.0, 1.5, 0.0), SimConfig(spec=get_sensor("lms151"), seed=0))
    b = simulate_scan(world, Pose2D(2.0, 1.5, 0.0), SimConfig(spec=get_sensor("lms151"), seed=1))
    assert not np.array_equal(a.ranges, b.ranges, equal_nan=True)


def single_marker_world():
    wall = Segment((-5.0, 2.0), (5.0, 2.0))
    return (World("one_marker", (wall,), (Marker(segment=0, offset=5.0),)),
            World("no_marker", (wall,)))


def test_marker_beams_exceed_threshold():
    marked, _ = single_marker_world()
    scan = simulate_scan(marked, Pose2D(0.0, 0.0, math.pi / 2), noiseless())
    spec = scan.spec
    hot = np.nonzero(scan.intensities > spec.i_min)[0]
    assert len(hot) >= 3
    # the marker straddles x=0, 2 m straight ahead
    assert np.all(np.abs(bearings(scan)[hot]) < math.radians(1.5))


def test_walls_stay_below_threshold():
    world = builtin_worlds()["corridor"]
    scan = simulate_scan(world, Pose2D(5.0, 1.5, 0.0), noiseless())
    assert scan.intensities.max() < scan.spec.i_min


@pytest.mark.parametrize("sensor,scale", [("lms151", 500.0), ("r2000", 250.0),
                                          ("os32c", 4000.0)])
def test_intensity_model_golden(sensor, scale):
    # reflectivity * per-sensor scale * cos(incidence) / (1 + 0.05 r^2)
    _, bare = single_marker_world()
    pose = Pose2D(0.0, 0.0, math.pi / 2)
    scan = simulate_scan(bare, pose, noiseless(sensor))
    hit = np.flatnonzero(np.isfinite(scan.ranges))
    assert len(hit) > 100
    for k in hit[::25]:
        r = scan.ranges[k]
        cos_inc = abs(math.sin(pose.theta + bearings(scan)[k]))
        assert scan.intensities[k] == pytest.approx(
            1.0 * scale * cos_inc / (1.0 + 0.05 * r * r), rel=1e-9)


def test_grazing_beams_blend_golden():
    # Beams whose center just misses the marker get a partial return: strictly
    # above the bare-wall level at the same beam, below the full marker level.
    marked, bare = single_marker_world()
    pose = Pose2D(0.0, 0.0, math.pi / 2)
    sm = simulate_scan(marked, pose, noiseless())
    sb = simulate_scan(bare, pose, noiseless())
    hot = sm.intensities > sm.spec.i_min
    runs = np.nonzero(hot)[0]
    assert len(runs) >= 3
    full_level = sm.intensities[runs].max()
    # the outermost hot beams are the grazing ones: partially blended returns
    for k in (runs[0], runs[-1]):
        assert sb.intensities[k] < sm.intensities[k] < full_level
    # one beam past the run: back to the bare wall exactly
    for k in (runs[0] - 1, runs[-1] + 1):
        assert sm.intensities[k] == sb.intensities[k]


def test_corridor_marked_marker_count_golden():
    world = builtin_worlds()["corridor_marked"]
    assert len(world.markers) == 9
    xs = sorted(world.marker_endpoints(m)[0][0] + 0.025 for m in world.markers)
    assert xs == pytest.approx([5.0 * k for k in range(9)], abs=1e-9)


def test_world_validation():
    seg = Segment((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        World("bad", (seg,), (Marker(segment=0, offset=2.0),))
    with pytest.raises(ValueError):
        World("bad", (Segment((0, 0), (1, 0), reflectivity=50.0),),
              (Marker(segment=0, offset=0.5, reflectivity=30.0),))


def test_interpolate_waypoints_spacing():
    poses = interpolate_waypoints([Pose2D(0, 0, 0), Pose2D(10, 0, 0)], 2.0, 50.0)
    assert len(poses) == 251  # 5 s at 50 Hz, inclusive of t=0
    step = math.dist((poses[1].x, poses[1].y), (poses[0].x, poses[0].y))
    assert step == pytest.approx(0.04, abs=1e-12)
    assert poses[-1].x == pytest.approx(10.0)


def test_interpolate_waypoints_stationary():
    poses = interpolate_waypoints([Pose2D(1, 1, 0), Pose2D(1, 1, 0)], 2.0, 10.0)
    assert len(poses) == 11
    assert all(p == poses[0] for p in poses)


def test_negative_range_noise_rejected():
    with pytest.raises(ValueError):
        SimConfig(spec=get_sensor("lms151"), range_noise_sigma=-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_range_noise_rejected(value):
    with pytest.raises(ValueError, match="range_noise_sigma"):
        SimConfig(spec=get_sensor("lms151"), range_noise_sigma=value)


@pytest.mark.parametrize("speed", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("end", [Pose2D(10, 0, 0), Pose2D(0, 0, 0)])
def test_speed_must_be_positive_and_finite(speed, end):
    with pytest.raises(ValueError, match="speed"):
        interpolate_waypoints([Pose2D(0, 0, 0), end], speed, 50.0)


def test_trajectory_deterministic():
    world = builtin_worlds()["room"]
    wps = builtin_trajectory("room")
    cfg = SimConfig(spec=get_sensor("lms151"), seed=5)
    a, pa = simulate_trajectory(world, [wps[0], Pose2D(4, 5, 0)], 2.0, cfg)
    b, pb = simulate_trajectory(world, [wps[0], Pose2D(4, 5, 0)], 2.0, cfg)
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.ranges, sb.ranges, equal_nan=True)
    assert pa == pb


def test_world_json_roundtrip():
    world = builtin_worlds()["corridor_marked"]
    back = world_from_json(world_to_json(world))
    assert back == world


def test_load_world_builtin_and_file(tmp_path):
    assert load_world("room").name == "room"
    path = tmp_path / "w.json"
    path.write_text(world_to_json(square_room()))
    assert load_world(str(path)).name == "square"
    with pytest.raises(FileNotFoundError):
        load_world("no_such_world")


def test_builtin_trajectory_unknown():
    with pytest.raises(KeyError):
        builtin_trajectory("nowhere")
