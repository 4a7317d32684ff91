import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from refodom.detector import DetectorParams
from refodom.evaluation import compute_ate
from refodom.geometry import Pose2D, compose, relative
from refodom.odometry import (KeyframeCriteria, Odometry, OdometryConfig,
                              read_trajectory, write_ground_truth, write_poses,
                              write_trajectory)
from refodom.scan import LaserScan, get_sensor
from refodom.simulator import (SimConfig, builtin_trajectory, builtin_worlds,
                               simulate_scan, simulate_trajectory)
from refodom.ndt import MatchOptions
from refodom.tracking import Tracker, TrackerParams, merge_reference_tracks


def room_scans(x1=6.0, seed=0, mode_sensor="lms151", noise=0.005):
    world = builtin_worlds()["room"]
    wps = [Pose2D(2.0, 5.0, 0.0), Pose2D(x1, 5.0, 0.0)]
    cfg = SimConfig(spec=get_sensor(mode_sensor), seed=seed,
                    range_noise_sigma=noise)
    return simulate_trajectory(world, wps, 2.0, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        OdometryConfig(mode="magic")
    with pytest.raises(ValueError):
        OdometryConfig(n_keyframes=0)
    with pytest.raises(ValueError):
        OdometryConfig(match_stride=0)
    with pytest.raises(ValueError):
        KeyframeCriteria(min_overlap=0.0)


def test_every_real_config_field_refuses_nan_and_infinities():
    # Walks the fields, so that a real-valued field added later is held to
    # the same rule.
    sensor = get_sensor("r2000")
    configs = [MatchOptions(), TrackerParams(), KeyframeCriteria(), DetectorParams(),
               OdometryConfig(), SimConfig(spec=sensor), sensor]
    checked = 0
    for config in configs:
        for f in fields(config):
            if f.type not in ("float", float):
                continue
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f.name):
                    replace(config, **{f.name: value})
            checked += 1
    assert checked == 30


def test_config_dict_roundtrip():
    cfg = OdometryConfig(mode="layer", n_keyframes=4, match_stride=3)
    back = OdometryConfig.from_dict(asdict(cfg))
    assert back == cfg


def test_bootstrap_first_scan_is_keyframe():
    scans, _ = room_scans(x1=2.4)
    odo = Odometry(OdometryConfig())
    out = odo.process_scan(scans[0])
    assert out.is_keyframe
    assert out.match_ok
    assert out.pose == Pose2D()


def test_out_of_order_scan_rejected():
    scans, _ = room_scans(x1=2.4)
    odo = Odometry(OdometryConfig())
    odo.process_scan(scans[1])
    with pytest.raises(ValueError):
        odo.process_scan(scans[0])


def test_non_finite_timestamp_rejected():
    scans, _ = room_scans(x1=2.4)
    odo = Odometry(OdometryConfig())
    odo.process_scan(scans[1])
    for t in (math.nan, math.inf):
        s = scans[2]
        with pytest.raises(ValueError):
            odo.process_scan(LaserScan(t, s.start_angle, s.ranges, s.intensities, s.spec))
    with pytest.raises(ValueError):
        odo.process_scan(scans[0])


def test_stationary_sequence_stays_put():
    world = builtin_worlds()["room"]
    cfg = SimConfig(spec=get_sensor("lms151"), seed=1)
    rng = np.random.default_rng(1)
    pose = Pose2D(5.0, 5.0, 0.3)
    scans = [simulate_scan(world, pose, cfg, rng=rng, timestamp=0.02 * k)
             for k in range(20)]
    odo = Odometry(OdometryConfig())
    outputs, _ = odo.run(scans)
    for out in outputs:
        assert math.hypot(out.pose.x, out.pose.y) < 0.02
        assert abs(out.pose.theta) < 0.01


def test_keyframe_buffer_bounded():
    scans, _ = room_scans(x1=10.0)
    odo = Odometry(OdometryConfig(n_keyframes=3))
    odo.run(scans)
    assert len(odo.local_map) <= 3
    assert len(odo.keyframe_log) > 3  # more promoted than retained


def test_layer_mode_without_markers_equals_plain_exactly():
    # In a markerless world the detector returns nothing, every point is
    # regular, the marker layer is empty: layer mode must equal plain mode
    # output for output.
    scans, _ = room_scans(x1=5.0)
    plain = Odometry(OdometryConfig(mode="plain"))
    layer = Odometry(OdometryConfig(mode="layer"))
    out_p, kf_p = plain.run(scans)
    out_l, kf_l = layer.run(scans)
    assert len(out_p) == len(out_l)
    for a, b in zip(out_p, out_l):
        assert a.pose == b.pose
        assert a.is_keyframe == b.is_keyframe
    assert kf_p == kf_l


def test_room_short_traverse_accuracy():
    scans, poses = room_scans(x1=8.0)
    odo = Odometry(OdometryConfig(match_stride=2))
    outputs, _ = odo.run(scans)
    est = [(o.timestamp, o.pose) for o in outputs]
    ref = [(k * 0.02, p) for k, p in enumerate(poses)]
    report = compute_ate(est, ref)
    assert report.rmse < 0.05
    assert report.max_error < 0.15


def test_tracking_mode_builds_tracks():
    world = builtin_worlds()["corridor_marked"]
    wps = [Pose2D(0.0, 1.5, 0.0), Pose2D(2.0, 1.5, 0.0)]
    cfg = SimConfig(spec=get_sensor("r2000"), seed=0)
    scans, _ = simulate_trajectory(world, wps, 2.0, cfg)
    odo = Odometry(OdometryConfig(mode="tracking", match_stride=8))
    odo.run(scans[:30])
    assert odo.tracker.tracks, "expected tracks near markers"
    assert odo.track_log


def test_state_follows_every_scan_and_map_change():
    # The reference tracks are merged at each map change and read at every
    # match; the prediction needs only the last two emitted poses.
    world = builtin_worlds()["corridor_marked"]
    cfg = SimConfig(spec=get_sensor("r2000"), seed=0)
    scans, _ = simulate_trajectory(world, [Pose2D(0.0, 1.5, 0.0), Pose2D(2.5, 1.5, 0.0)],
                                   2.0, cfg)
    # A two-keyframe window, so that evictions change the oldest snapshots.
    odo = Odometry(OdometryConfig(mode="tracking", match_stride=8, n_keyframes=2))
    outputs = []
    for scan in scans:
        outputs.append(odo.process_scan(scan))
        merged = merge_reference_tracks(k.tracks_snapshot for k in odo.local_map.keyframes)
        cached = odo.local_map.reference_tracks
        assert cached.keys() == merged.keys()
        assert all(np.array_equal(cached[i], merged[i]) for i in merged)
        assert len(odo.recent_poses) <= 2
        if len(outputs) >= 2:
            prev, last = outputs[-2].pose, outputs[-1].pose
            assert odo._predict() == compose(last, relative(prev, last))
    assert len(odo.keyframe_log) >= 3 and odo.local_map.reference_tracks


def test_tracking_assigns_tracks_once_per_scan(monkeypatch):
    # The bootstrap's Tracker.update assigns once; every later scan assigns
    # once, at the prediction, and a keyframe rematch reuses that assignment.
    calls = []
    assign = Tracker.assign

    def counted(self, det_positions):
        calls.append(len(det_positions))
        return assign(self, det_positions)

    monkeypatch.setattr(Tracker, "assign", counted)
    world = builtin_worlds()["corridor_marked"]
    cfg = SimConfig(spec=get_sensor("r2000"), seed=0)
    scans, _ = simulate_trajectory(world, [Pose2D(0.0, 1.5, 0.0), Pose2D(2.5, 1.5, 0.0)],
                                   2.0, cfg)
    outputs, _ = Odometry(OdometryConfig(mode="tracking", match_stride=8)).run(scans)
    assert any(o.is_keyframe for o in outputs[1:])     # at least one rematch
    assert len(calls) == len(scans)
    assert any(calls)


def test_tracking_start_up_holds_corridor_seed_12():
    # At this seed the first scans lag the motion along the corridor, which
    # leaves x free; tracks must pull from their first re-observation, or the
    # lag stays in the estimate for the rest of the traverse.
    a, b = builtin_trajectory("corridor_marked")
    wps = [a, Pose2D(a.x + 2.0, a.y, b.theta)]
    cfg = SimConfig(spec=get_sensor("r2000"), seed=12)
    scans, poses = simulate_trajectory(builtin_worlds()["corridor_marked"], wps, 2.0, cfg)
    outputs, _ = Odometry(OdometryConfig(mode="tracking", match_stride=8)).run(scans)
    dt = 1.0 / cfg.spec.frequency
    report = compute_ate([(o.timestamp, o.pose) for o in outputs],
                         [(k * dt, p) for k, p in enumerate(poses)])
    assert report.max_error < 0.1


def test_covariance_inflated_on_failure():
    # After five good scans, one with all but 40 ranges NaN, half of them
    # moved out of the room: its match overlaps too little to pass, so the
    # prediction is emitted, with the match's covariance times
    # covariance_inflation.
    scans, _ = room_scans(x1=2.4)
    bad = scans[5]
    ranges = np.full_like(bad.ranges, np.nan)
    ranges[::20][:20] = bad.ranges[::20][:20]
    ranges[10::20][:20] = 3.0 * bad.ranges[10::20][:20]
    bad = LaserScan(bad.timestamp, bad.start_angle, ranges, bad.intensities, bad.spec)
    runs = {}
    for inflation in (1e3, 1.0):
        odo = Odometry(OdometryConfig(covariance_inflation=inflation))
        outputs, _ = odo.run(scans[:5] + [bad])
        runs[inflation] = outputs
    *good, failed = runs[1e3]
    assert all(o.match_ok for o in good)
    assert not failed.match_ok
    prev, last = good[-2].pose, good[-1].pose
    assert failed.pose == compose(last, relative(prev, last))
    base = runs[1.0][-1].covariance_hint
    assert np.abs(base).max() > 0
    assert np.array_equal(failed.covariance_hint, 1e3 * base)


def test_covariance_of_a_match_that_associates_nothing():
    # An all-NaN scan has no points, so its match associates nothing and its
    # Hessian is zero: the failed scan's covariance is the inflated identity,
    # not pinv(0) = 0, which would claim certainty.
    scans, _ = room_scans(x1=2.4)
    s = scans[1]
    blank = LaserScan(s.timestamp, s.start_angle, np.full_like(s.ranges, np.nan),
                      s.intensities, s.spec)
    outputs, _ = Odometry(OdometryConfig()).run([scans[0], blank])
    failed = outputs[-1]
    assert not failed.match_ok
    assert np.array_equal(failed.covariance_hint, 1e3 * np.eye(3))


def test_trajectory_file_roundtrip(tmp_path):
    scans, _ = room_scans(x1=3.0)
    odo = Odometry(OdometryConfig())
    outputs, _ = odo.run(scans[:10])
    path = tmp_path / "traj.txt"
    write_trajectory(path, outputs)
    back = read_trajectory(path)
    assert len(back) == 10
    for out, (t, pose) in zip(outputs, back):
        assert t == out.timestamp      # repr round-trip is exact
        assert pose == out.pose


def test_ground_truth_file(tmp_path):
    poses = [Pose2D(0.1 * k, 0, 0) for k in range(5)]
    path = tmp_path / "gt.txt"
    write_ground_truth(path, poses, 50.0)
    back = read_trajectory(path)
    assert back[2][0] == pytest.approx(0.04)
    assert back[4][1] == poses[4]


def test_pose_files_share_one_format(tmp_path):
    # Ground truth and keyframes are both 'timestamp x y theta' lines of reprs.
    poses = [Pose2D(0.1 * k, -0.3 * k, 0.7 * k) for k in range(7)]
    write_ground_truth(tmp_path / "gt.txt", poses, 50.0)
    assert (tmp_path / "gt.txt").read_text() == "".join(
        " ".join([repr(k * 0.02), repr(p.x), repr(p.y), repr(p.theta)]) + "\n"
        for k, p in enumerate(poses))
    timed = [(0.02 * k + 1.0, p) for k, p in enumerate(poses)]
    write_poses(tmp_path / "kf.txt", timed)
    assert (tmp_path / "kf.txt").read_text() == "".join(
        f"{t!r} {p.x!r} {p.y!r} {p.theta!r}\n" for t, p in timed)


def test_read_trajectory_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 1.0\n")
    with pytest.raises(ValueError) as exc:
        read_trajectory(path)
    assert ":1:" in str(exc.value)
