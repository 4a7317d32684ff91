import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from refodom.cli import main
from refodom.scan import LaserScan, LidarSpec, scan_to_json


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_sensor_is_usage_error(tmp_path, capsys):
    code, _, err = run(["simulate", "--world", "room", "--sensor", "bogus",
                        "--out", str(tmp_path)], capsys)
    assert code == 2
    for name in ("lms151", "r2000", "os32c"):
        assert name in err


def test_unknown_world_is_usage_error(tmp_path, capsys):
    code, _, err = run(["simulate", "--world", "atlantis",
                        "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "corridor" in err


def test_missing_scan_file_is_runtime_error(tmp_path, capsys):
    code, _, err = run(["detect", "--scans", str(tmp_path / "nope.jsonl")], capsys)
    assert code == 1


def test_bad_sweep_spec_is_usage_error(tmp_path, capsys):
    code, _, err = run(["pr", "--scans", "x", "--world", "room", "--poses", "y",
                        "--sweep", "10"], capsys)
    assert code == 2
    assert "LO:HI:N" in err


def simulate_room(tmp_path, capsys, seed=0):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "sim"
    # short traverse via custom waypoints
    wp = tmp_path / "wp.txt"
    wp.write_text("2.0 5.0 0.0\n5.0 5.0 0.0\n")
    code, _, _ = run(["simulate", "--world", "room", "--trajectory", str(wp),
                      "--seed", str(seed), "--out", str(out)], capsys)
    assert code == 0
    return out


def test_simulate_writes_outputs_and_manifest(tmp_path, capsys):
    out = simulate_room(tmp_path, capsys)
    assert (out / "scans.jsonl").exists()
    assert (out / "ground_truth.txt").exists()
    assert (out / "world.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["params"]["seed"] == 0


def test_simulate_rerun_byte_identical(tmp_path, capsys):
    a = simulate_room(tmp_path / "a", capsys)
    b = simulate_room(tmp_path / "b", capsys)
    assert (a / "scans.jsonl").read_bytes() == (b / "scans.jsonl").read_bytes()
    assert (a / "ground_truth.txt").read_bytes() == (b / "ground_truth.txt").read_bytes()


def test_full_pipeline_exit_codes(tmp_path, capsys):
    sim = simulate_room(tmp_path, capsys)
    odo = tmp_path / "odo"
    code, out, _ = run(["odometry", "--scans", str(sim / "scans.jsonl"),
                        "--mode", "plain", "--out", str(odo)], capsys)
    assert code == 0
    assert (odo / "trajectory.txt").exists()
    assert (odo / "keyframes.txt").exists()

    code, out, _ = run(["evaluate", "--estimate", str(odo / "trajectory.txt"),
                        "--reference", str(sim / "ground_truth.txt"),
                        "--out", str(tmp_path / "eval")], capsys)
    assert code == 0
    assert "SUCCESS" in out
    assert (tmp_path / "eval" / "report.txt").exists()


def test_detect_command_output(tmp_path, capsys):
    # corridor_marked start: markers visible from the default trajectory
    out = tmp_path / "sim"
    wp = tmp_path / "wp.txt"
    wp.write_text("3.0 1.5 0.0\n4.0 1.5 0.0\n")
    code, _, _ = run(["simulate", "--world", "corridor_marked",
                      "--trajectory", str(wp), "--out", str(out)], capsys)
    assert code == 0
    det_file = tmp_path / "detections.txt"
    code, _, _ = run(["detect", "--scans", str(out / "scans.jsonl"),
                      "--out", str(det_file)], capsys)
    assert code == 0
    lines = det_file.read_text().splitlines()
    assert lines, "expected detections along the marked corridor"
    assert all(len(line.split()) == 6 for line in lines)


def test_odometry_config_file(tmp_path, capsys):
    sim = simulate_room(tmp_path, capsys)
    cfg_file = tmp_path / "cfg.json"
    from refodom.odometry import OdometryConfig
    cfg_file.write_text(json.dumps(asdict(OdometryConfig(n_keyframes=3))))
    code, _, _ = run(["odometry", "--scans", str(sim / "scans.jsonl"),
                      "--mode", "plain", "--config", str(cfg_file),
                      "--out", str(tmp_path / "odo")], capsys)
    assert code == 0


def test_odometry_config_bad_match_options(tmp_path, capsys):
    sim = simulate_room(tmp_path, capsys)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"match": {"max_iterations": -3}}))
    code, _, err = run(["odometry", "--scans", str(sim / "scans.jsonl"),
                        "--mode", "plain", "--config", str(cfg_file),
                        "--out", str(tmp_path / "odo")], capsys)
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "max_iterations" in err


def test_pr_command(tmp_path, capsys):
    out = tmp_path / "sim"
    wp = tmp_path / "wp.txt"
    wp.write_text("3.0 1.5 0.0\n5.0 1.5 0.0\n")
    code, _, _ = run(["simulate", "--world", "corridor_marked",
                      "--trajectory", str(wp), "--out", str(out)], capsys)
    assert code == 0
    pr_file = tmp_path / "pr.txt"
    code, _, _ = run(["pr", "--scans", str(out / "scans.jsonl"),
                      "--world", "corridor_marked",
                      "--poses", str(out / "ground_truth.txt"),
                      "--sweep", "800:2000:3", "--subsample", "10",
                      "--out", str(pr_file)], capsys)
    assert code == 0
    lines = pr_file.read_text().splitlines()
    assert lines[0].split() == ["threshold", "precision", "recall", "tp", "fp", "fn"]
    assert len(lines) == 4


WALL = {"p1": [0.0, 0.0], "p2": [4.0, 0.0]}
NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("rec, needle", [
    ({"segments": [WALL], "markers": [{"segment": 3, "offset": 1.0}]}, "segment 3"),
    ({"name": "empty", "markers": []}, "segments"),
    ({"segments": [WALL], "markers": [{"segment": 0.5, "offset": 1.0}]}, "malformed"),
    ({"segments": [WALL], "markers": [{"segment": 0, "offset": "a"}]}, "malformed"),
    ([WALL], "malformed"),
    ({"segments": [WALL], "markers": [{"segment": 0, "offset": 1.0, "width": -0.05}]},
     "width must be positive"),
    ({"segments": [WALL], "markers": [{"segment": 0, "offset": 1.0, "reflectivity": NAN}]},
     "reflectivity must be positive"),
    ({"segments": [{"p1": [NAN, 0.0], "p2": [4.0, 0.0]}]}, "segment 0 needs two distinct"),
    ({"segments": [{"p1": [1.0, 1.0], "p2": [1.0, 1.0]}]}, "segment 0 needs two distinct"),
    ({"segments": [{"p1": [0.0, 0.0, 0.0], "p2": [4.0, 0.0, 0.0]}]},
     "segment 0 needs two distinct"),
    ({"segments": [WALL], "markers": [{"segment": 0, "offset": 1.0},
                                      {"segment": 0, "offset": 2.0, "width": INF}]},
     "marker 1: width must be positive and finite"),
    ("not json", "Expecting value"),
])
def test_malformed_world_is_runtime_error(tmp_path, capsys, rec, needle):
    # A string is written as it stands; anything else as JSON.
    world = tmp_path / "world.json"
    world.write_text(rec if isinstance(rec, str) else json.dumps(rec))
    code, _, err = run(["simulate", "--world", str(world), "--out",
                        str(tmp_path / "sim")], capsys)
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert f"error: {world}: " in err
    assert needle in err


@pytest.mark.parametrize("rec, needle", [
    ({"n_keyframe": 3, "match": {"max_iter": 5}}, "match.max_iter"),
    ({"n_keyframes": "3"}, "cfg.json"),
    ([3], "JSON object"),
    ({"match_stride": 2.5}, "cfg.json: match_stride must be an integer >= 1"),
    ({"n_keyframes": 2.5}, "cfg.json: n_keyframes must be an integer >= 1"),
    ({"n_keyframes": True}, "cfg.json: n_keyframes must be an integer >= 1"),
    ({"match": {"max_iterations": 2.5}}, "cfg.json: max_iterations must be an integer"),
    ({"w_tracks": NAN}, "cfg.json: w_tracks must be positive"),
    ({"marker_weight": NAN}, "cfg.json: marker_weight must be positive"),
    ({"covariance_inflation": NAN}, "cfg.json: covariance_inflation must be positive"),
    ({"cell_size": NAN}, "cfg.json: cell_size must be positive"),
    ({"tracker": {"gate": NAN}}, "cfg.json: gate must be positive"),
    ({"criteria": {"min_score": NAN}}, "cfg.json: min_score must be positive"),
    ({"criteria": {"max_translation": NAN}}, "cfg.json: max_translation must be positive"),
    ({"detector": {"window": NAN}}, "cfg.json: window must be positive"),
    ({"detector": {"l_min": NAN}}, "cfg.json: l_min must be positive"),
    ({"detector": {"p_min": NAN}}, "cfg.json: p_min must be an integer >= 3"),
    ({"detector": {"fit_error_max": NAN}}, "cfg.json: fit_error_max must be positive"),
    ({"detector": {"marker_width": NAN}}, "cfg.json: marker_width must be positive"),
    ({"detector": {"flat_angle_max": NAN}}, "cfg.json: flat_angle_max must be in (0, pi/2)"),
    ({"detector": {"duplicate_merge_dist": NAN}},
     "cfg.json: duplicate_merge_dist must be finite and non-negative"),
    ({"match": {"convergence_tol": INF}}, "cfg.json: convergence_tol must be finite"),
    ({"match": {"max_step_translation": INF}}, "cfg.json: max_step_translation must be positive"),
    ({"match": {"max_step_rotation": INF}}, "cfg.json: max_step_rotation must be positive"),
    ({"criteria": {"min_score": INF}}, "cfg.json: min_score must be positive and finite"),
    ({"tracker": {"gate": INF}}, "cfg.json: gate must be positive and finite"),
    ({"tracker": {"c_d": INF}}, "cfg.json: c_d must be positive and finite"),
    ({"tracker": {"c_t": INF}}, "cfg.json: c_t must be positive and finite"),
    ({"detector": {"r_max": INF}}, "cfg.json: r_max must be positive and finite"),
    ({"mode": "layer"}, "cfg.json: the config's mode 'layer' differs from --mode 'plain'"),
    ({"detector": 5}, "cfg.json: detector must be a JSON object"),
])
def test_malformed_odometry_config_is_runtime_error(tmp_path, capsys, rec, needle):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(rec))
    code, _, err = run(["odometry", "--scans", str(tmp_path / "scans.jsonl"),
                        "--mode", "plain", "--config", str(cfg_file),
                        "--out", str(tmp_path / "odo")], capsys)
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert needle in err


@pytest.mark.parametrize("rec, needle", [
    ({"duplicate_track_policy": "oldest"}, "duplicate_track_policy"),
    ({"detector": {"center_mode": "mass"}}, "detector.center_mode"),
    ({"detector": {"reject_head_on": False}}, "detector.reject_head_on"),
    ({"detector": {"head_on_angle": 0.01}}, "detector.head_on_angle"),
    ({"tracker": {"n_min": 3}}, "tracker.n_min"),
])
def test_removed_config_keys_are_unknown(tmp_path, capsys, rec, needle):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(rec))
    code, _, err = run(["odometry", "--scans", str(tmp_path / "scans.jsonl"),
                        "--mode", "tracking", "--config", str(cfg_file),
                        "--out", str(tmp_path / "odo")], capsys)
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "unknown config key(s): " + needle in err


def test_pr_subsample_below_one_is_usage_error(tmp_path, capsys):
    for value in ("0", "-2"):
        code, _, err = run(["pr", "--scans", "x", "--world", "room", "--poses", "y",
                            "--subsample", value], capsys)
        assert code == 2
        assert "--subsample" in err


def test_text_outputs_hold_plain_floats(tmp_path, capsys):
    sim = simulate_room(tmp_path, capsys)
    code, _, _ = run(["evaluate", "--estimate", str(sim / "ground_truth.txt"),
                      "--reference", str(sim / "ground_truth.txt"),
                      "--out", str(tmp_path / "eval")], capsys)
    assert code == 0
    rows = (tmp_path / "eval" / "errors.txt").read_text().splitlines()
    assert rows
    for k, row in enumerate(rows):
        index, error = row.split()
        assert int(index) == k and float(error) == 0.0

    pr_file = tmp_path / "pr.txt"
    code, _, _ = run(["pr", "--scans", str(sim / "scans.jsonl"), "--world", "room",
                      "--poses", str(sim / "ground_truth.txt"),
                      "--sweep", "500:1500:3", "--subsample", "20",
                      "--out", str(pr_file)], capsys)
    assert code == 0
    rows = pr_file.read_text().splitlines()[1:]
    assert [float(row.split()[0]) for row in rows] == [500.0, 1000.0, 1500.0]
    for row in rows:
        assert all(float(v) >= 0.0 for v in row.split())


@pytest.mark.parametrize("argv, needle", [
    (["simulate", "--world", "room", "--speed", "0"], "--speed"),
    (["simulate", "--world", "room", "--speed", "-1"], "--speed"),
    (["simulate", "--world", "room", "--speed", "inf"], "--speed"),
    (["simulate", "--world", "room", "--speed", "nan"], "--speed"),
    (["simulate", "--world", "room", "--noise", "nan"], "--noise"),
    (["simulate", "--world", "room", "--noise", "-0.5"], "--noise"),
    (["simulate", "--world", "room", "--noise", "inf"], "--noise"),
    (["reproduce", "--length", "nan"], "--length"),
    (["reproduce", "--length", "-1"], "--length"),
    (["reproduce", "--length", "0"], "--length"),
    (["reproduce", "--length", "inf"], "--length"),
    (["reproduce", "--speed", "-2"], "--speed"),
    (["reproduce", "--stride", "0"], "--stride"),
    (["reproduce", "--worlds", "nosuch"], "built-ins: corridor, corridor_marked"),
    (["simulate", "--world", "room", "--seed", "-1"], "--seed"),
    (["pr", "--scans", "x", "--world", "room", "--poses", "y", "--sweep", "500:nan:3"],
     "--sweep: HI must be finite"),
    (["evaluate", "--estimate", "e", "--reference", "r", "--threshold", "nan"], "--threshold"),
    (["odometry", "--scans", "x", "--mode", "weird"], "invalid choice"),
    (["simulate", "--speed", "1"], "required: --world"),
])
def test_bad_motion_and_noise_values_are_usage_errors(tmp_path, capsys, argv, needle):
    code, _, err = run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert needle in err
    assert not (tmp_path / "out").exists()


def custom_scan_record(**sensor):
    """A one-scan log record of a custom 90-beam sensor, with the given
    sensor fields replaced."""
    spec = LidarSpec("custom", 10.0, math.radians(89.0), math.radians(1.0),
                     1000.0, 1, 10.0)
    scan = LaserScan(0.0, -spec.fov / 2, np.full(spec.beam_count, 2.0),
                     np.full(spec.beam_count, 100.0), spec)
    rec = json.loads(scan_to_json(scan))
    rec["sensor"].update(sensor)
    return rec


@pytest.mark.parametrize("rec, needle", [
    (custom_scan_record(angular_resolution=NAN), "angular_resolution must be positive"),
    (custom_scan_record(i_min=NAN), "i_min must be positive"),
    (custom_scan_record(p_d=NAN), "p_d must be an integer >= 0"),
    (custom_scan_record(p_d=1.5), "p_d must be an integer >= 0"),
    (custom_scan_record(frequency=0.0), "frequency must be positive"),
    (custom_scan_record(max_usable_range=-1.0), "max_usable_range must be positive"),
    ({**custom_scan_record(), "ranges": [[1.0], [2.0]]}, "1-D arrays"),
    ({**custom_scan_record(), "sensor": 5}, "malformed scan record"),
    ({**custom_scan_record(), "sensor": {"name": "custom", "frequency": 10.0}},
     "malformed scan record"),
    ([custom_scan_record()], "malformed scan record"),
    ({**custom_scan_record(), "ranges": [10 ** 400] * 90}, "too large"),
])
def test_malformed_scan_record_is_runtime_error(tmp_path, capsys, rec, needle):
    scans = tmp_path / "scans.jsonl"
    scans.write_text(json.dumps(rec) + "\n")
    code, _, err = run(["detect", "--scans", str(scans)], capsys)
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert f"{scans}:1: malformed scan record" in err and needle in err


def test_reproduce_world_file_is_usage_error(tmp_path, capsys):
    world = tmp_path / "world.json"
    world.write_text(json.dumps({"segments": [WALL]}))
    code, _, err = run(["reproduce", "--worlds", str(world),
                        "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "no built-in trajectory" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["nan 1.5 0", "0 inf 0", "0 1.5", "a 1.5 0"])
def test_bad_waypoint_is_usage_error(tmp_path, capsys, line):
    wp = tmp_path / "wp.txt"
    wp.write_text(f"0 1.5 0\n{line}\n")
    code, _, err = run(["simulate", "--world", "room", "--trajectory", str(wp),
                        "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert f"{wp}:2: waypoint" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row", ["1 nan 0 0", "1 inf 0 0", "nan 1 0 0", "a 1 0 0"])
def test_bad_trajectory_row_is_runtime_error(tmp_path, capsys, row):
    reference = tmp_path / "ref.txt"
    reference.write_text("0 0 0 0\n1 1 0 0\n2 2 0 0\n")
    estimate = tmp_path / "est.txt"
    estimate.write_text(f"0 0 0 0\n{row}\n2 2 0 0\n")
    code, out, err = run(["evaluate", "--estimate", str(estimate),
                          "--reference", str(reference)], capsys)
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [
        f"error: {estimate}:2: pose needs finite 't x y theta'"]
