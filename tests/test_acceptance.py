"""End-to-end acceptance suite.

Each test covers one advertised guarantee of the toolkit and prints a single
PASS/FAIL line (visible even under pytest capture). The corridor study is the
expensive one: thirty full odometry runs across ten seeds.
"""

import itertools
import math
import time
from functools import partial

import numpy as np
import pytest

from refodom.cli import main as cli_main
from refodom.detector import DetectorParams, detect, expected_point_count
from refodom.evaluation import (compute_ate, labels_from_world, pr_sweep,
                                threshold_detector)
from refodom.geometry import Pose2D, compose, inverse, transform_points
from refodom.layers import MARKER_LAYER, build_marker_layer, match_layered
from refodom.ndt import (DEFAULT_CELL_SIZE, MatchOptions, build_grids, cell_table,
                         match, newton_ascent, score, score_terms)
from refodom.odometry import Odometry, OdometryConfig
from refodom.scan import get_sensor
from refodom.simulator import (SimConfig, builtin_trajectory, builtin_worlds,
                               simulate_trajectory)
from refodom.tracking import (TrackerParams, match_tracked, solve_assignment,
                              track_terms)

SENSOR = "r2000"        # dense 360 deg coverage: markers never leave the FOV
STRIDE = 8
SPEED = 2.0
RUN_BUDGET_S = 60.0


def report(capsys, name, ok, detail=""):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" — {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def run_odometry(scans, mode):
    odo = Odometry(OdometryConfig(mode=mode, match_stride=STRIDE))
    t0 = time.time()
    outputs, _ = odo.run(scans)
    return outputs, time.time() - t0


def ate_of(outputs, poses, dt):
    est = [(o.timestamp, o.pose) for o in outputs]
    ref = [(k * dt, p) for k, p in enumerate(poses)]
    return compute_ate(est, ref)


def simulate(world_name, seed, waypoints=None):
    world = builtin_worlds()[world_name]
    wps = waypoints or builtin_trajectory(world_name)
    cfg = SimConfig(spec=get_sensor(SENSOR), seed=seed)
    scans, poses = simulate_trajectory(world, wps, SPEED, cfg)
    return scans, poses, 1.0 / cfg.spec.frequency


# -- 1. corridor degeneracy flips to success with markers ---------------------

def test_corridor_marker_flip(capsys):
    seeds = range(10)
    plain_fail = layer_ok = track_ok = 0
    budget_ok = True
    for seed in seeds:
        scans_c, poses_c, dt = simulate("corridor", seed)
        out, t_run = run_odometry(scans_c, "plain")
        budget_ok &= t_run < RUN_BUDGET_S
        r = ate_of(out, poses_c, dt)
        plain_fail += r.max_error > 1.0

        scans_m, poses_m, dt = simulate("corridor_marked", seed)
        for mode in ("layer", "tracking"):
            out, t_run = run_odometry(scans_m, mode)
            budget_ok &= t_run < RUN_BUDGET_S
            rm = ate_of(out, poses_m, dt)
            if mode == "layer":
                layer_ok += rm.max_error < 0.2
            else:
                track_ok += rm.max_error < 0.2

    # a feature-rich room succeeds in every mode
    room_ok = True
    scans_r, poses_r, dt = simulate("room", 0)
    for mode in ("plain", "layer", "tracking"):
        out, t_run = run_odometry(scans_r, mode)
        budget_ok &= t_run < RUN_BUDGET_S
        room_ok &= ate_of(out, poses_r, dt).max_error <= 1.0

    ok = plain_fail >= 9 and layer_ok >= 9 and track_ok >= 9 and room_ok and budget_ok
    report(capsys, "corridor degeneracy flips to success with markers", ok,
           f"plain failed {plain_fail}/10, layer ok {layer_ok}/10, "
           f"tracking ok {track_ok}/10, room all modes {'ok' if room_ok else 'FAILED'}, "
           f"runtime budget {'ok' if budget_ok else 'exceeded'}")


# -- 2. detector separation on the distractor hall ----------------------------

def test_detector_separation(capsys):
    world = builtin_worlds()["distractor_hall"]
    cfg = SimConfig(spec=get_sensor("lms151"), seed=0)
    scans, poses = simulate_trajectory(world, builtin_trajectory("distractor_hall"),
                                       SPEED, cfg)
    records = list(zip(scans, poses))[::10]
    labels = labels_from_world(world)
    params = DetectorParams()
    proposed = lambda scan, thr: detect(scan, params, i_min=thr)  # noqa: E731
    gating = dict(fn_max_range=6.0, fn_max_incidence=math.radians(60.0))

    at_op = pr_sweep(records, labels, proposed, [1000.0], **gating)[0]
    base_op = pr_sweep(records, labels, threshold_detector, [1000.0], **gating)[0]

    sweep = np.linspace(500.0, 10000.0, 20)
    prop_pts = pr_sweep(records, labels, proposed, sweep, **gating)
    base_pts = pr_sweep(records, labels, threshold_detector, sweep, **gating)
    bound_holds = all(p.recall <= b.recall + 1e-12
                      for p, b in zip(prop_pts, base_pts))

    ok = (at_op.precision >= 0.95 and at_op.precision > base_op.precision
          and at_op.recall >= 0.8 and bound_holds)
    report(capsys, "detector separates markers from distractors", ok,
           f"precision {at_op.precision:.3f} vs baseline {base_op.precision:.3f}, "
           f"recall {at_op.recall:.3f}, recall bound over {len(sweep)} thresholds "
           f"{'holds' if bound_holds else 'violated'}")


# -- 3. expected point count vs ray enumeration -------------------------------

def ray_oracle(r, incidence, width, resolution, phase):
    half = width / 2.0
    tangent = np.array([-math.sin(incidence), math.cos(incidence)])
    e1 = np.array([r, 0.0]) + half * tangent
    e2 = np.array([r, 0.0]) - half * tangent
    psi1, psi2 = math.atan2(e1[1], e1[0]), math.atan2(e2[1], e2[0])
    lo, hi = min(psi1, psi2) - resolution, max(psi1, psi2) + resolution
    return math.floor((hi - phase) / resolution) - math.ceil((lo - phase) / resolution) + 1


def test_expected_point_count_formula(capsys):
    rng = np.random.default_rng(123)
    resolutions = [get_sensor(n).angular_resolution
                   for n in ("lms151", "r2000", "os32c")]
    width = DetectorParams().marker_width
    worst = 0
    for _ in range(1000):
        r = rng.uniform(0.5, 6.0)
        inc = rng.uniform(0.0, math.radians(60.0))
        res = resolutions[rng.integers(len(resolutions))]
        phase = rng.uniform(0.0, res)
        predicted = expected_point_count(np.array([r, 0.0]), inc, width, res)
        actual = ray_oracle(r, inc, width, res, phase)
        worst = max(worst, abs(predicted - actual))
    worked = expected_point_count(np.array([1.0, 0.0]), 0.0, width,
                                  math.radians(0.5))
    ok = worst <= 1 and worked == 8
    report(capsys, "point-count formula matches ray enumeration", ok,
           f"max deviation {worst} point(s) over 1000 poses x 3 resolutions, "
           f"worked case -> {worked}")


# -- 4. analytic derivatives and monotone ascent -------------------------------

def _fd_check(objective, pose, h=1e-6):
    s, g, H = objective(pose)[:3]
    g_fd = np.zeros(3)
    H_fd = np.zeros((3, 3))
    for k in range(3):
        d = np.zeros(3)
        d[k] = h
        op = objective(Pose2D(pose.x + d[0], pose.y + d[1], pose.theta + d[2]))
        om = objective(Pose2D(pose.x - d[0], pose.y - d[1], pose.theta - d[2]))
        g_fd[k] = (op[0] - om[0]) / (2 * h)
        H_fd[:, k] = (op[1] - om[1]) / (2 * h)
    H_fd = 0.5 * (H_fd + H_fd.T)
    eg = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-9)
    eh = np.linalg.norm(H - H_fd) / max(np.linalg.norm(H_fd), 1e-9)
    return max(eg, eh)


def _random_scene(rng):
    n = 250
    x = rng.uniform(0, 6, n)
    cloud = np.vstack([np.column_stack((x, rng.normal(0, 0.01, n))),
                       np.column_stack((x, 3 + rng.normal(0, 0.01, n))),
                       np.column_stack((rng.normal(0, 0.01, n // 3),
                                        rng.uniform(0, 3, n // 3)))])
    markers = rng.uniform([0.5, 0.0], [5.5, 3.0], size=(3, 2))
    return cloud, markers


def test_derivatives_match_finite_differences(capsys):
    # The NDT score is piecewise smooth: finite differences are meaningless
    # exactly where a point sits on a cell boundary, so a configuration that
    # trips one gets re-checked at a freshly drawn pose. Every configuration
    # must validate within a handful of attempts.
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(200):
        cloud, markers = _random_scene(rng)
        # The objective of each mode: the NDT layer, plus the weighted marker
        # layer or the track term.
        grids = build_grids(cloud, DEFAULT_CELL_SIZE)
        terms = [(1.0, partial(score_terms, grids, cloud))]
        kind = trial % 3
        if kind == 1:
            marker_grids = build_marker_layer(markers)
            terms.append((10.0, partial(score_terms, marker_grids, markers)))
        elif kind == 2:
            ref = markers + rng.normal(0, 0.02, markers.shape)
            terms.append((-float(rng.uniform(1, 500)),
                          partial(track_terms, markers, ref)))
        objective = partial(score, terms)
        best = math.inf
        for _ in range(5):
            pose = Pose2D(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                          rng.uniform(-0.05, 0.05))
            best = min(best, _fd_check(objective, pose))
            if best < 1e-4:
                break
        worst = max(worst, best)
    ok = worst < 1e-4
    report(capsys, "analytic derivatives match finite differences", ok,
           f"worst relative error {worst:.2e} over 200 configurations "
           f"(all three objectives)")


def test_ascent_never_decreases_score(capsys):
    rng = np.random.default_rng(11)
    monotone = True
    for _ in range(20):
        cloud, _ = _random_scene(rng)
        grids = build_grids(cloud, DEFAULT_CELL_SIZE)
        objective = partial(score, ((1.0, partial(score_terms, grids, cloud)),))
        initial = Pose2D(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                         rng.uniform(-0.1, 0.1))
        prev = objective(initial)[0]
        for iters in range(1, 15):
            res = newton_ascent(objective, initial, MatchOptions(max_iterations=iters))
            monotone &= res.score >= prev - 1e-12
            prev = res.score
    report(capsys, "Newton ascent score is non-decreasing", monotone)


# -- 5. degeneration identities -------------------------------------------------

def test_degeneration_identities(capsys):
    rng = np.random.default_rng(13)
    cloud, markers = _random_scene(rng)
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)
    empty = np.empty((0, 2))
    initial = Pose2D(0.08, -0.04, 0.02)

    plain = match(grids, cloud, initial)
    two_layers = build_grids([cell_table(cloud, DEFAULT_CELL_SIZE),
                              cell_table(empty, DEFAULT_CELL_SIZE, MARKER_LAYER)],
                             DEFAULT_CELL_SIZE)
    as_layer = match_layered(two_layers, cloud, empty, 0.0, initial)
    layer_exact = (as_layer.pose == plain.pose and as_layer.score == plain.score)

    tracks = {0: markers[0]}
    zero_w = match_tracked(grids, cloud, tracks, tracks, 0.0, initial)
    disjoint = match_tracked(grids, cloud, {0: markers[0]}, {1: markers[1]},
                             2000.0, initial)
    track_exact = (zero_w.pose == plain.pose and zero_w.score == plain.score
                   and disjoint.pose == plain.pose and disjoint.score == plain.score)

    ok = layer_exact and track_exact
    report(capsys, "marker terms degenerate to plain matching exactly", ok,
           f"layer identity {'exact' if layer_exact else 'BROKEN'}, "
           f"tracking identities {'exact' if track_exact else 'BROKEN'}")


# -- 6. assignment optimality ----------------------------------------------------

def brute_force_cost(dets, trks, c_d, c_t, gate):
    nd, nt = len(dets), len(trks)
    best = math.inf
    for k in range(min(nd, nt) + 1):
        for subset in itertools.combinations(range(nd), k):
            for perm in itertools.permutations(range(nt), k):
                cost = (nd - k) * c_d + (nt - k) * c_t
                feasible = True
                for i, j in zip(subset, perm):
                    d2 = float(np.sum((dets[i] - trks[j]) ** 2))
                    if d2 > gate * gate:
                        feasible = False
                        break
                    cost += d2
                if feasible:
                    best = min(best, cost)
    return best


def test_assignment_optimality(capsys):
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        nd = int(rng.integers(0, 7))
        nt = int(rng.integers(0, 13 - nd)) if nd < 12 else 0
        dets = rng.uniform(-2, 2, size=(nd, 2))
        trks = rng.uniform(-2, 2, size=(nt, 2))
        c_d, c_t = rng.uniform(0.001, 1.0, 2)
        gate = rng.uniform(0.05, 3.0)
        _, total = solve_assignment(dets, trks, c_d, c_t, gate)
        worst = max(worst, abs(total - brute_force_cost(dets, trks, c_d, c_t, gate)))

    p = TrackerParams()
    gated, _ = solve_assignment(np.array([[0.06, 0.0]]), np.array([[0.0, 0.0]]),
                                p.c_d, p.c_t, p.gate)
    assigned, _ = solve_assignment(np.array([[0.03, 0.0]]),
                                   np.array([[0.0, 0.0]]),
                                   p.c_d, p.c_t, p.gate)
    ok = worst < 1e-9 and gated == [] and assigned == [(0, 0)]
    report(capsys, "assignment solver is exactly optimal", ok,
           f"max cost gap {worst:.1e} over 1000 instances (N_D+N_T <= 12), "
           f"0.06 m example gated, 0.03 m example assigned")


# -- 7. ATE harness ----------------------------------------------------------------

def test_ate_harness(capsys):
    traj = [(0.02 * k, Pose2D(0.08 * k, 0.03 * math.sin(0.05 * k), 0.002 * k))
            for k in range(150)]
    identical = compute_ate(traj, traj)

    g = Pose2D(4.0, -1.5, 1.1)
    moved = [(t, compose(g, p)) for t, p in traj]
    rigid = compute_ate(moved, traj)

    outlier = list(traj)
    t, p = outlier[75]
    outlier[75] = (t, Pose2D(p.x + 2.0, p.y, p.theta))
    polluted = compute_ate(outlier, traj, fail_threshold=1.0)

    ok = (identical.rmse <= 1e-9 and rigid.rmse <= 1e-6
          and not polluted.success and polluted.max_error > 1.0)
    report(capsys, "trajectory error harness identities", ok,
           f"identical rmse {identical.rmse:.1e}, rigid-copy rmse {rigid.rmse:.1e}, "
           f"outlier run {'flagged' if not polluted.success else 'MISSED'}")


# -- 8. end-to-end determinism -------------------------------------------------------

def test_reproduce_is_deterministic(capsys, tmp_path):
    args = ["reproduce", "--worlds", "corridor_marked", "--length", "5",
            "--seed", "0"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    files = ["corridor_marked/scans.jsonl", "corridor_marked/ground_truth.txt"]
    files += [f"corridor_marked/{m}/{f}" for m in ("plain", "layer", "tracking")
              for f in ("trajectory.txt", "report.txt")]
    identical = all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
    report(capsys, "reproduce runs are byte-identical", identical,
           f"{len(files)} files compared")
