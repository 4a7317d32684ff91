import itertools
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from refodom.geometry import Pose2D, inverse, transform_points
from refodom.ndt import DEFAULT_CELL_SIZE, build_grids, match, score, score_terms
from refodom.tracking import (Tracker, TrackerParams, match_tracked,
                              merge_reference_tracks, solve_assignment,
                              track_terms)


# -- assignment oracle --------------------------------------------------------

def brute_force_cost(dets, trks, c_d, c_t, gate):
    """Minimum cost over all partial matchings by exhaustive enumeration."""
    nd, nt = len(dets), len(trks)
    best = math.inf
    track_ix = list(range(nt))
    for k in range(min(nd, nt) + 1):
        for det_subset in itertools.combinations(range(nd), k):
            for perm in itertools.permutations(track_ix, k):
                cost = (nd - k) * c_d + (nt - k) * c_t
                ok = True
                for i, j in zip(det_subset, perm):
                    d2 = float(np.sum((dets[i] - trks[j]) ** 2))
                    if d2 > gate * gate:
                        ok = False
                        break
                    cost += d2
                if ok:
                    best = min(best, cost)
    return best


def test_assignment_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        nd = int(rng.integers(0, 5))
        nt = int(rng.integers(0, 5))
        dets = rng.uniform(-1, 1, size=(nd, 2))
        trks = rng.uniform(-1, 1, size=(nt, 2))
        c_d, c_t = rng.uniform(0.001, 0.5, 2)
        gate = rng.uniform(0.1, 2.0)
        assignments, total = solve_assignment(dets, trks, c_d, c_t, gate)
        expected = brute_force_cost(dets, trks, c_d, c_t, gate)
        assert total == pytest.approx(expected, abs=1e-9)
        # assignments respect the gate and are one-to-one
        assert len({i for i, _ in assignments}) == len(assignments)
        assert len({j for _, j in assignments}) == len(assignments)
        for i, j in assignments:
            assert np.sum((dets[i] - trks[j]) ** 2) <= gate * gate + 1e-12


def augmented_assignment(dets, trks, c_d, c_t, gate):
    """The square (nd + nt) formulation: a detection paired with its private
    dummy column, or a track with its private dummy row, is unassigned, and
    a gated pair is forbidden by a huge cost."""
    forbidden = 1e12
    nd, nt = len(dets), len(trks)
    base_cost = nd * c_d + nt * c_t
    if nd == 0 or nt == 0:
        return [], base_cost
    diff = dets[:, None, :] - trks[None, :, :]
    sqdist = np.einsum("ijk,ijk->ij", diff, diff)
    gated = sqdist > gate * gate
    n = nd + nt
    cost = np.full((n, n), forbidden)
    cost[:nd, :nt] = np.where(gated, forbidden, sqdist)
    for i in range(nd):
        cost[i, nt + i] = c_d
    for j in range(nt):
        cost[nd + j, j] = c_t
    cost[nd:, nt:] = 0.0
    rows, cols = linear_sum_assignment(cost)
    assignments = []
    total = base_cost
    for r, c in zip(rows, cols):
        if r < nd and c < nt and not gated[r, c]:
            assignments.append((int(r), int(c)))
            total += float(sqdist[r, c]) - c_d - c_t
    return assignments, total


def optimal_matchings(dets, trks, c_d, c_t, gate):
    """Every partial matching inside the gate whose cost is within 1e-12 of
    the least, as a list of (det_index, track_index) pairs by det index."""
    nd, nt = len(dets), len(trks)
    sqdist = ((dets[:, None, :] - trks[None, :, :]) ** 2).sum(axis=2)
    costs = {}
    for k in range(min(nd, nt) + 1):
        for det_subset in itertools.combinations(range(nd), k):
            for perm in itertools.permutations(range(nt), k):
                pairs = tuple(zip(det_subset, perm))
                if all(sqdist[p] <= gate * gate for p in pairs):
                    costs[pairs] = ((nd - k) * c_d + (nt - k) * c_t
                                    + sum(sqdist[p] for p in pairs))
    best = min(costs.values())
    return [list(p) for p, cost in costs.items() if cost <= best + 1e-12]


_points = st.lists(st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)), max_size=5)


@settings(max_examples=300, deadline=None, database=None)
@given(dets=_points, trks=_points, c_d=st.floats(1e-4, 0.02), c_t=st.floats(1e-4, 0.02),
       gate=st.floats(0.01, 0.3))
def test_assignment_equals_augmented_formulation(dets, trks, c_d, c_t, gate):
    """Where the optimal matching is unique, the rectangular solver returns
    the augmented formulation's pairs and, bit for bit, its total. Where
    several tie, it returns one of them at the same total."""
    dets = np.array(dets, dtype=float).reshape(-1, 2)
    trks = np.array(trks, dtype=float).reshape(-1, 2)
    got = solve_assignment(dets, trks, c_d, c_t, gate)
    want = augmented_assignment(dets, trks, c_d, c_t, gate)
    optimal = optimal_matchings(dets, trks, c_d, c_t, gate)
    assert got[0] in optimal
    if len(optimal) == 1:
        assert got == want
    else:
        assert got[1] == pytest.approx(want[1], rel=0, abs=1e-12)


def test_assignment_gate_examples():
    params = TrackerParams()
    # detection 6 cm from the only track: forbidden by the 5 cm gate
    a, _ = solve_assignment(np.array([[0.06, 0.0]]), np.array([[0.0, 0.0]]),
                            params.c_d, params.c_t, params.gate)
    assert a == []
    # 3 cm: inside the gate and cheaper than leaving both unassigned
    a, _ = solve_assignment(np.array([[0.03, 0.0]]), np.array([[0.0, 0.0]]),
                            params.c_d, params.c_t, params.gate)
    assert a == [(0, 0)]


def test_assignment_empty_cases():
    a, total = solve_assignment(np.empty((0, 2)), np.empty((0, 2)), 0.1, 0.1, 1.0)
    assert a == [] and total == 0.0
    a, total = solve_assignment(np.array([[1.0, 1.0]]), np.empty((0, 2)), 0.1, 0.2, 1.0)
    assert a == [] and total == pytest.approx(0.1)


def test_assignment_prefers_nearest():
    dets = np.array([[0.0, 0.0], [1.0, 0.0]])
    trks = np.array([[0.01, 0.0], [1.02, 0.0]])
    a, _ = solve_assignment(dets, trks, 0.1, 0.1, 0.5)
    assert sorted(a) == [(0, 0), (1, 1)]


# -- tracker lifecycle --------------------------------------------------------

def test_track_dies_after_max_missed():
    params = TrackerParams(max_missed=2)
    tracker = Tracker(params)
    tracker.update(np.array([[0.0, 0.0]]))
    for _ in range(2):
        tracker.update(np.empty((0, 2)))
        assert len(tracker.tracks) == 1
    tracker.update(np.empty((0, 2)))
    assert tracker.tracks == []


def test_track_ids_never_reused():
    params = TrackerParams(max_missed=1)
    tracker = Tracker(params)
    tracker.update(np.array([[0.0, 0.0]]))
    tracker.update(np.empty((0, 2)))
    tracker.update(np.empty((0, 2)))  # track 0 dies
    tracker.update(np.array([[0.0, 0.0]]))
    assert [t.track_id for t in tracker.tracks] == [1]


def test_track_position_follows_detection():
    tracker = Tracker(TrackerParams())
    tracker.update(np.array([[1.0, 0.0]]))
    tracker.update(np.array([[1.03, 0.0]]))
    assert tracker.tracks[0].position == pytest.approx([1.03, 0.0])
    assert tracker.tracks[0].observations == 2


def test_far_detection_spawns_new_track():
    tracker = Tracker(TrackerParams())
    tracker.update(np.array([[0.0, 0.0]]))
    tracker.update(np.array([[1.0, 0.0]]))  # outside the gate
    assert len(tracker.tracks) == 2
    assert {t.track_id for t in tracker.tracks} == {0, 1}


@settings(max_examples=60, deadline=None, database=None)
@given(max_missed=st.integers(1, 4), data=st.data())
def test_track_lifecycle_properties(max_missed, data):
    """Over random detections and partial one-to-one assignments: ids are
    never reused; an assigned track moves to its detection with one more
    observation and no misses; each unassigned detection spawns one track;
    a track survives exactly max_missed unassigned updates in a row; and
    all_tracks lists every live track."""
    tracker = Tracker(TrackerParams(max_missed=max_missed))
    coord = st.floats(-10.0, 10.0, allow_nan=False)
    ever_seen: set = set()
    unassigned_run: dict = {}   # track id -> consecutive unassigned updates
    for _ in range(data.draw(st.integers(1, 15), label="updates")):
        before = list(tracker.tracks)
        before_ids = {t.track_id for t in before}
        dets = np.array(data.draw(st.lists(st.tuples(coord, coord), max_size=4),
                                  label="detections"), dtype=float).reshape(-1, 2)
        k = data.draw(st.integers(0, min(len(dets), len(before))), label="assigned")
        det_ix = data.draw(st.permutations(range(len(dets))), label="det order")[:k]
        trk_ix = data.draw(st.permutations(range(len(before))), label="track order")[:k]
        assignments = list(zip(det_ix, trk_ix))

        tracker.update(dets, assignments)
        after = {t.track_id: t for t in tracker.tracks}
        assert len(after) == len(tracker.tracks)
        assert tracker.all_tracks().keys() == after.keys()

        det_of = {before[j].track_id: i for i, j in assignments}
        for old in before:
            tid = old.track_id
            if tid in det_of:
                new = after[tid]
                assert np.array_equal(new.position, dets[det_of[tid]])
                assert (new.observations, new.missed) == (old.observations + 1, 0)
                unassigned_run[tid] = 0
                continue
            unassigned_run[tid] += 1
            if unassigned_run[tid] <= max_missed:
                new = after[tid]
                assert np.array_equal(new.position, old.position)
                assert (new.observations, new.missed) == (old.observations,
                                                          unassigned_run[tid])
            else:
                assert tid not in after
                del unassigned_run[tid]

        spawned = [t for tid, t in after.items() if tid not in before_ids]
        assert not {t.track_id for t in spawned} & ever_seen
        unassigned_dets = sorted(set(range(len(dets))) - set(det_ix))
        assert len(spawned) == len(unassigned_dets)
        for t, i in zip(spawned, unassigned_dets):
            assert np.array_equal(t.position, dets[i])
            assert (t.observations, t.missed) == (1, 0)
            unassigned_run[t.track_id] = 0
        ever_seen |= set(after)


# -- reference merge ----------------------------------------------------------

def test_merge_reference_keeps_oldest():
    snaps = [{0: np.array([0.0, 0.0])}, {0: np.array([1.0, 0.0]), 1: np.array([5.0, 5.0])}]
    merged = merge_reference_tracks(iter(snaps))
    assert list(merged) == [0, 1]
    assert merged[0] == pytest.approx([0.0, 0.0])
    assert merged[1] == pytest.approx([5.0, 5.0])
    assert merge_reference_tracks([]) == {}


# -- track cost term ----------------------------------------------------------

def test_cost_tracks_zero_at_alignment():
    cur = np.array([[1.0, 2.0], [-1.0, 0.5]])
    cost, grad, _, n_assoc, n_points = track_terms(cur, cur, Pose2D())
    assert cost == 0.0
    assert not grad.any()
    assert n_assoc == n_points == 0


def test_cost_tracks_only_shared_ids():
    # Ids in only one of the two sets do not enter the match: it equals the
    # match over the shared id alone, whose cost at identity is 1.
    rng = np.random.default_rng(6)
    cloud = corridor_cloud(rng)
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)
    cur = {0: np.array([1.0, 0.0]), 5: np.array([2.0, 0.0])}
    ref = {0: np.array([1.0, 1.0]), 7: np.array([9.0, 9.0])}
    assert track_terms(cur[0].reshape(1, 2), ref[0].reshape(1, 2), Pose2D())[0] == 1.0
    initial = Pose2D(0.05, 0.02, 0.01)
    a = match_tracked(grids, cloud, cur, ref, 100.0, initial)
    b = match_tracked(grids, cloud, {0: cur[0]}, {0: ref[0]}, 100.0, initial)
    assert a.pose == b.pose and a.score == b.score


def test_track_cost_terms_match_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(30):
        k = int(rng.integers(1, 6))
        cur = rng.uniform(-3, 3, size=(k, 2))
        ref = rng.uniform(-3, 3, size=(k, 2))
        pose = Pose2D(*rng.uniform(-0.5, 0.5, 3))
        cost, grad, hess, _, _ = track_terms(cur, ref, pose)
        h = 1e-6
        for i in range(3):
            d = np.zeros(3)
            d[i] = h
            cp = track_terms(cur, ref, Pose2D(pose.x + d[0], pose.y + d[1],
                                              pose.theta + d[2]))
            cm = track_terms(cur, ref, Pose2D(pose.x - d[0], pose.y - d[1],
                                              pose.theta - d[2]))
            assert grad[i] == pytest.approx((cp[0] - cm[0]) / (2 * h), rel=1e-5, abs=1e-6)
            assert hess[:, i] == pytest.approx((cp[1] - cm[1]) / (2 * h),
                                               rel=1e-5, abs=1e-6)


# -- tracked matching ---------------------------------------------------------

def corridor_cloud(rng):
    n = 1200
    x = rng.uniform(-8, 8, n)
    return np.vstack([np.column_stack((x, rng.normal(0, 0.005, n))),
                      np.column_stack((x, 3 + rng.normal(0, 0.005, n)))])


def test_zero_weight_equals_plain_exactly():
    rng = np.random.default_rng(2)
    cloud = corridor_cloud(rng)
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)
    tracks = {0: np.array([1.0, 0.0])}
    initial = Pose2D(0.05, 0.02, 0.01)
    a = match_tracked(grids, cloud, tracks, tracks, 0.0, initial)
    b = match(grids, cloud, initial)
    assert a.pose == b.pose and a.score == b.score
    assert a.n_points == b.n_points == len(cloud)   # the track term adds no points


def test_disjoint_track_ids_equals_plain_exactly():
    rng = np.random.default_rng(3)
    cloud = corridor_cloud(rng)
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)
    initial = Pose2D(0.05, 0.02, 0.01)
    a = match_tracked(grids, cloud, {0: np.array([1.0, 0.0])},
                      {1: np.array([2.0, 0.0])}, 2000.0, initial)
    b = match(grids, cloud, initial)
    assert a.pose == b.pose and a.score == b.score


def test_tracks_pin_degenerate_direction():
    rng = np.random.default_rng(4)
    cloud = corridor_cloud(rng)
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)
    true = Pose2D(0.2, 0.0, 0.0)
    ref = {0: np.array([2.0, 0.0]), 1: np.array([-3.0, 3.0])}
    cur = {tid: transform_points(inverse(true), p.reshape(1, 2))[0]
           for tid, p in ref.items()}
    moved = transform_points(inverse(true), cloud)
    result = match_tracked(grids, moved, cur, ref, 2000.0, Pose2D())
    assert result.pose.x == pytest.approx(0.2, abs=0.02)


def test_tracked_score_subtracts_weighted_cost():
    # The tracking objective is s - w cost, bit for bit as that formula, with
    # the ratio of the NDT points alone.
    rng = np.random.default_rng(5)
    cloud = corridor_cloud(rng)
    grids = build_grids(cloud, DEFAULT_CELL_SIZE)
    cur = np.array([[1.0, 0.0], [-2.0, 3.0]])
    ref = np.array([[1.1, 0.0], [-2.0, 2.95]])
    pose = Pose2D(0.01, -0.02, 0.003)
    terms = ((1.0, partial(score_terms, grids, cloud)),
             (-100.0, partial(track_terms, cur, ref)))
    s_t, g_t, h_t, ratio = score(terms, pose)
    s, g, h, n_assoc, n_points = score_terms(grids, cloud, pose)
    cost, cg, ch, _, _ = track_terms(cur, ref, pose)
    assert s_t == s - 100.0 * cost
    assert np.array_equal(g_t, g - 100.0 * cg)
    assert np.array_equal(h_t, h - 100.0 * ch)
    assert ratio == n_assoc / n_points
    s, _, _, n_assoc, n_points = score_terms(grids, cloud, pose, derivatives=False)
    cost, _, _, _, _ = track_terms(cur, ref, pose, derivatives=False)
    assert score(terms, pose, derivatives=False) == (
        s - 100.0 * cost, None, None, n_assoc / n_points)


def test_tracker_params_validation():
    with pytest.raises(ValueError):
        TrackerParams(gate=0.0)
    with pytest.raises(ValueError):
        TrackerParams(c_d=-1.0)
