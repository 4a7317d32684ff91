"""Persistent marker tracks: minimum-cost assignment of detections to tracks
with fixed unassignment penalties, track lifecycle management, and the
track-alignment term of the matching objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import Pose2D
from .ndt import (MatchOptions, MatchResult, NdtQuery, ascend, check_integers,
                  check_reals)

# Calibrated by sweeping the marked-corridor scenario: the quadratic track
# pull must dominate the residual along-corridor ripple of a few hundred
# associated wall points, which a weight of ~1e2 does not.
DEFAULT_W_TRACKS = 2000.0


@dataclass(frozen=True)
class TrackerParams:
    c_d: float = 0.0025       # m^2, cost of an unassigned detection
    c_t: float = 0.0025       # m^2, cost of an unassigned track
    gate: float = 0.05        # m, detections assign only to tracks this close
    max_missed: int = 10      # scans a track survives unassigned

    def __post_init__(self):
        check_reals(self, "c_d", "c_t", "gate")
        check_integers(self, 1, "max_missed")


@dataclass(frozen=True)
class Track:
    track_id: int
    position: np.ndarray      # (2,), odometry frame
    observations: int = 1
    missed: int = 0


def solve_assignment(det_positions, track_positions, c_d: float, c_t: float,
                     gate: float):
    """Minimum-cost partial matching of detections to tracks.

    Pairwise cost is the squared distance; unmatched detections/tracks cost
    c_d / c_t each; pairs farther apart than the gate are forbidden. Solved
    as one rectangular problem over the pairs' savings. Returns (assignments
    as a list of (det_index, track_index), total cost).
    """
    dets = np.asarray(det_positions, dtype=float).reshape(-1, 2)
    trks = np.asarray(track_positions, dtype=float).reshape(-1, 2)
    total = len(dets) * c_d + len(trks) * c_t
    diff = dets[:, None, :] - trks[None, :, :]
    sqdist = np.einsum("ijk,ijk->ij", diff, diff)
    # Pairing saves sqdist - c_d - c_t over leaving both unassigned; a pair
    # outside the gate, or one that saves nothing, costs 0 and is dropped.
    saving = np.where(sqdist > gate * gate, 0.0, np.minimum(sqdist - c_d - c_t, 0.0))
    assignments = []
    for r, c in zip(*linear_sum_assignment(saving)):
        if saving[r, c] < 0.0:
            assignments.append((int(r), int(c)))
            total += float(sqdist[r, c]) - c_d - c_t
    return assignments, total


class Tracker:
    """Single-writer track store; update() must be called in scan order."""

    def __init__(self, params: TrackerParams | None = None):
        self.params = params or TrackerParams()
        self.tracks: list[Track] = []
        self._next_id = 0

    def all_tracks(self) -> dict[int, np.ndarray]:
        """Every live track, id -> position. Keyframes snapshot these so a
        track keeps the reference position of the oldest keyframe that saw
        it, which has drifted least."""
        return {t.track_id: t.position for t in self.tracks}

    def assign(self, det_positions):
        """Assignment of detections (odometry frame) to current tracks
        without mutating state. Returns list of (det_index, track_index)."""
        positions = [t.position for t in self.tracks]
        assignments, _ = solve_assignment(det_positions, positions,
                                          self.params.c_d, self.params.c_t,
                                          self.params.gate)
        return assignments

    def update(self, det_positions, assignments=None):
        """Commit one scan: assigned tracks move to their detection, new
        tracks spawn from unassigned detections, stale tracks are dropped."""
        dets = np.asarray(det_positions, dtype=float).reshape(-1, 2)
        if assignments is None:
            assignments = self.assign(dets)
        assigned_tracks = {j: i for i, j in assignments}
        updated = []
        for j, track in enumerate(self.tracks):
            if j in assigned_tracks:
                updated.append(replace(track,
                                        position=dets[assigned_tracks[j]].copy(),
                                        observations=track.observations + 1,
                                        missed=0))
            elif track.missed < self.params.max_missed:
                updated.append(replace(track, missed=track.missed + 1))
        assigned_dets = {i for i, _ in assignments}
        for i in range(len(dets)):
            if i not in assigned_dets:
                updated.append(Track(self._next_id, dets[i].copy()))
                self._next_id += 1
        self.tracks = updated


def merge_reference_tracks(snapshots) -> dict[int, np.ndarray]:
    """Reference position of each track id over keyframe snapshots, given as
    {id: position} in keyframe (oldest-first) order: the oldest snapshot's,
    which has drifted least."""
    merged: dict[int, np.ndarray] = {}
    for snap in snapshots:
        for tid, pos in snap.items():
            merged.setdefault(tid, np.asarray(pos, dtype=float))
    return merged


def track_terms(cur_pts: np.ndarray, ref_pts: np.ndarray, pose: Pose2D,
                derivatives: bool = True):
    """Quadratic track cost, the sum of squared distances between the
    transformed current and the reference track positions, with gradient and
    Hessian w.r.t. (x, y, theta) (None when derivatives is False), as an
    ndt.score term: it associates no points, so it leaves the ratio alone."""
    if len(cur_pts) == 0:
        if not derivatives:
            return 0.0, None, None, 0, 0
        return 0.0, np.zeros(3), np.zeros((3, 3)), 0, 0
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    R = np.array([[c, -s], [s, c]])
    u = cur_pts @ R.T + np.array([pose.x, pose.y]) - ref_pts  # (K,2)
    cost = float(np.einsum("ki,ki->", u, u))
    if not derivatives:
        return cost, None, None, 0, 0
    dR = np.array([[-s, -c], [c, -s]])
    jt = cur_pts @ dR.T                                       # du/dtheta
    d2 = -(cur_pts @ R.T)                                     # d2u/dtheta2
    grad = np.zeros(3)
    grad[0] = 2.0 * float(u[:, 0].sum())
    grad[1] = 2.0 * float(u[:, 1].sum())
    grad[2] = 2.0 * float(np.einsum("ki,ki->", u, jt))
    hess = np.zeros((3, 3))
    k = len(u)
    hess[0, 0] = hess[1, 1] = 2.0 * k
    hess[0, 2] = hess[2, 0] = 2.0 * float(jt[:, 0].sum())
    hess[1, 2] = hess[2, 1] = 2.0 * float(jt[:, 1].sum())
    hess[2, 2] = 2.0 * float(np.einsum("ki,ki->", jt, jt) + np.einsum("ki,ki->", u, d2))
    return cost, grad, hess, 0, 0


def match_tracked(grids, points: np.ndarray, current_tracks: dict,
                  reference_tracks: dict, w_tracks: float, initial: Pose2D,
                  opts: MatchOptions | None = None) -> MatchResult:
    """NDT match with the track cost, weighted by w_tracks, subtracted from
    the score.

    current_tracks maps track id -> position in the scan frame (the frame the
    pose transforms from); reference_tracks maps id -> position in the target
    frame. Only shared ids contribute; callers pass every assigned track.
    """
    shared = sorted(set(current_tracks) & set(reference_tracks))
    cur = np.array([current_tracks[i] for i in shared], dtype=float).reshape(-1, 2)
    ref = np.array([reference_tracks[i] for i in shared], dtype=float).reshape(-1, 2)
    return ascend(grids, NdtQuery(((1.0, points),)), initial, opts,
                  (-w_tracks, partial(track_terms, cur, ref)))
