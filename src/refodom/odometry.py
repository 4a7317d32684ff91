"""Scan-to-local-map lidar odometry.

The local map is a bounded FIFO of keyframes whose merged NDT grids are the
matching target. Markers enter the objective as a second, weighted term:
either a semantic NDT layer ("layer" mode) or the alignment of persistent
tracks ("tracking" mode). Keyframes are promoted when the match quality /
overlap / motion checks fail, after which the current scan is re-matched
against the grown map with the same arguments: in tracking mode, the scan's
one track assignment, made at the prediction. If that also fails, the
constant-velocity prediction is emitted with inflated covariance.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from .detector import DetectorParams, detect
from .geometry import Pose2D, compose, relative, transform_points
from .layers import (DEFAULT_MARKER_WEIGHT, DEFAULT_SYNTH_RADIUS, MARKER_LAYER,
                     marker_table, match_layered, split_points)
from .ndt import (DEFAULT_CELL_SIZE, MatchOptions, MatchResult, build_grids,
                  cell_table, check_integers, check_reals, match)
from .scan import LaserScan
from .tracking import (DEFAULT_W_TRACKS, Tracker, TrackerParams,
                       match_tracked, merge_reference_tracks)

MODES = ("plain", "layer", "tracking")


@dataclass(frozen=True)
class KeyframeCriteria:
    min_score: float = 0.3                  # score per associated point
    min_overlap: float = 0.7                # associated-point ratio
    max_translation: float = 1.0            # m from the current keyframe
    max_rotation: float = math.radians(30.0)

    def __post_init__(self):
        if not (0 < self.min_overlap <= 1):
            raise ValueError("min_overlap must be in (0, 1]")
        check_reals(self, "min_score", "max_translation", "max_rotation")


@dataclass
class OdometryConfig:
    mode: str = "plain"
    cell_size: float = DEFAULT_CELL_SIZE
    n_keyframes: int = 10
    marker_weight: float = DEFAULT_MARKER_WEIGHT
    synth_radius: float = DEFAULT_SYNTH_RADIUS
    w_tracks: float = DEFAULT_W_TRACKS
    detector: DetectorParams = field(default_factory=DetectorParams)
    tracker: TrackerParams = field(default_factory=TrackerParams)
    criteria: KeyframeCriteria = field(default_factory=KeyframeCriteria)
    match: MatchOptions = field(default_factory=MatchOptions)
    covariance_inflation: float = 1e3
    match_stride: int = 1   # match every k-th regular point (map keeps all)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        check_integers(self, 1, "n_keyframes", "match_stride")
        check_reals(self, "cell_size", "marker_weight", "synth_radius", "w_tracks",
                    "covariance_inflation")

    @classmethod
    def from_dict(cls, rec: dict) -> "OdometryConfig":
        rec = dict(rec)
        for key, sub in (("detector", DetectorParams), ("tracker", TrackerParams),
                         ("criteria", KeyframeCriteria), ("match", MatchOptions)):
            if key in rec:
                rec[key] = _from_fields(sub, rec[key], f"{key}.")
        return _from_fields(cls, rec)


def _from_fields(cls, rec: dict, prefix: str = ""):
    """cls(**rec), with a ValueError naming any key that is not a field."""
    if not isinstance(rec, dict):
        raise ValueError(f"{prefix[:-1]} must be a JSON object")
    unknown = sorted(set(rec) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError("unknown config key(s): "
                         + ", ".join(prefix + str(k) for k in unknown))
    return cls(**rec)


@dataclass
class Keyframe:
    timestamp: float
    pose: Pose2D
    tables: tuple                   # one CellTable per map layer (odometry frame)
    tracks_snapshot: dict           # track id -> position (odometry frame)


@dataclass
class OdometryOutput:
    timestamp: float
    pose: Pose2D
    is_keyframe: bool
    match_ok: bool
    covariance_hint: np.ndarray


@dataclass
class _ProcessedScan:
    """Cache of the most recent scan that passed the keyframe checks."""
    timestamp: float
    pose: Pose2D
    regular_sensor: np.ndarray
    marker_sensor: np.ndarray


class LocalMap:
    """Bounded FIFO of keyframes. A keyframe's points enter the map once, as
    one ndt.CellTable per map layer; on every change the window's tables are
    merged into one NdtGrids over every layer, so the map is always exactly
    what the points of the keyframes in the window imply.

    Layers: every mode keeps the regular points in layer 0; layer mode keeps
    the synthesized marker cloud in layer MARKER_LAYER. Plain mode detects
    no markers, and tracking mode carries them in the track references."""

    def __init__(self, config: OdometryConfig):
        self.config = config
        self.keyframes: list[Keyframe] = []
        self.grids = None           # ndt.NdtGrids, from the first keyframe on
        self.reference_tracks: dict = {}    # track id -> oldest snapshot position

    def __len__(self):
        return len(self.keyframes)

    def add(self, timestamp: float, pose: Pose2D, regular: np.ndarray,
            marker: np.ndarray, tracks_snapshot: dict):
        """Enter a keyframe from its odometry-frame regular and marker
        points, (n, 2) arrays, evict the oldest past n_keyframes and rebuild
        the grids. The marker points enter layer mode's marker layer only:
        in tracking mode, folding their tight clusters into the grids would
        add a second, keyframe pose dependent anchor that fights the track
        term."""
        cfg = self.config
        tables = (cell_table(regular, cfg.cell_size),)
        if cfg.mode == "layer":
            tables += (marker_table(marker, cfg.synth_radius, cfg.cell_size, MARKER_LAYER),)
        self.keyframes.append(Keyframe(timestamp, pose, tables, tracks_snapshot))
        if len(self.keyframes) > cfg.n_keyframes:
            self.keyframes.pop(0)
        self.rebuild()

    def rebuild(self):
        """Merge the window's cell tables of every layer into the grids, and
        its track snapshots into the reference tracks."""
        tables = [t for k in self.keyframes for t in k.tables]
        self.grids = build_grids(tables, self.config.cell_size)
        self.reference_tracks = merge_reference_tracks(
            k.tracks_snapshot for k in self.keyframes)


class Odometry:
    """Stateful scan-in / pose-out pipeline; scans must arrive in time order."""

    def __init__(self, config: OdometryConfig | None = None):
        self.config = config or OdometryConfig()
        self.local_map = LocalMap(self.config)
        self.tracker = Tracker(self.config.tracker) if self.config.mode == "tracking" else None
        self.recent_poses: deque[Pose2D] = deque(maxlen=2)  # all _predict reads
        self.last_timestamp = None
        self.last_passing: _ProcessedScan | None = None
        self.keyframe_log: list[tuple[float, Pose2D]] = []
        self.track_log: list[tuple] = []

    # -- prediction ---------------------------------------------------------

    def _predict(self) -> Pose2D:
        if len(self.recent_poses) < 2:
            return self.recent_poses[-1] if self.recent_poses else Pose2D()
        prev, last = self.recent_poses
        return compose(last, relative(prev, last))

    # -- per-scan processing ------------------------------------------------

    def process_scan(self, scan: LaserScan) -> OdometryOutput:
        if not math.isfinite(scan.timestamp):
            raise ValueError(f"scan timestamp must be finite ({scan.timestamp})")
        if self.last_timestamp is not None and scan.timestamp <= self.last_timestamp:
            raise ValueError(
                f"scan timestamps must be strictly increasing "
                f"({scan.timestamp} after {self.last_timestamp})")
        self.last_timestamp = scan.timestamp

        cfg = self.config
        points, _, beam_idx = scan.to_cartesian()
        detections = detect(scan, cfg.detector) if cfg.mode != "plain" else []
        regular, marker = split_points(points, beam_idx, detections)
        # The map keeps every point; matching may subsample the (dense,
        # redundant) regular returns to bound per-scan cost.
        reg_match = regular[::cfg.match_stride]

        centers = np.array([d.center for d in detections], dtype=float).reshape(-1, 2)

        if not self.local_map.keyframes:
            return self._bootstrap(scan.timestamp, centers, regular, marker)

        initial = self._predict()
        current_tracks: dict = {}

        if cfg.mode == "tracking":
            assignments, current_tracks = self._assign_tracks(centers, initial)

        result = self._match(reg_match, marker, current_tracks, initial)

        if cfg.mode == "tracking":
            centers_final = transform_points(result.pose, centers)
            self.tracker.update(centers_final, assignments)
            self._log_tracks(scan.timestamp)

        ok, _ = self._check(result)
        is_keyframe = False

        if not ok:
            is_keyframe = self._promote_cached_keyframe()
            if is_keyframe:
                result = self._match(reg_match, marker, current_tracks, initial)
                ok, _ = self._check(result)
            if not ok:
                cov = self._covariance(result, inflated=True)
                self.recent_poses.append(initial)
                return OdometryOutput(scan.timestamp, initial, is_keyframe, False, cov)

        self.recent_poses.append(result.pose)
        self.last_passing = _ProcessedScan(scan.timestamp, result.pose,
                                           regular, marker)
        return OdometryOutput(scan.timestamp, result.pose, is_keyframe, True,
                              self._covariance(result))

    def run(self, scans):
        """Process a scan stream; returns (outputs, keyframe log)."""
        outputs = [self.process_scan(scan) for scan in scans]
        return outputs, list(self.keyframe_log)

    # -- internals ----------------------------------------------------------

    def _bootstrap(self, timestamp, centers, regular, marker) -> OdometryOutput:
        pose = Pose2D()
        if self.tracker is not None:
            self.tracker.update(transform_points(pose, centers))
            self._log_tracks(timestamp)
        self.last_passing = _ProcessedScan(timestamp, pose, regular, marker)
        self._promote_cached_keyframe()
        self.recent_poses.append(pose)
        return OdometryOutput(timestamp, pose, True, True, np.eye(3) * 1e-6)

    def _assign_tracks(self, centers_sensor, pose):
        """Assign the scan's marker centers to tracks at a pose; returns the
        assignments and, for each assigned track, its id -> the center in the
        scan frame."""
        assignments = self.tracker.assign(transform_points(pose, centers_sensor))
        tracks = self.tracker.tracks
        current = {tracks[tj].track_id: centers_sensor[di] for di, tj in assignments}
        return assignments, current

    def _match(self, regular, marker, current_tracks, initial) -> MatchResult:
        cfg = self.config
        grids = self.local_map.grids
        if cfg.mode == "layer":
            return match_layered(grids, regular, marker, cfg.marker_weight,
                                 initial, cfg.match)
        if cfg.mode == "tracking":
            return match_tracked(grids, regular, current_tracks,
                                 self.local_map.reference_tracks,
                                 cfg.w_tracks, initial, cfg.match)
        return match(grids, regular, initial, cfg.match)

    def _check(self, result: MatchResult):
        crit = self.config.criteria
        reasons = []
        if not result.converged:
            reasons.append("diverged")
        n_assoc = result.associated_ratio * result.n_points
        if n_assoc <= 0:
            reasons.append("no-association")
        elif result.score / n_assoc < crit.min_score:
            reasons.append("score")
        if result.associated_ratio < crit.min_overlap:
            reasons.append("overlap")
        kf_pose = self.local_map.keyframes[-1].pose
        delta = relative(kf_pose, result.pose)
        if math.hypot(delta.x, delta.y) > crit.max_translation:
            reasons.append("translation")
        if abs(delta.theta) > crit.max_rotation:
            reasons.append("rotation")
        return (not reasons), reasons

    def _promote_cached_keyframe(self) -> bool:
        """Enter the last scan that passed the checks into the map, unless it
        is already the newest keyframe."""
        cached = self.last_passing
        keyframes = self.local_map.keyframes
        if keyframes and keyframes[-1].timestamp == cached.timestamp:
            return False  # already in the map; nothing new to add
        snapshot = self.tracker.all_tracks() if self.tracker is not None else {}
        self.local_map.add(cached.timestamp, cached.pose,
                           transform_points(cached.pose, cached.regular_sensor),
                           transform_points(cached.pose, cached.marker_sensor),
                           snapshot)
        self.keyframe_log.append((cached.timestamp, cached.pose))
        return True

    def _covariance(self, result: MatchResult, inflated: bool = False) -> np.ndarray:
        # (-H)^-1 where -H is positive definite; elsewhere, as when a match
        # associates nothing and H is zero, the identity claims no certainty.
        w, V = np.linalg.eigh(-result.hessian)
        cov = (V / w) @ V.T if w[0] > 0 else np.eye(3)
        if inflated:
            cov = cov * self.config.covariance_inflation
        return cov

    def _log_tracks(self, timestamp: float):
        for t in self.tracker.tracks:
            self.track_log.append((timestamp, t.track_id, float(t.position[0]),
                                   float(t.position[1]), t.observations, t.missed))


# -- trajectory file format --------------------------------------------------

def write_trajectory(path, outputs) -> None:
    """One line per scan: timestamp x y theta is_keyframe match_ok."""
    with open(path, "w") as f:
        for out in outputs:
            f.write(" ".join([repr(out.timestamp), repr(out.pose.x),
                              repr(out.pose.y), repr(out.pose.theta),
                              str(int(out.is_keyframe)), str(int(out.match_ok))]))
            f.write("\n")


def read_trajectory(path):
    """Read (timestamp, Pose2D) pairs; tolerates files without the flag
    columns (ground-truth files)."""
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 4:
                raise ValueError(f"{path}:{lineno}: expected at least 4 columns")
            t, x, y, th = (float(v) for v in parts[:4])
            rows.append((t, Pose2D(x, y, th)))
    return rows


def write_poses(path, timed_poses) -> None:
    """One line per (timestamp, Pose2D): timestamp x y theta."""
    with open(path, "w") as f:
        for t, pose in timed_poses:
            f.write(f"{t!r} {pose.x!r} {pose.y!r} {pose.theta!r}\n")


def write_ground_truth(path, poses, frequency: float) -> None:
    dt = 1.0 / frequency
    write_poses(path, ((k * dt, pose) for k, pose in enumerate(poses)))


def write_track_log(path, track_log) -> None:
    with open(path, "w") as f:
        for t, tid, x, y, obs, missed in track_log:
            f.write(f"{t!r} {tid} {x!r} {y!r} {obs} {missed}\n")
