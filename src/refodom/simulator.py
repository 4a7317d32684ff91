"""Deterministic 2D lidar simulator over line-segment worlds with reflective
wall markers.

Per beam the nearest ray/segment intersection gives the range (plus seeded
Gaussian noise); intensity is reflectivity * per-sensor scale * cos(incidence)
/ (1 + 0.05 r^2). Beams whose divergence cone (one angular resolution) only
grazes a marker edge get an intensity between the wall and marker levels,
which makes a marker appear two points wider than its angular extent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .geometry import Pose2D, wrap_angle
from .ndt import check_integers, check_reals
from .scan import LaserScan, LidarSpec

# Fraction of the wall->marker intensity step given to a grazing beam. Kept
# above 0.5 so the biggest intensity jump is always at the wall/graze border
# and the graze beams count as marker points (the "+2" effect).
GRAZE_BLEND = 0.75


@dataclass(frozen=True)
class Segment:
    p1: tuple
    p2: tuple
    reflectivity: float = 1.0


@dataclass(frozen=True)
class Marker:
    segment: int        # index of the host segment
    offset: float       # m along the segment from p1 to the marker center
    width: float = 0.05
    reflectivity: float = 30.0


@dataclass(frozen=True)
class World:
    name: str
    segments: tuple
    markers: tuple = ()

    def __post_init__(self):
        for k, seg in enumerate(self.segments):
            if not (len(seg.p1) == len(seg.p2) == 2 and 0 < math.dist(seg.p1, seg.p2) < math.inf):
                raise ValueError(f"segment {k} needs two distinct, finite points (x, y)")
            check_reals(seg, "reflectivity", allow_zero=True)
        for k, m in enumerate(self.markers):
            try:
                check_reals(m, "width", "reflectivity")
                if not 0 <= m.segment < len(self.segments):
                    raise ValueError(f"names segment {m.segment}, but the world "
                                     f"has {len(self.segments)} segments")
                seg = self.segments[m.segment]
                if not m.width / 2 <= m.offset <= math.dist(seg.p1, seg.p2) - m.width / 2:
                    raise ValueError(f"offset {m.offset} exceeds its host segment")
                if m.reflectivity <= seg.reflectivity:
                    raise ValueError("reflectivity must exceed its wall's")
            except ValueError as exc:
                raise ValueError(f"marker {k}: {exc}") from None

    def marker_endpoints(self, marker: Marker):
        seg = self.segments[marker.segment]
        a = np.asarray(seg.p1, dtype=float)
        b = np.asarray(seg.p2, dtype=float)
        e = (b - a) / np.linalg.norm(b - a)
        return (a + e * (marker.offset - marker.width / 2),
                a + e * (marker.offset + marker.width / 2))


@dataclass(frozen=True)
class SimConfig:
    spec: LidarSpec
    range_noise_sigma: float = 0.005
    seed: int = 0

    def __post_init__(self):
        check_reals(self, "range_noise_sigma", allow_zero=True)
        check_integers(self, 0, "seed")


# Per-sensor intensity scales chosen so markers clear each sensor's i_min out
# to 6 m / 60 deg incidence while plain walls stay below it.
_BASE_SCALE_DEFAULTS = {"lms151": 500.0, "r2000": 250.0, "os32c": 4000.0}


def simulate_scan(world: World, sensor_pose: Pose2D, cfg: SimConfig,
                  rng: np.random.Generator | None = None,
                  timestamp: float = 0.0) -> LaserScan:
    """Cast one full scan from the given pose. With rng=None a fresh seeded
    generator is used, so standalone calls are deterministic."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    spec = cfg.spec
    n = spec.beam_count
    start_angle = -spec.fov / 2.0
    bearings_world = sensor_pose.theta + start_angle + np.arange(n) * spec.angular_resolution
    origin = np.array([sensor_pose.x, sensor_pose.y])
    dirs = np.column_stack((np.cos(bearings_world), np.sin(bearings_world)))

    ranges = np.full(n, np.nan)
    intensities = np.zeros(n)
    if not world.segments:
        return LaserScan(timestamp, start_angle, ranges, intensities, spec)

    A = np.array([s.p1 for s in world.segments], dtype=float)       # (M,2)
    B = np.array([s.p2 for s in world.segments], dtype=float)
    E = B - A
    refl = np.array([s.reflectivity for s in world.segments])
    seg_len = np.linalg.norm(E, axis=1)
    n_hat = np.column_stack((-E[:, 1], E[:, 0])) / seg_len[:, None]

    AO = A - origin                                                 # (M,2)
    denom = dirs[:, 0:1] * E[None, :, 1] - dirs[:, 1:2] * E[None, :, 0]  # (N,M)
    cross_ao_e = AO[None, :, 0] * E[None, :, 1] - AO[None, :, 1] * E[None, :, 0]
    cross_ao_d = AO[None, :, 0] * dirs[:, 1:2] - AO[None, :, 1] * dirs[:, 0:1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = cross_ao_e / denom
        s_par = cross_ao_d / denom
    valid = (np.abs(denom) > 1e-12) & (t > 1e-9) & (s_par >= 0.0) & (s_par <= 1.0)
    t = np.where(valid, t, np.inf)
    hit_seg = np.argmin(t, axis=1)
    beam_ix = np.arange(n)
    t_hit = t[beam_ix, hit_seg]
    hit_mask = np.isfinite(t_hit) & (t_hit <= spec.max_usable_range)

    t_hit = np.where(hit_mask, t_hit, 1.0)  # placeholder range for missed beams
    s_hit = s_par[beam_ix, hit_seg] * seg_len[hit_seg]   # arclength along segment
    cos_inc = np.abs(np.einsum("ij,ij->i", dirs, n_hat[hit_seg]))
    wall_refl = refl[hit_seg]

    # Marker membership and grazing per beam (divergence: one angular resolution).
    beam_refl = wall_refl.copy()
    graze_marker_refl = np.zeros(n)
    grazing = np.zeros(n, dtype=bool)
    for m in world.markers:
        on_host = hit_mask & (hit_seg == m.segment)
        lo, hi = m.offset - m.width / 2, m.offset + m.width / 2
        inside = on_host & (s_hit >= lo) & (s_hit <= hi)
        beam_refl = np.where(inside, np.maximum(beam_refl, m.reflectivity), beam_refl)
        e1, e2 = world.marker_endpoints(m)
        psi1 = math.atan2(e1[1] - origin[1], e1[0] - origin[0])
        psi2 = math.atan2(e2[1] - origin[1], e2[0] - origin[0])
        d1 = np.abs((bearings_world - psi1 + math.pi) % (2 * math.pi) - math.pi)
        d2 = np.abs((bearings_world - psi2 + math.pi) % (2 * math.pi) - math.pi)
        graze = on_host & ~inside & (np.minimum(d1, d2) <= spec.angular_resolution)
        grazing |= graze
        graze_marker_refl = np.where(graze, np.maximum(graze_marker_refl, m.reflectivity),
                                     graze_marker_refl)

    base = _BASE_SCALE_DEFAULTS.get(spec.name, 500.0)
    falloff = 1.0 + 0.05 * t_hit ** 2
    i_wall = wall_refl * base * cos_inc / falloff
    i_surf = beam_refl * base * cos_inc / falloff
    i_graze_full = graze_marker_refl * base * cos_inc / falloff
    intensity = np.where(grazing, i_wall + GRAZE_BLEND * (i_graze_full - i_wall), i_surf)

    noise = rng.normal(0.0, cfg.range_noise_sigma, n) if cfg.range_noise_sigma > 0 else 0.0
    ranges = np.where(hit_mask, np.maximum(t_hit + noise, 1e-6), np.nan)
    intensities = np.where(hit_mask, np.maximum(intensity, 0.0), 0.0)

    return LaserScan(timestamp, start_angle, ranges, intensities, spec)


def interpolate_waypoints(waypoints, speed: float, frequency: float):
    """Poses sampled along the waypoint polyline at the sensor tick rate.

    A zero-length path yields a one-second stationary sequence.
    """
    check_reals(SimpleNamespace(speed=speed), "speed")
    wps = list(waypoints)
    if len(wps) < 2:
        raise ValueError("need at least 2 waypoints")
    seg_lens = [math.dist((a.x, a.y), (b.x, b.y)) for a, b in zip(wps, wps[1:])]
    total = sum(seg_lens)
    dt = 1.0 / frequency
    if total <= 0:
        steps = int(round(frequency))
        return [wps[0]] * (steps + 1)
    n_ticks = int(math.floor(total / speed * frequency)) + 1
    poses = []
    cum = np.concatenate(([0.0], np.cumsum(seg_lens)))
    for k in range(n_ticks):
        s = min(speed * k * dt, total)
        i = int(np.searchsorted(cum, s, side="right") - 1)
        i = min(i, len(seg_lens) - 1)
        if seg_lens[i] > 0:
            f = (s - cum[i]) / seg_lens[i]
        else:
            f = 0.0
        a, b = wps[i], wps[i + 1]
        dtheta = wrap_angle(b.theta - a.theta)
        poses.append(Pose2D(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y),
                            a.theta + f * dtheta))
    return poses


def simulate_trajectory(world: World, waypoints, speed: float, cfg: SimConfig):
    """Simulate a traverse: returns (scans, ground_truth_poses), one pair per
    sensor tick, deterministic under a fixed seed."""
    poses = interpolate_waypoints(waypoints, speed, cfg.spec.frequency)
    rng = np.random.default_rng(cfg.seed)
    dt = 1.0 / cfg.spec.frequency
    scans = [simulate_scan(world, pose, cfg, rng=rng, timestamp=k * dt)
             for k, pose in enumerate(poses)]
    return scans, poses


def _post_segments(cx, cy, radius=0.03, reflectivity=40.0, sides=8):
    segs = []
    for k in range(sides):
        a0 = 2 * math.pi * k / sides
        a1 = 2 * math.pi * (k + 1) / sides
        segs.append(Segment((cx + radius * math.cos(a0), cy + radius * math.sin(a0)),
                            (cx + radius * math.cos(a1), cy + radius * math.sin(a1)),
                            reflectivity))
    return segs


# Walls extend well past the 40 m traverse so that no wall end falls inside
# any sensor's usable range anywhere along it: the corridor looks endless.
_CORRIDOR_X0, _CORRIDOR_X1 = -35.0, 75.0


def _corridor_walls(x0=_CORRIDOR_X0, x1=_CORRIDOR_X1, width=3.0):
    # Open-ended: no end caps, so geometry alone cannot fix the along-axis
    # translation anywhere in the traverse.
    return [Segment((x0, 0.0), (x1, 0.0)), Segment((x0, width), (x1, width))]


def _corridor_markers(x0=_CORRIDOR_X0, width=3.0, spacing=5.0, count=9):
    # Markers every `spacing` meters from x=0, alternating walls.
    markers = []
    for k in range(count):
        x = k * spacing
        seg = 0 if k % 2 == 0 else 1
        markers.append(Marker(segment=seg, offset=x - x0, width=0.05,
                              reflectivity=30.0))
    return markers


def _room_segments():
    # 24 x 10 room with alcoves cut into both long walls: feature-rich.
    segs = []

    def wall_with_notches(y, notches, direction):
        # direction +1: notch opens upward (bottom wall), -1: downward.
        xs = 0.0
        pts = []
        for nx, nw, nd in notches:
            pts.append(((xs, y), (nx, y)))
            pts.append(((nx, y), (nx, y + direction * nd)))
            pts.append(((nx, y + direction * nd), (nx + nw, y + direction * nd)))
            pts.append(((nx + nw, y + direction * nd), (nx + nw, y)))
            xs = nx + nw
        pts.append(((xs, y), (24.0, y)))
        return [Segment(a, b) for a, b in pts]

    segs += wall_with_notches(0.0, [(4.0, 1.0, 0.6), (12.0, 1.0, 0.6), (19.0, 1.0, 0.6)], +1)
    segs += wall_with_notches(10.0, [(8.0, 1.2, -0.6), (16.0, 1.2, -0.6)], -1)
    segs.append(Segment((0.0, 0.0), (0.0, 10.0)))
    segs.append(Segment((24.0, 0.0), (24.0, 10.0)))
    return segs


def builtin_worlds() -> dict[str, World]:
    corridor_walls = _corridor_walls()
    distractor_segments = list(corridor_walls)
    for cx, cy in [(3.0, 0.8), (8.0, 2.2), (14.0, 0.7), (22.0, 2.3),
                   (28.0, 0.8), (34.0, 2.2)]:
        distractor_segments += _post_segments(cx, cy)
    distractor_markers = [Marker(segment=0, offset=x - _CORRIDOR_X0) for x in
                          (0.0, 10.0, 20.0, 30.0, 40.0)]
    return {
        "corridor": World("corridor", tuple(corridor_walls)),
        "corridor_marked": World("corridor_marked", tuple(corridor_walls),
                                 tuple(_corridor_markers())),
        "room": World("room", tuple(_room_segments())),
        "distractor_hall": World("distractor_hall", tuple(distractor_segments),
                                 tuple(distractor_markers)),
    }


def builtin_trajectory(world_name: str):
    """Default traverse waypoints for each built-in world."""
    trajectories = {
        "corridor": [Pose2D(0.0, 1.5, 0.0), Pose2D(40.0, 1.5, 0.0)],
        "corridor_marked": [Pose2D(0.0, 1.5, 0.0), Pose2D(40.0, 1.5, 0.0)],
        "room": [Pose2D(2.0, 5.0, 0.0), Pose2D(22.0, 5.0, 0.0)],
        "distractor_hall": [Pose2D(0.0, 1.5, 0.0), Pose2D(40.0, 1.5, 0.0)],
    }
    try:
        return trajectories[world_name]
    except KeyError:
        raise KeyError(f"no built-in trajectory for world {world_name!r}") from None


def world_to_json(world: World) -> str:
    return json.dumps({
        "name": world.name,
        "segments": [{"p1": list(s.p1), "p2": list(s.p2),
                      "reflectivity": s.reflectivity} for s in world.segments],
        "markers": [{"segment": m.segment, "offset": m.offset, "width": m.width,
                     "reflectivity": m.reflectivity} for m in world.markers],
    }, indent=2)


def world_from_json(text: str) -> World:
    rec = json.loads(text)
    try:
        segments = tuple(Segment(tuple(s["p1"]), tuple(s["p2"]),
                                 s.get("reflectivity", 1.0)) for s in rec["segments"])
        markers = tuple(Marker(m["segment"], m["offset"], m.get("width", 0.05),
                               m.get("reflectivity", 30.0)) for m in rec.get("markers", []))
        return World(rec.get("name", "unnamed"), segments, markers)
    except KeyError as exc:
        raise ValueError(f"world JSON lacks the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed world JSON: {exc}") from None


def load_world(name_or_path: str) -> World:
    worlds = builtin_worlds()
    if name_or_path in worlds:
        return worlds[name_or_path]
    with open(name_or_path) as f:
        text = f.read()
    try:
        return world_from_json(text)
    except ValueError as exc:   # JSON syntax errors included
        raise ValueError(f"{name_or_path}: {exc}") from None
