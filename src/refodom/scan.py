"""Laser scan model: sensor specifications, polar scans, Cartesian conversion
and the line-oriented scan log format.

Invalid beams are carried as NaN ranges so beam indices stay aligned with the
raw scan (the marker detector walks beam neighborhoods by index).
`LaserScan.points()` gives every beam's sensor-frame point (NaN if invalid),
from beam directions computed once per beam layout. The scan log writes an
invalid value as JSON null, which LaserScan's float conversion reads back as
NaN.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .ndt import check_integers, check_reals


@dataclass(frozen=True)
class LidarSpec:
    """Static sensor parameters plus the per-sensor detector operating point.

    i_min is the marker intensity threshold, p_d the tolerated deviation of
    the measured marker point count from the predicted one.
    """

    name: str
    frequency: float            # Hz
    fov: float                  # radians
    angular_resolution: float   # radians
    i_min: float                # sensor intensity units
    p_d: int                    # points
    max_usable_range: float     # meters

    def __post_init__(self):
        check_reals(self, "frequency", "angular_resolution", "i_min", "max_usable_range")
        if not (0 < self.fov <= 2 * math.pi + 1e-12):
            raise ValueError("fov must be in (0, 2*pi]")
        check_integers(self, 0, "p_d")

    @property
    def beam_count(self) -> int:
        return int(round(self.fov / self.angular_resolution)) + 1


SENSOR_PRESETS = {
    "lms151": LidarSpec("lms151", 50.0, math.radians(270.0), math.radians(0.5),
                        1000.0, 1, 18.0),
    "r2000": LidarSpec("r2000", 50.0, math.radians(360.0), math.radians(0.1),
                       500.0, 2, 30.0),
    "os32c": LidarSpec("os32c", 13.0, math.radians(270.0), math.radians(0.4),
                       8000.0, 1, 12.0),
}


def get_sensor(name: str) -> LidarSpec:
    try:
        return SENSOR_PRESETS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown sensor preset {name!r}; available: {', '.join(sorted(SENSOR_PRESETS))}"
        ) from None


@functools.lru_cache(maxsize=16)
def _beam_directions(start_angle: float, resolution: float, n: int) -> np.ndarray:
    """Read-only (n, 2) unit vectors (cos, sin) of the n beam bearings."""
    b = start_angle + np.arange(n) * resolution
    dirs = np.column_stack((np.cos(b), np.sin(b)))
    dirs.flags.writeable = False
    return dirs


class LaserScan:
    """A single polar scan: per-beam range and intensity.

    Beam i has bearing start_angle + i * angular_resolution in the sensor
    frame. Invalid beams have range NaN (intensity 0 by convention).
    """

    __slots__ = ("timestamp", "start_angle", "ranges", "intensities", "spec")

    def __init__(self, timestamp, start_angle, ranges, intensities, spec: LidarSpec):
        ranges = np.asarray(ranges, dtype=float)
        intensities = np.asarray(intensities, dtype=float)
        if ranges.shape != intensities.shape or ranges.ndim != 1:
            raise ValueError("ranges and intensities must be 1-D arrays of equal length")
        if np.any(np.isinf(ranges)):
            raise ValueError("ranges must be finite or NaN")
        if np.any(ranges[np.isfinite(ranges)] < 0):
            raise ValueError("ranges must be non-negative or NaN")
        ranges.flags.writeable = False
        intensities.flags.writeable = False
        self.timestamp = float(timestamp)
        self.start_angle = float(start_angle)
        self.ranges = ranges
        self.intensities = intensities
        self.spec = spec

    def __len__(self):
        return len(self.ranges)

    def points(self) -> np.ndarray:
        """Sensor-frame point of every beam, (len, 2); NaN for invalid beams."""
        return self.ranges[:, None] * _beam_directions(
            self.start_angle, self.spec.angular_resolution, len(self.ranges))

    def to_cartesian(self):
        """Return (points (N,2), intensities (N,), beam_indices (N,)) for all
        finite-range beams, in beam-index order."""
        idx = np.flatnonzero(np.isfinite(self.ranges))
        return self.points().take(idx, axis=0), self.intensities[idx], idx


def _nan_to_null(values: np.ndarray) -> list:
    return [v if math.isfinite(v) else None for v in values.tolist()]


def scan_to_json(scan: LaserScan) -> str:
    sensor = scan.spec.name if scan.spec.name in SENSOR_PRESETS else asdict(scan.spec)
    rec = {
        "t": scan.timestamp,
        "start_angle": scan.start_angle,
        "ranges": _nan_to_null(scan.ranges),
        "intensities": _nan_to_null(scan.intensities),
        "sensor": sensor,
    }
    return json.dumps(rec)


def scan_from_json(line: str) -> LaserScan:
    rec = json.loads(line)
    sensor = rec["sensor"]
    spec = get_sensor(sensor) if isinstance(sensor, str) else LidarSpec(**sensor)
    return LaserScan(rec["t"], rec["start_angle"], rec["ranges"], rec["intensities"], spec)


def write_scan_log(path, scans) -> None:
    with open(path, "w") as f:
        for scan in scans:
            f.write(scan_to_json(scan))
            f.write("\n")


def read_scan_log(path):
    scans = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                scans.append(scan_from_json(line))
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed scan record: {exc}") from exc
    return scans
