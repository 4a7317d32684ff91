"""Planar rigid transforms (SE(2)) and point transformation helpers.

All angles are radians, normalized to (-pi, pi] by Pose2D. Poses are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    r = math.remainder(theta, TAU)
    if r <= -math.pi:
        r += TAU
    return r


@dataclass(frozen=True)
class Pose2D:
    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        # plain floats so repr-based text formats stay clean of numpy scalars
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def rotation_matrix(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]])


IDENTITY = Pose2D()


def compose(a: Pose2D, b: Pose2D) -> Pose2D:
    """Return a (+) b: apply b in the frame of a."""
    ca, sa = math.cos(a.theta), math.sin(a.theta)
    return Pose2D(
        a.x + ca * b.x - sa * b.y,
        a.y + sa * b.x + ca * b.y,
        a.theta + b.theta,
    )


def inverse(p: Pose2D) -> Pose2D:
    c, s = math.cos(p.theta), math.sin(p.theta)
    return Pose2D(-(c * p.x + s * p.y), -(-s * p.x + c * p.y), -p.theta)


def relative(a: Pose2D, b: Pose2D) -> Pose2D:
    """Pose of b expressed in the frame of a, i.e. inverse(a) (+) b."""
    return compose(inverse(a), b)


def transform_points(pose: Pose2D, points: np.ndarray) -> np.ndarray:
    """Apply a rigid transform to an (N, 2) array of points."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, 2)
    return pts @ pose.rotation_matrix().T + pose.translation

