"""Seed sweep: the max ATE of one odometry mode on the marked corridor, per
simulator seed.

    python3 studies/seed_sweep.py --mode layer --length 7 --seeds 0:41
    python3 studies/seed_sweep.py --mode tracking --length 14 --seeds 0:31
    python3 studies/seed_sweep.py --mode tracking --length 8 --turn --seeds 0:3

Each seed simulates the first --length metres of the `corridor_marked`
traverse with the r2000 sensor at 2 m/s (with --turn, the heading turns
steadily from 0 to pi over the stretch: (0, 1.5, 0) -> (8, 1.5, pi) at
--length 8), runs `Odometry` with match_stride 8
(as `refodom reproduce` does) and records the max absolute trajectory error
and the number of keyframes, which does not depend on the hardware. The last
line of standard output is one JSON object: the arguments, the max ATE and
keyframe count of every seed, the largest max ATE, and how many seeds stay
under the acceptance bound of 0.2 m. It imports refodom from `src/` of the
checkout it sits in, runs in one process, and writes no file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from refodom.evaluation import compute_ate  # noqa: E402
from refodom.geometry import Pose2D  # noqa: E402
from refodom.odometry import MODES, Odometry, OdometryConfig  # noqa: E402
from refodom.scan import get_sensor  # noqa: E402
from refodom.simulator import (SimConfig, builtin_trajectory, builtin_worlds,  # noqa: E402
                               simulate_trajectory)

WORLD = "corridor_marked"
SENSOR = "r2000"
SPEED = 2.0         # m/s
MATCH_STRIDE = 8
ATE_BOUND = 0.2     # m, the corridor bound of the acceptance study


def seed_range(text: str) -> range:
    lo, sep, hi = text.partition(":")
    try:
        return range(int(lo), int(hi)) if sep else range(int(lo), int(lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI or N, got {text!r}") from None


def run_seed(mode: str, length: float, seed: int, turn: bool) -> tuple[float, int]:
    """(max ATE in m, keyframe count) of one seed's run."""
    a, b = builtin_trajectory(WORLD)
    f = min(1.0, length / math.dist((a.x, a.y), (b.x, b.y)))
    theta = math.pi if turn else b.theta
    waypoints = [a, Pose2D(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y), theta)]
    cfg = SimConfig(spec=get_sensor(SENSOR), seed=seed)
    scans, poses = simulate_trajectory(builtin_worlds()[WORLD], waypoints, SPEED, cfg)
    outputs, keyframes = Odometry(OdometryConfig(mode=mode, match_stride=MATCH_STRIDE)).run(scans)
    dt = 1.0 / cfg.spec.frequency
    ate = compute_ate([(o.timestamp, o.pose) for o in outputs],
                      [(k * dt, p) for k, p in enumerate(poses)])
    return ate.max_error, len(keyframes)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--length", type=float, required=True,
                   help="metres of the 40 m traverse to run")
    p.add_argument("--seeds", type=seed_range, required=True,
                   help="simulator seeds, LO:HI (HI excluded) or one seed N")
    p.add_argument("--turn", action="store_true",
                   help="end the traverse at heading pi instead of 0")
    args = p.parse_args(argv)
    if not args.length > 0:
        p.error("--length must be positive")

    errors, keyframes = {}, {}
    for seed in args.seeds:
        errors[seed], keyframes[seed] = run_seed(args.mode, args.length, seed, args.turn)
        print(f"seed {seed}: max ATE {errors[seed]:.6f} m, {keyframes[seed]} keyframes",
              file=sys.stderr, flush=True)
    print(json.dumps({
        "world": WORLD, "sensor": SENSOR, "speed": SPEED, "match_stride": MATCH_STRIDE,
        "mode": args.mode, "length_m": args.length, "turn": args.turn,
        "max_ate_m": {str(s): e for s, e in errors.items()},
        "keyframes": {str(s): n for s, n in keyframes.items()},
        "worst_m": max(errors.values(), default=None),
        "seeds_under_bound": sum(e < ATE_BOUND for e in errors.values()),
        "seeds": len(errors), "bound_m": ATE_BOUND,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
