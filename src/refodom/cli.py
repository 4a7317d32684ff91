"""Command-line interface.

Subcommands cover the whole pipeline: simulate scan data, run the marker
detector, run odometry in any mode, evaluate trajectories and detectors, and
a `reproduce` meta-command chaining everything over the built-in worlds.
Every data-producing command writes a manifest next to its outputs; rerunning
from the same manifest parameters is byte-identical.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .detector import DetectorParams, detect, detection_to_line
from .evaluation import (DEFAULT_FAIL_THRESHOLD, compute_ate, labels_from_world,
                         pr_sweep, threshold_detector)
from .geometry import Pose2D
from .ndt import check_integers, check_reals
from .odometry import (MODES, Odometry, OdometryConfig, read_trajectory,
                       write_ground_truth, write_poses, write_track_log,
                       write_trajectory)
from .scan import get_sensor, read_scan_log, write_scan_log
from .simulator import (SimConfig, builtin_trajectory, builtin_worlds,
                        load_world, simulate_trajectory, world_to_json)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad argument as a UsageError, so
    that main prints it as one line and exits 2."""

    def error(self, message):
        raise UsageError(message)


def _rule(parse, check, *args, **kwargs):
    """An argparse type: the text parsed, then held to a config field rule,
    as check(obj, *args, name, **kwargs) holds obj's field name."""
    def convert(text, name="value"):
        try:
            field = argparse.Namespace(**{name: parse(text)})
            check(field, *args, name, **kwargs)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return getattr(field, name)
    return convert


_positive = _rule(float, check_reals)
_non_negative = _rule(float, check_reals, allow_zero=True)
_seed = _rule(int, check_integers, 0)
_at_least_one = _rule(int, check_integers, 1)


def _sweep(text: str):
    """--sweep LO:HI:N: N thresholds from LO to HI."""
    try:
        lo, hi, n = text.split(":")
    except ValueError:
        raise argparse.ArgumentTypeError("expects LO:HI:N") from None
    return np.linspace(_non_negative(lo, "LO"), _non_negative(hi, "HI"), _at_least_one(n, "N"))


def _sensor(name: str):
    try:
        return get_sensor(name)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _write_manifest(out_dir: Path, command: str, params: dict) -> None:
    manifest = {"tool": "refodom", "version": __version__, "command": command, "params": params}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_waypoints(path: str):
    waypoints = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            values = [float(v) for v in parts[:3]]
        except ValueError:
            values = []
        if len(values) < 3 or not all(map(math.isfinite, values)):
            raise UsageError(f"{path}:{lineno}: waypoint needs finite 'x y theta'")
        waypoints.append(Pose2D(*values))
    return waypoints


def _resolve_world(name: str):
    """A built-in world, or else a world file; a name that is neither is a
    usage error."""
    try:
        return load_world(name)
    except FileNotFoundError:
        raise UsageError(
            f"unknown world {name!r}; built-ins: {', '.join(sorted(builtin_worlds()))}") from None


def _builtin_waypoints(world_name: str):
    try:
        return builtin_trajectory(world_name)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


def cmd_simulate(args) -> int:
    world = _resolve_world(args.world)
    waypoints = (_read_waypoints(args.trajectory) if args.trajectory
                 else _builtin_waypoints(world.name))
    cfg = SimConfig(spec=args.sensor, seed=args.seed, range_noise_sigma=args.noise)
    scans, poses = simulate_trajectory(world, waypoints, args.speed, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_scan_log(out / "scans.jsonl", scans)
    write_ground_truth(out / "ground_truth.txt", poses, args.sensor.frequency)
    (out / "world.json").write_text(world_to_json(world) + "\n")
    _write_manifest(out, "simulate", {
        "world": args.world, "sensor": args.sensor.name, "seed": args.seed,
        "speed": args.speed, "noise": args.noise,
        "trajectory": args.trajectory or "builtin",
    })
    print(f"wrote {len(scans)} scans to {out / 'scans.jsonl'}")
    return 0


def cmd_detect(args) -> int:
    scans = read_scan_log(args.scans)
    params = DetectorParams()
    lines = []
    for scan in scans:
        for det in detect(scan, params):
            lines.append(detection_to_line(scan.timestamp, det))
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_config(args) -> OdometryConfig:
    if args.config:
        rec = json.loads(Path(args.config).read_text())
        if not isinstance(rec, dict):
            raise ValueError(f"{args.config}: a config must be a JSON object")
        if rec.setdefault("mode", args.mode) != args.mode:
            raise ValueError(f"{args.config}: the config's mode {rec['mode']!r} "
                             f"differs from --mode {args.mode!r}")
        try:
            return OdometryConfig.from_dict(rec)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    return OdometryConfig(mode=args.mode)


def cmd_odometry(args) -> int:
    config = _load_config(args)
    scans = read_scan_log(args.scans)
    odo = Odometry(config)
    outputs, keyframes = odo.run(scans)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory(out / "trajectory.txt", outputs)
    write_poses(out / "keyframes.txt", keyframes)
    if config.mode == "tracking":
        write_track_log(out / "tracks.txt", odo.track_log)
    _write_manifest(out, "odometry", {
        "scans": str(args.scans), "mode": args.mode,
        "config": asdict(config),
    })
    print(f"wrote {len(outputs)} poses to {out / 'trajectory.txt'} "
          f"({len(keyframes)} keyframes)")
    return 0


def cmd_evaluate(args) -> int:
    estimate = read_trajectory(args.estimate)
    reference = read_trajectory(args.reference)
    report = compute_ate(estimate, reference, fail_threshold=args.threshold)
    print(report.summary())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report.summary() + "\n")
        with open(out / "errors.txt", "w") as f:
            for k, e in enumerate(report.per_pose_errors):
                f.write(f"{k} {float(e)!r}\n")
    return 0


def cmd_pr(args) -> int:
    world = _resolve_world(args.world)
    scans = read_scan_log(args.scans)
    labels = labels_from_world(world)
    reference = read_trajectory(args.poses)
    if len(reference) != len(scans):
        raise ValueError(f"scan/pose count mismatch: {len(scans)} vs {len(reference)}")
    records = [(scan, pose) for scan, (_, pose) in zip(scans, reference)]
    records = records[::args.subsample]

    if args.detector == "proposed":
        params = DetectorParams()
        detector_fn = lambda scan, thr: detect(scan, params, i_min=thr)  # noqa: E731
    else:
        detector_fn = threshold_detector

    lines = ["threshold precision recall tp fp fn"]
    for p in pr_sweep(records, labels, detector_fn, args.sweep):
        lines.append(f"{float(p.threshold)!r} {float(p.precision)!r} "
                     f"{float(p.recall)!r} {p.tp} {p.fp} {p.fn}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_reproduce(args) -> int:
    """Simulate each built-in world, run all three odometry modes, evaluate,
    and print a success matrix."""
    worlds = args.worlds.split(",")
    traverses = [(_resolve_world(name), _builtin_waypoints(name)) for name in worlds]
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    matrix = {}

    for world_name, (world, waypoints) in zip(worlds, traverses):
        if args.length is not None:
            # shorten the traverse for quick runs
            a, b = waypoints[0], waypoints[-1]
            total = math.dist((a.x, a.y), (b.x, b.y))
            f = min(1.0, args.length / total) if total > 0 else 1.0
            waypoints = [a, Pose2D(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y), b.theta)]
        cfg = SimConfig(spec=args.sensor, seed=args.seed)
        scans, poses = simulate_trajectory(world, waypoints, args.speed, cfg)
        wdir = out_root / world_name
        wdir.mkdir(parents=True, exist_ok=True)
        write_scan_log(wdir / "scans.jsonl", scans)
        write_ground_truth(wdir / "ground_truth.txt", poses, args.sensor.frequency)
        reference = read_trajectory(wdir / "ground_truth.txt")

        for mode in MODES:
            odo = Odometry(OdometryConfig(mode=mode, match_stride=args.stride))
            outputs, _ = odo.run(scans)
            mdir = wdir / mode
            mdir.mkdir(parents=True, exist_ok=True)
            write_trajectory(mdir / "trajectory.txt", outputs)
            estimate = read_trajectory(mdir / "trajectory.txt")
            report = compute_ate(estimate, reference)
            matrix[(world_name, mode)] = report
            (mdir / "report.txt").write_text(report.summary() + "\n")

    _write_manifest(out_root, "reproduce", {
        "sensor": args.sensor.name, "seed": args.seed, "speed": args.speed,
        "stride": args.stride, "worlds": worlds, "length": args.length,
    })
    width = max(len(w) for w in worlds)
    print(" ".join([f"{'world':<{width}}"] + [f"{m:>10}" for m in MODES]))
    for world_name in worlds:
        cells = [f"{'ok' if matrix[world_name, mode].success else 'FAILED':>10}" for mode in MODES]
        print(" ".join([f"{world_name:<{width}}"] + cells))
    for (world_name, mode), r in matrix.items():
        print(f"  {world_name}/{mode}: {r.summary()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="refodom",
                     description=__doc__.splitlines()[0] if __doc__ else None)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a scan log from a world")
    p.add_argument("--world", required=True)
    p.add_argument("--trajectory", help="waypoint file 'x y theta' per line")
    p.add_argument("--sensor", type=_sensor, default="lms151")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--speed", type=_positive, default=2.0)
    p.add_argument("--noise", type=_non_negative, default=0.005)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="run the marker detector over a scan log")
    p.add_argument("--scans", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("odometry", help="run lidar odometry over a scan log")
    p.add_argument("--scans", required=True)
    p.add_argument("--mode", choices=MODES, default="plain")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_odometry)

    p = sub.add_parser("evaluate", help="ATE between two trajectory files")
    p.add_argument("--estimate", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--threshold", type=_positive, default=DEFAULT_FAIL_THRESHOLD)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pr", help="precision-recall sweep for a detector")
    p.add_argument("--scans", required=True)
    p.add_argument("--world", required=True)
    p.add_argument("--poses", required=True, help="ground-truth trajectory file")
    p.add_argument("--detector", choices=["proposed", "threshold"], default="proposed")
    p.add_argument("--sweep", type=_sweep, default="500:10000:20", help="LO:HI:N")
    p.add_argument("--subsample", type=_at_least_one, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pr)

    p = sub.add_parser("reproduce",
                       help="simulate + all odometry modes + evaluation matrix")
    p.add_argument("--sensor", type=_sensor, default="r2000",
                   help="dense 360-degree coverage keeps markers continuously visible")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--speed", type=_positive, default=2.0)
    p.add_argument("--stride", type=_at_least_one, default=8,
                   help="match-time subsampling of regular scan points")
    p.add_argument("--length", type=_positive, help="shorten traverses to this length (m)")
    p.add_argument("--worlds", default="corridor,corridor_marked,room",
                   help="comma-separated subset of built-in worlds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
