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
from .odometry import (MODES, Odometry, OdometryConfig, read_trajectory,
                       write_ground_truth, write_poses, write_track_log,
                       write_trajectory)
from .scan import get_sensor, read_scan_log, write_scan_log
from .simulator import (SimConfig, builtin_trajectory, builtin_worlds,
                        load_world, simulate_trajectory, world_to_json)


class UsageError(Exception):
    pass


def _write_manifest(out_dir: Path, command: str, params: dict) -> None:
    manifest = {
        "tool": "refodom",
        "version": __version__,
        "command": command,
        "params": params,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_waypoints(path: str):
    waypoints = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 3:
            raise UsageError(f"{path}:{lineno}: waypoint needs 'x y theta'")
        waypoints.append(Pose2D(*(float(v) for v in parts[:3])))
    return waypoints


def _resolve_sensor(name: str):
    try:
        return get_sensor(name)
    except KeyError as exc:
        raise UsageError(str(exc)) from None


def _check_positive(args, *names) -> None:
    """UsageError unless each named option is unset or positive and finite."""
    for name in names:
        value = getattr(args, name)
        if value is not None and not (0 < value < math.inf):
            raise UsageError(f"--{name} must be positive and finite")


def cmd_simulate(args) -> int:
    _check_positive(args, "speed")
    if not (0 <= args.noise < math.inf):
        raise UsageError("--noise must be finite and >= 0")
    sensor = _resolve_sensor(args.sensor)
    try:
        world = load_world(args.world)
    except FileNotFoundError:
        raise UsageError(
            f"unknown world {args.world!r}; built-ins: {', '.join(sorted(builtin_worlds()))}")
    if args.trajectory:
        waypoints = _read_waypoints(args.trajectory)
    else:
        try:
            waypoints = builtin_trajectory(world.name)
        except KeyError as exc:
            raise UsageError(str(exc))

    cfg = SimConfig(spec=sensor, seed=args.seed, range_noise_sigma=args.noise)
    scans, poses = simulate_trajectory(world, waypoints, args.speed, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_scan_log(out / "scans.jsonl", scans)
    write_ground_truth(out / "ground_truth.txt", poses, sensor.frequency)
    (out / "world.json").write_text(world_to_json(world) + "\n")
    _write_manifest(out, "simulate", {
        "world": args.world, "sensor": sensor.name, "seed": args.seed,
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
        rec["mode"] = args.mode
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
    try:
        report = compute_ate(estimate, reference, fail_threshold=args.threshold)
    except ValueError as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return 1
    print(report.summary())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report.summary() + "\n")
        with open(out / "errors.txt", "w") as f:
            for k, e in enumerate(report.per_pose_errors):
                f.write(f"{k} {float(e)!r}\n")
    return 0


def _parse_sweep(text: str):
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise UsageError("--sweep expects LO:HI:N")
    if n < 1 or hi <= lo:
        raise UsageError("--sweep expects LO < HI and N >= 1")
    return np.linspace(lo, hi, n)


def cmd_pr(args) -> int:
    if args.subsample < 1:
        raise UsageError("--subsample must be >= 1")
    thresholds = _parse_sweep(args.sweep)
    scans = read_scan_log(args.scans)
    try:
        world = load_world(args.world)
    except FileNotFoundError:
        raise UsageError(f"unknown world {args.world!r}")
    labels = labels_from_world(world)
    reference = read_trajectory(args.poses)
    if len(reference) != len(scans):
        print(f"scan/pose count mismatch: {len(scans)} vs {len(reference)}",
              file=sys.stderr)
        return 1
    records = [(scan, pose) for scan, (_, pose) in zip(scans, reference)]
    records = records[::args.subsample]

    if args.detector == "proposed":
        params = DetectorParams()
        detector_fn = lambda scan, thr: detect(scan, params, i_min=thr)  # noqa: E731
    else:
        detector_fn = threshold_detector

    lines = ["threshold precision recall tp fp fn"]
    for p in pr_sweep(records, labels, detector_fn, thresholds):
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
    _check_positive(args, "speed", "length")
    sensor = _resolve_sensor(args.sensor)
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    worlds = args.worlds.split(",") if args.worlds else \
        ["corridor", "corridor_marked", "room"]
    matrix = {}

    for world_name in worlds:
        world = load_world(world_name)
        waypoints = builtin_trajectory(world_name)
        if args.length is not None:
            # shorten the traverse for quick runs
            a, b = waypoints[0], waypoints[-1]
            total = math.dist((a.x, a.y), (b.x, b.y))
            f = min(1.0, args.length / total) if total > 0 else 1.0
            waypoints = [a, Pose2D(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y), b.theta)]
        cfg = SimConfig(spec=sensor, seed=args.seed)
        scans, poses = simulate_trajectory(world, waypoints, args.speed, cfg)
        wdir = out_root / world_name
        wdir.mkdir(parents=True, exist_ok=True)
        write_scan_log(wdir / "scans.jsonl", scans)
        write_ground_truth(wdir / "ground_truth.txt", poses, sensor.frequency)
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
        "sensor": sensor.name, "seed": args.seed, "speed": args.speed,
        "stride": args.stride, "worlds": worlds, "length": args.length,
    })
    width = max(len(w) for w in worlds)
    header = " ".join([f"{'world':<{width}}"] + [f"{m:>10}" for m in MODES])
    print(header)
    for world_name in worlds:
        cells = []
        for mode in MODES:
            r = matrix[(world_name, mode)]
            cells.append(f"{'ok' if r.success else 'FAILED':>10}")
        print(" ".join([f"{world_name:<{width}}"] + cells))
    for (world_name, mode), r in matrix.items():
        print(f"  {world_name}/{mode}: {r.summary()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="refodom",
                                     description=__doc__.splitlines()[0] if __doc__ else None)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a scan log from a world")
    p.add_argument("--world", required=True)
    p.add_argument("--trajectory", help="waypoint file 'x y theta' per line")
    p.add_argument("--sensor", default="lms151")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--speed", type=float, default=2.0)
    p.add_argument("--noise", type=float, default=0.005)
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
    p.add_argument("--threshold", type=float, default=DEFAULT_FAIL_THRESHOLD)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pr", help="precision-recall sweep for a detector")
    p.add_argument("--scans", required=True)
    p.add_argument("--world", required=True)
    p.add_argument("--poses", required=True, help="ground-truth trajectory file")
    p.add_argument("--detector", choices=["proposed", "threshold"], default="proposed")
    p.add_argument("--sweep", default="500:10000:20", help="LO:HI:N")
    p.add_argument("--subsample", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pr)

    p = sub.add_parser("reproduce",
                       help="simulate + all odometry modes + evaluation matrix")
    p.add_argument("--sensor", default="r2000",
                   help="dense 360-degree coverage keeps markers continuously visible")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--speed", type=float, default=2.0)
    p.add_argument("--stride", type=int, default=8,
                   help="match-time subsampling of regular scan points")
    p.add_argument("--length", type=float, help="shorten traverses to this length (m)")
    p.add_argument("--worlds", help="comma-separated subset of built-in worlds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
