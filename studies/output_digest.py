"""Output digest: the sha256 of every file a fixed `refodom` CLI pipeline
writes, so that two checkouts can be compared byte for byte.

    python3 studies/output_digest.py > a.txt    # in one checkout
    python3 studies/output_digest.py > b.txt    # in the other
    diff a.txt b.txt

The pipeline, run in-process through `refodom.cli.main` into a temporary
directory that is removed afterwards:

- `reproduce --length 5` over the three default worlds;
- `simulate` of 6 m of `distractor_hall` (lms151, seed 3) and of
  `corridor_marked` (r2000, seed 1), each followed by `detect`, by `pr` with
  both detectors, by `odometry` in every mode with match_stride 8 (trajectory,
  keyframes and, in tracking mode, tracks) and by `evaluate` of each
  trajectory against the ground truth.

Each output file gives one `sha256 path` line, sorted by path relative to
the output root. Manifests hold the paths of their inputs, so the output
root in each manifest is replaced by `<root>` before hashing. The last line
of standard output is one JSON object: the file count, the commands run and
a sha256 over the digest lines. The script imports refodom from `src/` of
the checkout it sits in and exits 1 if a command fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from refodom.cli import main as refodom  # noqa: E402
from refodom.odometry import MODES  # noqa: E402

ROOT_PLACEHOLDER = "<root>"
LOGS = (("distractor_hall", "lms151", 3), ("corridor_marked", "r2000", 1))
LENGTH_M = 6.0
MATCH_STRIDE = 8


def pipeline(root: Path):
    """The argument lists of every command, in run order; writes the
    waypoint and config files the commands read, which are digested too."""
    waypoints = root / "waypoints.txt"
    waypoints.write_text(f"0.0 1.5 0.0\n{LENGTH_M} 1.5 0.0\n")
    config = root / "config.json"
    config.write_text(json.dumps({"match_stride": MATCH_STRIDE}))
    commands = [["reproduce", "--length", "5", "--out", str(root / "reproduce")]]
    for world, sensor, seed in LOGS:
        d = root / f"{world}-{sensor}-{seed}"
        sim = d / "sim"
        commands.append(["simulate", "--world", world, "--sensor", sensor,
                         "--seed", str(seed), "--trajectory", str(waypoints),
                         "--out", str(sim)])
        commands.append(["detect", "--scans", str(sim / "scans.jsonl"),
                         "--out", str(d / "detections.txt")])
        for detector in ("proposed", "threshold"):
            commands.append(["pr", "--scans", str(sim / "scans.jsonl"), "--world", world,
                             "--poses", str(sim / "ground_truth.txt"),
                             "--detector", detector, "--out", str(d / f"pr-{detector}.txt")])
        for mode in MODES:
            commands.append(["odometry", "--scans", str(sim / "scans.jsonl"), "--mode", mode,
                             "--config", str(config), "--out", str(d / mode)])
            commands.append(["evaluate", "--estimate", str(d / mode / "trajectory.txt"),
                             "--reference", str(sim / "ground_truth.txt"),
                             "--out", str(d / mode / "evaluation")])
    return commands


def digest_lines(root: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = data.replace(str(root).encode(), ROOT_PLACEHOLDER.encode())
        lines.append(f"{hashlib.sha256(data).hexdigest()} {path.relative_to(root).as_posix()}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="refodom-digest-") as tmp:
        root = Path(tmp)
        commands = pipeline(root)
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = refodom(argv)
            if code != 0:
                print(f"refodom {argv[0]} exited {code}", file=sys.stderr)
                return 1
        lines = digest_lines(root)
    for line in lines:
        print(line)
    print(json.dumps({
        "files": len(lines),
        "commands": [argv[0] for argv in commands],
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
