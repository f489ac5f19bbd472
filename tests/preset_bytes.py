"""SHA-256 of every CSV and summary the bundled presets write.

    python tests/preset_bytes.py [--src DIR] [--scale K] [--jobs N] [NAME ...]
    python tests/preset_bytes.py --compare BASE.txt HEAD.txt [--expect-changes]

The first form runs ``ptchain fig NAME --scale K`` for every preset of
``ptchain.cookbook.figure_names()`` (or the NAMEs given), in this process,
and prints one line per output file: ``<preset>/<file> <sha256>``, then one
``<preset> exit <code>`` line. Run manifests are left out: they record the
run's times. ``--src`` picks the tree whose package runs (default: the
``src`` beside this script), so one copy of the script can hash two trees.

The second form compares two such printouts, taken on one machine, and
exits 1 when:

- a preset of HEAD exits non-zero;
- a preset that both trees run and both finish writes other files or other
  bytes in HEAD.

A preset that only one tree has is listed and not compared, and so is one
that exits non-zero in BASE alone (HEAD mends it). Every differing file is
printed as ``<preset>/<file> <base sha256> -> <head sha256>`` (``-`` for a
missing file). With ``--expect-changes`` those lines are the record of a
change meant to move outputs, and they do not fail the comparison; a
non-zero exit still does.

Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile


def hash_presets(src: str, scale: int, jobs: int | None, names: list[str]) -> None:
    """Print the hashes and exit code of each preset, run from ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    from ptchain import cli
    from ptchain.cookbook import figure_names

    extra = [] if jobs is None else ["--jobs", str(jobs)]
    with tempfile.TemporaryDirectory() as root:
        for name in names or figure_names():
            out = os.path.join(root, name)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["fig", name, "--scale", str(scale), "--out", out, *extra])
            for file in sorted(os.listdir(out)) if os.path.isdir(out) else []:
                if file != "run_manifest.json":
                    with open(os.path.join(out, file), "rb") as f:
                        print(f"{name}/{file} {hashlib.sha256(f.read()).hexdigest()}")
            print(f"{name} exit {code}", flush=True)


def parse(lines) -> tuple[dict[str, int], dict[str, dict[str, str]]]:
    """The exit code of each preset and the hash of each of its files."""
    exits: dict[str, int] = {}
    files: dict[str, dict[str, str]] = {}
    for line in lines:
        head, _, tail = line.strip().rpartition(" ")
        if head.endswith(" exit"):
            exits[head[: -len(" exit")]] = int(tail)
        elif head:
            preset, _, file = head.partition("/")
            files.setdefault(preset, {})[file] = tail
    return exits, files


def compare(base_lines, head_lines, expect_changes: bool = False) -> tuple[bool, list[str]]:
    """Whether HEAD's printout passes against BASE's, and the report."""
    base_exits, base_files = parse(base_lines)
    head_exits, head_files = parse(head_lines)
    report, ok = [], True
    for name, code in head_exits.items():
        if code != 0:
            report.append(f"{name} exits {code} at the head")
            ok = False
    for name in sorted(base_exits.keys() ^ head_exits.keys()):
        side = "head" if name in head_exits else "base"
        report.append(f"{name} only at the {side}: not compared")
    changed = same = 0
    for name in sorted(base_exits.keys() & head_exits.keys()):
        if head_exits[name] != 0:
            continue
        if base_exits[name] != 0:
            report.append(f"{name} exits {base_exits[name]} at the base: not compared")
            continue
        base, head = base_files.get(name, {}), head_files.get(name, {})
        moved = [f"{name}/{file} {base.get(file, '-')} -> {head.get(file, '-')}"
                 for file in sorted(base.keys() | head.keys()) if base.get(file) != head.get(file)]
        report.extend(moved)
        changed += bool(moved)
        same += not moved
    if changed:
        if expect_changes:
            report.append(f"{changed} presets changed their outputs, as expected")
        else:
            ok = False
            report.append(f"{changed} presets changed their outputs")
    report.append(f"{same} presets wrote the base's bytes")
    return ok, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"))
    parser.add_argument("--scale", type=int, default=10)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    parser.add_argument("--expect-changes", action="store_true")
    parser.add_argument("names", nargs="*")
    args = parser.parse_args(argv)
    if args.compare is None:
        hash_presets(args.src, args.scale, args.jobs, args.names)
        return 0
    with open(args.compare[0]) as base, open(args.compare[1]) as head:
        ok, report = compare(base.readlines(), head.readlines(), args.expect_changes)
    print("\n".join(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
