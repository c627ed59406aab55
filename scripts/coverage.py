#!/usr/bin/env python3
"""Line coverage of src/ from a `--coverage` build, gated on a floor.

Build the tree with `-O0 --coverage`, run the tier-1 suite, then:

  scripts/coverage.py BUILD_DIR

For every .gcno under BUILD_DIR this runs `gcov -n` (summaries only, no
.gcov files) and keeps the summary of the translation unit's own src/*.cpp;
headers are left out because each including unit reports its own partial
view of them. It prints the LOWEST least-covered files and the total, and
exits 1 when the total is below FLOOR, 2 when there is nothing to measure.
Raise FLOOR when a change lifts coverage.
"""
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
FLOOR = 95.1   # percent of src/ lines; see CHANGES.md for the measurements
LOWEST = 10
BLOCK = re.compile(r"File '([^']+)'\nLines executed:([\d.]+)% of (\d+)")


def summaries(build_dir):
    """{src/*.cpp path: (covered lines, executable lines)}."""
    out = {}
    for dirpath, _, files in os.walk(build_dir):
        for name in files:
            if not name.endswith(".cpp.gcno"):
                continue
            done = subprocess.run(["gcov", "-n", name], cwd=dirpath,
                                  capture_output=True, text=True)
            for path, pct, lines in BLOCK.findall(done.stdout):
                path = os.path.normpath(os.path.join(dirpath, path))
                if path.startswith(SRC) and path.endswith(".cpp"):
                    total = int(lines)
                    out[path] = (round(float(pct) * total / 100.0), total)
    return out


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    build_dir = sys.argv[1]
    files = summaries(build_dir)
    covered = sum(c for c, _ in files.values())
    total = sum(t for _, t in files.values())
    if total == 0:
        print(f"coverage: no src/ coverage data under {build_dir}",
              file=sys.stderr)
        return 2
    ranked = sorted(files.items(), key=lambda kv: kv[1][0] / max(kv[1][1], 1))
    for path, (c, t) in ranked[:LOWEST]:
        print(f"{100.0 * c / t:6.1f}%  {c:5d}/{t:<5d} {os.path.relpath(path, ROOT)}")
    pct = 100.0 * covered / total
    print(f"src/ line coverage {pct:.2f}% ({covered} of {total} lines, "
          f"{len(files)} files); floor {FLOOR:.2f}%")
    if pct < FLOOR:
        print("coverage: below the floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
