#!/usr/bin/env python3
"""Fails when repeated runs of one bench disagree on a virtual-time number.

Usage: tools/check_bench_determinism.py RUN1.json RUN2.json [RUN3.json ...]

Each file is the --out JSON of one run of the same bench with the same
flags. Virtual-time numbers come from the simulator's cost model, so every
run must print them identically; only a field whose name contains "wall"
is real time and may differ. Prints each differing field and exits 1 if
any differs.
"""

import json
import sys


def flatten(value, path, out):
    """Maps each leaf of a JSON value to its path, e.g. points[2].p99_ns."""
    if isinstance(value, dict):
        for key, child in value.items():
            flatten(child, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, child in enumerate(value):
            flatten(child, f"{path}[{i}]", out)
    else:
        out[path] = value
    return out


def field_name(path):
    return path.rsplit(".", 1)[-1]


def main(paths):
    if len(paths) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(flatten(json.load(f), "", {}))
    first = runs[0]
    differences = 0
    for path, run in zip(paths[1:], runs[1:]):
        for key in sorted(set(first) | set(run)):
            if "wall" in field_name(key):
                continue
            if first.get(key) != run.get(key):
                print(f"{path}: {key} = {run.get(key)!r}, "
                      f"but {paths[0]} has {first.get(key)!r}")
                differences += 1
    if differences:
        print(f"check_bench_determinism: {differences} virtual field(s) "
              f"differ across {len(paths)} runs", file=sys.stderr)
        return 1
    print(f"check_bench_determinism: {len(paths)} runs agree on every "
          f"virtual field ({paths[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
