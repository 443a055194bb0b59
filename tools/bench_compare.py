#!/usr/bin/env python3
"""Compare a perf bench's JSON output with its committed BENCH_*.json.

    tools/bench_compare.py <got.json> <want.json> [--skip k1,k2,...]

Both files are parsed and every object member whose key is in the skip
set is dropped, at any depth, before the two are compared for equality.
Skip what a rerun cannot reproduce: timings, rates and speedups derived
from them, and host properties such as hardware_threads. Exits 0 when the
stripped documents are equal; otherwise prints each differing path to
stderr and exits 1.
"""

import argparse
import json
import sys


def strip(value, skip):
    if isinstance(value, dict):
        return {k: strip(v, skip) for k, v in value.items() if k not in skip}
    if isinstance(value, list):
        return [strip(v, skip) for v in value]
    return value


def differences(got, want, path="$"):
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(got.keys() | want.keys()):
            if key not in want:
                yield f"{path}.{key}: not in the baseline"
            elif key not in got:
                yield f"{path}.{key}: missing"
            else:
                yield from differences(got[key], want[key], f"{path}.{key}")
    elif isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            yield f"{path}: {len(got)} elements, baseline has {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            yield from differences(g, w, f"{path}[{i}]")
    elif got != want:
        yield f"{path}: {got!r}, baseline {want!r}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("got")
    parser.add_argument("want")
    parser.add_argument("--skip", default="",
                        help="comma-separated keys to ignore at any depth")
    args = parser.parse_args()
    skip = {k for k in args.skip.split(",") if k}
    docs = []
    for path in (args.got, args.want):
        with open(path) as f:
            docs.append(strip(json.load(f), skip))
    diffs = list(differences(*docs))
    for line in diffs:
        print(f"{args.got} vs {args.want}: {line}", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
