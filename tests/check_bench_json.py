"""Checks that every BENCH_*.json in a directory is strict JSON.

Usage: python3 tests/check_bench_json.py <repo-root>

A file fails when it does not parse, repeats a key inside one object, or
uses the non-standard NaN/Infinity constants that Python's json module
would otherwise accept. Exits 1 listing every failing file.
"""

import glob
import json
import os
import sys


def _no_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def _no_constants(name):
    raise ValueError(f"non-JSON constant {name}")


def main(argv):
    if len(argv) != 2:
        print("usage: check_bench_json.py <repo-root>", file=sys.stderr)
        return 2
    paths = sorted(glob.glob(os.path.join(argv[1], "BENCH_*.json")))
    if not paths:
        print(f"no BENCH_*.json under {argv[1]}", file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                json.load(f, object_pairs_hook=_no_duplicate_keys,
                          parse_constant=_no_constants)
        except ValueError as err:
            failures += 1
            print(f"FAIL {os.path.basename(path)}: {err}")
        else:
            print(f"ok   {os.path.basename(path)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
