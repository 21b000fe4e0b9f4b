#!/usr/bin/env python3
"""Checks the verdict line of one wallbench run.

Usage: check_wallbench_verdict.py OUTPUT.txt

OUTPUT.txt is the stdout of `python3 wallbench/run.py ...`. Its last
non-empty line is the benchmark's JSON result. wallbench exits 0 even when
its oracle finds wrong answers, so this check is what fails the job: the
line must parse as JSON with "correct": true and "failed": 0. Timings are
not looked at.
"""

import json
import sys


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        print(f"FAIL: {sys.argv[1]} is empty")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        print(f"FAIL: last line of {sys.argv[1]} is not JSON ({e}): {lines[-1]}")
        return 1
    if not isinstance(result, dict):
        print(f"FAIL: last line of {sys.argv[1]} is not a JSON object")
        return 1
    correct = result.get("correct")
    failed = result.get("failed")
    if correct is not True or failed != 0:
        print(f"FAIL: correct={correct!r} failed={failed!r} "
              f"attempted={result.get('attempted')!r}")
        return 1
    print(f"OK: {result.get('attempted')} answers checked, none failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
