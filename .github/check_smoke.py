"""Checks the JSON summary that ``benchmarks/run.py`` prints as its last line.

    python3 .github/check_smoke.py run.txt [--equal NAME=VALUE ...] [--positive NAME ...]

Prints ``failed: N`` and, where metrics are checked, the unmet ones by
name with the values read. Exits 1 where the run counts a failed check,
or a named metric is missing, differs from VALUE (``--equal``) or is not
above 0 (``--positive``).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Check a benchmark run's summary line.")
    parser.add_argument("file", help="the run's printed output; its last line is the summary")
    parser.add_argument("--equal", nargs="+", action="extend", default=[],
                        metavar="NAME=VALUE")
    parser.add_argument("--positive", nargs="+", action="extend", default=[], metavar="NAME")
    args = parser.parse_args(argv)
    with open(args.file) as fh:
        run = json.loads(fh.read().splitlines()[-1])
    got = {name: metric["value"] for name, metric in run["metrics"].items()}
    bad = {}
    for check in args.equal:
        name, _, want = check.partition("=")
        if got.get(name) != json.loads(want):
            bad[name] = got.get(name)
    bad.update({name: got.get(name) for name in args.positive if not got.get(name, 0) > 0})
    if args.equal or args.positive:
        print(f"failed: {run['failed']}", bad or "metrics as expected")
    else:
        print(f"failed: {run['failed']}")
    return int(run["failed"] != 0 or bool(bad))


if __name__ == "__main__":
    sys.exit(main())
