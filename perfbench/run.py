"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository (the program is
imported from ``src/``; nothing is installed).  With ``--trace 0`` the
result carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  ``correct`` is false — and the exit code 1 —
when any output fails its check; a checkout without the program exits 2
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import WORK, ensure_program  # noqa: E402

WORKLOADS = ("place_inproc", "serve_mixed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ensure_program()

    import importlib

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        workload = importlib.import_module(args.workload)
        outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for line in outcome.notes + outcome.problems:
        print(line, file=sys.stderr)
    result = outcome.to_json()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
