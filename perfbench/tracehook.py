"""Run the ``repro`` CLI with the benchmark's span tracing installed.

    python3 perfbench/tracehook.py OUT_DIR -- ARGS...

behaves like ``python3 -m repro ARGS...`` but records a ``cli.import``
span around ``import repro.cli``, wraps every layer (see
:mod:`tracing`), records a ``cli.main`` span around the command and
writes the spans to ``OUT_DIR`` when the command returns.  Forked pool
workers write theirs after every run.  Spans are left untagged: a
server's requests tag their own.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    out_dir, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit(__doc__)
    tracer = tracing.Tracer(out_dir)
    handle = tracer.open()
    import repro.cli

    tracer.close("cli.import", handle)
    tracing.install(tracer)
    handle = tracer.open()
    try:
        return repro.cli.main(argv)
    finally:
        tracer.close("cli.main", handle)
        tracer.dump("proc")


if __name__ == "__main__":
    raise SystemExit(main())
