"""Import budget: numpy is the only third-party module a placement loads.

scipy (LU/``splu`` factors for large systems) and networkx (formerly the
graph layer) cost ~0.5 s of every cold start between them, and no shipped
circuit needs either.  This runs a fresh interpreter through the CLI
import, a corpus-backed service and two short placements, then checks
*which* modules got loaded — not how long that took, so it holds on any
machine.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SCRIPT = textwrap.dedent("""
    import sys

    import repro.cli
    from repro.service import PlacementRequest
    from repro.service.corpus import corpus_registry
    from repro.service.service import PlacementService

    service = PlacementService(registry=corpus_registry(), backend="serial")
    try:
        for circuit, batch in (("ota5t", 1), ("mirror_tree", 4)):
            result = service.place(
                PlacementRequest(circuit=circuit, steps=8, seed=1, batch=batch))
            assert result.best_cost > 0, circuit
    finally:
        service.close()
    print(" ".join(sorted(
        name for name in ("scipy", "networkx") if name in sys.modules)))
""")


def test_placement_loads_neither_scipy_nor_networkx():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"loaded: {proc.stdout.strip()}"
