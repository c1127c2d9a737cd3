"""Solver fast-path equivalence, op-cache semantics and determinism.

The fast path (modified Newton with Jacobian reuse, forced LU / sparse
factorizations, operating-point warm starts, pluggable array backend)
must be a pure accelerator: every knob combination has to land on the
same solution as the preserved reference loop
(``solver_tuning(jacobian_reuse=False, op_cache=False)``) to ≤ 1e-10 on
every library block under nominal, corner and random variation deltas —
and results must stay bit-identical across serial and process-pool
execution.
"""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.eval.evaluator import PlacementEvaluator
from repro.eval.warm import WarmStore, dc_features
from repro.layout.generators import banded_placement
from repro.netlist.library import (
    comparator,
    current_mirror,
    five_transistor_ota,
    folded_cascode_ota,
    two_stage_ota,
)
from repro.route.parasitics import annotate_parasitics
from repro.sim import fastpath
from repro.sim import (
    ArrayBackend,
    logspace_frequencies,
    reset_solver_stats,
    set_array_backend,
    solve_ac,
    solve_dc,
    solve_dc_many,
    solver_stats,
    solver_tuning,
    use_array_backend,
)
from repro.tech import generic_tech_40
from repro.variation import DeviceDelta, corner

BUILDERS = {
    "cm": current_mirror,
    "comp": comparator,
    "ota": folded_cascode_ota,
    "ota5t": five_transistor_ota,
    "ota2s": two_stage_ota,
}
TOL = 1e-10
FREQS = logspace_frequencies(1e4, 1e9, points_per_decade=3)

#: Each entry forces one fast-path mechanism on the small library blocks
#: (reuse_min_size=1 overrides the size gate that normally keeps scalar
#: Newton on the reference loop for systems this small).
KNOBS = {
    "jacobian_reuse": dict(reuse_min_size=1),
    "forced_lu": dict(lu_threshold=1, reuse_min_size=1),
    "forced_sparse": dict(sparse_threshold=1),
    "forced_sparse_reuse": dict(sparse_threshold=1, reuse_min_size=1),
}

REFERENCE = dict(jacobian_reuse=False, op_cache=False)

#: Knobs that only mean something with scipy: without it the LU and
#: ``splu`` factors fall back to the dense solve the reference uses.
SCIPY_KNOBS = ("forced_lu", "forced_sparse", "forced_sparse_reuse")
HAVE_SCIPY = importlib.util.find_spec("scipy") is not None


def _delta_regimes(block):
    """Nominal, corner-shifted and randomly varied device deltas."""
    mosfets = list(block.circuit.mosfets())
    ss = corner("ss")
    rng = np.random.default_rng(7)
    return {
        "nominal": {},
        "corner": {m.name: ss.delta_for(m.polarity) for m in mosfets},
        "random": {
            m.name: DeviceDelta(
                dvth=float(rng.normal(0.0, 5e-3)),
                dbeta_rel=float(rng.normal(0.0, 0.02)),
            )
            for m in mosfets
        },
    }


@pytest.fixture(scope="module")
def cases():
    """kind → (annotated circuit, tech, regime → deltas, regime → x_ref)."""
    tech = generic_tech_40()
    out = {}
    for kind, builder in BUILDERS.items():
        block = builder()
        placement = banded_placement(block, "ysym")
        annotated = annotate_parasitics(block.circuit, placement, tech)
        regimes = _delta_regimes(block)
        refs = {}
        with solver_tuning(**REFERENCE):
            for regime, deltas in regimes.items():
                refs[regime] = solve_dc(annotated, tech, deltas=deltas)
        out[kind] = (annotated, tech, regimes, refs)
    return out


class TestKnobEquivalence:
    @pytest.mark.parametrize("knob", sorted(KNOBS))
    @pytest.mark.parametrize("regime", ("nominal", "corner", "random"))
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_dc_matches_reference(self, cases, kind, regime, knob,
                                  monkeypatch):
        if knob in SCIPY_KNOBS and not HAVE_SCIPY:
            pytest.skip(f"{knob} factors through scipy, which is not "
                        "installed (it would silently solve dense)")
        annotated, tech, regimes, refs = cases[kind]
        dense_factors = []

        class SpyDenseFactor(fastpath.DenseFactor):
            def __init__(self, J, tuning):
                super().__init__(J, tuning)
                dense_factors.append(self)

        monkeypatch.setattr(fastpath, "DenseFactor", SpyDenseFactor)
        reset_solver_stats()
        with solver_tuning(**KNOBS[knob]):
            got = solve_dc(annotated, tech, deltas=regimes[regime])
        assert np.max(np.abs(got.x - refs[regime].x)) < TOL
        # Prove the forced factorization really ran.
        if knob == "forced_lu":
            assert any(f._lu is not None for f in dense_factors)
        elif knob in SCIPY_KNOBS:
            assert solver_stats().sparse_factorizations > 0

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy is not installed")
    def test_forced_lu_loads_scipy_lazily(self):
        """scipy stays unloaded until the first LU factor is built."""
        script = textwrap.dedent(f"""
            import sys
            import numpy as np
            from repro.layout.generators import banded_placement
            from repro.netlist.library import two_stage_ota
            from repro.route.parasitics import annotate_parasitics
            from repro.sim import solve_dc, solver_tuning
            from repro.tech import generic_tech_40

            tech = generic_tech_40()
            block = two_stage_ota()
            annotated = annotate_parasitics(
                block.circuit, banded_placement(block, "ysym"), tech)
            with solver_tuning(jacobian_reuse=False, op_cache=False):
                ref = solve_dc(annotated, tech)
            assert "scipy" not in sys.modules, "scipy imported eagerly"
            with solver_tuning(**{KNOBS["forced_lu"]!r}):
                got = solve_dc(annotated, tech)
            assert "scipy.linalg" in sys.modules, "LU never factored"
            assert np.max(np.abs(got.x - ref.x)) < {TOL!r}
        """)
        src = str(Path(fastpath.__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_warm_start_matches_cold(self, cases, kind):
        annotated, tech, regimes, refs = cases[kind]
        ref = refs["random"]
        got = solve_dc(annotated, tech, deltas=regimes["random"], x0=ref.x)
        assert np.max(np.abs(got.x - ref.x)) < TOL
        assert got.iterations <= ref.iterations

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_batched_reuse_matches_scalar_reference(self, cases, kind):
        annotated, tech, regimes, refs = cases[kind]
        order = ("nominal", "corner", "random")
        batch = solve_dc_many(
            [annotated] * len(order), tech,
            [regimes[r] for r in order],
        )
        for regime, got in zip(order, batch):
            assert np.max(np.abs(got.x - refs[regime].x)) < TOL

    def test_ac_from_fast_op_matches_reference(self, cases):
        annotated, tech, regimes, refs = cases["ota2s"]
        deltas = regimes["random"]
        ref = refs["random"]
        with solver_tuning(**REFERENCE):
            want = solve_ac(annotated, tech, ref.voltages, FREQS,
                            deltas=deltas)
        op = solve_dc(annotated, tech, deltas=deltas)
        got = solve_ac(annotated, tech, op.voltages, FREQS, deltas=deltas)
        for net, h in want.node_voltages.items():
            assert np.max(np.abs(got.node_voltages[net] - h)) < TOL * (
                1.0 + np.max(np.abs(h)))


class TestOpCache:
    def test_exact_hit_reuses_operating_point(self):
        block = five_transistor_ota()
        evaluator = PlacementEvaluator(block, engine="compiled")
        placement = banded_placement(block, "ysym")
        first = evaluator.evaluate(placement)
        evaluator.clear_cache()
        reset_solver_stats()
        again = evaluator.evaluate(placement)
        assert solver_stats().warm_exact_hits >= 1
        # The reused operating point is the stored one, bit for bit.
        assert again.values == first.values

    def test_cache_disabled_never_hits(self):
        block = five_transistor_ota()
        evaluator = PlacementEvaluator(block, engine="compiled")
        placement = banded_placement(block, "ysym")
        reset_solver_stats()
        with solver_tuning(op_cache=False):
            evaluator.evaluate(placement)
            evaluator.clear_cache()
            evaluator.evaluate(placement)
        stats = solver_stats()
        assert stats.warm_exact_hits == 0
        assert stats.warm_near_hits == 0

    def test_store_seed_roundtrip(self, cases):
        annotated, tech, regimes, refs = cases["cm"]
        store = WarmStore()
        feats = dc_features(regimes["random"])
        result = refs["random"]
        store.store("cm", feats, result)
        exact, x0 = store.seed("cm", feats)
        assert exact is result and x0 is None
        # A nearby query gets the stored solution as a Newton seed.
        near = feats + 1e-5
        exact, x0 = store.seed("cm", near)
        assert exact is None
        assert x0 is result.x
        # Bounded: the library evicts oldest entries beyond the cap.
        with solver_tuning(op_cache_size=2):
            for k in range(3):
                store.store("cm", feats + k, result)
        assert len(store._library["cm"].entries) == 2

    def test_evaluator_warm_is_store(self):
        block = current_mirror()
        evaluator = PlacementEvaluator(block)
        assert isinstance(evaluator._warm, WarmStore)
        # The legacy dict protocol still works on top.
        evaluator.evaluate(banded_placement(block, "ysym"))
        assert "cm" in evaluator._warm


class CountingBackend(ArrayBackend):
    name = "counting"

    def __init__(self):
        self.calls = 0

    def solve(self, A, B):
        self.calls += 1
        return super().solve(A, B)


class TestBackendSeam:
    def test_stacked_solves_route_through_backend(self, cases):
        annotated, tech, regimes, refs = cases["ota5t"]
        counting = CountingBackend()
        with use_array_backend(counting):
            got = solve_ac(annotated, tech, refs["nominal"].voltages, FREQS)
        assert counting.calls > 0
        want = solve_ac(annotated, tech, refs["nominal"].voltages, FREQS)
        for net, h in want.node_voltages.items():
            assert np.array_equal(got.node_voltages[net], h)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            set_array_backend("tpu")


class TestParallelDeterminism:
    def test_fig3_serial_pool_bit_identical(self):
        """Fast-path results do not depend on the execution backend."""
        from repro.experiments import ExperimentConfig, run_fig3
        from repro.runtime import ProcessPoolBackend, SerialBackend

        config = ExperimentConfig(
            name="CM", builder=current_mirror, max_steps=15, seeds=(3,),
            ql_worse_tolerance=1.0,
        )
        serial = run_fig3(config, backend=SerialBackend())
        parallel = run_fig3(config, backend=ProcessPoolBackend(jobs=2))
        for a, b in zip(serial.rows, parallel.rows):
            assert a.primary == b.primary, a.algorithm
            assert a.fom == b.fom, a.algorithm
            assert a.placement.signature() == b.placement.signature()
