"""Solver fast-path knobs, statistics and Jacobian factorizations.

Three independently switchable accelerations sit behind the tuning here
(all preserve results to well under the 1e-10 equivalence rail):

* **Jacobian reuse** — modified Newton: while the residual keeps
  contracting, iterations reassemble only the residual and step against
  the frozen Jacobian; a stall triggers an adaptive refactor, and
  convergence reached under a frozen Jacobian is always *confirmed* with
  one fresh-Jacobian step so the final error stays quadratic.
* **Operating-point cache** — see :mod:`repro.eval.warm`: DC solves are
  seeded from the nearest previously converged placement (and reused
  outright when the variation deltas match exactly — the DC system is
  independent of the parasitic capacitances placements actually change).
* **Sparse path** — systems at or above ``sparse_threshold`` unknowns
  factor through ``scipy.sparse.linalg.splu`` on the fixed sparsity
  pattern the compiled topology proves (cached symbolic structure);
  below it, dense ``np.linalg.solve``/``scipy.linalg.lu_factor`` wins.

:func:`solver_stats` exposes counters (Newton iterations,
factorizations vs reuses, warm-start hits) and stage timers (stamp /
factor / solve) that ``repro profile`` reports.
"""

from __future__ import annotations

import importlib.util
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

#: scipy is optional and costs ~0.5 s to import, but only the LU and
#: ``splu`` factors need it — so probe for it here and import it the
#: first time such a factor is built.  Without scipy both fall back to
#: the dense ``np.linalg.solve`` path.
HAVE_SCIPY = importlib.util.find_spec("scipy") is not None


@dataclass(frozen=True)
class SolverTuning:
    """Fast-path configuration (process-wide, scoped via `solver_tuning`).

    Attributes:
        jacobian_reuse: modified-Newton Jacobian freezing on/off.
        reuse_contraction: residual contraction factor a frozen-Jacobian
            iteration must beat; worse than this refactors (and a fresh
            iteration contracting worse stops offering its Jacobian for
            reuse).
        reuse_min_size: system size (unknowns) below which *scalar*
            Newton keeps the plain full-Jacobian loop even with
            ``jacobian_reuse`` on.  For small dense systems assembly
            dominates and factorization is nearly free, so the extra
            linearly-converging frozen iterations cost more than the
            skipped factors save; the batched path is exempt — its
            stacked solves are a much larger share of each iteration.
        op_cache: cross-placement operating-point cache on/off (read by
            :mod:`repro.eval.warm`).
        op_cache_size: per-key entries the operating-point cache keeps.
        sparse_threshold: system size (unknowns) at and above which DC
            Jacobians factor through the sparse path; the library blocks
            sit far below the default, so this is opt-in until circuits
            grow.  ``0`` disables the sparse path outright.
        lu_threshold: system size at and above which *dense* frozen
            Jacobians keep a ``scipy.linalg.lu_factor`` factorization;
            below it a frozen step re-solves against the stored dense
            matrix, which beats LAPACK factor caching for the small MNA
            systems the library blocks produce.
    """

    jacobian_reuse: bool = True
    reuse_contraction: float = 0.5
    reuse_min_size: int = 48
    op_cache: bool = True
    op_cache_size: int = 64
    sparse_threshold: int = 200
    lu_threshold: int = 64


_tuning = SolverTuning()


def get_solver_tuning() -> SolverTuning:
    """The active fast-path configuration."""
    return _tuning


def set_solver_tuning(tuning: SolverTuning) -> None:
    """Replace the process-wide fast-path configuration."""
    global _tuning
    if not isinstance(tuning, SolverTuning):
        raise TypeError(f"expected SolverTuning, got {type(tuning)!r}")
    _tuning = tuning


@contextmanager
def solver_tuning(**overrides) -> Iterator[SolverTuning]:
    """Scope tuning overrides to a ``with`` block.

    ``with solver_tuning(jacobian_reuse=False, op_cache=False): ...``
    is the exact pre-fast-path solver behavior.
    """
    global _tuning
    previous = _tuning
    _tuning = replace(previous, **overrides)
    try:
        yield _tuning
    finally:
        _tuning = previous


@dataclass
class SolverStats:
    """Counters and stage timers of the DC/AC solver fast path."""

    newton_iterations: int = 0
    jacobian_factorizations: int = 0
    jacobian_reuses: int = 0
    warm_exact_hits: int = 0
    warm_near_hits: int = 0
    warm_misses: int = 0
    sparse_factorizations: int = 0
    stamp_s: float = 0.0
    factor_s: float = 0.0
    solve_s: float = 0.0
    ac_solve_s: float = 0.0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0.0 if name.endswith("_s") else 0)

    @property
    def factor_reuse_rate(self) -> float:
        """Fraction of Newton steps that reused a frozen Jacobian."""
        total = self.jacobian_factorizations + self.jacobian_reuses
        return self.jacobian_reuses / total if total else 0.0

    @property
    def warm_hit_rate(self) -> float:
        """Fraction of warm-start lookups served from the op cache."""
        total = self.warm_exact_hits + self.warm_near_hits + self.warm_misses
        hits = self.warm_exact_hits + self.warm_near_hits
        return hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        out = dict(vars(self))
        out["factor_reuse_rate"] = self.factor_reuse_rate
        out["warm_hit_rate"] = self.warm_hit_rate
        return out


STATS = SolverStats()


def solver_stats() -> SolverStats:
    """The process-wide fast-path statistics object."""
    return STATS


def reset_solver_stats() -> None:
    """Zero all fast-path counters and timers."""
    STATS.reset()


# ------------------------------------------------------------ factorizations


class DenseFactor:
    """A frozen dense Jacobian.

    Below ``lu_threshold`` the matrix itself is the "factorization":
    each solve calls batched-LAPACK ``np.linalg.solve`` again, which for
    the small MNA systems of the library blocks beats
    ``lu_factor``/``lu_solve`` round trips — the fast path's win there is
    skipping the Jacobian *stamp*, not the factor.  At and above the
    threshold a real LU factorization is kept (when scipy is present).
    """

    __slots__ = ("J", "_lu")

    def __init__(self, J: np.ndarray, tuning: SolverTuning):
        self.J = J
        self._lu = None
        if HAVE_SCIPY and J.shape[0] >= tuning.lu_threshold:
            from scipy.linalg import lu_factor

            self._lu = lu_factor(J)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._lu is not None:
            from scipy.linalg import lu_solve

            return lu_solve(self._lu, rhs)
        return np.linalg.solve(self.J, rhs)


class SparseFactor:
    """A frozen sparse-LU Jacobian (scipy ``splu``)."""

    __slots__ = ("_lu",)

    def __init__(self, J: np.ndarray, pattern):
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu

        if pattern is not None:
            rows, cols, indices, indptr = pattern
            data = J[rows, cols]
            mat = csc_matrix((data, indices, indptr), shape=J.shape)
        else:  # no topology available (legacy engine): pattern from values
            mat = csc_matrix(J)
        self._lu = splu(mat)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


def use_sparse(size: int, tuning: SolverTuning | None = None) -> bool:
    """Whether a ``size``-unknown DC Jacobian takes the sparse path."""
    t = tuning if tuning is not None else _tuning
    return (
        HAVE_SCIPY
        and t.sparse_threshold > 0
        and size >= t.sparse_threshold
    )


def factorize(J: np.ndarray, system=None, tuning: SolverTuning | None = None):
    """Factor one DC Jacobian for (possibly repeated) solving.

    Args:
        J: dense ``(size, size)`` Jacobian.
        system: the owning assembler; a compiled system contributes its
            topology's cached symbolic sparsity pattern.
        tuning: explicit tuning (defaults to the active configuration).

    Raises:
        np.linalg.LinAlgError: singular matrix (sparse failures are
            normalised to this so callers handle one exception type).
    """
    t = tuning if tuning is not None else _tuning
    if use_sparse(J.shape[0], t):
        topology = getattr(system, "topology", None)
        pattern = topology.csc_pattern() if topology is not None else None
        STATS.sparse_factorizations += 1
        try:
            return SparseFactor(J, pattern)
        except RuntimeError as exc:  # splu signals singularity this way
            raise np.linalg.LinAlgError(str(exc)) from exc
    return DenseFactor(J, t)
