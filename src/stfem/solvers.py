"""Nonlinear and linear solvers for the space-time systems.

The nonlinear systems are solved by a damped Newton method whose damping
parameter is chosen by a residual-based line search (halving, first decrease
accepted).  ``linear_solve`` factors a matrix once: by a sparse direct LU, or
by the right preconditioner of full (restart-free) GMRES with a relative
tolerance of 1e-8, capped at 100 iterations.  The LU is ordered by the mesh
dimension D (COLAMD for D = 2, minimum degree for D >= 3, which cuts the
fill there).  The preconditioner is the default ``"ilu0"``, SuperLU's
threshold incomplete LU with drop tolerance 1e-4, or Jacobi.  The one
factor of a Jacobian K(u) solves the Newton correction with K and the
adjoint with K^T.  A singular factor, or a preconditioner that cannot be
built, is reported as an unconverged solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (assemble_jacobian, assemble_residual,
                       quadrature_state)
from .problems import ProblemDefinition
from .spaces import FeFunction, FeSpace

# drop tolerance of the "ilu0" preconditioner's threshold incomplete LU
ILU_DROP_TOL = 1e-4
# relative residual tolerance and iteration cap of every GMRES solve
GMRES_REL_TOL = 1e-8
GMRES_MAX_ITER = 100


@dataclass
class NewtonConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_iter: int = 50
    max_line_search_steps: int = 30

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("Newton tolerances must be positive")
        if self.max_iter < 1 or self.max_line_search_steps < 1:
            raise ValueError("need max_iter, max_line_search_steps >= 1")


@dataclass
class LinearSolverConfig:
    kind: str = "direct"  # "direct" or "gmres"
    # "ilu0": SuperLU's threshold incomplete LU with drop tolerance 1e-4
    # (ILU_DROP_TOL), named "ilu0" for existing scripts; or "jacobi"
    preconditioner: str = "ilu0"

    def __post_init__(self):
        if self.kind not in ("direct", "gmres"):
            raise ValueError(f"unknown linear solver kind {self.kind!r}")
        if self.preconditioner not in ("jacobi", "ilu0"):
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")


@dataclass
class LinearSolveResult:
    x: np.ndarray
    iters: int
    converged: bool
    residual_history: list = field(default_factory=list)


@dataclass
class SolveStats:
    newton_iters: int = 0
    total_inner_iters: int = 0
    tol: float = np.nan  # the residual norm at which Newton stops
    converged: bool = False
    residual_history: list = field(default_factory=list)
    adjoint: FeFunction | None = None  # z at the returned u, given a goal


def gmres(matvec, b: np.ndarray, rel_tol: float = 1e-8, max_iter: int = 100,
          right_prec=None) -> LinearSolveResult:
    """Full GMRES without restarts, started from zero.

    Right preconditioning keeps the monitored Arnoldi residual equal to the
    true residual; the iteration stops when it drops below rel_tol * |b| or
    after max_iter steps (flagged as not converged).
    """
    n = b.shape[0]
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return LinearSolveResult(np.zeros(n), 0, True, [0.0])
    if right_prec is None:
        right_prec = lambda v: v

    max_iter = min(max_iter, n)
    V = np.zeros((max_iter + 1, n))
    H = np.zeros((max_iter + 1, max_iter))
    cs = np.zeros(max_iter)
    sn = np.zeros(max_iter)
    g = np.zeros(max_iter + 1)
    g[0] = bnorm
    V[0] = b / bnorm
    history = [bnorm]
    tol = rel_tol * bnorm
    k = 0
    for j in range(max_iter):
        w = matvec(right_prec(V[j]))
        for i in range(j + 1):  # modified Gram-Schmidt
            H[i, j] = w @ V[i]
            w -= H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        if H[j + 1, j] > 1e-300:
            V[j + 1] = w / H[j + 1, j]
        for i in range(j):  # apply accumulated Givens rotations
            h0 = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = h0
        denom = np.hypot(H[j, j], H[j + 1, j])
        if denom == 0.0:
            k = j  # breakdown: the last Krylov direction is unusable
            break
        cs[j] = H[j, j] / denom
        sn[j] = H[j + 1, j] / denom
        H[j, j] = denom
        H[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]
        history.append(abs(g[j + 1]))
        k = j + 1
        if abs(g[j + 1]) <= tol:
            break
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - H[i, i + 1:k] @ y[i + 1:k]) / H[i, i]
    x = right_prec(V[:k].T @ y)
    return LinearSolveResult(x, k, bool(history[-1] <= tol), history)


class Ilu0:
    """SuperLU's threshold incomplete LU (``spla.spilu``), drop tolerance
    ``ILU_DROP_TOL``.

    This is not zero-fill ILU(0): entries of the factors below the drop
    tolerance (relative to their column) are discarded, others may fill in.
    The class name and the preconditioner choice ``"ilu0"`` are kept for the
    benchmark and existing scripts.  Raises ``RuntimeError`` when the factor
    is exactly singular.
    """

    def __init__(self, A: sp.spmatrix):
        self._factor = spla.spilu(sp.csc_matrix(A), drop_tol=ILU_DROP_TOL)

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        return self._factor.solve(b, trans)


def linear_solve(K: sp.spmatrix, cfg: LinearSolverConfig, dim: int = 2):
    """Factor K once by the configured method: its sparse LU, or the GMRES
    preconditioner built from K.  ``dim`` is the mesh dimension D: for
    D >= 3 the LU is ordered by minimum degree on K^T + K in SuperLU's
    symmetric mode (diagonal pivot threshold 0.1), for D <= 2 by COLAMD.

    Returns ``solve(rhs, trans="N")``, which solves K x = rhs, or
    K^T x = rhs with ``trans="T"``, by that one factor and gives a
    ``LinearSolveResult``.  A singular factorization, a preconditioner that
    cannot be built, and a GMRES solve that stops at its cap are reported
    through the ``converged`` flag, never raised.
    """
    try:  # apply(v, trans) by the LU of K or the preconditioner built from K
        if cfg.kind == "direct":
            order = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                         options={"SymmetricMode": True}) if dim >= 3 else {}
            apply = spla.splu(sp.csc_matrix(K), **order).solve
        elif cfg.preconditioner == "ilu0":
            apply = Ilu0(K).solve
        else:
            d = K.diagonal()
            if np.any(d == 0.0):
                raise RuntimeError("Jacobi preconditioner needs a nonzero "
                                   "diagonal")
            inv = 1.0 / d
            apply = lambda v, trans: inv * v
    except RuntimeError:  # a singular factor is reported, not raised
        apply = None

    def solve(rhs: np.ndarray, trans: str = "N") -> LinearSolveResult:
        if K.shape[0] != K.shape[1] or K.shape[0] != rhs.shape[0]:
            raise ValueError("system dimensions do not match")
        if apply is not None and cfg.kind == "gmres":
            A = K if trans == "N" else K.T
            return gmres(lambda v: A @ v, rhs, GMRES_REL_TOL, GMRES_MAX_ITER,
                         right_prec=lambda v: apply(v, trans))
        x = None if apply is None else apply(rhs, trans)
        if x is None or not np.all(np.isfinite(x)):
            return LinearSolveResult(np.zeros_like(rhs), 0, False, [])
        return LinearSolveResult(x, 1, True, [])

    return solve


def random_initial_guess(space: FeSpace, seed: int = 0) -> FeFunction:
    """Deterministic pseudo-random start vector supported on the free dofs."""
    rng = np.random.default_rng(seed)
    coeffs = 0.5 * rng.uniform(-1.0, 1.0, size=space.n_dofs)
    coeffs[space.constrained] = 0.0
    return FeFunction(space, coeffs)


def newton_solve(prob: ProblemDefinition, space: FeSpace, init: FeFunction,
                 ncfg: NewtonConfig = None, lcfg: LinearSolverConfig = None,
                 goal=None, stop=None) -> tuple[FeFunction, SolveStats]:
    """Damped Newton iteration for the nonlinear space-time system.

    The step length is halved until the residual norm decreases; close to the
    solution the full step is always accepted.  Inner solver failures are
    recorded and the iteration continues with the returned correction.  The
    factor of each iterate's Jacobian is freed before the next is built.

    With a ``goal``, the factor of the Jacobian where the tolerance or the
    cap ends the iteration (and, given ``stop``, each iterate's from the
    first step on) solves the adjoint K(u)^T z = J'(u) there; the iteration
    ends converged once ``stop(u, r, z)`` holds, and the iterate that ends it
    solves no correction.  ``stats.adjoint`` is z at the returned u, and must
    converge too; it is None if the line search fails before z is solved.
    """
    ncfg = ncfg or NewtonConfig()
    lcfg = lcfg or LinearSolverConfig()
    u = init.copy()
    u.coeffs[space.constrained] = 0.0
    # the accepted trial's quadrature state serves the next Jacobian
    state = quadrature_state(space, u, prob)
    r = assemble_residual(space, state, prob)
    rnorm = np.linalg.norm(r)
    stats = SolveStats(tol=max(ncfg.abs_tol, ncfg.rel_tol * rnorm),
                       residual_history=[rnorm])
    zres = None  # the adjoint solve at the current iterate, given a goal
    while True:
        met = rnorm <= stats.tol
        # a NaN residual also ends the iteration, unconverged
        last = not rnorm > stats.tol or stats.newton_iters >= ncfg.max_iter
        if last and goal is None:
            break
        solve = linear_solve(assemble_jacobian(space, state, prob), lcfg,
                             space.mesh.dim)
        if goal is not None and (last or (stop and stats.newton_iters > 0)):
            zres = solve(goal.gradient(space, u), "T")
            stats.total_inner_iters += zres.iters
            stats.adjoint = FeFunction(space, zres.x)
            met = (stop and stop(u, r, stats.adjoint)) or met
            if met or last:
                break
        res = solve(-r)
        del solve  # free this factor before the next one is built
        stats.total_inner_iters += res.iters
        w = res.x
        lam = 1.0
        accepted = False
        for _ in range(ncfg.max_line_search_steps):
            trial = quadrature_state(
                space, FeFunction(space, u.coeffs + lam * w), prob)
            r_trial = assemble_residual(space, trial, prob)
            rt = np.linalg.norm(r_trial)
            if rt < rnorm:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break
        u, state = trial.u, trial
        r, rnorm = r_trial, rt
        stats.newton_iters += 1
        stats.residual_history.append(rnorm)
    stats.converged = bool(met) and (zres is None or zres.converged)
    return u, stats


def solve_adjoint(space: FeSpace, u: FeFunction, goal,
                  prob: ProblemDefinition, lcfg: LinearSolverConfig = None
                  ) -> tuple[FeFunction, LinearSolveResult]:
    """Discrete adjoint solve: the goal gradient against the transposed
    Jacobian at u, by the factor of that Jacobian.  Linear, backward in
    time."""
    solve = linear_solve(assemble_jacobian(space, u, prob),
                         lcfg or LinearSolverConfig(), space.mesh.dim)
    res = solve(goal.gradient(space, u), "T")
    return FeFunction(space, res.x), res
