"""Doerfler marking and the outer adaptive refinement loop.

Each adaptive level solves the nonlinear primal problem (warm-started from the
previous level by nested iteration) and the linear adjoint problem, by the
factor of the Jacobian at the primal Newton's last iterate, then their enriched
counterparts; it localizes the dual-weighted residual estimator, marks a
minimal bulk of elements, and refines.  Uniform mode refines everything and
skips the estimation stages.

The enriched Newton starts from the previous level's enriched solution (from
the injected primal one on the first level and after an unconverged stage),
solves z2 with each iterate's factor, and from the first step on stops once
|rho_2(u2)(z2)| <= ENRICHED_GUARD |eta_h| (Meidner, Rannacher & Vihharev,
J. Numer. Math. 17 (2009)).  A record is converged only if all its solves are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dwr import efficiency, enrich, estimate
from .mesh import SimplicialMesh, refine, uniform_refine
from .problems import ProblemDefinition
from .solvers import (LinearSolverConfig, NewtonConfig, newton_solve,
                      random_initial_guess, solve_adjoint)
from .spaces import FeFunction, FeSpace, error_norms, inject, transfer

# fraction of |eta_h| allowed to the enriched iteration error rho_2(u2)(z2)
ENRICHED_GUARD = 0.1


@dataclass
class AdaptiveConfig:
    mode: str = "dwr"  # "dwr" or "uniform"
    theta: float = 0.5
    max_dofs: int = 100_000
    max_levels: int = 40
    degree: int = 1
    uniform_rounds: int = 1  # bisection sweeps per uniform level
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("dwr", "uniform"):
            raise ValueError(f"unknown adaptive mode {self.mode!r}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("Doerfler fraction must be in (0, 1]")
        if self.max_levels < 1:
            raise ValueError("max_levels must be at least 1")
        if self.uniform_rounds < 1:
            raise ValueError("uniform_rounds must be at least 1")
        if self.mode == "dwr" and self.degree != 1:
            raise ValueError("dwr mode enriches degree 1 to 2; use degree=1")


@dataclass
class ConvergenceRecord:
    """Per-level quantities of an adaptive or uniform run."""

    level: int
    dofs: int
    elements: int
    J_h: float = np.nan
    J_error: float = np.nan
    eta_h: float = np.nan
    eta_h_p: float = np.nan
    eta_h_a: float = np.nan
    eta_k: float = np.nan
    I_eff_h: float = np.nan
    I_eff_p: float = np.nan
    I_eff_a: float = np.nan
    newton_iters: int = 0
    inner_iters: int = 0
    l2_Q_error: float = np.nan
    l2_h1_error: float = np.nan
    converged: bool = True
    newton_tol: float = np.nan
    pu_gap: float = np.nan
    indicators: Optional[np.ndarray] = field(default=None, repr=False)
    marked: Optional[np.ndarray] = field(default=None, repr=False)

    CSV_FIELDS = ("level", "dofs", "elements", "J_h", "J_error", "eta_h",
                  "eta_h_p", "eta_h_a", "eta_k", "I_eff_h", "I_eff_p",
                  "I_eff_a", "newton_iters", "inner_iters", "l2_Q_error",
                  "l2_h1_error")


def doerfler_mark(indicators: np.ndarray, theta: float) -> np.ndarray:
    """Smallest set of elements whose |indicators| cover theta of the total.

    Elements are taken in order of decreasing magnitude; the returned set is
    minimal: dropping its smallest member breaks the coverage condition.
    Equal magnitudes are taken lowest element index first (stable sort), so
    a rounding-level change in two tied indicators, e.g. on mirror-image
    elements, can swap which of them is marked.
    """
    ind = np.abs(np.asarray(indicators, dtype=float))
    if not np.all(np.isfinite(ind)):
        raise ValueError("indicators must be finite")
    total = ind.sum()
    if total == 0.0:
        return np.array([], dtype=np.int64)
    order = np.argsort(-ind, kind="stable")
    csum = np.cumsum(ind[order])
    target = theta * total
    m = int(np.searchsorted(csum, target * (1.0 - 1e-12)))
    m = min(m, len(ind) - 1)
    return np.sort(order[:m + 1])


@dataclass
class AdaptiveResult:
    records: list
    mesh: SimplicialMesh
    u: FeFunction
    converged: bool


def adaptive_loop(prob: ProblemDefinition, goal, mesh: SimplicialMesh,
                  cfg: AdaptiveConfig = None, ncfg: NewtonConfig = None,
                  lcfg: LinearSolverConfig = None,
                  callback=None) -> AdaptiveResult:
    """Run the adaptive (or uniform) refinement loop until the dof budget or
    level cap is reached.  Solver failures are recorded and the loop proceeds;
    the result is converged only if every level's record is.
    """
    cfg = cfg or AdaptiveConfig()
    if cfg.mode == "dwr" and goal is None:
        raise ValueError("dwr mode needs a goal functional")
    ncfg = ncfg or NewtonConfig()
    lcfg = lcfg or LinearSolverConfig()
    records = []
    u_prev = None
    u2_prev = None  # last converged enriched solution, for nested iteration
    u = None

    for level in range(cfg.max_levels):
        space = FeSpace(mesh, cfg.degree)

        if u_prev is not None:
            init = transfer(u_prev, space)
            u_prev = u = z = stats = None  # free the coarse level's space
        else:
            init = random_initial_guess(space, seed=cfg.seed)
        u, stats = newton_solve(prob, space, init, ncfg, lcfg,
                                goal=goal if cfg.mode == "dwr" else None)

        rec = ConvergenceRecord(level=level, dofs=space.n_dofs,
                                elements=mesh.n_elements,
                                newton_iters=stats.newton_iters,
                                inner_iters=stats.total_inner_iters,
                                newton_tol=stats.tol,
                                converged=stats.converged)

        if goal is not None:
            rec.J_h = goal.value(space, u)
            if prob.exact_goal is not None:
                rec.J_error = prob.exact_goal - rec.J_h
        if prob.exact is not None:
            rec.l2_Q_error, rec.l2_h1_error = error_norms(
                u, prob.exact.value, prob.exact.grad)

        if cfg.mode == "dwr":
            z = stats.adjoint
            if z is None:  # the line search failed before z was solved
                z, _ = solve_adjoint(space, u, goal, prob, lcfg)
            space2 = enrich(space)
            init2 = inject(u, space2) if u2_prev is None \
                else transfer(u2_prev, space2)
            u2_prev = u2 = z2 = stats2 = None  # free the coarse P2 space
            bd = None

            def guard(u2, r2, z2):
                nonlocal bd
                bd = estimate(prob, goal, u, z, u2, z2)
                return abs(r2 @ z2.coeffs) <= ENRICHED_GUARD * abs(bd.eta_h)

            u2, stats2 = newton_solve(prob, space2, init2, ncfg, lcfg,
                                      goal=goal, stop=guard)
            u2_prev = u2 if stats2.converged else None
            if bd is None:  # the line search failed at the start
                z2, _ = solve_adjoint(space2, u2, goal, prob, lcfg)
                bd = estimate(prob, goal, u, z, u2, z2)
            rec.inner_iters += stats2.total_inner_iters
            rec.converged = stats.converged and stats2.converged
            rec.eta_h_p, rec.eta_h_a = bd.eta_h_p, bd.eta_h_a
            rec.eta_h, rec.eta_k = bd.eta_h, bd.eta_k
            rec.pu_gap = abs(bd.local.sum() - bd.eta_h)
            rec.indicators = bd.local
            if prob.exact_goal is not None:
                ih, ip, ia = efficiency(bd, prob.exact_goal, rec.J_h)
                if ih is not None:
                    rec.I_eff_h, rec.I_eff_p, rec.I_eff_a = ih, ip, ia

        records.append(rec)
        if callback is not None:
            callback(level, mesh, space, u, rec)
        if space.n_dofs >= cfg.max_dofs or level == cfg.max_levels - 1:
            break

        if cfg.mode == "dwr":
            marked = doerfler_mark(rec.indicators, cfg.theta)
            rec.marked = marked
            if marked.size == 0:
                break
            mesh = refine(mesh, marked)
        else:
            mesh = uniform_refine(mesh, cfg.uniform_rounds)
        u_prev = u

    return AdaptiveResult(records, mesh, u,
                          all(r.converged for r in records))
