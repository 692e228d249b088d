"""Dual-weighted residual error estimation with partition-of-unity localization.

The goal error J(u) - J(u_h) is estimated from enriched primal and adjoint
solutions by

    eta_h,p = rho(u_h)(z2 - z_h),   primal residual weighted by adjoint error,
    eta_h,a = J'(u_h)(u2 - u_h) - A'(u_h)(u2 - u_h, z_h),
    eta_k   = rho(u_h)(z_h),        iteration error, zero at exact solves,

with rho the negative weak residual.  The discretization estimate is
eta_h = (eta_h,p + eta_h,a)/2, split into element contributions eta_i by
multiplying the weights with the indicator function of each element, so the
contributions telescope exactly to eta_h.

(u2, z2) need only the estimator's accuracy: z2 solves K(u2)^T z2 = J'(u2)
at the last enriched Newton iterate, which stops once |rho_2(u2)(z2)| <=
0.1 |eta_h| (``adaptivity.ENRICHED_GUARD``).

The goal enters through its element vectors alone (``stfem.goals.Goal``):
J'(u_h)(u2 - u_h) is the sum of ``goal.derivative_element_values``, so a
weighted sum of goals needs nothing more here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (assemble_jacobian, assemble_residual,
                       jacobian_form_element_values, quadrature_state,
                       residual_form_element_values)
from .problems import ProblemDefinition
from .spaces import FeFunction, FeSpace, inject


@dataclass
class EstimatorBreakdown:
    """Estimator parts and per-element indicators."""

    eta_h_p: float
    eta_h_a: float
    eta_h: float
    eta_k: float
    local: np.ndarray

    @property
    def estimate(self) -> float:
        """Estimated goal error, eta_h - eta_k."""
        return self.eta_h - self.eta_k


def enrich(space: FeSpace) -> FeSpace:
    """Degree-raised space on the same mesh; the input space is nested in it."""
    if space.degree != 1:
        raise ValueError("enrichment beyond degree 2 is not supported")
    return FeSpace(space.mesh, 2)


def estimate(prob: ProblemDefinition, goal, u: FeFunction, z: FeFunction,
             u2: FeFunction, z2: FeFunction) -> EstimatorBreakdown:
    """Estimator parts from coarse solutions (u, z) and enriched (u2, z2).

    The coarse functions are injected into the enriched space; all forms are
    evaluated there at the form order that the coarse solve also used
    (``FeSpace.default_order``), so the iteration part eta_k coincides with
    the converged coarse residual up to solver tolerance.
    """
    space2 = u2.space
    if z2.space is not space2:
        raise ValueError("enriched primal and adjoint spaces differ")
    if u.space.mesh is not space2.mesh:
        raise ValueError("coarse and enriched spaces live on different meshes")

    ut = inject(u, space2)
    zt = inject(z, space2)
    wz = z2.coeffs - zt.coeffs
    wu = u2.coeffs - ut.coeffs

    # one quadrature state at inject(u) serves every form below; its
    # residual element vectors, evaluated once, give both r2 and loc_p
    st = quadrature_state(space2, ut, prob)

    # global parts via assembled operators
    r2 = assemble_residual(space2, st, prob)
    eta_h_p = -float(r2 @ wz)
    eta_k = -float(r2 @ zt.coeffs)
    K2 = assemble_jacobian(space2, st, prob)
    # J'(u)(w) per element; its sum is the global J'(u)(w)
    loc_j = goal.derivative_element_values(ut, wu)
    eta_h_a = float(loc_j.sum()) - float(zt.coeffs @ (K2 @ wu))
    eta_h = 0.5 * (eta_h_p + eta_h_a)

    # element-restricted split of the same forms: (loc_p + loc_a) / 2
    loc_p = -residual_form_element_values(space2, st, wz, prob)
    loc_a = loc_j \
        - jacobian_form_element_values(space2, st, wu, zt.coeffs, prob)
    local = 0.5 * (loc_p + loc_a)

    return EstimatorBreakdown(eta_h_p=eta_h_p, eta_h_a=eta_h_a, eta_h=eta_h,
                              eta_k=eta_k, local=local)


def efficiency(breakdown: EstimatorBreakdown, j_exact: float,
               j_h: float) -> tuple:
    """Efficiency indices estimator/(true goal error); absent for zero error."""
    err = j_exact - j_h
    if abs(err) < 1e-14:
        return (None, None, None)
    return (breakdown.eta_h / err, breakdown.eta_h_p / err,
            breakdown.eta_h_a / err)
