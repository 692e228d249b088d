"""Quadrature rules on reference simplices.

Rules are conical products of Gauss-Jacobi lines (Duffy construction), so all
weights are positive and any polynomial exactness degree is available.  The
reference simplex is {xi_i >= 0, sum xi_i <= 1}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import factorial

import numpy as np
from scipy.special import roots_jacobi

MAX_ORDER = 12


@dataclass(frozen=True)
class QuadratureRule:
    """Points (n, dim) in reference coordinates and positive weights (n,)."""

    points: np.ndarray
    weights: np.ndarray
    order: int

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@functools.lru_cache(maxsize=None)
def simplex_rule(dim: int, order: int) -> QuadratureRule:
    """Rule on the reference dim-simplex, exact for total degree <= order."""
    if dim < 1 or dim > 3:
        raise ValueError(f"unsupported simplex dimension {dim}")
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"unsupported quadrature order {order}")

    npts = max(1, (order + 2) // 2)
    lines = []
    for j in range(dim):
        alpha = dim - 1 - j
        if alpha == 0:
            x, w = np.polynomial.legendre.leggauss(npts)
        else:
            x, w = roots_jacobi(npts, alpha, 0.0)
        # map [-1,1] with weight (1-x)^alpha onto [0,1] with (1-s)^alpha
        s = 0.5 * (x + 1.0)
        ws = w / 2.0 ** (alpha + 1)
        lines.append((s, ws))

    pts = []
    wts = []
    for combo in np.ndindex(*(npts,) * dim):
        xi = np.empty(dim)
        rest = 1.0
        w = 1.0
        for j, i in enumerate(combo):
            s, ws = lines[j]
            xi[j] = s[i] * rest
            rest -= xi[j]
            w *= ws[i]
        pts.append(xi)
        wts.append(w)
    rule = QuadratureRule(np.array(pts), np.array(wts), order)
    assert abs(rule.weights.sum() - 1.0 / factorial(dim)) < 1e-14
    return rule
