"""Quadrature rules on reference simplices.

Triangles at orders 4 and 6 (6 and 12 points, Dunavant, IJNME 21 (1985)) and
tetrahedra at order 6 (24 points, Keast, CMAME 55 (1986)) have tabulated
fully symmetric rules; every other order is a conical product of
Gauss-Jacobi lines (Duffy construction), all from numpy: Gauss-Legendre, and
Golub-Welsch (Math. Comp. 23 (1969)) for the weights (1 - x)^alpha, alpha =
1, 2, so no special-function library is loaded.  All weights are positive
and all points interior.  The reference simplex is {xi_i >= 0, sum xi_i <= 1}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import permutations
from math import factorial

import numpy as np

MAX_ORDER = 12

# Orbits of the symmetric rules, solved from the moment equations to 1e-60:
# the first dim barycentric coordinates of one point (the last is 1 minus
# their sum; the orbit is their distinct permutations) and each point's weight.
_SYMMETRIC = {
    (2, 4): (((0.09157621350977074,) * 2, 0.054975871827660935),
             ((0.4459484909159649,) * 2, 0.11169079483900574)),
    (2, 6): (((0.24928674517091043,) * 2, 0.058393137863189684),
             ((0.06308901449150223,) * 2, 0.02542245318510341),
             ((0.053145049844816945, 0.3103524510337844),
              0.041425537809186785)),
    (3, 6): (((0.21460287125915203,) * 3, 0.006653791709694582),
             ((0.04067395853461135,) * 3, 0.001679535175886774),
             ((0.3223378901422755,) * 3, 0.009226196923942455),
             ((0.06366100187501753,) * 2 + (0.6030056647916492,), 9 / 1120)),
}


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
    if (dim, order) in _SYMMETRIC:
        pts, wts = [], []
        for head, w in _SYMMETRIC[dim, order]:
            orbit = sorted(set(permutations(head + (1 - sum(head),))))
            pts += [xi[:dim] for xi in orbit]
            wts += [w] * len(orbit)
    else:
        pts, wts = _conical(dim, order)
    rule = QuadratureRule(np.array(pts), np.array(wts), order)
    assert abs(rule.weights.sum() - 1.0 / factorial(dim)) < 1e-14
    return rule


def _gauss_jacobi(n: int, alpha: int) -> tuple:
    """n-point Gauss rule on [-1, 1] for the weight (1 - x)^alpha, alpha >= 1:
    the eigenvalues of its Jacobi matrix, and mu_0 = 2^(alpha+1) / (alpha+1)
    (the weight's integral) times the squared first eigenvector entries."""
    k = np.arange(n)
    s = 2 * k + alpha
    diag = -alpha ** 2 / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    off = 2 * k * (k + alpha) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 ** (alpha + 1) / (alpha + 1) * v[0] ** 2


def _conical(dim: int, order: int) -> tuple:
    """Points and weights of the conical product rule of the given order."""
    npts = max(1, (order + 2) // 2)
    lines = []
    for j in range(dim):
        alpha = dim - 1 - j
        if alpha == 0:
            x, w = np.polynomial.legendre.leggauss(npts)
        else:
            x, w = _gauss_jacobi(npts, alpha)
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
    return pts, wts
