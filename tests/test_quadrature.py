import itertools
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_jacobi

from stfem import quadrature, spaces
from stfem.assembly import assemble_jacobian, quadrature_state
from stfem.mesh import build_box_mesh
from stfem.problems import smooth_problem
from stfem.quadrature import QuadratureRule, simplex_rule
from stfem.spaces import FeFunction, FeSpace


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", range(0, 9))
def test_weights_positive_and_sum_to_reference_volume(dim, order):
    rule = simplex_rule(dim, order)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(1.0 / factorial(dim), rel=1e-14)


def _monomial_integral(alpha):
    # int over the unit simplex of prod x_i^a_i = prod a_i! / (|a| + dim)!
    dim = len(alpha)
    num = 1
    for a in alpha:
        num *= factorial(a)
    return num / factorial(sum(alpha) + dim)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 8, 10, 12])
def test_polynomial_exactness(dim, order):
    rule = simplex_rule(dim, order)
    for alpha in itertools.product(range(order + 1), repeat=dim):
        if sum(alpha) > order:
            continue
        val = rule.weights @ np.prod(rule.points ** np.array(alpha), axis=1)
        assert val == pytest.approx(_monomial_integral(alpha), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("n", range(1, 8))
def test_gauss_jacobi_lines_match_scipy(n, alpha):
    x, w = quadrature._gauss_jacobi(n, alpha)
    x_ref, w_ref = roots_jacobi(n, alpha, 0.0)
    assert np.abs(x - x_ref).max() <= 1e-13
    assert np.abs(w - w_ref).max() <= 1e-13 * w_ref.max()


def test_stfem_loads_no_special_function_library():
    # the Gauss-Jacobi lines come from numpy; a fresh interpreter importing
    # the package and its command line must not load scipy.special
    code = ("import sys, stfem, stfem.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.special')))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_specific_reference_values():
    tri = simplex_rule(2, 2)
    assert tri.weights @ tri.points[:, 0] ** 2 == pytest.approx(1.0 / 12.0)
    tet = simplex_rule(3, 3)
    assert tet.weights @ tet.points.prod(axis=1) == pytest.approx(1.0 / 720.0)


def test_unsupported_order_rejected():
    with pytest.raises(ValueError):
        simplex_rule(2, 40)
    with pytest.raises(ValueError):
        simplex_rule(2, -1)
    with pytest.raises(ValueError):
        simplex_rule(5, 2)


SYMMETRIC = [((2, 4), 6), ((2, 6), 12), ((3, 6), 24)]


@pytest.mark.parametrize("key,npts", SYMMETRIC)
def test_symmetric_rule_is_positive_interior_and_exact(key, npts):
    dim, order = key
    rule = simplex_rule(dim, order)
    assert len(rule.weights) == npts
    assert np.all(rule.weights > 0)
    bary = np.column_stack([1.0 - rule.points.sum(axis=1), rule.points])
    assert np.all(bary > 0)
    for alpha in itertools.product(range(order + 1), repeat=dim):
        if sum(alpha) > order:
            continue
        val = rule.weights @ np.prod(rule.points ** np.array(alpha), axis=1)
        assert abs(val - _monomial_integral(alpha)) \
            <= 1e-14 * _monomial_integral(alpha)


@pytest.mark.parametrize("key,npts", SYMMETRIC)
def test_symmetric_rule_is_invariant_under_barycentric_permutations(key, npts):
    dim, order = key
    rule = simplex_rule(dim, order)
    bary = np.column_stack([1.0 - rule.points.sum(axis=1), rule.points])
    for perm in itertools.permutations(range(dim + 1)):
        moved = bary[:, perm]
        # every permuted point is a point of the rule with the same weight
        dist = np.abs(moved[:, None, :] - bary[None, :, :]).max(axis=2)
        match = dist.argmin(axis=1)
        assert dist.min(axis=1).max() < 1e-15
        assert sorted(match) == list(range(npts))
        assert np.array_equal(rule.weights[match], rule.weights)


def test_untabulated_orders_stay_conical():
    assert len(simplex_rule(3, 8).weights) == 125
    assert len(simplex_rule(3, 4).weights) == 27


def _conical_rule(dim, order):
    pts, wts = quadrature._conical(dim, order)
    return QuadratureRule(np.array(pts), np.array(wts), order)


def _p2_state_forms(d):
    """Jacobian and flux part of the residual at p = 4 at a random state, on
    a fresh mesh so that nothing cached on a mesh carries over between
    rules."""
    prob = smooth_problem(d, p=4.0, eps=0.5)
    V = FeSpace(build_box_mesh(d, 2), 2)
    coeffs = np.random.default_rng(3).standard_normal(V.n_dofs)
    st = quadrature_state(V, FeFunction(V, coeffs), prob)
    flux_part = V.integrate_grad_x(st.qorder, st.a[..., None] * st.gx)
    return assemble_jacobian(V, st, prob).toarray(), flux_part


@pytest.mark.parametrize("d", [1, 2])
def test_polynomial_state_forms_do_not_depend_on_the_rule(d, monkeypatch):
    # at p = 4 every P2 state integrand is a polynomial of degree <= 4, so
    # the symmetric and the conical rule of order 6 give the same forms
    K, r = _p2_state_forms(d)
    monkeypatch.setattr(spaces, "simplex_rule", _conical_rule)
    spaces._reference_tables.cache_clear()
    try:
        K_con, r_con = _p2_state_forms(d)
    finally:
        monkeypatch.undo()
        spaces._reference_tables.cache_clear()
    assert len(simplex_rule(d + 1, 6).weights) \
        < len(_conical_rule(d + 1, 6).weights)
    assert np.abs(K - K_con).max() <= 1e-12 * np.abs(K_con).max()
    assert np.abs(r - r_con).max() <= 1e-12 * np.abs(r_con).max()
