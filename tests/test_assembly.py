import numpy as np
import pytest
import scipy.sparse as sp

from stfem.assembly import (_scatter_matrix, _time_matrices,
                            assemble_jacobian, assemble_residual,
                            assemble_time_matrix, flux, flux_jacobian,
                            jacobian_form_element_values, quadrature_state,
                            residual_form_element_values)
from stfem.mesh import build_box_mesh, refine, uniform_refine
from stfem.problems import (ProblemDefinition, manufactured_source,
                            smooth_problem, smooth_product_solution)
from stfem.quadrature import simplex_rule
from stfem.solvers import LinearSolverConfig, linear_solve
from stfem.spaces import FeFunction, FeSpace, tabulate_shape, zero_function

PEPS_GRID = [(1.5, 1.0), (1.5, 1e-5), (2.0, 1.0), (2.0, 1e-5),
             (4.0, 1.0), (4.0, 1e-5)]


def random_state(space, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-scale, scale, space.n_dofs)
    u[space.constrained] = 0.0
    return FeFunction(space, u)


def test_flux_trivial_cases():
    g = np.array([0.3, -0.7])
    assert np.allclose(flux(g, 2.0, 0.37), g)
    assert np.allclose(flux(np.array([1.0, 0.0]), 4.0, 1.0), [2.0, 0.0])
    assert np.allclose(flux(np.zeros(1), 1.5, 0.1), 0.0)


def test_flux_jacobian_trivial_cases():
    J = flux_jacobian(np.array([1.0, 0.0]), 4.0, 1.0)
    assert np.allclose(J, [[4.0, 0.0], [0.0, 2.0]])
    g = np.array([0.4, -1.3])
    assert np.allclose(flux_jacobian(g, 2.0, 0.9), np.eye(2))


@pytest.mark.parametrize("p,eps", [(4.0, 1e-5), (1.5, 0.1), (3.0, 1.0)])
def test_flux_jacobian_matches_finite_differences(p, eps):
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = rng.normal(size=2)
        J = flux_jacobian(g, p, eps)
        h = 1e-6
        Jfd = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            Jfd[:, j] = (flux(g + e, p, eps) - flux(g - e, p, eps)) / (2 * h)
        assert np.abs(J - Jfd).max() / np.abs(J).max() < 1e-5


def test_residual_zero_state_zero_source():
    V = FeSpace(build_box_mesh(1, 2), 1)
    prob = ProblemDefinition(p=4.0, eps=1.0, d=1,
                             source=lambda pts: np.zeros(len(pts)))
    r = assemble_residual(V, zero_function(V), prob)
    assert np.all(r == 0.0)


def test_residual_vanishes_at_discrete_heat_solution():
    prob = smooth_problem(1, p=2.0, eps=1.0)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 2), 1)
    # one exact Newton step from zero solves the linear problem
    r0 = assemble_residual(V, zero_function(V), prob)
    K = assemble_jacobian(V, zero_function(V), prob)
    res = linear_solve(K, LinearSolverConfig(kind="direct"))(-r0)
    u = FeFunction(V, res.x)
    r = assemble_residual(V, u, prob)
    load = np.zeros(V.n_dofs)
    pts = V.points(4)
    f = prob.source(pts.reshape(-1, 2)).reshape(pts.shape[:2])
    np.add.at(load, V.elem_dofs,
              np.einsum("eq,qa,eq->ea", V.batch(4)["scale"],
                        V.batch(4)["values"], f))
    assert np.linalg.norm(r) < 1e-10 * np.linalg.norm(load)


def test_reference_element_time_matrix():
    # int over the reference triangle of phi_i * dphi_j/dt
    rule = simplex_rule(2, 2)
    vals, grads = tabulate_shape(2, 1, rule.points)
    T = np.einsum("q,qa,qb->ab", rule.weights, vals, grads[..., -1])
    expected = np.array([[-1.0, 0.0, 1.0]] * 3) / 6.0
    assert np.allclose(T, expected, atol=1e-14)


def test_residual_against_independent_quadrature_oracle():
    # recompute every element integral at the form order 6 with plain loops
    # over the points, then compare with the vectorized assembly
    prob = smooth_problem(1, p=4.0, eps=0.5)
    V = FeSpace(build_box_mesh(1, 2), 1)
    u = random_state(V, seed=9)
    got = quadrature_state(V, u, prob).residual

    rule = simplex_rule(2, 6)
    vals, ref_grads = tabulate_shape(2, 1, rule.points)
    mesh = V.mesh
    for e in range(mesh.n_elements):
        X = mesh.vertices[mesh.elements[e]]
        J = (X[1:] - X[0]).T
        Jit = np.linalg.inv(J).T
        det = abs(np.linalg.det(J))
        expected = np.zeros(3)
        for q, w in enumerate(rule.weights):
            phys = X[0] + J @ rule.points[q]
            gphi = ref_grads[q] @ Jit.T
            uu = u.coeffs[V.elem_dofs[e]]
            du = gphi.T @ uu
            qflux = flux(du[:-1], prob.p, prob.eps)
            fval = prob.source(phys[None])[0]
            for a in range(3):
                expected[a] += w * det * (
                    (du[-1] - fval) * vals[q, a] + qflux @ gphi[a, :-1])
        assert np.abs(got[e] - expected).max() \
            <= 1e-8 * max(1.0, np.abs(expected).max())


@pytest.mark.parametrize("p,eps", PEPS_GRID)
def test_jacobian_is_derivative_of_residual(p, eps):
    prob = smooth_problem(1, p=p, eps=eps)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 1), 1)
    u = random_state(V, seed=3)
    K = assemble_jacobian(V, u, prob)
    rng = np.random.default_rng(17)
    delta = rng.uniform(-1, 1, V.n_dofs)
    delta[V.constrained] = 0.0
    h = 1e-6
    rp = assemble_residual(V, FeFunction(V, u.coeffs + h * delta), prob)
    rm = assemble_residual(V, FeFunction(V, u.coeffs - h * delta), prob)
    fd = (rp - rm) / (2 * h)
    Kd = K @ delta
    assert np.linalg.norm(Kd - fd) <= 1e-5 * np.linalg.norm(Kd)


@pytest.mark.parametrize("p,eps", PEPS_GRID)
def test_jacobian_positive_definite_on_free_dofs(p, eps):
    prob = smooth_problem(1, p=p, eps=eps)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 1), 1)
    K = assemble_jacobian(V, random_state(V, seed=1), prob)
    rng = np.random.default_rng(23)
    for _ in range(100):
        w = rng.normal(size=V.n_dofs)
        w[V.constrained] = 0.0
        assert w @ (K @ w) > 0.0


def test_diffusion_part_is_symmetric():
    prob = smooth_problem(1, p=4.0, eps=1e-2)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 1), 1)
    K = assemble_jacobian(V, random_state(V, seed=2), prob)
    T = assemble_time_matrix(V)
    A = (K - T).toarray()
    # the identity diagonals of K and T cancel in the difference
    assert np.abs(A - A.T).max() < 1e-12 * max(1.0, np.abs(A).max())


def test_p2_reduces_to_time_plus_stiffness():
    prob = smooth_problem(1, p=2.0, eps=0.3)
    V = FeSpace(build_box_mesh(1, 2), 1)
    K1 = assemble_jacobian(V, random_state(V, seed=5), prob)
    K2 = assemble_jacobian(V, zero_function(V), prob)
    # state independence at p=2
    assert np.abs((K1 - K2).toarray()).max() < 1e-13


def test_constrained_rows_are_identity():
    prob = smooth_problem(1, p=4.0, eps=1.0)
    V = FeSpace(build_box_mesh(1, 2), 1)
    K = assemble_jacobian(V, random_state(V, seed=8), prob).toarray()
    for i in np.where(V.constrained)[0]:
        row = np.zeros(V.n_dofs)
        row[i] = 1.0
        assert np.allclose(K[i], row)
        assert np.allclose(K[:, i], row)


def test_dimension_mismatch_rejected():
    prob = smooth_problem(2, p=4.0, eps=1.0)
    V = FeSpace(build_box_mesh(1, 1), 1)
    with pytest.raises(ValueError):
        assemble_residual(V, zero_function(V), prob)


def test_manufactured_source_matches_divergence_oracle():
    # f must equal du/dt - div flux(grad u), the divergence taken by finite
    # differences of the flux field
    from stfem.problems import smooth_product_solution, manufactured_source
    for d in (1, 2):
        exact = smooth_product_solution(d)
        p, eps = 4.0, 1e-5
        f = manufactured_source(exact, p, eps)
        rng = np.random.default_rng(31)
        pts = rng.uniform(0.1, 0.9, size=(10, d + 1))
        h = 1e-6
        div = np.zeros(len(pts))
        for i in range(d):
            e = np.zeros(d + 1)
            e[i] = h
            qp = flux(exact.grad(pts + e), p, eps)
            qm = flux(exact.grad(pts - e), p, eps)
            div += (qp[:, i] - qm[:, i]) / (2 * h)
        expected = exact.dt(pts) - div
        got = f(pts)
        assert np.abs(got - expected).max() <= 1e-5 * np.abs(expected).max()


def physical_gradients(V, order):
    """Reference: per-element physical shape gradients (ne, nq, nloc, D),
    built from the affine maps and the reference gradients."""
    _jac, inv_jac_t, _det = V.geometry()
    return np.einsum("eij,qaj->eqai", inv_jac_t, V.batch(order)["ref_grads"])


def einsum_scatter(V, k_loc):
    ed = V.elem_dofs
    nloc = ed.shape[1]
    rows = np.repeat(ed, nloc, axis=1).ravel()
    cols = np.tile(ed, (1, nloc)).ravel()
    return sp.coo_matrix((k_loc.ravel(), (rows, cols)),
                         shape=(V.n_dofs, V.n_dofs)).tocsr()


def einsum_jacobian(V, u, prob, order):
    """Reference Jacobian without boundary rows: the 4-operand einsum over
    elements, points and both gradient indices."""
    b = V.batch(order)
    _vals, grads = u.at_quadrature(order)
    A = flux_jacobian(grads[..., :-1], prob.p, prob.eps)
    gphi = physical_gradients(V, order)
    gphi_x = gphi[..., :-1]
    k_loc = np.einsum("eq,qa,eqb->eab", b["scale"], b["values"],
                      gphi[..., -1])
    k_loc += np.einsum("eq,eqij,eqbj,eqai->eab", b["scale"], A, gphi_x, gphi_x)
    return einsum_scatter(V, k_loc)


CASES = [(1, 1), (1, 2), (2, 1), (2, 2)]


def case_space(d, degree):
    return FeSpace(uniform_refine(build_box_mesh(d, 2), 1), degree)


def rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("d,degree", CASES)
def test_residual_matches_physical_gradient_einsum(d, degree):
    prob = smooth_problem(d, p=4.0, eps=1e-2)
    V = case_space(d, degree)
    u = random_state(V, seed=12)
    order = V.default_order()
    b = V.batch(order)
    gphi = physical_gradients(V, order)
    grads = np.einsum("eqai,ea->eqi", gphi, u.coeffs[V.elem_dofs])
    f = V.source_values(prob.source, order)
    ref = np.einsum("eq,qa,eq->ea", b["scale"], b["values"],
                    grads[..., -1] - f)
    ref += np.einsum("eq,eqi,eqai->ea", b["scale"],
                     flux(grads[..., :-1], prob.p, prob.eps), gphi[..., :-1])
    assert rel_err(quadrature_state(V, u, prob).residual, ref) <= 1e-12


@pytest.mark.parametrize("d,degree", CASES)
def test_form_values_match_physical_gradient_einsum(d, degree):
    prob = smooth_problem(d, p=4.0, eps=1e-2)
    V = case_space(d, degree)
    u, w, z = (random_state(V, seed=s) for s in (13, 14, 15))
    order = V.default_order()
    b = V.batch(order)
    gphi = physical_gradients(V, order)
    ug, wg, zg = (np.einsum("eqai,ea->eqi", gphi, x.coeffs[V.elem_dofs])
                  for x in (u, w, z))
    wv, zv = (x.coeffs[V.elem_dofs] @ b["values"].T for x in (w, z))
    s = b["scale"]
    f = V.source_values(prob.source, order)
    A = flux_jacobian(ug[..., :-1], prob.p, prob.eps)
    ref_j = np.einsum("eq,eq,eq->e", s, wg[..., -1], zv)
    ref_j += np.einsum("eq,eqij,eqj,eqi->e", s, A, wg[..., :-1], zg[..., :-1])
    ref_r = np.einsum("eq,eq->e", s, (ug[..., -1] - f) * wv)
    q = flux(ug[..., :-1], prob.p, prob.eps)
    ref_r += np.einsum("eq,eqi,eqi->e", s, q, wg[..., :-1])
    got_j = jacobian_form_element_values(V, u, w.coeffs, z.coeffs, prob)
    got_r = residual_form_element_values(V, u, w.coeffs, prob)
    assert rel_err(got_j, ref_j) <= 1e-12
    assert rel_err(got_r, ref_r) <= 1e-12


@pytest.mark.parametrize("d,degree", CASES)
def test_time_matrix_matches_physical_gradient_einsum(d, degree):
    V = case_space(d, degree)
    order = V.default_order()
    b = V.batch(order)
    raw = einsum_scatter(V, np.einsum("eq,qa,eqb->eab", b["scale"],
                                      b["values"],
                                      physical_gradients(V, order)[..., -1]))
    got = assemble_time_matrix(V)
    assert abs(got - identity_rows(V, raw)).max() <= 1e-12 * abs(raw).max()


@pytest.mark.parametrize("d,degree", CASES)
def test_dirichlet_scatter_matches_masked_product(d, degree, monkeypatch):
    # the former boundary treatment: Dm K Dm + Ic on the raw matrix, summed
    # from the assembly's element matrices on the cached pattern in the
    # scatter's order, so that kept entries must match exactly
    import stfem.assembly as assembly
    prob = smooth_problem(d, p=4.0, eps=1e-2)
    V = case_space(d, degree)
    u = random_state(V, seed=16)
    m = V.free.astype(float)
    k_locs = []
    scatter = assembly._scatter_matrix
    monkeypatch.setattr(assembly, "_scatter_matrix",
                        lambda V_, k_loc: k_locs.append(k_loc)
                        or scatter(V_, k_loc))
    for got in (assemble_jacobian(V, u, prob), assemble_time_matrix(V)):
        pat = V.csr_pattern()
        raw = sp.csr_matrix(
            (np.bincount(pat["slot"], weights=k_locs.pop(0).ravel(),
                         minlength=len(pat["indices"])),
             pat["indices"], pat["indptr"]), shape=got.shape)
        ref = (sp.diags(m) @ raw @ sp.diags(m) + sp.diags(1.0 - m)).tocsr()
        ref.sort_indices()
        got.sort_indices()
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)


@pytest.mark.parametrize("d,degree", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_jacobian_matches_four_operand_einsum(d, degree):
    prob = smooth_problem(d, p=4.0, eps=1e-2)
    V = FeSpace(uniform_refine(build_box_mesh(d, 2), 1), degree)
    u = random_state(V, seed=11)
    raw = einsum_jacobian(V, u, prob, V.default_order())
    K = assemble_jacobian(V, u, prob)
    assert abs(K - identity_rows(V, raw)).max() <= 1e-12 * abs(raw).max()


def counting_source(prob):
    """Replace prob.source by a wrapper; returns the list of call sizes."""
    calls = []
    source = prob.source

    def counted(pts):
        calls.append(len(pts))
        return source(pts)

    prob.source = counted
    return calls


@pytest.mark.parametrize("degree", [1, 2])
def test_source_evaluated_once_per_mesh_and_order(degree):
    prob = smooth_problem(1, p=4.0, eps=1e-2)
    calls = counting_source(prob)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 1), degree)
    u = random_state(V, seed=4)
    w = random_state(V, seed=5).coeffs
    assemble_jacobian(V, u, prob)
    jacobian_form_element_values(V, u, w, w, prob)
    assert calls == []  # the linearization never reads f

    # the forms read the load at the form order, the tabulation layer at any
    for _ in range(3):
        assemble_residual(V, u, prob)
        residual_form_element_values(V, u, w, prob)
        assemble_jacobian(V, u, prob)
        V.load_vectors(prob.source, 8)
        V.source_values(prob.source, 8)
    nq = [len(simplex_rule(2, o).weights) for o in (V.default_order(), 8)]
    assert calls == [V.mesh.n_elements * n for n in nq]

    # a second space of either degree on the same mesh evaluates nothing
    for k in (1, 2):
        V2 = FeSpace(V.mesh, k)
        assemble_residual(V2, zero_function(V2), prob)
        V2.load_vectors(prob.source, 8)
    assert len(calls) == 2

    # a new order evaluates once, a space on a refined mesh again
    for _ in range(2):
        V2.source_values(prob.source, 5)
        V2.load_vectors(prob.source, 5)
    assert calls[2:] == [V.mesh.n_elements * len(simplex_rule(2, 5).weights)]
    V3 = FeSpace(uniform_refine(V.mesh, 1), degree)
    V3.load_vectors(prob.source, 8)
    assert calls[3:] == [V3.mesh.n_elements * nq[1]]


def test_cached_source_follows_the_problem():
    # at u = 0 the residual is -int f phi, so a stale source entry on the
    # space would show as the other problem's load
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 1), 2)
    probs = [smooth_problem(1, p=p, eps=1e-2) for p in (4.0, 2.0, 4.0)]
    got = [assemble_residual(V, zero_function(V), prob) for prob in probs]
    for prob, r in zip(probs, got):
        fresh = FeSpace(V.mesh, 2)
        assert np.array_equal(r, assemble_residual(fresh, zero_function(fresh),
                                                   prob))
    assert np.abs(got[0] - got[1]).max() > 1e-3 * np.abs(got[0]).max()


def identity_rows(V, K):
    """Reference boundary treatment of a raw CSR matrix, on a copy: identity
    rows and columns on the constrained dofs, explicit zeros dropped. ``K``
    itself is left raw, so a bound may still be scaled by its entries."""
    rows = np.repeat(np.arange(V.n_dofs), np.diff(K.indptr))
    keep = V.free[rows] & V.free[K.indices]
    out = K.copy()
    out.data = np.where(keep, K.data, rows == K.indices)
    out.eliminate_zeros()
    return out


def marked_space(d, degree):
    mesh = uniform_refine(build_box_mesh(d, 2), 1)
    return FeSpace(refine(mesh, np.arange(0, mesh.n_elements, 3)), degree)


@pytest.mark.parametrize("d,degree", CASES)
def test_cached_scatter_matches_coo_reference(d, degree):
    # every entry against the reference with its identity rows
    V = marked_space(d, degree)
    rng = np.random.default_rng(21)
    nloc = V.n_local
    for _ in range(3):
        k_loc = rng.normal(size=(V.mesh.n_elements, nloc, nloc))
        got = _scatter_matrix(V, k_loc)
        got_sorted = got.copy()
        got_sorted.sort_indices()
        assert np.array_equal(got.indices, got_sorted.indices)
        ref = identity_rows(V, einsum_scatter(V, k_loc))
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.abs(got.data - ref.data).max() \
            <= 1e-14 * np.abs(ref.data).max()


@pytest.mark.parametrize("d,degree", CASES)
def test_csr_pattern_is_built_once_and_never_aliased(d, degree):
    prob = smooth_problem(d, p=4.0, eps=1e-2)
    V = marked_space(d, degree)
    u = random_state(V, seed=18)
    assemblies = (lambda: assemble_jacobian(V, u, prob),
                  lambda: assemble_time_matrix(V))
    first = [assemble() for assemble in assemblies]
    pattern = V.csr_pattern()
    saved = {key: arr.copy() for key, arr in pattern.items()}
    for assemble, K in zip(assemblies, first):
        ref = K.copy()
        K.data[:] = 0.0
        K.sort_indices()
        K.eliminate_zeros()
        again = assemble()
        assert np.array_equal(again.indptr, ref.indptr)
        assert np.array_equal(again.indices, ref.indices)
        assert np.array_equal(again.data, ref.data)
    assert V.csr_pattern() is pattern
    for key, arr in pattern.items():
        assert np.array_equal(arr, saved[key])
        assert not arr.flags.writeable


def test_state_of_another_space_or_problem_is_rejected():
    prob = smooth_problem(1, p=4.0, eps=1e-2)
    V = case_space(1, 1)
    u = random_state(V, seed=19)
    w = random_state(V, seed=20).coeffs
    state = quadrature_state(V, u, prob)
    calls = [
        assemble_residual, assemble_jacobian,
        lambda V_, st, pr: residual_form_element_values(V_, st, w, pr),
        lambda V_, st, pr: jacobian_form_element_values(V_, st, w, w, pr),
    ]
    other_space = FeSpace(V.mesh, 1)
    other_prob = smooth_problem(1, p=4.0, eps=1e-2)
    for call in calls:
        call(V, state, prob)
        for args in ((other_space, state, prob), (V, state, other_prob)):
            with pytest.raises(ValueError):
                call(*args)


@pytest.mark.parametrize("d,degree", CASES)
def test_state_gives_the_same_forms_as_the_function(d, degree):
    prob = smooth_problem(d, p=4.0, eps=1e-2)
    V = case_space(d, degree)
    u, w, z = (random_state(V, seed=s) for s in (22, 23, 24))
    state = quadrature_state(V, u, prob)
    for f in (lambda x: assemble_residual(V, x, prob),
              lambda x: residual_form_element_values(V, x, w.coeffs, prob),
              lambda x: jacobian_form_element_values(V, x, w.coeffs,
                                                     z.coeffs, prob)):
        assert np.array_equal(f(state), f(u))


@pytest.mark.parametrize("d,degree", CASES)
def test_state_evaluates_its_residual_element_vectors_once(d, degree,
                                                           monkeypatch):
    # the global residual and the residual form's element values of one
    # state share one evaluation of the flux integral
    prob = smooth_problem(d, p=4.0, eps=1e-2)
    V = case_space(d, degree)
    u, w = (random_state(V, seed=s) for s in (28, 29))
    state = quadrature_state(V, u, prob)
    calls = []
    integrate = FeSpace.integrate_grad_x
    monkeypatch.setattr(
        FeSpace, "integrate_grad_x",
        lambda self, *a: calls.append(a) or integrate(self, *a))
    assemble_residual(V, state, prob)
    residual_form_element_values(V, state, w.coeffs, prob)
    assert len(calls) == 1
    assert quadrature_state(V, state, prob).residual is state.residual
    assert not state.residual.flags.writeable


def full_order_p1_forms(V, u, w, z, prob, order):
    """Reference: the forms with the state and every term at the given
    order, no one-point rule.  Returns residual element vectors, Jacobian,
    Jacobian and residual form element values."""
    b = V.batch(order)
    _vals, grads = u.at_quadrature(order)
    gx, ut = grads[..., :-1], grads[..., -1]
    s = np.einsum("eqi,eqi->eq", gx, gx) + prob.eps * prob.eps
    a = s ** ((prob.p - 2.0) / 2.0)
    f = V.source_values(prob.source, order)
    r = (b["scale"] * (ut - f)) @ b["values"]
    r += V.integrate_grad_x(order, a[..., None] * gx)

    _jac, inv_jac_t, _det = V.geometry()
    js = inv_jac_t[:, :gx.shape[-1], :]
    upper, lower = b["pairs"]
    jst = np.swapaxes(js, 1, 2)
    h = jst @ np.swapaxes(gx, 1, 2)
    c = b["scale"] * a
    B = h[:, upper] * ((prob.p - 2.0) / s * c)[:, None, :] * h[:, lower]
    B += c[:, None, :] * (jst @ js)[:, upper, lower, None]
    k_loc = B.reshape(len(B), -1) @ b["stiffness_table"]
    k_loc += _time_matrices(V, b).reshape(k_loc.shape)

    _vals, wg = w.at_quadrature(order)
    wx = wg[..., :-1]
    cw = (prob.p - 2.0) * a / s * np.einsum("eqi,eqi->eq", gx, wx)
    v = (b["scale"] * wg[..., -1]) @ b["values"]
    v += V.integrate_grad_x(order, a[..., None] * wx + cw[..., None] * gx)
    return (r, _scatter_matrix(V, k_loc),
            np.einsum("ea,ea->e", v, z.coeffs[V.elem_dofs]),
            np.einsum("ea,ea->e", r, w.coeffs[V.elem_dofs]))


@pytest.mark.parametrize("d", [1, 2])
def test_one_point_p1_state_is_exact_at_the_form_order(d):
    prob = smooth_problem(d, p=4.0, eps=1e-2)
    V = marked_space(d, 1)
    u, w, z = (random_state(V, seed=s) for s in (25, 26, 27))
    r, K, jf, rf = full_order_p1_forms(V, u, w, z, prob, V.default_order())
    st = quadrature_state(V, u, prob)
    assert st.qorder == 1 and st.gx.shape[1] == 1
    assert rel_err(quadrature_state(V, st, prob).residual, r) <= 1e-13
    assert abs(assemble_jacobian(V, st, prob) - K).max() \
        <= 1e-13 * abs(K).max()
    assert rel_err(jacobian_form_element_values(
        V, st, w.coeffs, z.coeffs, prob), jf) <= 1e-13
    assert rel_err(residual_form_element_values(
        V, st, w.coeffs, prob), rf) <= 1e-13


@pytest.mark.parametrize("d", [1, 2])
def test_single_pass_source_equals_the_three_callables(d):
    exact = smooth_product_solution(d)
    p, eps = 4.0, 1e-5
    pts = np.random.default_rng(32).uniform(0.0, 1.0, size=(200, d + 1))
    dt, g, H = exact.derivatives(pts)
    assert np.array_equal(dt, exact.dt(pts))
    assert np.array_equal(g, exact.grad(pts))
    assert np.array_equal(H, exact.hess(pts))
    ref = exact.dt(pts) - np.einsum(
        "nij,nij->n", flux_jacobian(exact.grad(pts), p, eps), exact.hess(pts))
    assert np.array_equal(manufactured_source(exact, p, eps)(pts), ref)
