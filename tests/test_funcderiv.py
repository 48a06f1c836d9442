"""Tests for functional-derivative checks and trained-measure derivatives."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab import losses
from gibbslab.funcderiv import (TrainedDerivatives, build_Cm,
                                check_linear_derivative, dm_dnu,
                                finite_diff_dm_dnu, gauss_legendre_01)
from gibbslab.gibbs import CurvatureKernel, GibbsConfig, Regularizer
from gibbslab.measures import (DataPoint, GridMeasure, MeasureBatch,
                               convex_combination, empirical_from_arrays,
                               uniform_grid, uniform_grid_1d)

EP_CFG = GibbsConfig(beta=1.0, sigma=1.0, p=4,
                     regularizer=Regularizer(kappa=0.05, q=3),
                     nodes_per_axis=257)
NN_CFG = GibbsConfig(beta=0.7, sigma=1.0, p=4, theta_dim=2,
                     nodes_per_axis=33)
SOLVE_EP = {"damping": 1.0, "tol": 1e-12}
SOLVE_NN = {"damping": 0.5, "tol": 1e-10}


def ep_problem(seed=0, n=6):
    rng = np.random.default_rng(seed)
    nu = empirical_from_arrays(np.zeros((n, 0)), rng.standard_normal(n))
    return losses.mean_squared_param_loss(), nu


def nn_problem(seed=1, n=5):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, 1))
    ys = np.tanh(1.1 * xs[:, 0]) + 0.05 * rng.standard_normal(n)
    return losses.NNLoss("tanh", "quadratic"), empirical_from_arrays(xs, ys)


def bump_1d(center, scale, nodes, vol):
    dens = np.exp(-((nodes[:, 0] - center) ** 2) / (2 * scale * scale))
    return GridMeasure(nodes, vol, dens, normalize=True)


# ---------------------------------------------------------------------------
# quadrature and the expansion check


def test_gauss_legendre_01_integrates_polynomials_exactly():
    for n in (1, 2, 4, 8):
        x, w = gauss_legendre_01(n)
        assert np.all((x > 0) & (x < 1))
        np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-14)
        # exact through degree 2n - 1
        for k in range(2 * n):
            np.testing.assert_allclose(w @ x ** k, 1.0 / (k + 1),
                                       rtol=1e-12, atol=1e-14)
    with pytest.raises(ValueError):
        gauss_legendre_01(0)


def test_gauss_legendre_01_is_cached_and_read_only():
    x, w = gauss_legendre_01(8)
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.5
    lx, lw = np.polynomial.legendre.leggauss(8)
    for _ in range(2):
        again = gauss_legendre_01(8)
        np.testing.assert_array_equal(again[0], 0.5 * (lx + 1.0))
        np.testing.assert_array_equal(again[1], 0.5 * lw)
    with pytest.raises(ValueError):
        gauss_legendre_01(0)


def test_check_linear_derivative_accepts_true_derivative():
    model, _ = ep_problem()
    nodes, vol = uniform_grid_1d(0.0, 3.0, 301)
    m0 = bump_1d(-0.4, 0.5, nodes, vol)
    m1 = bump_1d(0.6, 0.3, nodes, vol)
    z = DataPoint(np.zeros(0), 0.7)
    res = check_linear_derivative(
        lambda m: losses.loss_value(model, m, z),
        lambda m: losses.loss_dm(model, m, z, nodes),
        m0, m1)
    assert res < 1e-12


def test_check_linear_derivative_rejects_corrupted_derivative():
    # the check is a real oracle: a 10% miscalibration is caught
    model, _ = ep_problem()
    nodes, vol = uniform_grid_1d(0.0, 3.0, 301)
    m0 = bump_1d(-0.4, 0.5, nodes, vol)
    m1 = bump_1d(0.6, 0.3, nodes, vol)
    z = DataPoint(np.zeros(0), 0.7)
    res = check_linear_derivative(
        lambda m: losses.loss_value(model, m, z),
        lambda m: 1.1 * losses.loss_dm(model, m, z, nodes),
        m0, m1)
    assert res > 1e-3


def test_check_linear_derivative_requires_shared_grid():
    n0, v0 = uniform_grid_1d(0.0, 1.0, 11)
    n1, v1 = uniform_grid_1d(0.0, 2.0, 11)
    m0 = GridMeasure(n0, v0, np.ones(11), normalize=True)
    m1 = GridMeasure(n1, v1, np.ones(11), normalize=True)
    with pytest.raises(ValueError):
        check_linear_derivative(lambda m: 0.0, lambda m: np.zeros(11),
                                m0, m1)


def per_lambda_residual(value_fn, deriv_fn, m0, m1, lambda_nodes):
    """Oracle of :func:`check_linear_derivative`: one blend at a time, by
    ``convex_combination`` and a one-measure derivative."""
    delta_w = (m1.density - m0.density) * m0.cell_volumes
    inner = 0.0
    for lam, wt in zip(*gauss_legendre_01(lambda_nodes)):
        vals = np.asarray(deriv_fn(convex_combination(m0, m1, float(lam))),
                          dtype=float)
        inner += wt * float(vals @ delta_w)
    return abs(float(value_fn(m1)) - float(value_fn(m0)) - inner)


def segment_case(name):
    """``(model, m0, m1, z)``: a network on a 2-D grid, named by its outer
    loss, or a parametric loss on a 1-D grid."""
    if name in ("mean_squared", "linear_regression"):
        nodes, vol = uniform_grid_1d(0.0, 3.0, 129)
        m0, m1 = bump_1d(-0.4, 0.5, nodes, vol), bump_1d(0.6, 0.3, nodes, vol)
        model = getattr(losses, f"{name}_param_loss")()
        x = np.zeros(0) if name == "mean_squared" else np.array([0.9])
        return model, m0, m1, DataPoint(x, 0.7)
    nodes, vol = uniform_grid(2.0, 25, 2)

    def bump(center, scale):
        dens = np.exp(-np.sum((nodes - center) ** 2, axis=1)
                      / (2 * scale * scale))
        return GridMeasure(nodes, vol, dens, normalize=True)

    return (losses.NNLoss("tanh", name), bump((-0.4, 0.2), 0.5),
            bump((0.6, -0.3), 0.4), DataPoint(np.array([0.7]), 0.3))


SEGMENT_CASES = ("quadratic", "logcosh", "product_margin", "mean_squared",
                 "linear_regression")


@pytest.mark.parametrize("lambda_nodes", [1, 4, 8, 64])
@pytest.mark.parametrize("case", SEGMENT_CASES)
def test_batched_expansion_residual_equals_per_lambda_oracle(case,
                                                             lambda_nodes):
    model, m0, m1, z = segment_case(case)
    seen = []

    def deriv(m):
        # the blends and derivative rows as well: a residual near rounding
        # can agree while they do not
        out = losses.loss_dm(model, m, z, m0.nodes)
        seen.append((np.atleast_2d(m.density), np.atleast_2d(out)))
        return out

    args = (lambda m: losses.loss_value(model, m, z), deriv,
            m0, m1, lambda_nodes)
    assert check_linear_derivative(*args) == per_lambda_residual(*args)
    for batched, one_by_one in zip(seen[0], zip(*seen[1:])):
        np.testing.assert_array_equal(batched, np.concatenate(one_by_one))


@pytest.mark.parametrize("case", SEGMENT_CASES)
def test_loss_dm_on_a_batch_equals_each_row(case):
    model, m0, m1, z = segment_case(case)
    lams = np.array([0.1, 0.5, 0.9])
    batch = MeasureBatch(
        m0.nodes, m0.cell_volumes,
        (1.0 - lams)[:, None] * m0.density + lams[:, None] * m1.density)
    got = losses.loss_dm(model, batch, z, m0.nodes)
    assert got.shape == (3, m0.n_nodes)
    for r in range(3):
        np.testing.assert_array_equal(
            got[r], losses.loss_dm(model, batch[r], z, m0.nodes))


def test_check_linear_derivative_needs_one_row_per_blend():
    _, m0, m1, _ = segment_case("mean_squared")
    n = m0.n_nodes
    for lambda_nodes, rows in ((1, np.zeros(n)), (8, np.zeros(n)),
                               (8, np.zeros((4, n)))):
        with pytest.raises(ValueError, match="one row per blend"):
            check_linear_derivative(lambda m: 0.0, lambda m: rows, m0, m1,
                                    lambda_nodes=lambda_nodes)


def test_check_linear_derivative_rejects_signed_end_points():
    _, m0, m1, _ = segment_case("mean_squared")
    signed = GridMeasure(m0.nodes, m0.cell_volumes, m1.density - m0.density,
                         signed=True)
    for a, b in ((m0, signed), (signed, m1)):
        with pytest.raises(ValueError, match="unsigned"):
            check_linear_derivative(lambda m: 0.0,
                                    lambda m: np.zeros((8, m0.n_nodes)), a, b)


# ---------------------------------------------------------------------------
# curvature kernel


def dense_kernel(kern):
    """The N x N kernel ``A diag(c) A^T`` assembled from its factor."""
    return (kern.features * kern.curvatures) @ kern.features.T


def test_build_cm_zero_for_param_losses():
    model, nu = ep_problem()
    td = TrainedDerivatives(model, nu, EP_CFG, solve_kwargs=SOLVE_EP)
    kern = build_Cm(model, td.measure, nu)
    assert kern.rank == 0
    assert np.all(dense_kernel(kern) == 0.0)
    assert np.all(kern.apply(np.ones(td.measure.n_nodes)) == 0.0)
    np.testing.assert_array_equal(kern.weights, td.measure.node_weights)


def test_build_cm_symmetric_and_psd_for_network_losses():
    model, nu = nn_problem()
    td = TrainedDerivatives(model, nu, NN_CFG, solve_kwargs=SOLVE_NN)
    kern = build_Cm(model, td.measure, nu)
    assert kern.rank == nu.n_atoms
    dense = dense_kernel(kern)
    np.testing.assert_allclose(dense, dense.T, atol=1e-14)
    assert np.max(np.abs(dense)) > 0.0
    # PSD in the weighted inner product: f' W K W f >= 0
    rng = np.random.default_rng(2)
    w = kern.weights
    for _ in range(20):
        f = rng.standard_normal(td.measure.n_nodes)
        quad = float((w * f) @ dense @ (w * f))
        assert quad >= -1e-12
    # apply() implements the weighted action
    f = rng.standard_normal(td.measure.n_nodes)
    np.testing.assert_allclose(kern.apply(f), dense @ (w * f), rtol=1e-12)


@pytest.mark.parametrize("outer", ["quadratic", "logcosh"])
def test_curvature_kernel_is_the_derivative_of_dm(outer):
    # the kernel acting on m1 - m equals the m-centered central difference
    # of the risk derivative dm along m -> m1: build_Cm is the second
    # measure derivative of the loss
    model = losses.NNLoss("tanh", outer)
    _, nu = nn_problem()
    nodes, vol = uniform_grid(2.0, 33, 2)

    def bump(center, scale):
        dens = np.exp(-np.sum((nodes - center) ** 2, axis=1) / scale ** 2)
        return GridMeasure(nodes, vol, dens, normalize=True)

    m, m1 = bump((0.3, -0.2), 0.6), bump((-0.5, 0.7), 0.4)
    kern = build_Cm(model, m, nu)
    a = kern.features
    action = a @ (kern.curvatures * (a.T @ ((m1.density - m.density) * vol)))

    def dm_at(t):
        m_t = GridMeasure(nodes, vol, m.density + t * (m1.density - m.density))
        return model.dm(m_t, nu.xs, nu.ys, nu.weights, nodes)

    eps = 1e-6
    fd = (dm_at(eps) - dm_at(-eps)) / (2 * eps)
    fd -= fd @ m.node_weights
    assert not model.has_zero_d2m()
    np.testing.assert_allclose(fd, action, rtol=0,
                               atol=1e-8 * np.max(np.abs(action)))


def test_kernel_matrix_validation():
    with pytest.raises(ValueError):
        CurvatureKernel(np.zeros(3), np.zeros(1), np.zeros(3))
    with pytest.raises(ValueError):
        CurvatureKernel(np.zeros((3, 2)), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        CurvatureKernel(np.zeros((3, 2)), np.zeros(2), np.zeros(2))
    kern = CurvatureKernel(np.zeros((3, 2)), np.zeros(2), np.zeros(3))
    assert kern.rank == 2
    assert kern.system(1.0).shape == (2, 2)


# ---------------------------------------------------------------------------
# risk derivative and its data-direction derivative


def test_s_value_matches_manual_average_of_loss_dm():
    model, nu = ep_problem(seed=3)
    theta = np.linspace(-1, 1, 7)[:, None]
    td = TrainedDerivatives(model, nu, EP_CFG, solve_kwargs=SOLVE_EP)
    manual = sum(nu.weights[i]
                 * losses.loss_dm(model, td.measure, nu.point(i), theta)
                 for i in range(nu.n_atoms))
    vals = td.s_values(theta)
    np.testing.assert_allclose(vals, manual, rtol=1e-12)


def test_s_derivative_zero_mean_and_contraction():
    for make, cfg, kw in ((ep_problem, EP_CFG, SOLVE_EP),
                          (nn_problem, NN_CFG, SOLVE_NN)):
        model, nu = make()
        td = TrainedDerivatives(model, nu, cfg, solve_kwargs=kw)
        m = td.measure
        z = nu.point(0)
        sd = td.s_derivative(z)
        np.testing.assert_allclose(sd.values @ m.node_weights, 0.0,
                                   atol=1e-10)
        # the solve contracts in L2(m): ||v|| <= ||L||
        rhs = (losses.loss_dm(model, m, z, m.nodes)
               - model.dm(m, nu.xs, nu.ys, nu.weights, m.nodes))
        norm_v = float((sd.values ** 2) @ m.node_weights)
        norm_l = float((rhs ** 2) @ m.node_weights)
        assert norm_v <= norm_l * (1.0 + 1e-10)


def test_dm_dnu_is_signed_with_zero_total_mass():
    model, nu = nn_problem(seed=4)
    deriv = dm_dnu(model, nu, NN_CFG, nu.point(1), solve_kwargs=SOLVE_NN)
    assert deriv.signed
    np.testing.assert_allclose(deriv.node_weights.sum(), 0.0, atol=1e-12)


def test_dm_dnu_matches_finite_difference_param():
    model, nu = ep_problem(seed=5)
    z = nu.point(0)
    an = dm_dnu(model, nu, EP_CFG, z, solve_kwargs=SOLVE_EP)
    fd = finite_diff_dm_dnu(model, nu, EP_CFG, z, eps=1e-4,
                            solve_kwargs=SOLVE_EP)
    rel = (np.abs(an.node_weights - fd.node_weights).sum()
           / np.abs(fd.node_weights).sum())
    assert rel <= 1e-3


def test_dm_dnu_matches_finite_difference_network():
    model, nu = nn_problem(seed=6, n=4)
    z = nu.point(2)
    an = dm_dnu(model, nu, NN_CFG, z, solve_kwargs=SOLVE_NN)
    fd = finite_diff_dm_dnu(model, nu, NN_CFG, z, eps=1e-4,
                            solve_kwargs=SOLVE_NN)
    rel = (np.abs(an.node_weights - fd.node_weights).sum()
           / np.abs(fd.node_weights).sum())
    assert rel <= 1e-2


def test_finite_difference_richardson_consistency():
    # halving eps roughly halves the distance to the analytic value,
    # confirming the differencing error is the dominant one
    model, nu = ep_problem(seed=7)
    z = nu.point(1)
    an = dm_dnu(model, nu, EP_CFG, z, solve_kwargs=SOLVE_EP).node_weights
    err = []
    for eps in (2e-3, 1e-3):
        fd = finite_diff_dm_dnu(model, nu, EP_CFG, z, eps=eps,
                                solve_kwargs=SOLVE_EP).node_weights
        err.append(np.abs(fd - an).sum())
    ratio = err[0] / err[1]
    assert 1.5 < ratio < 2.5
    with pytest.raises(ValueError):
        finite_diff_dm_dnu(model, nu, EP_CFG, z, eps=0.9)


def test_dm_dnu_covariance_form_for_param_losses():
    # for losses linear in the measure the derivative reduces to
    # -temperature * Cov_m(f, centered loss) for any test function f
    model, nu = ep_problem(seed=8)
    td = TrainedDerivatives(model, nu, EP_CFG, solve_kwargs=SOLVE_EP)
    m = td.measure
    z = nu.point(0)
    deriv = td.dm_dnu(z)
    v = td.s_derivative(z).values
    w = m.node_weights
    rng = np.random.default_rng(9)
    for _ in range(20):
        f = np.cos(rng.uniform(0.2, 3.0) * m.nodes[:, 0] + rng.uniform(0, 6))
        lhs = float(f @ deriv.node_weights)
        cov = float((f * v) @ w) - float(f @ w) * float(v @ w)
        np.testing.assert_allclose(lhs, -EP_CFG.temperature * cov,
                                   atol=1e-10)


def test_trained_derivatives_caches_solution():
    model, nu = ep_problem(seed=10)
    td = TrainedDerivatives(model, nu, EP_CFG, solve_kwargs=SOLVE_EP)
    assert td.solution is td.solution
    assert td.measure is td.measure
    assert td.kernel is td.kernel


def test_dense_solve_node_cap():
    # 129^2 = 16641 nodes: a grid the dense N x N solve used to refuse
    big = GibbsConfig(beta=0.7, sigma=1.0, p=4, theta_dim=2,
                      nodes_per_axis=129)
    model, nu = nn_problem(seed=11)
    td = TrainedDerivatives(model, nu, big, solve_kwargs=SOLVE_NN)
    assert td.measure.n_nodes == 16641
    z = nu.point(0)
    deriv = td.dm_dnu(z)
    np.testing.assert_allclose(deriv.node_weights.sum(), 0.0, atol=1e-12)
    m = td.measure
    v = td.s_derivative(z).values
    w = m.node_weights
    for k in range(10):
        f = np.cos(m.nodes @ np.array([0.5 + 0.25 * k, 0.3 - 0.1 * k])
                   + 0.1 * k)
        cov = float((f * v) @ w) - float(f @ w) * float(v @ w)
        assert abs(float(f @ deriv.node_weights)
                   + big.temperature * cov) <= 1e-8


@pytest.mark.parametrize("nodes", [17, 33])
@pytest.mark.parametrize("atoms", [5, 64])
def test_woodbury_matches_dense_lu(nodes, atoms):
    # oracle: the N x N system (I + tau K W) v = L assembled atom by atom
    # and solved by dense LU (LAPACK gesv: getrf + getrs)
    cfg = GibbsConfig(beta=0.7, sigma=1.0, p=4, theta_dim=2,
                      nodes_per_axis=nodes)
    model, nu = nn_problem(seed=12, n=atoms)
    td = TrainedDerivatives(model, nu, cfg, solve_kwargs=SOLVE_NN)
    m = td.measure
    preds = model.predict(m, nu.xs)
    curvs = nu.weights * model.outer.d2(preds, nu.ys)
    feats = model.phi(m.nodes, nu.xs)
    entries = np.zeros((m.n_nodes, m.n_nodes))
    for i in range(nu.n_atoms):
        a = feats[:, i] - preds[i]
        entries += curvs[i] * np.outer(a, a)
    system = np.eye(m.n_nodes) + cfg.temperature * entries * m.node_weights
    s_nodes = td.s_values(m.nodes)
    for z in (nu.point(0), DataPoint(np.array([0.3]), -0.2)):
        rhs = losses.loss_dm(model, m, z, m.nodes) - s_nodes
        dense = np.linalg.solve(system, rhs)
        fast = td.s_derivative(z).values
        assert (np.max(np.abs(fast - dense))
                <= 1e-12 * np.max(np.abs(dense)))


@pytest.mark.parametrize("chunk", [losses._CHUNK_ELEMENTS, 1000])
def test_dm_dnu_matches_dense_lu_across_row_chunks(monkeypatch, chunk):
    # 1089 nodes by 64 atoms: the shipped chunk splits the rows into two
    # (1024 and 65), and 1000 elements into 73 ragged 15-row chunks; the
    # oracle is the N x N system solved by dense LU, as above
    monkeypatch.setattr(losses, "_CHUNK_ELEMENTS", chunk)
    model, nu = nn_problem(seed=15, n=64)
    td = TrainedDerivatives(model, nu, NN_CFG, solve_kwargs=SOLVE_NN)
    m, tau = td.measure, NN_CFG.temperature
    w = m.node_weights
    preds = model.predict(m, nu.xs)
    a = model.phi(m.nodes, nu.xs) - preds
    curvs = nu.weights * model.outer.d2(preds, nu.ys)
    system = np.eye(m.n_nodes) + tau * ((a * curvs) @ a.T) * w
    s_nodes = td.s_values(m.nodes)
    for z in (nu.point(3), DataPoint(np.array([-0.4]), 0.25)):
        v = np.linalg.solve(system,
                            losses.loss_dm(model, m, z, m.nodes) - s_nodes)
        want = -tau * m.density * (v - v @ w)
        got = td.dm_dnu(z).density
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_first_direction_evaluates_the_data_features_once(monkeypatch):
    # the kernel and the data measure's part of every right-hand side
    # share one (N, n) evaluation of the features
    model, nu = nn_problem(seed=14, n=8)
    td = TrainedDerivatives(model, nu, NN_CFG, solve_kwargs=SOLVE_NN)
    m = td.measure
    shapes, phi = [], losses.NNLoss.phi

    def counted(self, theta, xs):
        shapes.append(phi(self, theta, xs).shape)
        return phi(self, theta, xs)

    monkeypatch.setattr(losses.NNLoss, "phi", counted)
    td.dm_dnu(nu.point(0))
    assert shapes.count((m.n_nodes, nu.n_atoms)) == 1
    td.dm_dnu(DataPoint(np.array([0.3]), -0.2))
    assert shapes.count((m.n_nodes, nu.n_atoms)) == 1
    monkeypatch.undo()
    # the loss derivative's own path is the oracle
    s_nodes = td.s_values(m.nodes)
    assert np.max(np.abs(td._s_nodes - s_nodes)) \
        <= 1e-12 * np.max(np.abs(s_nodes))


def test_singular_derivative_system_names_its_size():
    # a negative curvature can make S singular: -tau * Cov(phi) * c = -1
    model, nu = nn_problem(seed=13, n=1)
    td = TrainedDerivatives(model, nu, NN_CFG, solve_kwargs=SOLVE_NN)
    kern = td.kernel
    cov = float(kern.features[:, 0] ** 2 @ kern.weights)
    td.kernel = dataclasses.replace(
        kern, curvatures=np.array([-1.0 / (NN_CFG.temperature * cov)]))
    with pytest.raises(RuntimeError, match=r"n = 1, cond\(S\)"):
        td.s_derivative(nu.point(0))


@settings(max_examples=25, deadline=None)
@given(act=st.sampled_from(["tanh", "heaviside", "relu", "sigmoid"]),
       outer=st.sampled_from(["quadratic", "logcosh", "product_margin"]),
       n=st.integers(1, 6), nodes=st.integers(9, 17),
       beta=st.floats(0.4, 1.5), seed=st.integers(0, 2 ** 32 - 1))
def test_dm_dnu_properties_on_random_networks(act, outer, n, nodes, beta,
                                              seed):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, 1))
    ys = (np.where(rng.random(n) < 0.5, -1.0, 1.0)
          if outer == "product_margin" else rng.standard_normal(n))
    nu = empirical_from_arrays(xs, ys)
    model = losses.NNLoss(act, outer)
    cfg = GibbsConfig(beta=beta, sigma=1.0, p=4, theta_dim=2,
                      nodes_per_axis=nodes)
    td = TrainedDerivatives(model, nu, cfg, solve_kwargs=SOLVE_NN)
    m = td.measure
    w = m.node_weights
    z = DataPoint(rng.standard_normal(1), float(ys[0]))
    deriv = td.dm_dnu(z)
    v = td.s_derivative(z).values
    scale = cfg.temperature * max(1.0, float(np.max(np.abs(v))))
    # total mass 0
    assert abs(deriv.node_weights.sum()) <= 1e-12 * scale
    # covariance form <f, dm> = -tau Cov_m(f, v)
    for k in range(3):
        f = np.cos(m.nodes @ rng.standard_normal(2) + k)
        cov = float((f * v) @ w) - float(f @ w) * float(v @ w)
        assert abs(float(f @ deriv.node_weights)
                   + cfg.temperature * cov) <= 1e-10 * scale
    # v solves (I + tau K W) v = L
    rhs = losses.loss_dm(model, m, z, m.nodes) - td.s_values(m.nodes)
    resid = v + cfg.temperature * td.kernel.apply(v) - rhs
    assert np.max(np.abs(resid)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))
