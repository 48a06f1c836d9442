"""Tests for functional-derivative checks and trained-measure derivatives."""

import numpy as np
import pytest

from gibbslab import funcderiv, gibbs, losses
from gibbslab.funcderiv import (S_value, TrainedDerivatives, build_Cm,
                                check_linear_derivative, dm_dnu,
                                finite_diff_dm_dnu, gauss_legendre_01,
                                solve_dS_dnu)
from gibbslab.gibbs import GibbsConfig, Regularizer
from gibbslab.measures import (DataPoint, GridMeasure, empirical_from_arrays,
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


# ---------------------------------------------------------------------------
# curvature kernel


def test_build_cm_zero_for_param_losses():
    model, nu = ep_problem()
    td = TrainedDerivatives(model, nu, EP_CFG, solve_kwargs=SOLVE_EP)
    kern = build_Cm(model, td.measure, nu)
    assert np.all(kern.entries == 0.0)
    np.testing.assert_array_equal(kern.weights, td.measure.node_weights)


def test_build_cm_symmetric_and_psd_for_network_losses():
    model, nu = nn_problem()
    td = TrainedDerivatives(model, nu, NN_CFG, solve_kwargs=SOLVE_NN)
    kern = build_Cm(model, td.measure, nu)
    np.testing.assert_allclose(kern.entries, kern.entries.T, atol=1e-14)
    assert np.max(np.abs(kern.entries)) > 0.0
    # PSD in the weighted inner product: f' W K W f >= 0
    rng = np.random.default_rng(2)
    w = kern.weights
    for _ in range(20):
        f = rng.standard_normal(kern.n_nodes)
        quad = float((w * f) @ kern.entries @ (w * f))
        assert quad >= -1e-12
    # apply() implements the weighted action
    f = rng.standard_normal(kern.n_nodes)
    np.testing.assert_allclose(kern.apply(f), kern.entries @ (w * f),
                               rtol=1e-12)


def test_kernel_matrix_validation():
    with pytest.raises(ValueError):
        funcderiv.KernelMatrix(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        funcderiv.KernelMatrix(np.zeros((3, 3)), np.zeros(2))
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        funcderiv.KernelMatrix(bad, np.ones(2))


# ---------------------------------------------------------------------------
# risk derivative and its data-direction derivative


def test_s_value_matches_manual_average_of_loss_dm():
    model, nu = ep_problem(seed=3)
    theta = np.linspace(-1, 1, 7)[:, None]
    td = TrainedDerivatives(model, nu, EP_CFG, solve_kwargs=SOLVE_EP)
    manual = sum(nu.weights[i]
                 * losses.loss_dm(model, td.measure, nu.point(i), theta)
                 for i in range(nu.n_atoms))
    vals = S_value(model, nu, EP_CFG, theta, solve_kwargs=SOLVE_EP)
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
               - gibbs.risk_dm_nodes(model, m, nu, m.nodes))
        norm_v = float((sd.values ** 2) @ m.node_weights)
        norm_l = float((rhs ** 2) @ m.node_weights)
        assert norm_v <= norm_l * (1.0 + 1e-10)
        assert solve_dS_dnu(model, nu, cfg, z, solve_kwargs=kw).values \
            == pytest.approx(sd.values)


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
    big = GibbsConfig(beta=0.7, sigma=1.0, p=4, theta_dim=2,
                      nodes_per_axis=129)  # 16641 nodes > cap
    model, nu = nn_problem(seed=11)
    td = TrainedDerivatives(model, nu, big, solve_kwargs=SOLVE_NN)
    with pytest.raises(ValueError):
        td._ensure_lu()
