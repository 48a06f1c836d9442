"""Tests for loss models and their measure derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab import gibbs, losses
from gibbslab.losses import (ExpectedParamLoss, NNLoss, activation,
                             linear_regression_param_loss,
                             mean_squared_param_loss, outer_loss,
                             zero_param_loss)
from gibbslab.measures import (DataMeasure, DataPoint, GridMeasure,
                               MeasureBatch, ParticleMeasure,
                               empirical_from_arrays, uniform_grid,
                               uniform_grid_1d)


def gaussian_grid_1d(center=0.0, scale=0.5, half=3.0, n=401):
    nodes, vol = uniform_grid_1d(center, half, n)
    dens = np.exp(-((nodes[:, 0] - center) ** 2) / (2 * scale * scale))
    return GridMeasure(nodes, vol, dens, normalize=True)


def bump_grid_2d(center, scale=0.5, radius=2.0, n=31):
    nodes, vol = uniform_grid(radius, n, 2)
    dens = np.exp(-np.sum((nodes - center) ** 2, axis=1) / (2 * scale ** 2))
    return GridMeasure(nodes, vol, dens, normalize=True)


# ---------------------------------------------------------------------------
# activations and outer losses


def test_activation_values_and_derivs():
    u = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_array_equal(activation("relu").value(u),
                                  np.maximum(u, 0.0))
    np.testing.assert_allclose(activation("tanh").value(u), np.tanh(u))
    sig = activation("sigmoid")
    np.testing.assert_allclose(sig.value(u), 1 / (1 + np.exp(-u)), rtol=1e-12)
    np.testing.assert_array_equal(activation("heaviside").value(u),
                                  (u >= 0).astype(float))
    assert activation("heaviside").deriv is None
    # finite-difference check of the stored derivatives, which take the
    # activation value and equal the closed forms in u bit for bit
    h = 1e-6
    closed = {"tanh": 1.0 - np.tanh(u) ** 2,
              "sigmoid": sig.value(u) * (1.0 - sig.value(u))}
    for kind in ("tanh", "sigmoid"):
        act = activation(kind)
        fd = (act.value(u + h) - act.value(u - h)) / (2 * h)
        np.testing.assert_allclose(act.deriv(u, act.value(u)), fd, atol=1e-8)
        np.testing.assert_array_equal(act.deriv(u, act.value(u)), closed[kind])
    np.testing.assert_array_equal(
        activation("relu").deriv(u, activation("relu").value(u)),
        (u > 0).astype(float))
    with pytest.raises(ValueError):
        activation("softsign")


def test_sigmoid_stable_at_extremes():
    u = np.array([-800.0, 800.0])
    s = activation("sigmoid").value(u)
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s, [0.0, 1.0], atol=1e-300)


@pytest.mark.parametrize("kind", ["quadratic", "logcosh", "product_margin"])
def test_outer_loss_derivatives_match_finite_differences(kind):
    ol = outer_loss(kind)
    rng = np.random.default_rng(3)
    yh = rng.uniform(-3, 3, 40)
    y = rng.uniform(-1, 1, 40)
    h = 1e-5
    fd1 = (ol.value(yh + h, y) - ol.value(yh - h, y)) / (2 * h)
    np.testing.assert_allclose(ol.d1(yh, y), fd1, atol=1e-8)
    fd2 = (ol.d1(yh + h, y) - ol.d1(yh - h, y)) / (2 * h)
    np.testing.assert_allclose(ol.d2(yh, y), fd2, atol=1e-7)


@pytest.mark.parametrize("kind", ["quadratic", "logcosh", "product_margin"])
def test_outer_loss_growth_constants(kind):
    # randomized property test of the stored growth envelopes
    ol = outer_loss(kind)
    rng = np.random.default_rng(4)
    yh = rng.uniform(-50, 50, 5000)
    y = rng.uniform(-1, 1, 5000) if kind == "product_margin" \
        else rng.uniform(-50, 50, 5000)
    assert np.all(np.abs(ol.value(yh, y)) <= ol.L_l * (1 + yh**2 + y**2))
    assert np.all(np.abs(ol.d1(yh, y))
                  <= ol.L_l1 * (1 + np.abs(yh) + np.abs(y)) + 1e-12)
    assert np.all(np.abs(ol.d2(yh, y)) <= ol.L_l2 + 1e-12)


def test_logcosh_stable_for_large_arguments():
    ol = outer_loss("logcosh")
    val = ol.value(np.array([1e4]), np.array([0.0]))
    np.testing.assert_allclose(val, 1e4 - np.log(2.0))


def test_unknown_outer_loss():
    with pytest.raises(ValueError):
        outer_loss("hinge")


# ---------------------------------------------------------------------------
# network loss


def test_nn_predict_matches_manual_average():
    model = NNLoss("tanh", "quadratic")
    m = bump_grid_2d(np.array([0.5, -0.3]))
    x = np.array([0.7])
    manual = float((m.nodes[:, 0] * np.tanh(m.nodes[:, 1] * x[0]))
                   @ m.node_weights)
    np.testing.assert_allclose(model.predict(m, x[None, :]), [manual],
                               rtol=1e-12)
    # particle measures take the empirical average
    pts = np.random.default_rng(6).standard_normal((500, 2))
    manual_p = float(np.mean(pts[:, 0] * np.tanh(pts[:, 1] * x[0])))
    np.testing.assert_allclose(
        model.predict(ParticleMeasure(pts), x[None, :]), [manual_p],
        rtol=1e-12)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("kind", ["relu", "tanh", "sigmoid", "heaviside",
                                  "identity"])
def test_nn_phi_scales_activations_in_place_bit_for_bit(kind, q):
    act = (losses.Activation("identity", lambda u: u, None)
           if kind == "identity" else activation(kind))
    rng = np.random.default_rng(q)
    theta = rng.standard_normal((50, 1 + q)) * 3.0
    theta[:5, 1:] = 0.0  # u = 0 exactly: the relu and heaviside kinks
    xs = rng.standard_normal((7, q))
    theta_in, xs_in = theta.copy(), xs.copy()
    got = NNLoss(act, "quadratic").phi(theta, xs)
    want = theta[:, :1] * act.value(theta[:, 1:] @ xs.T)
    np.testing.assert_array_equal(got, want)
    assert got.shape == (50, 7) and got.dtype == np.float64
    np.testing.assert_array_equal(theta, theta_in)
    np.testing.assert_array_equal(xs, xs_in)


@pytest.mark.parametrize("chunks", ["below_one", "one", "ragged"])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("kind", ["tanh", "relu", "sigmoid", "heaviside"])
def test_nn_phi_applies_activations_in_row_chunks_bit_for_bit(kind, q, chunks):
    # rows of one chunk for 7 inputs: one row short of it, exactly it, and
    # two chunks and a part chunk
    n_inputs = 7
    rows = losses._chunk_rows(n_inputs)
    n_rows = {"below_one": rows - 1, "one": rows, "ragged": 2 * rows + 5}
    rng = np.random.default_rng(10 * q + len(kind))
    theta = rng.standard_normal((n_rows[chunks], 1 + q)) * 3.0
    theta[::97, 1:] = 0.0  # u = 0 exactly: the relu and heaviside kinks
    xs = rng.standard_normal((n_inputs, q))
    act = activation(kind)
    got = NNLoss(act, "quadratic").phi(theta, xs)
    np.testing.assert_array_equal(
        got, act.value(theta[:, 1:] @ xs.T) * theta[:, :1])


def test_nn_predict_batch_consistency():
    model = NNLoss("sigmoid", "logcosh")
    m = bump_grid_2d(np.array([-0.2, 0.4]))
    xs = np.random.default_rng(5).standard_normal((6, 1))
    batch = model.predict(m, xs)
    single = np.array([model.predict(m, x[None, :])[0] for x in xs])
    np.testing.assert_allclose(batch, single, rtol=1e-12)
    # particle measures take the empirical average
    pts = np.random.default_rng(6).standard_normal((500, 2))
    pm = ParticleMeasure(pts)
    batch_p = model.predict(pm, xs)
    manual = model.phi(pts, xs).mean(axis=0)
    np.testing.assert_allclose(batch_p, manual, rtol=1e-12)
    single_p = np.array([model.predict(pm, x[None, :])[0] for x in xs])
    np.testing.assert_allclose(batch_p, single_p, rtol=1e-12)


def test_nn_loss_value_and_dm_zero_mean():
    model = NNLoss("tanh", "quadratic")
    m = bump_grid_2d(np.array([0.3, 0.1]))
    z = DataPoint(np.array([0.4]), 0.8)
    pred = model.predict(m, z.x[None, :])[0]
    np.testing.assert_allclose(losses.loss_value(model, m, z),
                               (pred - z.y) ** 2, rtol=1e-12)
    dm = losses.loss_dm(model, m, z, m.nodes)
    # first derivative is normalized to zero mean under m
    np.testing.assert_allclose(dm @ m.node_weights, 0.0, atol=1e-12)


def test_nn_dm_builds_the_features_once_a_row_on_its_own_nodes(monkeypatch):
    # on the measure's own nodes the predictions come from the features of
    # the sum; on a copy of them predict builds features of its own
    model = NNLoss("tanh", "logcosh")
    rng = np.random.default_rng(8)
    nodes, vol = uniform_grid(2.0, 13, 2)
    batch = MeasureBatch(nodes, vol, rng.uniform(0.1, 1.0, (3, len(nodes))),
                         normalize=True)
    own, copy = batch.nodes, batch.nodes.copy()
    xs, ys = rng.standard_normal((3, 5, 1)), rng.standard_normal((3, 5))
    w = rng.uniform(0.1, 1.0, 5)
    cases = [(batch, xs, ys, 3), (batch[1], xs[1], ys[1], 1)]
    want = [[model.dm(m, x, y, w, th) for th in (own, copy)]
            for m, x, y, _ in cases]
    calls, phi = [], NNLoss.phi

    def counted(self, theta, x):
        calls.append(theta.shape)
        return phi(self, theta, x)

    monkeypatch.setattr(NNLoss, "phi", counted)
    for (m, x, y, rows), values in zip(cases, want):
        for th, value, builds in zip((own, copy), values, (1, 2)):
            calls.clear()
            np.testing.assert_array_equal(model.dm(m, x, y, w, th), value)
            assert calls == [own.shape] * (builds * rows)
    # the tilt map passes the configuration grid, the measure's own nodes
    cfg = gibbs.GibbsConfig(beta=0.7, sigma=1.0, p=4, theta_dim=2,
                            nodes_per_axis=13)
    calls.clear()
    gibbs.gibbs_map(model, cfg.priors().gamma_sigma,
                    empirical_from_arrays(xs[0], ys[0]), cfg)
    assert calls == [cfg.grid()[0].shape]
    monkeypatch.undo()
    # both take predict's predictions, bit for bit
    np.testing.assert_array_equal(want[0][0], want[0][1])
    np.testing.assert_array_equal(want[1][0], want[0][0][1])


def test_nn_loss_dm_predicts_loss_change():
    # first-order expansion along a measure segment
    model = NNLoss("tanh", "logcosh")
    m0 = bump_grid_2d(np.array([0.3, 0.1]))
    m1 = bump_grid_2d(np.array([-0.4, 0.6]))
    z = DataPoint(np.array([0.9]), -0.2)
    dm = losses.loss_dm(model, m0, z, m0.nodes)
    directional = float(dm @ (m1.node_weights - m0.node_weights))
    eps = 1e-5
    mix_dens = (1 - eps) * m0.density + eps * m1.density
    m_eps = GridMeasure(m0.nodes, m0.cell_volumes, mix_dens)
    fd = (losses.loss_value(model, m_eps, z)
          - losses.loss_value(model, m0, z)) / eps
    np.testing.assert_allclose(directional, fd, atol=1e-4)


def test_nn_dm_grad_matches_finite_difference():
    # dm_grad_map differentiates dm at the particles' own empirical measure,
    # which the difference quotient holds fixed
    model = NNLoss("tanh", "quadratic")
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((5, 2))
    ys = rng.standard_normal(5)
    w = rng.uniform(-1, 1, 5)
    theta = rng.standard_normal((50, 3))
    m = ParticleMeasure(theta)
    g = model.dm_grad_map(xs, ys, w)(theta.T).T
    h = 1e-6
    for j in range(3):
        up, down = theta.copy(), theta.copy()
        up[:, j] += h
        down[:, j] -= h
        fd = (model.dm(m, xs, ys, w, up) - model.dm(m, xs, ys, w, down)) \
            / (2 * h)
        np.testing.assert_allclose(g[:, j], fd, atol=1e-7)
    with pytest.raises(ValueError):
        NNLoss("heaviside", "quadratic").dm_grad_map(xs, ys, w)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("act", ["tanh", "sigmoid", "relu"])
def test_nn_dm_grad_map_buffers_follow_the_points(act, q):
    # one map on 33 rows (the sampler's stability probe), then on P and P'
    # rows, equals a fresh map on each, bit for bit; a result it returned
    # stays as it was when the map runs again on other points
    model = NNLoss(act, "logcosh")
    rng = np.random.default_rng(9)
    xs, ys = rng.standard_normal((7, q)), rng.standard_normal(7)
    w = rng.uniform(0.1, 1.0, 7)
    grad = model.dm_grad_map(xs, ys, w)
    kept = []
    for rows in (33, 64, 40, 64):
        pts = rng.standard_normal((1 + q, rows))
        got = grad(pts)
        np.testing.assert_array_equal(got,
                                      model.dm_grad_map(xs, ys, w)(pts))
        kept.append((got, got.copy()))
    for got, copy in kept:
        np.testing.assert_array_equal(got, copy)
    assert vars(model) == vars(NNLoss(act, "logcosh"))


def _dm_grad_before_contraction(model, xs, ys, w, pts):
    """The network drift as formed with a (P, n) product summed by
    np.add.reduce along axis 0 and matmul's ``a @ coef``."""
    u = pts[:, 1:] @ xs.T
    a = model.activation.value(u)
    pred = np.add.reduce(pts[:, :1] * a, 0) / len(pts)
    coef = w * model.outer.d1(pred, ys)
    g = np.empty_like(pts)
    g[:, 0] = a @ coef
    g[:, 1:] = pts[:, :1] * ((model.activation.deriv(u, a) * coef) @ xs)
    return g


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("act", ["tanh", "sigmoid", "relu"])
def test_nn_dm_grad_map_is_the_reduce_form_bit_for_bit(act, q):
    # the parameter-major map sums the prediction mean and the atom
    # contractions along rows of P, so it rounds otherwise than the (P, d)
    # reduce form: within 1e-13 of max(1, |reference|) entry by entry on
    # 1, 33 (the sampler's probe), 1024 and 2048 particles and 1, 8 and 64
    # atoms
    model = NNLoss(act, "quadratic")
    rng = np.random.default_rng(10)
    for n in (1, 8, 64):
        xs, ys = rng.standard_normal((n, q)), rng.standard_normal(n)
        w = rng.uniform(0.1, 1.0, n)
        grad = model.dm_grad_map(xs, ys, w)
        for rows in (1, 33, 1024, 2048):
            pts = 2.0 * rng.standard_normal((rows, 1 + q))
            got = grad(np.ascontiguousarray(pts.T)).T
            want = _dm_grad_before_contraction(model, xs, ys, w, pts)
            assert np.all(np.abs(got - want)
                          <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("act", ["tanh", "sigmoid", "relu"])
def test_nn_phi_one_feature_is_the_matmul_form_bit_for_bit(act):
    # np.dot's products of one feature are matmul's: the grids of the
    # network solves, 65^2 and 129^2 nodes, on 1, 8 and 64 atoms
    model = NNLoss(act, "quadratic")
    rng = np.random.default_rng(11)
    for nodes, n in ((65 ** 2, 8), (129 ** 2, 64), (33, 1)):
        theta = 3.0 * rng.standard_normal((nodes, 2))
        xs = rng.standard_normal((n, 1))
        want = model.activation.value(theta[:, 1:] @ xs.T) * theta[:, :1]
        np.testing.assert_array_equal(model.phi(theta, xs), want)


def test_predict_in_atom_chunks_matches_one_feature_array(monkeypatch):
    model = NNLoss("tanh", "quadratic")
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((13, 1))
    grid = bump_grid_2d(np.array([0.3, -0.2]), n=9)
    cloud = ParticleMeasure(rng.standard_normal((50, 2)))
    whole = [model.predict(m, xs) for m in (grid, cloud)]
    monkeypatch.setattr(losses, "_PHI_ELEMENTS", 200)
    phi, widths = model.phi, []

    def counting(theta, x):
        widths.append(len(x))
        return phi(theta, x)

    monkeypatch.setattr(model, "phi", counting)
    for m, ref, step in zip((grid, cloud), whole, (2, 4)):
        widths.clear()
        np.testing.assert_allclose(model.predict(m, xs), ref, rtol=1e-14,
                                   atol=0)
        assert max(widths) == step and sum(widths) == len(xs)


# ---------------------------------------------------------------------------
# expected parametric losses


def test_mean_squared_param_loss_closed_form():
    model = mean_squared_param_loss()
    m = gaussian_grid_1d(center=0.4, scale=0.3)
    z = DataPoint(np.zeros(0), 1.1)
    # E[(theta - y)^2] = (mean - y)^2 + var
    expected = (0.4 - 1.1) ** 2 + 0.3 ** 2
    np.testing.assert_allclose(losses.loss_value(model, m, z), expected,
                               atol=1e-6)
    dm = losses.loss_dm(model, m, z, m.nodes)
    np.testing.assert_allclose(dm @ m.node_weights, 0.0, atol=1e-10)
    np.testing.assert_allclose(
        dm, (m.nodes[:, 0] - z.y) ** 2 - losses.loss_value(model, m, z),
        rtol=1e-10)
    assert model.has_zero_d2m()


def test_linear_regression_param_loss():
    model = linear_regression_param_loss()
    m = gaussian_grid_1d(center=0.5, scale=0.2)
    z = DataPoint(np.array([2.0]), 1.0)
    expected = (1.0 - 0.5 * 2.0) ** 2 + (0.2 * 2.0) ** 2
    np.testing.assert_allclose(losses.loss_value(model, m, z), expected,
                               atol=1e-6)


def test_lp_batch_agrees_with_lp():
    # lp over n atoms at once agrees row by row with its one-atom calls
    rng = np.random.default_rng(8)
    for model in (mean_squared_param_loss(), linear_regression_param_loss()):
        theta = rng.standard_normal((9, 1))
        xs = rng.standard_normal((5, 1))
        ys = rng.standard_normal(5)
        batch = model.lp(theta, xs, ys)
        assert batch.shape == (5, 9)
        for i in range(5):
            np.testing.assert_allclose(
                batch[i], model.lp(theta, xs[i:i + 1], ys[i:i + 1])[0],
                rtol=1e-12)


def test_risk_matches_atomwise_average():
    rng = np.random.default_rng(9)
    xs = rng.standard_normal((6, 1))
    ys = rng.standard_normal(6)
    nu = empirical_from_arrays(xs, ys)
    nn = NNLoss("tanh", "quadratic")
    m = bump_grid_2d(np.array([0.2, -0.1]))
    manual = np.mean([losses.loss_value(nn, m, nu.point(i))
                      for i in range(6)])
    np.testing.assert_allclose(losses.risk(nn, m, nu), manual, rtol=1e-12)
    ep = linear_regression_param_loss()
    m1 = gaussian_grid_1d()
    manual = np.mean([losses.loss_value(ep, m1, nu.point(i))
                      for i in range(6)])
    np.testing.assert_allclose(losses.risk(ep, m1, nu), manual, rtol=1e-12)


def test_growth_envelopes_bound_loss_and_derivative():
    rng = np.random.default_rng(10)
    nn = NNLoss("tanh", "quadratic")
    m = bump_grid_2d(np.array([0.0, 0.0]))
    g, g1 = nn.growth(m), nn.growth_d1(m, m.nodes)
    for _ in range(200):
        z = DataPoint(rng.standard_normal(1), float(rng.standard_normal()))
        scale = 1.0 + z.x @ z.x + z.y ** 2
        assert abs(losses.loss_value(nn, m, z)) <= g * scale
        assert np.all(np.abs(losses.loss_dm(nn, m, z, m.nodes))
                      <= g1 * scale)


def test_zero_param_loss_is_zero():
    model = zero_param_loss()
    m = gaussian_grid_1d()
    z = DataPoint(np.zeros(0), 0.7)
    assert losses.loss_value(model, m, z) == 0.0
    np.testing.assert_array_equal(
        model.lp_grad(m.nodes, z.x[None, :], np.array([z.y])),
        np.zeros((1,) + m.nodes.shape))


def test_expected_param_loss_validates_growth_constant():
    def lp(t, xs, ys):
        return np.zeros((len(ys), t.shape[0]))
    with pytest.raises(ValueError):
        losses.ExpectedParamLoss(lp, M_p=0.0)
    zero = zero_param_loss()
    with pytest.raises(ValueError, match="together"):
        losses.ExpectedParamLoss(lp, M_p=1.0, psi=zero.psi, coef=zero.coef)


def test_separable_form_needs_psi_grad():
    # psi, coef and centre without psi_grad leave the sampler no drift
    # from the statistics, so they are refused
    zero = zero_param_loss()
    with pytest.raises(ValueError, match="psi_grad"):
        losses.ExpectedParamLoss(zero.lp, M_p=1.0, psi=zero.psi,
                                 coef=zero.coef, centre=zero.centre)
    with pytest.raises(ValueError, match="together"):
        losses.ExpectedParamLoss(zero.lp, M_p=1.0, psi_grad=zero.psi_grad)


# ---------------------------------------------------------------------------
# the separable form against lp


_SHIPPED = {"mean_squared": mean_squared_param_loss,
            "linear_regression": linear_regression_param_loss,
            "zero": zero_param_loss}


def _lp_only(model):
    """``model`` without its separable form: every operation through lp."""
    return ExpectedParamLoss(model.lp, model.M_p, model.lp_grad, model.name)


def _expansion_error(model, theta, x, y, c):
    """``|psi(theta - c) . coef(z, c) - lp(theta, z)|`` for one atom and one
    parameter."""
    terms = model.psi(np.array([[theta - c]]))[:, 0] \
        * model.coef(np.array([[[x]]]), np.array([[y]]), np.array([[c]]))[
            :, 0, 0]
    lp = model.lp(np.array([[theta]]), np.array([[x]]), np.array([y]))
    return abs(terms.sum() - lp[0, 0])


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(_SHIPPED)),
       theta=st.floats(-1e3, 1e3), y=st.floats(-1e3, 1e3),
       x=st.floats(-10.0, 10.0), t=st.floats(0.0, 1.0),
       far=st.floats(-1e3, 1e3))
def test_separable_form_equals_lp(name, theta, y, x, t, far):
    # the expansion is an identity in the centre: about any c it equals lp
    # to 1e-12 of the squared size of the residual's parts, y, x theta and
    # x c (x is 1 for the location loss).  That lp is small where they
    # cancel is the centre's concern, checked on data below.
    model = _SHIPPED[name]()
    if name != "linear_regression":
        x = 1.0
    # the parameter at which the residual vanishes, within a finite range
    root = float(np.clip(y / x, -1e6, 1e6)) if x else 0.0
    for c in (theta + t * (root - theta), far):
        scale = (abs(y) + abs(x) * (abs(theta) + abs(c))) ** 2
        assert _expansion_error(model, theta, x, y, c) \
            <= 1e-12 * scale + np.finfo(float).tiny


def _trained_rows(name, mu, per_row, rng, b=4, n=6):
    """Data rows (b, n) about the population centre ``mu`` and measures
    of about the trained spread at each row's own centre, on per-row or
    shared nodes."""
    xs = rng.standard_normal((b, n, 1))
    if name == "linear_regression":
        ys = mu * xs[..., 0] + 0.5 * rng.standard_normal((b, n))
        centres = (xs[..., 0] * ys).sum(1) / (xs[..., 0] ** 2).sum(1)
    else:
        ys = mu + rng.standard_normal((b, n))
        centres = ys.mean(1)
    s = 1.0 / np.sqrt(n)
    if per_row:
        offsets, vol = uniform_grid_1d(0.0, 8.0 * s, 129)
        nodes = centres[:, None, None] + offsets
        dens = np.exp(-0.5 * (offsets[:, 0] / s) ** 2) \
            * rng.uniform(0.5, 1.0, (b, 129))
    else:
        nodes, vol = uniform_grid_1d(mu, 4.0, 257)
        dens = np.exp(-0.5 * ((nodes[:, 0] - centres[:, None]) / s) ** 2)
    return MeasureBatch(nodes, vol, dens, normalize=True), xs, ys


def _assert_rows_close(got, want, rtol=1e-12):
    """Each row within ``rtol`` of its largest entry."""
    scale = np.abs(want).max(axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= rtol * scale), \
        float((np.abs(got - want) / scale).max())


@pytest.mark.parametrize("mu", [0.0, 10.0, 1000.0])
@pytest.mark.parametrize("per_row", [False, True])
@pytest.mark.parametrize("name", ["mean_squared", "linear_regression"])
def test_separable_operations_match_lp_oracle(name, per_row, mu):
    # every operation of the separable form equals the same loss given by
    # lp alone, to 1e-12, also far from the origin where an expansion
    # about 0 cancels in its large terms
    model = _SHIPPED[name]()
    oracle = _lp_only(model)
    rng = np.random.default_rng(int(mu) + 7 * per_row)
    m, xs, ys = _trained_rows(name, mu, per_row, rng)
    m2 = _trained_rows(name, mu, per_row, rng)[0]
    # losses and their sums are positive: to 1e-12 entry by entry
    np.testing.assert_allclose(model.atom_losses(m, xs, ys),
                               oracle.atom_losses(m, xs, ys), rtol=1e-12)
    theta = uniform_grid_1d(mu, 3.0, 101)[0]
    w = rng.uniform(0.5, 1.0, ys.shape[1])
    w /= w.sum()
    np.testing.assert_allclose(model.lp_sums(theta, xs, ys, w),
                               oracle.lp_sums(theta, xs, ys, w), rtol=1e-12)
    np.testing.assert_allclose(model.dm(m, xs, ys, w, theta, centered=False),
                               oracle.dm(m, xs, ys, w, theta, centered=False),
                               rtol=1e-12)
    # the centred derivative and the pairing cross zero: to 1e-12 of each
    # row's largest value
    _assert_rows_close(model.dm(m, xs, ys, w, theta),
                       oracle.dm(m, xs, ys, w, theta))
    _assert_rows_close(model.dm_along(m, m2, xs, ys),
                       oracle.dm_along(m, m2, xs, ys))
    # a single measure is the one-row view of the same body
    one = m[1]
    np.testing.assert_array_equal(model.atom_losses(one, xs[1], ys[1]),
                                  model.atom_losses(m, xs, ys)[1])
    np.testing.assert_array_equal(model.dm(one, xs[1], ys[1], w, theta),
                                  model.dm(m, xs, ys, w, theta)[1])


@pytest.mark.parametrize("mu", [0.0, 10.0, 1000.0])
@pytest.mark.parametrize("name", ["mean_squared", "linear_regression"])
def test_separable_dm_grad_matches_lp_grad_oracle(name, mu):
    # the sampler's drift from the K data statistics equals the weighted
    # sum of lp_grad over the atoms, to 1e-12 of max(1, |oracle|) entry by
    # entry, with data and particles far from the origin
    model = _SHIPPED[name]()
    rng = np.random.default_rng(int(mu) + 31)
    for n in (1, 5, 40):
        xs = rng.standard_normal((n, 1))
        noise = rng.standard_normal(n)
        ys = mu * xs[:, 0] + 0.5 * noise if name == "linear_regression" \
            else mu + noise
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        pts = mu + np.concatenate([rng.standard_normal((64, 1)),
                                   rng.uniform(-50.0, 50.0, (8, 1))])
        want = np.tensordot(w, model.lp_grad(pts, xs, ys), axes=1)
        got = model.dm_grad_map(xs, ys, w)(pts.T).T
        assert got.shape == want.shape == (72, 1)
        assert np.all(np.abs(got - want)
                      <= 1e-12 * np.maximum(1.0, np.abs(want))), \
            float((np.abs(got - want) / np.maximum(1.0, np.abs(want))).max())


def test_zero_param_loss_is_separable():
    # the zero loss takes the separable path and is exactly 0 there too
    model = zero_param_loss()
    m, xs, ys = _trained_rows("mean_squared", 0.0, True,
                              np.random.default_rng(3))
    np.testing.assert_array_equal(model.atom_losses(m, xs, ys),
                                  np.zeros(ys.shape))
    theta = uniform_grid_1d(0.0, 3.0, 11)[0]
    np.testing.assert_array_equal(
        model.dm(m, xs, ys, np.full(6, 1 / 6), theta), np.zeros((4, 11)))
    # and its sampler drift: all its statistics are 0, so it has no map
    assert model.dm_grad_map(xs[0], ys[0], np.full(6, 1 / 6)) is None


# ---------------------------------------------------------------------------
# batched operations against the one-atom views


def _custom_param_loss():
    # two parameter coordinates and no gradient: the finite-difference
    # fallback supplies it
    def lp(theta, xs, ys):
        feat = np.asarray(xs).sum(axis=1)
        return (np.asarray(ys)[:, None] - np.tanh(theta[:, 0])[None, :]
                - feat[:, None] * theta[:, 1][None, :]) ** 2
    return ExpectedParamLoss(lp, M_p=4.0)


_NN_MODELS = [(act, outer) for act in ("relu", "tanh", "sigmoid", "heaviside")
              for outer in ("quadratic", "logcosh", "product_margin")]
_PARAM_MODELS = ["mean_squared", "linear_regression", "custom"]


def _build_model(name, q):
    if isinstance(name, tuple):
        return NNLoss(*name), q + 1
    if name == "custom":
        return _custom_param_loss(), 2
    if name == "linear_regression" and q == 0:
        return None, 1
    factory = {"mean_squared": mean_squared_param_loss,
               "linear_regression": linear_regression_param_loss}[name]
    return factory(), 1


@pytest.mark.parametrize("per_row", [False, True])
@pytest.mark.parametrize("name", ["linear_regression", "custom"])
def test_lp_path_rows_equal_their_one_row_results(name, per_row):
    # a loss given by lp alone is evaluated row by row: with 64 rows of 80
    # atoms on 257 nodes, over 2^18 lp values a block, row r of each
    # batched operation is bit for bit the result of row r on its own
    model, d = _build_model(name, 1)
    model = _lp_only(model)
    rng = np.random.default_rng(11 + per_row)
    b, k, n_nodes = 64, 80, 257
    xs, ys = rng.standard_normal((b, k, 1)), rng.standard_normal((b, k))
    nodes = rng.standard_normal((b, n_nodes, d) if per_row else (n_nodes, d))
    m = MeasureBatch(nodes, 0.01, rng.uniform(0.1, 1.0, (b, n_nodes)),
                     normalize=True)
    theta = rng.standard_normal((n_nodes, d))
    w = rng.uniform(0.5, 1.0, k)
    shift = rng.standard_normal((b, k))
    batched = (model.atom_losses(m, xs, ys),
               model.lp_sums(theta, xs, ys, w),
               model.lp_sums(theta, xs, ys, w, shift),
               model.dm(m, xs, ys, w, theta),
               model.dm(m, xs, ys, w, theta, centered=False))
    for r in range(b):
        x, y, one = xs[r], ys[r], slice(r, r + 1)
        rows = (model.atom_losses(m[r], x, y),
                model.lp_sums(theta, xs[one], ys[one], w)[0],
                model.lp_sums(theta, xs[one], ys[one], w, shift[one])[0],
                model.dm(m[r], x, y, w, theta),
                model.dm(m[r], x, y, w, theta, centered=False))
        for got, want in zip(batched, rows):
            np.testing.assert_array_equal(got[r], want)


@settings(max_examples=40, deadline=None)
@given(model_name=st.sampled_from(_NN_MODELS + _PARAM_MODELS),
       k=st.integers(1, 4), on_grid=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batch_dm_and_pairing_match_one_measure_forms(model_name, k, on_grid,
                                                      seed):
    model, d = _build_model(model_name, 1)
    rng = np.random.default_rng(seed)
    xs, ys = rng.standard_normal((3, k, 1)), rng.uniform(-1.0, 1.0, (3, k))
    w = rng.uniform(-1.0, 1.0, k)
    nodes, vol = uniform_grid(2.0, 5 if d > 1 else 9, d)
    if on_grid:
        ms = [MeasureBatch(nodes, vol, rng.uniform(0.1, 1.0, (3, len(nodes))),
                           normalize=True) for _ in range(2)]
    else:
        ms = [MeasureBatch.of([ParticleMeasure(rng.standard_normal((30, d)))
                               for _ in range(3)]) for _ in range(2)]
    # the derivative at the batch's own nodes and at shifted points
    thetas = (nodes, nodes + 0.5)
    dms = [model.dm(ms[0], xs, ys, w, theta) for theta in thetas]
    along = model.dm_along(ms[0], ms[1], xs, ys)
    for r in range(3):
        m, m2 = ms[0][r], ms[1][r]
        for dm, theta in zip(dms, thetas):
            np.testing.assert_allclose(dm[r], model.dm(m, xs[r], ys[r], w,
                                                       theta),
                                       rtol=1e-12, atol=1e-12)
        # the pairing is the loss derivative at m integrated against m2 - m
        for i in range(k):
            z = DataPoint(xs[r, i], ys[r, i])
            want = m2.integrate(lambda th: losses.loss_dm(model, m, z, th)) \
                - m.integrate(lambda th: losses.loss_dm(model, m, z, th))
            np.testing.assert_allclose(along[r, i], want, rtol=1e-10,
                                       atol=1e-12)


@settings(max_examples=120, deadline=None)
@given(model_name=st.sampled_from(_NN_MODELS + _PARAM_MODELS),
       n=st.integers(1, 6), q=st.integers(0, 2),
       on_grid=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_operations_match_one_atom_views(model_name, n, q, on_grid,
                                                  seed):
    model, d = _build_model(model_name, q)
    if model is None:
        q = 1
        model, d = _build_model(model_name, q)
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, q))
    ys = rng.uniform(-1.0, 1.0, n)
    w = rng.uniform(0.1, 1.0, n)
    nu = DataMeasure(xs, ys, w / w.sum())
    if on_grid:
        nodes, vol = uniform_grid(2.0, 5 if d > 2 else 9, d)
        m = GridMeasure(nodes, vol, rng.uniform(0.1, 1.0, len(nodes)),
                        normalize=True)
    else:
        m = ParticleMeasure(rng.standard_normal((40, d)))
    theta = rng.standard_normal((7, d))

    atoms = [nu.point(i) for i in range(n)]
    per_atom = np.array([losses.loss_value(model, m, z) for z in atoms])
    expected = float(nu.weights @ per_atom)
    np.testing.assert_allclose(losses.risk(model, m, nu), expected,
                               rtol=1e-12, atol=1e-12)
    dm_loop = sum(wi * losses.loss_dm(model, m, z, theta)
                  for wi, z in zip(nu.weights, atoms))
    dm_batch = model.dm(m, nu.xs, nu.ys, nu.weights, theta)
    scale = 1.0 + np.max(np.abs(dm_loop))
    np.testing.assert_allclose(dm_batch, dm_loop, rtol=0, atol=1e-12 * scale)

    # drift of the particle sampler: gradient of the risk derivative at
    # the empirical particle measure plus the confinement term
    cfg = gibbs.GibbsConfig(beta=1.0, sigma=1.0, p=4, theta_dim=d)
    pts = rng.standard_normal((6, d))
    if isinstance(model, NNLoss) and model.activation.deriv is None:
        with pytest.raises(ValueError):
            model.dm_grad_map(nu.xs, nu.ys, nu.weights)
        return
    dm_grad = model.dm_grad_map(nu.xs, nu.ys, nu.weights)
    m_hat = ParticleMeasure(pts)

    def potential(th):
        return model.dm(m_hat, nu.xs, nu.ys, nu.weights, th) \
            + cfg.regularizer.value(th) / (2.0 * cfg.beta ** 2)

    h = 1e-5
    fd = np.empty_like(pts)
    for j in range(d):
        up, down = pts.copy(), pts.copy()
        up[:, j] += h
        down[:, j] -= h
        fd[:, j] = (potential(up) - potential(down)) / (2 * h)
    # rows within a step of a relu kink have no derivative to compare
    smooth = np.ones(len(pts), bool)
    if isinstance(model, NNLoss) and model.activation.kind == "relu":
        u = np.abs(pts[:, 1:] @ xs.T)
        smooth = ~np.any((u > 0) & (u < 1e-4), axis=1)
    np.testing.assert_allclose(gibbs._drift(dm_grad, cfg, pts.T).T[smooth],
                               fd[smooth], rtol=1e-6, atol=1e-6)
