"""Tests for the regularized objective, tilt fixed point, and sampler."""

import contextlib
import dataclasses
import importlib.util
import json
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab import cli, funcderiv, genbench, gibbs, losses
from gibbslab.gibbs import (GibbsConfig, GibbsConvergenceError, Regularizer,
                            default_regularizer, gibbs_map, kl_divergence,
                            mfld_sample, objective, prior_kl,
                            prior_moment_bound, solve_gibbs)
from gibbslab.measures import (DataPoint, GridMeasure, ParticleMeasure,
                               empirical_from_arrays, uniform_grid_1d)


def gaussian_data(seed=0, n=8):
    rng = np.random.default_rng(seed)
    return empirical_from_arrays(np.zeros((n, 0)), rng.standard_normal(n))


def grid_gaussian(cfg, center, scale):
    nodes, vol = cfg.grid()
    dens = np.exp(-np.sum((nodes - center) ** 2, axis=1) / (2 * scale ** 2))
    return GridMeasure(nodes, vol, dens, normalize=True)


# ---------------------------------------------------------------------------
# configuration


def test_regularizer_validation_and_values():
    reg = Regularizer(kappa=0.5, q=2)
    theta = np.array([[1.0, 1.0], [0.0, 2.0]])
    np.testing.assert_allclose(reg.value(theta), [0.5 * 4.0, 0.5 * 16.0])
    np.testing.assert_allclose(reg.value_radial(np.array([2.0])), [8.0])
    h = 1e-6
    g = reg.grad(theta)
    for j in range(2):
        up, down = theta.copy(), theta.copy()
        up[:, j] += h
        down[:, j] -= h
        np.testing.assert_allclose(
            g[:, j], (reg.value(up) - reg.value(down)) / (2 * h), atol=1e-5)
    with pytest.raises(ValueError):
        Regularizer(kappa=0.0, q=1)
    with pytest.raises(ValueError):
        Regularizer(kappa=1.0, q=0)


def test_regularizer_grad_at_q1_is_the_general_formula_bit_for_bit():
    # q == 1 skips the radius, since r2 ** 0 is exactly 1, also where r2
    # is NaN or infinite
    rng = np.random.default_rng(5)
    theta = 10.0 * rng.standard_normal((9, 3))
    theta[4] = np.nan
    theta[6, 1] = np.inf
    for kappa in (0.05, 0.3, 2.0):
        q = 1
        r2 = np.einsum("ij,ij->i", theta, theta)
        want = (2.0 * q * kappa * r2 ** (q - 1))[:, None] * theta
        np.testing.assert_array_equal(Regularizer(kappa, q).grad(theta), want)
    np.testing.assert_array_equal(Regularizer(0.25, 1).grad([1.5, -2.0]),
                                  [[0.75, -1.0]])


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_regularizer_grad_is_the_einsum_formula_bit_for_bit(d, q):
    # one coordinate squares it in place of einsum's one-term sum; 1, 33
    # (the sampler's probe) and 2048 rows, NaN and infinite entries among
    # them, into a new array and into out=
    rng = np.random.default_rng(6)
    reg = Regularizer(0.05, q)
    for rows in (1, 33, 2048):
        theta = 3.0 * rng.standard_normal((rows, d))
        theta[5:6] = np.nan
        theta[7:8, -1] = -np.inf
        r2 = np.einsum("ij,ij->i", theta, theta)
        want = (2.0 * q * 0.05 * r2 ** (q - 1))[:, None] * theta
        np.testing.assert_array_equal(reg.grad(theta), want)
        out = np.empty_like(theta)
        assert reg.grad(theta, out=out) is out
        np.testing.assert_array_equal(out, want)


def test_default_regularizer_degree():
    assert default_regularizer(2.0).q == 2
    assert default_regularizer(4.0).q == 3
    assert default_regularizer(8.0).q == 5
    assert default_regularizer(2.0, kappa=0.3).kappa == 0.3


def test_regularizer_growth_admissibility():
    nn = losses.NNLoss("tanh", "quadratic")
    ep = losses.mean_squared_param_loss()
    Regularizer(kappa=1.0, q=3).validate_growth(nn, 4.0)
    with pytest.raises(ValueError):
        Regularizer(kappa=1.0, q=2).validate_growth(nn, 4.0)
    Regularizer(kappa=1.0, q=2).validate_growth(ep, 2.0)
    with pytest.raises(ValueError):
        Regularizer(kappa=1.0, q=1).validate_growth(ep, 2.0)


def test_gibbs_config_validation_and_derived_quantities():
    cfg = GibbsConfig(beta=0.5, sigma=2.0, p=4)
    np.testing.assert_allclose(cfg.temperature, 2 * 0.25 / 4.0)
    np.testing.assert_allclose(cfg.kl_weight, 4.0 / (2 * 0.25))
    np.testing.assert_allclose(cfg.temperature * cfg.kl_weight, 1.0)
    assert cfg.regularizer.q == 3  # default for p = 4
    for bad in (dict(beta=0.0, sigma=1.0, p=4),
                dict(beta=1.0, sigma=-1.0, p=4),
                dict(beta=1.0, sigma=1.0, p=1.5),
                dict(beta=1.0, sigma=1.0, p=4, theta_dim=0),
                dict(beta=1.0, sigma=1.0, p=4, nodes_per_axis=4)):
        with pytest.raises(ValueError):
            GibbsConfig(**bad)


@pytest.mark.parametrize("fields, message", [
    (dict(beta=math.nan), "beta and sigma must be positive"),
    (dict(beta=math.inf), "beta and sigma must be finite"),
    (dict(sigma=math.nan), "beta and sigma must be positive"),
    (dict(sigma=math.inf), "beta and sigma must be finite"),
    (dict(p=math.nan), "moment order p must be at least 2"),
    (dict(p=math.inf), "moment order p must be finite"),
    (dict(radius=math.nan), "grid radius must be positive"),
    (dict(radius=math.inf), "grid radius must be finite"),
    (dict(radius=-2.0), "grid radius must be positive"),
    (dict(theta_dim=math.nan), "parameter dimension must be at least 1"),
    (dict(theta_dim=1.5), "parameter dimension must be an integer"),
    (dict(nodes_per_axis=math.nan), "grid needs at least 8 nodes per axis"),
    (dict(nodes_per_axis=8.5), "nodes per axis must be an integer"),
    (dict(nodes_per_axis=math.inf), "nodes per axis must be an integer"),
    (dict(regularizer=(math.nan, 1)),
     "confinement strength kappa must be positive"),
    (dict(regularizer=(math.inf, 1)),
     "confinement strength kappa must be finite"),
    (dict(regularizer=(1.0, math.nan)),
     "confinement exponent q must be an integer >= 1"),
    (dict(regularizer=(1.0, math.inf)),
     "confinement exponent q must be an integer >= 1"),
])
def test_config_fields_are_refused_when_built(fields, message):
    # a NaN, an infinity or a fraction is refused by the constructor, not
    # by the grid or the tilt it would later spoil
    with pytest.raises(ValueError, match=f"^{message}$"):
        if "regularizer" in fields:
            Regularizer(*fields["regularizer"])
        else:
            GibbsConfig(**dict(dict(beta=1.0, sigma=1.0, p=4), **fields))


def test_config_whole_number_fields_are_stored_as_ints():
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4, theta_dim=np.int64(2),
                      nodes_per_axis=9.0)
    assert type(cfg.theta_dim) is int and type(cfg.nodes_per_axis) is int
    assert cfg.grid()[0].shape == (81, 2)
    assert type(Regularizer(1.0, 3.0).q) is int


def test_gibbs_config_is_frozen():
    # a stale prior cache cannot survive a parameter change: the change
    # itself is refused, and with_beta builds a fresh configuration
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4, nodes_per_axis=33)
    cfg.priors()
    with pytest.raises(AttributeError):
        cfg.sigma = 2.0
    cfg2 = cfg.with_beta(2.0)
    assert cfg2.beta == 2.0 and cfg.beta == 1.0
    assert cfg2.regularizer == cfg.regularizer
    assert cfg2.priors() is not cfg.priors()


def test_box_radius_tail_criterion():
    # mass of the prior outside the automatic box is below the tail target
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4,
                      regularizer=Regularizer(kappa=0.05, q=3))
    radius = cfg.box_radius()
    r = np.linspace(0.0, 3.0 * radius, 400001)
    w = np.exp(-cfg.regularizer.value_radial(r) / cfg.sigma ** 2)
    total = np.trapezoid(w, r)
    outside = np.trapezoid(np.where(r > radius, w, 0.0), r)
    assert outside / total <= 1.5 * gibbs.TAIL_MASS
    # the tilted companion decays on the same box
    tilt = np.exp(-cfg.regularizer.value_radial(r) + r ** cfg.p)
    assert tilt[-1] < 1e-100


def test_explicit_radius_and_with_beta_pin():
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4, radius=3.0)
    assert cfg.box_radius() == 3.0
    cfg2 = cfg.with_beta(2.0)
    assert cfg2.beta == 2.0
    assert cfg2.box_radius() == cfg.box_radius()
    assert cfg2.nodes_per_axis == cfg.nodes_per_axis
    # automatic radius is also pinned through with_beta
    cfg3 = GibbsConfig(beta=1.0, sigma=1.0, p=4)
    assert cfg3.with_beta(0.1).box_radius() == cfg3.box_radius()
    with pytest.raises(ValueError):
        GibbsConfig(beta=1.0, sigma=1.0, p=4, radius=-2.0).box_radius()


def test_automatic_radius_is_memoized_on_the_fields_it_reads(monkeypatch):
    calls = []
    tail_radius = gibbs._radial_tail_radius

    def counting(exponent, dim):
        calls.append(1)
        return tail_radius(exponent, dim)

    monkeypatch.setattr(gibbs, "_radial_tail_radius", counting)
    gibbs._auto_radius.cache_clear()
    base = dict(beta=1.0, sigma=0.9, p=4,
                regularizer=Regularizer(kappa=0.3, q=3))
    radius = GibbsConfig(**base).box_radius()
    # beta and the grid resolution do not enter the radius
    for cfg in (GibbsConfig(**base), GibbsConfig(**dict(base, beta=0.2)),
                GibbsConfig(**base, nodes_per_axis=33)):
        assert cfg.box_radius() == radius
    assert len(calls) == 2  # the prior's tail and the tilted tail, once
    for field, value in (("sigma", 0.8), ("p", 5),
                         ("regularizer", Regularizer(kappa=0.3, q=4)),
                         ("theta_dim", 2)):
        calls.clear()
        assert GibbsConfig(**dict(base, **{field: value})).box_radius() \
            != radius
        assert len(calls) == 2, field
    calls.clear()
    assert GibbsConfig(**base, radius=2.5).box_radius() == 2.5
    assert calls == []


def _dense_tail_radius(exponent, dim):
    """``gibbs._radial_tail_radius`` summed over all its nodes at once: the
    oracle for the chunked walk."""
    r_hi, peak = 1.0, -np.inf
    for _ in range(200):
        probes = np.linspace(1e-9, r_hi, 4097)
        logs = (dim - 1) * np.log(probes) + exponent(probes)
        peak = max(peak, float(np.max(logs)))
        if logs[-1] < peak - 240.0:
            break
        r_hi *= 1.5
    else:
        raise ValueError("radial density does not decay; check the confinement")
    r = np.linspace(0.0, r_hi, 200001)
    with np.errstate(divide="ignore"):
        logs = np.where(r > 0, (dim - 1) * np.log(np.maximum(r, 1e-300))
                        + exponent(np.maximum(r, 1e-300)), -np.inf)
    w = np.exp(logs - np.max(logs))
    cum = np.concatenate([[0.0], np.cumsum((w[1:] + w[:-1]) * 0.5)])
    total = cum[-1]
    tail_ratio = 1.0 - cum / total
    idx = int(np.searchsorted(-tail_ratio, -gibbs.TAIL_MASS))
    idx = min(max(idx, 1), len(r) - 1)
    return float(r[idx])


@contextlib.contextmanager
def _tail_exponents(record):
    """Patch ``gibbs._radial_tail_radius`` to append each (exponent,
    dimension) it is asked to size to ``record`` before sizing it."""
    tail_radius = gibbs._radial_tail_radius

    def recording(exponent, dim):
        record.append((exponent, dim))
        return tail_radius(exponent, dim)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gibbs, "_radial_tail_radius", recording)
        yield


def _auto_exponents(regularizer, sigma, p, theta_dim):
    """The (exponent, dimension) pairs ``gibbs._auto_radius`` sizes."""
    record = []
    with _tail_exponents(record):
        try:
            gibbs._auto_radius.__wrapped__(regularizer, sigma, p, theta_dim)
        except ValueError:
            pass
    return record


def _assert_matches_dense(exponent, dim):
    """The chunked radius equals the dense one bit for bit, or both raise
    the same message; returns the outcome."""
    def outcome(tail_radius):
        try:
            return tail_radius(exponent, dim)
        except ValueError as exc:
            return str(exc)
    got = outcome(gibbs._radial_tail_radius)
    want = outcome(_dense_tail_radius)
    assert type(got) is type(want) and got == want, (dim, got, want)
    return got


@pytest.fixture(scope="module")
def shipped_tail_exponents(tmp_path_factory):
    """Every (exponent, dimension) the automatic radius sizes for the
    shipped configs, the benchmark's workloads and ``verify``."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    record = []
    gibbs._auto_radius.cache_clear()
    try:
        with _tail_exponents(record):
            bodies = [json.loads(path.read_text())
                      for path in sorted((root / "configs").glob("*.json"))]
            for name, cls in workloads.WORKLOADS.items():
                work = cls(1, tmp_path_factory.mktemp(name))
                work.setup()
                bodies += [body for _, body in getattr(work, "configs", ())]
            for body in bodies:
                if "gibbs" in body:
                    cli._setup(cli.read_config(body))[2].box_radius()
            cli._verify_checks(0)
    finally:
        gibbs._auto_radius.cache_clear()
    return record


@pytest.mark.parametrize("chunk", [gibbs._TAIL_CHUNK, 997, 1000,
                                   gibbs._TAIL_NODES + 1])
def test_tail_radius_is_the_dense_rule_bit_for_bit(shipped_tail_exponents,
                                                   chunk, monkeypatch):
    # chunk ends that do and do not divide the 200 000 intervals, and one
    # chunk holding every node
    monkeypatch.setattr(gibbs, "_TAIL_CHUNK", chunk)
    assert {dim for _, dim in shipped_tail_exponents} == {1, 2}
    assert len(shipped_tail_exponents) >= 8
    for exponent, dim in shipped_tail_exponents:
        assert isinstance(_assert_matches_dense(exponent, dim), float)
    # the tilted exponent of q = 1 against p = 4 grows: the same error
    _, growing = _auto_exponents(Regularizer(1.0, 1), 1.0, 4, 1)
    assert _assert_matches_dense(*growing) == \
        "radial density does not decay; check the confinement"


@settings(max_examples=25, deadline=None)
@given(kappa=st.floats(0.02, 5.0), q=st.integers(1, 5),
       sigma=st.floats(0.2, 3.0), p=st.floats(2.0, 8.0),
       dim=st.integers(1, 4))
def test_tail_radius_is_the_dense_rule_on_any_confinement(kappa, q, sigma, p,
                                                          dim):
    for exponent, d in _auto_exponents(Regularizer(kappa, q), sigma, p, dim):
        _assert_matches_dense(exponent, d)


def test_automatic_radius_holds_one_node_array():
    # budget fixed from the array count: the (200 001,) mass elements,
    # 1.53 MiB, and chunk-sized work arrays; summing all nodes at once
    # peaks at 9.2 MiB
    gibbs._auto_radius.cache_clear()
    radius, peak = _traced_peak(
        lambda: gibbs._auto_radius(default_regularizer(8), 1.0, 8, 2))
    assert radius > 1.0
    assert peak <= 2 * 2 ** 20, peak


def test_grid_and_priors_are_cached():
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4, nodes_per_axis=33)
    assert cfg.grid() is cfg.grid()
    assert cfg.priors() is cfg.priors()


def test_confinement_is_evaluated_once_per_configuration(monkeypatch):
    calls = []
    value = Regularizer.value

    def counting(self, theta):
        calls.append(1)
        return value(self, theta)

    monkeypatch.setattr(Regularizer, "value", counting)
    # a network's damped fallback takes many updates, a loss linear in the
    # measure one; a configuration's solves share one evaluation
    model, nu = _fallback_network(), network_data("quadratic")
    runs = []
    for tol in (1e-3, 1e-12):
        cfg = GibbsConfig(beta=2.0, sigma=1.0, p=4, theta_dim=2,
                          nodes_per_axis=17)
        calls.clear()
        sol = solve_gibbs(model, nu, cfg, tol=tol)
        prior_kl(sol.measure, cfg)
        runs.append((sol.iterations, len(calls)))
    (short, calls_short), (long, calls_long) = runs
    assert long > short + 10
    assert calls_short == calls_long == 1
    cfg = GibbsConfig(beta=0.5, sigma=1.0, p=4, nodes_per_axis=65)
    calls.clear()
    for init in (None, cfg.priors().gamma_tilt_p):
        solve_gibbs(losses.mean_squared_param_loss(), gaussian_data(2, 5),
                    cfg, init=init)
    assert len(calls) == 1


def test_priors_normalized_and_tilt_ratio():
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4, nodes_per_axis=257)
    pair = cfg.priors()
    np.testing.assert_allclose(pair.gamma_sigma.node_weights.sum(), 1.0,
                               atol=1e-12)
    np.testing.assert_allclose(pair.gamma_tilt_p.node_weights.sum(), 1.0,
                               atol=1e-12)
    # pointwise: log tilt - log prior - r^p is constant where both live
    nodes = pair.gamma_sigma.nodes
    r = np.sqrt(np.einsum("ij,ij->i", nodes, nodes))
    mask = pair.gamma_sigma.density > 1e-30
    diff = (np.log(pair.gamma_tilt_p.density[mask])
            - np.log(pair.gamma_sigma.density[mask]) - r[mask] ** cfg.p)
    assert np.ptp(diff) < 1e-9
    # normalizers are consistent with the log-constant
    np.testing.assert_allclose(
        diff.mean(), math.log(pair.normalizer_sigma)
        - math.log(pair.normalizer_tilt_p), atol=1e-9)


# ---------------------------------------------------------------------------
# KL divergence and objective


def test_kl_divergence_between_grid_gaussians():
    nodes, vol = uniform_grid_1d(0.0, 6.0, 4001)
    def make(mu, s):
        dens = np.exp(-((nodes[:, 0] - mu) ** 2) / (2 * s * s))
        return GridMeasure(nodes, vol, dens, normalize=True)
    m = make(0.3, 0.5)
    ref = make(-0.2, 0.7)
    closed = (math.log(0.7 / 0.5)
              + (0.5 ** 2 + 0.5 ** 2) / (2 * 0.7 ** 2) - 0.5)
    np.testing.assert_allclose(kl_divergence(m, ref), closed, atol=1e-6)
    assert kl_divergence(m, m) == 0.0
    assert kl_divergence(m, ref) > 0.0


def test_kl_divergence_conventions():
    nodes, vol = uniform_grid_1d(0.0, 1.0, 101)
    inside = np.where(np.abs(nodes[:, 0]) < 0.5, 1.0, 0.0)
    m_narrow = GridMeasure(nodes, vol, inside, normalize=True)
    m_wide = GridMeasure(nodes, vol, np.ones(101), normalize=True)
    # 0 log 0 = 0: narrow against wide is finite
    val = kl_divergence(m_narrow, m_wide)
    assert math.isfinite(val) and val > 0.0
    # mass where the reference has none gives +inf
    assert kl_divergence(m_wide, m_narrow) == math.inf
    with pytest.raises(ValueError):
        kl_divergence(m_narrow, GridMeasure(
            nodes, vol, inside - inside.mean(), signed=True))


def test_prior_kl_matches_quadrature_kl():
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4, nodes_per_axis=401)
    m = grid_gaussian(cfg, np.array([0.3]), 0.4)
    direct = kl_divergence(m, cfg.priors().gamma_sigma)
    np.testing.assert_allclose(prior_kl(m, cfg), direct, rtol=1e-10)


def test_prior_kl_survives_prior_underflow():
    # on a wide box the prior density underflows to zero at the edge,
    # so the quadrature KL against it blows up while the log-space
    # evaluation stays finite
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4, radius=8.0,
                      nodes_per_axis=801)
    assert np.any(cfg.priors().gamma_sigma.density == 0.0)
    m = grid_gaussian(cfg, np.array([0.0]), 0.5)
    assert kl_divergence(m, cfg.priors().gamma_sigma) == math.inf
    val = prior_kl(m, cfg)
    assert math.isfinite(val) and val > 0.0
    # a narrower box sees the same measure (its tails vanish well before
    # either edge), so the two evaluations agree
    cfg2 = GibbsConfig(beta=1.0, sigma=1.0, p=4, radius=4.0,
                       nodes_per_axis=401)
    m2 = grid_gaussian(cfg2, np.array([0.0]), 0.5)
    np.testing.assert_allclose(val, prior_kl(m2, cfg2), atol=1e-4)


def test_objective_decomposition_and_minimizer():
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4, nodes_per_axis=257)
    model = losses.mean_squared_param_loss()
    nu = gaussian_data(seed=2)
    m = grid_gaussian(cfg, np.array([0.2]), 0.5)
    val = objective(model, m, nu, cfg)
    np.testing.assert_allclose(
        val, losses.risk(model, m, nu)
        + cfg.kl_weight * kl_divergence(m, cfg.priors().gamma_sigma),
        rtol=1e-12)
    star = solve_gibbs(model, nu, cfg, damping=1.0, tol=1e-12).measure
    v_star = objective(model, star, nu, cfg)
    for trial in (m, grid_gaussian(cfg, np.array([-0.5]), 0.3),
                  cfg.priors().gamma_sigma):
        assert v_star <= objective(model, trial, nu, cfg) + 1e-10


def test_objective_finite_under_prior_underflow():
    # sigma = 0.3 on a radius-12 box: the prior density underflows to zero
    # at the outer nodes, where the quadrature KL would return inf
    cfg = GibbsConfig(beta=1.0, sigma=0.3, p=4, radius=12.0)
    assert np.any(cfg.priors().gamma_sigma.density == 0.0)
    model = losses.mean_squared_param_loss()
    nu = gaussian_data(seed=4)
    m = grid_gaussian(cfg, np.array([0.0]), 1.0)
    val = objective(model, m, nu, cfg)
    assert math.isfinite(val)
    np.testing.assert_allclose(
        val, losses.risk(model, m, nu) + cfg.kl_weight * prior_kl(m, cfg),
        rtol=1e-12)


# ---------------------------------------------------------------------------
# tilt map and fixed point


def test_parametric_fixed_point_matches_closed_form():
    # quadratic confinement and quadratic location loss give a Gaussian
    # whose mean and variance are known in closed form
    reg = Regularizer(kappa=2.0, q=1)
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=2, regularizer=reg,
                      nodes_per_axis=801)
    model = losses.mean_squared_param_loss()
    nu = gaussian_data(seed=4)
    sol = solve_gibbs(model, nu, cfg, damping=1.0, tol=1e-12)
    assert sol.iterations == 1
    tau = cfg.temperature
    y_bar = float(nu.weights @ nu.ys)
    # density ~ exp(-tau (t - y_bar)^2 - 2 t^2): Gaussian
    prec = 2.0 * (tau + 2.0)
    mean = 2.0 * tau * y_bar / prec
    var = 1.0 / prec
    np.testing.assert_allclose(sol.measure.mean()[0], mean, atol=1e-9)
    np.testing.assert_allclose(
        sol.measure.moment(2) - sol.measure.mean()[0] ** 2, var, atol=1e-9)


def test_gibbs_map_is_constant_in_m_for_param_losses():
    cfg = GibbsConfig(beta=0.8, sigma=1.0, p=4, nodes_per_axis=129)
    model = losses.mean_squared_param_loss()
    nu = gaussian_data(seed=5)
    out0 = gibbs_map(model, cfg.priors().gamma_sigma, nu, cfg)
    out1 = gibbs_map(model, grid_gaussian(cfg, np.array([0.5]), 0.2), nu, cfg)
    np.testing.assert_allclose(out0.density, out1.density, rtol=1e-12)


def test_solve_gibbs_nn_fixed_point_and_two_inits():
    model = losses.NNLoss("tanh", "quadratic")
    cfg = GibbsConfig(beta=0.7, sigma=1.0, p=4, theta_dim=2,
                      nodes_per_axis=33)
    rng = np.random.default_rng(6)
    xs = rng.standard_normal((6, 1))
    ys = np.tanh(1.2 * xs[:, 0])
    nu = empirical_from_arrays(xs, ys)
    sol = solve_gibbs(model, nu, cfg, damping=0.5, tol=1e-9)
    assert sol.residual <= 1e-9
    # the solution is a fixed point of the tilt map
    mapped = gibbs_map(model, sol.measure, nu, cfg)
    np.testing.assert_allclose(mapped.density, sol.measure.density,
                               atol=2e-9 * sol.measure.density.max())
    sol2 = solve_gibbs(model, nu, cfg, damping=0.5, tol=1e-9,
                       init=cfg.priors().gamma_tilt_p)
    assert np.max(np.abs(sol2.measure.density - sol.measure.density)) <= 1e-6


def damped_oracle(model, nu, cfg, m, damping=0.5, tol=1e-12,
                  max_iter=5000):
    """Plain damped tilt iteration: the slow reference for Newton."""
    nodes, vol = cfg.grid()
    for _ in range(max_iter):
        target = gibbs_map(model, m, nu, cfg)
        if np.max(np.abs(target.density - m.density)) <= tol:
            return m
        m = GridMeasure(nodes, vol,
                        (1.0 - damping) * m.density + damping * target.density,
                        normalize=True)
    raise AssertionError("damped oracle did not converge")


def network_data(outer, n=5, seed=0):
    xs = np.random.default_rng(seed).standard_normal((n, 1))
    ys = (np.sign(xs[:, 0]) if outer == "product_margin"
          else np.tanh(1.2 * xs[:, 0]))
    return empirical_from_arrays(xs, ys)


@pytest.mark.parametrize("nodes", [17, 33])
@pytest.mark.parametrize("outer", ["quadratic", "logcosh", "product_margin"])
@pytest.mark.parametrize("act", ["tanh", "heaviside"])
def test_newton_matches_damped_oracle(nodes, outer, act):
    # Newton on the predictions needs no activation derivative, so the
    # heaviside network is covered too
    model = losses.NNLoss(act, outer)
    nu = network_data(outer)
    for beta in (0.7, 2.0):
        cfg = GibbsConfig(beta=beta, sigma=1.0, p=4, theta_dim=2,
                          nodes_per_axis=nodes)
        for init in (None, cfg.priors().gamma_tilt_p):
            sol = solve_gibbs(model, nu, cfg, tol=1e-12, init=init)
            assert sol.residual <= 1e-12
            assert sol.iterations <= 5
            ref = damped_oracle(model, nu, cfg,
                                init or cfg.priors().gamma_sigma)
            assert np.max(np.abs(sol.measure.density - ref.density)) <= 1e-9
            # the reported residual is the tilt-map residual of the result
            mapped = gibbs_map(model, sol.measure, nu, cfg)
            np.testing.assert_allclose(
                np.max(np.abs(mapped.density - sol.measure.density)),
                sol.residual, atol=1e-14)


def _fallback_network():
    """A tanh network whose outer curvature has the wrong sign and size:
    its Newton steps do not lower the prediction residual."""
    quad = losses.outer_loss("quadratic")
    return losses.NNLoss("tanh", dataclasses.replace(
        quad, d2=lambda yh, y: -10.0 * quad.d2(yh, y)))


def test_newton_falls_back_to_damped_iteration():
    # the solver continues from Newton's last measure by damped iteration
    # and still reaches the true fixed point
    nu = network_data("quadratic")
    cfg = GibbsConfig(beta=2.0, sigma=1.0, p=4, theta_dim=2,
                      nodes_per_axis=17)
    sol = solve_gibbs(_fallback_network(), nu, cfg, tol=1e-12)
    assert sol.residual <= 1e-12
    assert sol.iterations > 5
    ref = damped_oracle(losses.NNLoss("tanh", "quadratic"), nu, cfg,
                        cfg.priors().gamma_sigma)
    assert np.max(np.abs(sol.measure.density - ref.density)) <= 1e-9


def _traced_peak(fn):
    """``fn()`` and the tracemalloc peak of the call, in bytes above the
    traced level before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _dense_system(features, mean, weights, curvatures, temperature):
    """Oracle: ``S = I + tau B^T B diag(c)`` with the whole weighted
    features ``B = W^(1/2) (A - mean)`` formed at once."""
    b = (features - mean) * np.sqrt(weights)[:, None]
    return np.eye(b.shape[1]) + temperature * (b.T @ b) * curvatures


@pytest.mark.parametrize("chunk", [losses._CHUNK_ELEMENTS, 1000, 64 * 4225,
                                   1 << 22])
def test_system_gram_summed_by_row_chunks_matches_dense_oracle(
        monkeypatch, chunk):
    # 4225 nodes by 64 atoms: the shipped chunks, ragged 15-row chunks,
    # all rows in exactly one chunk, and a chunk larger than the features
    monkeypatch.setattr(losses, "_CHUNK_ELEMENTS", chunk)
    model = losses.NNLoss("tanh", "quadratic")
    nu = network_data("quadratic", n=64)
    cfg = GibbsConfig(beta=0.7, sigma=1.0, p=8, theta_dim=2,
                      nodes_per_axis=65)
    m = cfg.priors().gamma_sigma
    w = m.node_weights
    phi = model.phi(m.nodes, nu.xs)
    mean = phi.T @ w
    ones = np.ones(nu.n_atoms)
    # unit curvatures and temperature: S - I is the Gram itself
    gram = gibbs._system(phi, mean, w, ones, 1.0)
    assert np.array_equal(gram, gram.T)
    want = _dense_system(phi, mean, w, ones, 1.0)
    scale = np.max(np.abs(want - np.eye(nu.n_atoms)))
    assert np.max(np.abs(gram - want)) <= 1e-14 * scale
    # the kernel's system on its centred features, at its curvatures
    kern = funcderiv.build_Cm(model, m, nu)
    got = kern.system(cfg.temperature)
    want = _dense_system(kern.features, 0.0, kern.weights, kern.curvatures,
                         cfg.temperature)
    scale = np.max(np.abs(want - np.eye(nu.n_atoms)))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale


def test_network_solve_map_and_derivative_hold_one_feature_array():
    # budget fixed from the array count: one (N, n) feature array, one
    # row chunk of the activation or of the system's weighted features,
    # plus 24 node-sized arrays for the measures, exponents and checks of
    # a step
    model = losses.NNLoss("tanh", "quadratic")
    nu = network_data("quadratic", n=64)
    cfg = GibbsConfig(beta=0.7, sigma=1.0, p=8, theta_dim=2,
                      nodes_per_axis=65)
    cfg.priors()
    n_nodes, n_atoms = cfg.grid()[0].shape[0], nu.n_atoms
    budget = 8 * (n_nodes * n_atoms + losses._CHUNK_ELEMENTS + 24 * n_nodes)
    kw = {"damping": 0.5, "tol": 1e-9}
    sol, peak = _traced_peak(lambda: solve_gibbs(model, nu, cfg, **kw))
    assert sol.residual <= 1e-9
    assert peak <= budget, (peak, budget)
    # the damped path: NNLoss.dm builds the features for the predictions
    # and again for the derivative, one at a time
    mapped, peak = _traced_peak(lambda: gibbs_map(model, sol.measure, nu, cfg))
    assert np.max(np.abs(mapped.density - sol.measure.density)) <= 1e-9
    assert peak <= budget, (peak, budget)
    td = funcderiv.TrainedDerivatives(model, nu, cfg, solve_kwargs=kw)
    dm, peak = _traced_peak(lambda: td.dm_dnu(DataPoint([0.5], 0.4)))
    assert dm.signed
    assert peak <= budget, (peak, budget)


def test_solve_gibbs_argument_validation():
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4, nodes_per_axis=65)
    model = losses.mean_squared_param_loss()
    nu = gaussian_data(seed=7)
    with pytest.raises(ValueError):
        solve_gibbs(model, nu, cfg, damping=0.0)
    with pytest.raises(ValueError):
        solve_gibbs(model, nu, cfg, damping=1.2)
    other = GibbsConfig(beta=1.0, sigma=1.0, p=4, nodes_per_axis=33)
    with pytest.raises(ValueError):
        solve_gibbs(model, nu, cfg, init=other.priors().gamma_sigma)


def _count_calls(monkeypatch, owner, name):
    """Calls of ``owner.name`` from here on, as a list of 1s."""
    calls, orig = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)
    return calls


def test_network_fallback_builds_its_features_once(monkeypatch):
    # the damped fallback iterates on the features Newton built
    calls = _count_calls(monkeypatch, losses.NNLoss, "phi")
    cfg = GibbsConfig(beta=2.0, sigma=1.0, p=4, theta_dim=2,
                      nodes_per_axis=17)
    sol = solve_gibbs(_fallback_network(), network_data("quadratic"), cfg,
                      tol=1e-12)
    assert sol.iterations > 5
    assert len(calls) == 1


def test_linear_solve_is_one_update_at_any_damping(monkeypatch):
    # the tilt map of a loss linear in the measure ignores the measure:
    # one update is its fixed point whatever the damping, from one lp_sums
    # call, and a start within tol of it is kept after 0 updates
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4, nodes_per_axis=257)
    model, nu = losses.mean_squared_param_loss(), gaussian_data(seed=3)
    calls = _count_calls(monkeypatch, type(model), "lp_sums")
    sols = [solve_gibbs(model, nu, cfg, damping=d, tol=1e-12)
            for d in (0.25, 0.5, 1.0)]
    assert len(calls) == 3
    for sol in sols:
        assert sol.iterations == 1
        assert sol.residual <= 1e-12
        np.testing.assert_array_equal(sol.measure.density,
                                      sols[0].measure.density)
    mapped = gibbs_map(model, sols[0].measure, nu, cfg)
    assert np.max(np.abs(mapped.density - sols[0].measure.density)) <= 1e-12
    kept = solve_gibbs(model, nu, cfg, tol=1e-12, init=sols[0].measure)
    assert kept.iterations == 0 and kept.measure is sols[0].measure


@pytest.mark.parametrize("setting", [
    {"tol": math.nan}, {"tol": -1e-9}, {"max_iter": -1}, {"max_iter": 2.5},
    {"damping": 3.0}, {"damping": 0.0}])
@pytest.mark.parametrize("where", ["solve_gibbs", "trainer"])
def test_bad_solver_settings_are_refused_before_any_tilt(monkeypatch, where,
                                                        setting):
    tilts = _count_calls(monkeypatch, gibbs, "_normalized_exp")
    maps = _count_calls(monkeypatch, gibbs, "gibbs_map")
    # a new configuration: its prior is not built yet
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4, nodes_per_axis=65)
    model = losses.mean_squared_param_loss()
    with pytest.raises(ValueError, match=next(iter(setting))):
        if where == "trainer":
            genbench.GridGibbsTrainer(model, cfg, **setting)
        else:
            solve_gibbs(model, gaussian_data(seed=7), cfg, **setting)
    assert tilts == maps == []


def test_exact_and_empty_solver_settings_are_accepted():
    # tol 0 asks for an exact fixed point, which a network solve can reach
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4, nodes_per_axis=65)
    trainer = genbench.GridGibbsTrainer(losses.mean_squared_param_loss(), cfg,
                                        tol=0.0, max_iter=0)
    assert trainer.solve_kwargs == {"damping": 1.0, "tol": 0.0, "max_iter": 0}


def test_solve_gibbs_convergence_error_carries_residual():
    model = losses.NNLoss("tanh", "quadratic")
    cfg = GibbsConfig(beta=0.7, sigma=1.0, p=4, theta_dim=2,
                      nodes_per_axis=17)
    nu = empirical_from_arrays(np.array([[0.5]]), np.array([0.4]))
    with pytest.raises(GibbsConvergenceError) as err:
        solve_gibbs(model, nu, cfg, damping=0.5, tol=1e-14, max_iter=1)
    assert err.value.residual > 0.0


def test_prior_moment_bound_dominates_solution_moment():
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4,
                      regularizer=Regularizer(kappa=0.05, q=3),
                      nodes_per_axis=257)
    model = losses.mean_squared_param_loss()
    nu = gaussian_data(seed=8)
    sol = solve_gibbs(model, nu, cfg, damping=1.0, tol=1e-12)
    bound = prior_moment_bound(model, nu, cfg)
    assert sol.measure.moment(cfg.p) <= bound + 1e-6


def test_risk_dm_nodes_centering():
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4, nodes_per_axis=129)
    model = losses.mean_squared_param_loss()
    nu = gaussian_data(seed=9)
    m = cfg.priors().gamma_sigma
    nodes = m.nodes
    centered = model.dm(m, nu.xs, nu.ys, nu.weights, nodes, centered=True)
    raw = model.dm(m, nu.xs, nu.ys, nu.weights, nodes, centered=False)
    np.testing.assert_allclose(centered @ m.node_weights, 0.0, atol=1e-10)
    # centering only shifts by a constant
    assert np.ptp(raw - centered) < 1e-10
    # network derivative is centered by construction
    nn = losses.NNLoss("tanh", "quadratic")
    cfg2 = GibbsConfig(beta=1.0, sigma=1.0, p=4, theta_dim=2,
                       nodes_per_axis=25)
    xs = np.random.default_rng(10).standard_normal((4, 1))
    nu2 = empirical_from_arrays(xs, np.tanh(xs[:, 0]))
    m2 = cfg2.priors().gamma_sigma
    vals = nn.dm(m2, nu2.xs, nu2.ys, nu2.weights, m2.nodes)
    np.testing.assert_allclose(vals @ m2.node_weights, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# particle sampler


def test_mfld_sample_deterministic_given_seed():
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4,
                      regularizer=Regularizer(kappa=0.05, q=3))
    model = losses.mean_squared_param_loss()
    nu = gaussian_data(seed=11, n=5)
    a = mfld_sample(model, nu, cfg, 64, 1e-3, 50, seed=123)
    b = mfld_sample(model, nu, cfg, 64, 1e-3, 50, seed=123)
    c = mfld_sample(model, nu, cfg, 64, 1e-3, 50, seed=124)
    np.testing.assert_array_equal(a.points, b.points)
    assert np.any(a.points != c.points)
    assert a.points.shape == (64, 1)


def test_mfld_sample_matches_quadratic_stationary_law():
    # zero loss and quadratic confinement: stationary law is the prior,
    # a centered Gaussian with variance sigma^2 / (2 kappa)
    reg = Regularizer(kappa=1.0, q=1)
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=2, regularizer=reg, radius=6.0)
    model = losses.zero_param_loss()
    nu = gaussian_data(seed=12, n=2)
    part = mfld_sample(model, nu, cfg, 8192, 5e-3, 2000, seed=77)
    samp = part.points[:, 0]
    target = 0.5
    se = target * math.sqrt(2.0 / (samp.size - 1))
    assert abs(samp.var(ddof=1) - target) <= 5 * se + 5e-3
    assert abs(samp.mean()) <= 5 * math.sqrt(target / samp.size)


def test_mfld_sample_sign_stream_is_pinned(monkeypatch):
    # from zero particles under the zero loss one step leaves each at
    # +-sqrt(h) exactly; for seed 9 the first step's 64 signs, bit i set
    # where particle i moved up, are this word: the first raw word, read
    # as little-endian bytes, least significant bit first
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=2,
                      regularizer=Regularizer(kappa=1.0, q=1), radius=6.0)
    nu = gaussian_data(seed=16, n=3)
    x = mfld_sample(losses.zero_param_loss(), nu, cfg, 64, 1e-2, 1, seed=9,
                    init=np.zeros((64, 1))).points[:, 0]
    assert np.all(np.abs(x) == math.sqrt(1e-2))
    assert sum(1 << i for i in range(64) if x[i] > 0) == 0xDEC8A6DE6BEA8721

    # a call draws the initial cloud and then ceil(P * d / 64) whole raw
    # words a step, and nothing else
    default_rng, made = np.random.default_rng, []

    def recording(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    for name, n_particles, n_steps, n_words in [
            ("zero", 64, 7, 1), ("zero", 65, 5, 2),
            ("nn-tanh-quadratic-1", 50, 3, 2),
            ("nn-tanh-quadratic-2", 64, 4, 3)]:
        model, nu, cfg = _sampler_case(name)
        mfld_sample(model, nu, cfg, n_particles, 1e-3, n_steps, seed=5)
        fresh = default_rng(np.random.SeedSequence(5))
        fresh.standard_normal((n_particles, cfg.theta_dim))
        fresh.bit_generator.random_raw(n_steps * n_words)
        assert made[-1].bit_generator.state == fresh.bit_generator.state


def test_mfld_sample_ou_variance_follows_the_exact_recursion():
    # zero loss, U = theta^2 and beta = sigma = 1: from zero particles each
    # step is theta <- (1 - h) theta + sqrt(h) xi with xi = +-1, so the
    # variance follows v_{k+1} = (1 - h)^2 v_k + h exactly, from v_0 = 0
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=2,
                      regularizer=Regularizer(kappa=1.0, q=1), radius=6.0)
    nu = gaussian_data(seed=12, n=2)
    h, n = 0.02, 8192
    for k in (10, 100):
        x = mfld_sample(losses.zero_param_loss(), nu, cfg, n, h, k, seed=31,
                        init=np.zeros((n, 1))).points[:, 0]
        v = 0.0
        for _ in range(k):
            v = (1.0 - h) ** 2 * v + h
        se = math.sqrt(np.var((x - x.mean()) ** 2, ddof=1) / n)
        assert abs(x.var(ddof=1) - v) <= 5 * se


def test_mfld_sample_law_matches_the_gaussian_increment_oracle():
    # the signs and Euler-Maruyama's normals, on independent seeds, give
    # the same mean and second moment at T = 1 within 4 combined SE
    model, nu, cfg = _sampler_case("bench-mean_squared-2048x12")
    n, h, k = 8192, 2e-3, 500
    x = mfld_sample(model, nu, cfg, n, h, k, seed=41).points[:, 0]
    y = _oracle_mfld_sample(model, nu, cfg, n, h, k, seed=42,
                            gaussian=True).points[:, 0]
    for a, b in ((x, y), (x ** 2, y ** 2)):
        se = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / n)
        assert abs(a.mean() - b.mean()) <= 4 * se


def test_mfld_sample_rejects_unstable_step():
    model = losses.NNLoss("tanh", "quadratic")
    cfg = GibbsConfig(beta=1.0, sigma=0.5, p=8, theta_dim=2)
    xs = np.random.default_rng(13).standard_normal((4, 1))
    nu = empirical_from_arrays(xs, np.tanh(xs[:, 0]))
    with pytest.raises(ValueError):
        mfld_sample(model, nu, cfg, 64, 0.5, 10, seed=1)
    with pytest.raises(ValueError):
        mfld_sample(losses.NNLoss("heaviside", "quadratic"), nu, cfg,
                    64, 1e-4, 10, seed=1)
    with pytest.raises(ValueError):
        mfld_sample(model, nu, cfg, 0, 1e-4, 10, seed=1)


def test_mfld_sample_custom_init_shape_checked():
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=4,
                      regularizer=Regularizer(kappa=0.05, q=3))
    model = losses.mean_squared_param_loss()
    nu = gaussian_data(seed=14, n=3)
    init = np.zeros((32, 1))
    part = mfld_sample(model, nu, cfg, 32, 1e-3, 5, seed=5, init=init)
    assert part.points.shape == (32, 1)
    with pytest.raises(ValueError):
        mfld_sample(model, nu, cfg, 32, 1e-3, 5, seed=5,
                    init=np.zeros((8, 1)))


def _shifted_init(n_particles, far_row, far_value):
    # 33 probe rows near 0, so the stability probe passes, and one row
    # outside the probe at far_value
    init = np.linspace(-0.1, 0.1, n_particles)[:, None]
    init[far_row] = far_value
    return init


def test_mfld_sample_divergence_raises_runtime_error():
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=2,
                      regularizer=Regularizer(kappa=1.0, q=1), radius=6.0)
    nu = gaussian_data(seed=15, n=3)
    with pytest.raises(RuntimeError, match="diverged"):
        mfld_sample(losses.zero_param_loss(), nu, cfg, 64, 1e-3, 5, seed=2,
                    init=_shifted_init(64, 33, 100.0))

    # a loss drift of -6 theta against the confinement's theta grows one
    # particle from 30 by about 1 + 5h a step, past ten radii (60) after
    # some steps: the error names the step at which the out-of-place loop
    # first leaves them, and the seed
    def lp(theta, xs, ys):
        return -3.0 * (theta[:, 0] + 0.0 * ys[:, None]) ** 2

    def lp_grad(theta, xs, ys):
        return -6.0 * (theta[:, 0] + 0.0 * ys[:, None])[:, :, None]

    model = losses.ExpectedParamLoss(lp, M_p=1.0, lp_grad=lp_grad)
    init = _shifted_init(64, 33, 30.0)
    step = _oracle_first_step(
        model, nu, cfg, 1e-2, 100, 2, init,
        lambda pts: np.abs(pts).max() > 10.0 * cfg.box_radius())
    assert step is not None and step > 5
    with pytest.raises(RuntimeError) as info:
        mfld_sample(model, nu, cfg, 64, 1e-2, 100, seed=2, init=init)
    assert str(info.value) == (
        f"particle system diverged at step {step} (seed 2, left ten box "
        "radii); reduce the step size")


def test_mfld_sample_non_finite_particle_raises_value_error():
    def lp(theta, xs, ys):
        return (theta[:, 0] - ys[:, None]) ** 2

    def lp_grad(theta, xs, ys):
        g = 2.0 * (theta[:, 0] - ys[:, None])[:, :, None]
        return np.where(np.abs(theta) > 5.0, np.nan, g)

    model = losses.ExpectedParamLoss(lp, M_p=2.0, lp_grad=lp_grad)
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=2,
                      regularizer=Regularizer(kappa=1.0, q=1), radius=6.0)
    nu = gaussian_data(seed=16, n=3)
    # the drift at 5.5 is NaN, and so is that particle after one step
    with pytest.raises(ValueError, match="non-finite particle"):
        mfld_sample(model, nu, cfg, 64, 1e-3, 5, seed=3,
                    init=_shifted_init(64, 40, 5.5))
    with pytest.raises(ValueError, match="non-finite particle"):
        mfld_sample(losses.zero_param_loss(), nu, cfg, 64, 1e-3, 5, seed=3,
                    init=_shifted_init(64, 40, np.nan))


# shipped losses whose sampler drift comes from their data statistics; the
# zero loss's drift is exactly 0 either way
_STATISTICS_DRIFT = ("mean_squared", "linear_regression")
# the network cases: activation, outer loss and input features
_NN_SAMPLER_NAMES = [f"nn-{act}-{outer}-{q}"
                     for act in ("tanh", "sigmoid", "relu")
                     for outer in ("quadratic", "logcosh") for q in (1, 2)]


def _general_dm_grad(model, m, xs, ys, weights, theta, via_lp_grad=False):
    """Gradient in ``theta`` (d, N), parameter-major as the sampler holds
    its particles, of ``model.dm`` at any measure ``m``: (d, N).  For the
    ``_STATISTICS_DRIFT`` losses it is their ``dm_grad_map``, made afresh
    (statistics summed again at every call), unless ``via_lp_grad``."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    if not isinstance(model, losses.NNLoss):
        if model.name in _STATISTICS_DRIFT and not via_lp_grad:
            return model.dm_grad_map(xs, ys, weights)(theta)
        return np.tensordot(weights, model.lp_grad(theta.T, xs, ys),
                            axes=1).T
    act = model.activation
    xs = np.asarray(xs, dtype=float)
    nodes = m.points.T
    preds = act.value(xs @ nodes[1:]) @ nodes[0] / m.n_particles
    coef = weights * model.outer.d1(preds, ys)
    u = xs @ theta[1:]
    g = np.empty_like(theta)
    a = act.value(u)
    g[0] = coef @ a
    g[1:] = theta[0] * ((coef[:, None] * xs).T @ act.deriv(u, a))
    return g


def _node_major_dm_grad(model, m, xs, ys, weights, theta):
    """The network drift of ``model.dm`` at ``m``, node-major: ``theta``
    (N, d) to (N, d), as the sampler formed it on (P, d) particles."""
    act = model.activation
    xs = np.asarray(xs, dtype=float)
    preds = model.phi(m.points, xs).mean(axis=0)
    coef = weights * model.outer.d1(preds, ys)
    u = theta[:, 1:] @ xs.T
    g = np.empty_like(theta)
    a = act.value(u)
    g[:, 0] = a @ coef
    g[:, 1:] = theta[:, 0][:, None] * ((act.deriv(u, a) * coef) @ xs)
    return g


def _oracle_signs(rng, n_steps, shape):
    """``n_steps`` steps of the sampler's +-1 increments, as one
    (n_steps, *shape) array: each step takes ceil(size / 64) raw words,
    and its increment i is bit i % 64 of its word i // 64, taken by
    shifts of the word, never through its bytes."""
    size = math.prod(shape)
    words = rng.bit_generator.random_raw((n_steps, -(-size // 64)))
    bits = (words[..., None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    bits = bits.reshape(n_steps, -1)[:, :size]
    return np.where(bits == 1, 1.0, -1.0).reshape(n_steps, *shape)


def _oracle_mfld_sample(model, nu, cfg, n_particles, step_size, n_steps,
                        seed, init=None, via_lp_grad=False,
                        node_major=False, block_steps=None, gaussian=False):
    """The sampler one out-of-place step at a time, with a
    ``ParticleMeasure`` per step: the slow reference for the fused loop.
    It holds the particles parameter-major, (d, P), as the sampler does;
    ``node_major`` holds them (P, d) and forms a network's drift with
    :func:`_node_major_dm_grad`, which rounds otherwise.  Each step's
    increments are the sampler's signs, in C order of the (d, P)
    particles; with ``block_steps`` = k it draws the raw words of k steps
    at a time (the last block shorter) and splits them per step.  With
    ``gaussian`` the increments are (P, d) standard normals a step
    instead (Euler-Maruyama): the law reference for the signs, not the
    sampler's stream."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if init is None:
        pts = gibbs._init_scale(cfg) * rng.standard_normal(
            (n_particles, cfg.theta_dim))
    else:
        pts = np.array(init, dtype=float)
    if not node_major:
        pts = np.ascontiguousarray(pts.T)
    noise_scale = math.sqrt(step_size * cfg.sigma ** 2 / cfg.beta ** 2)
    shape = (cfg.theta_dim, n_particles)
    for step in range(n_steps):
        if gaussian:
            noise = rng.standard_normal(shape[::-1]).T
        elif block_steps is None:
            noise = _oracle_signs(rng, 1, shape)[0]
        else:
            if step % block_steps == 0:
                block = _oracle_signs(rng, min(block_steps, n_steps - step),
                                      shape)
            noise = block[step % block_steps]
        if node_major:
            drift = cfg.regularizer.grad(pts) / (2.0 * cfg.beta ** 2) \
                + _node_major_dm_grad(model, ParticleMeasure(pts), nu.xs,
                                      nu.ys, nu.weights, pts)
            noise = noise.T
        else:
            drift = cfg.regularizer.grad(pts.T).T / (2.0 * cfg.beta ** 2) \
                + _general_dm_grad(model, ParticleMeasure(pts.T), nu.xs,
                                   nu.ys, nu.weights, pts, via_lp_grad)
        pts = pts - step_size * drift + noise_scale * noise
        assert np.max(np.abs(pts)) <= 10.0 * cfg.box_radius()
    return ParticleMeasure(pts if node_major else pts.T)


# the benchmark's two sampler shapes (perfbench network_2d) as (particles,
# steps): ufunc and einsum loops may take other kernels than at 64 rows
_BENCH_SAMPLER = {"bench-nn-1024x8": (1024, 5),
                  "bench-mean_squared-2048x12": (2048, 5)}


def _sampler_case(name):
    """``(model, nu, cfg)`` of one equivalence case."""
    rng = np.random.default_rng(21)
    if name.startswith("bench"):
        net = name.startswith("bench-nn")
        xs = rng.standard_normal((8 if net else 12, 1))
        nu = empirical_from_arrays(xs, np.tanh(0.8 * xs[:, 0]))
        if net:  # tanh network, theta in R^2
            return (losses.NNLoss("tanh", "quadratic"), nu,
                    GibbsConfig(beta=0.7, sigma=1.0, p=4, theta_dim=2))
        return losses.mean_squared_param_loss(), nu, GibbsConfig(
            beta=0.8, sigma=1.0, p=4, regularizer=Regularizer(0.05, 3))
    if name.startswith("nn"):
        _, act, outer, q = name.split("-")
        xs = rng.standard_normal((6, int(q)))
        nu = empirical_from_arrays(xs, np.tanh(xs @ np.linspace(1, 0.5,
                                                                int(q))))
        cfg = GibbsConfig(beta=1.0, sigma=0.5, p=8, theta_dim=1 + int(q))
        return losses.NNLoss(act, outer), nu, cfg
    xs = rng.standard_normal((5, 1))
    nu = empirical_from_arrays(xs, 0.7 * xs[:, 0] + rng.standard_normal(5))
    cfg = GibbsConfig(beta=0.8, sigma=1.0, p=4,
                      regularizer=Regularizer(kappa=0.05, q=3))
    if name == "finite_difference":
        def lp(theta, xs, ys):
            return np.log1p((theta[:, 0] - ys[:, None]) ** 2)
        return losses.ExpectedParamLoss(lp, M_p=1.0), nu, cfg
    return {"mean_squared": losses.mean_squared_param_loss,
            "linear_regression": losses.linear_regression_param_loss,
            "zero": losses.zero_param_loss}[name](), nu, cfg


@pytest.mark.parametrize("with_init", [False, True])
@pytest.mark.parametrize("name", [
    "mean_squared", "linear_regression", "finite_difference", "zero",
    *_NN_SAMPLER_NAMES, *_BENCH_SAMPLER])
def test_mfld_sample_matches_out_of_place_oracle(name, with_init):
    model, nu, cfg = _sampler_case(name)
    rows, steps = _BENCH_SAMPLER.get(name, (64, 40))
    init = (0.3 * np.random.default_rng(4).standard_normal(
        (rows, cfg.theta_dim)) if with_init else None)
    kept = None if init is None else init.copy()
    part = mfld_sample(model, nu, cfg, rows, 1e-3, steps, seed=9, init=init)
    # the sampler steps a (d, P) copy, never init, even where init.T is
    # already C-ordered (d = 1)
    np.testing.assert_array_equal(init, kept)
    ref = _oracle_mfld_sample(model, nu, cfg, rows, 1e-3, steps, seed=9,
                              init=init)
    np.testing.assert_array_equal(part.points, ref.points)


@pytest.mark.parametrize("with_init", [False, True])
@pytest.mark.parametrize("name", _STATISTICS_DRIFT)
def test_mfld_sample_statistics_drift_tracks_lp_grad_loop(name, with_init):
    # 40 steps driven by the data statistics stay within 1e-12 of
    # max(1, |reference|) of the loop that reduces lp_grad over the atoms
    model, nu, cfg = _sampler_case(name)
    init = (0.3 * np.random.default_rng(4).standard_normal((64, 1))
            if with_init else None)
    got = mfld_sample(model, nu, cfg, 64, 1e-3, 40, seed=9, init=init).points
    want = _oracle_mfld_sample(model, nu, cfg, 64, 1e-3, 40, seed=9,
                               init=init, via_lp_grad=True).points
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0,
                                                          np.abs(want)))


@pytest.mark.parametrize("with_init", [False, True])
@pytest.mark.parametrize("name", _NN_SAMPLER_NAMES)
def test_mfld_sample_network_drift_tracks_node_major_loop(name, with_init):
    # the parameter-major drift sums in other orders (the prediction mean,
    # the atom contractions, and for d >= 3 the confinement's squared
    # norm): 40 steps stay within 1e-12 of max(1, |reference|) of the loop
    # on (P, d) particles with the node-major network drift
    model, nu, cfg = _sampler_case(name)
    init = (0.3 * np.random.default_rng(4).standard_normal(
        (64, cfg.theta_dim)) if with_init else None)
    got = mfld_sample(model, nu, cfg, 64, 1e-3, 40, seed=9, init=init).points
    want = _oracle_mfld_sample(model, nu, cfg, 64, 1e-3, 40, seed=9,
                               init=init, node_major=True).points
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0,
                                                          np.abs(want)))


def _counting(fn, counts, key):
    def wrapped(*args):
        counts[key] += 1
        return fn(*args)
    return wrapped


@pytest.mark.parametrize("name", _STATISTICS_DRIFT)
def test_mfld_sample_sums_statistics_once_per_call(name):
    # coef and centre run once per sampler call, whatever the step count:
    # the stability probe and every step share the statistics
    shipped, nu, cfg = _sampler_case(name)
    for n_steps in (1, 7, 40):
        counts = {"coef": 0, "centre": 0}
        model = losses.ExpectedParamLoss(
            shipped.lp, shipped.M_p, shipped.lp_grad, shipped.name,
            psi=shipped.psi, psi_grad=shipped.psi_grad,
            coef=_counting(shipped.coef, counts, "coef"),
            centre=_counting(shipped.centre, counts, "centre"))
        part = mfld_sample(model, nu, cfg, 64, 1e-3, n_steps, seed=9)
        assert counts == {"coef": 1, "centre": 1}
        np.testing.assert_array_equal(
            part.points,
            mfld_sample(shipped, nu, cfg, 64, 1e-3, n_steps, seed=9).points)


def test_mfld_sample_never_calls_the_zero_loss_drift():
    # the zero loss's statistics are all 0, so it has no drift map and no
    # step evaluates psi_grad; the particles equal the oracle's, which adds
    # the lp_grad zeros at every step
    shipped, nu, cfg = _sampler_case("zero")
    counts = {"psi_grad": 0}
    model = losses.ExpectedParamLoss(
        shipped.lp, shipped.M_p, shipped.lp_grad, shipped.name,
        psi=shipped.psi,
        psi_grad=_counting(shipped.psi_grad, counts, "psi_grad"),
        coef=shipped.coef, centre=shipped.centre)
    for init in (None, np.linspace(-0.5, 0.5, 64)[:, None]):
        part = mfld_sample(model, nu, cfg, 64, 1e-3, 40, seed=9, init=init)
        assert counts == {"psi_grad": 0}
        ref = _oracle_mfld_sample(shipped, nu, cfg, 64, 1e-3, 40, seed=9,
                                  init=init)
        np.testing.assert_array_equal(part.points, ref.points)


_SAMPLER_NAMES = ["mean_squared", "linear_regression", "finite_difference",
                  "zero", *_NN_SAMPLER_NAMES]


# Block layouts for the sampler's raw words, as a number of increments a
# block as a function of P * d: 3 steps a block with a last block of 1
# (40 = 13 * 3 + 1), one block of 50 > 40 steps, and one step a block when
# a step alone holds more increments than the block.  The sampler draws
# one step's whole words at a time; drawn in any of these blocks and split
# per step, the stream gives the same particles bit for bit.
@pytest.mark.parametrize("elements", [lambda pd: 3 * pd + pd - 1,
                                      lambda pd: 50 * pd,
                                      lambda pd: pd - 1],
                         ids=["partial_last_block", "one_short_block",
                              "one_step_blocks"])
@pytest.mark.parametrize("with_init", [False, True])
@pytest.mark.parametrize("name", _SAMPLER_NAMES)
def test_mfld_sample_noise_blocks_match_oracle(name, with_init, elements):
    model, nu, cfg = _sampler_case(name)
    block_steps = max(1, elements(64 * cfg.theta_dim) // (64 * cfg.theta_dim))
    init = (0.3 * np.random.default_rng(4).standard_normal((64, cfg.theta_dim))
            if with_init else None)
    part = mfld_sample(model, nu, cfg, 64, 1e-3, 40, seed=9, init=init)
    ref = _oracle_mfld_sample(model, nu, cfg, 64, 1e-3, 40, seed=9, init=init,
                              block_steps=block_steps)
    np.testing.assert_array_equal(part.points, ref.points)


def _nan_beyond(limit):
    """A quadratic loss whose gradient is NaN where ``|theta| > limit``."""
    def lp(theta, xs, ys):
        return (theta[:, 0] - ys[:, None]) ** 2

    def lp_grad(theta, xs, ys):
        g = 2.0 * (theta[:, 0] - ys[:, None])[:, :, None]
        return np.where(np.abs(theta) > limit, np.nan, g)

    return losses.ExpectedParamLoss(lp, M_p=2.0, lp_grad=lp_grad)


def _oracle_first_step(model, nu, cfg, step_size, n_steps, seed, init, stop):
    """The out-of-place loop's first step whose (d, P) particles meet
    ``stop``, or None."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts = np.ascontiguousarray(np.transpose(init), dtype=float)
    noise_scale = math.sqrt(step_size * cfg.sigma ** 2 / cfg.beta ** 2)
    for step in range(1, n_steps + 1):
        drift = cfg.regularizer.grad(pts.T).T / (2.0 * cfg.beta ** 2) \
            + _general_dm_grad(model, ParticleMeasure(pts.T), nu.xs, nu.ys,
                               nu.weights, pts)
        pts = pts - step_size * drift \
            + noise_scale * _oracle_signs(rng, 1, pts.shape)[0]
        if stop(pts):
            return step
    return None


def test_mfld_sample_leaves_no_thread_behind():
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=2,
                      regularizer=Regularizer(kappa=1.0, q=1), radius=6.0)
    nu = gaussian_data(seed=16, n=3)
    before = threading.enumerate()
    mfld_sample(losses.zero_param_loss(), nu, cfg, 64, 1e-3, 23, seed=3)
    assert threading.enumerate() == before

    with pytest.raises(RuntimeError, match="diverged"):
        mfld_sample(losses.zero_param_loss(), nu, cfg, 64, 1e-3, 23, seed=2,
                    init=_shifted_init(64, 33, 100.0))
    assert threading.enumerate() == before

    model, init = _nan_beyond(1.05), _shifted_init(64, 40, 1.0)
    step = _oracle_first_step(model, nu, cfg, 1e-2, 200, 3, init,
                              lambda pts: np.isnan(pts).any())
    assert step is not None and step > 5
    with pytest.raises(ValueError) as info:
        mfld_sample(model, nu, cfg, 64, 1e-2, 200, seed=3, init=init)
    assert str(info.value) == f"non-finite particle after step {step}"
    assert threading.enumerate() == before


@pytest.mark.parametrize("name", ["nn-tanh-quadratic-1", "mean_squared"])
def test_mfld_sample_runs_on_the_calling_thread(monkeypatch, name):
    # the drift map reads the live thread count at the stability probe and
    # at every step: the sampler starts no thread (2048 particles, enough
    # normals that a thread drawing them ahead would outlive the probe)
    model, nu, cfg = _sampler_case(name)
    ref = _oracle_mfld_sample(model, nu, cfg, 2048, 1e-3, 40, seed=9)
    shipped, counts = type(model).dm_grad_map, []

    def dm_grad_map(self, xs, ys, weights):
        drift = shipped(self, xs, ys, weights)

        def counted(pts):
            counts.append(threading.active_count())
            return drift(pts)
        return counted

    monkeypatch.setattr(type(model), "dm_grad_map", dm_grad_map)
    before = threading.active_count()
    part = mfld_sample(model, nu, cfg, 2048, 1e-3, 40, seed=9)
    assert counts == [before] * 41
    np.testing.assert_array_equal(part.points, ref.points)


class _FailingDraws:
    """A generator whose bit generator's ``fail_at``-th raw draw raises."""

    def __init__(self, rng, fail_at):
        self.rng, self.left = rng, fail_at
        self.bit_generator = self

    def standard_normal(self, *args, **kwargs):
        return self.rng.standard_normal(*args, **kwargs)

    def random_raw(self, size=None, output=True):
        self.left -= 1
        if self.left == 0:
            raise MemoryError("injected draw failure")
        return self.rng.bit_generator.random_raw(size, output)


def test_mfld_sample_propagates_a_failing_draw(monkeypatch):
    # the first and the third step's draw fail
    default_rng = np.random.default_rng
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=2,
                      regularizer=Regularizer(kappa=1.0, q=1), radius=6.0)
    nu = gaussian_data(seed=16, n=3)
    before = threading.enumerate()
    for fail_at in (1, 3):
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _FailingDraws(default_rng(seed),
                                                       fail_at))
        with pytest.raises(MemoryError, match="injected draw failure"):
            mfld_sample(losses.zero_param_loss(), nu, cfg, 64, 1e-3, 23,
                        seed=3)
        assert threading.enumerate() == before


def test_mfld_sample_matches_oracle_under_thread_contention():
    # four samplers at once on four threads with a short switch interval:
    # state shared between calls would move a particle
    model, nu, cfg = _sampler_case("nn-tanh-quadratic-1")
    init = 0.3 * np.random.default_rng(4).standard_normal((64, 2))
    points = {}

    def sample(seed):
        points[seed] = mfld_sample(model, nu, cfg, 64, 1e-3, 40, seed=seed,
                                   init=init).points

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=sample, args=(seed,), daemon=True)
                   for seed in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for seed in range(4):
        ref = _oracle_mfld_sample(model, nu, cfg, 64, 1e-3, 40, seed=seed,
                                  init=init)
        np.testing.assert_array_equal(points[seed], ref.points)


@pytest.mark.parametrize("setting", [
    {"n_particles": 2.5}, {"n_particles": 0}, {"n_steps": 2.5},
    {"n_steps": math.nan}, {"step_size": math.nan}, {"step_size": math.inf},
    {"step_size": -1e-3}])
@pytest.mark.parametrize("where", ["mfld_sample", "trainer"])
def test_bad_sampler_settings_are_refused_before_any_draw(monkeypatch, where,
                                                          setting):
    # each is named, as a ValueError, before a stream or a drift map is made
    model, nu, cfg = _sampler_case("nn-tanh-quadratic-1")
    draws = _count_calls(monkeypatch, np.random, "default_rng")
    maps = _count_calls(monkeypatch, losses.NNLoss, "dm_grad_map")
    kwargs = dict({"n_particles": 64, "step_size": 1e-3, "n_steps": 5},
                  **setting)
    with pytest.raises(ValueError, match=next(iter(setting))):
        if where == "trainer":
            genbench.MFLDTrainer(model, cfg, **kwargs)
        else:
            mfld_sample(model, nu, cfg, seed=3, **kwargs)
    assert draws == maps == []


def test_mfld_trainer_keeps_whole_settings():
    model, _, cfg = _sampler_case("nn-tanh-quadratic-1")
    trainer = genbench.MFLDTrainer(model, cfg, 16.0, 1e-3, 5.0)
    assert (trainer.n_particles, trainer.n_nodes, trainer.n_steps) \
        == (16, 16, 5)
    assert all(type(v) is int for v in (trainer.n_particles, trainer.n_steps))


@pytest.mark.parametrize("name", ["nn-tanh-quadratic-2", "mean_squared"])
def test_mfld_sample_owns_its_buffers(name):
    # two calls on one model with different particle counts each equal the
    # out-of-place oracle, and the model gains no attribute: the drift
    # buffers live in the call, not on the model
    model, nu, cfg = _sampler_case(name)
    before = dict(vars(model))
    for n_particles in (64, 40, 64):
        part = mfld_sample(model, nu, cfg, n_particles, 1e-3, 20, seed=9)
        ref = _oracle_mfld_sample(model, nu, cfg, n_particles, 1e-3, 20,
                                  seed=9)
        np.testing.assert_array_equal(part.points, ref.points)
        assert vars(model) == before
