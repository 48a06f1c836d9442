"""Tests for populations, trainers, estimation routes, and bounds."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab import funcderiv, genbench, gibbs, losses
from gibbslab.genbench import (ConstantTrainer, DiscretePopulation,
                               ExplicitGaussianMeanTrainer,
                               GaussianScalarPopulation, GridGibbsTrainer,
                               MFLDTrainer, NoiselessLinePopulation,
                               convex_lower_bound_check, enumerate_exact_gen,
                               estimate_routes, gaussian_bump_on_grid, gaussian_mean_oracle,
                               gaussian_mean_setup, gibbs_bound_constants,
                               lge, lge_upper_terms,
                               noiseless_line_setup, population_risk_bound,
                               rate_fit, wge_direct, wge_representation,
                               wge_resampled)
from gibbslab.gibbs import GibbsConfig, Regularizer
from gibbslab.measures import (DataMeasure, DataPoint, GridMeasure,
                               MeasureBatch, convex_combination,
                               empirical_from_arrays, resample, uniform_grid)

WEAK_CFG = GibbsConfig(beta=0.5, sigma=1.0, p=4,
                       regularizer=Regularizer(kappa=0.05, q=3),
                       nodes_per_axis=257)
NET_CFG = GibbsConfig(beta=0.7, sigma=1.0, p=4, theta_dim=2,
                      nodes_per_axis=17)


def _network_trainer():
    """A grid trainer that solves row by row: a tanh network, damped 0.5."""
    return GridGibbsTrainer(losses.NNLoss("tanh", "quadratic"), NET_CFG,
                            damping=0.5)


def _train_one(trainer, nu, rng=None):
    """The measure ``trainer`` trains on the one dataset ``nu``: the grid
    trainer's solve, the sampler on a seed drawn from ``rng``, else a
    one-row batch."""
    if isinstance(trainer, GridGibbsTrainer):
        return trainer.solve(nu).measure
    if isinstance(trainer, MFLDTrainer):
        return gibbs.mfld_sample(trainer.model, nu, trainer.cfg,
                                 trainer.n_particles, trainer.step_size,
                                 trainer.n_steps,
                                 int(rng.integers(0, 2 ** 63)))
    return trainer.train_batch(nu.xs[None], nu.ys[None])[0]


def _unnamed(model):
    """``model`` under a custom name, which no population's measure
    integrates exactly, so that estimators take their out-of-sample draws."""
    return losses.ExpectedParamLoss(model.lp, model.M_p, model.lp_grad)


# ---------------------------------------------------------------------------
# populations


def test_gaussian_population_moments():
    pop = GaussianScalarPopulation(mu=0.5, sigma=1.5)
    rng = np.random.default_rng(0)
    xs, ys = pop.sample(rng, 200000)
    assert xs.shape == (200000, 0)
    np.testing.assert_allclose(ys.mean(), 0.5, atol=0.02)
    np.testing.assert_allclose(ys.std(), 1.5, atol=0.02)
    # moment oracle vs quadrature of (1 + z^2)^k against the density
    t = np.linspace(0.5 - 12, 0.5 + 12, 400001)
    dens = np.exp(-((t - 0.5) ** 2) / (2 * 1.5 ** 2)) / (1.5 * math.sqrt(2 * math.pi))
    for k in (1, 2, 4, 8):
        quad = np.trapezoid((1 + t ** 2) ** k * dens, t)
        np.testing.assert_allclose(pop.moment_one_plus_sq(k), quad,
                                   rtol=1e-6)
    with pytest.raises(ValueError):
        pop.moment_one_plus_sq(9)


def test_noiseless_line_population():
    pop = NoiselessLinePopulation(slope=0.5, x_sigma=2.0)
    rng = np.random.default_rng(1)
    xs, ys = pop.sample(rng, 100000)
    assert xs.shape == (100000, 1)
    np.testing.assert_allclose(ys, 0.5 * xs[:, 0], rtol=1e-12)
    # ||Z||^2 = (1 + slope^2) x^2
    k = 2
    samp = (1 + xs[:, 0] ** 2 + ys ** 2) ** k
    np.testing.assert_allclose(pop.moment_one_plus_sq(k), samp.mean(),
                               rtol=0.05)


def _normal_raw_moments(mu, sigma, top):
    """Raw moments E[Z^j], j = 0..top, of N(mu, sigma^2) by their
    recurrence: the closed form the moment oracle once used."""
    out = [1.0, mu]
    for j in range(2, top + 1):
        out.append(mu * out[-1] + (j - 1) * sigma ** 2 * out[-2])
    return out


@pytest.mark.parametrize("pop, mu, scale", [
    (GaussianScalarPopulation(0.5, 1.5), 0.5, 1.5),
    (GaussianScalarPopulation(-2.0, 0.3), -2.0, 0.3),
    # ||Z||^2 = (1 + slope^2) x^2 with x ~ N(0, x_sigma^2)
    (NoiselessLinePopulation(0.5, 2.0), 0.0, 2.0 * math.sqrt(1.25)),
    (NoiselessLinePopulation(-1.5, 0.7), 0.0, 0.7 * math.sqrt(3.25)),
])
def test_moment_oracle_matches_raw_normal_moments(pop, mu, scale):
    for k in range(1, 9):
        raw = _normal_raw_moments(mu, scale, 2 * k)
        want = sum(math.comb(k, j) * raw[2 * j] for j in range(k + 1))
        np.testing.assert_allclose(pop.moment_one_plus_sq(k), want,
                                   rtol=1e-12)


def test_gauss_hermite_rule_matches_numpy():
    g, w = np.polynomial.hermite_e.hermegauss(9)
    np.testing.assert_allclose(genbench._HERMITE_NODES, g, rtol=0,
                               atol=1e-15)
    np.testing.assert_allclose(genbench._HERMITE_WEIGHTS, w / w.sum(),
                               rtol=1e-15)
    assert abs(genbench._HERMITE_WEIGHTS.sum() - 1.0) <= 1e-15


# population averages of each pair by the closed forms the populations once
# held: E_Z lp(theta, Z) as a function of the nodes theta (N, 1)
_CLOSED_FORMS = {
    "mean_squared on gaussian": (
        losses.mean_squared_param_loss, GaussianScalarPopulation(0.3, 1.2),
        lambda th: (th[:, 0] - 0.3) ** 2 + 1.2 ** 2),
    "linear_regression on line": (
        losses.linear_regression_param_loss, NoiselessLinePopulation(0.5, 2.0),
        lambda th: (0.5 - th[:, 0]) ** 2 * 2.0 ** 2),
    "mean_squared on line": (
        losses.mean_squared_param_loss, NoiselessLinePopulation(0.5, 2.0),
        lambda th: th[:, 0] ** 2 + 0.5 ** 2 * 2.0 ** 2),
}


@pytest.mark.parametrize("pair", list(_CLOSED_FORMS))
def test_population_measure_matches_closed_form_averages(pair):
    make_model, pop, expected = _CLOSED_FORMS[pair]
    model = make_model()
    trainer = GridGibbsTrainer(model, WEAK_CFG)
    block = genbench._Block(trainer, pop, model, 5, 3, range(4))
    assert block.pop_atoms[3]  # the measure, not draws
    m, nodes = block.m, block.m.nodes
    want_risk = m.node_weights @ expected(nodes)
    np.testing.assert_allclose(block.pop_risk, want_risk, rtol=1e-12)
    np.testing.assert_allclose(
        block.gap, want_risk - block.risk(m, *block.data(0)), rtol=1e-12)
    # the block's derivative drops each row's constant: it is E_Z lp
    want_dm = np.broadcast_to(expected(nodes), (len(block), len(nodes)))
    scale = np.abs(want_dm).max()
    np.testing.assert_allclose(block.pop_dm(m), want_dm, rtol=1e-12,
                               atol=1e-12 * scale)
    xs, ys, w, _ = block.pop_atoms
    np.testing.assert_allclose(
        model.dm(m, xs, ys, w, nodes),
        want_dm - want_risk[:, None], rtol=1e-12, atol=1e-12 * scale)


def test_discrete_population_measure_is_its_support():
    xs, ys = np.array([[0.5], [-1.0], [2.0]]), np.array([0.2, -0.4, 1.1])
    probs = np.array([0.2, 0.3, 0.5])
    pop = DiscretePopulation([DataPoint(x, y) for x, y in zip(xs, ys)], probs)
    np.testing.assert_array_equal(pop.measure.xs, xs)
    np.testing.assert_array_equal(pop.measure.ys, ys)
    np.testing.assert_array_equal(pop.measure.weights, probs)
    nsq = 1.0 + xs[:, 0] ** 2 + ys ** 2
    for k in range(1, 9):
        assert pop.moment_one_plus_sq(k) == float(probs @ nsq ** k)
    for bad in ([0.5, 0.6, 0.0], [np.nan, 0.5, 0.5], [1.0, np.nan, 0.0],
                [np.inf, 0.5, 0.5], [-0.1, 0.6, 0.5]):
        with pytest.raises(ValueError, match="finite, nonnegative"):
            DiscretePopulation(pop.points, bad)
    # every loss takes the support: row r of a block's averages is the
    # average at the measure of row r
    rng = np.random.default_rng(4)
    for model, d in ((losses.linear_regression_param_loss(), 1),
                     (losses.NNLoss("tanh", "logcosh"), 2)):
        nodes, vol = uniform_grid(2.0, 9, d)
        dens = rng.uniform(0.1, 1.0, (3, len(nodes)))
        batch = MeasureBatch(nodes, vol, dens, normalize=True)
        block = genbench._Block(ConstantTrainer(batch[0]), pop, model, 2, 5,
                                range(3))
        block.m = batch
        assert block.pop_atoms[3]
        for r in range(3):
            manual = sum(p * losses.loss_value(model, batch[r], z)
                         for p, z in zip(probs, pop.points))
            np.testing.assert_allclose(block.pop_risk[r], manual, rtol=1e-12)
            np.testing.assert_allclose(
                block.pop_dm(batch)[r],
                model.dm(batch[r], xs, ys, probs, nodes, centered=False),
                rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("pair", [*_CLOSED_FORMS, "custom on discrete"])
def test_pop_dm_on_the_measure_is_one_broadcast_row(pair):
    # a loss linear in the measure, on the population's measure: every row
    # of the block's population derivative is the same function of the
    # shared nodes, so one row broadcast equals the per-row form exactly
    if pair == "custom on discrete":
        rng = np.random.default_rng(8)
        pop = DiscretePopulation(
            [DataPoint(rng.standard_normal(1), float(rng.standard_normal()))
             for _ in range(4)], np.array([0.1, 0.2, 0.3, 0.4]))
        model = _unnamed(losses.linear_regression_param_loss())
    else:
        make_model, pop, _ = _CLOSED_FORMS[pair]
        model = make_model()
    nodes, vol = uniform_grid(3.0, 257, 1)
    dens = np.random.default_rng(9).uniform(0.1, 1.0, (127, len(nodes)))
    batch = MeasureBatch(nodes, vol, dens, normalize=True)
    block = genbench._Block(ConstantTrainer(batch[0]), pop, model, 3, 5,
                            range(127))
    xs, ys, w, exact = block.pop_atoms
    assert exact
    got = block.pop_dm(batch)
    assert got.shape == (127, 257) and got.strides[0] == 0
    np.testing.assert_array_equal(
        got, model.dm(batch, xs, ys, w, nodes, centered=False))


def test_population_measures_match_large_samples():
    for pop in (GaussianScalarPopulation(0.2, 1.3),
                NoiselessLinePopulation(-0.7, 1.5)):
        xs, ys = pop.sample(np.random.default_rng(3), 400000)
        mu = pop.measure
        assert mu.n_atoms == 9
        assert mu.feature_dim == pop.feature_dim
        for f in (lambda x, y: y, lambda x, y: y ** 2,
                  lambda x, y: (x ** 2).sum(axis=1) + y ** 4):
            sample = f(xs, ys)
            np.testing.assert_allclose(
                mu.weights @ f(mu.xs, mu.ys), sample.mean(),
                atol=4.0 * sample.std() / math.sqrt(sample.size))


def test_population_atoms_are_the_measure_only_for_known_losses():
    gauss, line = gaussian_mean_setup()[1], noiseless_line_setup()[1]
    discrete = DiscretePopulation([DataPoint(np.array([1.0]), 0.5)], [1.0])
    net = losses.NNLoss("tanh", "quadratic")
    reps, size = range(3, 6), 7
    for pop, model, exact in (
            (gauss, losses.mean_squared_param_loss(), True),
            (gauss, losses.zero_param_loss(), True),
            (line, losses.linear_regression_param_loss(), True),
            (line, losses.mean_squared_param_loss(), True),
            (discrete, net, True),
            (gauss, _unnamed(losses.mean_squared_param_loss()), False),
            (line, net, False)):
        xs, ys, w, got = genbench._population_atoms(pop, model, 11, reps,
                                                    size)
        assert got == exact
        if exact:
            want = pop.measure
            np.testing.assert_array_equal(xs, np.broadcast_to(
                want.xs, (3,) + want.xs.shape))
            np.testing.assert_array_equal(ys, np.broadcast_to(
                want.ys, (3,) + want.ys.shape))
            assert w is want.weights
        else:
            want = pop.sample_batch(genbench._streams(11, reps, 1), size)
            np.testing.assert_array_equal(xs, want[0])
            np.testing.assert_array_equal(ys, want[1])
            np.testing.assert_array_equal(w, np.full(size, 1.0 / size))
    # the zero loss's population average is exactly zero on the measure
    zero = losses.zero_param_loss()
    m = GibbsConfig(beta=0.5, sigma=1.0, p=4,
                    nodes_per_axis=65).priors().gamma_sigma
    for pop in (gauss, line):
        est = wge_direct(ConstantTrainer(m), pop, zero, 4, 3, 5)
        assert est.value == 0.0 and est.stderr == 0.0


@pytest.mark.parametrize("make, value, name", [
    (lambda v: GaussianScalarPopulation(v, 1.0), math.nan, "mu"),
    (lambda v: GaussianScalarPopulation(v, 1.0), math.inf, "mu"),
    (lambda v: GaussianScalarPopulation(0.0, v), math.nan, "sigma"),
    (lambda v: GaussianScalarPopulation(0.0, v), math.inf, "sigma"),
    (lambda v: GaussianScalarPopulation(0.0, v), 0.0, "sigma"),
    (lambda v: NoiselessLinePopulation(v, 1.0), math.nan, "slope"),
    (lambda v: NoiselessLinePopulation(v, 1.0), -math.inf, "slope"),
    (lambda v: NoiselessLinePopulation(0.5, v), math.nan, "x_sigma"),
    (lambda v: NoiselessLinePopulation(0.5, v), math.inf, "x_sigma"),
    (lambda v: NoiselessLinePopulation(0.5, v), -1.0, "x_sigma"),
])
def test_population_refuses_non_finite_parameters(make, value, name):
    with pytest.raises(ValueError, match=f"parameter {name} must be"):
        make(value)


# ---------------------------------------------------------------------------
# trainers


def test_explicit_trainer_matches_its_description():
    trainer = ExplicitGaussianMeanTrainer(1.5)
    ys = np.array([0.2, 0.8, -0.4, 1.0])
    m = trainer.train_batch(np.zeros((1, 4, 0)), ys[None])[0]
    np.testing.assert_allclose(m.mean()[0], ys.mean(), atol=1e-12)
    var = m.moment(2) - m.mean()[0] ** 2
    np.testing.assert_allclose(var, 1.5 ** 2 / 4.0, rtol=1e-6)
    with pytest.raises(ValueError):
        ExplicitGaussianMeanTrainer(0.0)


@pytest.mark.parametrize("n", [1, 2, 5, 80, 10 ** 4])
@pytest.mark.parametrize("sigma_tilde", [0.5, 1.0, 3.0])
def test_explicit_trainer_rule_is_exact_to_rounding(n, sigma_tilde):
    # the mean and the variance of the grid law are those of
    # N(mean(ys), sigma_tilde^2 / n) to rounding, on population-like data
    ys = np.random.default_rng([n, int(10 * sigma_tilde)]).standard_normal(
        (4, n))
    m = ExplicitGaussianMeanTrainer(sigma_tilde).train_batch(
        np.zeros((4, n, 0)), ys)
    s = sigma_tilde / math.sqrt(n)
    for r in range(4):
        mean = m[r].mean()[0]
        var = m[r].integrate(lambda th: (th[:, 0] - mean) ** 2)
        assert abs(mean - ys[r].mean()) <= 1e-14 * s
        assert abs(var - s * s) <= 1e-14 * s * s


@pytest.mark.parametrize("n", [5, 80])
def test_explicit_routes_match_a_finer_rule(monkeypatch, n):
    model, pop = gaussian_mean_setup()
    routes = ["direct", "resampled", "lge", "convex_lower"]

    def estimates():
        out = estimate_routes(ExplicitGaussianMeanTrainer(1.0), pop, model,
                              n, 2000, 3, routes)
        ests = [out[r] for r in routes[:3]] + list(out["convex_lower"][:2])
        return np.array([(e.value, e.stderr) for e in ests])

    got = estimates()
    monkeypatch.setattr(genbench, "_EXPLICIT_NODES", 257)
    np.testing.assert_allclose(got, estimates(), rtol=1e-13, atol=0)


def test_grid_trainer_roundtrip_and_with_beta():
    model, pop = noiseless_line_setup()
    trainer = GridGibbsTrainer(model, WEAK_CFG)
    xs, ys = pop.sample(np.random.default_rng(5), 4)
    nu = empirical_from_arrays(xs, ys)
    sol = trainer.solve(nu)
    assert sol.iterations == 1  # loss linear in m, full step
    m = trainer.train_batch(xs[None], ys[None])[0]
    # one fixed point, renormalized by a one-measure and a batch mass sum
    np.testing.assert_allclose(m.density, sol.measure.density, rtol=1e-14)
    mapped = gibbs.gibbs_map(model, m, nu, WEAK_CFG)
    assert np.max(np.abs(mapped.density - m.density)) <= 1e-14
    t2 = trainer.with_beta(1.0)
    assert t2.cfg.beta == 1.0
    assert t2.cfg.box_radius() == WEAK_CFG.box_radius()
    assert t2.solve_kwargs == trainer.solve_kwargs


def test_constant_trainer_has_zero_swap_gap():
    model, pop = gaussian_mean_setup()
    prior = WEAK_CFG.priors().gamma_sigma
    trainer = ConstantTrainer(prior)
    est = wge_resampled(trainer, pop, model, 6, 50, seed=6)
    assert est.value == 0.0 and est.stderr == 0.0


def test_mfld_trainer_requires_rng():
    model, _ = gaussian_mean_setup()
    trainer = MFLDTrainer(model, WEAK_CFG, 32, 1e-3, 10)
    xs, ys = np.zeros((1, 3, 0)), np.zeros((1, 3))
    with pytest.raises(ValueError):
        trainer.train_batch(xs, ys)
    part = trainer.train_batch(xs, ys, [np.random.default_rng(7)])
    assert len(part) == 1 and part[0].nodes.shape == (32, 1)


def _row_streams(rows):
    return [np.random.default_rng([7, r]) for r in rows]


@pytest.mark.parametrize("kind", ["explicit", "grid", "solved", "mfld",
                                  "constant"])
def test_train_batch_rows_are_one_row_batches(kind):
    # the one entry point's row contract: row r of a B-row batch is the
    # one-row batch of its dataset and stream, bit for bit; a network's
    # rows are solved one at a time
    if kind == "solved":
        trainer, pop = _network_trainer(), NoiselessLinePopulation(0.8)
    else:
        trainer, pop, _ = _block_setup(kind, "gaussian")
    xs, ys = pop.sample_batch(_row_streams(range(10, 14)), 5)
    rows = range(4)
    det = trainer.deterministic
    batch = trainer.train_batch(xs, ys, None if det else _row_streams(rows))
    assert len(batch) == 4
    for r in rows:
        one = trainer.train_batch(xs[r:r + 1], ys[r:r + 1],
                                  None if det else _row_streams([r]))[0]
        for name in ("nodes", "cell_volumes", "density"):
            np.testing.assert_array_equal(getattr(batch[r], name),
                                          getattr(one, name))


def test_linear_batch_ignores_damping():
    # the one update of a loss linear in the measure is its fixed point
    model, pop = gaussian_mean_setup(0.2, 1.0)
    xs, ys = pop.sample_batch(_row_streams(range(6)), 5)
    data, swapped = (xs, ys), (xs[:, ::-1].copy(), ys[:, ::-1].copy())
    got = [(t.train_batch(xs, ys).density, t.derivative_path(data, swapped, 2))
           for t in (GridGibbsTrainer(model, WEAK_CFG, damping=d)
                     for d in (0.25, 0.5, 1.0))]
    for dens, path in got[1:]:
        np.testing.assert_array_equal(dens, got[0][0])
        np.testing.assert_array_equal(path, got[0][1])


@pytest.mark.parametrize("setting", [{"max_iter": 0}, {"tol": 1e-300}])
def test_linear_batch_honours_max_iter_and_tol_as_the_solve_does(setting):
    # no row is within tol of the prior, and no update's residual is 1e-300
    model, pop = gaussian_mean_setup()
    trainer = GridGibbsTrainer(model, WEAK_CFG, **setting)
    xs, ys = pop.sample_batch(_row_streams(range(6)), 4)
    with pytest.raises(gibbs.GibbsConvergenceError,
                       match=r"no fixed point after [01] updates in row "
                             r"(\d+); last residual") as info:
        trainer.train_batch(xs, ys)
    bad = int(re.search(r"in row (\d+)", str(info.value)).group(1))
    for r in range(bad + 1):
        nu = empirical_from_arrays(xs[r], ys[r])
        if r < bad:
            trainer.solve(nu)
            continue
        with pytest.raises(gibbs.GibbsConvergenceError) as one:
            trainer.solve(nu)
        assert one.value.residual == info.value.residual


def test_particle_rows_are_the_sampler_on_their_seeds():
    trainer, pop, model = _block_setup("mfld", "gaussian")
    xs, ys = pop.sample_batch(_row_streams(range(10, 13)), 4)
    batch = trainer.train_batch(xs, ys, _row_streams(range(3)))
    for r, rng in enumerate(_row_streams(range(3))):
        want = gibbs.mfld_sample(model, empirical_from_arrays(xs[r], ys[r]),
                                 trainer.cfg, trainer.n_particles,
                                 trainer.step_size, trainer.n_steps,
                                 int(rng.integers(0, 2 ** 63)))
        np.testing.assert_array_equal(batch[r].nodes, want.nodes)
        np.testing.assert_array_equal(batch[r].density, want.density)


# ---------------------------------------------------------------------------
# estimation routes


def test_routes_are_seed_reproducible():
    model, pop = gaussian_mean_setup()
    trainer = ExplicitGaussianMeanTrainer(1.0)
    a = wge_direct(trainer, pop, model, 8, 40, seed=8)
    b = wge_direct(trainer, pop, model, 8, 40, seed=8)
    assert a == b
    d = wge_direct(trainer, pop, model, 8, 40, seed=9)
    assert d.value != a.value
    assert a.route == "direct" and a.n == 8 and a.replicates == 40


def test_direct_and_resampled_agree_with_oracle():
    model, pop = gaussian_mean_setup()
    trainer = ExplicitGaussianMeanTrainer(1.0)
    oracle = gaussian_mean_oracle(1.0, 10)
    np.testing.assert_allclose(oracle, 0.2)
    for route in (wge_direct, wge_resampled):
        est = route(trainer, pop, model, 10, 3000, seed=10)
        assert abs(est.value - oracle) <= 4 * est.stderr


def test_replicates_floor():
    model, pop = gaussian_mean_setup()
    trainer = ExplicitGaussianMeanTrainer(1.0)
    with pytest.raises(ValueError):
        wge_direct(trainer, pop, model, 5, 1, seed=0)


def test_lge_nonnegative():
    model, pop = gaussian_mean_setup()
    trainer = ExplicitGaussianMeanTrainer(1.0)
    est = lge(trainer, pop, model, 8, 200, seed=11)
    assert est.value > 0.0


def test_representation_route_agrees_with_resampled():
    model, pop = noiseless_line_setup()
    trainer = GridGibbsTrainer(model, WEAK_CFG)
    rep = wge_representation(trainer, pop, model, 5, 80, seed=12)
    direct = wge_direct(trainer, pop, model, 5, 400, seed=13)
    # same target, independent randomness: generous combined interval
    gap = abs(rep.value - direct.value)
    assert gap <= 4 * (rep.stderr + direct.stderr)
    assert rep.route == "representation"


def test_representation_route_requires_grid_trainer():
    model, pop = gaussian_mean_setup()
    with pytest.raises(TypeError):
        wge_representation(ExplicitGaussianMeanTrainer(1.0), pop, model,
                           5, 10, seed=0)


def test_convex_lower_bound_is_exact_for_param_losses():
    # for losses linear in m the gap and its convexity minorant coincide
    model, pop = noiseless_line_setup()
    trainer = GridGibbsTrainer(model, WEAK_CFG)
    est, low, holds = convex_lower_bound_check(trainer, pop, model, 5, 40,
                                               seed=14)
    assert holds
    np.testing.assert_allclose(est.value, low.value, rtol=1e-8)


# ---------------------------------------------------------------------------
# the replicate record


def _population(which):
    return {"gaussian": GaussianScalarPopulation(0.3, 1.2),
            "line": NoiselessLinePopulation(0.5, 2.0),
            "discrete": DiscretePopulation(
                [DataPoint(np.array([0.0]), -1.0),
                 DataPoint(np.array([1.0]), 0.5),
                 DataPoint(np.array([2.0]), 2.0)], [0.2, 0.5, 0.3])}[which]


def _one_stream(pop, rng, size):
    """``pop``'s draw of ``size`` samples from the one stream ``rng``,
    written out for each shipped population."""
    if isinstance(pop, GaussianScalarPopulation):
        return (np.zeros((size, 0)),
                pop.mu + pop.sigma * rng.standard_normal(size))
    if isinstance(pop, NoiselessLinePopulation):
        xs = pop.x_sigma * rng.standard_normal((size, 1))
        return xs, pop.slope * xs[:, 0]
    idx = rng.choice(len(pop.points), size=size, p=pop.probs)
    return pop.measure.xs[idx], pop.measure.ys[idx]


@pytest.mark.parametrize("rows", [1, 7, 64])
@pytest.mark.parametrize("which", ["gaussian", "line", "discrete"])
def test_sample_batch_rows_are_the_one_stream_draws(which, rows):
    pop, size = _population(which), 9

    def fresh():
        return [np.random.default_rng([11, r]) for r in range(rows)]

    xs, ys = pop.sample_batch(fresh(), size)
    assert xs.shape == (rows, size, pop.feature_dim)
    assert ys.shape == (rows, size)
    for r, (rng, rng_formula) in enumerate(zip(fresh(), fresh())):
        x1, y1 = pop.sample(rng, size)
        x2, y2 = _one_stream(pop, rng_formula, size)
        for got, want in ((xs[r], x1), (ys[r], y1), (xs[r], x2), (ys[r], y2)):
            np.testing.assert_array_equal(got, want)
    for k in (0, 1, size - 1):
        xs_k, ys_k = pop.sample_batch(fresh(), k)
        np.testing.assert_array_equal(xs_k, xs[:, :k])
        np.testing.assert_array_equal(ys_k, ys[:, :k])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(0, 30),
       which=st.sampled_from(["gaussian", "line", "discrete"]))
def test_population_sample_is_prefix_stable(seed, k, which):
    pop = _population(which)
    xs_k, ys_k = pop.sample(np.random.default_rng(seed), k)
    xs, ys = pop.sample(np.random.default_rng(seed), k + 2)
    np.testing.assert_array_equal(xs_k, xs[:k])
    np.testing.assert_array_equal(ys_k, ys[:k])


def _record_setup(kind):
    """(trainer, population, model, routes, trainings per replicate)."""
    model, pop = noiseless_line_setup()
    light = ["direct", "resampled", "lge", "convex_lower"]
    if kind == "explicit":
        model, pop = gaussian_mean_setup()
        return ExplicitGaussianMeanTrainer(1.0), pop, model, light, 2
    if kind == "mfld":
        return MFLDTrainer(model, WEAK_CFG, 16, 1e-3, 5), pop, model, light, 2
    return (GridGibbsTrainer(model, WEAK_CFG), pop, model,
            light + ["representation", "lge_upper"], 3)


@pytest.mark.parametrize("kind", ["explicit", "grid", "mfld"])
def test_replicate_record_trains_each_dataset_once(monkeypatch, kind):
    trainer, pop, model, routes, per_replicate = _record_setup(kind)
    seen = []
    train_batch = type(trainer).train_batch

    def counting(self, xs, ys, rngs=None):
        seen.extend((x.tobytes(), y.tobytes()) for x, y in zip(xs, ys))
        return train_batch(self, xs, ys, rngs)

    monkeypatch.setattr(type(trainer), "train_batch", counting)
    estimate_routes(trainer, pop, model, 4, 3, 21, routes)
    # nu, nu with one atom swapped and (grid routes) two atoms swapped
    assert len(seen) == per_replicate * 3
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("kind", ["explicit", "grid", "mfld"])
def test_merged_routes_equal_standalone_functions(kind):
    trainer, pop, model, routes, _ = _record_setup(kind)
    views = {"direct": wge_direct, "resampled": wge_resampled, "lge": lge,
             "convex_lower": convex_lower_bound_check,
             "representation": wge_representation,
             "lge_upper": lge_upper_terms}
    merged = estimate_routes(trainer, pop, model, 4, 5, 23, routes)
    assert list(merged) == routes
    for route in routes:
        assert merged[route] == views[route](trainer, pop, model, 4, 5, 23)


def test_routes_match_scalar_loop_oracle():
    # the per-replicate streams and training order of one kernel per route:
    # draw (seed, rep, 0), out-of-sample batch (seed, rep, 1), trainer
    # stream (seed, rep, 2) with m trained before the swapped measure
    model = _unnamed(losses.mean_squared_param_loss())
    pop = GaussianScalarPopulation(0.2, 1.0)  # custom loss: draws
    trainer = MFLDTrainer(model, WEAK_CFG, 16, 1e-3, 5)
    n, replicates, seed = 4, 5, 29
    direct, swapped = [], []
    for rep in range(replicates):
        def stream(k):
            return np.random.default_rng(
                np.random.SeedSequence((seed, rep, k)))
        xs, ys = pop.sample(stream(0), n + 1)
        nu = empirical_from_arrays(xs[:n], ys[:n])
        z_bar = DataPoint(xs[n], ys[n])
        rng = stream(2)
        m = _train_one(trainer, nu, rng)
        m_swap = _train_one(trainer, resample(nu, [0], [z_bar]), rng)
        oos = empirical_from_arrays(*pop.sample(stream(1), 10 * n))
        direct.append(losses.risk(model, m, oos) - losses.risk(model, m, nu))
        swapped.append(losses.loss_value(model, m, z_bar)
                       - losses.loss_value(model, m_swap, z_bar))
    got = estimate_routes(trainer, pop, model, n, replicates, seed,
                          ["direct", "resampled"])
    for route, vals in (("direct", direct), ("resampled", swapped)):
        assert got[route].value == np.mean(vals)
        assert got[route].stderr == np.std(vals, ddof=1) / math.sqrt(replicates)


def _block_setup(trainer_kind, pop_kind):
    """(trainer, population, model) for the block-against-loop tests."""
    if pop_kind == "line":
        model, pop = noiseless_line_setup()
    else:
        model, pop = gaussian_mean_setup(0.2, 1.0)
        if pop_kind == "gaussian_custom":
            model = _unnamed(model)
        elif pop_kind == "discrete":
            pop = DiscretePopulation(
                [DataPoint(np.array([0.0]), -1.0),
                 DataPoint(np.array([1.0]), 0.5),
                 DataPoint(np.array([2.0]), 2.0)], [0.2, 0.5, 0.3])
    trainer = {"explicit": lambda: ExplicitGaussianMeanTrainer(1.0),
               "grid": lambda: GridGibbsTrainer(model, WEAK_CFG),
               "mfld": lambda: MFLDTrainer(model, WEAK_CFG, 16, 1e-3, 5),
               "constant": lambda: ConstantTrainer(
                   WEAK_CFG.priors().gamma_sigma),
               }[trainer_kind]()
    return trainer, pop, model


def _scalar_loop_terms(trainer, pop, model, n, replicates, seed):
    """direct, resampled and lge per replicate, one replicate at a time."""
    rows = []
    for rep in range(replicates):
        def stream(k):
            return np.random.default_rng(
                np.random.SeedSequence((seed, rep, k)))
        xs, ys = pop.sample(stream(0), n + 2)
        nu = empirical_from_arrays(xs[:n], ys[:n])
        z_bar = DataPoint(xs[n], ys[n])
        rng = None if trainer.deterministic else stream(2)
        m = _train_one(trainer, nu, rng)
        m_swap = _train_one(trainer, resample(nu, [0], [z_bar]), rng)
        # a finite population and the shipped polynomial losses take the
        # population's measure, any other loss 10 n draws of stream 1
        if isinstance(pop, DiscretePopulation) or model.name in (
                "mean_squared", "linear_regression", "zero"):
            pop_risk = losses.risk(model, m, pop.measure)
        else:
            oos = empirical_from_arrays(*pop.sample(stream(1), 10 * n))
            pop_risk = losses.risk(model, m, oos)
        gap = pop_risk - losses.risk(model, m, nu)
        rows.append((gap, losses.loss_value(model, m, z_bar)
                     - losses.loss_value(model, m_swap, z_bar), gap * gap))
    return dict(zip(("direct", "resampled", "lge"), np.array(rows).T))


@settings(max_examples=30, deadline=None)
@given(trainer_kind=st.sampled_from(["explicit", "grid", "mfld"]),
       pop_kind=st.sampled_from(["gaussian", "gaussian_custom", "line",
                                 "discrete"]),
       n=st.integers(1, 8), replicates=st.integers(2, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_terms_match_scalar_loop(trainer_kind, pop_kind, n, replicates,
                                       seed):
    trainer, pop, model = _block_setup(trainer_kind, pop_kind)
    routes = ["direct", "resampled", "lge"]
    got = genbench._replicate_terms(
        trainer, pop, model, n, replicates, seed,
        {route: genbench._ROUTES[route][0] for route in routes})
    want = _scalar_loop_terms(trainer, pop, model, n, replicates, seed)
    for route in routes:
        # atol covers terms that cancel to about zero
        np.testing.assert_allclose(got[route], want[route], rtol=1e-12,
                                   atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(pop_kind=st.sampled_from(["gaussian", "gaussian_custom", "line",
                                 "discrete"]),
       n=st.integers(1, 8), replicates=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_closed_form_matches_row_by_row_oracle(pop_kind, n, replicates,
                                               seed):
    # a loss linear in the measure: the batch's fixed points against a
    # damped gibbs_map loop per row, and its derivative routes against
    # TrainedDerivatives and the one-measure functions per replicate
    trainer, pop, model = _block_setup("grid", pop_kind)
    block = genbench._Block(trainer, pop, model, n, seed, range(replicates))
    for k in range(min(n, 2) + 1):
        got = block.swap(k) if k else block.m
        for r, (x, y) in enumerate(zip(*block.data(k))):
            nu = empirical_from_arrays(x, y)
            want = _damped_oracle(model, nu, WEAK_CFG)
            assert np.max(np.abs(got.density[r] - want.density)) <= 1e-12
    terms = [_reference_terms(block, r) for r in range(replicates)]
    got = [genbench._representation(block),
           genbench._convex_lower(block)[:, 1]]
    if n >= 2:
        got.append(genbench._lge_upper(block))
    for g, w in zip(got, zip(*terms)):
        # atol covers the terms that cancel to about zero
        np.testing.assert_allclose(g, np.array(w), rtol=1e-12, atol=1e-12)


def _damped_oracle(model, nu, cfg, damping=0.5, tol=1e-14):
    """Plain damped ``gibbs_map`` iteration from the prior."""
    nodes, vol = cfg.grid()
    m = cfg.priors().gamma_sigma
    for _ in range(5000):
        target = gibbs.gibbs_map(model, m, nu, cfg)
        if np.max(np.abs(target.density - m.density)) <= tol:
            return m
        m = GridMeasure(nodes, vol,
                        (1.0 - damping) * m.density + damping * target.density,
                        normalize=True)
    raise AssertionError("damped iteration did not converge")


def _reference_terms(block, r):
    """representation, convex_lower and, at n >= 2, lge_upper terms of
    replicate ``r`` of ``block``, one measure at a time with the
    one-measure functions."""
    model, n, t = block.model, block.n, block.trainer
    swaps = range(min(n, 2) + 1)
    nus = [empirical_from_arrays(*(a[r] for a in block.data(k)))
           for k in swaps]
    ms = [block.swap(k)[r] if k else block.m[r] for k in swaps]
    m, nodes, vol = ms[0], ms[0].nodes, ms[0].cell_volumes
    z1, z_bar = nus[0].point(0), nus[1].point(0)
    xs, ys, w, _ = block.pop_atoms
    pop_nu = DataMeasure(xs[r], ys[r], w)
    rule = list(zip(*funcderiv.gauss_legendre_01(8)))

    def segment(k, integrand):
        return sum(w * integrand(convex_combination(ms[k], m, float(lam)))
                   for lam, w in rule)

    def derivative_path(k):
        out = 0.0
        for lt, w in rule:
            td = funcderiv.TrainedDerivatives(
                model, convex_combination(nus[k], nus[0], float(lt)), t.cfg,
                solve_kwargs=t.solve_kwargs)
            for j in range(k):
                out = out + w * (td.dm_dnu(nus[0].point(j)).density
                                 - td.dm_dnu(nus[k].point(j)).density)
        return out

    def pop_dm(m_lam):
        return model.dm(m_lam, pop_nu.xs, pop_nu.ys, pop_nu.weights, nodes)

    g_bar = segment(1, lambda m_lam: losses.loss_dm(model, m_lam, z_bar,
                                                    nodes))
    representation = g_bar @ (derivative_path(1) * vol) / n
    lower = m.integrate(lambda th: losses.loss_dm(model, ms[1], z_bar, th))
    if n < 2:
        return representation, lower
    d_bar = segment(2, lambda m_lam: losses.loss_dm(model, m_lam, z1, nodes)
                    - pop_dm(m_lam))
    upper = [losses.loss_value(model, m, z1) ** 2,
             losses.loss_value(model, m, z_bar) ** 2, block.gap[r] ** 2,
             (d_bar @ ((m.density - ms[2].density) * vol)) ** 2,
             (d_bar @ (derivative_path(2) * vol)) ** 2]
    return representation, lower, upper


@pytest.mark.parametrize("kind", ["closed_form", "network"])
def test_derivative_routes_match_per_replicate_reference(kind):
    # a loss linear in the measure takes its paths from blended exponents,
    # a network from TrainedDerivatives row by row
    model, pop = noiseless_line_setup()
    trainer = GridGibbsTrainer(model, WEAK_CFG)
    if kind == "network":
        trainer, pop = _network_trainer(), NoiselessLinePopulation(0.8)
        model = trainer.model
    assert model.has_zero_d2m() == (kind == "closed_form")
    block = genbench._Block(trainer, pop, model, 3, 43, range(3))
    got = (genbench._representation(block),
           genbench._convex_lower(block)[:, 1], genbench._lge_upper(block))
    for g, w in zip(got, zip(*(_reference_terms(block, r) for r in range(3)))):
        # atol covers the terms that cancel to about zero
        np.testing.assert_allclose(g, np.array(w), rtol=1e-12, atol=1e-12)


def test_closed_form_returns_the_prior_where_the_solver_stops_at_it():
    # a row whose tilt lies within tol of the prior: solve_gibbs returns the
    # prior it starts from, after 0 updates, and so does the batch
    model, _ = noiseless_line_setup()
    trainer = GridGibbsTrainer(model, WEAK_CFG, tol=1e-3)
    xs = np.array([[[1.0], [-0.7]], [[1e-3], [-2e-3]]])
    ys = 0.5 * xs[..., 0]
    batch = trainer.train_batch(xs, ys)
    iterations = []
    for r in range(2):
        sol = trainer.solve(empirical_from_arrays(xs[r], ys[r]))
        iterations.append(sol.iterations)
        np.testing.assert_allclose(batch.density[r], sol.measure.density,
                                   rtol=1e-12)
    assert iterations == [1, 0]


def _force_rows(monkeypatch, trainer, n, rows):
    """Set the block budget so that the replicate loop runs ``rows`` rows
    a block for ``trainer`` at sample size ``n``."""
    monkeypatch.setattr(genbench, "_BLOCK_ELEMENTS",
                        rows * max(trainer.n_nodes, n + 2))


@pytest.mark.parametrize("trainer_kind, pop_kind, routes", [
    ("explicit", "gaussian", ["direct", "resampled", "lge", "convex_lower"]),
    ("explicit", "discrete", ["direct", "resampled"]),
    ("grid", "gaussian_custom", ["direct", "resampled", "lge"]),
    ("grid", "line", ["representation", "lge_upper"]),
    ("mfld", "line", ["direct", "resampled"]),
])
def test_block_size_does_not_change_estimates(monkeypatch, trainer_kind,
                                              pop_kind, routes):
    trainer, pop, model = _block_setup(trainer_kind, pop_kind)
    replicates = 4 if "lge_upper" in routes else 20
    results = []
    for block in (1, 7, replicates + 5):
        _force_rows(monkeypatch, trainer, 6, block)
        results.append(estimate_routes(trainer, pop, model, 6, replicates,
                                       41, routes))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1,
                                  2 ** 96 + 5])
def test_block_streams_match_seedsequence(seed):
    # seeds of 1, 1, 2, 2 and 4 entropy words; blocks of 1, 8 and 64 rows
    for stream in [0, 1, 2, 3, 10, 11, 12, 13]:
        for reps in (range(3, 4), range(0, 8), range(64, 128)):
            rngs = genbench._streams(seed, reps, stream)
            assert len(rngs) == len(reps)
            for r, rng in zip(reps, rngs):
                want = np.random.SeedSequence((seed, r, stream))
                assert rng.bit_generator.seed_seq.entropy == (seed, r, stream)
                np.testing.assert_array_equal(
                    rng.bit_generator.seed_seq.generate_state(4, np.uint64),
                    want.generate_state(4, np.uint64))
                np.testing.assert_array_equal(
                    rng.standard_normal(32),
                    np.random.default_rng(want).standard_normal(32))
        np.testing.assert_array_equal(
            genbench._rng(seed, 5, stream).standard_normal(8),
            genbench._streams(seed, range(5, 6), stream)[0]
            .standard_normal(8))


def test_block_streams_reject_keys_they_cannot_hash():
    # a replicate index of two entropy words would shift the stream words
    with pytest.raises(ValueError, match="replicate indices"):
        genbench._streams(1, range(2 ** 32 - 1, 2 ** 32 + 1), 0)
    with pytest.raises(ValueError, match="replicate indices"):
        genbench._rng(1, 2 ** 32, 0)
    with pytest.raises(ValueError, match="non-negative"):
        genbench._rng(-1, 0, 0)
    with pytest.raises(ValueError, match="entropy words"):
        genbench._rng(2 ** 512, 0, 0)
    with pytest.raises(ValueError, match="PCG64"):
        genbench._rng(1, 0, 0).bit_generator.seed_seq.generate_state(8)


class _MarkAtReplicate(genbench.PopulationModel):
    """Population ``base``, a standard Gaussian by default, whose draws for
    replicate ``bad`` hold ``value`` at the positions ``at``."""

    def __init__(self, bad, value, at=slice(None), base=None):
        self.base = base or GaussianScalarPopulation(0.0, 1.0)
        self.feature_dim, self.measure = self.base.feature_dim, \
            self.base.measure
        self.bad, self.value, self.at = bad, value, at

    def sample_batch(self, rngs, size):
        xs, ys = self.base.sample_batch(rngs, size)
        for rng, row in zip(rngs, ys):
            if rng.bit_generator.seed_seq.entropy[1] == self.bad:
                row[self.at] = self.value
        return xs, ys


_MARK = 0.375


class _DerivativeFailsAtMark(funcderiv.TrainedDerivatives):
    """Trained-measure derivative that raises toward a marked atom."""

    def dm_dnu(self, z):
        if z.y == _MARK:
            raise FloatingPointError("derivative toward the marked atom")
        return super().dm_dnu(z)


# where the failure is raised -> (trainer, marked value, route, message);
# the grid trainer takes a loss linear in the measure in closed form,
# damped or not, and trains and differentiates a network row by row
_FAILURE_SITES = {
    "draw": (lambda m: ExplicitGaussianMeanTrainer(1.0), np.inf, "direct",
             "ValueError: non-finite atom or weight"),
    "train_batch": (lambda m: ExplicitGaussianMeanTrainer(1.0), 1e308,
                    "resampled", "ValueError: non-finite grid data"),
    "closed_form": (lambda m: GridGibbsTrainer(m, WEAK_CFG), 1e200,
                    "resampled", "ValueError: tilt map produced a degenerate"),
    "row_by_row": (lambda m: _network_trainer(), 1e308, "resampled",
                   "ValueError: tilt map produced a degenerate"),
    "route_term": (lambda m: _network_trainer(), _MARK, "representation",
                   "FloatingPointError: derivative toward the marked atom"),
}


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("where", list(_FAILURE_SITES))
def test_non_finite_draw_names_its_replicate(monkeypatch, where, block):
    # only the route_term case marks its draws with _MARK
    monkeypatch.setattr(genbench, "TrainedDerivatives", _DerivativeFailsAtMark)
    make_trainer, value, route, message = _FAILURE_SITES[where]
    trainer = make_trainer(losses.mean_squared_param_loss())
    model = getattr(trainer, "model", losses.mean_squared_param_loss())
    _force_rows(monkeypatch, trainer, 4, block)
    # a network needs inputs
    pop = _MarkAtReplicate(3, value, base=None if model.has_zero_d2m()
                           else NoiselessLinePopulation(0.8))
    with np.errstate(over="ignore"), pytest.raises(
            genbench.ReplicateError,
            match=rf"{route}.* n=4, replicate 3, seed 5: {message}") as info:
        estimate_routes(trainer, pop, model, 4, 8, 5, [route])
    assert type(info.value.__cause__).__name__ == message.split(":")[0]


def test_estimate_routes_validates_before_the_loop():
    model, pop = gaussian_mean_setup()
    trainer = ExplicitGaussianMeanTrainer(1.0)
    with pytest.raises(ValueError, match="warp"):
        estimate_routes(trainer, pop, model, 4, 5, 0, ["direct", "warp"])
    with pytest.raises(TypeError):
        estimate_routes(trainer, pop, model, 4, 5, 0, ["direct", "lge_upper"])
    with pytest.raises(ValueError, match="n >= 2"):
        estimate_routes(GridGibbsTrainer(model, WEAK_CFG), pop, model, 1, 5,
                        0, ["lge_upper"])
    for n in (0, -3):
        with pytest.raises(ValueError, match="sample size must be positive"):
            wge_direct(trainer, pop, model, n, 4, 0)


class _FailsAtMark(ExplicitGaussianMeanTrainer):
    """Explicit trainer that fails on any batch holding a marked atom."""

    def train_batch(self, xs, ys, rngs=None):
        if (ys == _MARK).any():
            raise FloatingPointError("overflow in the trainer")
        return super().train_batch(xs, ys, rngs)


def test_replicate_failure_names_route_n_replicate_and_seed():
    model = losses.mean_squared_param_loss()
    # z_bar[0] of replicate 1 is marked: its dataset trains, and the batch
    # of swapped datasets, which holds z_bar[0], fails
    pop = _MarkAtReplicate(1, _MARK, at=5)
    with pytest.raises(genbench.ReplicateError,
                       match=r"resampled.* n=5, replicate 1, seed 31: "
                             r"FloatingPointError: overflow") as info:
        wge_resampled(_FailsAtMark(1.0), pop, model, 5, 6, seed=31)
    assert isinstance(info.value.__cause__, FloatingPointError)


class _FailsOnBlocks(ExplicitGaussianMeanTrainer):
    """Explicit trainer that fails on every batch of more than one row."""

    def train_batch(self, xs, ys, rngs=None):
        if ys.shape[0] > 1:
            raise FloatingPointError("batch of several rows")
        return super().train_batch(xs, ys, rngs)


def test_block_only_failure_names_the_block(monkeypatch):
    trainer = _FailsOnBlocks(1.0)
    _force_rows(monkeypatch, trainer, 4, 7)
    model, pop = gaussian_mean_setup()
    with pytest.raises(genbench.ReplicateError,
                       match=r"direct.* n=4, replicates 0-6, seed 2: "
                             r"FloatingPointError: batch of") as info:
        wge_direct(trainer, pop, model, 4, 10, seed=2)
    assert isinstance(info.value.__cause__, FloatingPointError)


def _block_sizes(monkeypatch, stop=False):
    """Row counts of the blocks the replicate loop builds; with ``stop``
    each block raises as soon as it is sized."""
    sizes, init = [], genbench._Block.__init__

    def sized(self, trainer, pop, model, n, seed, reps):
        sizes.append(len(reps))
        if stop:
            raise RuntimeError("block sized")
        init(self, trainer, pop, model, n, seed, reps)

    monkeypatch.setattr(genbench._Block, "__init__", sized)
    return sizes


def _first_block_rows(monkeypatch, trainer, model, pop, n) -> int:
    sizes = _block_sizes(monkeypatch, stop=True)
    with pytest.raises(genbench.ReplicateError, match="block sized"):
        estimate_routes(trainer, pop, model, n, 10_000, 1, ["direct"])
    return sizes[0]


def test_block_rows_follow_the_working_set(monkeypatch):
    budget = genbench._BLOCK_ELEMENTS
    # the explicit trainer's 200-replicate cells each run in one block
    model, pop = gaussian_mean_setup()
    sizes = _block_sizes(monkeypatch)
    for n in (5, 10, 20, 40, 80):
        estimate_routes(ExplicitGaussianMeanTrainer(1.0), pop, model, n, 200,
                        3, ["direct", "resampled"])
    assert sizes == [200] * 5
    # a 257-node grid: budget // 257 rows, then the remainder
    model, pop = noiseless_line_setup()
    sizes.clear()
    rows = budget // 257
    estimate_routes(GridGibbsTrainer(model, WEAK_CFG), pop, model, 4,
                    rows + 3, 3, ["direct"])
    assert sizes == [rows, 3]
    # a network on a 65^2 grid fills the budget; a 257^2 grid is wider
    # than it and runs one row a block
    net = losses.NNLoss("tanh", "quadratic")
    line = NoiselessLinePopulation(0.8, 1.0)
    rows = [_first_block_rows(monkeypatch, GridGibbsTrainer(net, GibbsConfig(
        beta=0.7, sigma=1.0, p=8, theta_dim=2, nodes_per_axis=nodes)), net,
        line, 4) for nodes in (65, 257)]
    assert rows[0] * 65 ** 2 <= budget < (rows[0] + 1) * 65 ** 2
    assert rows[1] == 1


# ---------------------------------------------------------------------------
# enumeration and rates


def test_enumeration_identity_and_validation():
    model, _ = noiseless_line_setup()
    trainer = GridGibbsTrainer(model, WEAK_CFG)
    space = [(DataPoint(np.array([0.0]), 0.0), 0.5),
             (DataPoint(np.array([1.0]), 0.5), 0.5)]
    w1, w2 = enumerate_exact_gen(trainer, space, model, 2)
    assert abs(w1 - w2) <= 1e-12
    with pytest.raises(ValueError):
        enumerate_exact_gen(trainer, [(space[0][0], 0.7), (space[1][0], 0.7)],
                            model, 2)
    with pytest.raises(ValueError):
        enumerate_exact_gen(trainer, space, model, 7)
    with pytest.raises(TypeError):
        enumerate_exact_gen(MFLDTrainer(model, WEAK_CFG, 8, 1e-3, 5),
                            space, model, 2)


@settings(max_examples=15, deadline=None)
@given(ys=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4, unique=True),
       weights=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
       n=st.integers(1, 3), kind=st.sampled_from(["explicit", "grid"]))
def test_swap_identity_on_random_discrete_spaces(ys, weights, n, kind):
    model = losses.mean_squared_param_loss()
    trainer = ExplicitGaussianMeanTrainer(1.0) if kind == "explicit" \
        else GridGibbsTrainer(model, WEAK_CFG)
    probs = np.array(weights[:len(ys)]) / sum(weights[:len(ys)])
    probs[-1] = 1.0 - probs[:-1].sum()
    space = [(DataPoint(np.zeros(0), y), p) for y, p in zip(ys, probs)]
    direct, swap = enumerate_exact_gen(trainer, space, model, n)
    assert abs(direct - swap) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6),
       q=st.integers(0, 2), k=st.integers(1, 2), data=st.data())
def test_resample_round_trip(seed, n, q, k, data):
    rng = np.random.default_rng(seed)
    nu = empirical_from_arrays(rng.standard_normal((n, q)),
                               rng.standard_normal(n))
    idx = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                             unique=True))
    new = [DataPoint(rng.standard_normal(q), float(rng.standard_normal()))
           for _ in idx]
    swapped = resample(nu, idx, new)
    back = resample(swapped, idx, [nu.point(i) for i in idx])
    for name in ("xs", "ys", "weights"):
        np.testing.assert_array_equal(getattr(back, name), getattr(nu, name))
    assert not np.array_equal(swapped.ys, nu.ys)


def test_enumeration_matches_monte_carlo():
    model, _ = gaussian_mean_setup()
    trainer = ExplicitGaussianMeanTrainer(1.0)
    pts = [DataPoint(np.zeros(0), -1.0), DataPoint(np.zeros(0), 1.0)]
    space = [(pts[0], 0.5), (pts[1], 0.5)]
    w_exact, _ = enumerate_exact_gen(trainer, space, model, 2)
    pop = DiscretePopulation(pts, [0.5, 0.5])
    est = wge_direct(trainer, pop, model, 2, 4000, seed=15)
    assert abs(est.value - w_exact) <= 4 * est.stderr


def test_rate_fit_recovers_power_law():
    ns = [5, 10, 20, 40, 80]
    ests = [genbench.GenEstimate(3.0 / n, 1e-6, 100, n, 0, "direct")
            for n in ns]
    fit = rate_fit(ns, ests)
    np.testing.assert_allclose(fit.slope, -1.0, atol=1e-9)
    np.testing.assert_allclose(fit.intercept, math.log(3.0), atol=1e-9)
    assert fit.r2 > 0.999999 and fit.n_used == 5


def test_rate_fit_excludes_zero_consistent_points():
    ns = [5, 10, 20, 40]
    ests = [genbench.GenEstimate(1.0 / n, 1e-6, 100, n, 0, "direct")
            for n in ns[:3]]
    ests.append(genbench.GenEstimate(1e-9, 1.0, 100, 40, 0, "direct"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = rate_fit(ns, ests)
    assert fit.n_used == 3
    assert any("consistent with zero" in str(w.message) for w in caught)
    with pytest.raises(ValueError):
        rate_fit(ns[:2], ests[:2])


# ---------------------------------------------------------------------------
# bounds


def test_bound_constants_scale_with_beta_squared():
    model, pop = noiseless_line_setup()
    c1 = gibbs_bound_constants(model, WEAK_CFG, pop, 20)
    c2 = gibbs_bound_constants(model, WEAK_CFG.with_beta(1.0), pop, 20)
    # temperature scales with beta^2: the weak-error bound follows
    np.testing.assert_allclose(c2.wge_bound / c1.wge_bound,
                               (1.0 / 0.5) ** 2, rtol=1e-12)
    # and the squared-error constant with beta^4
    np.testing.assert_allclose(c2.A / c1.A, (1.0 / 0.5) ** 4, rtol=1e-12)
    assert c1.c_wge > 0 and c1.K > 0


def test_bound_constants_shrink_with_n():
    model, pop = noiseless_line_setup()
    c20 = gibbs_bound_constants(model, WEAK_CFG, pop, 20)
    c80 = gibbs_bound_constants(model, WEAK_CFG, pop, 80)
    assert c80.wge_bound < c20.wge_bound
    assert c80.lge_bound < c20.lge_bound


def test_bounds_dominate_estimates_on_small_run():
    model, pop = noiseless_line_setup()
    trainer = GridGibbsTrainer(model, WEAK_CFG)
    n = 6
    consts = gibbs_bound_constants(model, WEAK_CFG, pop, n)
    w = wge_resampled(trainer, pop, model, n, 60, seed=16)
    assert abs(w.value) <= consts.wge_bound
    l = lge(trainer, pop, model, n, 60, seed=16)
    assert l.value <= consts.lge_bound
    rep = lge_upper_terms(trainer, pop, model, n, 60, seed=16)
    assert rep.holds
    assert rep.lge_estimate.value - 2 * rep.lge_estimate.stderr \
        <= rep.bound_with_margin
    assert rep.K >= 0 and rep.eh2tilde_sq >= 0


def test_lge_upper_h2_identity():
    # the per-replicate path integral and its swap representation agree
    # in mean square up to the exact 1/n^2 factor
    model, pop = noiseless_line_setup()
    trainer = GridGibbsTrainer(model, WEAK_CFG)
    n = 5
    rep = lge_upper_terms(trainer, pop, model, n, 200, seed=17)
    np.testing.assert_allclose(rep.eh2_sq, rep.eh2tilde_sq / n ** 2,
                               rtol=1e-3)


def test_population_risk_bound_modes_and_validation():
    model, pop = noiseless_line_setup()
    trainer = GridGibbsTrainer(model, WEAK_CFG)
    m_bar = gaussian_bump_on_grid(WEAK_CFG, 0.5, 0.2)
    rep = population_risk_bound(trainer, pop, model, m_bar, 16, "wge_n14",
                                20, seed=18)
    assert rep.holds
    assert rep.beta_n == pytest.approx(0.5 * 16 ** 0.25)
    assert rep.risk_bound >= rep.empirical.value
    with pytest.raises(ValueError):
        population_risk_bound(trainer, pop, model, m_bar, 16, "linear",
                              20, seed=18)


def test_gaussian_bump_on_grid_normalized():
    m = gaussian_bump_on_grid(WEAK_CFG, 0.5, 0.2)
    np.testing.assert_allclose(m.node_weights.sum(), 1.0, atol=1e-12)
    np.testing.assert_allclose(m.mean()[0], 0.5, atol=1e-6)


def test_theta_growth_constant_rules():
    nn = losses.NNLoss("tanh", "quadratic")
    ep = losses.mean_squared_param_loss()
    assert genbench._theta_growth_constant(ep, 4) == 4 * ep.M_p
    got = genbench._theta_growth_constant(nn, 8)
    assert got == 36.0 * nn.outer.L_l1 * nn.L_phi * (1.0 + nn.L_phi)
    with pytest.raises(ValueError):
        genbench._theta_growth_constant(ep, 3)
    with pytest.raises(ValueError):
        genbench._theta_growth_constant(nn, 6)
