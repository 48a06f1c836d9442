"""Generalization-error estimation for measure-valued training maps.

A trainer maps a data measure to a parameter measure.  For a trainer,
a population and a loss model, this module estimates the weak (mean)
generalization error and the mean-squared generalization error along
several routes that must agree:

* ``direct``: population risk minus empirical risk, Monte Carlo;
* ``resampled``: the out-of-sample atom swap identity;
* ``representation``: the derivative-based double-integral formula
  (grid trainers only).

It also evaluates the closed-form upper-bound constants for the
exponential-tilt trainer, an exhaustive enumeration oracle on tiny
discrete sample spaces, the exactly solvable Gaussian location problem,
and log-log rate fits over sample-size sweeps.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import warnings
from typing import Callable, Optional, Sequence

import numpy as np

from . import losses as _losses
from .funcderiv import TrainedDerivatives, gauss_legendre_01
from .gibbs import GibbsConfig, prior_kl, risk_dm_nodes, solve_gibbs
from .measures import (DataMeasure, DataPoint, GridMeasure, ParticleMeasure,
                       convex_combination, empirical_from_arrays, resample,
                       uniform_grid_1d)

_MAX_MOMENT_ORDER = 8
_ENUM_CAP = 1_000_000


# ---------------------------------------------------------------------------
# estimates and replicate plumbing


@dataclasses.dataclass(frozen=True)
class GenEstimate:
    """Monte Carlo estimate with its standard error and provenance."""

    value: float
    stderr: float
    replicates: int
    n: int
    seed: int
    route: str


def _rng(seed: int, replicate: int, stream: int) -> np.random.Generator:
    """Replicate- and purpose-keyed random stream.

    Streams are derived from ``(seed, replicate, stream)`` alone, so
    results do not depend on the order replicates run in.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, replicate, stream)))


def _map_replicates(kernel: Callable[[int], object], replicates: int) -> list:
    if replicates < 2:
        raise ValueError("need at least two replicates")
    return [kernel(r) for r in range(replicates)]


def _estimate(values, n, seed, route) -> GenEstimate:
    arr = np.asarray(values, dtype=float)
    return GenEstimate(float(arr.mean()),
                       float(arr.std(ddof=1) / math.sqrt(arr.size)),
                       int(arr.size), int(n), int(seed), route)


# ---------------------------------------------------------------------------
# populations


class PopulationModel:
    """Data-generating distribution with a moment oracle.

    Subclasses implement seeded sampling and the closed-form moments
    ``E[(1 + ||Z||^2)^k]`` for ``k <= 8``.  The optional hooks
    ``population_risk`` and ``population_loss_dm`` provide analytic
    population averages when the model/population pair admits them;
    estimators fall back to out-of-sample batches when they return
    ``None``.
    """

    feature_dim = 0

    def sample(self, rng: np.random.Generator, size: int):
        raise NotImplementedError

    def moment_one_plus_sq(self, k: int) -> float:
        raise NotImplementedError

    def population_risk(self, model, m) -> Optional[float]:
        return None

    def population_loss_dm(self, model, m, nodes) -> Optional[np.ndarray]:
        return None

    @staticmethod
    def _check_order(k: int):
        if not 1 <= k <= _MAX_MOMENT_ORDER:
            raise ValueError(
                f"moment oracle supports orders 1..{_MAX_MOMENT_ORDER}")


def _normal_raw_moments(mu: float, sigma: float, top: int) -> np.ndarray:
    """Raw moments E[Z^j], j = 0..top, of a scalar normal distribution."""
    out = np.empty(top + 1)
    out[0] = 1.0
    if top >= 1:
        out[1] = mu
    for j in range(2, top + 1):
        out[j] = mu * out[j - 1] + (j - 1) * sigma ** 2 * out[j - 2]
    return out


class GaussianScalarPopulation(PopulationModel):
    """Scalar samples ``Z ~ N(mu, sigma^2)`` carried in the target slot."""

    feature_dim = 0

    def __init__(self, mu: float, sigma: float, expected_lp=None):
        if sigma <= 0:
            raise ValueError("population scale must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self._expected_lp = expected_lp

    def sample(self, rng, size):
        ys = self.mu + self.sigma * rng.standard_normal(size)
        return np.zeros((size, 0)), ys

    def moment_one_plus_sq(self, k):
        self._check_order(k)
        raw = _normal_raw_moments(self.mu, self.sigma, 2 * k)
        return float(sum(math.comb(k, j) * raw[2 * j] for j in range(k + 1)))

    def population_risk(self, model, m):
        if self._expected_lp is None:
            return None
        return m.integrate(self._expected_lp)

    def population_loss_dm(self, model, m, nodes):
        if self._expected_lp is None or model.variant != "expected_param":
            return None
        u = np.asarray(self._expected_lp(nodes), dtype=float)
        return u - m.integrate(self._expected_lp)


class NoiselessLinePopulation(PopulationModel):
    """Samples on the line ``y = slope * x`` with Gaussian inputs.

    An interpolating parameter exists (zero achievable risk), which the
    risk-bound scheduling experiments rely on.
    """

    feature_dim = 1

    def __init__(self, slope: float, x_sigma: float = 1.0, expected_lp=None):
        if x_sigma <= 0:
            raise ValueError("input scale must be positive")
        self.slope = float(slope)
        self.x_sigma = float(x_sigma)
        self._expected_lp = expected_lp

    def sample(self, rng, size):
        xs = self.x_sigma * rng.standard_normal((size, 1))
        return xs, self.slope * xs[:, 0]

    def moment_one_plus_sq(self, k):
        self._check_order(k)
        scale = self.x_sigma * math.sqrt(1.0 + self.slope ** 2)
        raw = _normal_raw_moments(0.0, scale, 2 * k)
        return float(sum(math.comb(k, j) * raw[2 * j] for j in range(k + 1)))

    def population_risk(self, model, m):
        if self._expected_lp is None:
            return None
        return m.integrate(self._expected_lp)

    def population_loss_dm(self, model, m, nodes):
        if self._expected_lp is None or model.variant != "expected_param":
            return None
        u = np.asarray(self._expected_lp(nodes), dtype=float)
        return u - m.integrate(self._expected_lp)


class DiscretePopulation(PopulationModel):
    """Finitely supported population; all its averages are exact sums."""

    def __init__(self, points: Sequence[DataPoint], probs: Sequence[float]):
        self.points = list(points)
        probs = np.asarray(probs, dtype=float)
        if len(self.points) != probs.size or probs.size == 0:
            raise ValueError("points and probabilities disagree")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to one")
        self.probs = probs
        self.feature_dim = self.points[0].x.shape[0]
        self._xs = np.stack([p.x for p in self.points]) if self.feature_dim \
            else np.zeros((len(self.points), 0))
        self._ys = np.array([p.y for p in self.points])

    def sample(self, rng, size):
        idx = rng.choice(len(self.points), size=size, p=self.probs)
        return self._xs[idx], self._ys[idx]

    def moment_one_plus_sq(self, k):
        self._check_order(k)
        nsq = np.einsum("ij,ij->i", self._xs, self._xs) + self._ys ** 2
        return float(self.probs @ (1.0 + nsq) ** k)

    def population_risk(self, model, m):
        return float(self.probs @ model.atom_losses(m, self._xs, self._ys))

    def population_loss_dm(self, model, m, nodes):
        return model.dm(m, self._xs, self._ys, self.probs, nodes)


def gaussian_mean_setup(mu: float = 0.0, sigma: float = 1.0):
    """Matched (model, population) pair for the Gaussian location problem."""
    model = _losses.mean_squared_param_loss()
    pop = GaussianScalarPopulation(
        mu, sigma,
        expected_lp=lambda th: (th[:, 0] - mu) ** 2 + sigma ** 2)
    return model, pop


def noiseless_line_setup(slope: float = 0.5, x_sigma: float = 1.0):
    """Matched (model, population) pair for noiseless scalar regression."""
    model = _losses.linear_regression_param_loss()
    pop = NoiselessLinePopulation(
        slope, x_sigma,
        expected_lp=lambda th: (slope - th[:, 0]) ** 2 * x_sigma ** 2)
    return model, pop


# ---------------------------------------------------------------------------
# trainers


class GridGibbsTrainer:
    """Deterministic trainer: damped fixed-point solve on the grid."""

    kind = "gibbs_grid"
    deterministic = True

    def __init__(self, model, cfg: GibbsConfig, damping: float = 1.0,
                 tol: float = 1e-10, max_iter: int = 500):
        self.model = model
        self.cfg = cfg
        self.solve_kwargs = {"damping": damping, "tol": tol,
                             "max_iter": max_iter}

    def solve(self, nu: DataMeasure):
        return solve_gibbs(self.model, nu, self.cfg, **self.solve_kwargs)

    def train(self, nu: DataMeasure, rng=None):
        return self.solve(nu).measure

    def derivatives(self, nu: DataMeasure) -> TrainedDerivatives:
        return TrainedDerivatives(self.model, nu, self.cfg,
                                  solve_kwargs=self.solve_kwargs)

    def with_beta(self, beta: float) -> "GridGibbsTrainer":
        return GridGibbsTrainer(self.model, self.cfg.with_beta(beta),
                                **self.solve_kwargs)


class MFLDTrainer:
    """Stochastic trainer: Euler-Maruyama interacting particle system."""

    kind = "mfld"
    deterministic = False

    def __init__(self, model, cfg: GibbsConfig, n_particles: int,
                 step_size: float, n_steps: int):
        self.model = model
        self.cfg = cfg
        self.n_particles = int(n_particles)
        self.step_size = float(step_size)
        self.n_steps = int(n_steps)

    def train(self, nu: DataMeasure, rng=None):
        from .gibbs import mfld_sample
        if rng is None:
            raise ValueError("the particle trainer needs a random stream")
        seed = int(rng.integers(0, 2 ** 63))
        return mfld_sample(self.model, nu, self.cfg, self.n_particles,
                           self.step_size, self.n_steps, seed)


class ExplicitGaussianMeanTrainer:
    """Closed-form trainer of the Gaussian location problem.

    Maps a data measure to the normal law centered at its target mean
    with variance ``sigma_tilde^2 / n``; ``n`` defaults to the atom
    count of the trained measure and can be pinned for perturbation
    calculus.  The mean generalization error of this trainer is exactly
    ``2 sigma_tilde^2 / n``.
    """

    kind = "explicit_gaussian_mean"
    deterministic = True

    def __init__(self, sigma_tilde: float, fixed_n: Optional[int] = None,
                 n_nodes: int = 257, span: float = 9.0):
        if sigma_tilde <= 0:
            raise ValueError("sigma_tilde must be positive")
        self.sigma_tilde = float(sigma_tilde)
        self.fixed_n = fixed_n
        self.n_nodes = int(n_nodes)
        self.span = float(span)

    def _n(self, nu: DataMeasure) -> int:
        return self.fixed_n if self.fixed_n is not None else nu.n_atoms

    def _params(self, nu: DataMeasure):
        mu_hat = float(nu.weights @ nu.ys)
        s = self.sigma_tilde / math.sqrt(self._n(nu))
        return mu_hat, s

    def train(self, nu: DataMeasure, rng=None) -> GridMeasure:
        mu_hat, s = self._params(nu)
        nodes, vol = uniform_grid_1d(mu_hat, self.span * s, self.n_nodes)
        dens = np.exp(-((nodes[:, 0] - mu_hat) ** 2) / (2.0 * s * s))
        return GridMeasure(nodes, vol, dens, normalize=True)

    def dm_dnu(self, nu: DataMeasure, z: DataPoint) -> GridMeasure:
        """Closed-form signed density derivative toward ``delta_z``."""
        m = self.train(nu)
        mu_hat, s = self._params(nu)
        factor = (m.nodes[:, 0] - mu_hat) / s ** 2 * (z.y - mu_hat)
        dens = m.density * factor
        dens = dens - (dens @ m.cell_volumes) / float(m.cell_volumes.sum())
        return GridMeasure(m.nodes, m.cell_volumes, dens, signed=True)


class ConstantTrainer:
    """Trainer that ignores the data (zero generalization gap baseline)."""

    kind = "constant"
    deterministic = True

    def __init__(self, measure):
        self.measure = measure

    def train(self, nu: DataMeasure, rng=None):
        return self.measure


# ---------------------------------------------------------------------------
# core estimation routes


def _pop_risk(pop, model, m, seed, rep, n, oos_factor):
    pr = pop.population_risk(model, m)
    if pr is not None:
        return pr
    xs, ys = pop.sample(_rng(seed, rep, 1), max(oos_factor * n, 2))
    return _losses.risk(model, m, empirical_from_arrays(xs, ys))


def _draw(pop, seed, rep, count):
    xs, ys = pop.sample(_rng(seed, rep, 0), count)
    return xs, ys


def wge_direct(trainer, pop, model, n: int, replicates: int, seed: int,
               oos_factor: int = 10) -> GenEstimate:
    """Mean generalization gap, estimated directly.

    Each replicate draws a fresh dataset, trains, and evaluates
    population risk (analytic hook when the pair admits one, otherwise
    an out-of-sample batch of ``oos_factor * n`` samples) minus
    empirical risk.
    """
    def kern(rep):
        xs, ys = _draw(pop, seed, rep, n)
        nu = empirical_from_arrays(xs, ys)
        m = trainer.train(nu, _rng(seed, rep, 2))
        return _pop_risk(pop, model, m, seed, rep, n, oos_factor) \
            - _losses.risk(model, m, nu)

    return _estimate(_map_replicates(kern, replicates),
                     n, seed, "direct")


def wge_resampled(trainer, pop, model, n: int, replicates: int,
                  seed: int) -> GenEstimate:
    """Mean generalization gap via the single-atom resampling identity.

    Each replicate draws ``n + 1`` samples, trains on the first ``n``
    and on the measure with the first atom swapped for the extra one,
    and averages the loss difference at the extra sample.
    """
    def kern(rep):
        xs, ys = _draw(pop, seed, rep, n + 1)
        nu = empirical_from_arrays(xs[:n], ys[:n])
        z_bar = DataPoint(xs[n], ys[n])
        nu_swap = resample(nu, [0], [z_bar])
        rng_t = _rng(seed, rep, 2)
        m = trainer.train(nu, rng_t)
        m_swap = trainer.train(nu_swap, rng_t)
        return _losses.loss_value(model, m, z_bar) \
            - _losses.loss_value(model, m_swap, z_bar)

    return _estimate(_map_replicates(kern, replicates),
                     n, seed, "resampled")


def lge(trainer, pop, model, n: int, replicates: int, seed: int,
        oos_factor: int = 10) -> GenEstimate:
    """Mean squared generalization gap (direct Monte Carlo)."""
    def kern(rep):
        xs, ys = _draw(pop, seed, rep, n)
        nu = empirical_from_arrays(xs, ys)
        m = trainer.train(nu, _rng(seed, rep, 2))
        gap = _pop_risk(pop, model, m, seed, rep, n, oos_factor) \
            - _losses.risk(model, m, nu)
        return gap * gap

    return _estimate(_map_replicates(kern, replicates),
                     n, seed, "lge")


def markov_tail(lge_estimate, eps: float) -> float:
    """Chebyshev-style tail bound ``min(1, E[gap^2] / eps^2)``."""
    if eps <= 0:
        raise ValueError("tail threshold must be positive")
    value = lge_estimate.value if isinstance(lge_estimate, GenEstimate) \
        else float(lge_estimate)
    if value < 0:
        raise ValueError("squared-gap estimate cannot be negative")
    return min(1.0, value / eps ** 2)


def _require_grid_trainer(trainer):
    if not isinstance(trainer, GridGibbsTrainer):
        raise TypeError("this route requires the deterministic grid trainer")


def wge_representation(trainer, pop, model, n: int, replicates: int,
                       seed: int, lambda_nodes: int = 8,
                       lambda_tilde_nodes: int = 8) -> GenEstimate:
    """Mean generalization gap via the derivative representation.

    Per replicate the inner double integral is evaluated with tensor
    Gauss-Legendre quadrature: over ``lam`` the loss derivative along
    the segment between the swapped and original trained measures, over
    ``lam_tilde`` the trained-measure derivative at the blended data
    measure, contracted with the sign pattern of the swapped pair.
    """
    _require_grid_trainer(trainer)
    lams, wl = gauss_legendre_01(lambda_nodes)
    lts, wlt = gauss_legendre_01(lambda_tilde_nodes)

    def kern(rep):
        xs, ys = _draw(pop, seed, rep, n + 1)
        nu = empirical_from_arrays(xs[:n], ys[:n])
        z1 = nu.point(0)
        z_bar = DataPoint(xs[n], ys[n])
        nu_swap = resample(nu, [0], [z_bar])
        m = trainer.solve(nu).measure
        m_swap = trainer.solve(nu_swap).measure

        d_bar = np.zeros(m.n_nodes)
        for lt, w in zip(lts, wlt):
            nu_mix = convex_combination(nu_swap, nu, float(lt))
            td = TrainedDerivatives(trainer.model, nu_mix, trainer.cfg,
                                    solve_kwargs=trainer.solve_kwargs)
            d_bar += w * (td.dm_dnu(z1).density - td.dm_dnu(z_bar).density)

        g_bar = np.zeros(m.n_nodes)
        for lam, w in zip(lams, wl):
            m_lam = convex_combination(m_swap, m, float(lam))
            g_bar += w * _losses.loss_dm(model, m_lam, z_bar, m.nodes)

        h = float(g_bar @ (d_bar * m.cell_volumes))
        return h / n

    return _estimate(_map_replicates(kern, replicates),
                     n, seed, "representation")


def convex_lower_bound_check(trainer, pop, model, n: int, replicates: int,
                             seed: int):
    """Paired check of the convex-trainer lower bound on the mean gap.

    Returns ``(wge_estimate, lower_estimate, holds)`` where both
    estimates share replicate randomness and ``holds`` allows a
    ``2 * (stderr + stderr)`` margin.
    """
    def kern(rep):
        xs, ys = _draw(pop, seed, rep, n + 1)
        nu = empirical_from_arrays(xs[:n], ys[:n])
        z_bar = DataPoint(xs[n], ys[n])
        nu_swap = resample(nu, [0], [z_bar])
        rng_t = _rng(seed, rep, 2)
        m = trainer.train(nu, rng_t)
        m_swap = trainer.train(nu_swap, rng_t)
        gap = _losses.loss_value(model, m, z_bar) \
            - _losses.loss_value(model, m_swap, z_bar)
        lower = m.integrate(
            lambda th: _losses.loss_dm(model, m_swap, z_bar, th))
        return gap, lower

    pairs = _map_replicates(kern, replicates)
    gaps = [p[0] for p in pairs]
    lowers = [p[1] for p in pairs]
    wge_est = _estimate(gaps, n, seed, "resampled")
    low_est = _estimate(lowers, n, seed, "convex_lower")
    holds = wge_est.value >= low_est.value - 2.0 * (wge_est.stderr
                                                    + low_est.stderr)
    return wge_est, low_est, holds


# ---------------------------------------------------------------------------
# squared-gap upper bound from resampled derivative terms


@dataclasses.dataclass(frozen=True)
class LgeUpperReport:
    """Monte Carlo terms of the squared-gap upper bound.

    ``eh2_sq`` and ``eh2tilde_sq`` estimate the second moments of the
    one-shot and derivative-form inner terms; the two are related by a
    factor ``n^2``.  ``bound_with_margin`` inflates the estimated
    constants by two standard errors before assembling the bound.
    """

    n: int
    seed: int
    replicates: int
    K: float
    K_stderr: float
    eh2_sq: float
    eh2_sq_stderr: float
    eh2tilde_sq: float
    eh2tilde_sq_stderr: float
    bound: float
    bound_with_margin: float
    lge_estimate: GenEstimate
    holds: bool


def _pop_dm_fn(pop, model, seed, rep, n, oos_factor):
    """Population average of the loss derivative, hook or out-of-sample."""
    oos = {}

    def fn(m_lam, nodes):
        out = pop.population_loss_dm(model, m_lam, nodes)
        if out is not None:
            return out
        if "nu" not in oos:
            xs, ys = pop.sample(_rng(seed, rep, 1), max(oos_factor * n, 2))
            oos["nu"] = empirical_from_arrays(xs, ys)
        return risk_dm_nodes(model, m_lam, oos["nu"], nodes, centered=True)

    return fn


def lge_upper_terms(trainer, pop, model, n: int, replicates: int, seed: int,
                    lambda_nodes: int = 8, lambda_tilde_nodes: int = 8,
                    oos_factor: int = 10) -> LgeUpperReport:
    """Squared-gap bound ``(4K + 2 sqrt(K * Eh2t) + Eh2t/n) / n``.

    ``K`` is the worse of the in-sample and out-of-sample second loss
    moments.  Per replicate, two atoms are resampled, the centered loss
    derivative is integrated along the segment between the trained
    measures, and paired against both the measure difference (``h2``)
    and its derivative representation (``h2_tilde = n * h2``).
    """
    _require_grid_trainer(trainer)
    if n < 2:
        raise ValueError("two-point resampling needs n >= 2")
    lams, wl = gauss_legendre_01(lambda_nodes)
    lts, wlt = gauss_legendre_01(lambda_tilde_nodes)

    def kern(rep):
        xs, ys = _draw(pop, seed, rep, n + 2)
        nu = empirical_from_arrays(xs[:n], ys[:n])
        z1, z2 = nu.point(0), nu.point(1)
        zb1 = DataPoint(xs[n], ys[n])
        zb2 = DataPoint(xs[n + 1], ys[n + 1])
        nu_swap = resample(nu, [0, 1], [zb1, zb2])
        m = trainer.solve(nu).measure
        m_swap = trainer.solve(nu_swap).measure

        loss_in = _losses.loss_value(model, m, z1)
        loss_out = _losses.loss_value(model, m, zb1)

        pop_dm = _pop_dm_fn(pop, model, seed, rep, n, oos_factor)
        gap = _pop_risk(pop, model, m, seed, rep, n, oos_factor) \
            - _losses.risk(model, m, nu)

        d_bar = np.zeros(m.n_nodes)
        for lam, w in zip(lams, wl):
            m_lam = convex_combination(m_swap, m, float(lam))
            d_bar += w * (_losses.loss_dm(model, m_lam, z1, m.nodes)
                          - pop_dm(m_lam, m.nodes))

        h2 = float(d_bar @ ((m.density - m_swap.density) * m.cell_volumes))

        delta_bar = np.zeros(m.n_nodes)
        for lt, w in zip(lts, wlt):
            nu_mix = convex_combination(nu_swap, nu, float(lt))
            td = TrainedDerivatives(trainer.model, nu_mix, trainer.cfg,
                                    solve_kwargs=trainer.solve_kwargs)
            delta_bar += w * (td.dm_dnu(z1).density - td.dm_dnu(zb1).density
                              + td.dm_dnu(z2).density
                              - td.dm_dnu(zb2).density)
        h2t = float(d_bar @ (delta_bar * m.cell_volumes))

        return (loss_in ** 2, loss_out ** 2, gap ** 2, h2 ** 2, h2t ** 2)

    rows = np.asarray(_map_replicates(kern, replicates), dtype=float)
    means = rows.mean(axis=0)
    errs = rows.std(axis=0, ddof=1) / math.sqrt(replicates)
    which = int(np.argmax(means[:2]))
    K, K_se = float(means[which]), float(errs[which])
    eh2, eh2_se = float(means[3]), float(errs[3])
    eh2t, eh2t_se = float(means[4]), float(errs[4])
    lge_est = GenEstimate(float(means[2]), float(errs[2]), replicates,
                          n, seed, "lge")

    def assemble(k, e):
        return (4.0 * k + 2.0 * math.sqrt(k) * math.sqrt(e) + e / n) / n

    bound = assemble(K, eh2t)
    bound_margin = assemble(K + 2.0 * K_se, eh2t + 2.0 * eh2t_se)
    holds = lge_est.value - 2.0 * lge_est.stderr <= bound_margin
    return LgeUpperReport(n, seed, replicates, K, K_se, eh2, eh2_se,
                          eh2t, eh2t_se, bound, bound_margin, lge_est, holds)


# ---------------------------------------------------------------------------
# closed-form constants for the exponential-tilt trainer


@dataclasses.dataclass(frozen=True)
class BoundConstants:
    """Explicit generalization bound constants of the tilt trainer."""

    c_wge: float
    wge_bound: float
    A: float
    K: float
    lge_bound: float


def _theta_growth_constant(model, p: int) -> float:
    """Loss-derivative growth constant in the data variable.

    Derived from the growth envelopes of each variant; the stated
    minimum tilt exponents keep the envelope integrable against the
    tilted prior.
    """
    if model.variant == "expected_param":
        if p < 4:
            raise ValueError("parameter-loss constants need tilt "
                             "exponent p >= 4")
        return 4.0 * model.M_p
    if p < 8:
        raise ValueError("network-loss constants need tilt exponent p >= 8")
    return 36.0 * model.outer.L_l1 * model.L_phi * (1.0 + model.L_phi)


def gibbs_bound_constants(model, cfg: GibbsConfig, pop: PopulationModel,
                          n: int) -> BoundConstants:
    """Evaluate the a-priori mean and squared-gap bounds at sample size n.

    All prior moments are grid quadratures of the tilted prior; the
    population moments come from the population's moment oracle.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    tilt = cfg.priors().gamma_tilt_p
    mom_p = tilt.moment(cfg.p)
    g_tilt, _ = _losses.growth_envelopes(model, tilt)
    c_theta = _theta_growth_constant(model, cfg.p)
    tau = cfg.temperature

    x_base = 1.0 + 2.0 * mom_p
    c_wge = (9.0 * math.sqrt(2.0) / 2.0) * c_theta ** 2 \
        * (x_base + 4.0 * g_tilt / n) ** 2
    wge_bound = (c_wge / n) * tau * pop.moment_one_plus_sq(4)

    A = (2.0 * 5.0 ** 4) * tau ** 2 * c_theta ** 4 \
        * (x_base + 8.0 * g_tilt) ** 4 * pop.moment_one_plus_sq(8)
    mu2 = tilt.moment(2)
    if model.variant == "expected_param":
        K = 4.0 * model.M_p ** 2 * (2.0 + mu2) ** 2 \
            * pop.moment_one_plus_sq(4)
    else:
        K = 4.0 * model.outer.L_l ** 2 * model.L_phi ** 4 \
            * (2.0 + 2.0 * mu2 ** 2 + 2.0 * g_tilt ** 2) ** 2 \
            * pop.moment_one_plus_sq(6)
    lge_bound = (4.0 * K + 2.0 * math.sqrt(K) * math.sqrt(A) + A / n) / n
    return BoundConstants(c_wge, wge_bound, A, K, lge_bound)


# ---------------------------------------------------------------------------
# population risk bound under a beta schedule


@dataclasses.dataclass(frozen=True)
class RiskBoundReport:
    """Population-risk bound at one sample size of a beta schedule."""

    mode: str
    n: int
    beta_n: float
    risk_bound: float
    empirical: GenEstimate
    kl_value: float
    kl_term: float
    r_bar: float
    constants: BoundConstants
    holds: bool


_MODE_EXPONENT = {"wge_n14": 0.25, "lge_n16": 1.0 / 6.0}


def population_risk_bound(trainer, pop, model, m_bar, n: int, mode: str,
                          replicates: int, seed: int,
                          oos_factor: int = 10) -> RiskBoundReport:
    """Bound the (squared) population risk of the tilt trainer.

    The inverse temperature is scheduled as ``beta0 * n^{1/4}`` in mean
    mode and ``beta0 * n^{1/6}`` in squared mode, with ``beta0`` read
    off the trainer configuration.  The bound combines the a-priori gap
    bound at the scheduled temperature, the scaled prior KL divergence
    of the comparison measure ``m_bar``, and the risk of ``m_bar``
    itself (zero for an interpolating comparison point); the squared
    mode assembles ``2 * lge_bound + 2 * E[(R(m_bar, nu) + kl_term)^2]``.
    Monte Carlo population risk of the trained measure is returned
    alongside for the dominance check.
    """
    _require_grid_trainer(trainer)
    if mode not in _MODE_EXPONENT:
        raise ValueError(f"unknown mode {mode!r}; expected one of "
                         f"{sorted(_MODE_EXPONENT)}")
    beta_n = trainer.cfg.beta * n ** _MODE_EXPONENT[mode]
    trainer_n = trainer.with_beta(beta_n)
    cfg_n = trainer_n.cfg

    kl_value = prior_kl(m_bar, cfg_n)
    kl_term = cfg_n.kl_weight * kl_value
    r_bar = pop.population_risk(model, m_bar)
    if r_bar is None:
        xs, ys = pop.sample(_rng(seed, 0, 3), max(oos_factor * n, 1000))
        r_bar = _losses.risk(model, m_bar, empirical_from_arrays(xs, ys))
    consts = gibbs_bound_constants(model, cfg_n, pop, n)

    squared = mode == "lge_n16"

    def kern(rep):
        xs, ys = _draw(pop, seed, rep, n)
        nu = empirical_from_arrays(xs, ys)
        m = trainer_n.train(nu, _rng(seed, rep, 2))
        pr = _pop_risk(pop, model, m, seed, rep, n, oos_factor)
        if not squared:
            return pr, 0.0
        v_bar = _losses.risk(model, m_bar, nu) + kl_term
        return pr * pr, v_bar * v_bar

    rows = np.asarray(_map_replicates(kern, replicates), dtype=float)
    est = GenEstimate(float(rows[:, 0].mean()),
                      float(rows[:, 0].std(ddof=1) / math.sqrt(replicates)),
                      replicates, n, seed,
                      "pop_risk_sq" if squared else "pop_risk")
    if squared:
        v2_mean = float(rows[:, 1].mean())
        v2_se = float(rows[:, 1].std(ddof=1) / math.sqrt(replicates))
        bound = 2.0 * consts.lge_bound + 2.0 * v2_mean
        holds = est.value - 2.0 * est.stderr <= bound + 4.0 * v2_se
    else:
        bound = consts.wge_bound + kl_term + r_bar
        holds = est.value - 2.0 * est.stderr <= bound
    return RiskBoundReport(mode, n, beta_n, bound, est, kl_value, kl_term,
                           r_bar, consts, holds)


def gaussian_bump_on_grid(cfg: GibbsConfig, center, scale: float):
    """Normal comparison measure on the configuration grid.

    Intended for scalar parameters; ``scale`` should span at least a
    few grid cells so the quadrature resolves the bump.
    """
    nodes, vol = cfg.grid()
    if nodes.shape[1] != 1:
        raise ValueError("comparison bump is built for scalar parameters")
    dens = np.exp(-((nodes[:, 0] - float(center)) ** 2)
                  / (2.0 * float(scale) ** 2))
    from .measures import GridMeasure
    return GridMeasure(nodes, vol, dens, normalize=True)


# ---------------------------------------------------------------------------
# exact oracles and rate fits


def gaussian_mean_oracle(sigma_tilde: float, n: int) -> float:
    """Exact mean generalization error of the Gaussian location trainer."""
    if sigma_tilde <= 0:
        raise ValueError("sigma_tilde must be positive")
    if n < 1:
        raise ValueError("sample size must be positive")
    return 2.0 * sigma_tilde ** 2 / n


def enumerate_exact_gen(trainer, data_space, model, n: int):
    """Exact mean gap on a finite sample space by full enumeration.

    ``data_space`` is a sequence of ``(DataPoint, prob)`` pairs.  Both
    the direct definition and the single-swap resampling form are
    summed over all ordered datasets; the two agree identically, so the
    pair of outputs is a correctness oracle for trainers.  The trainer
    must be deterministic; trained measures are cached per multiset.
    """
    points = [z for z, _ in data_space]
    probs = np.asarray([p for _, p in data_space], dtype=float)
    if probs.size == 0 or np.any(probs < 0) or abs(probs.sum() - 1) > 1e-12:
        raise ValueError("probabilities must be nonnegative and sum to one")
    if n < 1 or n > 6:
        raise ValueError("enumeration supports 1 <= n <= 6")
    s = len(points)
    if s ** (n + 1) > _ENUM_CAP:
        raise ValueError("sample space too large to enumerate")
    if not getattr(trainer, "deterministic", False):
        raise TypeError("enumeration needs a deterministic trainer")

    xs_all = np.stack([z.x for z in points]) if points[0].x.size \
        else np.zeros((s, 0))
    ys_all = np.array([z.y for z in points])
    cache = {}

    def trained(idx):
        key = tuple(sorted(idx))
        if key not in cache:
            sel = list(key)
            cache[key] = trainer.train(
                empirical_from_arrays(xs_all[sel], ys_all[sel]))
        return cache[key]

    def pop_risk(m):
        return float(probs @ model.atom_losses(m, xs_all, ys_all))

    wge_exact = 0.0
    swap_exact = 0.0
    for idx in itertools.product(range(s), repeat=n):
        p_data = float(np.prod(probs[list(idx)]))
        if p_data == 0.0:
            continue
        m = trained(idx)
        sel = list(idx)
        nu = empirical_from_arrays(xs_all[sel], ys_all[sel])
        wge_exact += p_data * (pop_risk(m) - _losses.risk(model, m, nu))
        for j in range(s):
            if probs[j] == 0.0:
                continue
            m_swap = trained((j,) + idx[1:])
            z_bar = points[j]
            swap_exact += p_data * probs[j] * (
                _losses.loss_value(model, m, z_bar)
                - _losses.loss_value(model, m_swap, z_bar))
    return float(wge_exact), float(swap_exact)


@dataclasses.dataclass(frozen=True)
class RateFit:
    """Log-log least squares fit of estimates against sample size."""

    slope: float
    intercept: float
    r2: float
    n_used: int


def rate_fit(ns: Sequence[int], estimates: Sequence[GenEstimate]) -> RateFit:
    """Fit ``log |value| ~ slope * log n + intercept``.

    Estimates indistinguishable from zero at two standard errors are
    excluded with a warning; fewer than three surviving points is an
    error.
    """
    if len(ns) != len(estimates):
        raise ValueError("sample sizes and estimates must align")
    xs, ys = [], []
    for n, est in zip(ns, estimates):
        if abs(est.value) <= 2.0 * est.stderr:
            warnings.warn(f"estimate at n={n} is consistent with zero; "
                          "excluded from the rate fit", stacklevel=2)
            continue
        xs.append(math.log(n))
        ys.append(math.log(abs(est.value)))
    if len(xs) < 3 or len(set(xs)) < 3:
        raise ValueError("rate fit needs at least three usable sample sizes")
    x = np.asarray(xs)
    y = np.asarray(ys)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid ** 2).sum()) / ss_tot
    return RateFit(float(slope), float(intercept), r2, len(xs))
