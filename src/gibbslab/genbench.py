"""Generalization-error estimation for measure-valued training maps.

A trainer maps a data measure to a parameter measure.  For a trainer,
a population and a loss model, this module estimates the weak (mean)
generalization error and the mean-squared generalization error along
several routes that must agree:

* ``direct``: population risk minus empirical risk, Monte Carlo;
* ``resampled``: the out-of-sample atom swap identity;
* ``representation``: the derivative-based double-integral formula
  (grid trainers only).

Every route is a reduction over replicate blocks.  A block holds as many
consecutive replicates as its working set allows (``_BLOCK_ELEMENTS``):
their seeded draws ``(nu, z_bar)`` stacked into arrays, and the batches
of measures trained on ``nu`` and its one- and two-atom swaps, each
trained lazily and at most once by one ``train_batch`` call per trainer.
Each route is an array expression over a block.  The derivative routes pair the loss
derivative, which the loss model evaluates for a whole batch, with the
data derivative of the trained measure, which the grid trainer owns
(:meth:`GridGibbsTrainer.derivative_path`).  :func:`estimate_routes`
runs the blocks once for all the routes an experiment asks for, and
the public route functions are one-route views of it.

It also evaluates the closed-form upper-bound constants for the
exponential-tilt trainer, an exhaustive enumeration oracle on tiny
discrete sample spaces, the exactly solvable Gaussian location problem,
and log-log rate fits over sample-size sweeps.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import warnings
from typing import Sequence

import numpy as np

from . import losses as _losses
from .funcderiv import TrainedDerivatives, gauss_legendre_01
from .gibbs import (GibbsConfig, _check_sampler, _check_solve,
                    linear_exponents, linear_fixed_points, mfld_sample,
                    prior_kl, solve_gibbs)
from .measures import (DataMeasure, DataPoint, GridMeasure, MeasureBatch,
                       convex_combination, empirical_from_arrays, row_dot,
                       uniform_grid_1d)

_MAX_MOMENT_ORDER = 8
# the 9-node Gauss-Hermite rule for E f(g), g ~ N(0, 1), exact to degree 17,
# which covers the shipped losses (quadratic in the data) and the moment
# oracle: numpy.polynomial.hermite_e.hermegauss(9) normalized, as a table of
# its nodes 0, +-g and weights w: computing it pages in LAPACK, about 1 MB
_HERMITE_G = (0.0, 1.0232556637891326, 2.07684797867783, 3.20542900285647,
              4.512745863399783)
_HERMITE_W = (0.40634920634920635, 0.24409750289493953, 0.04991640676521782,
              0.0027891413212317692, 2.2345844007746607e-05)
_HERMITE_NODES = np.concatenate([np.negative(_HERMITE_G[:0:-1]), _HERMITE_G])
_HERMITE_WEIGHTS = np.concatenate([_HERMITE_W[:0:-1], _HERMITE_W])
_HERMITE_NODES.flags.writeable = _HERMITE_WEIGHTS.flags.writeable = False
# the shipped losses polynomial in the data, whose population averages a
# Gaussian population's measure gives exactly
_POLYNOMIAL_LOSSES = frozenset({"mean_squared", "linear_regression", "zero"})
_ENUM_CAP = 1_000_000
# out-of-sample batches hold _OOS_FACTOR * n samples
_OOS_FACTOR = 10
# grid of the explicit trainer: node count, and half-width in units of its
# scale sigma_tilde / sqrt(n); on a Gaussian the rule's relative error, about
# 2 exp(-2 pi^2 (N / 18)^2), and the mass past 9 scales are below rounding
_EXPLICIT_NODES = 65
_EXPLICIT_SPAN = 9.0
_SEGMENT_NODES = 8  # Gauss-Legendre blends along each segment of measures


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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the entropy
# words mix into a pool of 4 uint32 words through `hashmix`, whose
# multiplier runs through INIT_A * MULT_A**k, and `mix`; `generate_state`
# spreads the pool into output words with INIT_B * MULT_B**k.  Neither
# multiplier sequence depends on the data, so both are tabulated here.
_POOL = 4
_MAX_ENTROPY_WORDS = 16
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """(count, 1) uint32 column of ``init * mult**k mod 2**32``."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


# hashmix call k xors with _HASH_A[k] and multiplies by _HASH_A[k + 1]: 4
# calls fill the pool, 12 cross-mix it, 4 more per entropy word past 4
_HASH_A = _powers(0x43B0D7E5, 0x931E8875,
                  _POOL * _POOL + _POOL * (_MAX_ENTROPY_WORDS - _POOL) + 1)
# output word k of generate_state: xor _HASH_B[k], multiply by _HASH_B[k + 1]
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 2 * _POOL + 1)


def _hashmix(value, k: int, rows: int) -> np.ndarray:
    """``rows`` consecutive hashmix calls from call ``k`` on ``value``."""
    value = (value ^ _HASH_A[k:k + rows]) * _HASH_A[k + 1:k + rows + 1]
    return value ^ value >> 16


def _mix(x, y) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ out >> 16


def _words(value: int) -> list:
    """The little-endian uint32 words SeedSequence reads from an integer."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & 0xFFFFFFFF]
    while value > 0xFFFFFFFF:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


class _BlockSeed(np.random.bit_generator.ISeedSequence):
    """The PCG64 seed words of one replicate's stream, a read-only row of
    its block; ``entropy`` is the ``(seed, replicate, stream)`` key."""

    def __init__(self, entropy: tuple, state: np.ndarray):
        self.entropy, self._state = entropy, state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a block stream holds only the 4 uint64 words "
                             "that seed PCG64")
        return self._state


def _streams(seed: int, reps: range, stream: int) -> list:
    """Replicate- and purpose-keyed random streams, one per replicate.

    Replicate ``r``'s stream is bit for bit
    ``default_rng(SeedSequence((seed, r, stream)))``: the SeedSequence hash
    runs as uint32 column operations over the block, and each row of
    PCG64 seed words becomes one Generator.  Streams depend on
    ``(seed, r, stream)`` alone, so results do not depend on the blocks or
    on the order replicates run in.  Replicate indices must lie below
    ``2**32`` (one entropy word), and the key may take at most 16 words.
    """
    rs = np.asarray(reps, dtype=np.int64)
    if rs.size and not 0 <= rs.min() <= rs.max() <= 0xFFFFFFFF:
        raise ValueError("replicate indices must lie in [0, 2**32)")
    head, tail = _words(seed), _words(stream)
    n_words = len(head) + 1 + len(tail)
    if n_words > _MAX_ENTROPY_WORDS:
        raise ValueError(f"the seed {seed} and stream {stream} take more "
                         f"than {_MAX_ENTROPY_WORDS} entropy words")
    entropy = np.zeros((max(n_words, _POOL), rs.size), dtype=np.uint32)
    entropy[:n_words] = np.array(head + [0] + tail, dtype=np.uint32)[:, None]
    entropy[len(head)] = rs
    pool = _hashmix(entropy[:_POOL], 0, _POOL)
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], k, _POOL - 1))
        k += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, k, _POOL))
        k += _POOL
    # the 8 uint32 output words cycle through the pool; pairs of them,
    # low word first, are the 4 uint64 words
    out = np.concatenate([pool, pool]) ^ _HASH_B[:-1]
    out *= _HASH_B[1:]
    out ^= out >> 16
    out = out.astype(np.uint64)
    state = np.ascontiguousarray((out[0::2] | out[1::2] << 32).T)
    state.flags.writeable = False
    return [np.random.Generator(np.random.PCG64(
        _BlockSeed((seed, r, stream), row))) for r, row in zip(reps, state)]


def _rng(seed: int, replicate: int, stream: int) -> np.random.Generator:
    """The one stream ``(seed, replicate, stream)``: a one-row block."""
    return _streams(seed, range(replicate, replicate + 1), stream)[0]


def _estimate(values, n, seed, route) -> GenEstimate:
    arr = np.asarray(values, dtype=float)
    return GenEstimate(float(arr.mean()),
                       float(arr.std(ddof=1) / math.sqrt(arr.size)),
                       int(arr.size), int(n), int(seed), route)


# ---------------------------------------------------------------------------
# populations


class PopulationModel:
    """Data-generating distribution: seeded draws and one exact measure.

    A population implements ``sample_batch`` and ``measure``, a weighted
    atomic :class:`DataMeasure`: the support of a finite population, a
    Gauss-Hermite rule in a Gaussian one's input, exact for polynomials in
    the data up to degree 17.  It knows no loss; :func:`_population_atoms`
    chooses between its measure and out-of-sample draws."""

    feature_dim = 0
    measure: DataMeasure

    def sample_batch(self, rngs: Sequence[np.random.Generator], size: int):
        """``xs`` (B, size, q) and ``ys`` (B, size), row ``r`` drawn from
        ``rngs[r]`` alone.  Contract: on one stream, a row of ``size`` ``k``
        is the first ``k`` samples of a row of ``size`` ``k + j``; the
        replicate record draws once and routes read prefixes of it."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int):
        """``(xs, ys)`` of ``size`` samples of ``rng``: a one-row batch."""
        xs, ys = self.sample_batch([rng], size)
        return xs[0], ys[0]

    def moment_one_plus_sq(self, k: int) -> float:
        """``E[(1 + ||Z||^2)^k]``, ``1 <= k <= 8``, summed on the measure."""
        if not 1 <= k <= _MAX_MOMENT_ORDER:
            raise ValueError(
                f"moment oracle supports orders 1..{_MAX_MOMENT_ORDER}")
        mu = self.measure
        nsq = np.einsum("ij,ij->i", mu.xs, mu.xs) + mu.ys ** 2
        return float(mu.weights @ (1.0 + nsq) ** k)


def _parameter(name: str, value, scale: bool = False) -> float:
    """``value`` as a float, finite, and positive for a ``scale``."""
    value = float(value)
    if not math.isfinite(value) or (scale and not value > 0):
        raise ValueError(f"population parameter {name} must be finite"
                         f"{' and positive' if scale else ''}, got {value!r}")
    return value


class GaussianScalarPopulation(PopulationModel):
    """Scalar samples ``Z ~ N(mu, sigma^2)`` carried in the target slot."""

    feature_dim = 0

    def __init__(self, mu: float, sigma: float):
        self.mu = _parameter("mu", mu)
        self.sigma = _parameter("sigma", sigma, scale=True)

    def sample_batch(self, rngs, size):
        z = np.empty((len(rngs), size))
        for rng, row in zip(rngs, z):
            rng.standard_normal(out=row)
        return np.zeros(z.shape + (0,)), self.mu + self.sigma * z

    @functools.cached_property
    def measure(self) -> DataMeasure:
        """``mu + sigma g`` at the Gauss-Hermite nodes ``g``."""
        g = _HERMITE_NODES
        return DataMeasure(np.zeros((g.size, 0)), self.mu + self.sigma * g,
                           _HERMITE_WEIGHTS)


class NoiselessLinePopulation(PopulationModel):
    """Samples on the line ``y = slope * x`` with Gaussian inputs.

    An interpolating parameter exists (zero achievable risk), which the
    risk-bound scheduling experiments rely on.
    """

    feature_dim = 1

    def __init__(self, slope: float, x_sigma: float = 1.0):
        self.slope = _parameter("slope", slope)
        self.x_sigma = _parameter("x_sigma", x_sigma, scale=True)

    def sample_batch(self, rngs, size):
        z = np.empty((len(rngs), size, 1))
        for rng, row in zip(rngs, z):
            rng.standard_normal(out=row)
        z *= self.x_sigma
        return z, self.slope * z[..., 0]

    @functools.cached_property
    def measure(self) -> DataMeasure:
        """``x = x_sigma g`` at the Gauss-Hermite nodes ``g``, on the line."""
        x = self.x_sigma * _HERMITE_NODES
        return DataMeasure(x[:, None], self.slope * x, _HERMITE_WEIGHTS)


class DiscretePopulation(PopulationModel):
    """Finitely supported population; its measure is its support."""

    def __init__(self, points: Sequence[DataPoint], probs: Sequence[float]):
        self.points = list(points)
        probs = np.asarray(probs, dtype=float)
        if len(self.points) != probs.size or probs.size == 0:
            raise ValueError("points and probabilities disagree")
        if not np.isfinite(probs).all() or np.any(probs < 0) \
                or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(
                "probabilities must be finite, nonnegative and sum to one")
        self.probs = probs
        self.measure = DataMeasure(np.stack([p.x for p in self.points]),
                                   [p.y for p in self.points], probs)
        self.feature_dim = self.measure.feature_dim

    def sample_batch(self, rngs, size):
        idx = np.array([rng.choice(len(self.points), size=size, p=self.probs)
                        for rng in rngs])
        return self.measure.xs[idx], self.measure.ys[idx]


def gaussian_mean_setup(mu: float = 0.0, sigma: float = 1.0):
    """Matched (model, population) pair for the Gaussian location problem."""
    return (_losses.mean_squared_param_loss(),
            GaussianScalarPopulation(mu, sigma))


def noiseless_line_setup(slope: float = 0.5, x_sigma: float = 1.0):
    """Matched (model, population) pair for noiseless scalar regression."""
    return (_losses.linear_regression_param_loss(),
            NoiselessLinePopulation(slope, x_sigma))


# ---------------------------------------------------------------------------
# trainers
#
# A trainer maps data to parameter measures through its one entry point,
# ``train_batch(xs, ys, rngs)``: it trains the B equal-weight datasets
# ``xs`` (B, n, q), ``ys`` (B, n), row ``r`` on the stream ``rngs[r]``
# (``rngs`` is None for deterministic trainers), and returns a MeasureBatch.
# Row ``r`` must not depend on the other rows: the replicate loop locates a
# failing replicate by training it again on its own, and one dataset is a
# one-row batch, ``train_batch(nu.xs[None], nu.ys[None])[0]``.  The loop
# sizes its blocks by ``n_nodes``, the node count of the measures.


class GridGibbsTrainer:
    """Deterministic trainer: the tilt map's fixed point on the grid.

    A loss linear in the measure (``model.has_zero_d2m()``) trains and
    differentiates a batch at once by :func:`gibbs.linear_fixed_points`,
    whose one-row view is :meth:`solve`; a network solves row by row, and
    ``damping`` relaxes its Newton fallback.  The constructor checks the
    settings as :func:`solve_gibbs` does.
    """

    deterministic = True

    def __init__(self, model, cfg: GibbsConfig, damping: float = 1.0,
                 tol: float = 1e-10, max_iter: int = 500):
        self.model, self.cfg = model, cfg
        self.solve_kwargs = {"damping": damping, "tol": tol,
                             "max_iter": _check_solve(damping, tol, max_iter)}

    @property
    def n_nodes(self) -> int:
        return self.cfg.nodes_per_axis ** self.cfg.theta_dim

    def solve(self, nu: DataMeasure):
        return solve_gibbs(self.model, nu, self.cfg, **self.solve_kwargs)

    def _fixed_points(self, expo: np.ndarray) -> np.ndarray:
        return linear_fixed_points(self.cfg, expo, self.solve_kwargs["tol"],
                                   self.solve_kwargs["max_iter"])[0]

    def train_batch(self, xs, ys, rngs=None) -> MeasureBatch:
        if not self.model.has_zero_d2m():
            return MeasureBatch.of([
                self.solve(empirical_from_arrays(x, y)).measure
                for x, y in zip(xs, ys)])
        return MeasureBatch(*self.cfg.grid(), self._fixed_points(
            linear_exponents(self.model, self.cfg, xs, ys)), normalize=True)

    def derivative_path(self, data, swapped, k: int) -> np.ndarray:
        """Quadrature along ``swapped -> data`` of the trained-measure
        derivative toward ``z_j`` minus toward ``z_bar_j``, summed over
        ``j < k``: (B, N) node values, for B equal-weight datasets ``data``
        and ``swapped``, ``(xs, ys)`` that differ in their first ``k`` atoms.
        For a loss linear in the measure the blend ``(1 - lt) swapped + lt
        data`` trains to the fixed point of the blended exponent, and the
        path is ``-tau m (D - E_m D)`` with ``D = sum_j lp(., z_j) -
        lp(., z_bar_j)``; a network solves :class:`TrainedDerivatives` row
        by row at every blend.
        """
        (xs, ys), (xk, yk) = data, swapped
        nodes, vol = self.cfg.grid()
        out = np.zeros((ys.shape[0], nodes.shape[0]))
        if self.model.has_zero_d2m():
            d = self.model.lp_sums(nodes, xs[:, :k], ys[:, :k], np.ones(k)) \
                - self.model.lp_sums(nodes, xk[:, :k], yk[:, :k], np.ones(k))
            e0, ek = (linear_exponents(self.model, self.cfg, *z)
                      for z in (data, swapped))
            for lt, w in zip(*gauss_legendre_01(_SEGMENT_NODES)):
                dens = self._fixed_points((1.0 - lt) * ek + lt * e0)
                mean = (d * (dens * vol)).sum(axis=1, keepdims=True)
                out += w * (-self.cfg.temperature * dens * (d - mean))
            return out
        for r in range(ys.shape[0]):
            nu = empirical_from_arrays(xs[r], ys[r])
            nu_k = empirical_from_arrays(xk[r], yk[r])
            for lt, w in zip(*gauss_legendre_01(_SEGMENT_NODES)):
                td = TrainedDerivatives(
                    self.model, convex_combination(nu_k, nu, float(lt)),
                    self.cfg, solve_kwargs=self.solve_kwargs)
                diff = 0.0
                for j in range(k):
                    diff = diff + td.dm_dnu(nu.point(j)).density \
                        - td.dm_dnu(nu_k.point(j)).density
                out[r] += w * diff
        return out

    def with_beta(self, beta: float) -> "GridGibbsTrainer":
        return GridGibbsTrainer(self.model, self.cfg.with_beta(beta),
                                **self.solve_kwargs)


class MFLDTrainer:
    """Stochastic trainer: :func:`mfld_sample`, its settings checked once."""

    deterministic = False

    def __init__(self, model, cfg: GibbsConfig, n_particles: int,
                 step_size: float, n_steps: int):
        self.model = model
        self.cfg = cfg
        n_particles, self.step_size, self.n_steps = _check_sampler(
            n_particles, step_size, n_steps)
        self.n_nodes = self.n_particles = n_particles

    def train_batch(self, xs, ys, rngs=None) -> MeasureBatch:
        """:func:`mfld_sample` on each row, from a seed of ``rngs[r]``."""
        if rngs is None:
            raise ValueError("the particle trainer needs a random stream")
        return MeasureBatch.of([
            mfld_sample(self.model, empirical_from_arrays(x, y), self.cfg,
                        self.n_particles, self.step_size, self.n_steps,
                        int(rng.integers(0, 2 ** 63)))
            for x, y, rng in zip(xs, ys, rngs)])


class ExplicitGaussianMeanTrainer:
    """Closed-form trainer of the Gaussian location problem.

    Maps a data measure of ``n`` atoms to the normal law centered at its
    target mean with variance ``sigma_tilde^2 / n``.  Under
    ``mean_squared`` on ``N(mu, sigma^2)`` data its mean generalization
    error is exactly ``2 sigma^2 / n`` whatever ``sigma_tilde``: the
    ``sigma_tilde^2 / n`` the law adds to every loss cancels between the
    population and the empirical risk (:func:`gaussian_mean_oracle`).
    """

    deterministic = True
    n_nodes = _EXPLICIT_NODES

    def __init__(self, sigma_tilde: float):
        if sigma_tilde <= 0:
            raise ValueError("sigma_tilde must be positive")
        self.sigma_tilde = float(sigma_tilde)

    def train_batch(self, xs, ys, rngs=None) -> MeasureBatch:
        """The closed form for every row at once.

        Rows share the grid offsets and the density shape; only the node
        positions, each row's mean plus the offsets, differ.
        """
        ys = np.asarray(ys, dtype=float)
        s = self.sigma_tilde / math.sqrt(ys.shape[1])
        offsets, h = uniform_grid_1d(0.0, _EXPLICIT_SPAN * s, _EXPLICIT_NODES)
        shape = np.exp(-(offsets[:, 0] ** 2) / (2.0 * s * s))
        return MeasureBatch(ys.mean(axis=1)[:, None, None] + offsets, h,
                            np.broadcast_to(shape, (ys.shape[0], shape.size)),
                            normalize=True)


class ConstantTrainer:
    """Trainer that ignores the data (zero generalization gap baseline)."""

    deterministic = True

    def __init__(self, measure):
        self.measure = measure
        self.n_nodes = measure.n_nodes

    def train_batch(self, xs, ys, rngs=None) -> MeasureBatch:
        return MeasureBatch.of([self.measure] * ys.shape[0])


# ---------------------------------------------------------------------------
# replicate blocks and the estimation routes


class ReplicateError(RuntimeError):
    """A replicate raised; the message names the routes, n, replicate and seed."""


# elements of a block's widest per-row array, (rows, max(n_nodes, n + 2)):
# the rows drawn, trained and reduced together; the out-of-sample draws,
# (rows, 10 n), stay within 10 times it
_BLOCK_ELEMENTS = 1 << 15


def _draw(pop, seed: int, reps: range, stream: int, size: int):
    """``size`` samples of each replicate's ``(seed, r, stream)`` stream."""
    xs, ys = pop.sample_batch(_streams(seed, reps, stream), size)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("non-finite atom or weight")
    return xs, ys


def _population_atoms(pop, model, seed: int, reps: range, size: int):
    """``(xs, ys, weights, exact)``: atoms (B, K, q) and (B, K) whose
    ``weights``-sums are ``model``'s population averages in the replicates
    ``reps``: ``pop.measure`` (``exact``) for a finite population and the
    ``_POLYNOMIAL_LOSSES``, else ``size`` draws of each ``(seed, r, 1)``."""
    if isinstance(pop, DiscretePopulation) \
            or getattr(model, "name", None) in _POLYNOMIAL_LOSSES:
        mu = pop.measure
        shape = (len(reps),) + mu.ys.shape
        return (np.broadcast_to(mu.xs, shape + mu.xs.shape[1:]),
                np.broadcast_to(mu.ys, shape), mu.weights, True)
    xs, ys = _draw(pop, seed, reps, 1, size)
    return xs, ys, np.full(size, 1.0 / size), False


class _Block:
    """The replicates ``reps`` of an experiment, held as arrays.

    :func:`_replicate_terms` sizes ``reps`` so that B rows of the trainer's
    ``n_nodes`` or of ``n + 2`` atoms hold at most ``_BLOCK_ELEMENTS``
    elements; a row wider than that runs alone.  Replicate ``r`` draws
    ``n + 2`` samples of its ``(seed, r, 0)`` stream; one
    ``pop.sample_batch`` call draws the block into ``xs`` (B, n + 2, q) and
    ``ys`` (B, n + 2).  The dataset ``nu`` is the first ``n`` columns and
    ``z_bar`` the two after them.  Populations sample in prefix order, so a
    route that reads only ``n`` or ``n + 1`` columns sees the numbers of a
    shorter draw.  Trained batches are computed on first use and kept, so
    each dataset is trained at most once whichever routes read it.  Swapped
    batches train ``m`` first, so a stochastic trainer draws its seeds from
    each replicate's ``(seed, r, 2)`` stream in a fixed order.  That stream
    is made only for stochastic trainers, and the out-of-sample stream
    ``(seed, r, 1)`` only for averages that no measure gives exactly.
    Every term is a (B,) array.
    """

    def __init__(self, trainer, pop, model, n: int, seed: int, reps: range):
        self.trainer, self.pop, self.model, self.n = trainer, pop, model, n
        self.seed, self.reps = seed, reps
        self.xs, self.ys = _draw(pop, seed, reps, 0, n + 2)
        self._rngs = None if getattr(trainer, "deterministic", False) \
            else _streams(seed, reps, 2)
        self._data, self._swaps = {}, {}

    def __len__(self) -> int:
        return len(self.reps)

    def atom(self, j: int):
        """``(xs, ys)`` of the drawn column ``j``, (B, 1, q) and (B, 1):
        ``z_j`` of ``nu`` for ``j < n``, ``z_bar[j - n]`` after it."""
        return self.xs[:, j:j + 1], self.ys[:, j:j + 1]

    def data(self, k: int):
        """``(xs, ys)`` of ``nu`` with atoms ``0..k-1`` replaced by
        ``z_bar[:k]`` (``k`` is 0, 1 or 2)."""
        if k not in self._data:
            n = self.n
            xs, ys = self.xs[:, :n].copy(), self.ys[:, :n].copy()
            xs[:, :k] = self.xs[:, n:n + k]
            ys[:, :k] = self.ys[:, n:n + k]
            self._data[k] = xs, ys
        return self._data[k]

    @functools.cached_property
    def m(self) -> MeasureBatch:
        """Measures trained on ``nu``."""
        return self.trainer.train_batch(*self.data(0), self._rngs)

    def swap(self, k: int) -> MeasureBatch:
        """Measures trained on the ``k``-atom swaps of ``nu``."""
        if k not in self._swaps:
            self.m  # trained first: fixes the order of the trainer's seeds
            self._swaps[k] = self.trainer.train_batch(*self.data(k),
                                                      self._rngs)
        return self._swaps[k]

    @functools.cached_property
    def pop_atoms(self):
        """Atoms of the population averages, :func:`_population_atoms`."""
        return _population_atoms(self.pop, self.model, self.seed, self.reps,
                                 max(_OOS_FACTOR * self.n, 2))

    def risk(self, m: MeasureBatch, xs, ys) -> np.ndarray:
        """Risk of each row of ``m`` on the equal-weight atoms of its row,
        summed as :func:`losses.risk` sums one row."""
        w = np.full(ys.shape[1], 1.0 / ys.shape[1])
        return row_dot(self.model.atom_losses(m, xs, ys), w)

    @functools.cached_property
    def pop_risk(self) -> np.ndarray:
        """Population risk of ``m``."""
        xs, ys, w, _ = self.pop_atoms
        return row_dot(self.model.atom_losses(self.m, xs, ys), w)

    @functools.cached_property
    def gap(self) -> np.ndarray:
        """Population minus empirical risk of ``m``, on the measure from one
        ``atom_losses`` call on the dataset and the measure's atoms.  Draws
        take calls of their own: a network's losses round with the atom
        count of a call."""
        xs, ys, w, exact = self.pop_atoms
        data, n = self.data(0), self.n
        if not exact:
            return self.pop_risk - self.risk(self.m, *data)
        out = self.model.atom_losses(self.m, *(
            np.concatenate(pair, axis=1) for pair in zip(data, (xs, ys))))
        return row_dot(out[:, n:], w) - row_dot(out[:, :n],
                                                np.full(n, 1.0 / n))

    @functools.cached_property
    def swap_gap(self) -> np.ndarray:
        """Loss at ``z_bar[0]`` of ``m`` minus that of the swapped ``m_1``."""
        z = self.atom(self.n)
        return (self.model.atom_losses(self.m, *z)
                - self.model.atom_losses(self.swap(1), *z))[:, 0]

    # node functions of grid batches, (B, N), less a constant of each row:
    # the routes pair them only with measures of zero mass

    def loss_dm(self, m: MeasureBatch, j: int) -> np.ndarray:
        """Loss derivative at each row of ``m`` toward the drawn atom ``j``."""
        return self.model.dm(m, *self.atom(j), np.ones(1), m.nodes,
                             centered=False)

    def pop_dm(self, m: MeasureBatch) -> np.ndarray:
        """Population average of the loss derivative at each row of ``m``.
        For a loss linear in the measure, on the population's measure and
        shared nodes, every row is the same function: one row is computed
        and broadcast."""
        xs, ys, w, exact = self.pop_atoms
        if exact and self.model.has_zero_d2m() and m.nodes.ndim == 2:
            row = self.model.dm(m[0], xs[0], ys[0], w, m.nodes,
                                centered=False)
            return np.broadcast_to(row, m.density.shape)
        return self.model.dm(m, xs, ys, w, m.nodes, centered=False)

    def segment(self, k: int, integrand) -> np.ndarray:
        """Quadrature of ``integrand(m_lam)`` along the segment ``m_k -> m``
        over blended batches.  For a loss linear in the measure the
        integrand is affine in it, and the end points give it exactly."""
        m_k, m = self.swap(k), self.m
        blends = list(zip(*gauss_legendre_01(_SEGMENT_NODES)))
        if self.model.has_zero_d2m():
            a = sum(w * (1.0 - lam) for lam, w in blends)
            b = sum(w * lam for lam, w in blends)
            return a * integrand(m_k) + b * integrand(m)
        out = 0.0
        for lam, w in blends:
            out = out + w * integrand(MeasureBatch(
                m.nodes, m.cell_volumes,
                (1.0 - lam) * m_k.density + lam * m.density))
        return out


def _representation(b: _Block) -> np.ndarray:
    g_bar = b.segment(1, lambda m: b.loss_dm(m, b.n))
    path = b.trainer.derivative_path(b.data(0), b.data(1), 1)
    return (g_bar * (path * b.m.cell_volumes)).sum(axis=1) / b.n


def _convex_lower(b: _Block) -> np.ndarray:
    lower = b.model.dm_along(b.swap(1), b.m, *b.atom(b.n))[:, 0]
    return np.stack([b.swap_gap, lower], axis=1)


def _lge_upper(b: _Block) -> np.ndarray:
    m, m2, vol = b.m, b.swap(2), b.m.cell_volumes
    d_bar = b.segment(2, lambda m_lam: b.loss_dm(m_lam, 0) - b.pop_dm(m_lam))
    h2 = (d_bar * ((m.density - m2.density) * vol)).sum(axis=1)
    path = b.trainer.derivative_path(b.data(0), b.data(2), 2)
    h2t = (d_bar * (path * vol)).sum(axis=1)
    k_in, k_out = (b.model.atom_losses(m, *b.atom(j))[:, 0] for j in (0, b.n))
    return np.stack([k_in ** 2, k_out ** 2, b.gap * b.gap, h2 ** 2,
                     h2t ** 2], axis=1)


def _convex_lower_check(values, n, seed, route):
    gaps, lowers = values.T
    wge_est = _estimate(gaps, n, seed, "resampled")
    low_est = _estimate(lowers, n, seed, "convex_lower")
    holds = wge_est.value >= low_est.value - 2.0 * (wge_est.stderr
                                                    + low_est.stderr)
    return wge_est, low_est, holds


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


def _lge_upper_report(values, n, seed, route) -> LgeUpperReport:
    k_in, k_out, lge_est, eh2, eh2t = (_estimate(col, n, seed, "lge")
                                       for col in values.T)
    K = max(k_in, k_out, key=lambda e: e.value)

    def assemble(k, e):
        return (4.0 * k + 2.0 * math.sqrt(k) * math.sqrt(e) + e / n) / n

    bound = assemble(K.value, eh2t.value)
    bound_margin = assemble(K.value + 2.0 * K.stderr,
                            eh2t.value + 2.0 * eh2t.stderr)
    holds = lge_est.value - 2.0 * lge_est.stderr <= bound_margin
    return LgeUpperReport(n, seed, lge_est.replicates, K.value, K.stderr,
                          eh2.value, eh2.stderr, eh2t.value, eh2t.stderr,
                          bound, bound_margin, lge_est, holds)


# route -> (term of a block, (B,) or (B, c); reduction of the terms)
_ROUTES = {
    "direct": (lambda b: b.gap, _estimate),
    "resampled": (lambda b: b.swap_gap, _estimate),
    "lge": (lambda b: b.gap * b.gap, _estimate),
    "representation": (_representation, _estimate),
    "convex_lower": (_convex_lower, _convex_lower_check),
    "lge_upper": (_lge_upper, _lge_upper_report),
}
_GRID_ROUTES = ("representation", "lge_upper")


def _replicate_terms(trainer, pop, model, n, replicates, seed,
                     terms: dict) -> dict:
    """Per-replicate values of each term, computed block by block.

    When a block raises, its replicates run again one at a time, which is
    exact because a replicate's values do not depend on its block; the
    error names the first replicate that raises alone, else the block.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    if replicates < 2:
        raise ValueError("need at least two replicates")

    def run(reps):
        block = _Block(trainer, pop, model, n, seed, reps)
        return [term(block) for term in terms.values()]

    parts = []
    rows = max(1, _BLOCK_ELEMENTS // max(trainer.n_nodes, n + 2))
    for start in range(0, replicates, rows):
        reps = range(start, min(start + rows, replicates))
        try:
            parts.append(run(reps))
        except Exception as exc:
            where, cause = f"replicates {reps[0]}-{reps[-1]}", exc
            for r in reps:
                try:
                    run(range(r, r + 1))
                except Exception as one:
                    where, cause = f"replicate {r}", one
                    break
            raise ReplicateError(
                f"route(s) {', '.join(terms)} failed at n={n}, {where}, "
                f"seed {seed}: {type(cause).__name__}: {cause}") from cause
    return {name: np.concatenate(col) for name, col in zip(terms, zip(*parts))}


def _require_grid_trainer(trainer):
    if not isinstance(trainer, GridGibbsTrainer):
        raise TypeError("this route requires the deterministic grid trainer")


def estimate_routes(trainer, pop, model, n: int, replicates: int, seed: int,
                    routes: Sequence[str]) -> dict:
    """Every route in ``routes`` from one pass over the replicates.

    Returns ``{route: result}``.  ``direct``, ``resampled``, ``lge`` and
    ``representation`` give a :class:`GenEstimate`; ``convex_lower``
    gives ``(wge_estimate, lower_estimate, holds)`` and ``lge_upper`` an
    :class:`LgeUpperReport`.  Routes read the same replicate blocks, so
    a dataset two routes need is trained once.
    """
    for route in routes:
        if route not in _ROUTES:
            raise ValueError(f"unknown route {route!r}; expected one of "
                             f"{sorted(_ROUTES)}")
        if route in _GRID_ROUTES:
            _require_grid_trainer(trainer)
    if "lge_upper" in routes and n < 2:
        raise ValueError("two-point resampling needs n >= 2")
    terms = _replicate_terms(trainer, pop, model, n, replicates, seed,
                             {route: _ROUTES[route][0] for route in routes})
    return {route: _ROUTES[route][1](terms[route], n, seed, route)
            for route in routes}


def wge_direct(trainer, pop, model, n: int, replicates: int,
               seed: int) -> GenEstimate:
    """Mean generalization gap: population minus empirical risk of ``m``,
    the former on the population's measure where it is exact, else on
    ``10 n`` out-of-sample draws (:func:`_population_atoms`)."""
    return estimate_routes(trainer, pop, model, n, replicates, seed,
                           ["direct"])["direct"]


def wge_resampled(trainer, pop, model, n: int, replicates: int,
                  seed: int) -> GenEstimate:
    """Mean generalization gap via the single-atom resampling identity.

    Averages the loss difference at ``z_bar`` between the measures
    trained on ``nu`` and on ``nu`` with its first atom swapped for it.
    """
    return estimate_routes(trainer, pop, model, n, replicates, seed,
                           ["resampled"])["resampled"]


def lge(trainer, pop, model, n: int, replicates: int,
        seed: int) -> GenEstimate:
    """Mean squared generalization gap (direct Monte Carlo)."""
    return estimate_routes(trainer, pop, model, n, replicates, seed,
                           ["lge"])["lge"]


def wge_representation(trainer, pop, model, n: int, replicates: int,
                       seed: int) -> GenEstimate:
    """Mean generalization gap via the derivative representation.

    Per replicate the inner double integral is evaluated with tensor
    Gauss-Legendre quadrature: over ``lam`` the loss derivative along
    the segment between the swapped and original trained measures, over
    ``lam_tilde`` the trained-measure derivative at the blended data
    measure, contracted with the sign pattern of the swapped pair.
    """
    return estimate_routes(trainer, pop, model, n, replicates, seed,
                           ["representation"])["representation"]


def convex_lower_bound_check(trainer, pop, model, n: int, replicates: int,
                             seed: int):
    """Paired check of the convex-trainer lower bound on the mean gap.

    Returns ``(wge_estimate, lower_estimate, holds)`` where both
    estimates share replicate randomness and ``holds`` allows a
    ``2 * (stderr + stderr)`` margin.
    """
    return estimate_routes(trainer, pop, model, n, replicates, seed,
                           ["convex_lower"])["convex_lower"]


def lge_upper_terms(trainer, pop, model, n: int, replicates: int,
                    seed: int) -> LgeUpperReport:
    """Squared-gap bound ``(4K + 2 sqrt(K * Eh2t) + Eh2t/n) / n``.

    ``K`` is the worse of the in-sample and out-of-sample second loss
    moments.  Per replicate, two atoms are resampled, the centered loss
    derivative is integrated along the segment between the trained
    measures, and paired against both the measure difference (``h2``)
    and its derivative representation (``h2_tilde = n * h2``).
    """
    return estimate_routes(trainer, pop, model, n, replicates, seed,
                           ["lge_upper"])["lge_upper"]


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
    g_tilt = model.growth(tilt)
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
                          replicates: int, seed: int) -> RiskBoundReport:
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
    xs, ys, w, _ = _population_atoms(pop, model, seed, range(1),
                                     max(_OOS_FACTOR * n, 1000))
    r_bar = float(row_dot(model.atom_losses(m_bar, xs[0], ys[0]), w))
    consts = gibbs_bound_constants(model, cfg_n, pop, n)

    squared = mode == "lge_n16"

    def term(b: _Block):
        if not squared:
            return b.pop_risk
        v_bar = b.risk(MeasureBatch.of([m_bar] * len(b)), *b.data(0)) \
            + kl_term
        return np.stack([b.pop_risk * b.pop_risk, v_bar * v_bar], axis=1)

    values = _replicate_terms(trainer_n, pop, model, n, replicates, seed,
                              {"population_risk_bound": term}
                              )["population_risk_bound"]
    if squared:
        pr2, v2 = values.T
        est = _estimate(pr2, n, seed, "pop_risk_sq")
        v2_est = _estimate(v2, n, seed, "pop_risk_sq")
        bound = 2.0 * consts.lge_bound + 2.0 * v2_est.value
        holds = est.value - 2.0 * est.stderr <= bound + 4.0 * v2_est.stderr
    else:
        est = _estimate(values, n, seed, "pop_risk")
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
    return GridMeasure(nodes, vol, dens, normalize=True)


# ---------------------------------------------------------------------------
# exact oracles and rate fits


def gaussian_mean_oracle(sigma: float, n: int) -> float:
    """Exact mean generalization error ``2 sigma^2 / n`` of the Gaussian
    location trainer under ``mean_squared`` on ``N(mu, sigma^2)`` data."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if n < 1:
        raise ValueError("sample size must be positive")
    return 2.0 * sigma ** 2 / n


def enumerate_exact_gen(trainer, data_space, model, n: int):
    """Exact mean gap on a finite sample space by full enumeration.

    ``data_space`` is a sequence of ``(DataPoint, prob)`` pairs.  Both
    the direct definition and the single-swap resampling form are
    summed over all ordered datasets; the two agree identically, so the
    pair of outputs is a correctness oracle for trainers.  The trainer
    must be deterministic.  Its measure depends on a dataset only through
    the multiset of its atoms, so the multisets of the support are
    trained in one ``train_batch`` call, and every loss of both sums is
    read from one ``atom_losses`` table of that batch on the support.
    """
    pop = DiscretePopulation([z for z, _ in data_space],
                             [p for _, p in data_space])
    mu, probs = pop.measure, pop.probs
    if n < 1 or n > 6:
        raise ValueError("enumeration supports 1 <= n <= 6")
    s = len(probs)
    if s ** (n + 1) > _ENUM_CAP:
        raise ValueError("sample space too large to enumerate")
    if not getattr(trainer, "deterministic", False):
        raise TypeError("enumeration needs a deterministic trainer")

    support = np.flatnonzero(probs)
    keys = list(itertools.combinations_with_replacement(support, n))
    row = {key: r for r, key in enumerate(keys)}
    sel = np.array(keys)
    # losses[r, j]: loss at support point j of the measure of multiset r
    losses = model.atom_losses(
        trainer.train_batch(mu.xs[sel], mu.ys[sel]),
        np.broadcast_to(mu.xs, (len(keys),) + mu.xs.shape),
        np.broadcast_to(mu.ys, (len(keys), s)))
    w_data = np.full(n, 1.0 / n)

    wge_exact = 0.0
    swap_exact = 0.0
    for idx in itertools.product(range(s), repeat=n):
        p_data = float(np.prod(probs[list(idx)]))
        if p_data == 0.0:
            continue
        loss = losses[row[tuple(sorted(idx))]]
        wge_exact += p_data * (float(probs @ loss)
                               - float(w_data @ loss[list(idx)]))
        for j in support:
            swap_exact += p_data * probs[j] * (
                loss[j] - losses[row[tuple(sorted((j,) + idx[1:]))], j])
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
