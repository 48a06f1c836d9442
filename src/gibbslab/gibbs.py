"""KL-regularized risk minimization over parameter measures.

The objective is

    V(m, nu) = R(m, nu) + (sigma^2 / (2 beta^2)) KL(m || gamma_sigma)

where ``R`` is the average loss of ``m`` over the data measure ``nu``
and ``gamma_sigma`` is the prior with density proportional to
``exp(-U(theta)/sigma^2)`` for a polynomial confinement ``U``.

Minimizers are fixed points of the tilt map implemented by
:func:`gibbs_map`; :func:`solve_gibbs` finds them on a tensor grid, in one
update for a loss linear in the measure (:func:`linear_fixed_points`, also
for a batch) and by Newton's method with a damped fallback for a network;
:func:`mfld_sample` approximates them with an Euler-Maruyama particle system.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional

import numpy as np

from . import losses as _losses
from .measures import (DataMeasure, GridMeasure, ParticleMeasure, _readonly,
                       uniform_grid)

# prior and tilted-prior mass left outside the automatic grid box
TAIL_MASS = 1e-10
# nodes of the trapezoid rule that sizes the automatic box, and the nodes
# it evaluates and sums at a time
_TAIL_NODES = 200001
_TAIL_CHUNK = 1 << 12


class GibbsConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclasses.dataclass(frozen=True)
class Regularizer:
    """Polynomial confinement ``U(theta) = kappa * ||theta||^(2q)``.

    ``q`` must be a positive integer so ``U`` is smooth; growth
    admissibility against a loss model is checked by
    :meth:`validate_growth`.
    """

    kappa: float = 1.0
    q: int = 1

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("confinement strength kappa must be positive")
        if not math.isfinite(self.kappa):
            raise ValueError("confinement strength kappa must be finite")
        object.__setattr__(self, "q", _whole(
            self.q, 1, "confinement exponent q must be an integer >= 1"))

    def value(self, theta) -> np.ndarray:
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        r2 = np.einsum("ij,ij->i", theta, theta)
        return self.kappa * r2 ** self.q

    def value_radial(self, r) -> np.ndarray:
        return self.kappa * np.asarray(r, dtype=float) ** (2 * self.q)

    def grad(self, theta, out=None) -> np.ndarray:
        """Gradient at the rows of ``theta`` (N, d), into ``out`` if given.

        Either may be a view of any layout, such as the sampler's ``pts.T``
        of its (d, P) particles.  For d >= 3 the squared norm, an
        ``einsum`` row sum, may then round otherwise than on a C-ordered
        copy: the sum's order follows the layout."""
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        if self.q == 1:  # r2 ** 0 is exactly 1, even for a non-finite r2
            return np.multiply(2.0 * self.q * self.kappa, theta, out=out)
        # one coordinate: its square is einsum's one-term sum, bit for bit
        r2 = (theta[:, 0] * theta[:, 0] if theta.shape[1] == 1
              else np.einsum("ij,ij->i", theta, theta))
        scale = 2.0 * self.q * self.kappa * r2 ** (self.q - 1)
        return np.multiply(scale[:, None], theta, out=out)

    def validate_growth(self, model, p: float) -> None:
        """Check ``2q`` strictly dominates the loss and moment growth.

        The first-derivative envelope grows like ``||theta||^4`` for
        network losses and ``||theta||^2`` for expected parametric
        losses; the moment bound machinery additionally needs
        ``2q > p``.
        """
        need = max(p, 4.0 if model.variant == "nn" else 2.0)
        if not 2 * self.q > need:
            raise ValueError(
                f"confinement degree 2q={2 * self.q} must exceed {need} "
                f"for this model and moment order")


def _whole(value, low, message, fractional=None):
    """``value`` as an int, refused unless it is a whole number >= ``low``;
    ``fractional`` is the message for a non-integer, ``message`` by default.
    """
    if not value >= low:
        raise ValueError(message)
    if not (math.isfinite(value) and int(value) == value):
        raise ValueError(fractional or message)
    return int(value)


def default_regularizer(p: float, kappa: float = 1.0) -> Regularizer:
    """Default confinement for moment order ``p``: ``q = max(1, ceil((p+1)/2))``."""
    return Regularizer(kappa=kappa, q=max(1, math.ceil((p + 1.0) / 2.0)))


@dataclasses.dataclass(frozen=True)
class GibbsConfig:
    """Problem configuration for the regularized objective.

    Immutable, so the cached grid and priors always match the fields;
    derive variants with :meth:`with_beta` or :func:`dataclasses.replace`.

    Parameters
    ----------
    beta, sigma : float
        Inverse-temperature-like and prior-width parameters; the
        KL weight is ``sigma^2 / (2 beta^2)`` and the tilt temperature
        ``2 beta^2 / sigma^2``.
    p : float
        Moment order (>= 2) tracked by the bound machinery.
    regularizer : Regularizer, optional
        Confinement defining the prior; defaults to the moment-matched
        ``default_regularizer(p)``.
    theta_dim : int
        Dimension of the parameter space.
    nodes_per_axis : int
        Grid resolution per axis (cell-centered uniform grid).
    radius : float, optional
        Half-width of the grid box.  When omitted it is chosen so both
        the prior and its ``||theta||^p``-tilted companion carry tail
        mass below :data:`TAIL_MASS` outside the box.
    """

    beta: float
    sigma: float
    p: float
    regularizer: Optional[Regularizer] = None
    theta_dim: int = 1
    nodes_per_axis: int = 129
    radius: Optional[float] = None

    def __post_init__(self):
        if not (self.beta > 0 and self.sigma > 0):
            raise ValueError("beta and sigma must be positive")
        if not (math.isfinite(self.beta) and math.isfinite(self.sigma)):
            raise ValueError("beta and sigma must be finite")
        if not self.p >= 2:
            raise ValueError("moment order p must be at least 2")
        if not math.isfinite(self.p):
            raise ValueError("moment order p must be finite")
        if self.radius is not None:
            if not self.radius > 0:
                raise ValueError("grid radius must be positive")
            if not math.isfinite(self.radius):
                raise ValueError("grid radius must be finite")
        if self.regularizer is None:
            object.__setattr__(self, "regularizer",
                               default_regularizer(self.p))
        object.__setattr__(self, "theta_dim", _whole(
            self.theta_dim, 1, "parameter dimension must be at least 1",
            "parameter dimension must be an integer"))
        object.__setattr__(self, "nodes_per_axis", _whole(
            self.nodes_per_axis, 8, "grid needs at least 8 nodes per axis",
            "nodes per axis must be an integer"))
        object.__setattr__(self, "_cache", {})

    @property
    def temperature(self) -> float:
        """Tilt temperature ``2 beta^2 / sigma^2``."""
        return 2.0 * self.beta ** 2 / self.sigma ** 2

    @property
    def kl_weight(self) -> float:
        """KL coefficient ``sigma^2 / (2 beta^2)``."""
        return self.sigma ** 2 / (2.0 * self.beta ** 2)

    def with_beta(self, beta: float) -> "GibbsConfig":
        """Copy of the configuration with a different ``beta``.

        The grid box is pinned to this configuration's radius so that
        measures remain comparable across a beta schedule.
        """
        return dataclasses.replace(self, beta=beta, radius=self.box_radius())

    # -- grid and priors ----------------------------------------------------

    def box_radius(self) -> float:
        if self.radius is None:
            return _auto_radius(self.regularizer, self.sigma, self.p,
                                self.theta_dim)
        return float(self.radius)

    def grid(self):
        """Read-only grid nodes and scalar cell volume for this
        configuration; every measure built on them shares the nodes."""
        if "grid" not in self._cache:
            nodes, vol = uniform_grid(
                self.box_radius(), self.nodes_per_axis, self.theta_dim)
            self._cache["grid"] = _readonly(nodes), vol
        return self._cache["grid"]

    def confinement(self) -> np.ndarray:
        """Prior exponent magnitude ``U(theta) / sigma^2`` at the grid nodes."""
        if "confinement" not in self._cache:
            self._cache["confinement"] = \
                self.regularizer.value(self.grid()[0]) / self.sigma ** 2
        return self._cache["confinement"]

    def priors(self) -> "PriorPair":
        if "priors" not in self._cache:
            nodes, vol = self.grid()
            expo = -self.confinement()
            r = np.sqrt(np.einsum("ij,ij->i", nodes, nodes))
            dens, shift, mass = _normalized_exp(
                np.stack([expo, expo + r ** self.p]), vol)
            f_sigma, f_tilt = (float(math.exp(s) * m) if s < 700 else math.inf
                               for s, m in zip(shift, mass))
            self._cache["priors"] = PriorPair(
                GridMeasure(nodes, vol, dens[0]),
                GridMeasure(nodes, vol, dens[1]), f_sigma, f_tilt)
        return self._cache["priors"]


@dataclasses.dataclass(frozen=True)
class PriorPair:
    """Prior, its ``||theta||^p``-tilted companion, and their grid normalizers."""

    gamma_sigma: GridMeasure
    gamma_tilt_p: GridMeasure
    normalizer_sigma: float
    normalizer_tilt_p: float


def _normalized_exp(exponent, vol):
    """Densities ``exp(exponent)``, normalized by grid quadrature with cell
    volume ``vol``, of an (N,) exponent or of each row of a (B, N) one.

    Each row is shifted by its maximum before ``exp``, so its largest
    entry is 1 and its mass is at least one cell volume.  Returns
    ``(density, shift, mass)``; the normalizer is ``exp(shift) * mass``.
    """
    shift = np.max(exponent, axis=-1)
    if not np.isfinite(shift).all():
        raise ValueError("tilt map produced a degenerate density: "
                         "degenerate exponent on the grid")
    raw = np.exp(exponent - shift[..., None])
    mass = raw.sum(axis=-1) * vol
    return raw / mass[..., None], shift, mass


@functools.lru_cache(maxsize=64, typed=True)
def _auto_radius(regularizer, sigma, p, theta_dim) -> float:
    """Box half-width leaving tail mass below :data:`TAIL_MASS` under both
    the prior and its ``||theta||^p``-tilted companion.

    Memoized on every value it reads: configurations that differ only in
    ``beta`` or the grid resolution share one computation.
    """
    s2 = sigma ** 2
    r_prior = _radial_tail_radius(
        lambda r: -regularizer.value_radial(r) / s2, theta_dim)
    r_tilt = _radial_tail_radius(
        lambda r: -regularizer.value_radial(r) / s2 + r ** p, theta_dim)
    return max(r_prior, r_tilt)


def _radial_tail_radius(exponent, dim):
    """Smallest radius whose radial tail mass ratio is below :data:`TAIL_MASS`.

    ``exponent`` is the radial log-density ``f(r)``; the mass element is
    ``r^(dim-1) exp(f(r)) dr``.  A box of this half-width contains the
    ball, so the box tail is no larger.

    The mass elements on ``np.linspace(0, r_hi, _TAIL_NODES)`` are scaled
    so the largest is 1, and the tail ratio at a node is
    ``1 - cum / total`` for their cumulative trapezoid sum ``cum``.  The
    sum is walked :data:`_TAIL_CHUNK` nodes at a time, each chunk's
    ``cumsum`` starting from the previous chunk's last partial sum, so
    every partial sum is the one a single ``cumsum`` over all nodes gives
    and only the mass elements are held in full.  The ratio falls from
    node to node, so the chunk holding the first node within
    :data:`TAIL_MASS` is found from the partial sums at chunk ends, and
    only that chunk is summed again.
    """
    # find a cutoff where the log mass element has dropped far below its peak
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
    n, step = _TAIL_NODES, r_hi / (_TAIL_NODES - 1)

    def nodes(a, b):  # np.linspace(0.0, r_hi, n)[a:b], bit for bit
        r = np.arange(a, b, dtype=float) * step + 0.0
        if b == n:
            r[-1] = r_hi
        return r

    w = np.empty(n)
    with np.errstate(divide="ignore"):
        for a in range(0, n, _TAIL_CHUNK):
            r = nodes(a, min(a + _TAIL_CHUNK, n))
            safe = np.maximum(r, 1e-300)
            w[a:a + r.size] = np.where(
                r > 0, (dim - 1) * np.log(safe) + exponent(safe), -np.inf)
    w -= np.max(w)
    np.exp(w, out=w)

    def partial_sums(a, b, carry):  # cum[a:b + 1], where cum[a] == carry
        return np.cumsum(np.concatenate([[carry], (w[a + 1:b + 1] + w[a:b])
                                         * 0.5]))

    edges = [*range(0, n - 1, _TAIL_CHUNK), n - 1]
    ends = [0.0]
    for a, b in zip(edges, edges[1:]):
        ends.append(partial_sums(a, b, ends[-1])[-1])
    ends = np.array(ends)
    total = ends[-1]
    k = int(np.searchsorted(-(1.0 - ends / total), -TAIL_MASS))
    if 0 < k < len(edges):  # the crossing is in the chunk ending at edges[k]
        tail = 1.0 - partial_sums(edges[k - 1], edges[k], ends[k - 1]) / total
        idx = edges[k - 1] + int(np.searchsorted(-tail, -TAIL_MASS))
    else:  # at the first node, or past the last
        idx = 0 if k == 0 else n
    idx = min(max(idx, 1), n - 1)
    return float(nodes(idx, idx + 1)[0])


# ---------------------------------------------------------------------------
# objective and fixed point


def kl_divergence(m: GridMeasure, ref: GridMeasure) -> float:
    """KL divergence between grid measures on the same grid.

    Uses the conventions ``0 log(0/q) = 0`` and ``+inf`` when ``m``
    puts mass where ``ref`` has none.
    """
    if not isinstance(m, GridMeasure) or not isinstance(ref, GridMeasure):
        raise TypeError("KL divergence needs two grid measures")
    if m.signed or ref.signed:
        raise ValueError("KL divergence of a signed measure is undefined")
    if not m.same_grid(ref):
        raise ValueError("grid measures live on different grids")
    pos = m.density > 0.0
    if np.any(ref.density[pos] <= 0.0):
        return math.inf
    ratio = m.density[pos] / ref.density[pos]
    return float((m.density[pos] * np.log(ratio)) @ m.cell_volumes[pos])


def prior_kl(m: GridMeasure, cfg: GibbsConfig) -> float:
    """KL divergence of a grid measure from the reference prior.

    Equivalent to ``kl_divergence(m, gamma_sigma)`` but evaluated in log
    space from the analytic prior exponent, so it stays finite on wide
    boxes where the prior density itself underflows to zero at the edge
    nodes.  A measure off the configuration grid, such as a particle
    cloud, raises ``ValueError``.
    """
    if not isinstance(m, GridMeasure):
        raise TypeError("prior KL needs a grid measure")
    if m.signed:
        raise ValueError("KL divergence of a signed measure is undefined")
    pair = cfg.priors()
    if not m.same_grid(pair.gamma_sigma):
        raise ValueError("measure does not live on the configuration grid")
    if not math.isfinite(pair.normalizer_sigma):
        raise ValueError("prior normalizer overflows")
    w = m.node_weights
    pos = w > 0.0
    u_over = cfg.confinement()[pos]
    return float(w[pos] @ (np.log(m.density[pos]) + u_over)
                 + math.log(pair.normalizer_sigma))


def objective(model, m: GridMeasure, nu: DataMeasure, cfg: GibbsConfig) -> float:
    """Regularized objective ``R(m, nu) + kl_weight * KL(m || gamma_sigma)``;
    ``m`` must live on the configuration grid (:func:`prior_kl`)."""
    return cfg.kl_weight * prior_kl(m, cfg) + _losses.risk(model, m, nu)


def gibbs_map(model, m, nu: DataMeasure, cfg: GibbsConfig) -> GridMeasure:
    """One application of the exponential tilt map.

    Returns the grid measure with density proportional to
    ``exp(-(2 beta^2/sigma^2) [dR/dm(m, nu, theta) + U(theta)/(2 beta^2)])``,
    normalized by grid quadrature.  The map is invariant under constant
    shifts of the loss; exponentiation is stabilized by subtracting the
    maximal exponent; ``model.dm`` drops its m-average constant
    (``centered=False``), to which the map is invariant.
    """
    return _tilt(cfg, model.dm(m, nu.xs, nu.ys, nu.weights, cfg.grid()[0],
                               centered=False))


def _tilt(cfg: GibbsConfig, drdm: np.ndarray) -> GridMeasure:
    """Grid measure with density proportional to ``exp(-tau drdm - U/sigma^2)``."""
    nodes, vol = cfg.grid()
    expo = -cfg.temperature * drdm - cfg.confinement()
    return GridMeasure(nodes, vol, _readonly(_normalized_exp(expo, vol)[0]))


@dataclasses.dataclass(frozen=True)
class CurvatureKernel:
    """Curvature kernel of a network risk at a grid measure, in rank-n form.

    The kernel is ``K = A diag(c) A^T`` with ``A = phi(nodes, xs) - p`` the
    (N, n) features centered at the predictions ``p = E_m phi`` (kept if
    given), ``c`` the atom weights times the outer-loss curvatures and ``w``
    the (N,) node weights of ``m``.  ``K W f = A (c * A^T (w f))`` is
    symmetric, and positive semidefinite in the weighted inner product
    whenever ``c >= 0``.  Losses linear in the measure have ``n = 0``.
    """

    features: np.ndarray
    curvatures: np.ndarray
    weights: np.ndarray
    predictions: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("kernel features must form an (N, n) matrix")
        n_nodes, rank = self.features.shape
        if self.curvatures.shape != (rank,):
            raise ValueError("curvatures do not match the kernel rank")
        if self.weights.shape != (n_nodes,):
            raise ValueError("weights do not match the kernel size")

    @property
    def rank(self) -> int:
        return self.features.shape[1]

    def apply(self, f: np.ndarray) -> np.ndarray:
        a = self.features
        return a @ (self.curvatures * (a.T @ (self.weights * f)))

    def system(self, temperature: float) -> np.ndarray:
        """The n x n matrix ``S = I + tau Cov_m(phi) diag(c)``.

        ``S`` is the negated Jacobian of the prediction map
        ``p -> E_{tilt(p)} phi - p`` and the small matrix of the
        Woodbury identity for ``(I + tau K W)^-1``.  The features are
        already centred; :func:`_system` weights them a row chunk at a
        time, so no (N, n) copy is made.
        """
        return _system(self.features, 0.0, self.weights, self.curvatures,
                       temperature)


def _system(features: np.ndarray, mean, weights: np.ndarray,
            curvatures: np.ndarray, temperature: float) -> np.ndarray:
    """``S = I + tau B^T B diag(c)`` for the weighted centred features
    ``B = W^(1/2) (A - mean)`` of the (N, n) features ``A``.

    ``B`` is formed one chunk of rows at a time
    (:func:`losses._chunk_rows`) in one reused buffer, and each chunk's
    ``b^T b`` is added into the n x n Gram ``B^T B``.  Each term, and so
    the sum, is exactly symmetric, and the Gram form avoids subnormal
    products where the density underflows.
    """
    n_nodes, rank = features.shape
    step = _losses._chunk_rows(rank)
    root = np.sqrt(weights)
    buf = np.empty((min(step, n_nodes), rank))
    gram = np.zeros((rank, rank))
    for lo in range(0, n_nodes, step):
        b = buf[:min(step, n_nodes - lo)]
        np.subtract(features[lo:lo + step], mean, out=b)
        b *= root[lo:lo + step, None]
        gram += b.T @ b
    return np.eye(rank) + temperature * gram * curvatures


@dataclasses.dataclass(frozen=True)
class GibbsSolution:
    """Solver output: the fixed-point measure plus iteration diagnostics."""

    measure: GridMeasure
    iterations: int
    residual: float


def _check_solve(damping, tol, max_iter) -> int:
    """``max_iter`` as an int, once the settings are checked; tol 0 stays."""
    if not 0 < damping <= 1:
        raise ValueError("damping must lie in (0, 1]")
    if not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    return _whole(max_iter, 0, "max_iter must be a whole number >= 0")


def linear_exponents(model, cfg: GibbsConfig, xs, ys, weights=None):
    """(B, N) tilt exponents ``-tau sum_i w_i lp(., z_ri) - U / sigma^2`` of
    the datasets ``xs`` (B, n, q), ``ys`` (B, n); weights (n,), or equal."""
    if weights is None:
        weights = np.full(ys.shape[1], 1.0 / ys.shape[1])
    return -cfg.temperature * model.lp_sums(cfg.grid()[0], xs, ys, weights) \
        - cfg.confinement()


def linear_fixed_points(cfg: GibbsConfig, expo: np.ndarray, tol: float,
                        max_iter: int, start: Optional[np.ndarray] = None):
    """Fixed points of tilt maps that ignore the measure: the normalized
    ``exp`` of each row of the (B, N) exponents ``expo``, one update at any
    damping, or ``start`` (N; the prior) after 0 where that is within
    ``tol``.  An update's residual is the move of its renormalization, at
    most ``(N + 4) eps / mass`` (:func:`_normalized_exp`), and measured
    where that exceeds ``tol``.  Returns ``(density, moved, residual)`` per
    row; raises :class:`GibbsConvergenceError`, naming a batch's row, where
    ``max_iter`` is 0 or the residual exceeds ``tol``."""
    vol = cfg.grid()[1]
    start = cfg.priors().gamma_sigma.density if start is None else start
    dens, _, mass = _normalized_exp(expo, vol)
    residual = np.abs(dens - start).max(axis=1)
    kept = residual <= tol
    dens[kept] = start
    if max_iter > 0:
        residual = np.where(kept, residual,
                            (len(start) + 4) * np.finfo(float).eps / mass)
    fail = residual > tol
    if fail.any():
        if max_iter > 0:
            d = dens[fail]
            residual[fail] = np.abs(
                d - d / (d * vol).sum(axis=1, keepdims=True)).max(axis=1)
        for r in np.flatnonzero(residual > tol)[:1]:
            where = f" in row {r}" if len(dens) > 1 else ""
            raise GibbsConvergenceError(
                f"no fixed point after {min(max_iter, 1)} updates{where}; "
                f"last residual {residual[r]:.3e}", float(residual[r]))
    return dens, ~kept, residual


def _solve_network(model, nu: DataMeasure, cfg: GibbsConfig, m: GridMeasure,
                   damping: float, tol: float, max_iter: int) -> GibbsSolution:
    """Newton's method on ``G(q) = E_{tilt(q)} phi - q = 0`` for the n
    predictions of a network loss, with Jacobian ``-S`` (:func:`_system`),
    then damped iteration from its last accepted measure if a step is
    non-finite, singular or does not lower ``||G||_inf``.  Both phases read
    one (N, n) array, the features ``phi``, built once."""
    nodes, vol = cfg.grid()
    phi = model.phi(nodes, nu.xs)

    def tilt(p):
        return _tilt(cfg, phi @ (nu.weights * model.outer.d1(p, nu.ys)))

    trial, start, g_norm = m, 0, math.inf
    for it in range(max_iter + 1):
        q = phi.T @ trial.node_weights
        try:
            target = tilt(q)
        except ValueError:
            break
        residual = float(np.max(np.abs(target.density - trial.density)))
        if residual <= tol:
            return GibbsSolution(trial, it, residual)
        mean = phi.T @ target.node_weights
        g = mean - q
        g_trial = float(np.max(np.abs(g)))
        if not g_trial < g_norm:
            break
        m, start, g_norm = trial, it, g_trial
        if it == max_iter:
            break
        small = _system(phi, mean, target.node_weights,
                        nu.weights * model.outer.d2(q, nu.ys),
                        cfg.temperature)
        try:
            trial = tilt(q + np.linalg.solve(small, g))
        except (np.linalg.LinAlgError, ValueError):
            break
    for it in range(start, max_iter + 1):
        target = tilt(phi.T @ m.node_weights)
        residual = float(np.max(np.abs(target.density - m.density)))
        if residual <= tol:
            return GibbsSolution(m, it, residual)
        if it == max_iter:
            break
        dens = (1.0 - damping) * m.density + damping * target.density
        m = GridMeasure(nodes, vol, dens, normalize=True)
    raise GibbsConvergenceError(
        f"no fixed point after {max_iter} updates; last residual {residual:.3e}",
        residual)


def solve_gibbs(model, nu: DataMeasure, cfg: GibbsConfig,
                damping: float = 0.5, tol: float = 1e-8,
                max_iter: int = 500, init: Optional[GridMeasure] = None
                ) -> GibbsSolution:
    """Fixed point of the tilt map: the regularized minimizer on the grid.

    Updates the measure from the prior (or ``init``) until the residual
    ``||gibbs_map(m) - m||_inf`` is within ``tol``, in at most ``max_iter``
    updates, else raises :class:`GibbsConvergenceError` with the last
    residual.  A loss linear in the measure solves as the one-row view of
    :func:`linear_fixed_points`, at any ``damping``; a network as
    :func:`_solve_network`, whose damped fallback ``damping`` relaxes.
    ``damping`` outside (0, 1], a NaN or negative ``tol`` and a ``max_iter``
    not a whole number >= 0 raise ``ValueError`` before any tilt.
    """
    max_iter = _check_solve(damping, tol, max_iter)
    nodes, vol = cfg.grid()
    if init is not None and not (isinstance(init, GridMeasure)
                                 and np.array_equal(init.nodes, nodes)):
        raise ValueError("initial measure lives on a different grid")
    m = cfg.priors().gamma_sigma if init is None else init
    if not model.has_zero_d2m():
        return _solve_network(model, nu, cfg, m, damping, tol, max_iter)
    expo = linear_exponents(model, cfg, nu.xs[None], nu.ys[None], nu.weights)
    dens, moved, res = linear_fixed_points(cfg, expo, tol, max_iter, m.density)
    if moved[0]:
        m = GridMeasure(nodes, vol, dens[0], normalize=True)
    return GibbsSolution(m, int(moved[0]), float(res[0]))


def prior_moment_bound(model, nu: DataMeasure, cfg: GibbsConfig) -> float:
    """Upper bound ``R(gamma_tilt_p, nu) + E_gamma_tilt ||theta||^p``.

    The p-th moment of any objective minimizer is bounded by this
    quantity, which depends only on the tilted prior.
    """
    tilt = cfg.priors().gamma_tilt_p
    return _losses.risk(model, tilt, nu) + tilt.moment(cfg.p)


# ---------------------------------------------------------------------------
# particle sampler


def _drift(dm_grad, cfg, pts, out=None):
    """Gradient of ``dR/dm(m_hat, nu, .) + U(.)/(2 beta^2)`` at the
    particles ``pts`` (d, P), with ``dm_grad`` the loss model's map of
    ``nu``, or ``None`` where that drift is identically 0: (d, P), written
    into ``out`` when given.  The confinement is :meth:`Regularizer.grad`
    on the (P, d) views ``pts.T`` and ``out.T``."""
    out = cfg.regularizer.grad(pts.T, out=None if out is None else out.T).T
    np.divide(out, 2.0 * cfg.beta ** 2, out=out)
    return out if dm_grad is None else np.add(out, dm_grad(pts), out=out)


def _check_sampler(n_particles, step_size, n_steps):
    """The sampler's settings as (int, float, int), once checked."""
    if not 0 < step_size < math.inf:
        raise ValueError(f"step_size must be finite and > 0: {step_size!r}")
    return (_whole(n_particles, 1, "n_particles must be a whole number >= 1"),
            float(step_size),
            _whole(n_steps, 1, "n_steps must be a whole number >= 1"))


def _init_scale(cfg: GibbsConfig) -> float:
    """Per-coordinate standard deviation of the prior (radial quadrature)."""
    reg, s2, d = cfg.regularizer, cfg.sigma ** 2, cfg.theta_dim
    r = np.linspace(0.0, cfg.box_radius(), 20001)[1:]
    logs = (d - 1) * np.log(r) - reg.value_radial(r) / s2
    w = np.exp(logs - logs.max())
    second = float((w * r ** 2).sum() / w.sum())
    return math.sqrt(second / d)


def mfld_sample(model, nu: DataMeasure, cfg: GibbsConfig, n_particles: int,
                step_size: float, n_steps: int, seed: int,
                init: Optional[np.ndarray] = None) -> ParticleMeasure:
    """Simplified weak Euler simulation of the interacting particle dynamics.

    Each particle follows
    ``theta <- theta - h * grad[dR/dm(m_hat, nu, theta) + U(theta)/(2 beta^2)]
    + sqrt(h sigma^2 / beta^2) * xi``
    with ``m_hat`` the empirical particle measure, so the stationary law
    matches the exponential tilt fixed point.  The increments ``xi`` are
    independent random signs (+1 or -1 with probability 1/2 each) in
    place of standard normals: the simplified weak Euler scheme, of weak
    order 1 like Euler-Maruyama, since every consumer reads the law of
    the particles, not their paths (Kloeden and Platen 1992, section
    14.1; Talay and Tubaro 1990 for the expansion of the weak error).
    The loss term is the model's ``dm_grad_map`` of ``nu``, built once
    per call, before the stability probe: for a separable
    expected-parameter loss it holds the K data statistics, and a step
    costs O(N d K) whatever the atom count.
    Deterministic for a fixed ``seed``, and everything runs on the calling
    thread.  The stream: the Gaussian initial cloud (``init`` is None) is
    drawn as one (P, d) array of standard normals; then each step takes
    ``ceil(P * d / 64)`` words from ``rng.bit_generator.random_raw``,
    unpacks their little-endian bytes least significant bit first, and
    maps bit 0 / 1 to ``-s`` / ``+s`` (``s`` the noise scale) in C order
    of the (d, P) particles, so the signs do not depend on the platform.
    The particles are held parameter-major, one C-ordered (d, P) array,
    so every step works on rows P long; ``init`` is read as (P, d) rows.
    A loss whose drift map is ``None`` (all statistics 0) adds nothing to
    the confinement.  Returns the cloud, a grid measure on
    the particles with weight ``1/P`` each; its points are the (P, d)
    view ``pts.T``.

    Raises
    ------
    ValueError
        Before any draw, for a count that is not a whole number >= 1 or a
        step that is not finite and positive.
        For activations without a derivative (from ``dm_grad_map``), or
        when the heuristic stability check ``h * temperature * L <= 0.25``
        fails (``L`` a probed Lipschitz scale of the drift).
        Also when a particle is not finite: in ``init``, or after a step.
    RuntimeError
        If any particle escapes ten box radii (divergence detector); the
        message names the step and the seed.
    """
    n_particles, step_size, n_steps = _check_sampler(n_particles, step_size,
                                                     n_steps)
    dm_grad = model.dm_grad_map(nu.xs, nu.ys, nu.weights)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    radius = cfg.box_radius()
    if init is None:
        pts = _init_scale(cfg) * rng.standard_normal((n_particles, cfg.theta_dim))
    else:
        pts = np.asarray(init, dtype=float)
        if pts.shape != (n_particles, cfg.theta_dim):
            raise ValueError("initial particle array has the wrong shape")
        if not np.isfinite(pts).all():
            raise ValueError("non-finite particle in init")
    pts = np.array(pts.T, order="C")  # (d, P), never init itself

    # heuristic stability probe: drift Lipschitz scale on the initial cloud
    probe = pts[:, :33]
    d0 = _drift(dm_grad, cfg, probe)
    num = np.linalg.norm(d0[:, 1:] - d0[:, :-1], axis=0)
    den = np.linalg.norm(probe[:, 1:] - probe[:, :-1], axis=0)
    ok = den > 1e-12
    lip = float(np.max(num[ok] / den[ok])) if np.any(ok) else 0.0
    if step_size * cfg.temperature * lip > 0.25:
        raise ValueError(
            f"step size {step_size} too large: h * temperature * L = "
            f"{step_size * cfg.temperature * lip:.3g} exceeds 0.25")

    # each step's signs: 64 a raw word, in C order of the (d, P) particles
    noise_scale = math.sqrt(step_size * cfg.sigma ** 2 / cfg.beta ** 2)
    signs = np.array([-noise_scale, noise_scale])
    n_signs = pts.size
    n_words = -(-n_signs // 64)
    noise, d = np.empty_like(pts), np.empty_like(pts)
    flat = noise.reshape(-1)  # a view: noise is C-ordered
    for step in range(1, n_steps + 1):
        raw = rng.bit_generator.random_raw(n_words).astype("<u8", copy=False)
        bits = np.unpackbits(raw.view(np.uint8), count=n_signs,
                             bitorder="little")
        np.take(signs, bits, out=flat, mode="clip")  # "raise" buffers out
        _drift(dm_grad, cfg, pts, out=d)
        d *= step_size
        pts -= d
        pts += noise
        top = np.abs(pts, out=d).max()  # a NaN propagates
        if top != top:
            raise ValueError(f"non-finite particle after step {step}")
        if top > 10.0 * radius:
            raise RuntimeError(
                f"particle system diverged at step {step} (seed {seed}, "
                "left ten box radii); reduce the step size")
    return ParticleMeasure(pts.T)
