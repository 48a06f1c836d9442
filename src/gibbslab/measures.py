"""Finite measures used throughout the package.

Two families of objects live here:

* data measures: weighted atomic measures on the sample space
  ``Z = X x Y`` (feature vector plus scalar target), including the
  empirical measure of a dataset and its resampling perturbations;
* parameter measures: probability measures on the parameter space,
  each a weighted atomic measure ``sum_i w_i delta_{theta_i}`` held as
  a density on quadrature nodes.  A particle cloud is the special case
  whose nodes are its particles, each with weight ``1/P``.

A :class:`MeasureBatch` holds the parameter measures trained on one
block of replicates as stacked arrays, so that losses and population
averages of the whole block are array expressions; ``batch[r]`` is the
r-th measure as a grid measure.  A batch runs the checks of one grid
measure and does not say which row failed them.  Code that takes
either reads it as rows (:func:`as_rows`); a grid measure is one row.

Measures are immutable: every array they expose is read-only.  An
input that no writable array reaches, such as a configuration's grid
nodes or another measure's arrays, is held as it is; any other input is
copied.  A scalar cell volume is one frozen value seen by every node.

Data measures are probability measures.  Signed grid measures
(derivatives of trained measures in the data) are supported through a
``signed`` flag rather than a separate type: validation switches from
"density integrates to one" to "density integrates to zero".
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

_UNSIGNED_TOL = 1e-12
_GRID_TOL = 1e-10


@dataclasses.dataclass(frozen=True, eq=False)
class DataPoint:
    """One sample ``z = (x, y)`` with feature vector ``x`` and scalar target ``y``.

    The feature dimension may be zero, in which case the point carries
    only the target (scalar-data problems).
    """

    x: np.ndarray
    y: float

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if x.ndim != 1:
            raise ValueError("feature vector must be one-dimensional")
        if not (np.isfinite(x).all() and np.isfinite(self.y)):
            raise ValueError("non-finite data point")
        x = x.copy()
        x.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", float(self.y))


def _freeze(a) -> np.ndarray:
    """``a`` as a read-only float64 array: ``a`` itself when no writable
    array reaches its memory, that is when it is read-only and owns its
    data or views a read-only array that does (a frozen grid, or a frozen
    scalar cell volume broadcast to every node); a frozen copy otherwise."""
    a = np.asarray(a, dtype=float)
    owner = a if a.base is None else a.base
    if a.flags.writeable or not isinstance(owner, np.ndarray) \
            or owner.flags.writeable or not owner.flags.owndata:
        a = _readonly(a.copy())
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a``, an array no one else holds, frozen in place."""
    a.flags.writeable = False
    return a


def _cells(cell_volumes, n: int) -> np.ndarray:
    """Read-only cell volumes of ``n`` nodes: a scalar is frozen and
    broadcast to (n,), never expanded, and frozen (n,) volumes are kept."""
    cell_volumes = _freeze(cell_volumes)
    if cell_volumes.shape == (n,):
        return cell_volumes
    return np.broadcast_to(cell_volumes, (n,))


def _check_grid(nodes, cell_volumes, density, signed, normalize):
    """Check one grid measure, ``density`` (N,), or a batch, (B, N), and
    return the density, normalized if asked.  Each shape keeps the
    rounding of its own mass sum."""
    if not (np.isfinite(nodes).all() and np.isfinite(density).all()
            and np.isfinite(cell_volumes).all()):
        raise ValueError("non-finite grid data")
    if (cell_volumes <= 0).any():
        raise ValueError("cell volumes must be positive")
    mass = density @ cell_volumes if density.ndim == 1 \
        else (density * cell_volumes).sum(axis=-1)
    # Python floats: cheaper to test than a one-element array
    masses = mass.reshape(-1).tolist()
    if normalize and not signed:
        if not all(0.0 < m < math.inf for m in masses):
            raise ValueError("cannot normalize a degenerate density")
        density = _readonly(density / mass[..., None])
        masses = [1.0]
    if not signed and (density < 0).any():
        raise ValueError("unsigned grid density with negative value")
    for m in masses:
        if signed and abs(m) > _GRID_TOL:
            raise ValueError(
                f"signed grid measure must have zero total mass, got {m!r}")
        if not signed and abs(m - 1.0) > _GRID_TOL:
            raise ValueError(f"grid density must integrate to one, got {m!r}")
    return density


class DataMeasure:
    """Weighted atomic probability measure on the sample space.

    Atoms are stored as parallel arrays ``xs`` (n, q), ``ys`` (n,) and
    ``weights`` (n,).  Duplicate sample values are kept as separate
    atoms.  Weights must be nonnegative and sum to one.
    """

    __slots__ = ("xs", "ys", "weights")

    def __init__(self, xs, ys, weights):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None] if xs.size else xs.reshape(0, 0)
        if xs.ndim != 2 or ys.ndim != 1 or weights.ndim != 1:
            raise ValueError("atom arrays must be (n, q), (n,), (n,)")
        if not (xs.shape[0] == ys.shape[0] == weights.shape[0]):
            raise ValueError("atom arrays disagree on the atom count")
        if xs.shape[0] == 0:
            raise ValueError("empty dataset")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()
                and np.isfinite(weights).all()):
            raise ValueError("non-finite atom or weight")
        total = float(weights.sum())
        if (weights < -_UNSIGNED_TOL).any():
            raise ValueError("unsigned data measure with negative weight")
        if abs(total - 1.0) > _UNSIGNED_TOL:
            raise ValueError(
                f"unsigned data measure must have unit mass, got {total!r}")
        self.xs = _freeze(xs)
        self.ys = _freeze(ys)
        self.weights = _freeze(weights)

    @property
    def n_atoms(self) -> int:
        return self.xs.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.xs.shape[1]

    def point(self, i: int) -> DataPoint:
        return DataPoint(self.xs[i], self.ys[i])


def empirical_from_arrays(xs, ys) -> DataMeasure:
    """Equal-weight empirical measure from raw arrays (fast path)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = ys.shape[0]
    if n == 0:
        raise ValueError("empty dataset")
    return DataMeasure(xs, ys, np.full(n, 1.0 / n))


def resample(nu: DataMeasure, indices: Sequence[int],
             replacements: Sequence[DataPoint]) -> DataMeasure:
    """Swap one or two atoms of an equal-weight empirical measure.

    Returns the measure ``nu + (1/n) * sum_k (delta_{r_k} - delta_{Z_{i_k}})``
    obtained by replacing the atoms at ``indices`` with ``replacements``.

    Raises
    ------
    ValueError
        On out-of-range indices, duplicate indices, mismatched lengths,
        or more than two swap positions.
    """
    indices = list(indices)
    replacements = list(replacements)
    if len(indices) != len(replacements):
        raise ValueError("indices and replacements differ in length")
    if len(indices) not in (1, 2):
        raise ValueError("resampling swaps one or two atoms")
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate resampling indices")
    n = nu.n_atoms
    for i in indices:
        if not (0 <= i < n):
            raise ValueError(f"resampling index {i} out of range for {n} atoms")
    xs = nu.xs.copy()
    ys = nu.ys.copy()
    for i, r in zip(indices, replacements):
        if r.x.shape[0] != nu.feature_dim:
            raise ValueError("replacement feature dimension mismatch")
        xs[i] = r.x
        ys[i] = r.y
    return DataMeasure(xs, ys, nu.weights)


def as_rows(m, *data):
    """``(nodes, weights, data, one)``: ``m`` read as rows, with nodes
    shared (N, d) or per row (B, N, d), (B, N) weights and the ``data``
    arrays of its rows.  A grid measure is the single row (``one``): its
    data gain a row axis, which the caller drops from its result."""
    w = m.node_weights
    data = [np.asarray(a, dtype=float) for a in data]
    if w.ndim == 2:
        return m.nodes, w, data, False
    return m.nodes, w[None], [a[None] for a in data], True


def row_dot(a, b) -> np.ndarray:
    """``sum_j a[..., j] b[..., j]`` for each row of the broadcast ``a`` and
    ``b``: one stacked product that takes the dot of ``a[r] @ b[r]`` row by
    row, so each row rounds alike whatever the batch size."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


class GridMeasure:
    """Measure on parameter space given by a density on quadrature nodes.

    Parameters
    ----------
    nodes : (N, d) array
        Quadrature node coordinates.
    cell_volumes : (N,) array or scalar
        Quadrature weight of each node (cell volume for a uniform grid).
    density : (N,) array
        Density values at the nodes.  For an unsigned measure the
        quadrature sum must be 1 within 1e-10; for a signed measure it
        must be 0 within 1e-10 and values may be negative.
    """

    __slots__ = ("nodes", "cell_volumes", "density", "node_weights", "signed")

    def __init__(self, nodes, cell_volumes, density, signed: bool = False,
                 normalize: bool = False):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim == 1:
            nodes = nodes[:, None]
        density = np.asarray(density, dtype=float)
        cell_volumes = _cells(cell_volumes, nodes.shape[0])
        if nodes.ndim != 2 or density.shape != (nodes.shape[0],):
            raise ValueError("grid arrays must be (N, d) nodes and (N,) density")
        density = _check_grid(nodes, cell_volumes, density, signed, normalize)
        self.nodes = _freeze(nodes)
        self.cell_volumes = cell_volumes
        self.density = _freeze(density)
        # per-node quadrature mass ``density * cell_volume``
        self.node_weights = _readonly(self.density * cell_volumes)
        self.signed = bool(signed)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    def same_grid(self, other: "GridMeasure") -> bool:
        return all(a is b or np.array_equal(a, b) for a, b in (
            (self.nodes, other.nodes),
            (self.cell_volumes, other.cell_volumes)))

    def integrate(self, f) -> float:
        """Quadrature of ``f``, which maps the nodes (N, d) to one value
        each."""
        vals = np.asarray(f(self.nodes), dtype=float)
        if vals.shape != self.nodes.shape[:1]:
            raise ValueError("integrand must return one value per node")
        if not np.isfinite(vals).all():
            raise ValueError("non-finite integrand value")
        return float(vals @ self.node_weights)

    def moment(self, p: float) -> float:
        r = np.sqrt(np.einsum("ij,ij->i", self.nodes, self.nodes))
        return float((r ** p) @ self.node_weights)

    def mean(self) -> np.ndarray:
        return self.nodes.T @ self.node_weights


class ParticleMeasure(GridMeasure):
    """Equal-weight particle cloud on parameter space: the grid measure
    whose nodes are the ``points``, each with quadrature weight ``1/P``."""

    __slots__ = ()

    def __init__(self, points):
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("particle array must be nonempty (N, d)")
        if not np.isfinite(points).all():
            raise ValueError("non-finite particle")
        super().__init__(points, 1.0 / points.shape[0],
                         _readonly(np.ones(points.shape[0])))

    @property
    def points(self) -> np.ndarray:
        return self.nodes

    @property
    def n_particles(self) -> int:
        return self.n_nodes


class MeasureBatch:
    """``B`` parameter measures held as arrays, one measure per row.

    A batch holds ``nodes``, shared (N, d) or per row (B, N, d);
    ``cell_volumes`` (N,), shared by the rows; and ``density`` and
    ``node_weights``, (B, N).  ``batch[r]`` is the r-th measure, a
    :class:`GridMeasure` built when it is asked for.

    The constructor makes an unsigned batch and runs the checks of
    :class:`GridMeasure` over the whole batch.
    """

    __slots__ = ("nodes", "cell_volumes", "density", "node_weights")

    def __init__(self, nodes, cell_volumes, density, normalize: bool = False):
        nodes = np.asarray(nodes, dtype=float)
        density = np.asarray(density, dtype=float)
        if density.ndim != 2 or nodes.ndim not in (2, 3) \
                or nodes.shape[-2] != density.shape[1] \
                or (nodes.ndim == 3 and nodes.shape[0] != density.shape[0]):
            raise ValueError("batch arrays must be (N, d) or (B, N, d) nodes "
                             "and (B, N) density")
        cell_volumes = np.asarray(cell_volumes, dtype=float)
        if cell_volumes.ndim > 1:
            raise ValueError("batch cell volumes must be a scalar or (N,)")
        cell_volumes = _cells(cell_volumes, density.shape[1])
        density = _check_grid(nodes, cell_volumes, density, False, normalize)
        self.nodes = _freeze(nodes)
        self.cell_volumes = cell_volumes
        self.density = _freeze(density)
        self.node_weights = _readonly(self.density * cell_volumes)

    @classmethod
    def of(cls, measures) -> "MeasureBatch":
        """Batch of measures that were built, and validated, one by one.

        Rows on one grid share its nodes; otherwise each row keeps its
        own nodes, and the rows must agree on node count and cell volumes.
        """
        rows = list(measures)
        first = rows[0]
        batch = object.__new__(cls)
        if all(m is first or m.same_grid(first) for m in rows):
            batch.nodes = first.nodes
        elif all(m.nodes.shape == first.nodes.shape
                 and np.array_equal(m.cell_volumes, first.cell_volumes)
                 for m in rows):
            batch.nodes = _readonly(np.stack([m.nodes for m in rows]))
        else:
            raise ValueError("batch rows must agree on node count and "
                             "cell volumes")
        batch.cell_volumes = first.cell_volumes
        batch.density = _readonly(np.stack([m.density for m in rows]))
        batch.node_weights = _readonly(np.stack([m.node_weights
                                                 for m in rows]))
        return batch

    def __len__(self) -> int:
        return len(self.density)

    def __getitem__(self, r: int) -> GridMeasure:
        nodes = self.nodes if self.nodes.ndim == 2 else self.nodes[r]
        return GridMeasure(nodes, self.cell_volumes, self.density[r])


def convex_combination(mu0, mu1, lam: float):
    """Line segment ``mu0 + lam * (mu1 - mu0)`` between two measures.

    ``lam = 0`` returns ``mu0`` exactly and ``lam = 1`` returns ``mu1``
    exactly.  Grid measures must share their grid; data measures are
    merged by concatenating atom lists with rescaled weights.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("interpolation parameter must lie in [0, 1]")
    if lam == 0.0:
        return mu0
    if lam == 1.0:
        return mu1
    if isinstance(mu0, GridMeasure) and isinstance(mu1, GridMeasure):
        if not mu0.same_grid(mu1):
            raise ValueError("grid measures live on different grids")
        dens = (1.0 - lam) * mu0.density + lam * mu1.density
        return GridMeasure(mu0.nodes, mu0.cell_volumes, dens,
                           signed=mu0.signed and mu1.signed)
    if isinstance(mu0, DataMeasure) and isinstance(mu1, DataMeasure):
        if mu0.feature_dim != mu1.feature_dim:
            raise ValueError("data measures disagree on the feature dimension")
        xs = np.concatenate([mu0.xs, mu1.xs])
        ys = np.concatenate([mu0.ys, mu1.ys])
        w = np.concatenate([(1.0 - lam) * mu0.weights, lam * mu1.weights])
        return DataMeasure(xs, ys, w)
    raise ValueError("measures of different kinds cannot be combined")


def uniform_grid(radius: float, nodes_per_axis: int, dim: int):
    """Cell-centered uniform tensor grid on the box ``[-radius, radius]^dim``.

    Returns ``(nodes, cell_volume)`` with nodes of shape
    ``(nodes_per_axis**dim, dim)`` and a scalar cell volume.  Midpoint
    nodes avoid duplicated boundary points, and because every density in
    this package decays below 1e-10 at the boundary the midpoint rule
    integrates them with near-spectral accuracy.
    """
    if nodes_per_axis < 2:
        raise ValueError("need at least two nodes per axis")
    if radius <= 0:
        raise ValueError("grid radius must be positive")
    h = 2.0 * radius / nodes_per_axis
    axis = -radius + h * (np.arange(nodes_per_axis) + 0.5)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    return nodes, h ** dim


def uniform_grid_1d(center: float, half_width: float, n_nodes: int):
    """Cell-centered uniform 1-D grid on ``[center - hw, center + hw]``."""
    if half_width <= 0:
        raise ValueError("grid half-width must be positive")
    h = 2.0 * half_width / n_nodes
    nodes = center - half_width + h * (np.arange(n_nodes) + 0.5)
    return nodes[:, None], h
