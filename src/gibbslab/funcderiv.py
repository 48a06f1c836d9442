"""Derivatives of trained measures with respect to the data measure.

The trained measure (the fixed point of the exponential tilt map)
depends smoothly on the data measure.  Its density derivative in the
direction of a sample ``z`` is obtained in three steps:

1. evaluate the risk derivative at the solution,
2. solve a well-posed linear system ``(Id + temperature * C_m) v = L``
   where ``C_m`` is the positive semidefinite curvature kernel of the
   risk at the solution.  For network losses ``C_m`` has rank at most
   the number of atoms ``n``, so the system is solved by the Woodbury
   identity: the inverse of its n x n system is formed once per trained
   measure, after a condition check, and each direction costs
   ``O(N n)`` on ``N`` grid nodes,
3. assemble the signed density ``-temperature * m(theta) (v - E_m v)``.

A finite-difference oracle over re-solved problems cross-checks the
whole chain, and :func:`check_linear_derivative` verifies first-order
expansions of measure functionals along convex segments, evaluating the
derivative at every quadrature blend of a segment in one batched call.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Optional

import numpy as np

from . import losses as _losses
from .gibbs import CurvatureKernel, GibbsConfig, GibbsSolution, solve_gibbs
from .measures import (DataMeasure, DataPoint, GridMeasure, MeasureBatch,
                       _readonly)


@functools.cache
def gauss_legendre_01(n: int):
    """Gauss-Legendre nodes and weights on the unit interval, read-only.

    Cached per ``n``, and computed on first use rather than at import:
    the eigenvalue solve costs about 1 ms and 1.5 MB of resident memory.
    """
    if n < 1:
        raise ValueError("need at least one quadrature node")
    x, w = np.polynomial.legendre.leggauss(n)
    return _readonly(0.5 * (x + 1.0)), _readonly(0.5 * w)


def check_linear_derivative(value_fn: Callable, deriv_fn: Callable,
                            m0: GridMeasure, m1: GridMeasure,
                            lambda_nodes: int = 8) -> float:
    """Residual of the first-order expansion along the segment ``m0 -> m1``.

    Checks ``value(m1) - value(m0) = int_0^1 <deriv(m_lam), m1 - m0> dlam``
    with ``m_lam = m0 + lam (m1 - m0)`` and Gauss-Legendre quadrature in
    ``lam``.  ``deriv_fn`` gets the L blends as one :class:`MeasureBatch`
    and must return (L, N) node values of the derivative on the shared
    grid; the end points must be unsigned.  Returns the absolute residual.
    """
    if not m0.same_grid(m1):
        raise ValueError("measures live on different grids")
    if m0.signed or m1.signed:
        raise ValueError("end points must be unsigned measures")
    delta_w = (m1.density - m0.density) * m0.cell_volumes
    lams, wts = gauss_legendre_01(lambda_nodes)
    rows = np.asarray(deriv_fn(MeasureBatch(
        m0.nodes, m0.cell_volumes,
        (1.0 - lams)[:, None] * m0.density + lams[:, None] * m1.density)),
        dtype=float)
    if rows.shape != (len(lams), m0.n_nodes):
        raise ValueError(f"deriv_fn must return {(len(lams), m0.n_nodes)} "
                         f"node values, one row per blend; got {rows.shape}")
    inner = 0.0
    for row, wt in zip(rows, wts):
        inner += wt * float(row @ delta_w)
    return abs(float(value_fn(m1)) - float(value_fn(m0)) - inner)


@dataclasses.dataclass(frozen=True)
class SDerivative:
    """Node values of the data-direction derivative of the risk derivative.

    Solves the linearized fixed-point equation for the direction
    ``delta_z - nu``; its mean under the trained measure vanishes.
    """

    values: np.ndarray
    z: DataPoint


def build_Cm(model, m: GridMeasure, nu: DataMeasure) -> CurvatureKernel:
    """Curvature kernel of the risk at ``(m, nu)`` in rank-n form.

    For network losses the kernel is ``A diag(c) A^T`` with ``A`` the
    features centered at the predictions of ``m`` and ``c`` the atom
    weights times the outer-loss curvatures there.  For expected
    parametric losses the second measure derivative is identically zero
    and the kernel has rank 0.
    """
    if not isinstance(m, GridMeasure):
        raise TypeError("the curvature kernel is assembled on a grid measure")
    w = m.node_weights
    if model.has_zero_d2m():
        return CurvatureKernel(np.zeros((m.n_nodes, 0)), np.zeros(0), w)
    feats = model.phi(m.nodes, nu.xs)
    preds = feats.T @ w
    feats -= preds  # centred in place: the kernel's one (N, n) array
    return CurvatureKernel(feats,
                           nu.weights * model.outer.d2(preds, nu.ys), w, preds)


class TrainedDerivatives:
    """Derivative machinery around one trained measure.

    Caches the solved measure, the curvature kernel, the data measure's
    part of every right-hand side and the inverse of the condition-checked
    n x n system, so each further sample direction ``z`` against the same
    data measure costs matrix-vector products only.
    """

    def __init__(self, model, nu: DataMeasure, cfg: GibbsConfig,
                 solve_kwargs: Optional[dict] = None):
        self.model = model
        self.nu = nu
        self.cfg = cfg
        self._solve_kwargs = dict(solve_kwargs or {})

    @functools.cached_property
    def solution(self) -> GibbsSolution:
        return solve_gibbs(self.model, self.nu, self.cfg, **self._solve_kwargs)

    @property
    def measure(self) -> GridMeasure:
        return self.solution.measure

    @functools.cached_property
    def kernel(self) -> CurvatureKernel:
        return build_Cm(self.model, self.measure, self.nu)

    def s_values(self, theta) -> np.ndarray:
        """Risk derivative at the trained measure, evaluated at ``theta``."""
        nu = self.nu
        return self.model.dm(self.measure, nu.xs, nu.ys, nu.weights, theta)

    @functools.cached_property
    def _s_nodes(self) -> np.ndarray:
        """:meth:`s_values` at the nodes; a network's is ``A (w * l_o'(p, y))``
        on the kernel's features ``A = phi - p``, evaluated once."""
        if self.model.has_zero_d2m():
            return self.s_values(self.measure.nodes)
        kern, nu = self.kernel, self.nu
        return kern.features @ (
            nu.weights * self.model.outer.d1(kern.predictions, nu.ys))

    @functools.cached_property
    def _s_inv(self) -> np.ndarray:
        small = self.kernel.system(self.cfg.temperature)
        cond = np.linalg.cond(small)
        if not cond < 1.0 / np.finfo(float).eps:
            raise RuntimeError(f"singular derivative system: n = "
                               f"{self.kernel.rank}, cond(S) ~ {cond:.3e}")
        return np.linalg.inv(small)

    def s_derivative(self, z: DataPoint) -> SDerivative:
        """Solve ``(Id + temperature * C_m) v = L`` for the direction ``z``.

        ``L = dl/dm(m*, z, .) - int dl/dm(m*, z', .) nu(dz')``.  With
        ``C_m W = A diag(c) A^T W`` the Woodbury identity gives
        ``v = L - tau A diag(c) S^-1 A^T W L``.  The solution has zero
        mean under the trained measure and
        ``||v||_(L2(m*)) <= ||L||_(L2(m*))``.

        Raises
        ------
        RuntimeError
            If the n x n system ``S`` is numerically singular.
        """
        # right-hand side: the loss derivative against delta_z - nu
        m = self.measure
        rhs = _losses.loss_dm(self.model, m, z, m.nodes) - self._s_nodes
        if self.model.has_zero_d2m():
            return SDerivative(rhs, z)
        kern, a = self.kernel, self.kernel.features
        coef = self._s_inv @ (a.T @ (kern.weights * rhs))
        return SDerivative(rhs - self.cfg.temperature
                           * (a @ (kern.curvatures * coef)), z)

    def dm_dnu(self, z: DataPoint) -> GridMeasure:
        """Signed density derivative of the trained measure toward ``z``."""
        m = self.measure
        v = self.s_derivative(z).values
        centered = v - float(v @ m.node_weights)
        dens = -self.cfg.temperature * m.density * centered
        return GridMeasure(m.nodes, m.cell_volumes, dens, signed=True)


def dm_dnu(model, nu: DataMeasure, cfg: GibbsConfig, z: DataPoint,
           solve_kwargs: Optional[dict] = None) -> GridMeasure:
    """Signed density derivative of the trained measure in direction ``z``."""
    return TrainedDerivatives(model, nu, cfg, solve_kwargs).dm_dnu(z)


def finite_diff_dm_dnu(model, nu: DataMeasure, cfg: GibbsConfig, z: DataPoint,
                       eps: float = 1e-4,
                       solve_kwargs: Optional[dict] = None) -> GridMeasure:
    """Finite-difference oracle for :func:`dm_dnu`.

    Re-solves the problem at ``nu + eps (delta_z - nu)`` and returns the
    density difference quotient.  Both solves are run at tolerance
    ``eps^2 * 1e-2`` (or tighter if the caller asks) so solver error
    stays below the differencing error.
    """
    if not 0 < eps < 0.5:
        raise ValueError("eps must be a small positive number")
    kwargs = dict(solve_kwargs or {})
    kwargs["tol"] = min(kwargs.get("tol", np.inf), eps ** 2 * 1e-2)
    xs = np.concatenate([nu.xs, [z.x]])
    ys = np.concatenate([nu.ys, [z.y]])
    w = np.concatenate([(1.0 - eps) * nu.weights, [eps]])
    nu_eps = DataMeasure(xs, ys, w)
    base = solve_gibbs(model, nu, cfg, **kwargs).measure
    bumped = solve_gibbs(model, nu_eps, cfg, **kwargs).measure
    dens = (bumped.density - base.density) / eps
    return GridMeasure(base.nodes, base.cell_volumes, dens, signed=True)
