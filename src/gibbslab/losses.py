"""Loss models on parameter measures and their measure derivatives.

Two loss families are implemented:

* :class:`NNLoss`: a mean-field single-hidden-layer network.  The
  prediction is the measure average of the feature map
  ``phi(theta, x) = a * act(w . x)`` over ``theta = (a, w)``, composed
  with a convex outer loss in the prediction.
* :class:`ExpectedParamLoss`: the measure average of a per-parameter
  loss ``lp(theta, z)``.  A loss may also be given in separable form,
  ``lp(theta, z) = psi(theta - c) . coef(z, c)`` with K statistics,
  about a centre ``c`` chosen per row.  Then the data of a row enter
  through one K-vector of weighted sums, and a measure through the
  K moments ``E_m psi``, instead of ``lp`` at every atom and node; the
  particle drift is ``psi_grad`` against the same K-vector, and no map
  at all where the K-vector is 0 (the zero loss).  The centre only sets
  the rounding: expanded about a far point the terms are large and
  cancel, so losses are centred at each measure's mean and weighted
  sums at a point taken from the data.  Every shipped
  parametric loss is a quadratic, separable with ``psi = (1, u, u^2)``.

For both, the first measure derivative (normalized so its measure
average vanishes) is available in closed form, alongside growth
envelopes ``growth(m)`` and ``growth_d1(m, theta)`` bounding
``|l(m, z)|`` and ``|dl/dm(m, z, theta)|`` in units of
``1 + ||z||^2``.  ``has_zero_d2m()`` says whether the second measure
derivative vanishes; ``funcderiv.build_Cm`` assembles it over a dataset
as a rank-n ``gibbs.CurvatureKernel``.  Each model's ``dm_grad_map``
of a dataset is the particle sampler's drift, a map from the particles
held parameter-major, (d, N), to (d, N).  Each model evaluates losses,
weighted sums of first derivatives (``dm``) and their pairings with a
difference of measures (``dm_along``) over all atoms of a dataset at
once, in one body over the rows of :func:`measures.as_rows`: a single
measure is one row, a :class:`MeasureBatch` B rows with a dataset each.
The single-sample functions of this module are one-atom views of those.
A non-finite loss raises ``ValueError``, for a batch without its row.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from .measures import DataMeasure, DataPoint, as_rows, row_dot

# elements of the largest feature array one NNLoss.predict call may build
_PHI_ELEMENTS = 1 << 22
# elements of the row chunk in which NNLoss.phi applies its activation and
# gibbs._system forms its weighted features
_CHUNK_ELEMENTS = 1 << 16


def _chunk_rows(n_cols: int) -> int:
    """Rows of an (N, n_cols) array in one chunk of ``_CHUNK_ELEMENTS``."""
    return max(1, _CHUNK_ELEMENTS // max(n_cols, 1))


# ---------------------------------------------------------------------------
# activations


@dataclasses.dataclass(frozen=True)
class Activation:
    """Scalar activation with an optional derivative.

    ``value`` is vectorized and returns a new array or its argument;
    :meth:`NNLoss.phi` calls it on one row chunk of the (N, n) products at
    a time and writes the scaled values back over that chunk, and
    :meth:`NNLoss.dm_grad_map` on the (n, P) products of the particles.
    ``deriv(u, a)`` also takes ``a = value(u)`` and returns a new array,
    which :meth:`NNLoss.dm_grad_map` only reads.
    ``deriv`` is ``None`` for activations that have no usable derivative
    (heaviside), which restricts them to grid-based solvers.
    """

    kind: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]]


def _relu(u):
    return np.maximum(u, 0.0)


def _relu_deriv(u, a):
    return (u > 0).astype(float)


def _sigmoid(u):
    out = np.empty_like(u, dtype=float)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def _heaviside(u):
    return (u >= 0).astype(float)


_ACTIVATIONS = {
    "relu": Activation("relu", _relu, _relu_deriv),
    "tanh": Activation("tanh", np.tanh, lambda u, a: 1.0 - a ** 2),
    "sigmoid": Activation("sigmoid", _sigmoid, lambda u, a: a * (1.0 - a)),
    "heaviside": Activation("heaviside", _heaviside, None),
}


def activation(kind: str) -> Activation:
    """Look up one of the supported activations by name."""
    try:
        return _ACTIVATIONS[kind]
    except KeyError:
        raise ValueError(f"unknown activation {kind!r}") from None


# ---------------------------------------------------------------------------
# outer losses


def _softplus(u):
    return np.logaddexp(0.0, u)


def _logcosh(u):
    # log cosh u = |u| + log((1+exp(-2|u|))/2), stable for large |u|
    a = np.abs(u)
    return a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)


@dataclasses.dataclass(frozen=True)
class OuterLoss:
    """Convex outer loss ``l_o(yhat, y)`` with stored growth constants.

    ``L_l``, ``L_l1`` and ``L_l2`` bound the loss by
    ``L_l * (1 + yhat^2 + y^2)``, the first derivative in ``yhat`` by
    ``L_l1 * (1 + |yhat| + |y|)`` and the second derivative by ``L_l2``.
    For ``product_margin`` the second-derivative constant assumes
    classification targets ``|y| <= 1``.
    """

    kind: str
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    L_l: float
    L_l1: float
    L_l2: float


def _quadratic():
    return OuterLoss(
        "quadratic",
        value=lambda yh, y: (yh - y) ** 2,
        d1=lambda yh, y: 2.0 * (yh - y),
        d2=lambda yh, y: 2.0 * np.ones_like(np.asarray(yh, dtype=float)),
        L_l=2.0, L_l1=2.0, L_l2=2.0)


def _logcosh_outer():
    return OuterLoss(
        "logcosh",
        value=lambda yh, y: _logcosh(yh - y),
        d1=lambda yh, y: np.tanh(yh - y),
        d2=lambda yh, y: 1.0 / np.cosh(yh - y) ** 2,
        L_l=1.0, L_l1=1.0, L_l2=1.0)


def _product_margin():
    # logistic margin loss c(y * yhat) with c(u) = log(1 + exp(-u));
    # strictly positive, so no additive offset is needed.
    def value(yh, y):
        return _softplus(-(np.asarray(y) * np.asarray(yh)))

    def d1(yh, y):
        y = np.asarray(y, dtype=float)
        return -y * _sigmoid(-(y * np.asarray(yh)))

    def d2(yh, y):
        y = np.asarray(y, dtype=float)
        s = _sigmoid(-(y * np.asarray(yh)))
        return y * y * s * (1.0 - s)

    return OuterLoss("product_margin", value, d1, d2,
                     L_l=1.0, L_l1=1.0, L_l2=0.25)


_OUTER = {
    "quadratic": _quadratic(),
    "logcosh": _logcosh_outer(),
    "product_margin": _product_margin(),
}


def outer_loss(kind: str) -> OuterLoss:
    """Look up one of the supported outer losses by name."""
    try:
        return _OUTER[kind]
    except KeyError:
        raise ValueError(f"unknown outer loss {kind!r}") from None


# ---------------------------------------------------------------------------
# loss models
#
# Each model evaluates its per-atom operations over all atoms of a dataset
# at once: ``xs`` (n, q) features, ``ys`` (n,) targets and, for weighted
# sums, ``weights`` (n,), which may be signed.  Parameter arrays ``theta``
# are (N, d).  ``predict``, ``atom_losses``, ``dm`` and ``dm_along`` also
# take a MeasureBatch of B measures with ``xs`` (B, k, q) and ``ys`` (B, k),
# one dataset per row, and then return one row per measure.


def _finite(vals: np.ndarray) -> np.ndarray:
    """``vals``, checked finite."""
    if not np.isfinite(vals).all():
        raise ValueError("non-finite loss value")
    return vals


class NNLoss:
    """Mean-field network loss ``l(m, z) = l_o(E_m[phi(theta, x)], y)``.

    ``theta = (a, w)`` splits into an output weight and feature weights;
    the feature map is ``phi(theta, x) = a * act(w . x)``.  The feature
    map grows at most like ``L_phi (1 + ||x||)(1 + ||theta||^2)`` with
    ``L_phi = 1`` for every supported activation.  The measure enters
    only through the ``n`` predictions ``E_m phi(., x_i)``.
    """

    variant = "nn"
    L_phi = 1.0

    def __init__(self, act: Activation | str, outer: OuterLoss | str):
        self.activation = activation(act) if isinstance(act, str) else act
        self.outer = outer_loss(outer) if isinstance(outer, str) else outer

    def phi(self, theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Feature map for all parameter rows and all inputs, shape (N, n).

        The products ``theta[:, 1:] @ xs.T`` are formed in one call as
        the result; the activation and the output weights are then
        applied to it in place, one chunk of rows at a time
        (:func:`_chunk_rows`), so one (N, n) array and one chunk are
        alive at once."""
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        xs = np.asarray(xs, dtype=float)
        # with one feature an entry is one product on either path, and
        # np.dot's is the faster
        out = (np.dot if xs.shape[1] == 1 else np.matmul)(theta[:, 1:], xs.T)
        step = _chunk_rows(out.shape[1])
        for lo in range(0, out.shape[0], step):
            rows = out[lo:lo + step]
            np.multiply(self.activation.value(rows), theta[lo:lo + step, :1],
                        out=rows)
        return out

    def predict(self, m, xs: np.ndarray) -> np.ndarray:
        """Mean-field predictions ``E_m phi(., x_i)``, shape (n,); (B, k)
        for a batch.  Features are built for at most ``_PHI_ELEMENTS``
        entries at a time."""
        nodes, weights, (xs,), one = as_rows(m, xs)
        step = max(1, _PHI_ELEMENTS // weights.shape[1])
        out = np.empty(xs.shape[:2])
        for r, w in enumerate(weights):
            theta = nodes if nodes.ndim == 2 else nodes[r]
            for lo in range(0, xs.shape[1], step):
                feats = self.phi(theta, xs[r, lo:lo + step])
                out[r, lo:lo + step] = feats.T @ w
        return out[0] if one else out

    def atom_losses(self, m, xs, ys) -> np.ndarray:
        """Per-atom losses ``l(m, z_i)``, shape (n,); (B, k) for a batch."""
        return _finite(self.outer.value(self.predict(m, xs), ys))

    def dm(self, m, xs, ys, weights, theta, centered: bool = True
           ) -> np.ndarray:
        """Weighted derivative ``sum_i w_i dl/dm(m, z_i, theta)``, shape (N,).

        Always centered: the constant costs nothing here.  A batch goes
        row by row on the shared ``theta``: (B, N).  On the measure's own
        node array, the predictions come from the features of the sum.
        """
        nodes, node_weights, (xs, ys), one = as_rows(m, xs, ys)
        preds = None if theta is nodes else _finite(
            self.predict(m, xs[0] if one else xs)).reshape(ys.shape)
        out = []
        for r, (x, y) in enumerate(zip(xs, ys)):
            feats = self.phi(theta, x)
            p = _finite(feats.T @ node_weights[r]) if preds is None \
                else preds[r]
            c = weights * self.outer.d1(p, y)
            out.append(feats @ c - float(p @ c))
        out = np.stack(out)
        return out[0] if one else out

    def dm_grad_map(self, xs, ys, weights) -> Callable:
        """The sampler drift of one dataset: the map from the particles
        ``pts`` (d, N), parameter-major, to the gradient of :meth:`dm` at
        their own empirical measure, a new (d, N) array, from one
        evaluation of the features.  Every step works on rows N long: the
        (n, N) products ``u`` go to a buffer of the map's, sized by N; with
        ``a`` their activation, the prediction mean is ``a @ pts[0] / N``,
        ``g[0]`` is ``coef @ a``, and ``g[1:]`` is
        ``pts[0] * ((coef * xs).T @ deriv(u, a))``."""
        if self.activation.deriv is None:
            raise ValueError(
                f"activation {self.activation.kind!r} has no derivative")
        xs = np.asarray(xs, dtype=float)
        buf = np.empty((len(xs), 0))

        def grad(pts):
            nonlocal buf
            pts = np.asarray(pts, dtype=float)
            if buf.shape[1] != pts.shape[1]:
                buf = np.empty((len(xs), pts.shape[1]))
            u = np.dot(xs, pts[1:], out=buf)
            a = self.activation.value(u)
            coef = weights * self.outer.d1(a @ pts[0] / pts.shape[1], ys)
            g = np.empty(pts.shape)
            np.dot(coef, a, out=g[0])
            # coef scales the (n, q) inputs, not the (n, N) derivative
            np.dot((xs * coef[:, None]).T, self.activation.deriv(u, a),
                   out=g[1:])
            g[1:] *= pts[0]
            return g
        return grad

    def dm_along(self, m, m2, xs, ys) -> np.ndarray:
        """Per-atom pairing ``int dl/dm(m, z_i, .) d(m2 - m)``, shape (n,):
        ``l_o'(p_i, y_i) (p2_i - p_i)`` with ``p``, ``p2`` the predictions
        of ``m`` and ``m2``.  (B, k) for batches."""
        preds = self.predict(m, xs)
        return _finite(self.outer.d1(preds, ys)
                       * (self.predict(m2, xs) - preds))

    def has_zero_d2m(self) -> bool:
        return False

    def growth(self, m) -> float:
        e = 1.0 + m.moment(2.0)
        return 2.0 * self.outer.L_l * self.L_phi ** 2 * e * e

    def growth_d1(self, m, theta) -> np.ndarray:
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        r4 = np.einsum("ij,ij->i", theta, theta) ** 2
        c = 6.0 * self.outer.L_l1 * self.L_phi * (1.0 + self.L_phi)
        return c * (4.0 + r4 + m.moment(4.0))


def _contract(a, b) -> np.ndarray:
    """``sum_k a[k] * b[k]`` over the leading axis, as elementwise products
    that round each entry alike whatever the other axes hold."""
    out = a[0] * b[0]
    for j in range(1, len(a)):
        out += a[j] * b[j]
    return out


def _param_major(nodes) -> np.ndarray:
    """Nodes (N, d), or (B, N, d), as (d, 1, N), or (d, B, N)."""
    theta = np.moveaxis(nodes, -1, 0)
    return np.ascontiguousarray(theta if theta.ndim == 3 else theta[:, None])


class ExpectedParamLoss:
    """Expected parametric loss ``l(m, z) = E_m[lp(theta, z)]``.

    Parameters
    ----------
    lp : callable
        ``lp(theta, xs, ys) -> (n, N)`` per-parameter losses of the
        ``N`` rows of ``theta`` (N, d) on the ``n`` atoms given by
        features ``xs`` (n, q) and targets ``ys`` (n,).
    M_p : float
        Growth constant with ``0 <= lp(theta, z) <= M_p (1 + ||theta||^2)(1 + ||z||^2)``.
    lp_grad : callable, optional
        ``lp_grad(theta, xs, ys) -> (n, N, d)`` parameter gradient.  It
        drives the particle sampler for an ``lp``-only loss, and is the
        oracle of the separable drift.  A centered finite difference of
        ``lp`` is substituted when missing.
    psi, psi_grad, coef, centre : callables, optional
        The separable form ``lp(theta, z) = sum_k psi(theta - c)[k]
        coef(z, c)[k]``, valid for every centre ``c``; give all four or
        none.  Arrays are parameter- and statistic-major:
        ``psi(u) -> (K, ...)`` for parameters ``u`` (d, ...) less their
        centre, and ``psi_grad(u) -> (K, d, ...)`` its gradient in ``u``;
        ``coef(xs, ys, c) -> (K, ..., n)`` for the atoms ``xs``
        (..., n, q), ``ys`` (..., n) and one centre per row, ``c``
        (d, ...); ``centre(xs, ys) -> (d, ...)`` a centre taken from each
        row's data.  With them, :meth:`atom_losses` is
        ``coef(z, c) . E_m psi(. - c)`` about each measure's mean ``c``,
        :meth:`lp_sums` is ``psi(theta - c) . sum_i w_i coef(z_i, c)``
        about the data's centre, and :meth:`dm_grad_map` is
        ``psi_grad(theta - c) . sum_i w_i coef(z_i, c)`` with the K sums
        taken once per dataset: the terms of the expansion stay the size
        of the loss, so the rounding does too.  Without them ``lp`` and
        ``lp_grad`` are evaluated at every atom and node, one row of data
        at a time; that path is the oracle of the separable one.
    """

    variant = "expected_param"

    def __init__(self, lp, M_p: float, lp_grad=None, name: str = "custom",
                 psi=None, psi_grad=None, coef=None, centre=None):
        if M_p <= 0:
            raise ValueError("growth constant must be positive")
        if len({f is None for f in (psi, psi_grad, coef, centre)}) > 1:
            raise ValueError("give psi, psi_grad, coef and centre together")
        self.lp = lp
        self.M_p = float(M_p)
        self.lp_grad = lp_grad or self._finite_difference_grad
        self.name = name
        self.psi, self.psi_grad = psi, psi_grad
        self.coef, self.centre = coef, centre

    def _finite_difference_grad(self, theta, xs, ys) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        g = np.empty((len(ys),) + theta.shape)
        for j in range(theta.shape[1]):
            h = 1e-6 * (1.0 + np.abs(theta[:, j]))
            up, down = theta.copy(), theta.copy()
            up[:, j] += h
            down[:, j] -= h
            g[:, :, j] = (self.lp(up, xs, ys) - self.lp(down, xs, ys)) \
                / (2.0 * h)
        return g

    def atom_losses(self, m, xs, ys) -> np.ndarray:
        """Per-atom losses ``E_m lp(., z_i)``, shape (n,); (B, k) for a batch."""
        nodes, weights, (xs, ys), one = as_rows(m, xs, ys)
        if self.psi is not None:
            # each row's moments about its own mean
            theta = _param_major(nodes)
            c = row_dot(theta, weights)
            moments = row_dot(self.psi(theta - c[..., None]), weights)
            out = _contract(self.coef(xs, ys, c), moments[..., None])
        else:
            out = np.stack([self.lp(nodes if nodes.ndim == 2 else nodes[r],
                                    xs[r], ys[r]) @ weights[r]
                            for r in range(len(ys))])
        return _finite(out[0] if one else out)

    def _stats(self, xs, ys, weights):
        """``(c, stats)``: each row's data centre ``c`` (d, B) and its K
        weighted sums ``sum_i weights[i] coef(z_ri, c)``, (K, B)."""
        c = self.centre(xs, ys)
        return c, row_dot(self.coef(xs, ys, c), weights)

    def lp_sums(self, nodes, xs, ys, weights, shift=None) -> np.ndarray:
        """Weighted sums ``sum_i weights[i] (lp(theta, z_ri) - shift[r, i])``,
        ``weights`` (k,), over the atoms of each row of ``xs`` (B, k, q),
        ``ys`` (B, k), at the shared ``nodes`` (N, d): shape (B, N).
        ``shift`` (B, k) defaults to zero."""
        if self.psi is not None:
            c, stats = self._stats(xs, ys, weights)
            out = _contract(self.psi(_param_major(nodes) - c[..., None]),
                            stats[..., None])
            if shift is not None:
                out -= row_dot(shift, weights)[:, None]
            return out
        rows = (self.lp(nodes, x, y) for x, y in zip(xs, ys))
        if shift is not None:  # per atom: off the sum, large terms cancel
            rows = (v - s[:, None] for v, s in zip(rows, shift))
        return np.stack([weights @ v for v in rows])

    def dm(self, m, xs, ys, weights, theta, centered: bool = True
           ) -> np.ndarray:
        """Weighted derivative ``sum_i w_i dl/dm(m, z_i, theta)``, shape (N,);
        (B, N) for a batch.  :meth:`lp_sums` shifted by each atom's loss,
        which ``centered=False`` drops to save a second evaluation of ``lp``.
        """
        shift = np.atleast_2d(self.atom_losses(m, xs, ys)) if centered \
            else None
        _, _, (xs, ys), one = as_rows(m, xs, ys)
        out = self.lp_sums(np.atleast_2d(np.asarray(theta, dtype=float)),
                           xs, ys, weights, shift)
        return out[0] if one else out

    def dm_grad_map(self, xs, ys, weights) -> Optional[Callable]:
        """The sampler drift of one dataset: the map from the particles
        ``pts`` (d, N), parameter-major, to the gradient of :meth:`dm` at
        them, (d, N).

        A separable loss sums its K statistics here, once, and each call
        is ``psi_grad(pts - c) . stats``, O(N d K) whatever the atom
        count; where all K sums are exactly 0 the drift is too, and the
        map is ``None``.  An ``lp``-only loss reduces ``lp_grad`` over the
        atoms at every call, on the (N, d) view ``pts.T``."""
        if self.psi is None:
            def grad(pts):
                g = self.lp_grad(np.atleast_2d(np.asarray(pts, dtype=float)).T,
                                 xs, ys)
                # the one dot call of tensordot(weights, g, axes=1), without
                # its Python bookkeeping, which costs as much as the dot at
                # these sizes
                return np.dot(np.reshape(weights, (1, -1)),
                              g.reshape(len(g), -1)).reshape(g.shape[1:]).T
            return grad
        # one row of data: c (d, 1), stats (K, 1)
        c, stats = self._stats(np.asarray(xs, dtype=float)[None],
                               np.asarray(ys, dtype=float)[None], weights)
        if not stats.any():
            return None

        def grad(pts):
            u = np.atleast_2d(np.asarray(pts, dtype=float)) - c
            g = self.psi_grad(u)
            # stats . g over K in one dot call, as in the lp-only map
            return np.dot(stats.T, g.reshape(len(g), -1)).reshape(u.shape)
        return grad

    def dm_along(self, m, m2, xs, ys) -> np.ndarray:
        """Per-atom pairing ``int dl/dm(m, z_i, .) d(m2 - m)``, shape (n,):
        the loss difference ``l(m2, z_i) - l(m, z_i)``, since the loss is
        linear in the measure.  (B, k) for batches."""
        return self.atom_losses(m2, xs, ys) - self.atom_losses(m, xs, ys)

    def has_zero_d2m(self) -> bool:
        return True

    def growth(self, m) -> float:
        return self.M_p * (1.0 + m.moment(2.0))

    def growth_d1(self, m, theta) -> np.ndarray:
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        r2 = np.einsum("ij,ij->i", theta, theta)
        return self.M_p * (2.0 + m.moment(2.0) + r2)


def _quadratic_psi(u) -> np.ndarray:
    """``(1, u, u^2)`` of the first parameter coordinate: (3, ...)."""
    out = np.empty((3,) + u.shape[1:])
    out[0] = 1.0
    out[1] = u[0]
    np.multiply(u[0], u[0], out=out[2])
    return out


def _quadratic_psi_grad(u) -> np.ndarray:
    """Gradient of :func:`_quadratic_psi` in ``u``, ``(0, 1, 2 u)`` on the
    first parameter coordinate and 0 on the others: (3, d, ...)."""
    out = np.zeros((3,) + u.shape)
    out[1, 0] = 1.0
    np.multiply(u[0], 2.0, out=out[2, 0])
    return out


def _square_coef(r, x) -> np.ndarray:
    """Statistics of ``(r - u x)^2 = r^2 - 2 r x u + x^2 u^2``: (3, ...)."""
    out = np.empty((3,) + r.shape)
    np.multiply(r, r, out=out[0])
    np.multiply(-2.0 * r, x, out=out[1])
    np.multiply(x, x, out=out[2])
    return out


def mean_squared_param_loss() -> ExpectedParamLoss:
    """Location loss ``lp(theta, z) = (theta - y)^2`` for scalar parameters.

    Separable about ``c``: ``(y - c - u)^2`` with ``u = theta - c``; the
    data's centre is each row's mean target."""
    def lp(theta, xs, ys):
        return (theta[:, 0] - np.asarray(ys)[:, None]) ** 2

    def lp_grad(theta, xs, ys):
        return 2.0 * (theta[:, 0] - np.asarray(ys)[:, None])[:, :, None]

    def coef(xs, ys, c):
        return _square_coef(ys - c[0][..., None], 1.0)

    def centre(xs, ys):
        return ys.mean(axis=-1)[None]

    return ExpectedParamLoss(lp, M_p=2.0, lp_grad=lp_grad, name="mean_squared",
                             psi=_quadratic_psi, psi_grad=_quadratic_psi_grad,
                             coef=coef, centre=centre)


def linear_regression_param_loss() -> ExpectedParamLoss:
    """Scalar-slope regression loss ``lp(theta, z) = (y - theta * x)^2``.

    Separable about ``c``: ``(y - c x - u x)^2`` with ``u = theta - c``;
    the data's centre is each row's least-squares slope."""
    def lp(theta, xs, ys):
        return (np.asarray(ys)[:, None]
                - np.asarray(xs)[:, :1] * theta[:, 0]) ** 2

    def lp_grad(theta, xs, ys):
        x = np.asarray(xs)[:, :1]
        resid = np.asarray(ys)[:, None] - x * theta[:, 0]
        return (-2.0 * x * resid)[:, :, None]

    def coef(xs, ys, c):
        x = xs[..., 0]
        return _square_coef(ys - c[0][..., None] * x, x)

    def centre(xs, ys):
        x = xs[..., 0]
        sxx = (x * x).sum(axis=-1)
        return ((x * ys).sum(axis=-1) / np.where(sxx > 0, sxx, 1.0))[None]

    return ExpectedParamLoss(lp, M_p=2.0, lp_grad=lp_grad,
                             name="linear_regression",
                             psi=_quadratic_psi, psi_grad=_quadratic_psi_grad,
                             coef=coef, centre=centre)


def zero_param_loss() -> ExpectedParamLoss:
    """Identically-zero loss (prior-only problems): one statistic, 0."""
    def lp(theta, xs, ys):
        return np.zeros((len(ys), theta.shape[0]))

    def lp_grad(theta, xs, ys):
        return np.zeros((len(ys),) + theta.shape)

    def psi(u):
        return np.ones((1,) + u.shape[1:])

    def psi_grad(u):
        return np.zeros((1,) + u.shape)

    def coef(xs, ys, c):
        return np.zeros((1,) + ys.shape)

    def centre(xs, ys):
        return np.zeros((1,) + ys.shape[:-1])

    return ExpectedParamLoss(lp, M_p=1e-300, lp_grad=lp_grad, name="zero",
                             psi=psi, psi_grad=psi_grad, coef=coef,
                             centre=centre)


# ---------------------------------------------------------------------------
# module-level operations; the single-sample forms are one-atom views


_ONE = np.ones(1)
_ONE.flags.writeable = False


def loss_value(model, m, z: DataPoint) -> float:
    """Loss of parameter measure ``m`` on the single sample ``z``."""
    return float(model.atom_losses(m, z.x[None, :], np.array([z.y]))[0])


def loss_dm(model, m, z: DataPoint, theta) -> np.ndarray:
    """First measure derivative of the loss at ``(m, z)``.

    Normalized so its ``m``-average vanishes; vectorized over rows of
    ``theta``, and (B, N) for a batch, with ``z`` the sample of every row.
    """
    lead = m.density.shape[:-1]
    return model.dm(m, np.broadcast_to(z.x, lead + (1, z.x.size)),
                    np.full(lead + (1,), z.y), _ONE, theta)


def risk(model, m, nu: DataMeasure) -> float:
    """Average loss of ``m`` over the data measure ``nu``."""
    return float(nu.weights @ model.atom_losses(m, nu.xs, nu.ys))
