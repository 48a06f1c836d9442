"""Tests for data measures, grid measures, and convex combinations."""

import numpy as np
import pytest

from gibbslab.measures import (DataMeasure, DataPoint, GridMeasure,
                               MeasureBatch, ParticleMeasure,
                               convex_combination, empirical_from_arrays,
                               resample, uniform_grid, uniform_grid_1d)
from gibbslab import losses
from gibbslab.gibbs import GibbsConfig, solve_gibbs
from gibbslab.losses import ExpectedParamLoss, NNLoss


def test_data_point_validation():
    z = DataPoint(np.array([1.0, 2.0]), 3.0)
    assert z.x.shape == (2,)
    assert z.y == 3.0
    with pytest.raises(ValueError):
        DataPoint(np.array([[1.0]]), 0.0)
    with pytest.raises(ValueError):
        DataPoint(np.array([1.0]), np.nan)


def test_empirical_from_arrays_uniform_weights():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((7, 3))
    ys = rng.standard_normal(7)
    nu = empirical_from_arrays(xs, ys)
    assert nu.n_atoms == 7
    assert nu.feature_dim == 3
    np.testing.assert_allclose(nu.weights, np.full(7, 1.0 / 7.0))
    z = nu.point(2)
    np.testing.assert_array_equal(z.x, xs[2])
    assert z.y == ys[2]


def test_resample_replaces_atoms_and_preserves_original():
    xs = np.arange(8.0)[:, None]
    ys = np.arange(8.0)
    nu = empirical_from_arrays(xs, ys)
    z_new = DataPoint(np.array([99.0]), -1.0)
    nu2 = resample(nu, [0, 3], [z_new, z_new])
    assert nu2.ys[0] == -1.0 and nu2.ys[3] == -1.0
    assert nu2.xs[0, 0] == 99.0
    # untouched atoms and the original measure are unchanged
    assert nu2.ys[1] == 1.0
    assert nu.ys[0] == 0.0
    with pytest.raises(ValueError):
        resample(nu, [0, 0], [z_new, z_new])
    with pytest.raises(ValueError):
        resample(nu, [11], [z_new])


def test_grid_measure_mass_validation():
    nodes, vol = uniform_grid_1d(0.0, 1.0, 11)
    dens = np.ones(11)
    with pytest.raises(ValueError):
        GridMeasure(nodes, vol, dens)  # mass 2, not 1
    m = GridMeasure(nodes, vol, dens, normalize=True)
    np.testing.assert_allclose(m.node_weights.sum(), 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        GridMeasure(nodes, vol, -dens / 2.0)
    # signed measures must have zero total mass
    signed = dens - dens.mean()
    ms = GridMeasure(nodes, vol, signed, signed=True)
    assert abs(ms.node_weights.sum()) < 1e-12
    with pytest.raises(ValueError):
        GridMeasure(nodes, vol, dens, signed=True)


def test_grid_measure_node_weights_computed_once_and_frozen():
    nodes, vol = uniform_grid_1d(0.0, 1.0, 11)
    m = GridMeasure(nodes, vol, np.linspace(1.0, 2.0, 11), normalize=True)
    assert m.node_weights is m.node_weights
    np.testing.assert_array_equal(m.node_weights, m.density * m.cell_volumes)
    with pytest.raises(ValueError):
        m.node_weights[0] = 0.0


def _exposed(m):
    names = ("xs", "ys", "weights") if isinstance(m, DataMeasure) \
        else ("nodes", "cell_volumes", "density", "node_weights")
    return [getattr(m, k) for k in names]


def _one_cell_volume(m):
    # a scalar cell volume is one value seen by every node, never a copy
    assert m.cell_volumes.strides == (0,)
    assert m.cell_volumes.base.size == 1


def test_measures_on_a_config_grid_share_its_nodes_and_cell_volume():
    cfg = GibbsConfig(beta=1.0, sigma=1.0, p=2, theta_dim=2,
                      nodes_per_axis=9)
    nodes, vol = cfg.grid()
    assert not nodes.flags.writeable
    dens = np.exp(-np.sum(nodes ** 2, axis=1))
    g = GridMeasure(nodes, vol, dens, normalize=True)
    batch = MeasureBatch(nodes, vol, np.stack([dens, 2.0 * dens]),
                         normalize=True)
    nu = empirical_from_arrays(np.zeros((3, 0)), np.array([0.1, -0.2, 0.3]))
    sol = solve_gibbs(losses.mean_squared_param_loss(), nu,
                      GibbsConfig(beta=1.0, sigma=1.0, p=2, nodes_per_axis=9),
                      damping=1.0)
    rows = [g, batch, batch[1], MeasureBatch.of([g, batch[0]]),
            convex_combination(g, batch[1], 0.25), cfg.priors().gamma_sigma,
            cfg.priors().gamma_tilt_p]
    for m in rows:
        assert m.nodes is nodes
        _one_cell_volume(m)
        if isinstance(m, GridMeasure):
            assert m.same_grid(g)
    for m in sol.measure, ParticleMeasure(nodes), GridMeasure(
            nodes, np.array(vol), dens, normalize=True):
        _one_cell_volume(m)
    # a row of a batch views the batch's frozen density
    assert np.shares_memory(batch[1].density, batch.density)
    for m in rows + [sol.measure]:
        assert not any(a.flags.writeable for a in _exposed(m))


def test_measures_copy_read_only_views_of_writable_arrays():
    nodes, vol = uniform_grid_1d(0.0, 1.0, 11)
    base_nodes, base_vol = nodes.copy(), np.array(vol)
    base_cells = np.full(11, vol)
    base_dens = np.full(11, 0.5)

    def view(a):
        v = a[...]
        v.flags.writeable = False
        return v

    cases = [GridMeasure(view(base_nodes), np.broadcast_to(base_vol, (11,)),
                         view(base_dens)),
             GridMeasure(view(base_nodes[:, 0]), view(base_cells),
                         view(base_dens)),
             MeasureBatch(view(base_nodes), view(base_vol),
                          np.broadcast_to(base_dens, (2, 11))),
             ParticleMeasure(view(base_nodes))]
    xs, ys, w = np.ones((4, 2)), np.arange(4.0), np.full(4, 0.25)
    data = DataMeasure(view(xs), view(ys), view(w))
    before = [[a.copy() for a in _exposed(m)] for m in cases + [data]]
    for a in (base_nodes, base_vol, base_cells, base_dens, xs, ys, w):
        a[...] = 7.0
    for m, old in zip(cases + [data], before):
        for a, b in zip(_exposed(m), old):
            assert not a.flags.writeable
            np.testing.assert_array_equal(a, b)


def test_grid_measure_moments_against_gaussian():
    nodes, vol = uniform_grid_1d(0.0, 8.0, 2001)
    dens = np.exp(-nodes[:, 0] ** 2 / 2.0)
    m = GridMeasure(nodes, vol, dens, normalize=True)
    np.testing.assert_allclose(m.mean(), [0.0], atol=1e-12)
    np.testing.assert_allclose(m.moment(2), 1.0, atol=1e-8)
    np.testing.assert_allclose(m.moment(4), 3.0, atol=1e-7)
    np.testing.assert_allclose(m.integrate(lambda t: np.cos(t[:, 0])),
                               np.exp(-0.5), atol=1e-8)


def test_grid_measure_rejects_bad_shapes():
    nodes, vol = uniform_grid_1d(0.0, 1.0, 9)
    with pytest.raises(ValueError):
        GridMeasure(nodes, vol, np.ones(8), normalize=True)
    with pytest.raises(ValueError):
        GridMeasure(nodes, -vol, np.ones(9), normalize=True)
    with pytest.raises(ValueError):
        GridMeasure(nodes, vol, np.full(9, np.inf))


def test_uniform_grid_covers_box():
    nodes, vol = uniform_grid(2.0, 9, 2)
    assert nodes.shape == (81, 2)
    # cell-centered: total volume equals the box volume
    np.testing.assert_allclose(vol * 81, 16.0)
    assert np.max(np.abs(nodes)) < 2.0
    # symmetric around the origin
    np.testing.assert_allclose(nodes.sum(axis=0), [0.0, 0.0], atol=1e-12)


def test_uniform_grid_1d_center_and_width():
    nodes, vol = uniform_grid_1d(3.0, 0.5, 21)
    assert nodes.shape == (21, 1)
    np.testing.assert_allclose(nodes[:, 0].mean(), 3.0, atol=1e-14)
    np.testing.assert_allclose(vol * 21, 1.0)


@pytest.mark.parametrize("lam", [0.0, 0.25, 1.0])
def test_convex_combination_grid(lam):
    nodes, vol = uniform_grid_1d(0.0, 2.0, 101)
    d0 = np.exp(-nodes[:, 0] ** 2)
    d1 = np.exp(-((nodes[:, 0] - 0.5) ** 2))
    m0 = GridMeasure(nodes, vol, d0, normalize=True)
    m1 = GridMeasure(nodes, vol, d1, normalize=True)
    mix = convex_combination(m0, m1, lam)
    np.testing.assert_allclose(
        mix.density, (1 - lam) * m0.density + lam * m1.density, rtol=1e-14)
    if lam == 0.0:
        assert mix is m0
    if lam == 1.0:
        assert mix is m1


def test_convex_combination_data_measures():
    nu0 = empirical_from_arrays(np.zeros((2, 0)), np.array([0.0, 1.0]))
    nu1 = empirical_from_arrays(np.zeros((1, 0)), np.array([5.0]))
    mix = convex_combination(nu0, nu1, 0.25)
    np.testing.assert_allclose(mix.weights.sum(), 1.0)
    # expectation of y interpolates linearly
    np.testing.assert_allclose(mix.weights @ mix.ys,
                               0.75 * 0.5 + 0.25 * 5.0)
    with pytest.raises(ValueError):
        convex_combination(nu0, nu1, 1.5)


def test_convex_combination_grid_mismatch():
    n0, v0 = uniform_grid_1d(0.0, 1.0, 11)
    n1, v1 = uniform_grid_1d(0.0, 2.0, 11)
    m0 = GridMeasure(n0, v0, np.ones(11), normalize=True)
    m1 = GridMeasure(n1, v1, np.ones(11), normalize=True)
    with pytest.raises(ValueError):
        convex_combination(m0, m1, 0.5)


def test_particle_measure_moments():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((50000, 2))
    pm = ParticleMeasure(pts)
    assert pm.n_particles == 50000 and pm.dim == 2
    np.testing.assert_allclose(pm.moment(2), 2.0, atol=0.05)
    np.testing.assert_allclose(pm.mean(), [0.0, 0.0], atol=0.02)
    with pytest.raises(ValueError):
        ParticleMeasure(np.empty((0, 2)))


def test_data_measure_weight_validation():
    xs = np.zeros((3, 1))
    ys = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        DataMeasure(xs, ys, np.array([0.5, 0.5, 0.5]))
    nu = DataMeasure(xs, ys, np.array([0.2, 0.3, 0.5]))
    np.testing.assert_allclose(nu.weights.sum(), 1.0)


# ---------------------------------------------------------------------------
# validation table: every rejection keeps its exception and its message


def _grid_case(case):
    """(nodes, cell volumes, density, signed) of a 5-node grid with one defect."""
    nodes = np.linspace(-1.0, 1.0, 5)[:, None]
    vol, dens, signed = np.full(5, 0.5), np.full(5, 0.4), False
    if case == "non-finite node":
        nodes[2, 0] = np.inf
    elif case == "infinite density":
        dens[2] = np.inf
    elif case == "NaN density":
        dens[2] = np.nan
    elif case == "non-finite volume":
        vol[2] = np.nan
    elif case == "non-positive volume":
        vol[1] = 0.0
    elif case == "negative density":
        dens[0], dens[1] = 0.5, -0.1
    elif case == "unsigned mass":
        dens = 2.0 * dens
    elif case == "signed mass":
        signed = True
    return nodes, vol, dens, signed


_GRID_CASES = [
    ("non-finite node", "non-finite grid data"),
    ("infinite density", "non-finite grid data"),
    ("NaN density", "non-finite grid data"),
    ("non-finite volume", "non-finite grid data"),
    ("non-positive volume", "cell volumes must be positive"),
    ("negative density", "unsigned grid density with negative value"),
    ("unsigned mass", "grid density must integrate to one, got 2.0"),
    ("signed mass", "signed grid measure must have zero total mass, got 1.0"),
]


@pytest.mark.parametrize("case, message", _GRID_CASES)
def test_grid_measure_rejections(case, message):
    nodes, vol, dens, signed = _grid_case(case)
    with pytest.raises(ValueError, match=f"^{message}"):
        GridMeasure(nodes, vol, dens, signed=signed)


@pytest.mark.parametrize("case, message",
                         [c for c in _GRID_CASES if c[0] != "signed mass"])
def test_measure_batch_rejections_name_the_row(case, message):
    # rows 0 and 2 are valid; row 1 carries the defect, or the shared
    # cell volumes do, and the batch rejects it with the message of the
    # one-measure check
    rows = [_grid_case(None), _grid_case(case), _grid_case(None)]
    nodes, dens = (np.stack([r[k] for r in rows]) for k in (0, 2))
    with pytest.raises(ValueError, match=f"^{message}"):
        MeasureBatch(nodes, rows[1][1], dens)


def test_measure_batch_rejects_per_row_cell_volumes():
    nodes, vol, dens, _ = _grid_case(None)
    with pytest.raises(ValueError, match="^batch cell volumes must be"):
        MeasureBatch(nodes, np.stack([vol, vol]), np.stack([dens, dens]))


def test_measure_batch_of_rows_and_lazy_rows():
    nodes, vol, dens, _ = _grid_case(None)
    g = GridMeasure(nodes, vol, dens)
    shared = MeasureBatch.of([g, GridMeasure(nodes, vol, dens)])
    assert shared.nodes.shape == (5, 1) and len(shared) == 2
    assert shared[1].same_grid(g)
    np.testing.assert_array_equal(shared[1].density, g.density)
    np.testing.assert_array_equal(shared.node_weights, [g.node_weights] * 2)
    built = MeasureBatch(nodes + np.array([0.0, 1.0])[:, None, None], vol,
                         np.stack([dens, dens]))
    assert built.nodes.shape == (2, 5, 1)
    np.testing.assert_allclose(built[1].mean(), [1.0], rtol=1e-15)
    # clouds keep their own nodes, each row a grid measure on its particles
    parts = MeasureBatch.of([ParticleMeasure(np.zeros((4, 1))),
                             ParticleMeasure(np.ones((4, 1)))])
    assert len(parts) == 2 and parts.nodes.shape == (2, 4, 1)
    np.testing.assert_array_equal(parts[1].nodes, np.ones((4, 1)))
    np.testing.assert_array_equal(parts.node_weights, np.full((2, 4), 0.25))
    # so do grid measures on grids of one size and cell volume
    moved = MeasureBatch.of([g, GridMeasure(nodes + 1.0, vol, dens)])
    assert moved.nodes.shape == (2, 5, 1)
    np.testing.assert_array_equal(moved[1].nodes, nodes + 1.0)
    # rows that disagree on node count or cell volumes are not one batch
    for rows in ([g, ParticleMeasure(np.zeros((4, 1)))],
                 [g, GridMeasure(nodes + 1.0, 2.0 * vol, 0.5 * dens)],
                 [ParticleMeasure(np.zeros((4, 2))),
                  ParticleMeasure(np.zeros((5, 2)))]):
        with pytest.raises(ValueError, match="^batch rows must agree"):
            MeasureBatch.of(rows)


def test_cloud_batch_matches_one_measure_forms_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(12)
    clouds = [ParticleMeasure(rng.standard_normal((37, 2))) for _ in range(3)]
    batch = MeasureBatch.of(clouds)
    xs = rng.standard_normal((3, 4, 1))
    ys = rng.standard_normal((3, 4))

    models = (NNLoss("tanh", "quadratic"),
              ExpectedParamLoss(lambda th, x, y: (th[:, 0] + th[:, 1] * x
                                                  - y[:, None]) ** 2, 2.0))
    for model in models:
        np.testing.assert_array_equal(
            model.atom_losses(batch, xs, ys),
            [model.atom_losses(m, xs[r], ys[r]) for r, m in enumerate(clouds)])
    # the derivatives over several signed atoms, on cloud rows and on rows
    # of one grid, equal each row's one-measure form
    nodes, vol = uniform_grid(2.0, 9, 2)
    grids = [GridMeasure(nodes, vol, rng.uniform(0.1, 1.0, len(nodes)),
                         normalize=True) for _ in range(3)]
    weights = np.array([0.4, -0.1, 0.5, 0.2])
    theta = rng.standard_normal((11, 2))
    for rows in (clouds, grids):
        rows_batch = MeasureBatch.of(rows)
        for model in models:
            for centered in (True, False):
                np.testing.assert_array_equal(
                    model.dm(rows_batch, xs, ys, weights, theta, centered),
                    [model.dm(m, xs[r], ys[r], weights, theta, centered)
                     for r, m in enumerate(rows)])
    # predictions whose row loop crosses feature-chunk boundaries: two
    # atoms per chunk of 37-particle features
    monkeypatch.setattr(losses, "_PHI_ELEMENTS", 2 * 37 + 1)
    np.testing.assert_array_equal(
        models[0].predict(batch, xs),
        [models[0].predict(m, xs[r]) for r, m in enumerate(clouds)])


def test_network_batch_forms_build_no_grid_measure(monkeypatch):
    # a batch is read as rows of arrays, never rebuilt measure by measure
    rng = np.random.default_rng(13)
    batch = MeasureBatch.of([ParticleMeasure(rng.standard_normal((16, 2)))
                             for _ in range(4)])
    xs, ys = rng.standard_normal((4, 3, 1)), rng.standard_normal((4, 3))
    model = NNLoss("tanh", "logcosh")
    want = model.predict(batch, xs), model.dm(batch, xs, ys, np.ones(3),
                                              batch.nodes[0])

    def refuse(self, *args, **kwargs):
        raise AssertionError("a GridMeasure was built")

    monkeypatch.setattr(GridMeasure, "__init__", refuse)
    np.testing.assert_array_equal(model.predict(batch, xs), want[0])
    np.testing.assert_array_equal(
        model.dm(batch, xs, ys, np.ones(3), batch.nodes[0]), want[1])


_DATA_CASES = [
    ("infinite feature", [[np.inf], [0.0]], [0.0, 1.0], [0.5, 0.5], False,
     "non-finite atom or weight"),
    ("NaN target", [[0.0], [1.0]], [np.nan, 1.0], [0.5, 0.5], False,
     "non-finite atom or weight"),
    ("NaN weight", [[0.0], [1.0]], [0.0, 1.0], [np.nan, 0.5], False,
     "non-finite atom or weight"),
    ("negative weight", [[0.0], [1.0]], [0.0, 1.0], [1.5, -0.5], False,
     "unsigned data measure with negative weight"),
    ("unsigned mass", [[0.0], [1.0]], [0.0, 1.0], [0.5, 0.6], False,
     "unsigned data measure must have unit mass"),
    ("flat features", [[0.0], [np.inf]], [0.0, 1.0], [0.5, 0.5], True,
     "non-finite atom or weight"),
]


@pytest.mark.parametrize("case, xs, ys, weights, flat, message", _DATA_CASES)
def test_data_measure_rejections(case, xs, ys, weights, flat, message):
    # flat: the features of a one-feature dataset given as an (n,) array
    xs = np.array(xs)
    with pytest.raises(ValueError, match=f"^{message}"):
        DataMeasure(xs[:, 0] if flat else xs, np.array(ys), np.array(weights))


@pytest.mark.parametrize("x, y", [([np.inf], 0.0), ([0.0], np.nan)])
def test_data_point_and_particle_rejections(x, y):
    with pytest.raises(ValueError, match="^non-finite data point"):
        DataPoint(np.array(x), y)
    with pytest.raises(ValueError, match="^non-finite particle"):
        ParticleMeasure(np.array([x, [0.0]]) + y)
