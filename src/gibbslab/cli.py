"""Experiment runner and verification driver.

Usage::

    gibbslab run <config.json> [--seed S] [--out DIR]
    gibbslab verify [--seed S] [--out DIR]

A config file is a JSON object naming one experiment (``verify``,
``gibbs-solve``, ``gen-sweep``, ``bounds``, ``mfld-vs-grid``,
``gaussian-oracle``) together with model / gibbs / population /
trainer / sweep blocks.  It is read once, against the table
``_SCHEMA`` of every key it may hold; an unknown key is an error, and
so is a block or key its experiment does not read (``_EXPERIMENTS``) or
a key its trainer kind, population or model variant does not read.
Results are written once, as CSV (ten fixed columns) and/or JSON, with
floats to 17 significant digits: a rerun reproduces them byte for byte.
A non-finite number in a JSON result is an error, never written.

Exit codes: 0 success, 2 when any reported ``holds`` field is false,
1 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import funcderiv, genbench, gibbs, losses, measures

CSV_FIELDS = ("experiment_id", "route", "n", "replicates", "seed",
              "estimate", "stderr", "oracle", "bound", "holds")

class ConfigError(Exception):
    """Malformed configuration; the message carries the field path."""


# ---------------------------------------------------------------------------
# config reader


class _Key(NamedTuple):
    """One key of the config table; ``_SCHEMA`` gives its meaning."""
    kind: str
    bound: object = None
    default: object = ...  # required


class _Settings:
    """A config block read against the table; frozen.

    ``key in block`` says whether the config gave ``key``; reading a
    required key that it left out raises :class:`ConfigError`.
    """

    def __init__(self, path: str, values: dict, given):
        self.__dict__.update(values, _path=path, _given=frozenset(given))

    def __getattr__(self, key):  # only a required key left out gets here
        if key.startswith("_"):
            raise AttributeError(key)
        raise ConfigError(f"{self._path}{key}: missing required field")

    def __contains__(self, key) -> bool:
        return key in self._given

    def __setattr__(self, key, value):
        raise AttributeError("config settings are frozen")


def _seed(seed: int, path: str) -> int:
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"{path}: expected 0 <= seed < 2**64, got {seed}")
    return seed


def _read(spec, val, path: str, problems: list, names: dict):
    """``val`` read against ``spec``, a ``_Key`` or a table (a block).

    A block adds each unknown key and bad value to ``problems`` and fills
    in the defaults, and its nested blocks, that ``val`` leaves out.  A
    bad value of a key raises :class:`ConfigError`.
    """
    if isinstance(spec, dict):
        if not isinstance(val, dict):
            problems.append(f"{path}: expected an object, got {val!r}")
            val = {}
        path += "." if path else ""
        problems += [f"{path}{key}: unknown key" for key in val
                     if key not in spec]
        values = {}
        for key, sub in spec.items():
            try:
                if key in val or isinstance(sub, dict):
                    values[key] = _read(sub, val.get(key, {}), path + key,
                                        problems, names)
                elif sub.default is not ...:
                    values[key] = sub.default.format_map(names) \
                        if isinstance(sub.default, str) else sub.default
            except ConfigError as exc:
                problems.append(str(exc))
        return _Settings(path, values, val)
    kind, bound, default = spec
    if val is None and default is None:
        return None
    if kind in ("list", "sizes"):
        if not isinstance(val, list) or not val:
            raise ConfigError(f"{path}: expected a non-empty list, "
                              f"got {val!r}")
        items = tuple(_read(bound, item, f"{path}[{i}]", problems, names)
                      for i, item in enumerate(val))
        for i, item in enumerate(items):
            if getattr(bound, "kind", None) == "choice" and item in items[:i]:
                raise ConfigError(f"{path}: {item!r} is given twice")
        if kind == "sizes" and any(b <= a for a, b in zip(items, items[1:])):
            raise ConfigError(f"{path}: expected a strictly increasing list, "
                              f"got {val!r}")
        return items
    if kind == "choice" and val not in bound:
        raise ConfigError(f"{path}: expected one of {sorted(bound)}, "
                          f"got {val!r}")
    if kind == "str" and not isinstance(val, str):
        raise ConfigError(f"{path}: expected a string, got {val!r}")
    if kind in ("int", "seed") and type(val) is not int:
        raise ConfigError(f"{path}: expected an integer, got {val!r}")
    # json parses NaN and +-Infinity, and integers of any size; none of
    # them is a usable setting (NaN fails every comparison)
    if kind in ("number", "positive") and (
            type(val) not in (int, float)
            or not abs(val) <= sys.float_info.max):
        raise ConfigError(f"{path}: expected a finite number, got {val!r}")
    if kind == "positive" and not 0.0 < val <= bound:
        raise ConfigError(f"{path}: must lie in (0, {bound:g}], "
                          f"got {float(val)!r}")
    if kind in ("number", "int") and bound is not None and val < bound:
        raise ConfigError(f"{path}: must be >= {bound}, got {val!r}")
    if kind == "seed":
        return _seed(val, path)
    return float(val) if kind in ("number", "positive") else val


def read_config(raw) -> _Settings:
    """The parsed JSON config ``raw`` read against ``_SCHEMA``, then its
    experiment's row of ``_EXPERIMENTS``: frozen settings, or one
    :class:`ConfigError` naming every fault the failing stage finds."""
    if not isinstance(raw, dict):
        raise ConfigError("top level must be an object")
    problems, exp = [], raw.get("experiment")
    _, trainers, populations, reads = _EXPERIMENTS.get(
        str(exp), (None, _TRAINERS, _POPULATIONS, dict.fromkeys(_SCHEMA)))
    names = {"experiment": exp, "id": raw.get("id", exp),
             "kind": next(iter(trainers or _TRAINERS))}
    cfg = _read(_SCHEMA, raw, "", problems, names)
    if problems:
        raise ConfigError("; ".join(problems))
    unread = [f"{key}: {exp} does not read this block" for key in _SCHEMA
              if key in cfg and key not in {*reads, *_TOP}]
    if "gibbs" in cfg and "gibbs" in reads and cfg.trainer.kind in _GRIDLESS:
        unread.append(f"gibbs: kind {cfg.trainer.kind!r} does not read "
                      "this block")
    unread += [f"{block}.{k}: {exp} does not read this key"
               for block, keys in reads.items() if keys is not None
               for k in sorted(getattr(cfg, block)._given - {*keys})]
    for block, key, table in (("trainer", "kind", trainers),
                              ("population", "name", populations),
                              ("model", "variant", _MODELS)):
        b = getattr(cfg, block)
        # a selector left out is the experiment's only value, if it has one
        value = vars(b).get(key, [*table][0] if len(table) == 1 else None)
        if key in b and value not in table:
            raise ConfigError(f"{block}.{key}: {exp} takes "
                              f"{sorted(table) or 'none'}, got {value!r}")
        if block in reads and value is not None:
            unread += [f"{block}.{k}: {key} {value!r} does not read this key"
                       for k in sorted(b._given - {key, *table[value]})]
    if unread:
        raise ConfigError("; ".join(unread))
    return cfg


def _settings(cfg) -> _Settings:
    """The builders take read settings, or a raw config dict to read."""
    return cfg if isinstance(cfg, _Settings) else read_config(cfg)


# ---------------------------------------------------------------------------
# block builders

_PARAM_LOSSES = {"mean_squared": losses.mean_squared_param_loss,
                 "linear_regression": losses.linear_regression_param_loss,
                 "zero": losses.zero_param_loss}
# each model.variant, population.name and trainer.kind: the specs of the
# keys it reads, which _SCHEMA's selector blocks gather
_MODELS = {
    "nn": {"activation": _Key("choice", tuple(losses._ACTIVATIONS), "tanh"),
           "outer": _Key("choice", tuple(losses._OUTER), "quadratic")},
    "expected_param": {
        "param_loss": _Key("choice", tuple(_PARAM_LOSSES), "mean_squared")}}
_POPULATIONS = {
    "gaussian": {"mu": _Key("number", default=0.0),
                 "sigma": _Key("positive", math.inf)},
    "noiseless_line": {"slope": _Key("number"),
                       "x_sigma": _Key("positive", math.inf, 1.0)},
    "discrete": {"points": _Key("list", {"x": _Key("list", _Key("number"), ()),
                                         "y": _Key("number")}),
                 "probs": _Key("list", _Key("number"))}}
_TRAINERS = {
    "gibbs_grid": {"damping": _Key("positive", 1.0, 1.0),
                   "tol": _Key("positive", math.inf, 1e-10),
                   "max_iter": _Key("int", 1, 500)},
    "explicit_gaussian_mean": {"sigma_tilde": _Key("number", 1e-12, 1.0)},
    "mfld": {"n_particles": _Key("int", 1, 2048),
             "step_size": _Key("positive", math.inf, 1e-3),
             "n_steps": _Key("int", 1, 2000)}}
_GRIDLESS = ("explicit_gaussian_mean",)  # kinds that read no gibbs block


def build_model(cfg):
    m = _settings(cfg).model
    if m.variant == "nn":
        return losses.NNLoss(m.activation, m.outer)
    return _PARAM_LOSSES[m.param_loss]()


def build_population(cfg):
    p = _settings(cfg).population
    if p.name == "gaussian":
        return genbench.GaussianScalarPopulation(p.mu, p.sigma)
    if p.name == "noiseless_line":
        return genbench.NoiselessLinePopulation(p.slope, p.x_sigma)
    points = [measures.DataPoint(item.x, item.y) for item in p.points]
    for i, point in enumerate(points):
        if point.x.shape != points[0].x.shape:
            raise ConfigError(f"population.points[{i}]: x differs in length "
                              "from points[0].x")
    try:
        return genbench.DiscretePopulation(points, p.probs)
    except ValueError as exc:
        raise ConfigError(f"population.probs: {exc}") from exc


def build_gibbs_config(cfg, theta_dim: int) -> gibbs.GibbsConfig:
    g = _settings(cfg).gibbs
    try:
        reg = gibbs.Regularizer(kappa=g.kappa, q=g.q) if g.q is not None \
            else gibbs.default_regularizer(g.p, g.kappa)
        return gibbs.GibbsConfig(beta=g.beta, sigma=g.sigma, p=g.p,
                                 regularizer=reg, theta_dim=theta_dim,
                                 nodes_per_axis=g.nodes, radius=g.radius)
    except ValueError as exc:
        raise ConfigError(f"gibbs: {exc}") from exc


def _gibbs_config(cfg: _Settings, model, pop) -> gibbs.GibbsConfig:
    """The ``gibbs`` block for ``model`` on ``pop``'s data, checked for its
    growth condition.  The parameter dimension is the model's: a network's
    ``theta = (a, w)`` has one w per feature, and the shipped parametric
    losses read ``theta[:, 0]`` only."""
    if model.variant == "nn" and pop.feature_dim == 0:
        # every prediction would be E_m[a] * act(0), blind to the data
        raise ConfigError("model.variant: a network needs data with at least "
                          "one feature, and the population has none")
    gcfg = build_gibbs_config(
        cfg, 1 + pop.feature_dim if model.variant == "nn" else 1)
    try:
        gcfg.regularizer.validate_growth(model, gcfg.p)
    except ValueError as exc:
        raise ConfigError(f"gibbs: {exc}") from exc
    return gcfg


def _setup(cfg: _Settings):
    """``cfg``'s model, population, gibbs config (None for the closed-form
    trainer, which has no grid) and trainer."""
    model, pop = build_model(cfg), build_population(cfg)
    if getattr(model, "name", None) == "linear_regression" \
            and pop.feature_dim == 0:
        raise ConfigError("model.param_loss: linear_regression reads a "
                          "feature x, and the population has none")
    gcfg = None if cfg.trainer.kind in _GRIDLESS \
        else _gibbs_config(cfg, model, pop)
    return model, pop, gcfg, build_trainer(cfg, model, gcfg)


def build_trainer(cfg, model, gcfg: Optional[gibbs.GibbsConfig]):
    t = _settings(cfg).trainer
    if t.kind == "explicit_gaussian_mean":
        return genbench.ExplicitGaussianMeanTrainer(t.sigma_tilde)
    if t.kind == "mfld":
        return genbench.MFLDTrainer(model, gcfg, n_particles=t.n_particles,
                                    step_size=t.step_size, n_steps=t.n_steps)
    return genbench.GridGibbsTrainer(model, gcfg, damping=t.damping,
                                     tol=t.tol, max_iter=t.max_iter)


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def emit_csv(rows, path: Path) -> None:
    """Write gen-sweep schema rows (header always present).

    Refuses non-finite numbers, naming the file and the field.
    """
    lines = [",".join(CSV_FIELDS)]
    for row in rows:
        unknown = set(row) - set(CSV_FIELDS)
        if unknown:
            raise ValueError(f"unknown CSV fields: {sorted(unknown)}")
        for f in CSV_FIELDS:
            value = row.get(f)
            if (isinstance(value, (float, np.floating))
                    and not math.isfinite(value)):
                raise ValueError(
                    f"{path}: non-finite value {float(value)!r} in field {f!r}")
        lines.append(",".join(_fmt(row.get(f)) for f in CSV_FIELDS))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _row(exp_id, route, n, replicates, seed, estimate=None, stderr=None,
         oracle=None, bound=None, holds=None):
    return {"experiment_id": exp_id, "route": route, "n": n,
            "replicates": replicates, "seed": seed, "estimate": estimate,
            "stderr": stderr, "oracle": oracle, "bound": bound,
            "holds": holds}


def _est_row(exp_id, est: genbench.GenEstimate, oracle=None, bound=None,
             holds=None):
    return _row(exp_id, est.route, est.n, est.replicates, est.seed,
                est.value, est.stderr, oracle, bound, holds)


def _write_json(payload, path: Path) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


# ---------------------------------------------------------------------------
# experiments


def _run_gaussian_oracle(cfg, exp_id, seed, out_dir):
    trainer, pop = build_trainer(cfg, None, None), cfg.population
    # the oracle's model: the population's spread defaults to the trainer's
    model, pop = genbench.gaussian_mean_setup(
        pop.mu, pop.sigma if "sigma" in pop else trainer.sigma_tilde)
    rows = []
    for n in cfg.sweep.n:
        oracle = genbench.gaussian_mean_oracle(pop.sigma, n)
        ests = genbench.estimate_routes(trainer, pop, model, n,
                                        cfg.sweep.replicates, seed,
                                        ["direct", "resampled"])
        for est in ests.values():
            holds = abs(est.value - oracle) <= 3.0 * est.stderr
            rows.append(_est_row(exp_id, est, oracle=oracle, holds=holds))
    return rows, None


def _run_gen_sweep(cfg, exp_id, seed, out_dir):
    model, pop, _, trainer = _setup(cfg)
    # the explicit trainer's gap is known for mean_squared on a Gaussian
    exact = cfg.trainer.kind == "explicit_gaussian_mean" \
        and isinstance(pop, genbench.GaussianScalarPopulation) \
        and getattr(model, "name", None) == "mean_squared"
    rows = []
    for n in cfg.sweep.n:
        oracle = genbench.gaussian_mean_oracle(pop.sigma, n) if exact \
            else None
        ests = genbench.estimate_routes(trainer, pop, model, n,
                                        cfg.sweep.replicates, seed, cfg.routes)
        for route in cfg.routes:
            rows.append(_est_row(exp_id, ests[route],
                                 oracle=None if route == "lge" else oracle))
    return rows, None


def _run_bounds(cfg, exp_id, seed, out_dir):
    model, pop, gcfg, trainer = _setup(cfg)
    replicates = cfg.sweep.replicates
    if "schedule" in cfg:
        mode = cfg.schedule.mode
        m_bar = genbench.gaussian_bump_on_grid(
            gcfg, cfg.schedule.m_bar.center, cfg.schedule.m_bar.scale)
    elif cfg.sweep.n[0] < 2:  # lge_upper resamples two atoms
        raise ConfigError(f"sweep.n: bounds needs n >= 2, "
                          f"got {cfg.sweep.n[0]}")
    rows = []
    for n in cfg.sweep.n:
        if "schedule" not in cfg:
            consts = genbench.gibbs_bound_constants(model, gcfg, pop, n)
            out = genbench.estimate_routes(trainer, pop, model, n,
                                           replicates, seed,
                                           ["convex_lower", "lge_upper"])
            wge, lower, holds_c = out["convex_lower"]
            holds_w = abs(wge.value) <= consts.wge_bound + 2.0 * wge.stderr
            rows.append(_est_row(exp_id, wge, bound=consts.wge_bound,
                                 holds=holds_w))
            rep = out["lge_upper"]
            lge_est = rep.lge_estimate
            holds_l = lge_est.value <= consts.lge_bound + 2.0 * lge_est.stderr
            rows.append(_est_row(exp_id, lge_est, bound=consts.lge_bound,
                                 holds=holds_l))
            rows.append(_row(exp_id, "lge_mc_bound", n, replicates, seed,
                             lge_est.value, lge_est.stderr,
                             bound=rep.bound_with_margin, holds=rep.holds))
            rows.append(_row(exp_id, "convex_lower", n, replicates, seed,
                             wge.value, wge.stderr, bound=lower.value,
                             holds=holds_c))
        else:
            rep = genbench.population_risk_bound(
                trainer, pop, model, m_bar, n, mode, replicates, seed)
            rows.append(_row(exp_id, f"risk_bound_{mode}", n, replicates,
                             seed, rep.empirical.value, rep.empirical.stderr,
                             bound=rep.risk_bound, holds=rep.holds))
    return rows, None


def _one_dataset(cfg, pop, seed):
    """``(n, nu)``: the one dataset; more sizes or replicates are errors."""
    n, what = cfg.sweep.n, f"{cfg.experiment} trains on one dataset"
    bad = [f"sweep.n: {what}, got {len(n)} sizes"] if len(n) > 1 else []
    if "replicates" in cfg.sweep:
        bad.append(f"sweep.replicates: {what}, not replicates")
    if bad:
        raise ConfigError("; ".join(bad))
    xs, ys = pop.sample(genbench._rng(seed, 0, 0), n[0])
    return n[0], measures.empirical_from_arrays(xs, ys)


def _run_mfld_vs_grid(cfg, exp_id, seed, out_dir):
    model, pop, gcfg, _ = _setup(cfg)
    t, n_particles = cfg.trainer, cfg.trainer.n_particles
    if n_particles < 2:  # the standard errors divide by n_particles - 1
        raise ConfigError(f"trainer.n_particles: must be >= 2, "
                          f"got {n_particles}")
    n, nu = _one_dataset(cfg, pop, seed)
    sol = gibbs.solve_gibbs(model, nu, gcfg, damping=t.damping, tol=t.tol,
                            max_iter=t.max_iter)
    part = gibbs.mfld_sample(model, nu, gcfg, seed=seed,
                             n_particles=n_particles, step_size=t.step_size,
                             n_steps=t.n_steps)

    rows = []
    grid_mean = sol.measure.mean()
    pts = part.points
    se_mean = pts.std(axis=0, ddof=1) / math.sqrt(n_particles)
    for d in range(pts.shape[1]):
        est, oracle = float(pts[:, d].mean()), float(grid_mean[d])
        holds = abs(est - oracle) <= 3.0 * se_mean[d]
        rows.append(_row(exp_id, f"mfld_mean_{d}", n, n_particles, seed,
                         est, float(se_mean[d]), oracle=oracle, holds=holds))
    nsq = np.einsum("ij,ij->i", pts, pts)
    se2 = float(nsq.std(ddof=1) / math.sqrt(n_particles))
    est2, oracle2 = float(nsq.mean()), sol.measure.moment(2)
    rows.append(_row(exp_id, "mfld_moment2", n, n_particles, seed, est2,
                     se2, oracle=oracle2,
                     holds=abs(est2 - oracle2) <= 3.0 * se2))
    return rows, None


def _run_gibbs_solve(cfg, exp_id, seed, out_dir):
    model, pop, gcfg, trainer = _setup(cfg)
    n, nu = _one_dataset(cfg, pop, seed)
    sol = trainer.solve(nu)
    mom = sol.measure.moment(gcfg.p)
    mom_bound = gibbs.prior_moment_bound(model, nu, gcfg)
    payload = {
        "experiment_id": exp_id,
        "n": n,
        "seed": seed,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "objective": gibbs.objective(model, sol.measure, nu, gcfg),
        "empirical_risk": losses.risk(model, sol.measure, nu),
        "p_moment": mom,
        "p_moment_bound": mom_bound,
        "holds": bool(mom <= mom_bound + 1e-6),
    }
    path = out_dir / cfg.output.json
    _write_json(payload, path)
    print(f"[{exp_id}] iterations={sol.iterations} "
          f"residual={sol.residual:.3e} -> {path}")
    return None, (0 if payload["holds"] else 2)


# ---------------------------------------------------------------------------
# verification suite


def _verify_checks(seed: int):
    """Deterministic invariant suite; returns check dicts."""
    checks = []

    def add(name, residual, tolerance):
        residual = float(residual)
        checks.append({"check_name": name,
                       "status": "pass" if residual <= tolerance else "fail",
                       "residual": residual, "tolerance": float(tolerance)})

    ep = losses.mean_squared_param_loss()
    cfg1 = gibbs.GibbsConfig(beta=1.0, sigma=1.0, p=4, theta_dim=1)
    trainer = genbench.GridGibbsTrainer(ep, cfg1, tol=1e-12)

    # exhaustive resampling identity on a two-point space
    space = [(measures.DataPoint(np.zeros(0), 0.0), 0.5),
             (measures.DataPoint(np.zeros(0), 1.0), 0.5)]
    w1, w2 = genbench.enumerate_exact_gen(trainer, space, ep, 2)
    add("enumeration_identity", abs(w1 - w2), 1e-12)

    # first-order expansion of the loss in the measure: per model, a pair
    # of bumps on its grid, then a sample point with q features
    rng = genbench._rng(seed, 0, 10)
    grid2, grid1 = measures.uniform_grid(2.0, 25, 2), \
        measures.uniform_grid(2.0, 129, 1)

    def bump(grid, c, s):
        dens = np.exp(-np.sum((grid[0] - c) ** 2, axis=1) / (2 * s * s))
        return measures.GridMeasure(*grid, dens, normalize=True)

    def pair2():
        return [bump(grid2, rng.uniform(-0.8, 0.8, size=2),
                     rng.uniform(0.3, 0.8)) for _ in range(2)]

    def pair1():
        cs, ss = rng.uniform(-1, 1, 2), rng.uniform(0.2, 0.6, 2)
        return [bump(grid1, c, s) for c, s in zip(cs, ss)]

    for model, pair, q, blends, tol, label in (
            (losses.NNLoss("tanh", "quadratic"), pair2, 1, 4, 1e-10,
             "derivative_identity_quadratic_4node"),
            (losses.NNLoss("tanh", "logcosh"), pair2, 1, 64, 1e-6,
             "derivative_identity_logcosh"),
            (ep, pair1, 0, 64, 1e-6, "derivative_identity_param")):
        worst = 0.0
        for _ in range(10):
            m0, m1 = pair()
            z = measures.DataPoint(rng.standard_normal(q),
                                   float(rng.standard_normal()))
            worst = max(worst, funcderiv.check_linear_derivative(
                lambda mm: losses.loss_value(model, mm, z),
                lambda mm: losses.loss_dm(model, mm, z, m0.nodes),
                m0, m1, lambda_nodes=blends))
        add(label, worst, tol)

    # fixed-point properties
    model_nn = losses.NNLoss("tanh", "quadratic")
    cfg2 = gibbs.GibbsConfig(beta=0.7, sigma=1.0, p=4, theta_dim=2,
                             nodes_per_axis=49)
    rng2 = genbench._rng(seed, 0, 11)
    xs = rng2.standard_normal((8, 1))
    ys = np.tanh(1.3 * xs[:, 0]) + 0.1 * rng2.standard_normal(8)
    nu_nn = measures.empirical_from_arrays(xs, ys)
    sol_a = gibbs.solve_gibbs(model_nn, nu_nn, cfg2, damping=0.5, tol=1e-9)
    add("gibbs_fixed_point_residual", sol_a.residual, 1e-8)
    sol_b = gibbs.solve_gibbs(model_nn, nu_nn, cfg2, damping=0.5, tol=1e-9,
                              init=cfg2.priors().gamma_tilt_p)
    add("gibbs_two_inits",
        np.max(np.abs(sol_a.measure.density - sol_b.measure.density)), 1e-6)

    xs1, ys1 = genbench.GaussianScalarPopulation(0.0, 1.0).sample(
        genbench._rng(seed, 0, 12), 8)
    nu1 = measures.empirical_from_arrays(xs1, ys1)
    sol1 = gibbs.solve_gibbs(ep, nu1, cfg1)
    add("gibbs_param_one_step", abs(sol1.iterations - 1), 0.5)
    add("prior_moment_bound",
        max(0.0, sol1.measure.moment(cfg1.p)
            - gibbs.prior_moment_bound(ep, nu1, cfg1)), 1e-6)

    # trained-measure derivative vs finite differences + covariance form
    z0 = nu1.point(0)
    dm = funcderiv.dm_dnu(ep, nu1, cfg1, z0)
    fd = funcderiv.finite_diff_dm_dnu(ep, nu1, cfg1, z0, eps=1e-4)
    add("dm_dnu_finite_diff",
        np.abs(dm.node_weights - fd.node_weights).sum()
        / np.abs(fd.node_weights).sum(), 1e-3)

    td = funcderiv.TrainedDerivatives(ep, nu1, cfg1)
    m_star = td.measure
    v = td.s_derivative(z0).values
    w = m_star.node_weights
    tau = cfg1.temperature
    worst = 0.0
    for k in range(20):
        f = np.cos(m_star.nodes[:, 0] * (0.5 + 0.25 * k) + 0.1 * k)
        lhs = float(f @ dm.node_weights)
        cov = float((f * v) @ w) - float(f @ w) * float(v @ w)
        worst = max(worst, abs(lhs + tau * cov))
    add("dm_dnu_covariance", worst, 1e-8)

    # particle sampler against an exactly known stationary law
    reg_ou = gibbs.Regularizer(kappa=1.0, q=1)
    cfg_ou = gibbs.GibbsConfig(beta=1.0, sigma=1.0, p=2, regularizer=reg_ou,
                               theta_dim=1, radius=6.0)
    zero = losses.zero_param_loss()
    nu_any = measures.empirical_from_arrays(np.zeros((2, 0)),
                                            np.array([0.0, 1.0]))
    part = gibbs.mfld_sample(zero, nu_any, cfg_ou, n_particles=8192,
                             step_size=5e-3, n_steps=2000,
                             seed=int(genbench._rng(seed, 0, 13)
                                      .integers(2 ** 63)))
    samp = part.points[:, 0]
    target = cfg_ou.sigma ** 2 / 2.0
    var_hat = float(samp.var(ddof=1))
    se_var = var_hat * math.sqrt(2.0 / (samp.size - 1))
    add("ou_stationary_variance", abs(var_hat - target), 5.0 * se_var)

    # quick closed-form oracle reproduction
    model_g, pop_g = genbench.gaussian_mean_setup(0.0, 1.0)
    tr_g = genbench.ExplicitGaussianMeanTrainer(1.0)
    est = genbench.wge_resampled(tr_g, pop_g, model_g, 10, 2000, seed)
    add("gaussian_oracle_quick",
        abs(est.value - genbench.gaussian_mean_oracle(1.0, 10)),
        5.0 * est.stderr)
    return checks


def _run_verify(cfg, exp_id, seed, out_dir):
    checks = _verify_checks(seed)
    path = out_dir / cfg.output.json
    _write_json(checks, path)
    n_fail = sum(c["status"] == "fail" for c in checks)
    print(f"[{exp_id}] {len(checks) - n_fail}/{len(checks)} checks passed "
          f"-> {path}")
    for c in checks:
        if c["status"] == "fail":
            print(f"  FAIL {c['check_name']}: residual {c['residual']:.3e} "
                  f"> tolerance {c['tolerance']:.3e}")
    return None, (0 if n_fail == 0 else 2)


# ---------------------------------------------------------------------------
# config table

# each experiment's runner, trainer kinds and populations (each mapped to
# the specs of the keys it reads) and blocks besides _TOP, each mapped to
# the keys it reads (None: all); any other block or key is a config error
_TOP = ("experiment", "id")
_BLOCKS = dict.fromkeys(("model", "population", "gibbs", "trainer", "sweep"))
_CSV, _JSON = {"output": ("dir", "csv")}, {"output": ("dir", "json")}
_EXPERIMENTS = {
    "gaussian-oracle": (_run_gaussian_oracle,
                        {"explicit_gaussian_mean":
                         _TRAINERS["explicit_gaussian_mean"]},
                        {"gaussian": _POPULATIONS["gaussian"]},
                        dict.fromkeys(("population", "trainer", "sweep"))
                        | _CSV),
    "gen-sweep": (_run_gen_sweep, _TRAINERS, _POPULATIONS,
                  _BLOCKS | {"routes": None} | _CSV),
    "bounds": (_run_bounds, {"gibbs_grid": _TRAINERS["gibbs_grid"]},
               _POPULATIONS, _BLOCKS | {"schedule": None} | _CSV),
    "mfld-vs-grid": (_run_mfld_vs_grid,  # its grid solve reads grid keys
                     {"mfld": _TRAINERS["mfld"] | _TRAINERS["gibbs_grid"]},
                     _POPULATIONS, _BLOCKS | _CSV),
    "gibbs-solve": (_run_gibbs_solve, {"gibbs_grid": _TRAINERS["gibbs_grid"]},
                    _POPULATIONS, _BLOCKS | _JSON),
    "verify": (_run_verify, {}, {}, {"sweep": ("seed",)} | _JSON),
}

# Every key a config may hold: its kind, bound and default; a nested table
# is a block.  The bound is the minimum of a number or int, the maximum of
# a positive (a number in (0, bound]), the values of a choice and the spec
# of each item of a list or sizes (a key, or a table for items that are
# objects).  Both are non-empty, the items of sizes strictly increase and
# a list holds each choice once.  A seed is an int in [0, 2**64).  A key
# with no default is required where it is read; a None default also takes
# null; a str default may name {experiment}, {id} and {kind}, the
# experiment's first trainer kind.  A selector block holds its selector, a
# choice of the values of its table, and every key that a value reads.


def _selector(key: str, table: dict, default=...) -> dict:
    return {key: _Key("choice", tuple(table), default),
            **{k: spec for keys in table.values() for k, spec in keys.items()}}


_SCHEMA = {
    "experiment": _Key("choice", tuple(_EXPERIMENTS)),
    "id": _Key("str", default="{experiment}"),
    "routes": _Key("list", _Key("choice", ("direct", "resampled",
                                           "representation", "lge")),
                   ("direct", "resampled")),
    "model": _selector("variant", _MODELS),
    "population": _selector("name", _POPULATIONS),
    "gibbs": {"beta": _Key("number"),
              "sigma": _Key("number", default=1.0),
              "p": _Key("number", default=4.0),
              "kappa": _Key("number", default=1.0),
              "q": _Key("int", 1, None),
              "radius": _Key("number", 1e-12, None),
              "nodes": _Key("int", 8, 129)},
    "trainer": _selector("kind", _TRAINERS, "{kind}"),
    "sweep": {"n": _Key("sizes", _Key("int", 1)),
              "replicates": _Key("int", 2),
              "seed": _Key("seed")},
    "schedule": {"mode": _Key("choice", tuple(genbench._MODE_EXPONENT)),
                 "m_bar": {"center": _Key("number"),
                           "scale": _Key("number", 1e-12)}},
    "output": {"dir": _Key("str", default="."),
               "csv": _Key("str", default="{id}.csv"),
               "json": _Key("str", default="{id}.json")},
}


# ---------------------------------------------------------------------------
# entry points


def run(config_path, seed: Optional[int] = None,
        out: Optional[str] = None) -> int:
    """Execute one experiment config; returns the process exit code.

    A runtime failure prints ``error: [<config id>] <message>`` and
    returns 1.
    """
    path = Path(config_path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        print(f"config error: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"config error: {path}:{exc.lineno}:{exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 1
    return _execute(raw, seed, out)


def verify(seed: int = 0, out: str = ".") -> int:
    """Run the built-in invariant suite; returns the process exit code."""
    return _execute({"experiment": "verify",
                     "output": {"json": "verify_report.json"}}, seed, out)


def _execute(raw, seed: Optional[int], out: Optional[str]) -> int:
    """Read the config ``raw`` once and run its experiment."""
    exp_id = None
    try:
        cfg = read_config(raw)
        experiment, exp_id = cfg.experiment, cfg.id
        if seed is None:
            seed = cfg.sweep.seed if "seed" in cfg.sweep \
                or experiment != "verify" else 0
        seed = _seed(seed, "seed")
        out_dir = Path(out if out is not None else cfg.output.dir)
        rows, code = _EXPERIMENTS[experiment][0](cfg, exp_id, seed, out_dir)
        if rows is None:
            return code
        csv_path = out_dir / cfg.output.csv
        emit_csv(rows, csv_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: [{exp_id}] {exc}", file=sys.stderr)
        return 1
    violated = any(r.get("holds") is False for r in rows)
    print(f"[{exp_id}] {len(rows)} rows -> {csv_path}"
          + (" (bound violation)" if violated else ""))
    return 2 if violated else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gibbslab",
        description="Generalization-error experiments for measure-valued "
                    "training maps")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_ver = sub.add_parser("verify", help="run the built-in invariant suite")
    for p in (p_run, p_ver):
        p.add_argument("--seed", type=int, default=None,
                       help="the seed; run defaults to sweep.seed")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        if args.seed is not None:
            _seed(args.seed, "--seed")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.command == "run":
        return run(args.config, seed=args.seed, out=args.out)
    return verify(seed=args.seed or 0, out=args.out or ".")


if __name__ == "__main__":
    sys.exit(main())
