"""Experiment runner and verification driver.

Usage::

    gibbslab run <config.json> [--seed S] [--out DIR]
    gibbslab verify [--seed S] [--out DIR]

A config file is a JSON object naming one experiment (``verify``,
``gibbs-solve``, ``gen-sweep``, ``bounds``, ``mfld-vs-grid``,
``gaussian-oracle``) together with model / gibbs / population /
trainer / sweep blocks.  Results are written once, as CSV (fixed
ten-column schema) and/or JSON; floats carry 17 significant digits, so
re-running a config reproduces its outputs byte for byte.  A
non-finite number in a JSON result is an error, never written.

Exit codes: 0 success, 2 when any reported ``holds`` field is false,
1 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import funcderiv, genbench, gibbs, losses, measures

CSV_FIELDS = ("experiment_id", "route", "n", "replicates", "seed",
              "estimate", "stderr", "oracle", "bound", "holds")

class ConfigError(Exception):
    """Malformed configuration; the message carries the field path."""


# ---------------------------------------------------------------------------
# config access helpers

_REQUIRED = object()


def _get(cfg: dict, path: str, default=_REQUIRED):
    node = cfg
    walked = []
    for key in path.split("."):
        walked.append(key)
        if not isinstance(node, dict):
            raise ConfigError(f"{'.'.join(walked[:-1])}: expected an object")
        if key not in node:
            if default is _REQUIRED:
                raise ConfigError(f"{'.'.join(walked)}: missing required field")
            return default
        node = node[key]
    return node


def _get_number(cfg, path, default=_REQUIRED, minimum=None):
    val = _get(cfg, path, default)
    # json parses NaN and +-Infinity; none is a usable setting
    if not isinstance(val, (int, float)) or isinstance(val, bool) \
            or not math.isfinite(val):
        raise ConfigError(f"{path}: expected a finite number, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {val!r}")
    return float(val)


def _get_int(cfg, path, default=_REQUIRED, minimum=None):
    val = _get(cfg, path, default)
    if not isinstance(val, int) or isinstance(val, bool):
        raise ConfigError(f"{path}: expected an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {val!r}")
    return val


def _get_positive(cfg, path, default=_REQUIRED, maximum=math.inf):
    """A number in ``(0, maximum]``."""
    val = _get_number(cfg, path, default)
    if not 0.0 < val <= maximum:
        raise ConfigError(f"{path}: must lie in (0, {maximum:g}], got {val!r}")
    return val


def _seed(seed: int, path: str) -> int:
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"{path}: expected 0 <= seed < 2**64, got {seed}")
    return seed


def _get_choice(cfg, path, choices, default=_REQUIRED):
    val = _get(cfg, path, default)
    if val not in choices:
        raise ConfigError(f"{path}: expected one of {sorted(choices)}, "
                          f"got {val!r}")
    return val


# ---------------------------------------------------------------------------
# block builders


def build_model(cfg: dict):
    variant = _get_choice(cfg, "model.variant", {"expected_param", "nn"})
    if variant == "nn":
        act = _get_choice(cfg, "model.activation",
                          {"relu", "tanh", "sigmoid", "heaviside"}, "tanh")
        outer = _get_choice(cfg, "model.outer",
                            {"quadratic", "logcosh", "product_margin"},
                            "quadratic")
        return losses.NNLoss(act, outer)
    name = _get_choice(cfg, "model.param_loss",
                       {"mean_squared", "linear_regression", "zero"},
                       "mean_squared")
    factory = {"mean_squared": losses.mean_squared_param_loss,
               "linear_regression": losses.linear_regression_param_loss,
               "zero": losses.zero_param_loss}[name]
    return factory()


def build_population(cfg: dict):
    name = _get_choice(cfg, "population.name",
                       {"gaussian", "noiseless_line", "discrete"})
    if name == "gaussian":
        return genbench.GaussianScalarPopulation(
            _get_number(cfg, "population.mu", 0.0),
            _get_number(cfg, "population.sigma"))
    if name == "noiseless_line":
        return genbench.NoiselessLinePopulation(
            _get_number(cfg, "population.slope"),
            _get_number(cfg, "population.x_sigma", 1.0))
    pts = _get(cfg, "population.points")
    probs = _get(cfg, "population.probs")
    if not isinstance(pts, list) or not isinstance(probs, list):
        raise ConfigError("population.points / population.probs: "
                          "expected arrays")
    points = []
    for i, item in enumerate(pts):
        try:
            if not isinstance(item, dict):
                raise TypeError(f"expected an object, got {item!r}")
            x = np.asarray(item.get("x", []), dtype=float)
            points.append(measures.DataPoint(x, float(item["y"])))
            if points[-1].x.shape != points[0].x.shape:
                raise ValueError("x differs in length from points[0].x")
        except (TypeError, KeyError, ValueError) as exc:
            raise ConfigError(f"population.points[{i}]: {exc}") from exc
    try:
        return genbench.DiscretePopulation(points, probs)
    except ValueError as exc:
        raise ConfigError(f"population.probs: {exc}") from exc


def build_gibbs_config(cfg: dict, theta_dim: int) -> gibbs.GibbsConfig:
    beta = _get_number(cfg, "gibbs.beta")
    sigma = _get_number(cfg, "gibbs.sigma", 1.0)
    p = _get_number(cfg, "gibbs.p", 4.0)
    kappa = _get_number(cfg, "gibbs.kappa", 1.0)
    q = None if _get(cfg, "gibbs.q", None) is None \
        else _get_int(cfg, "gibbs.q", minimum=1)
    radius = None if _get(cfg, "gibbs.radius", None) is None \
        else _get_number(cfg, "gibbs.radius", minimum=1e-12)
    nodes = _get_int(cfg, "gibbs.nodes", 129, minimum=8)
    try:
        reg = gibbs.Regularizer(kappa=kappa, q=q) if q is not None \
            else gibbs.default_regularizer(p, kappa)
        return gibbs.GibbsConfig(beta=beta, sigma=sigma, p=p, regularizer=reg,
                                 theta_dim=theta_dim, nodes_per_axis=nodes,
                                 radius=radius)
    except ValueError as exc:
        raise ConfigError(f"gibbs: {exc}") from exc


def _gibbs_config(cfg: dict, model, pop) -> gibbs.GibbsConfig:
    """The ``gibbs`` block for ``model`` on ``pop``'s data, checked for its
    growth condition.  A network's ``theta = (a, w)``: one w per feature."""
    if model.variant == "nn" and pop.feature_dim == 0:
        # every prediction would be E_m[a] * act(0), blind to the data
        raise ConfigError("model.variant: a network needs data with at least "
                          "one feature, and the population has none")
    dim = 1 + pop.feature_dim if model.variant == "nn" else 1
    got = _get_int(cfg, "gibbs.theta_dim", dim, minimum=1)
    if model.variant == "nn" and got != dim:
        raise ConfigError(f"gibbs.theta_dim: a network on {pop.feature_dim}-"
                          f"feature data has theta_dim {dim}, got {got}")
    gcfg = build_gibbs_config(cfg, got)
    try:
        gcfg.regularizer.validate_growth(model, gcfg.p)
    except ValueError as exc:
        raise ConfigError(f"gibbs: {exc}") from exc
    return gcfg


def _particle_settings(cfg: dict, min_particles: int = 1) -> dict:
    """``n_particles``, ``step_size`` and ``n_steps`` of the particle
    sampler, with the defaults every runner shares."""
    return {"n_particles": _get_int(cfg, "trainer.n_particles", 2048,
                                    minimum=min_particles),
            "step_size": _get_positive(cfg, "trainer.step_size", 1e-3),
            "n_steps": _get_int(cfg, "trainer.n_steps", 2000, minimum=1)}


def _solver_settings(cfg: dict) -> dict:
    """``damping``, ``tol`` and ``max_iter`` of the grid solve, with the
    defaults every runner shares."""
    return {"damping": _get_positive(cfg, "trainer.damping", 1.0,
                                     maximum=1.0),
            "tol": _get_positive(cfg, "trainer.tol", 1e-10),
            "max_iter": _get_int(cfg, "trainer.max_iter", 500, minimum=1)}


def build_trainer(cfg: dict, model, gcfg: Optional[gibbs.GibbsConfig]):
    kind = _get_choice(cfg, "trainer.kind",
                       {"gibbs_grid", "explicit_gaussian_mean", "constant",
                        "mfld"}, "gibbs_grid")
    if kind == "explicit_gaussian_mean":
        return genbench.ExplicitGaussianMeanTrainer(
            _get_number(cfg, "trainer.sigma_tilde", minimum=1e-12))
    if kind == "constant":
        which = _get_choice(cfg, "trainer.measure", {"prior", "tilt"}, "prior")
        pair = gcfg.priors()
        return genbench.ConstantTrainer(
            pair.gamma_sigma if which == "prior" else pair.gamma_tilt_p)
    if kind == "mfld":
        return genbench.MFLDTrainer(model, gcfg, **_particle_settings(cfg))
    return genbench.GridGibbsTrainer(model, gcfg, **_solver_settings(cfg))


def _sweep(cfg: dict):
    ns = _get(cfg, "sweep.n")
    if (not isinstance(ns, list) or not ns
            or any(not isinstance(n, int) or isinstance(n, bool) or n < 1
                   for n in ns)
            or any(b <= a for a, b in zip(ns, ns[1:]))):
        raise ConfigError("sweep.n: expected a strictly increasing list of "
                          "positive integers")
    replicates = _get_int(cfg, "sweep.replicates", minimum=2)
    seed = _seed(_get_int(cfg, "sweep.seed"), "sweep.seed")
    return ns, replicates, seed


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
    path.write_text(text + "\n")


# ---------------------------------------------------------------------------
# experiments


def _run_gaussian_oracle(cfg, exp_id, seed, out_dir):
    sigma_tilde = _get_number(cfg, "trainer.sigma_tilde", 1.0, minimum=1e-12)
    model, pop = genbench.gaussian_mean_setup(
        _get_number(cfg, "population.mu", 0.0),
        _get_number(cfg, "population.sigma", sigma_tilde))
    trainer = genbench.ExplicitGaussianMeanTrainer(sigma_tilde)
    ns, replicates, _ = _sweep(cfg)
    rows = []
    for n in ns:
        oracle = genbench.gaussian_mean_oracle(sigma_tilde, n)
        ests = genbench.estimate_routes(trainer, pop, model, n, replicates,
                                        seed, ["direct", "resampled"])
        for est in ests.values():
            holds = abs(est.value - oracle) <= 3.0 * est.stderr
            rows.append(_est_row(exp_id, est, oracle=oracle, holds=holds))
    return rows, None


_SWEEP_ROUTES = ("direct", "resampled", "representation", "lge")


def _run_gen_sweep(cfg, exp_id, seed, out_dir):
    model = build_model(cfg)
    pop = build_population(cfg)
    kind = _get(cfg, "trainer.kind", "gibbs_grid")
    gcfg = _gibbs_config(cfg, model, pop) \
        if kind != "explicit_gaussian_mean" else None
    trainer = build_trainer(cfg, model, gcfg)
    routes = _get(cfg, "routes", ["direct", "resampled"])
    if not isinstance(routes, list) or not routes:
        raise ConfigError("routes: expected a non-empty list")
    for r in routes:
        if r not in _SWEEP_ROUTES:
            raise ConfigError(f"routes: unknown route {r!r}")
    ns, replicates, _ = _sweep(cfg)
    rows = []
    for n in ns:
        oracle = genbench.gaussian_mean_oracle(trainer.sigma_tilde, n) \
            if isinstance(trainer, genbench.ExplicitGaussianMeanTrainer) \
            else None
        ests = genbench.estimate_routes(trainer, pop, model, n, replicates,
                                        seed, routes)
        for route in routes:
            rows.append(_est_row(exp_id, ests[route],
                                 oracle=None if route == "lge" else oracle))
    return rows, None


def _run_bounds(cfg, exp_id, seed, out_dir):
    model = build_model(cfg)
    pop = build_population(cfg)
    gcfg = _gibbs_config(cfg, model, pop)
    trainer = build_trainer(cfg, model, gcfg)
    if not isinstance(trainer, genbench.GridGibbsTrainer):
        raise ConfigError("trainer.kind: bounds experiments need the "
                          "gibbs_grid trainer")
    ns, replicates, _ = _sweep(cfg)
    rows = []
    schedule = _get(cfg, "schedule", None)
    for n in ns:
        if schedule is None:
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
            mode = _get_choice(cfg, "schedule.mode",
                               set(genbench._MODE_EXPONENT))
            m_bar = genbench.gaussian_bump_on_grid(
                gcfg, _get_number(cfg, "schedule.m_bar.center"),
                _get_number(cfg, "schedule.m_bar.scale", minimum=1e-12))
            rep = genbench.population_risk_bound(
                trainer, pop, model, m_bar, n, mode, replicates, seed)
            rows.append(_row(exp_id, f"risk_bound_{mode}", n, replicates,
                             seed, rep.empirical.value, rep.empirical.stderr,
                             bound=rep.risk_bound, holds=rep.holds))
    return rows, None


def _run_mfld_vs_grid(cfg, exp_id, seed, out_dir):
    model = build_model(cfg)
    pop = build_population(cfg)
    gcfg = _gibbs_config(cfg, model, pop)
    ns, _, _ = _sweep(cfg)
    n = ns[0]
    # the standard errors divide by n_particles - 1
    particles = _particle_settings(cfg, min_particles=2)
    solver = _solver_settings(cfg)

    xs, ys = pop.sample(genbench._rng(seed, 0, 0), n)
    nu = measures.empirical_from_arrays(xs, ys)
    sol = gibbs.solve_gibbs(model, nu, gcfg, **solver)
    part = gibbs.mfld_sample(model, nu, gcfg, seed=seed, **particles)
    n_particles = particles["n_particles"]

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
    model = build_model(cfg)
    pop = build_population(cfg)
    gcfg = _gibbs_config(cfg, model, pop)
    trainer = build_trainer(cfg, model, gcfg)
    if not isinstance(trainer, genbench.GridGibbsTrainer):
        raise ConfigError("trainer.kind: gibbs-solve needs the gibbs_grid "
                          "trainer")
    ns, _, _ = _sweep(cfg)
    n = ns[0]
    xs, ys = pop.sample(genbench._rng(seed, 0, 0), n)
    nu = measures.empirical_from_arrays(xs, ys)
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
    name = _get(cfg, "output.json", f"{exp_id}.json")
    _write_json(payload, out_dir / name)
    print(f"[{exp_id}] iterations={sol.iterations} "
          f"residual={sol.residual:.3e} -> {out_dir / name}")
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
    trainer = genbench.GridGibbsTrainer(ep, cfg1, damping=1.0, tol=1e-12)

    # exhaustive resampling identity on a two-point space
    space = [(measures.DataPoint(np.zeros(0), 0.0), 0.5),
             (measures.DataPoint(np.zeros(0), 1.0), 0.5)]
    w1, w2 = genbench.enumerate_exact_gen(trainer, space, ep, 2)
    add("enumeration_identity", abs(w1 - w2), 1e-12)

    # first-order expansion of the loss in the measure
    rng = genbench._rng(seed, 0, 10)
    nodes, vol = measures.uniform_grid(2.0, 25, 2)

    def bump2():
        c = rng.uniform(-0.8, 0.8, size=2)
        s = rng.uniform(0.3, 0.8)
        dens = np.exp(-np.sum((nodes - c) ** 2, axis=1) / (2 * s * s))
        return measures.GridMeasure(nodes, vol, dens, normalize=True)

    for outer, lam_nodes, tol, label in (
            ("quadratic", 4, 1e-10, "derivative_identity_quadratic_4node"),
            ("logcosh", 64, 1e-6, "derivative_identity_logcosh")):
        nn = losses.NNLoss("tanh", outer)
        worst = 0.0
        for _ in range(10):
            m0, m1 = bump2(), bump2()
            z = measures.DataPoint(rng.standard_normal(1),
                                   float(rng.standard_normal()))
            worst = max(worst, funcderiv.check_linear_derivative(
                lambda mm: losses.loss_value(nn, mm, z),
                lambda mm: losses.loss_dm(nn, mm, z, nodes),
                m0, m1, lambda_nodes=lam_nodes))
        add(label, worst, tol)

    nodes1, vol1 = measures.uniform_grid(2.0, 129, 1)
    worst = 0.0
    for _ in range(10):
        c0, c1 = rng.uniform(-1, 1, 2)
        s0, s1 = rng.uniform(0.2, 0.6, 2)
        m0 = measures.GridMeasure(
            nodes1, vol1, np.exp(-(nodes1[:, 0] - c0) ** 2 / (2 * s0 * s0)),
            normalize=True)
        m1 = measures.GridMeasure(
            nodes1, vol1, np.exp(-(nodes1[:, 0] - c1) ** 2 / (2 * s1 * s1)),
            normalize=True)
        z = measures.DataPoint(np.zeros(0), float(rng.standard_normal()))
        worst = max(worst, funcderiv.check_linear_derivative(
            lambda mm: losses.loss_value(ep, mm, z),
            lambda mm: losses.loss_dm(ep, mm, z, nodes1),
            m0, m1, lambda_nodes=64))
    add("derivative_identity_param", worst, 1e-6)

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
    sol1 = gibbs.solve_gibbs(ep, nu1, cfg1, damping=1.0)
    add("gibbs_param_one_step", abs(sol1.iterations - 1), 0.5)
    add("prior_moment_bound",
        max(0.0, sol1.measure.moment(cfg1.p)
            - gibbs.prior_moment_bound(ep, nu1, cfg1)), 1e-6)

    # trained-measure derivative vs finite differences + covariance form
    z0 = nu1.point(0)
    dm = funcderiv.dm_dnu(ep, nu1, cfg1, z0, solve_kwargs={"damping": 1.0})
    fd = funcderiv.finite_diff_dm_dnu(ep, nu1, cfg1, z0, eps=1e-4,
                                      solve_kwargs={"damping": 1.0})
    add("dm_dnu_finite_diff",
        np.abs(dm.node_weights - fd.node_weights).sum()
        / np.abs(fd.node_weights).sum(), 1e-3)

    td = funcderiv.TrainedDerivatives(ep, nu1, cfg1,
                                      solve_kwargs={"damping": 1.0})
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
    name = _get(cfg, "output.json", f"{exp_id}.json") if cfg else \
        "verify_report.json"
    _write_json(checks, out_dir / name)
    n_fail = sum(c["status"] == "fail" for c in checks)
    print(f"[{exp_id}] {len(checks) - n_fail}/{len(checks)} checks passed "
          f"-> {out_dir / name}")
    for c in checks:
        if c["status"] == "fail":
            print(f"  FAIL {c['check_name']}: residual {c['residual']:.3e} "
                  f"> tolerance {c['tolerance']:.3e}")
    return None, (0 if n_fail == 0 else 2)


_RUNNERS = {"gaussian-oracle": _run_gaussian_oracle,
            "gen-sweep": _run_gen_sweep,
            "bounds": _run_bounds,
            "mfld-vs-grid": _run_mfld_vs_grid,
            "gibbs-solve": _run_gibbs_solve,
            "verify": _run_verify}


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
        cfg = json.loads(path.read_text())
    except OSError as exc:
        print(f"config error: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"config error: {path}:{exc.lineno}:{exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 1
    if not isinstance(cfg, dict):
        print("config error: top level must be an object", file=sys.stderr)
        return 1
    try:
        experiment = _get_choice(cfg, "experiment", set(_RUNNERS))
        exp_id = _get(cfg, "id", experiment)
        cfg_seed = _seed(seed, "seed") if seed is not None \
            else _seed(_get_int(cfg, "sweep.seed", 0), "sweep.seed")
        out_dir = Path(out if out is not None
                       else _get(cfg, "output.dir", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        rows, code = _RUNNERS[experiment](cfg, exp_id, cfg_seed, out_dir)
        if rows is None:
            return code
        csv_name = _get(cfg, "output.csv", f"{exp_id}.csv")
        csv_path = out_dir / csv_name
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


def verify(seed: int = 0, out: str = ".") -> int:
    """Run the built-in invariant suite; returns the process exit code."""
    try:
        _seed(seed, "seed")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, code = _run_verify(None, "verify", seed, out_dir)
    return code


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
                       help="override the top-level seed")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        if args.seed is not None:
            _seed(args.seed, "--seed")
        if args.command == "run":
            return run(args.config, seed=args.seed, out=args.out)
        return verify(seed=args.seed if args.seed is not None else 0,
                      out=args.out if args.out is not None else ".")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
