"""The benchmark's workloads and the output checks that guard them.

Each workload is built from the run's seed alone, so the same seed gives
the same inputs.  ``setup()`` writes the experiment configs and builds
the ``GibbsConfig`` objects with their box radius and priors; it is the
part of set-up that ``setup_s`` times after the import.  ``run_pass()``
performs one pass over the workload through a :class:`Recorder`, which
times each operation and records every failed check with the workload,
experiment, n and seed that produced it.

Why these three workloads:

* ``closed_form_replicates``: per-replicate Python in ``genbench`` and
  ``measures`` with the explicit Gaussian-mean trainer; ``gibbs`` and
  ``funcderiv`` are never called.  Batched replicates should move it.
* ``grid_routes_1d``: thousands of one-iteration ``solve_gibbs`` calls
  on a 257-node grid, the same datasets retrained across routes, and
  zero-curvature derivatives.  Merged kernels and warm starts should
  move it.
* ``network_2d``: damped 2-D network solves, dense derivative systems,
  particle sampling and ``verify``; no replicate loop.  A rank-n
  Newton/Woodbury core should move it; batched replicates should not.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from gibbslab import cli, funcderiv, genbench, gibbs, losses, measures

OP_KINDS = ("cli_run", "solve", "deriv", "mfld", "mfld_oracle", "verify")

# Checks against a standard error miss with a known probability even when
# the program is right, so one of them failing does not fail a pass.  The
# statistical checks of a pass fail together when their misses are too
# many to be chance: tail probability at most FAMILY_P.
FAMILY_P = 1e-4
ALPHA_3SE = math.erfc(3.0 / math.sqrt(2.0))


def derive_seed(seed: int, *keys: int) -> int:
    """Stable 32-bit sub-seed for one purpose of a run."""
    state = np.random.SeedSequence((seed,) + keys).generate_state(1)
    return int(state[0])


class Recorder:
    """Times operations and counts failed ones.

    An operation fails when it raises or when any exact check of its
    output fails; each operation counts once in ``attempted`` and at most
    once in ``failed``.  Statistical checks are collected per pass and
    judged as a family in :meth:`end_pass`.  Checks run with the tracer
    paused so that they do not appear in the per-layer spans.
    """

    def __init__(self, workload: str, tracer=None, reference=None):
        self.workload = workload
        self.tracer = tracer
        self.reference = reference
        self.refs: list[float] = []
        self.pass_norm = 0.0
        self.samples: dict[str, list[float]] = {k: [] for k in OP_KINDS}
        self.units: dict[str, float] = {k: 0.0 for k in OP_KINDS}
        self.attempted = 0
        self.failures: list[dict] = []
        self._failed_ops: set[int] = set()
        self._stats: list[tuple] = []
        self.stat_checks = 0
        self.stat_misses: list[dict] = []
        self.pass_time = 0.0

    def op(self, kind: str, fn, ctx: dict, units: float = 0.0):
        """Run ``fn`` as one timed operation; return its result or None.

        The operation's time is also divided by the mean of the reference
        points taken just before and just after it, into ``pass_norm``.
        """
        self.attempted += 1
        if self.reference is not None and not self.refs:
            self.refs.append(self._reference_point())
        out, ok = None, True
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                out = fn()
        except Exception as exc:  # a failing operation is data, not a crash
            ok = False
            self.fail(ctx, f"{type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        self.pass_time += dt
        if ok:
            self.samples[kind].append(dt)
            self.units[kind] += units
        if self.reference is not None:
            before = self.refs[-1]
            self.refs.append(self._reference_point())
            self.pass_norm += dt / (0.5 * (before + self.refs[-1]))
        return out

    def _reference_point(self) -> float:
        """Median of three reference-kernel timings, taken between operations."""
        return sorted(self.reference() for _ in range(3))[1]

    def fail(self, ctx: dict, message: str, op: int | None = None) -> None:
        self._failed_ops.add(self.attempted if op is None else op)
        if len(self.failures) < 200:
            self.failures.append({"workload": self.workload, **ctx,
                                  "error": message})

    def check(self, ok: bool, ctx: dict, message: str) -> None:
        if not ok:
            self.fail(ctx, message)

    def stat(self, ok: bool, alpha: float, ctx: dict, message: str) -> None:
        """Record a check that a right program misses with probability ``alpha``."""
        self._stats.append((self.attempted, bool(ok), alpha, ctx, message))

    def end_pass(self) -> None:
        """Judge the pass's statistical checks as one family."""
        stats, self._stats = self._stats, []
        self.stat_checks += len(stats)
        misses = [s for s in stats if not s[1]]
        if not misses:
            return
        p = _tail_probability([s[2] for s in stats], len(misses))
        for op, _, _, ctx, message in misses:
            entry = {"workload": self.workload, **ctx, "error": message,
                     "family_misses": len(misses), "family_checks": len(stats),
                     "family_p": p}
            if len(self.stat_misses) < 200:
                self.stat_misses.append(entry)
            if p <= FAMILY_P:
                self.fail(ctx, f"{message}; {len(misses)} of {len(stats)} "
                          f"statistical checks missed (p = {p:.2e})", op)

    @property
    def failed(self) -> int:
        return len(self._failed_ops)

    @contextlib.contextmanager
    def checking(self):
        """Pause tracing while outputs are checked."""
        was = self.tracer.active if self.tracer is not None else False
        if self.tracer is not None:
            self.tracer.active = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.active = was


def _tail_probability(alphas: list[float], k: int) -> float:
    """P(at least k misses) for independent checks missing w.p. ``alphas``."""
    dist = [1.0]
    for a in alphas:
        nxt = [0.0] * (len(dist) + 1)
        for j, pj in enumerate(dist):
            nxt[j] += pj * (1.0 - a)
            nxt[j + 1] += pj * a
        dist = nxt
    return float(sum(dist[k:]))


def _overlap_alpha(sa: float, sb: float) -> float:
    """Chance that 2-SE intervals of two independent unbiased estimates miss."""
    return math.erfc(2.0 * (sa + sb) / math.sqrt(2.0 * (sa * sa + sb * sb)))


def _finite(*vals: str) -> bool:
    try:
        return all(math.isfinite(float(v)) for v in vals)
    except ValueError:
        return False


class _CliWorkload:
    """Workload made of ``cli.run`` calls on generated configs."""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.configs: list[tuple[Path, dict]] = []
        self._first_output: dict[str, tuple[int, str]] = {}

    def _write(self, body: dict) -> None:
        body = dict(body, output={"csv": f"{body['id']}.csv"})
        path = self.out_dir / f"{body['id']}.config.json"
        path.write_text(json.dumps(body, indent=1, sort_keys=True))
        self.configs.append((path, body))

    def run_pass(self, rec: Recorder) -> None:
        for path, body in self.configs:
            ctx = {"experiment": body["id"], "seed": body["sweep"]["seed"]}
            code = rec.op("cli_run",
                          lambda: cli.run(str(path), out=str(self.out_dir)),
                          ctx)
            if code is None:
                continue
            with rec.checking():
                try:
                    text = (self.out_dir / body["output"]["csv"]).read_text()
                    rows = list(csv.DictReader(io.StringIO(text)))
                except (OSError, csv.Error) as exc:
                    rec.fail(ctx, f"unreadable CSV: {exc}")
                    continue
                rec.units["cli_run"] += sum(int(r["replicates"]) for r in rows)
                first = self._first_output.get(body["id"])
                if first is None:
                    self._first_output[body["id"]] = (code, text)
                    self.check_rows(rec, body, rows, code, ctx)
                else:
                    # same config, same seed: the output must repeat
                    rec.check(first == (code, text), ctx,
                              "exit code or CSV differs from the first pass")

    def check_rows(self, rec, body, rows, code, ctx):
        raise NotImplementedError


_GAUSS_POP = {"name": "gaussian", "mu": 0.0, "sigma": 1.0}
_EXPLICIT = {"kind": "explicit_gaussian_mean", "sigma_tilde": 1.0}


class ClosedFormReplicates(_CliWorkload):
    """Explicit Gaussian-mean trainer, direct and resampled routes.

    The shapes of ``gaussian_oracle.json`` and ``gen_sweep_explicit.json``
    at n in {5, 10, 20, 40, 80}, with fewer replicates per cell so that a
    pass takes about a second.
    """

    name = "closed_form_replicates"
    REFERENCE = "python"
    NS = [5, 10, 20, 40, 80]
    REPLICATES = 200

    def setup(self) -> None:
        self._write({"experiment": "gaussian-oracle", "id": "gaussian_oracle",
                     "population": _GAUSS_POP, "trainer": _EXPLICIT,
                     "sweep": {"n": self.NS, "replicates": self.REPLICATES,
                               "seed": derive_seed(self.seed, 1)}})
        self._write({"experiment": "gen-sweep", "id": "gen_sweep_explicit",
                     "model": {"variant": "expected_param",
                               "param_loss": "mean_squared"},
                     "population": _GAUSS_POP, "trainer": _EXPLICIT,
                     "routes": ["direct", "resampled"],
                     "sweep": {"n": self.NS, "replicates": self.REPLICATES,
                               "seed": derive_seed(self.seed, 2)}})

    def check_rows(self, rec, body, rows, code, ctx):
        rec.check(len(rows) == 2 * len(self.NS), ctx,
                  f"expected {2 * len(self.NS)} rows, got {len(rows)}")
        oracle_rows = body["experiment"] == "gaussian-oracle"
        misses = 0
        for r in rows:
            rctx = dict(ctx, n=int(r["n"]), route=r["route"])
            if not _finite(r["estimate"], r["stderr"]):
                rec.fail(rctx, "non-finite estimate")
                continue
            n, est, se = int(r["n"]), float(r["estimate"]), float(r["stderr"])
            within = abs(est - 2.0 / n) <= 3.0 * se
            misses += not within
            rec.stat(within, ALPHA_3SE, rctx,
                     f"estimate {est:.5g} is {abs(est - 2.0 / n) / se:.2f} "
                     f"SE from 2/n")
            if oracle_rows:
                rec.check(r["holds"] == ("true" if within else "false"), rctx,
                          f"holds={r['holds']} disagrees with the 3-SE test")
            want, want_se = closed_form_estimate(
                r["route"], n, int(r["replicates"]), body["sweep"]["seed"])
            rec.check(abs(est - want) <= 1e-10 + 1e-9 * abs(want)
                      and abs(se - want_se) <= 1e-9 * want_se, rctx,
                      f"estimate {est!r} +- {se!r} differs from the closed "
                      f"form {want!r} +- {want_se!r}")
        # gaussian-oracle exits with 2 exactly when a 3-SE test missed
        want_code = 2 if oracle_rows and misses else 0
        rec.check(code == want_code, ctx,
                  f"cli exit code {code}, expected {want_code}")


def closed_form_estimate(route: str, n: int, replicates: int, seed: int):
    """Replicate-by-replicate closed form of the explicit trainer's gap.

    Uses the same per-replicate streams as ``genbench`` and the N(0, 1)
    population.  The trained measure is N(mean, 1/n); its grid quadrature
    is exact to rounding, so the library must agree to about 1e-15.
    """
    vals = np.empty(replicates)
    for rep in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence((seed, rep, 0)))
        if route == "direct":
            ys = rng.standard_normal(n)
            mu = ys.mean()
            vals[rep] = mu * mu + 1.0 - np.mean((mu - ys) ** 2)
        else:
            ys = rng.standard_normal(n + 1)
            mu, z_bar = ys[:n].mean(), ys[n]
            mu_swap = mu + (z_bar - ys[0]) / n
            vals[rep] = (mu - z_bar) ** 2 - (mu_swap - z_bar) ** 2
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicates))


_GRID_MODEL = {"variant": "expected_param", "param_loss": "mean_squared"}
_GRID_GIBBS = {"beta": 0.5, "sigma": 1.0, "p": 4, "kappa": 0.05, "q": 3,
               "nodes": 257}
_GRID_TRAINER = {"kind": "gibbs_grid", "damping": 1.0, "tol": 1e-10}
_LINE_MODEL = {"variant": "expected_param", "param_loss": "linear_regression"}
_LINE_POP = {"name": "noiseless_line", "slope": 0.5, "x_sigma": 1.0}


class GridRoutes1D(_CliWorkload):
    """Grid Gibbs trainer on the 257-node 1-D grid, several routes.

    A gen-sweep of resampled, representation and lge; the
    ``bounds_gaussian`` shape; and both ``schedule_*`` shapes, each at a
    reduced replicate count.
    """

    name = "grid_routes_1d"
    REFERENCE = "python"

    def setup(self) -> None:
        self._write({"experiment": "gen-sweep", "id": "gen_sweep_gibbs",
                     "model": _GRID_MODEL, "population": _GAUSS_POP,
                     "gibbs": _GRID_GIBBS, "trainer": _GRID_TRAINER,
                     "routes": ["resampled", "representation", "lge"],
                     "sweep": {"n": [6, 12], "replicates": 24,
                               "seed": derive_seed(self.seed, 1)}})
        self._write({"experiment": "bounds", "id": "bounds_gaussian",
                     "model": _GRID_MODEL, "population": _GAUSS_POP,
                     "gibbs": _GRID_GIBBS, "trainer": _GRID_TRAINER,
                     "sweep": {"n": [5, 10], "replicates": 24,
                               "seed": derive_seed(self.seed, 2)}})
        for mode, beta in (("wge_n14", 0.05), ("lge_n16", 0.0004)):
            self._write({"experiment": "bounds", "id": f"schedule_{mode}",
                         "model": _LINE_MODEL, "population": _LINE_POP,
                         "gibbs": dict(_GRID_GIBBS, beta=beta),
                         "trainer": _GRID_TRAINER,
                         "schedule": {"mode": mode,
                                      "m_bar": {"center": 0.5, "scale": 0.2}},
                         "sweep": {"n": [16, 64, 256], "replicates": 40,
                                   "seed": derive_seed(self.seed, 3)}})
        # the configs the cli will build, so set-up includes their grids
        for _, body in self.configs:
            cfg = cli.build_gibbs_config(body, 1)
            cfg.box_radius()
            cfg.priors()

    def check_rows(self, rec, body, rows, code, ctx):
        rec.check(code == 0, ctx, f"cli exit code {code}")
        by_route: dict[tuple, dict] = {}
        for r in rows:
            rctx = dict(ctx, n=int(r["n"]), route=r["route"])
            rec.check(r["holds"] != "false", rctx, "holds is false")
            if body["experiment"] == "bounds":
                rec.check(r["holds"] == "true", rctx, "holds is not true")
            rec.check(_finite(r["estimate"], r["stderr"]), rctx,
                      "non-finite estimate")
            by_route[(r["route"], int(r["n"]))] = r
        if body["experiment"] != "gen-sweep":
            return
        for n in body["sweep"]["n"]:
            rep = by_route.get(("representation", n))
            res = by_route.get(("resampled", n))
            if rep is None or res is None:
                rec.fail(dict(ctx, n=n), "missing route row")
                continue
            a, sa = float(rep["estimate"]), float(rep["stderr"])
            b, sb = float(res["estimate"]), float(res["stderr"])
            rec.stat(max(a - 2 * sa, b - 2 * sb) <= min(a + 2 * sa, b + 2 * sb),
                     _overlap_alpha(sa, sb), dict(ctx, n=n),
                     f"representation {a:.4g} +- {sa:.2g} and resampled "
                     f"{b:.4g} +- {sb:.2g}: 2-SE intervals do not overlap")


class Network2D:
    """Mean-field tanh/quadratic network on 2-D grids, direct calls.

    Direct ``solve_gibbs`` calls, trained-measure derivatives in several
    directions, particle sampling against grid solutions, and one
    ``cli.verify``.
    """

    name = "network_2d"
    REFERENCE = "vector"
    # (nodes per axis, atoms); the 64-atom solve at 257^2 and the 64-atom
    # derivative at 49^2 take about 3 s each, which would leave a 30 s run
    # with two passes, so they are left out.
    SOLVES = [(65, 8), (65, 64), (129, 8), (129, 64), (257, 8)]
    DERIVS = [(33, 8), (33, 64), (49, 8)]
    DIRECTIONS = 4
    SOLVE_KW = {"damping": 0.5, "tol": 1e-9}
    DERIV_KW = {"damping": 0.5, "tol": 1e-10}
    MFLD_1D = (2048, 1e-3, 4000)
    MFLD_2D = (1024, 1e-3, 2000)

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> None:
        self.model = losses.NNLoss("tanh", "quadratic")
        self.pop = genbench.NoiselessLinePopulation(0.8, 1.0)
        self.solve_cfgs = {k: gibbs.GibbsConfig(beta=0.7, sigma=1.0, p=8,
                                                theta_dim=2, nodes_per_axis=k)
                           for k in sorted({s for s, _ in self.SOLVES})}
        self.deriv_cfgs = {k: gibbs.GibbsConfig(beta=0.7, sigma=1.0, p=4,
                                                theta_dim=2, nodes_per_axis=k)
                           for k in sorted({s for s, _ in self.DERIVS} | {65})}
        self.ep_model = losses.mean_squared_param_loss()
        self.mfld_cfg = gibbs.GibbsConfig(
            beta=0.8, sigma=1.0, p=4, regularizer=gibbs.Regularizer(0.05, 3),
            theta_dim=1, nodes_per_axis=257)
        for cfg in (*self.solve_cfgs.values(), *self.deriv_cfgs.values(),
                    self.mfld_cfg):
            cfg.box_radius()
            cfg.priors()
        self.data = {}
        for atoms in sorted({a for _, a in self.SOLVES + self.DERIVS}):
            rng = np.random.default_rng(derive_seed(self.seed, 1, atoms))
            xs, ys = self.pop.sample(rng, atoms)
            oos_x, oos_y = self.pop.sample(rng, self.DIRECTIONS)
            self.data[atoms] = (measures.empirical_from_arrays(xs, ys),
                                [measures.DataPoint(oos_x[i], oos_y[i])
                                 for i in range(self.DIRECTIONS)])
        rng = np.random.default_rng(derive_seed(self.seed, 2))
        xs, ys = genbench.GaussianScalarPopulation(0.3, 1.0).sample(rng, 12)
        self.mfld_nu = measures.empirical_from_arrays(xs, ys)

    def run_pass(self, rec: Recorder) -> None:
        self._solves(rec)
        self._derivatives(rec)
        self._particles(rec)
        self._verify(rec)

    def _solves(self, rec):
        for nodes, atoms in self.SOLVES:
            nu = self.data[atoms][0]
            cfg = self.solve_cfgs[nodes]
            ctx = {"experiment": f"solve_{nodes}x{nodes}", "n": atoms,
                   "seed": self.seed}
            sol = rec.op("solve", lambda: gibbs.solve_gibbs(
                self.model, nu, cfg, **self.SOLVE_KW), ctx, units=1)
            if sol is None:
                continue
            with rec.checking():
                rec.check(sol.residual <= self.SOLVE_KW["tol"], ctx,
                          f"residual {sol.residual:.3e} above tol")
                rec.check(bool(np.all(np.isfinite(sol.measure.density))),
                          ctx, "non-finite density")

    def _derivatives(self, rec):
        smallest = min(self.DERIVS)
        for nodes, atoms in self.DERIVS:
            nu, oos = self.data[atoms]
            cfg = self.deriv_cfgs[nodes]
            td = funcderiv.TrainedDerivatives(self.model, nu, cfg,
                                              solve_kwargs=self.DERIV_KW)
            zs = [nu.point(0), nu.point(1)] + oos[:self.DIRECTIONS - 2]
            for k, z in enumerate(zs):
                ctx = {"experiment": f"dm_dnu_{nodes}x{nodes}", "n": atoms,
                       "seed": self.seed, "direction": k}
                dm = rec.op("deriv", lambda: td.dm_dnu(z), ctx, units=1)
                if dm is None:
                    continue
                with rec.checking():
                    self._check_covariance(rec, td, z, dm, cfg, ctx)
                    if (nodes, atoms) == smallest and k == 0:
                        fd = funcderiv.finite_diff_dm_dnu(
                            self.model, nu, cfg, z, eps=1e-4,
                            solve_kwargs=self.DERIV_KW)
                        rel = (np.abs(dm.node_weights - fd.node_weights).sum()
                               / np.abs(fd.node_weights).sum())
                        rec.check(rel <= 1e-2, ctx, f"finite-difference "
                                  f"rel-L1 {rel:.3e} above 1e-2")

    @staticmethod
    def _check_covariance(rec, td, z, dm, cfg, ctx):
        m = td.measure
        v = td.s_derivative(z).values
        w = m.node_weights
        worst = 0.0
        for k in range(20):
            f = np.cos(m.nodes @ np.array([0.5 + 0.25 * k, 0.3 - 0.1 * k])
                       + 0.1 * k)
            lhs = float(f @ dm.node_weights)
            cov = float((f * v) @ w) - float(f @ w) * float(v @ w)
            worst = max(worst, abs(lhs + cfg.temperature * cov))
        rec.check(worst <= 1e-8, ctx,
                  f"covariance identity residual {worst:.3e} above 1e-8")

    def _particles(self, rec):
        cases = (("mfld_vs_grid", self.ep_model, self.mfld_nu, self.mfld_cfg,
                  {"damping": 1.0, "tol": 1e-12}, self.MFLD_1D),
                 ("mfld_network", self.model, self.data[8][0],
                  self.deriv_cfgs[65], self.SOLVE_KW, self.MFLD_2D))
        for k, (exp, model, nu, cfg, kw, (n_p, h, steps)) in enumerate(cases):
            ctx = {"experiment": exp, "n": nu.n_atoms, "seed": self.seed}
            sol = rec.op("mfld_oracle",
                         lambda: gibbs.solve_gibbs(model, nu, cfg, **kw), ctx)
            part = rec.op("mfld", lambda: gibbs.mfld_sample(
                model, nu, cfg, n_p, h, steps, derive_seed(self.seed, 3, k)),
                ctx, units=n_p * steps)
            if sol is None or part is None:
                continue
            with rec.checking():
                pts = part.points
                m = sol.measure
                if pts.shape[1] == 1:
                    stats = [("mean", pts[:, 0], float(m.mean()[0]))]
                else:
                    # theta -> -theta leaves the network problem unchanged,
                    # so first moments vanish and mix slowly between mirror
                    # modes; second moments are checked per coordinate.
                    stats = [(f"second_moment_{d}", pts[:, d] ** 2,
                              float(m.nodes[:, d] ** 2 @ m.node_weights))
                             for d in range(pts.shape[1])]
                stats.append(("moment2", np.einsum("ij,ij->i", pts, pts),
                              m.moment(2)))
                for label, sample, oracle in stats:
                    se = float(sample.std(ddof=1)) / math.sqrt(n_p)
                    gap = abs(float(sample.mean()) - oracle)
                    rec.stat(gap <= 3.0 * se, ALPHA_3SE, dict(ctx, stat=label),
                             f"particle {label} is {gap / se:.2f} SE from "
                             f"the grid solution")

    def _verify(self, rec):
        seed = derive_seed(self.seed, 4)
        ctx = {"experiment": "verify", "seed": seed}
        out = self.out_dir / "verify"
        code = rec.op("verify", lambda: cli.verify(seed=seed, out=str(out)),
                      ctx, units=1)
        if code is None:
            return
        with rec.checking():
            rec.check(code == 0, ctx, f"verify exit code {code}")
            try:
                checks = json.loads((out / "verify_report.json").read_text())
            except (OSError, ValueError) as exc:
                rec.fail(ctx, f"unreadable verify report: {exc}")
                return
            passed = sum(c.get("status") == "pass" for c in checks)
            rec.check(passed == 12 and len(checks) == 12, ctx,
                      f"verify passed {passed}/{len(checks)}")


WORKLOADS = {cls.name: cls for cls in (ClosedFormReplicates, GridRoutes1D,
                                       Network2D)}
