"""Tests for the experiment runner: configs, CSV schema, exit codes."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from gibbslab import cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


GAUSS_CFG = {
    "experiment": "gaussian-oracle",
    "id": "gauss-test",
    "population": {"mu": 0.0, "sigma": 1.0},
    "trainer": {"sigma_tilde": 1.0},
    "sweep": {"n": [5, 10], "replicates": 1500, "seed": 42},
    "output": {"csv": "gauss.csv"},
}


# ---------------------------------------------------------------------------
# serialization


def test_csv_float_format_round_trips():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(cli._fmt(float(x))) == float(x)
    assert cli._fmt(0.2) == "0.20000000000000001"


def test_write_json_refuses_non_finite_values(tmp_path):
    path = tmp_path / "result.json"
    with pytest.raises(ValueError, match="result.json"):
        cli._write_json({"objective": float("inf")}, path)
    assert not path.exists()
    cli._write_json({"objective": 1.5}, path)
    assert json.loads(path.read_text()) == {"objective": 1.5}


def test_emit_csv_refuses_non_finite_values(tmp_path):
    path = tmp_path / "out.csv"
    for field, bad in (("estimate", float("inf")), ("stderr", np.nan),
                       ("bound", np.float64(-np.inf))):
        row = cli._row("e", "direct", 5, 2, 0, estimate=0.25, stderr=0.01)
        row[field] = bad
        with pytest.raises(ValueError, match=f"out.csv.*{field}"):
            cli.emit_csv([row], path)
        assert not path.exists()


def test_fmt_handles_all_field_types():
    assert cli._fmt(None) == ""
    assert cli._fmt(True) == "true"
    assert cli._fmt(np.bool_(False)) == "false"
    assert cli._fmt(7) == "7"
    assert cli._fmt(np.int64(7)) == "7"
    assert cli._fmt("direct") == "direct"


def test_emit_csv_schema(tmp_path):
    rows = [cli._row("e", "direct", 5, 100, 1, estimate=0.25,
                     stderr=0.01, oracle=None, bound=None, holds=None)]
    path = tmp_path / "out.csv"
    cli.emit_csv(rows, path)
    header, line = path.read_text().strip().split("\n")
    assert header == ("experiment_id,route,n,replicates,seed,"
                      "estimate,stderr,oracle,bound,holds")
    fields = line.split(",")
    assert len(fields) == 10
    assert fields[7] == "" and fields[8] == "" and fields[9] == ""
    cli.emit_csv([], path)
    assert path.read_text() == header + "\n"
    with pytest.raises(ValueError):
        cli.emit_csv([{"experiment_id": "e", "extra": 1}], path)


# ---------------------------------------------------------------------------
# config validation


def test_missing_field_names_the_path(tmp_path, capsys):
    cfg = {"experiment": "gaussian-oracle", "sweep": {"n": [5], "seed": 0}}
    assert cli.run(write_config(tmp_path, cfg)) == 1
    assert "sweep.replicates" in capsys.readouterr().err


def test_bad_enum_is_reported(tmp_path, capsys):
    assert cli.run(write_config(tmp_path, {"experiment": "foo"})) == 1
    assert "experiment" in capsys.readouterr().err


def test_non_increasing_sweep_rejected(tmp_path, capsys):
    cfg = dict(GAUSS_CFG, sweep={"n": [10, 10], "replicates": 10, "seed": 0})
    assert cli.run(write_config(tmp_path, cfg)) == 1
    assert "sweep.n" in capsys.readouterr().err


def test_json_syntax_error_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n "experiment": oops\n}')
    assert cli.run(str(path)) == 1
    err = capsys.readouterr().err
    assert "broken.json:2" in err


def test_missing_file_and_non_object(tmp_path, capsys):
    assert cli.run(str(tmp_path / "nope.json")) == 1
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]")
    assert cli.run(str(path)) == 1


def test_unknown_route_rejected(tmp_path, capsys):
    cfg = {
        "experiment": "gen-sweep",
        "model": {"variant": "expected_param", "param_loss": "mean_squared"},
        "population": {"name": "gaussian", "sigma": 1.0},
        "gibbs": {"beta": 1.0},
        "trainer": {"kind": "gibbs_grid"},
        "routes": ["direct", "warp"],
        "sweep": {"n": [4], "replicates": 10, "seed": 0},
    }
    assert cli.run(write_config(tmp_path, cfg)) == 1
    assert "warp" in capsys.readouterr().err


SWEEP_CFG = {
    "experiment": "gen-sweep",
    "model": {"variant": "expected_param", "param_loss": "mean_squared"},
    "population": {"name": "discrete", "points": [{"y": 0.0}, {"y": 1.0}],
                   "probs": [0.5, 0.5]},
    "gibbs": {"beta": 1.0},
    "trainer": {"kind": "gibbs_grid"},
    "sweep": {"n": [4], "replicates": 10, "seed": 0},
}


@pytest.mark.parametrize("block, key, value, named", [
    ("gibbs", "q", 3.7, "gibbs.q"),
    ("gibbs", "q", 0, "gibbs.q"),
    ("gibbs", "radius", True, "gibbs.radius"),
    ("gibbs", "radius", "5", "gibbs.radius"),
    ("gibbs", "radius", -2.0, "gibbs.radius"),
    ("gibbs", "kappa", -1, "kappa"),
    ("population", "probs", [float("nan"), 1.0], "population.probs"),
    ("population", "points", [{"x": [0.0], "y": 0.0},
                              {"x": [0.0, 1.0], "y": 1.0}],
     "population.points[1]"),
    ("population", "points", [{"y": 0.0}, 3], "population.points[1]"),
    ("sweep", "seed", -1, "sweep.seed"),
    ("sweep", "seed", 2 ** 64, "sweep.seed"),
    ("population", "sigma", 0, "population.sigma"),
    ("population", "x_sigma", -1.0, "population.x_sigma"),
    ("gibbs", "p", 10 ** 400, "gibbs.p"),
])
def test_bad_config_values_are_config_errors(tmp_path, capsys, block, key,
                                             value, named):
    cfg = json.loads(json.dumps(SWEEP_CFG))
    cfg[block][key] = value
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


GIBBS_SWEEP_CFG = {
    "experiment": "gen-sweep",
    "model": {"variant": "expected_param", "param_loss": "mean_squared"},
    "population": {"name": "gaussian", "sigma": 1.0},
    "gibbs": {"beta": 0.5, "kappa": 0.05, "q": 3, "nodes": 65},
    "trainer": {"kind": "gibbs_grid", "tol": 1e-10},
    "routes": ["resampled"],
    "sweep": {"n": [4], "replicates": 4, "seed": 0},
    "output": {"csv": "sweep.csv"},
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
@pytest.mark.parametrize("block, key", [("trainer", "tol"), ("gibbs", "beta"),
                                        ("population", "sigma")])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, block, key,
                                              value):
    cfg = json.loads(json.dumps(GIBBS_SWEEP_CFG))
    cfg[block][key] = value  # written as NaN / Infinity / -Infinity
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{block}.{key}" in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("config, key, value", [
    ("bounds_gaussian.json", "q", 2),
    # a network's first derivative grows like ||theta||^4, which the
    # default confinement for p = 3 (q = 2) does not dominate
    ("gibbs_solve_nn.json", "p", 3),
])
def test_weak_confinement_is_a_config_error(tmp_path, capsys, config, key,
                                            value):
    cfg = json.loads((CONFIGS / config).read_text())
    cfg["gibbs"][key] = value
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        "config error: gibbs: confinement degree 2q=4 must exceed 4.0 for "
        "this model and moment order\n")
    assert not list(tmp_path.glob("*.csv")) \
        and not list(tmp_path.glob("gibbs_solve_nn.json"))


@pytest.mark.parametrize("config, trainer, message", [
    ("gen_sweep_gibbs.json", {"damping": 0}, "trainer.damping: must lie in "
     "(0, 1], got 0.0"),
    ("gen_sweep_gibbs.json", {"damping": 2}, "trainer.damping: must lie in "
     "(0, 1], got 2.0"),
    ("gen_sweep_gibbs.json", {"tol": -1}, "trainer.tol: must lie in "
     "(0, inf], got -1.0"),
    ("gen_sweep_gibbs.json", {"kind": "mfld", "step_size": -1},
     "trainer.step_size: must lie in (0, inf], got -1.0"),
    ("mfld_vs_grid.json", {"step_size": -1}, "trainer.step_size: must lie "
     "in (0, inf], got -1.0"),
    ("mfld_vs_grid.json", {"damping": 0}, "trainer.damping: must lie in "
     "(0, 1], got 0.0"),
    ("mfld_vs_grid.json", {"tol": -1}, "trainer.tol: must lie in "
     "(0, inf], got -1.0"),
    ("mfld_vs_grid.json", {"max_iter": 0}, "trainer.max_iter: must be >= 1, "
     "got 0"),
])
def test_bad_trainer_settings_are_config_errors(tmp_path, capsys, config,
                                                trainer, message):
    cfg = json.loads((CONFIGS / config).read_text())
    cfg["trainer"].update(trainer)
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


NN_DISCRETE_CFG = {
    "experiment": "gen-sweep",
    "id": "nn2",
    "model": {"variant": "nn", "activation": "tanh", "outer": "quadratic"},
    "population": {"name": "discrete",
                   "points": [{"x": [0.5, -1.0], "y": 0.3},
                              {"x": [1.0, 0.2], "y": -0.4},
                              {"x": [-0.7, 0.4], "y": 0.8}],
                   "probs": [0.3, 0.3, 0.4]},
    "gibbs": {"beta": 0.7, "p": 8, "nodes": 13},
    "trainer": {"kind": "gibbs_grid", "damping": 0.5, "tol": 1e-9},
    "sweep": {"n": [3], "replicates": 2, "seed": 1},
}


def test_network_parameter_dimension_follows_the_features(tmp_path, capsys):
    # theta = (a, w) with one weight per feature: 3 on 2-feature data
    path = write_config(tmp_path, NN_DISCRETE_CFG)
    assert cli.run(path, out=str(tmp_path)) == 0
    assert len((tmp_path / "nn2.csv").read_text().splitlines()) == 3
    assert cli._setup(cli.read_config(NN_DISCRETE_CFG))[2].theta_dim == 3
    # derived, so not a setting
    cfg = json.loads(json.dumps(NN_DISCRETE_CFG))
    cfg["gibbs"]["theta_dim"] = 3
    capsys.readouterr()
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        "config error: gibbs.theta_dim: unknown key\n")


@pytest.mark.parametrize("population", [
    {"name": "gaussian", "sigma": 1.0},
    {"name": "discrete", "points": [{"y": 0.3}, {"y": -0.4}],
     "probs": [0.5, 0.5]},
])
def test_network_on_featureless_data_is_a_config_error(tmp_path, capsys,
                                                       population):
    # with no feature every prediction is E_m[a] * act(0), blind to the data
    cfg = dict(NN_DISCRETE_CFG, population=population)
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        "config error: model.variant: a network needs data with at least one "
        "feature, and the population has none\n")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("config, population", [
    ("gen_sweep_gibbs.json", None),
    ("gen_sweep_explicit.json", None),
    ("bounds_gaussian.json", None),
    ("gen_sweep_gibbs.json", {"name": "discrete", "probs": [0.5, 0.5],
                              "points": [{"y": 0.3}, {"y": -0.4}]}),
])
def test_featureless_linear_regression_is_a_config_error(tmp_path, capsys,
                                                         config, population):
    # the loss reads x[:, 0]; it used to fail in the replicate loop with an
    # IndexError
    cfg = shipped(config)
    cfg["model"] = {"variant": "expected_param",
                    "param_loss": "linear_regression"}
    if population is not None:
        cfg["population"] = population
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        "config error: model.param_loss: linear_regression reads a feature "
        "x, and the population has none\n")
    assert not list(tmp_path.glob("*.csv"))


def test_particle_and_damping_defaults_are_shared(tmp_path, capsys,
                                                  monkeypatch):
    cfg = json.loads((CONFIGS / "mfld_vs_grid.json").read_text())
    cfg["trainer"] = {"kind": "mfld"}
    seen = {}
    solve = cli.gibbs.solve_gibbs

    def record_solve(*args, **kwargs):
        seen.update(kwargs)
        return solve(*args, **kwargs)

    def record_sample(*args, **kwargs):
        seen.update(kwargs)
        raise RuntimeError("recorded")

    monkeypatch.setattr(cli.gibbs, "solve_gibbs", record_solve)
    monkeypatch.setattr(cli.gibbs, "mfld_sample", record_sample)
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 1
    assert capsys.readouterr().err == "error: [mfld_vs_grid] recorded\n"
    assert seen == {"damping": 1.0, "tol": 1e-10, "max_iter": 500,
                    "seed": 61, "n_particles": 2048, "step_size": 1e-3,
                    "n_steps": 2000}
    # the same trainer block in a gen-sweep
    trainer = cli.build_trainer(cfg, None, None)
    assert (trainer.n_particles, trainer.step_size, trainer.n_steps) \
        == (2048, 1e-3, 2000)
    grid = cli.build_trainer({"trainer": {}}, cli.build_model(cfg), None)
    assert grid.solve_kwargs == {"damping": 1.0, "tol": 1e-10,
                                 "max_iter": 500}
    # mfld-vs-grid's standard errors need two particles, a gen-sweep's not
    cfg["trainer"]["n_particles"] = 1
    assert cli.build_trainer(cfg, None, None).n_particles == 1
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        "config error: trainer.n_particles: must be >= 2, got 1\n")


def shipped(name):
    return json.loads((CONFIGS / name).read_text())


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_configs_read_cleanly(path):
    # a stale or misspelled key in a shipped config fails here
    cfg = cli.read_config(json.loads(path.read_text()))
    assert cfg.id == path.stem and cfg.output.csv == f"{path.stem}.csv"
    with pytest.raises(AttributeError):
        cfg.trainer.kind = "mfld"  # settings are frozen


# one config per experiment, each as shipped where one is
EXPERIMENT_CFGS = {
    "gaussian-oracle": "gaussian_oracle.json",
    "gen-sweep": "gen_sweep_gibbs.json",
    "bounds": "schedule_wge.json",
    "mfld-vs-grid": "mfld_vs_grid.json",
    "gibbs-solve": "gibbs_solve_nn.json",
    "verify": None,
}


def experiment_cfg(experiment):
    name = EXPERIMENT_CFGS[experiment]
    return shipped(name) if name else {"experiment": "verify"}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENT_CFGS))
def test_unknown_keys_are_all_named_in_one_error(tmp_path, capsys,
                                                 experiment):
    cfg = experiment_cfg(experiment)
    cfg["bogus_top"] = 1
    cfg.setdefault("sweep", {})["bogus"] = 2
    cfg.setdefault("schedule", {}).setdefault("m_bar", {})["bogus"] = 3
    out = tmp_path / "out"
    assert cli.run(write_config(tmp_path, cfg), out=str(out)) == 1
    assert capsys.readouterr().err == (
        "config error: bogus_top: unknown key; sweep.bogus: unknown key; "
        "schedule.m_bar.bogus: unknown key\n")
    assert not out.exists()


def test_misspelled_keys_of_a_shipped_config_are_errors(tmp_path, capsys):
    cfg = shipped("gen_sweep_gibbs.json")
    cfg["trainer"]["tolerance"] = -5
    cfg["sweep"]["replicate"] = 3
    cfg["bogus_top"] = True
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        "config error: bogus_top: unknown key; trainer.tolerance: unknown "
        "key; sweep.replicate: unknown key\n")
    assert not list(tmp_path.glob("*.csv"))


def test_points_take_only_x_and_y(tmp_path, capsys):
    cfg = json.loads(json.dumps(SWEEP_CFG))
    cfg["population"]["points"][1]["z"] = 0.5
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        "config error: population.points[1].z: unknown key\n")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("experiment, block, value, takes", [
    ("gaussian-oracle", "trainer", "gibbs_grid", "['explicit_gaussian_mean']"),
    ("gaussian-oracle", "population", "discrete", "['gaussian']"),
    ("gen-sweep", "trainer", "warp", None),
    ("bounds", "trainer", "mfld", "['gibbs_grid']"),
    ("bounds", "trainer", "explicit_gaussian_mean", "['gibbs_grid']"),
    ("mfld-vs-grid", "trainer", "gibbs_grid", "['mfld']"),
    ("gibbs-solve", "trainer", "constant", None),
    ("verify", "trainer", "gibbs_grid", "none"),
    ("verify", "population", "gaussian", "none"),
])
def test_each_experiment_refuses_other_trainers_and_populations(
        tmp_path, capsys, experiment, block, value, takes):
    cfg = experiment_cfg(experiment)
    key = "kind" if block == "trainer" else "name"
    cfg.setdefault(block, {})[key] = value
    out = tmp_path / "out"
    assert cli.run(write_config(tmp_path, cfg), out=str(out)) == 1
    message = f"{block}.{key}: {experiment} takes {takes}, got {value!r}" \
        if takes else (f"{block}.{key}: expected one of "
                       f"{sorted(cli._TRAINERS)}, got {value!r}")
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# a valid body of each block that some experiment does not read; the
# trainer and population name no kind, which is checked first
_BLOCK_BODIES = {
    "routes": ["direct"],
    "model": {"variant": "expected_param", "param_loss": "linear_regression"},
    "population": {"mu": 0.0, "sigma": 1.0},
    "gibbs": {"beta": 0.5},
    "trainer": {"sigma_tilde": 1.0},
    "schedule": {"mode": "wge_n14", "m_bar": {"center": 0.5, "scale": 0.2}},
}


def _reads(experiment):
    return {*cli._EXPERIMENTS[experiment][3], *cli._TOP}


@pytest.mark.parametrize("experiment, block", [
    (experiment, block) for experiment in sorted(EXPERIMENT_CFGS)
    for block in sorted(_BLOCK_BODIES) if block not in _reads(experiment)])
def test_a_block_the_experiment_does_not_read_is_an_error(
        tmp_path, capsys, monkeypatch, experiment, block):
    def no_work(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(cli._EXPERIMENTS, experiment,
                        (no_work,) + cli._EXPERIMENTS[experiment][1:])
    cfg = experiment_cfg(experiment)
    assert block not in cfg
    cfg[block] = _BLOCK_BODIES[block]
    out = tmp_path / "out"
    assert cli.run(write_config(tmp_path, cfg), out=str(out)) == 1
    assert capsys.readouterr().err == (
        f"config error: {block}: {experiment} does not read this block\n")
    assert not out.exists()


def test_every_unread_block_is_named_in_one_error(tmp_path, capsys):
    cfg = dict(shipped("gibbs_solve_nn.json"), routes=["lge"],
               schedule=_BLOCK_BODIES["schedule"])
    out = tmp_path / "out"
    assert cli.run(write_config(tmp_path, cfg), out=str(out)) == 1
    assert capsys.readouterr().err == (
        "config error: routes: gibbs-solve does not read this block; "
        "schedule: gibbs-solve does not read this block\n")
    assert not out.exists()
    # a block left at its schema default is not given, and not an error
    assert "routes" not in cli.read_config(shipped("gibbs_solve_nn.json"))


@pytest.mark.parametrize("sweep, message", [
    ({"n": [8, 16]}, "sweep.n: {} trains on one dataset, got 2 sizes"),
    ({"replicates": 50},
     "sweep.replicates: {} trains on one dataset, not replicates"),
    ({"n": [8, 16, 32], "replicates": 2},
     "sweep.n: {} trains on one dataset, got 3 sizes; "
     "sweep.replicates: {} trains on one dataset, not replicates"),
])
@pytest.mark.parametrize("experiment", ["gibbs-solve", "mfld-vs-grid"])
def test_single_dataset_experiments_refuse_sweep_keys_they_ignore(
        tmp_path, capsys, monkeypatch, experiment, sweep, message):
    # both train on the first size alone: a second size or a replicate
    # count would go unread
    def no_work(*args, **kwargs):
        raise AssertionError("the experiment trained")

    for name in ("solve_gibbs", "mfld_sample"):
        monkeypatch.setattr(cli.gibbs, name, no_work)
    monkeypatch.setattr(cli.genbench.GridGibbsTrainer, "solve", no_work)
    cfg = experiment_cfg(experiment)
    assert "replicates" not in cfg["sweep"]
    cfg["sweep"].update(sweep)
    out = tmp_path / "out"
    assert cli.run(write_config(tmp_path, cfg), out=str(out)) == 1
    assert capsys.readouterr().err == (
        f"config error: {message.format(experiment, experiment)}\n")
    assert not out.exists()


def test_a_route_given_twice_is_an_error(tmp_path, capsys):
    cfg = dict(shipped("gen_sweep_explicit.json"),
               routes=["direct", "resampled", "direct", "resampled"])
    out = tmp_path / "out"
    assert cli.run(write_config(tmp_path, cfg), out=str(out)) == 1
    assert capsys.readouterr().err == (
        "config error: routes: 'direct' is given twice\n")
    assert not out.exists()
    # numbers and points may repeat: only a list of choices holds each once
    cfg = json.loads(json.dumps(SWEEP_CFG))
    cfg["population"] = {"name": "discrete",
                         "points": [{"x": [1.0, 1.0], "y": 0.5}] * 2,
                         "probs": [0.5, 0.5]}
    read = cli.read_config(cfg).population
    assert read.probs == (0.5, 0.5) and read.points[0].x == (1.0, 1.0)
    assert len(read.points) == 2


def _perfbench_configs(tmp_path):
    """The experiment configs the benchmark's CLI workloads generate."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    bodies = []
    for cls in workloads.WORKLOADS.values():
        if issubclass(cls, workloads._CliWorkload):
            work = cls(1, tmp_path)
            work.setup()
            bodies += [body for _, body in work.configs]
    return bodies


def test_shipped_and_benchmark_configs_hold_only_blocks_they_read(tmp_path):
    bodies = [json.loads(p.read_text()) for p in CONFIGS.glob("*.json")]
    generated = _perfbench_configs(tmp_path)
    assert len(generated) >= 6
    for body in bodies + generated:
        assert set(body) <= _reads(body["experiment"]), body["id"]
        # distinct routes, and one dataset where the experiment trains one
        cfg = cli.read_config(body)
        if body["experiment"] in ("gibbs-solve", "mfld-vs-grid"):
            cli._one_dataset(cfg, cli.build_population(cfg), cfg.sweep.seed)


@pytest.mark.parametrize("config, block, key, value, selected", [
    ("gibbs_solve_nn.json", "trainer", "sigma_tilde", 3.0,
     "kind 'gibbs_grid'"),
    ("gibbs_solve_nn.json", "trainer", "n_particles", 10, "kind 'gibbs_grid'"),
    ("gen_sweep_explicit.json", "trainer", "damping", 0.5,
     "kind 'explicit_gaussian_mean'"),
    ("gen_sweep_explicit.json", "trainer", "n_steps", 10,
     "kind 'explicit_gaussian_mean'"),
    ("gen_sweep_explicit.json", "population", "slope", 1.0, "name 'gaussian'"),
    ("gen_sweep_explicit.json", "population", "points", [{"y": 0.0}],
     "name 'gaussian'"),
    ("gen_sweep_explicit.json", "population", "probs", [1.0],
     "name 'gaussian'"),
    ("gibbs_solve_nn.json", "population", "mu", 0.5, "name 'noiseless_line'"),
    ("gen_sweep_explicit.json", "model", "activation", "relu",
     "variant 'expected_param'"),
    ("gen_sweep_explicit.json", "model", "outer", "logcosh",
     "variant 'expected_param'"),
    ("gibbs_solve_nn.json", "model", "param_loss", "zero", "variant 'nn'"),
    ("gaussian_oracle.json", "trainer", "damping", 0.5,
     "kind 'explicit_gaussian_mean'"),
    # gaussian-oracle takes only the gaussian population: a left-out name
    # reads as that one
    (None, "population", "x_sigma", 2.0, "name 'gaussian'"),
])
def test_a_key_the_selected_value_does_not_read_is_an_error(
        tmp_path, capsys, monkeypatch, config, block, key, value, selected):
    def no_work(*args, **kwargs):
        raise AssertionError("the experiment trained")

    monkeypatch.setattr(cli.genbench, "estimate_routes", no_work)
    monkeypatch.setattr(cli.genbench.GridGibbsTrainer, "solve", no_work)
    cfg = shipped(config) if config else json.loads(json.dumps(GAUSS_CFG))
    cfg[block][key] = value
    out = tmp_path / "out"
    assert cli.run(write_config(tmp_path, cfg), out=str(out)) == 1
    assert capsys.readouterr().err == (
        f"config error: {block}.{key}: {selected} does not read this key\n")
    assert not out.exists()


def test_every_unread_key_is_named_in_one_error(tmp_path, capsys):
    cfg = shipped("gen_sweep_explicit.json")
    cfg["trainer"].update(n_steps=10, damping=0.5)
    cfg["population"]["slope"] = 1.0
    cfg["model"]["outer"] = "logcosh"
    out = tmp_path / "out"
    assert cli.run(write_config(tmp_path, cfg), out=str(out)) == 1
    assert capsys.readouterr().err == (
        "config error: trainer.damping: kind 'explicit_gaussian_mean' does "
        "not read this key; trainer.n_steps: kind 'explicit_gaussian_mean' "
        "does not read this key; population.slope: name 'gaussian' does not "
        "read this key; model.outer: variant 'expected_param' does not read "
        "this key\n")
    assert not out.exists()


def test_only_mfld_vs_grid_reads_grid_keys_beside_the_particle_keys(
        tmp_path, capsys):
    # its grid solve reads damping, tol and max_iter; a gen-sweep's
    # particle trainer does not
    cfg = shipped("mfld_vs_grid.json")
    cfg["trainer"].update(damping=0.5, tol=1e-9, max_iter=20)
    t = cli.read_config(cfg).trainer
    assert (t.kind, t.damping, t.tol, t.max_iter) == ("mfld", 0.5, 1e-9, 20)
    cfg = dict(shipped("gen_sweep_gibbs.json"),
               trainer={"kind": "mfld", "n_steps": 10, "damping": 1.0})
    out = tmp_path / "out"
    assert cli.run(write_config(tmp_path, cfg), out=str(out)) == 1
    assert capsys.readouterr().err == (
        "config error: trainer.damping: kind 'mfld' does not read this key\n")
    assert not out.exists()


@pytest.mark.parametrize("experiment, keys, message", [
    ("verify", {"sweep": {"n": [8]}}, "sweep.n: verify does not read this key"),
    ("verify", {"sweep": {"replicates": 4}},
     "sweep.replicates: verify does not read this key"),
    ("verify", {"output": {"csv": "verify.csv"}},
     "output.csv: verify does not read this key"),
    ("verify", {"sweep": {"n": [8], "replicates": 4, "seed": 3},
                "output": {"csv": "verify.csv", "json": "report.json"}},
     "sweep.n: verify does not read this key; sweep.replicates: verify does "
     "not read this key; output.csv: verify does not read this key"),
    ("gen-sweep", {"output": {"json": "never.json"}},
     "output.json: gen-sweep does not read this key"),
    ("gibbs-solve", {"output": {"csv": "never.csv"}},
     "output.csv: gibbs-solve does not read this key"),
    ("gaussian-oracle", {"output": {"json": "never.json"}},
     "output.json: gaussian-oracle does not read this key"),
    ("bounds", {"output": {"json": "never.json"}},
     "output.json: bounds does not read this key"),
    ("mfld-vs-grid", {"output": {"json": "never.json"}},
     "output.json: mfld-vs-grid does not read this key"),
])
def test_a_sweep_or_output_key_the_experiment_does_not_read_is_an_error(
        tmp_path, capsys, monkeypatch, experiment, keys, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(cli._EXPERIMENTS, experiment,
                        (no_work,) + cli._EXPERIMENTS[experiment][1:])
    cfg = experiment_cfg(experiment)
    for block, body in keys.items():
        cfg.setdefault(block, {}).update(body)
    out = tmp_path / "out"
    assert cli.run(write_config(tmp_path, cfg), out=str(out)) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_the_closed_form_trainer_reads_no_gibbs_block(tmp_path, capsys,
                                                      monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the experiment trained")

    monkeypatch.setattr(cli.genbench, "estimate_routes", no_work)
    cfg = dict(shipped("gen_sweep_explicit.json"),
               gibbs={"beta": 0.5, "nodes": 9})
    out = tmp_path / "out"
    assert cli.run(write_config(tmp_path, cfg), out=str(out)) == 1
    assert capsys.readouterr().err == (
        "config error: gibbs: kind 'explicit_gaussian_mean' does not read "
        "this block\n")
    assert not out.exists()
    # a grid trainer in the same experiment reads it
    cfg["trainer"] = {"kind": "gibbs_grid"}
    assert cli.read_config(cfg).gibbs.nodes == 9


@pytest.mark.parametrize("experiment, kind", [
    ("gaussian-oracle", "explicit_gaussian_mean"),
    ("gen-sweep", "gibbs_grid"),
    ("bounds", "gibbs_grid"),
    ("mfld-vs-grid", "mfld"),
    ("gibbs-solve", "gibbs_grid"),
    ("verify", "gibbs_grid"),  # read by no verify check
])
def test_a_config_naming_no_kind_runs_the_first_kind_its_experiment_takes(
        experiment, kind):
    cfg = experiment_cfg(experiment)
    cfg.get("trainer", {}).pop("kind", None)
    trainer = cli.read_config(cfg).trainer
    assert "kind" not in trainer and trainer.kind == kind


def _changed(config, block, **keys):
    cfg = shipped(config)
    cfg[block].update(keys)
    return cfg


@pytest.mark.parametrize("cfg, message", [
    (_changed("mfld_vs_grid.json", "trainer", n_particles=1),
     "config error: trainer.n_particles: must be >= 2, got 1\n"),
    (_changed("gibbs_solve_nn.json", "gibbs", theta_dim=2),
     "config error: gibbs.theta_dim: unknown key\n"),
    # the lge bound resamples two atoms; a schedule runs at n = 1
    (_changed("bounds_gaussian.json", "sweep", n=[1, 5]),
     "config error: sweep.n: bounds needs n >= 2, got 1\n"),
    (dict(shipped("gibbs_solve_nn.json"),
          population={"name": "gaussian", "sigma": 1.0}),
     "config error: model.variant: a network needs data with at least one "
     "feature, and the population has none\n"),
    # a runtime error; the residual depends on the machine
    (_changed("gibbs_solve_nn.json", "trainer", max_iter=1),
     "error: [gibbs_solve_nn] no fixed point after 1 updates; "),
], ids=["n_particles", "theta_dim", "bounds_n", "featureless", "max_iter"])
def test_a_failed_run_leaves_no_output(tmp_path, capsys, cfg, message):
    out = tmp_path / "out" / "nested"
    assert cli.run(write_config(tmp_path, cfg), out=str(out)) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out").exists()


def test_schedules_run_at_one_atom(tmp_path):
    for name in ("schedule_wge.json", "schedule_lge.json"):
        cfg = _changed(name, "sweep", n=[1], replicates=4)
        assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 0
        rows = (tmp_path / name.replace(".json", ".csv")).read_text()
        assert len(rows.splitlines()) == 2


def test_output_names_may_name_subdirectories(tmp_path):
    cfg = dict(GAUSS_CFG, output={"csv": "csv/gauss.csv"})
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path / "a")) == 0
    assert len((tmp_path / "a" / "csv" / "gauss.csv").read_text()
               .splitlines()) == 5


def test_readme_config_table_lists_every_schema_key():
    lines = (Path(__file__).resolve().parents[1] / "README.md") \
        .read_text().splitlines()
    start = lines.index("| block | key | kind | range | default |") + 2
    listed = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        block, key = (cell.strip().strip("`") for cell in line.split("|")[1:3])
        listed.append(("" if block == "(top)" else block, key))

    def leaves(spec, path):
        for key, sub in spec.items():
            if isinstance(sub, dict):
                yield from leaves(sub, f"{path}.{key}".lstrip("."))
            else:
                yield path, key

    assert listed == list(leaves(cli._SCHEMA, ""))


@pytest.mark.parametrize("change, message", [
    ({"id": {"a": 1}}, "id: expected a string, got {'a': 1}"),
    ({"output": {"csv": 5}}, "output.csv: expected a string, got 5"),
    ({"output": {"dir": ["a"]}}, "output.dir: expected a string, got ['a']"),
])
def test_output_names_are_checked_before_any_work(tmp_path, capsys,
                                                  monkeypatch, change,
                                                  message):
    def no_work(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli.genbench, "estimate_routes", no_work)
    cfg = dict(shipped("gen_sweep_explicit.json"), **change)
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_seed_option_stands_in_for_a_missing_sweep_seed(tmp_path, capsys):
    cfg = json.loads(json.dumps(GAUSS_CFG))
    del cfg["sweep"]["seed"]
    path = write_config(tmp_path, cfg)
    assert cli.run(path, out=str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        "config error: sweep.seed: missing required field\n")
    assert not (tmp_path / "gauss.csv").exists()
    assert cli.run(path, seed=3, out=str(tmp_path)) == 0
    rows = (tmp_path / "gauss.csv").read_text().splitlines()[1:]
    assert len(rows) == 4 and all(r.split(",")[4] == "3" for r in rows)


def test_trainer_sigma_tilde_has_one_default():
    cfg = {"trainer": {"kind": "explicit_gaussian_mean"}}
    trainer = cli.build_trainer(cfg, None, None)
    assert trainer.sigma_tilde == 1.0


# ---------------------------------------------------------------------------
# experiments end to end


def test_gaussian_oracle_run_csv(tmp_path, capsys):
    code = cli.run(write_config(tmp_path, GAUSS_CFG), out=str(tmp_path))
    assert code == 0
    lines = (tmp_path / "gauss.csv").read_text().strip().split("\n")
    assert len(lines) == 5  # header + 2 n values x 2 routes
    for line in lines[1:]:
        f = line.split(",")
        assert f[0] == "gauss-test"
        assert f[1] in ("direct", "resampled")
        oracle = float(f[7])
        np.testing.assert_allclose(oracle, 2.0 / int(f[2]))
        assert abs(float(f[5]) - oracle) <= 3 * float(f[6])
        assert f[9] == "true"
    assert "gauss-test" in capsys.readouterr().out


def test_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path, GAUSS_CFG)
    cli.run(path, out=str(tmp_path / "a"))
    cli.run(path, out=str(tmp_path / "b"))
    assert (tmp_path / "a" / "gauss.csv").read_bytes() \
        == (tmp_path / "b" / "gauss.csv").read_bytes()


def test_seed_override_changes_output(tmp_path):
    path = write_config(tmp_path, GAUSS_CFG)
    cli.run(path, out=str(tmp_path / "a"))
    cli.run(path, out=str(tmp_path / "b"), seed=43)
    assert (tmp_path / "a" / "gauss.csv").read_text() \
        != (tmp_path / "b" / "gauss.csv").read_text()


def test_exit_two_when_oracle_misses(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.genbench, "gaussian_mean_oracle",
                        lambda sigma, n: 10.0 * sigma ** 2 / n)
    assert cli.run(write_config(tmp_path, GAUSS_CFG), out=str(tmp_path)) == 2
    rows = (tmp_path / "gauss.csv").read_text().strip().split("\n")[1:]
    assert all(r.endswith("false") for r in rows)


def test_gaussian_oracle_reads_the_population_spread(tmp_path):
    # the trained law's sigma_tilde^2 / n cancels in the gap: 2 sigma^2 / n
    cfg = dict(GAUSS_CFG, population={"mu": 0.0, "sigma": 2.0},
               trainer={"sigma_tilde": 1.0},
               sweep={"n": [10], "replicates": 4000, "seed": 3})
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 0
    rows = [r.split(",") for r in
            (tmp_path / "gauss.csv").read_text().strip().split("\n")[1:]]
    assert [r[1] for r in rows] == ["direct", "resampled"]
    for r in rows:
        assert float(r[7]) == 0.8 and r[9] == "true"


def test_gen_sweep_writes_no_oracle_off_the_gaussian(tmp_path):
    cfg = {
        "experiment": "gen-sweep",
        "id": "line",
        "model": {"variant": "expected_param", "param_loss": "mean_squared"},
        "population": {"name": "noiseless_line", "slope": 0.8},
        "trainer": {"kind": "explicit_gaussian_mean"},
        "routes": ["direct", "resampled"],
        "sweep": {"n": [4], "replicates": 20, "seed": 0},
        "output": {"csv": "line.csv"},
    }
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 0
    rows = [r.split(",") for r in
            (tmp_path / "line.csv").read_text().strip().split("\n")[1:]]
    assert len(rows) == 2 and all(r[7] == "" for r in rows)


def test_gen_sweep_convergence_failure_names_its_replicate(tmp_path, capsys):
    # a loss linear in the measure: the batch of a block checks its one
    # update against tol as the solve does, and no update reaches 1e-300
    cfg = {
        "experiment": "gen-sweep",
        "id": "stalls",
        "model": {"variant": "expected_param", "param_loss": "mean_squared"},
        "population": {"name": "gaussian", "mu": 0.0, "sigma": 1.0},
        "gibbs": {"beta": 0.5, "sigma": 1.0, "p": 4, "kappa": 0.05, "q": 3},
        "trainer": {"kind": "gibbs_grid", "damping": 1.0, "tol": 1e-300},
        "routes": ["direct", "resampled"],
        "sweep": {"n": [4], "replicates": 5, "seed": 3},
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [stalls] ")
    assert "direct, resampled" in err
    assert "n=4, replicate 0, seed 3: GibbsConvergenceError" in err


def test_verify_report_schema(tmp_path):
    code = cli.verify(seed=7, out=str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert len(report) >= 10
    for check in report:
        assert set(check) == {"check_name", "status", "residual",
                              "tolerance"}
        assert check["status"] == "pass"
        assert check["residual"] <= check["tolerance"]


def test_verify_rerun_byte_identical(tmp_path):
    cli.verify(seed=7, out=str(tmp_path / "a"))
    cli.verify(seed=7, out=str(tmp_path / "b"))
    assert (tmp_path / "a" / "verify_report.json").read_bytes() \
        == (tmp_path / "b" / "verify_report.json").read_bytes()


def test_gibbs_solve_writes_json_summary(tmp_path):
    cfg = {
        "experiment": "gibbs-solve",
        "id": "solve",
        "model": {"variant": "expected_param",
                  "param_loss": "linear_regression"},
        "population": {"name": "noiseless_line", "slope": 0.5},
        "gibbs": {"beta": 0.5, "sigma": 1.0, "p": 4, "kappa": 0.05, "q": 3},
        "trainer": {"kind": "gibbs_grid", "damping": 1.0, "tol": 1e-10},
        "sweep": {"n": [8], "seed": 1},
        "output": {"json": "solve.json"},
    }
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 0
    payload = json.loads((tmp_path / "solve.json").read_text())
    assert payload["iterations"] == 1
    assert payload["residual"] <= 1e-10
    assert payload["p_moment"] <= payload["p_moment_bound"] + 1e-6
    assert payload["holds"] is True


def test_expected_parameter_loss_needs_one_parameter_dimension(tmp_path,
                                                               capsys):
    # the shipped parametric losses read theta[:, 0] only: a second axis
    # would multiply the grid by its node count and change nothing else
    cfg = {
        "experiment": "gibbs-solve",
        "id": "solve",
        "model": {"variant": "expected_param", "param_loss": "mean_squared"},
        "population": {"name": "noiseless_line", "slope": 0.5},
        "gibbs": {"beta": 0.5, "p": 4, "nodes": 17},
        "trainer": {"kind": "gibbs_grid", "damping": 1.0, "tol": 1e-10},
        "sweep": {"n": [8], "seed": 1},
        "output": {"json": "solve.json"},
    }
    assert cli._setup(cli.read_config(cfg))[2].theta_dim == 1
    cfg["gibbs"]["theta_dim"] = 2
    assert cli.run(write_config(tmp_path, cfg), out=str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        "config error: gibbs.theta_dim: unknown key\n")
    assert not (tmp_path / "solve.json").exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_bad_seed_override_is_a_config_error(tmp_path, capsys, command, seed):
    args = [command, write_config(tmp_path, GAUSS_CFG)] if command == "run" \
        else [command]
    assert cli.main(args + ["--seed", seed, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("config error: --seed")
    assert not list(tmp_path.glob("*.csv")) \
        and not (tmp_path / "verify_report.json").exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_bad_seed_argument_is_a_config_error(tmp_path, capsys, seed):
    # run() and verify() called from Python check their seed as --seed does
    path = write_config(tmp_path, GAUSS_CFG)
    message = f"config error: seed: expected 0 <= seed < 2**64, got {seed}\n"
    assert cli.run(path, seed=seed, out=str(tmp_path)) == 1
    assert capsys.readouterr().err == message
    assert not list(tmp_path.glob("*.csv"))
    assert cli.verify(seed=seed, out=str(tmp_path)) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "verify_report.json").exists()


def test_main_cli_surface(tmp_path, capsys):
    path = write_config(tmp_path, GAUSS_CFG)
    assert cli.main(["run", path, "--out", str(tmp_path), "--seed", "5"]) == 0
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
    capsys.readouterr()
