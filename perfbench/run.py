"""Benchmark harness for gibbslab.

Run from the root of a checkout::

    python3 perfbench/run.py --workload closed_form_replicates \\
        --seed 1 --seconds 30 --trace 0

The workload is built from ``--seed`` and run pass after pass in this
one process until ``--seconds`` have been spent measuring.  Every output
is checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics from spans with
``--trace 1``.  The line before it is the full report (environment,
every metric with its unit, tail percentiles and sample counts, and any
failures); the same report and, when traced, the spans are written under
``.perfbench_out/<workload>/``.  See ``perfbench/METRICS.md``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# BLAS threads are fixed before numpy is imported; the load is this one
# process on one core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_PROBES = 6

# The metrics of the last output line; BENCHMARK.json lists the same names
# (perfbench/smoke.py checks that).  The report line carries every other
# metric.  A per-layer time is listed only if every workload exercises its
# layer, so that no listed time is a constant zero.
END_TO_END = ("wall_ref", "setup_s", "peak_rss_mb")
PER_LAYER = (
    "measures.grid_measure.calls", "measures.grid_measure.self_s",
    "measures.data_measure.calls", "measures.data_measure.self_s",
    "losses.risk.calls", "losses.risk.self_s",
    "losses.loss_value.calls", "losses.loss_value.self_s",
    "losses.loss_dm.calls",
    "gibbs.solve_gibbs.calls", "gibbs.solve_gibbs.iterations_per_solve",
    "gibbs.gibbs_map.calls", "gibbs.mfld_sample.calls",
    "funcderiv.trained_derivatives.calls", "funcderiv.dm_dnu.calls",
    "genbench.wge_direct.calls", "genbench.wge_resampled.calls",
    "genbench.wge_resampled.self_s", "genbench.wge_resampled.us_per_replicate",
    "genbench.lge.calls", "genbench.wge_representation.calls",
    "genbench.lge_upper_terms.calls", "genbench.convex_lower_bound_check.calls",
    "genbench.population_risk_bound.calls",
    "genbench.train.calls", "genbench.train.self_s", "genbench.replicates",
    "genbench.train.distinct_ratio",
    "cli.run.calls", "cli.verify.calls", "cli.output_bytes",
    "trace.overhead_ratio", "trace.coverage")


def _load_workloads():
    if not (SRC / "gibbslab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gibbslab sources under {SRC}; "
                         "run from the root of a gibbslab checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import gibbslab
    import workloads
    if Path(gibbslab.__file__).resolve().parent != (SRC / "gibbslab").resolve():
        raise SystemExit(f"perfbench: imported gibbslab from "
                         f"{gibbslab.__file__}, not from {SRC}")
    return workloads


def _build(workloads, name, seed):
    out_dir = ROOT / ".perfbench_out" / name
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, out_dir)
    wl.setup()
    return wl, out_dir


# ---------------------------------------------------------------------------
# statistics


def tail(samples):
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"count": n, "median": statistics.median(xs) if xs else None,
           "tail_pct": None, "tail": None}
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            out["tail_pct"], out["tail"] = pct, xs[rank - 1]
            break
    return out


def _rate(units, seconds):
    return units / sum(seconds) if seconds and sum(seconds) > 0 else None


# ---------------------------------------------------------------------------
# environment


def environment(seed):
    import numpy
    import scipy
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unknown: {exc}"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": int(BLAS_THREADS),
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "seed": seed, "machine": platform.machine()}


# ---------------------------------------------------------------------------
# set-up probes


def setup_probe(name, seed):
    """Child mode: time import plus workload set-up in a fresh interpreter."""
    workloads = _load_workloads()
    _build(workloads, name, seed)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


def probe_setup(name, seed):
    """Run set-up probes one at a time in fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# per-layer metrics


LAYER_COUNTS = (
    "measures.grid_measure", "measures.data_measure", "losses.risk",
    "losses.loss_value", "losses.loss_dm", "gibbs.solve_gibbs",
    "gibbs.gibbs_map", "gibbs.mfld_sample", "funcderiv.trained_derivatives",
    "funcderiv.dm_dnu", "genbench.train", "cli.run", "cli.verify")
ROUTES = ("wge_direct", "wge_resampled", "lge", "wge_representation",
          "lge_upper_terms", "convex_lower_bound_check",
          "population_risk_bound")
LAYER_SELF = tuple(n for n in LAYER_COUNTS
                   if n not in ("funcderiv.trained_derivatives",))


def layer_metrics(tracer, setup_range, pass_ranges, pass_times,
                  untraced_times, out_dir):
    """Per-layer metrics from the traced passes.

    Counts come from the first traced pass (every traced pass must give
    the same counts); times are medians over the traced passes.
    """
    from tracing import summarize
    summaries = [summarize(tracer, lo, hi) for lo, hi in pass_ranges]
    first = summaries[0]
    setup = summarize(tracer, *setup_range)

    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in LAYER_COUNTS:
        put(f"{name}.calls", first["calls"].get(name, 0), "count")
    for name in LAYER_SELF:
        put(f"{name}.self_s",
            med(lambda s, k=name: s["self"].get(k, 0.0)), "s")
    put("gibbs.config_setup_s", setup["total"].get("gibbs.config", 0.0), "s")
    its = first["iterations"]
    put("gibbs.solve_gibbs.iterations_per_solve",
        sum(its) / len(its) if its else 0.0, "iterations")
    firsts = [t for s in summaries for t in s["directions"]["first"]]
    nexts = [t for s in summaries for t in s["directions"]["next"]]
    put("funcderiv.first_direction_s",
        statistics.median(firsts) if firsts else 0.0, "s")
    put("funcderiv.next_direction_s",
        statistics.median(nexts) if nexts else 0.0, "s")
    total_reps = 0
    for route in ROUTES:
        key = f"genbench.{route}"
        reps = first["replicates"].get(key, 0)
        total_reps += reps
        put(f"{key}.calls", first["calls"].get(key, 0), "count")
        self_s = med(lambda s, k=key: s["self"].get(k, 0.0))
        put(f"{key}.self_s", self_s, "s")
        put(f"{key}.us_per_replicate",
            1e6 * self_s / reps if reps else 0.0, "us")
    put("genbench.replicates", total_reps, "count")
    put("genbench.train.distinct_ratio",
        first["train_distinct"] / first["train_calls"]
        if first["train_calls"] else 0.0, "ratio")
    put("cli.output_bytes", sum(p.stat().st_size for p in out_dir.rglob("*")
                                if p.is_file() and p.suffix in (".csv", ".json")
                                and not p.name.endswith(".config.json")
                                and not p.name.startswith("report")),
        "bytes")
    put("trace.overhead_ratio",
        statistics.median(pass_times) / statistics.median(untraced_times),
        "ratio")
    put("trace.coverage",
        sum(s["top_level_s"] for s in summaries) / sum(pass_times), "ratio")
    stable = all(s["calls"] == first["calls"]
                 and s["iterations"] == first["iterations"]
                 and s["train_distinct"] == first["train_distinct"]
                 for s in summaries)
    return m, stable


# ---------------------------------------------------------------------------
# main


def measure(workloads, name, seed, seconds, trace):
    """Set up the workload, then run passes until ``seconds`` have passed.

    With tracing, passes alternate untraced and traced, starting untraced,
    and at least one of each runs.
    """
    import reference
    import tracing
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    wl, out_dir = _build(workloads, name, seed)
    setup_s = time.perf_counter() - _T0
    setup_range = (0, len(tracer)) if tracer is not None else None

    rec = workloads.Recorder(name, tracer, reference.timer(wl.REFERENCE))
    untraced, traced, traced_ranges, norm = [], [], [], []
    start = time.perf_counter()
    while True:
        traced_pass = trace and len(untraced) > len(traced)
        if tracer is not None:
            tracer.active = traced_pass
        lo = len(tracer) if tracer is not None else 0
        rec.pass_time = rec.pass_norm = 0.0
        wl.run_pass(rec)
        rec.end_pass()
        if traced_pass:
            traced.append(rec.pass_time)
            traced_ranges.append((lo, len(tracer)))
        else:
            untraced.append(rec.pass_time)
            norm.append(rec.pass_norm)
        done = time.perf_counter() - start >= seconds
        if done and (not trace or traced):
            break
    if tracer is not None:
        tracer.active = False
    return (wl, out_dir, rec, setup_s, untraced, traced, tracer, setup_range,
            traced_ranges, norm)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    workloads = _load_workloads()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; expected one of "
                 f"{sorted(workloads.WORKLOADS)}")
    (wl, out_dir, rec, setup_s, untraced, traced, tracer, setup_range,
     traced_ranges, norm) = measure(workloads, args.workload, args.seed,
                                    args.seconds, args.trace)

    report = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(args.seed),
              "passes": {"untraced": len(untraced), "traced": len(traced)},
              "attempted": rec.attempted, "failed": rec.failed,
              "error_rate": rec.failed / max(rec.attempted, 1),
              "failures": rec.failures,
              "statistical_checks": rec.stat_checks,
              "statistical_misses": rec.stat_misses}
    kinds = {k: tail(v) for k, v in rec.samples.items() if v}
    pass_stats = tail(untraced)
    report["operations"] = kinds
    report["wall"] = pass_stats
    report["pass_times"] = untraced
    report["pass_ref_units"] = norm
    report["reference"] = {"kernel": wl.REFERENCE, **tail(rec.refs)}

    if args.trace:
        metrics, stable = layer_metrics(tracer, setup_range,
                                        traced_ranges, traced, untraced,
                                        out_dir)
        report["counts_stable"] = stable
        tracer.uninstall()
        tracer.dump(out_dir / "spans.jsonl")
    else:
        setups = [setup_s] + probe_setup(args.workload, args.seed)
        report["setup"] = {"samples": setups, **tail(setups)}
        s = rec.samples
        u = rec.units
        named = {
            "wall_s": (pass_stats["median"], "s"),
            "wall_ref": (statistics.median(norm), "ref"),
            "setup_s": (statistics.median(setups), "s"),
            "replicates_per_s": (_rate(u["cli_run"], s["cli_run"]), "1/s"),
            "solves_per_s": (_rate(u["solve"], s["solve"]), "1/s"),
            "derivs_per_s": (_rate(u["deriv"], s["deriv"]), "1/s"),
            "particle_steps_per_s": (_rate(u["mfld"], s["mfld"]), "1/s"),
            "verify_s": (statistics.median(s["verify"])
                         if s["verify"] else None, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "error_rate": (rec.failed / max(rec.attempted, 1), "1"),
        }
        metrics = {k: {"value": v, "unit": unit}
                   for k, (v, unit) in named.items()}

    report["metrics"] = metrics
    (out_dir / f"report_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print("perfbench report " + json.dumps(report))
    listed = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed,
                      "metrics": {k: metrics[k] for k in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
