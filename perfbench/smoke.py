"""Fast smoke run of the benchmark harness.

Run from the root of a checkout::

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` for one pass with tracing off
and on, and checks that each run succeeds, that the last output line
carries exactly the metrics ``BENCHMARK.json`` lists (with their units),
and that the report line carries every named end-to-end and per-layer
metric.  Prints every end-to-end metric of each workload with its unit
(``null`` where the workload does not exercise it).  Takes about a
minute.
"""

import json
import subprocess
import sys
from pathlib import Path

REPORTED_END_TO_END = {
    "wall_s", "wall_ref", "setup_s", "replicates_per_s", "solves_per_s", "derivs_per_s",
    "particle_steps_per_s", "verify_s", "peak_rss_mb", "error_rate"}
ROUTES = ("wge_direct", "wge_resampled", "lge", "wge_representation",
          "lge_upper_terms", "convex_lower_bound_check",
          "population_risk_bound")
REPORTED_PER_LAYER = {
    *(f"{layer}.{kind}" for layer in (
        "measures.grid_measure", "measures.data_measure", "losses.risk",
        "losses.loss_value", "losses.loss_dm", "gibbs.solve_gibbs",
        "gibbs.gibbs_map", "gibbs.mfld_sample", "funcderiv.dm_dnu",
        "genbench.train", "cli.run") for kind in ("calls", "self_s")),
    *(f"genbench.{r}.{kind}" for r in ROUTES
      for kind in ("calls", "self_s", "us_per_replicate")),
    "gibbs.config_setup_s", "gibbs.solve_gibbs.iterations_per_solve",
    "funcderiv.trained_derivatives.calls", "funcderiv.first_direction_s",
    "funcderiv.next_direction_s", "genbench.replicates",
    "genbench.train.distinct_ratio", "cli.output_bytes",
    "trace.overhead_ratio", "trace.coverage"}
ENVIRONMENT = {"python", "numpy", "scipy", "blas", "blas_threads", "nproc",
               "git_commit", "seed"}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2].removeprefix("perfbench report "))
    return report, json.loads(lines[-1])


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, listed in ((0, bench["end_to_end"]),
                              (1, bench["per_layer"])):
            report, result = run(workload, trace)
            where = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: failures {report['failures']}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                problems.append(f"{where}: metrics {got} != listed {want}")
            named = REPORTED_PER_LAYER if trace else REPORTED_END_TO_END
            missing = named - set(report["metrics"])
            if missing:
                problems.append(f"{where}: report lacks {sorted(missing)}")
            if ENVIRONMENT - set(report["environment"]):
                problems.append(f"{where}: environment lacks "
                                f"{sorted(ENVIRONMENT - set(report['environment']))}")
            print(f"{where}: {len(report['metrics'])} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed")
            if not trace:
                for name in sorted(REPORTED_END_TO_END):
                    m = report["metrics"][name]
                    print(f"  {name} = {json.dumps(m['value'])} {m['unit']}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print("smoke run passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
