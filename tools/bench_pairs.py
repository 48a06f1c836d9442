"""Compare a parent commit and a change with alternating benchmark pairs.

Usage, from the root of a checkout::

    python tools/bench_pairs.py --parent REF --label LABEL \\
        --workload closed_form_replicates --seeds 11,12,13 [--seconds 30] \\
        [--change REF] [--wall NAME=COMMAND --wall-pairs 3] [--what TEXT]

The parent ref and the change ref, when given, otherwise a snapshot of
this checkout's working tree (tracked and untracked files that git does
not ignore, staged or not), are each extracted with ``git archive`` into
a temporary directory.  So each side runs from a fresh tree with no
``__pycache__``, and no ref or index of the repository changes.  Each
``--workload`` (the option repeats) must be a key of ``WORKLOADS`` in
both sides' ``perfbench/workloads.py``, which is imported without
writing bytecode; otherwise the tool exits with the valid names before
any run.  For every workload and seed, one pair of
``perfbench/run.py --trace 0`` runs is made, alternating which side runs
first; each run records the end-to-end metrics of its last output line,
its wall time and its CPU time.  Each ``--wall`` command is run
``--wall-pairs`` times per side through the shell, in the side's
directory with ``PYTHONPATH`` set to its ``src``; ``{out}`` in the
command is replaced by a fresh output directory.  Each run records its
wall time, exit code, peak RSS and CPU time.  CPU time is user plus
system time (``os.wait4``, which also gives ``ru_maxrss``) of the child
and the processes it waited for, and ``cpu_per_wall`` its ratio to the
run's wall time: above 1 only where threads or processes ran in
parallel, such as numpy kernels on a multithreaded BLAS or a child
process beside its parent.
A pair whose two sides exit with different codes, or in which a side
ends by a signal, is an error, so a command that fails fast cannot win
its pairs.  The tool prints each side's median and quartiles, the
change's wins and the parent's interquartile range for every metric,
and writes (or updates) ``BENCH_<label>.json``.
"""

import argparse
import json
import os
import platform
import shlex
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _extract(ref: str, dest: Path) -> Path:
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    with archive.open("wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", ref], stdout=fh,
                       check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def _worktree() -> str:
    """A tree object of the working tree, built in a scratch index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git = ["git", "-C", str(ROOT)]
        subprocess.run(git + ["add", "-A"], env=env, check=True)
        return subprocess.run(git + ["write-tree"], env=env, check=True,
                              capture_output=True, text=True).stdout.strip()


def _workload_names(side: Path) -> list:
    """The keys of ``WORKLOADS`` in the side's ``perfbench/workloads.py``."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import sys; sys.path[:0] = "
         "['perfbench', 'src']; import workloads; "
         "print(*workloads.WORKLOADS)"],
        cwd=side, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{side}: cannot read perfbench/workloads.py:\n"
                           f"{proc.stderr[-2000:]}")
    return proc.stdout.split()


def _run(args, side: Path, stdout=subprocess.DEVNULL,
         stderr=subprocess.DEVNULL, **popen):
    """Run ``args`` in ``side`` to its end: ``(exit code, wall seconds,
    usage)``, ``usage`` the ``os.wait4`` resource use of the child and of
    the processes it waited for."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, cwd=side, stdout=stdout, stderr=stderr,
                            **popen)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def _cpu(wall: float, usage) -> dict:
    """User plus system seconds, and their ratio to the wall time."""
    cpu = usage.ru_utime + usage.ru_stime
    return {"cpu_s": cpu, "cpu_per_wall": cpu / wall}


def _bench(side: Path, workload: str, seed: int, seconds: float) -> dict:
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        code, wall, usage = _run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            side, out, err)
        out.seek(0)
        err.seek(0)
        if code != 0:
            raise RuntimeError(f"{side}: {workload} seed {seed} failed:\n"
                               f"{err.read()[-2000:]}")
        last = json.loads(out.read().strip().splitlines()[-1])
    row = {k: v["value"] for k, v in last["metrics"].items()}
    row.update(attempted=last["attempted"], failed=last["failed"],
               run_wall_s=wall, **_cpu(wall, usage))
    return row


def _wall(side: Path, command: str, scratch: Path) -> dict:
    out = Path(tempfile.mkdtemp(dir=scratch))
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    code, wall, usage = _run(command.replace("{out}", shlex.quote(str(out))),
                             side, shell=True, env=env)
    return {"wall_s": wall, "exit": code,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, **_cpu(wall, usage)}


def _check_exits(name: str, command: str, row: dict) -> None:
    """Refuse a pair whose sides exit differently or by a signal (a
    negative code); equal codes, such as 2 for a missed 3-SE test, pass."""
    par, chg = row["parent"]["exit"], row["change"]["exit"]
    if par != chg or min(par, chg) < 0:
        raise RuntimeError(f"--wall {name} pair {row['pair']}: parent "
                           f"exited {par}, change {chg}: {command}")


def _summary(runs: list, metrics) -> dict:
    out = {}
    for name in metrics:
        pairs = [(r["parent"][name], r["change"][name]) for r in runs
                 if name in r["parent"] and name in r["change"]]
        if not pairs:
            continue
        par, chg = (np.array(side, dtype=float) for side in zip(*pairs))
        pq = np.percentile(par, [25, 50, 75])
        cq = np.percentile(chg, [25, 50, 75])
        out[name] = {"parent_q1_median_q3": pq.tolist(),
                     "change_q1_median_q3": cq.tolist(),
                     "change_wins": int((chg < par).sum()),
                     "pairs": len(pairs),
                     "parent_iqr": float(pq[2] - pq[0]),
                     "median_gap_exceeds_parent_iqr":
                         bool(pq[1] - cq[1] > pq[2] - pq[0])}
    return out


def _print(title: str, summary: dict) -> None:
    print(f"== {title}")
    for name, s in summary.items():
        p, c = s["parent_q1_median_q3"], s["change_q1_median_q3"]
        print(f"  {name}: parent {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}]  "
              f"change {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}]  "
              f"wins {s['change_wins']}/{s['pairs']}  "
              f"parent IQR {s['parent_iqr']:.3g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default=None,
                    help="ref of the change (default: this working tree)")
    ap.add_argument("--label", required=True)
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--wall", action="append", default=[],
                    metavar="NAME=COMMAND")
    ap.add_argument("--wall-pairs", type=int, default=3)
    ap.add_argument("--what", default="")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]

    path = ROOT / f"BENCH_{args.label}.json"
    report = json.loads(path.read_text()) if path.exists() else {
        "label": args.label, "what": args.what}
    if args.what:
        report["what"] = args.what
    report["command"] = ("python3 perfbench/run.py --workload W --seed S "
                         f"--seconds {args.seconds:g} --trace 0, alternating "
                         "which side runs first")
    report["environment"] = {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine()}

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = {"parent": _extract(args.parent, tmp / "parent"),
                 "change": _extract(args.change or _worktree(),
                                    tmp / "change")}
        for name, side in sides.items() if args.workload else ():
            known = _workload_names(side)
            unknown = [w for w in args.workload if w not in known]
            if unknown:
                ap.error(f"unknown workload {', '.join(unknown)} in the "
                         f"{name} tree; its workloads are {', '.join(known)}")
        for workload in args.workload:
            runs = []
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 \
                    else ("change", "parent")
                row = {"pair": k + 1, "seed": seed, "first": order[0]}
                for side in order:
                    row[side] = _bench(sides[side], workload, seed,
                                       args.seconds)
                runs.append(row)
                print(json.dumps(row), flush=True)
            summary = _summary(runs, ("wall_ref", "setup_s", "peak_rss_mb",
                                      "cpu_s", "cpu_per_wall"))
            report.setdefault("workloads", {})[workload] = {
                "summary": summary, "runs": runs}
            _print(workload, summary)
        for spec in args.wall:
            name, command = spec.split("=", 1)
            runs = []
            for k in range(args.wall_pairs):
                order = ("parent", "change") if k % 2 == 0 \
                    else ("change", "parent")
                row = {"pair": k + 1, "first": order[0]}
                for side in order:
                    row[side] = _wall(sides[side], command, tmp)
                print(json.dumps(row), flush=True)
                _check_exits(name, command, row)
                runs.append(row)
            summary = _summary(runs, ("wall_s", "peak_rss_mb", "cpu_s",
                                      "cpu_per_wall"))
            report.setdefault("end_to_end_wall", {})[name] = {
                "command": command, "summary": summary, "runs": runs}
            _print(name, summary)
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
