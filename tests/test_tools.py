"""Tests for the command-line tools under ``tools/`` and for the
benchmark's trace mode."""

import importlib.util
import json
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

_CSV = ("experiment_id,route,n,replicates,seed,estimate,stderr\n"
        "e,direct,5,100,1,0.40000000000000002,0.01\n"
        "e,resampled,5,100,1,0.5,0.02\n")
_JSON = {"checks": [{"name": "a", "residual": 1e-13}], "passed": True}


def _outputs(path: Path, csv_text: str) -> Path:
    path.mkdir()
    (path / "sweep.csv").write_text(csv_text)
    (path / "verify.json").write_text(json.dumps(_JSON))
    return path


def _diff(parent: Path, change: Path):
    return subprocess.run([sys.executable, str(TOOLS / "output_digest.py"),
                           "diff", str(parent), str(change)],
                          capture_output=True, text=True)


def test_output_digest_diff_passes_identical_outputs(tmp_path):
    proc = _diff(_outputs(tmp_path / "a", _CSV), _outputs(tmp_path / "b", _CSV))
    assert proc.returncode == 0
    assert proc.stdout == "0 differing fields in 2 files\n"


def test_output_digest_diff_names_a_moved_field(tmp_path):
    moved = _CSV.replace("0.5,0.02", "0.55000000000000004,0.02")
    proc = _diff(_outputs(tmp_path / "a", _CSV),
                 _outputs(tmp_path / "b", moved))
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "sweep.csv\t1\testimate\t0.5\t0.55000000000000004\t0.1",
        "sweep.csv: largest relative difference 0.1",
        "1 differing fields in 2 files"]


def test_output_digest_diff_names_a_moved_demo_line(tmp_path):
    demo = ("outer loss 'quadratic':\n"
            "   2 quadrature nodes -> residual 9.71e-17\n"
            "   4 quadrature nodes -> residual 9.71e-17\n")
    parent, change = (_outputs(tmp_path / d, _CSV) for d in "ab")
    (parent / "demo_identity.txt").write_text(demo)
    (change / "demo_identity.txt").write_text(
        demo.replace("4 quadrature nodes -> residual 9.71e-17",
                     "4 quadrature nodes -> residual 1.02e-16"))
    proc = _diff(parent, change)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "demo_identity.txt\t3\tline"
        "\t   4 quadrature nodes -> residual 9.71e-17"
        "\t   4 quadrature nodes -> residual 1.02e-16\t-",
        "1 differing fields in 3 files"]


# a benchmark that generates one CLI config and has one other workload
_WORKLOADS = '''import json


class _CliWorkload:
    def __init__(self, seed, out_dir):
        self.out_dir, self.configs = out_dir, []

    def setup(self):
        body = {"experiment": "gaussian-oracle", "id": "tiny",
                "population": {"sigma": 1.0}, "sweep": {"n": [5],
                "replicates": 20, "seed": 1}}
        path = self.out_dir / "tiny.config.json"
        path.write_text(json.dumps(body))
        self.configs.append((path, body))


class Tiny(_CliWorkload):
    pass


class Direct:
    pass


WORKLOADS = {"tiny": Tiny, "direct": Direct}
'''


def test_output_digest_runs_and_compares_the_benchmark_configs(tmp_path):
    root = tmp_path / "root"
    for sub in ("configs", "demos", "perfbench"):
        (root / sub).mkdir(parents=True)
    (root / "src").symlink_to(TOOLS.parent / "src")
    (root / "perfbench" / "workloads.py").write_text(_WORKLOADS)
    parent, change = tmp_path / "a", tmp_path / "b"
    subprocess.run([sys.executable, str(TOOLS / "output_digest.py"), "run",
                    str(parent), "--repo", str(root)], check=True,
                   capture_output=True)
    assert json.loads((parent / "exit_codes.json").read_text()) == {
        "verify": 0, "perfbench/tiny.config.json": 0}
    rows = (parent / "perfbench" / "tiny.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[1].startswith("tiny,direct,5,20,1,")
    # the generated configs stay out of the outputs
    assert sorted(p.name for p in (parent / "perfbench").iterdir()) \
        == ["tiny.csv"]
    shutil.copytree(parent, change)
    moved = rows[2].split(",")
    moved[5] = "0.5"
    (change / "perfbench" / "tiny.csv").write_text(
        "\n".join(rows[:2] + [",".join(moved)]) + "\n")
    proc = _diff(parent, change)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0].startswith(
        "perfbench/tiny.csv\t1\testimate\t")


_MODULE = '''def used():
    return 1


def unused():
    return 2


class K:
    def method(self, x):
        if x:
            return 3
        return 4
'''


def _load_traffic():
    spec = importlib.util.spec_from_file_location("_traffic",
                                                  TOOLS / "traffic.py")
    traffic = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traffic)
    return traffic


def test_traffic_report_names_unrun_code_and_counts_lines(tmp_path):
    traffic = _load_traffic()
    pkg = tmp_path / "src" / "gibbslab"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(_MODULE)
    (pkg / "other.py").write_text("X = 1\n\nY = 2\n")
    ran = {(pkg / "mod.py").resolve(): {1, 2, 11, 13},
           (pkg / "other.py").resolve(): {1, 3}}
    assert traffic.report(pkg, ran).splitlines() == [
        "mod.unused",
        "1 functions not entered",
        "mod: 13 lines, 5 of 9 executable lines not run: 5-6, 9-10, 12",
        "other: 3 lines, 0 of 2 executable lines not run",
        "src/gibbslab: 16 lines"]


_THREADED = '''import threading


def on_helper():
    return 1


def main():
    helper = threading.Thread(target=on_helper)
    helper.start()
    helper.join()
'''


def test_traffic_traces_functions_entered_only_on_a_thread(tmp_path):
    traffic = _load_traffic()
    pkg = tmp_path / "src" / "gibbslab"
    pkg.mkdir(parents=True)
    path = pkg / "threaded.py"
    path.write_text(_THREADED)
    spec = importlib.util.spec_from_file_location("_threaded", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    ran = traffic.trace_lines(mod.main)
    assert 5 in ran[path.resolve()]
    assert traffic.report(pkg, ran).splitlines()[0] \
        == "0 functions not entered"


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("_bench_pairs",
                                                  TOOLS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def _commit(repo: Path, message: str) -> None:
    _git(repo, "add", "-A")
    _git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm",
         message)


def test_bench_pairs_runs_a_snapshot_of_the_working_tree(tmp_path,
                                                         monkeypatch):
    bench_pairs = _bench_pairs()
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "tracked.py").write_text("A = 1\n")
    _commit(repo, "base")
    (repo / "tracked.py").write_text("A = 2\n")
    (repo / "new.py").write_text("B = 3\n")
    (repo / "__pycache__").mkdir()
    (repo / "__pycache__" / "tracked.pyc").write_bytes(b"\0")
    status = _git(repo, "status", "--porcelain")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    side = bench_pairs._extract(bench_pairs._worktree(), tmp_path / "side")
    # edits and untracked files run, ignored ones do not, and the
    # repository's own index is left as it was
    assert sorted(p.name for p in side.iterdir()) == [".gitignore", "new.py",
                                                      "tracked.py"]
    assert (side / "tracked.py").read_text() == "A = 2\n"
    assert _git(repo, "status", "--porcelain") == status


# exits with the code in the side's file ``code`` after holding 40 MB
_EXIT_WITH_CODE = (f"{shlex.quote(sys.executable)} -c \"import sys; "
                   "b = bytearray(40 << 20); "
                   "sys.exit(int(open('code').read()))\"")


def _two_sides(tmp_path, parent_code: str, change_code: str) -> Path:
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    for side, code in (("parent", parent_code), ("change", change_code)):
        (repo / "code").write_text(code)
        (repo / "side").write_text(side)
        _commit(repo, side)
    return repo


def test_bench_pairs_wall_refuses_pairs_that_exit_differently(tmp_path,
                                                              monkeypatch):
    bench_pairs = _bench_pairs()
    monkeypatch.setattr(bench_pairs, "ROOT", _two_sides(tmp_path, "3", "0"))
    with pytest.raises(RuntimeError, match=r"--wall fail pair 1: parent "
                                           r"exited 3, change 0: "):
        bench_pairs.main(["--parent", "HEAD~1", "--change", "HEAD",
                          "--label", "t", "--wall", "fail=" + _EXIT_WITH_CODE,
                          "--wall-pairs", "1"])


def test_bench_pairs_wall_records_peak_rss(tmp_path, monkeypatch):
    bench_pairs = _bench_pairs()
    repo = _two_sides(tmp_path, "2", "2")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    # both sides exit 2, as gaussian-oracle does when a 3-SE test misses
    assert bench_pairs.main(["--parent", "HEAD~1", "--change", "HEAD",
                             "--label", "t", "--wall-pairs", "2",
                             "--wall", "hold=" + _EXIT_WITH_CODE]) == 0
    wall = json.loads((repo / "BENCH_t.json").read_text())[
        "end_to_end_wall"]["hold"]
    for row in wall["runs"]:
        for side in ("parent", "change"):
            assert row[side]["exit"] == 2
            assert row[side]["peak_rss_mb"] >= 40
    assert wall["summary"]["peak_rss_mb"]["pairs"] == 2


# a benchmark run that spends 0.1 s of CPU, sleeps 0.1 s and prints the
# last line of perfbench/run.py
_STUB_RUN = '''import json, time
while time.process_time() < 0.1:
    pass
time.sleep(0.1)
print(json.dumps({"attempted": 1, "failed": 0, "metrics": {
    name: {"value": 1.0} for name in ("wall_ref", "setup_s",
                                      "peak_rss_mb")}}))
'''


def test_bench_pairs_records_the_cpu_time_of_each_run(tmp_path,
                                                      monkeypatch):
    bench_pairs = _bench_pairs()
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    _git(repo, "init", "-q")
    (repo / "perfbench" / "workloads.py").write_text(
        "WORKLOADS = {'w': None}\n")
    (repo / "perfbench" / "run.py").write_text(_STUB_RUN)
    for side in ("parent", "change"):
        (repo / "side").write_text(side)
        _commit(repo, side)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    assert bench_pairs.main(["--parent", "HEAD~1", "--change", "HEAD",
                             "--label", "t", "--workload", "w",
                             "--seeds", "1,2", "--seconds", "0.1"]) == 0
    report = json.loads((repo / "BENCH_t.json").read_text())["workloads"]
    for row in report["w"]["runs"]:
        for side in ("parent", "change"):
            run = row[side]
            # one thread: the spin is CPU time, the sleep is not
            assert run["cpu_s"] >= 0.1
            assert run["run_wall_s"] >= 0.2
            assert run["cpu_per_wall"] == run["cpu_s"] / run["run_wall_s"]
            assert run["cpu_per_wall"] < 1.0
    summary = report["w"]["summary"]
    assert summary["cpu_s"]["pairs"] == summary["cpu_per_wall"]["pairs"] == 2


def test_bench_pairs_refuses_unknown_workloads_before_any_run(
        tmp_path, monkeypatch, capsys):
    bench_pairs = _bench_pairs()
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    _git(repo, "init", "-q")
    for names in ("'a', 'b'", "'a', 'b', 'c'"):
        (repo / "perfbench" / "workloads.py").write_text(
            f"WORKLOADS = dict.fromkeys([{names}])\n")
        _commit(repo, names)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    ran = []
    monkeypatch.setattr(bench_pairs, "_bench", lambda side, workload, seed,
                        seconds: ran.append((side.name, workload)) or {})
    argv = ["--parent", "HEAD~1", "--change", "HEAD", "--label", "t"]
    # c is only in the change, and a comma list is no workload's name
    for bad, named in (("c", "c"), ("a,b", "a,b")):
        with pytest.raises(SystemExit) as info:
            bench_pairs.main(argv + ["--workload", "a", "--workload", bad])
        assert info.value.code == 2
        assert (f"unknown workload {named} in the parent tree; its "
                f"workloads are a, b" in capsys.readouterr().err)
    assert ran == []
    assert bench_pairs.main(argv + ["--workload", "b", "--workload",
                                    "a"]) == 0
    assert ran == [("parent", "b"), ("change", "b"), ("parent", "a"),
                   ("change", "a")]


def test_benchmark_tracer_installs_and_restores_every_name():
    # `perfbench/run.py --trace 1` wraps library names in place; a name it
    # wraps that the library dropped would only show as a crash there
    spec = importlib.util.spec_from_file_location(
        "_tracing", TOOLS.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patches
    for kind, owner, key, orig in patches:
        assert (owner[key] if kind == "item" else vars(owner)[key]) is orig
