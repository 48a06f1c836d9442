"""Run every shipped config, ``gibbslab verify``, every demo and the
benchmark's generated configs, or compare two such runs.

Usage, from any directory::

    python tools/output_digest.py run OUT_DIR [--repo ROOT]
    python tools/output_digest.py diff PARENT_DIR CHANGE_DIR

``run`` executes ``ROOT/configs/*.json``, ``verify`` and
``ROOT/demos/*.py`` with the package in ``ROOT/src`` (ROOT defaults to
this checkout), writes the stdout of each demo to
``OUT_DIR/demo_<name>.txt`` and records each exit code in
``OUT_DIR/exit_codes.json``.  It then runs the configs that the CLI
workloads of ``ROOT/perfbench/workloads.py`` generate at seed 0, with
their results in ``OUT_DIR/perfbench``; that file is imported, never
written to.  ``diff`` compares every result file under the two
directories and prints one tab-separated line per
differing ``(file, row, field, parent, change, relative)``, where
``relative`` is ``|change - parent| / |parent|`` for two numbers and
``-`` otherwise, then each file's largest relative difference; JSON
files are flattened to dotted paths, and a demo's stdout is compared
line by line, its row the 1-based line number and its field ``line``.
It exits 1 when anything differs.
"""

import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _benchmark_configs(root: Path, tmp: Path) -> list:
    """Paths of the configs the CLI workloads generate at seed 0."""
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location(
        "_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    paths = []
    for cls in workloads.WORKLOADS.values():
        if issubclass(cls, workloads._CliWorkload):
            work = cls(0, tmp)
            work.setup()
            paths += [path for path, _ in work.configs]
    return paths


def run(out: Path, root: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def gibbslab(*args, out=out):
        return subprocess.run([sys.executable, "-m", "gibbslab", *args,
                               "--out", str(out)], env=env).returncode

    codes = {p.name: gibbslab("run", str(p))
             for p in sorted((root / "configs").glob("*.json"))}
    codes["verify"] = gibbslab("verify")
    for demo in sorted((root / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], env=env,
                              stdout=subprocess.PIPE, text=True)
        (out / f"demo_{demo.stem}.txt").write_text(proc.stdout)
        codes[f"demos/{demo.name}"] = proc.returncode
    with tempfile.TemporaryDirectory() as tmp:
        for path in _benchmark_configs(root, Path(tmp)):
            codes[f"perfbench/{path.name}"] = gibbslab(
                "run", str(path), out=out / "perfbench")
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


def _flatten(node, path=""):
    if isinstance(node, dict):
        items = [(f"{path}.{k}", v) for k, v in node.items()]
    elif isinstance(node, list):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(node)]
    else:
        return {path: node}
    return {k: v for p, child in items for k, v in _flatten(child, p).items()}


def _records(path: Path) -> dict:
    """``(row, field) -> value`` of a CSV, ``("", path) -> value`` of JSON,
    ``(line, "line") -> text`` of a demo's stdout."""
    if not path.exists():
        return {}
    if path.suffix == ".txt":
        return {(i, "line"): line for i, line
                in enumerate(path.read_text().splitlines(), start=1)}
    if path.suffix == ".csv":
        with path.open() as fh:
            return {(i, f): v for i, row in enumerate(csv.DictReader(fh))
                    for f, v in row.items()}
    return {("", k): v for k, v in _flatten(json.loads(path.read_text())).items()}


def _relative(old, new):
    """``|new - old| / |old|`` of two numbers (inf from 0), else None."""
    try:
        x, y = float(old), float(new)
    except (TypeError, ValueError):
        return None
    if isinstance(old, bool) or isinstance(new, bool):
        return None
    return abs(y - x) / abs(x) if x else (0.0 if y == x else math.inf)


def diff(parent: Path, change: Path) -> int:
    names = sorted({str(p.relative_to(d)) for d in (parent, change)
                    for p in d.rglob("*")
                    if p.suffix in (".csv", ".json", ".txt")})
    count, largest = 0, {}
    for name in names:
        a, b = _records(parent / name), _records(change / name)
        for key in sorted(set(a) | set(b), key=str):
            old, new = a.get(key, "<missing>"), b.get(key, "<missing>")
            if old != new:
                count += 1
                rel = _relative(old, new)
                if rel is not None:
                    largest[name] = max(largest.get(name, 0.0), rel)
                print(name, *key, old, new,
                      "-" if rel is None else f"{rel:.2g}", sep="\t")
    for name, rel in largest.items():
        print(f"{name}: largest relative difference {rel:.2g}")
    print(f"{count} differing fields in {len(names)} files")
    return 1 if count else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["run"] and len(args) in (2, 4):
        root = Path(args[3]) if len(args) == 4 and args[2] == "--repo" \
            else Path(__file__).resolve().parents[1]
        run(Path(args[1]), root.resolve())
    elif args[:1] == ["diff"] and len(args) == 3:
        sys.exit(diff(Path(args[1]), Path(args[2])))
    else:
        sys.exit(__doc__)
