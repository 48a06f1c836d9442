"""List the library functions that the shipped traffic never enters.

Usage, from any directory::

    python tools/traffic.py [--repo ROOT] [--seed SEED]

In one process under ``trace.Trace(count=1, trace=0)``, installed on
every thread the traffic starts as well, this runs every
``ROOT/configs/*.json`` as shipped, ``gibbslab verify``, and one pass of
each workload of ``ROOT/perfbench/workloads.py`` (set up from ``SEED``,
default 0), all writing into a temporary directory, with the package
imported from ``ROOT/src`` (ROOT defaults to this checkout).  It then
prints, one per line as ``module.qualified_name``, every function or
method defined in ``ROOT/src/gibbslab`` of which no body line ran, and
their count.  Lambdas are not listed.  Then, for each module, it prints
its line count and how many of its executable lines (those the compiled
code maps an instruction to) never ran, and which: this shows the
branches that no traffic takes inside functions that do run.  The line
count of ``src/gibbslab`` ends the report.  A failing config, check or
workload pass is reported on stderr and the script goes on.
Nothing under ``ROOT/perfbench`` is written.
"""

import argparse
import ast
import contextlib
import io
import sys
import tempfile
import threading
import time
import trace
import types
from pathlib import Path


def _functions(path: Path):
    """``(qualified name, first body line, last line)`` of every def."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                out.append((name, child.body[0].lineno, child.end_lineno))
                walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return out


def _executable_lines(path: Path) -> set:
    """Lines of ``path`` that its compiled code objects map an
    instruction to (``co_lines``), nested functions included."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(ln for _, _, ln in code.co_lines() if ln)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def _ranges(lines) -> str:
    """``1-3, 7``: sorted line numbers with runs collapsed."""
    out, lines = [], sorted(lines)
    for i, ln in enumerate(lines):
        if i == 0 or ln != lines[i - 1] + 1:
            out.append([ln, ln])
        else:
            out[-1][1] = ln
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in out)


def report(pkg: Path, ran: dict) -> str:
    """The report on the modules ``pkg/*.py``, given the line numbers that
    ``ran`` maps each resolved module path to: the functions of which no
    body line ran and their count; for each module its line count and its
    executable lines that did not run; last the package's line count."""
    unreached, unrun, total = [], [], 0
    for path in sorted(pkg.glob("*.py")):
        lines = ran.get(path.resolve(), set())
        for name, first, last in _functions(path):
            if not any(first <= ln <= last for ln in lines):
                unreached.append(f"{path.stem}.{name}")
        code = _executable_lines(path)
        missed = code - lines
        size = len(path.read_text().splitlines())
        total += size
        unrun.append(f"{path.stem}: {size} lines, {len(missed)} of "
                     f"{len(code)} executable lines not run"
                     + (f": {_ranges(missed)}" if missed else ""))
    return "\n".join(unreached + [f"{len(unreached)} functions not entered"]
                     + unrun
                     + [f"{pkg.parent.name}/{pkg.name}: {total} lines"])


def trace_lines(fn, *args) -> dict:
    """Run ``fn(*args)`` under ``trace.Trace(count=1, trace=0)`` and return
    the line numbers that ran, per resolved file path.  The tracer is
    installed with ``threading.settrace`` too, as ``Trace.runctx`` does,
    so lines run on threads that ``fn`` starts are counted."""
    tracer = trace.Trace(count=1, trace=0)
    threading.settrace(tracer.globaltrace)
    try:
        tracer.runfunc(fn, *args)
    finally:
        threading.settrace(None)
    ran = {}
    for (filename, line), _ in tracer.results().counts.items():
        ran.setdefault(Path(filename).resolve(), set()).add(line)
    return ran


def _traffic(root: Path, seed: int, out: Path) -> None:
    """The configs, ``verify`` and one pass of each benchmark workload."""
    from gibbslab import cli
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    def step(label, fn):
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = fn()
        except Exception as exc:
            result = f"{type(exc).__name__}: {exc}"
        print(f"{label}: {result!r} in {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)

    for path in sorted((root / "configs").glob("*.json")):
        step(path.name, lambda: cli.run(str(path), out=str(out / "configs")))
    step("verify", lambda: cli.verify(seed=0, out=str(out / "verify")))
    for name, cls in workloads.WORKLOADS.items():
        def one_pass():
            wl_dir = out / name
            wl_dir.mkdir()
            wl = cls(seed, wl_dir)
            wl.setup()
            rec = workloads.Recorder(name)
            wl.run_pass(rec)
            rec.end_pass()
            return f"{rec.failed} of {rec.attempted} operations failed"
        step(name, one_pass)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    root = args.repo.resolve()
    pkg = root / "src" / "gibbslab"
    sys.path.insert(0, str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        ran = trace_lines(_traffic, root, args.seed, Path(tmp))
    print(report(pkg, ran))
    return 0


if __name__ == "__main__":
    sys.exit(main())
