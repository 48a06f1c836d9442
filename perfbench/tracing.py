"""In-memory span tracer that wraps gibbslab entry points in place.

A span is recorded around every call of a traced function or method:
its name, the index of the enclosing span, start and end times, and one
optional value taken from the call (replicate count, iteration count,
dataset digest, ...).  Spans stay in memory until the benchmark writes
them out at the end of the run.

Module-level functions can be reached through several references: the
defining module, every module that imported the name, the package
namespace, and tables such as ``cli._GEN_ROUTES``.  :meth:`Tracer.install`
replaces each reference it finds in a ``gibbslab`` module (module
attributes and values of module-level dicts), so library-internal calls
are traced too.  Methods are patched on their class, which covers every
instance.  :meth:`Tracer.uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
import weakref


class Tracer:
    """Stack-based span recorder for single-threaded code."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list = []
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._seen_derivatives = weakref.WeakSet()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, merge_nested: bool) -> int:
        if merge_nested and self._stack and self.names[self._stack[-1]] == name:
            return -1
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.values.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, value_of=None, merge_nested=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name, merge_nested)
            if idx < 0:
                return fn(*args, **kwargs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if value_of is not None:
                tracer.values[idx] = value_of(args, kwargs, out)
            return out

        return traced

    def __len__(self) -> int:
        return len(self.names)

    # -- installation ------------------------------------------------------

    def _patch_method(self, cls, attr, name, **kw):
        orig = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, orig, **kw))
        self._patches.append(("attr", cls, attr, orig))

    def _patch_function(self, orig, name, **kw):
        wrapper = self._wrap(name, orig, **kw)
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("gibbslab"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    self._patches.append(("attr", mod, key, orig))
                    hits += 1
                elif isinstance(val, dict) and not key.startswith("__"):
                    for k2, v2 in list(val.items()):
                        if v2 is orig:
                            val[k2] = wrapper
                            self._patches.append(("item", val, k2, orig))
                            hits += 1
        if hits == 0:
            raise RuntimeError(f"no reference to {orig.__qualname__} found")

    def install(self) -> None:
        """Wrap the traced functions of every gibbslab layer."""
        from gibbslab import cli, funcderiv, genbench, gibbs, losses, measures

        self._patch_method(measures.GridMeasure, "__init__",
                           "measures.grid_measure")
        self._patch_method(measures.DataMeasure, "__init__",
                           "measures.data_measure")

        for fn in (losses.risk, losses.loss_value, losses.loss_dm):
            self._patch_function(fn, f"losses.{fn.__name__}")

        for attr in ("__init__", "box_radius", "grid", "priors"):
            self._patch_method(gibbs.GibbsConfig, attr, "gibbs.config",
                               merge_nested=True)
        self._patch_function(gibbs.solve_gibbs, "gibbs.solve_gibbs",
                             value_of=lambda a, k, out: out.iterations)
        self._patch_function(gibbs.gibbs_map, "gibbs.gibbs_map")
        self._patch_function(gibbs.mfld_sample, "gibbs.mfld_sample")

        self._patch_method(funcderiv.TrainedDerivatives, "__init__",
                           "funcderiv.trained_derivatives")
        self._patch_method(funcderiv.TrainedDerivatives, "dm_dnu",
                           "funcderiv.dm_dnu")
        self._patch_method(funcderiv.TrainedDerivatives, "s_derivative",
                           "funcderiv.s_derivative",
                           value_of=self._direction_order)

        for fn in (genbench.wge_direct, genbench.wge_resampled, genbench.lge,
                   genbench.wge_representation, genbench.lge_upper_terms,
                   genbench.convex_lower_bound_check,
                   genbench.population_risk_bound):
            self._patch_function(fn, f"genbench.{fn.__name__}",
                                 value_of=_replicates_arg(fn))
        for cls in (genbench.GridGibbsTrainer, genbench.MFLDTrainer,
                    genbench.ExplicitGaussianMeanTrainer,
                    genbench.ConstantTrainer):
            for attr in ("train", "solve"):
                if attr in cls.__dict__:
                    self._patch_method(cls, attr, "genbench.train",
                                       merge_nested=True,
                                       value_of=_dataset_digest)

        self._patch_function(cli.run, "cli.run")
        self._patch_function(cli.verify, "cli.verify")

    def uninstall(self) -> None:
        for kind, owner, key, orig in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, orig)
            else:
                owner[key] = orig
        self._patches.clear()

    def _direction_order(self, args, kwargs, out):
        td = args[0]
        if td in self._seen_derivatives:
            return "next"
        self._seen_derivatives.add(td)
        return "first"

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write spans as JSON lines: name, parent, start, end, value."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                val = self.values[i]
                fh.write(json.dumps({
                    "i": i, "name": name, "parent": self.parents[i],
                    "start": self.starts[i], "end": self.ends[i],
                    "value": val if isinstance(val, (int, float, str))
                    or val is None else str(val)}) + "\n")


def _replicates_arg(fn):
    params = list(inspect.signature(fn).parameters)
    pos = params.index("replicates")

    def value_of(args, kwargs, out):
        return int(kwargs["replicates"] if "replicates" in kwargs
                   else args[pos])

    return value_of


def _dataset_digest(args, kwargs, out):
    nu = args[1] if len(args) > 1 else kwargs["nu"]
    h = hashlib.blake2b(digest_size=16)
    for arr in (nu.xs, nu.ys, nu.weights):
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def summarize(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-name call counts, total and self time over spans ``[lo, hi)``.

    Self time is a span's duration minus the durations of its direct
    children.  Also returns top-level coverage and the span-derived
    counters (iterations, replicates, distinct datasets, direction order).
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    child: dict[int, float] = {}
    top_level = 0.0
    for i in range(lo, hi):
        dur = tracer.ends[i] - tracer.starts[i]
        p = tracer.parents[i]
        if p >= lo:
            child[p] = child.get(p, 0.0) + dur
        else:
            top_level += dur
    selfs: dict[str, float] = {}
    iterations = []
    replicates: dict[str, int] = {}
    directions = {"first": [], "next": []}
    train_calls = 0
    train_distinct = 0
    seen = set()
    for i in range(lo, hi):
        name = tracer.names[i]
        dur = tracer.ends[i] - tracer.starts[i]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        selfs[name] = selfs.get(name, 0.0) + dur - child.get(i, 0.0)
        val = tracer.values[i]
        if name in ("cli.run", "cli.verify"):
            seen = set()
        elif name == "gibbs.solve_gibbs" and val is not None:
            iterations.append(val)
        elif name == "funcderiv.s_derivative" and val is not None:
            directions[val].append(dur)
        elif name == "genbench.train" and val is not None:
            train_calls += 1
            if val not in seen:
                seen.add(val)
                train_distinct += 1
        elif name.startswith("genbench.") and isinstance(val, int):
            replicates[name] = replicates.get(name, 0) + val
    return {"calls": calls, "total": total, "self": selfs,
            "top_level_s": top_level, "iterations": iterations,
            "replicates": replicates, "directions": directions,
            "train_calls": train_calls, "train_distinct": train_distinct}
