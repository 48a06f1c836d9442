"""Reference kernels that call no gibbslab code.

The sandbox shares its cores with other tenants, so the same pass can
take 30% longer in one process than in the next.  A short reference
kernel, timed after every operation, tracks that drift: a pass time
divided by the reference time measured in the same run repeats far
better than the raw time.

Interpreted Python on small arrays and vectorized work on large arrays
slow down by different amounts under the same contention, so there are
two kernels.  ``python`` mimics per-replicate code: seeded random
streams and numpy calls on tiny arrays, whose cost is dispatch.
``vector`` mimics grid solves: feature maps and exponentials over
2-D-grid-sized arrays and a dense solve, with a quarter of per-call
Python work.  Each workload names the kernel that matches its work.
"""

import time

import numpy as np

_NODES = np.linspace(-2.0, 2.0, 4225)[:, None]
_XS = np.linspace(-1.5, 1.5, 64)[None, :]
_DENSE = np.eye(400) + np.full((400, 400), 1e-3)
_SMALL = np.linspace(0.5, 1.5, 8)


def _small_ops(rounds: int) -> float:
    """Seeded streams and numpy calls on tiny arrays, dispatch-bound."""
    acc = 0.0
    for i in range(rounds):
        np.random.SeedSequence((i, 7, 0))
        for _ in range(10):
            acc += float((_SMALL * 1.5 + _SMALL).sum())
    return acc


def _vector_ops() -> float:
    """Feature maps, exponentials and a dense solve on grid-sized arrays."""
    acc = 0.0
    for j in range(3):
        feats = _NODES * np.tanh(_NODES * (_XS + 0.1 * j))
        acc += float(np.exp(-feats @ np.ones(64) / 64.0).sum())
    return acc + float(np.linalg.solve(_DENSE, np.ones(400)).sum())


def python_kernel() -> float:
    """Per-replicate style work; returns a value so it cannot be skipped."""
    return _small_ops(250)


def vector_kernel() -> float:
    """Grid-solve style work with some per-call Python overhead."""
    return _vector_ops() + _small_ops(60)


KERNELS = {"python": python_kernel, "vector": vector_kernel}


def timer(kind: str):
    """Function returning the seconds one call of the named kernel takes."""
    kernel = KERNELS[kind]

    def timed() -> float:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0

    return timed
