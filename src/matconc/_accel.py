"""Bulk coverage scans behind the coupling-time simulator, in numpy."""
from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the implementation of the inner loops; numpy is the only one."""
    return "numpy"


def _coverage_scan(draws, needed, seen, remaining, times, offset):
    runs = draws.shape[0]
    rows = np.arange(runs)
    for c in range(draws.shape[1]):
        j = draws[:, c]
        hit = (times < 0) & needed[j] & ~seen[rows, j]
        seen[rows[hit], j[hit]] = True
        remaining[hit] -= 1
        done = hit & (remaining == 0)
        times[done] = offset + c + 1
    return times


def coverage_times(n: int, needed: np.ndarray, runs: int, seed: int,
                   max_steps: int = 1_000_000, chunk: int = 64) -> np.ndarray:
    """First time a uniform draw stream covers every coordinate in ``needed``.

    Simulates ``runs`` independent streams of uniform draws on {0..n-1}
    (counter-based generator keyed by ``seed``) and returns, per run, the
    first step at which every index with needed[j] True has been drawn,
    or -1 if that does not happen within ``max_steps``.  An empty needed
    set gives 0.
    """
    needed = np.asarray(needed, dtype=np.bool_)
    if needed.shape != (n,):
        raise ValueError(f"needed must have shape ({n},)")
    m = int(needed.sum())
    times = np.full(runs, -1, dtype=np.int64)
    if m == 0:
        times[:] = 0
        return times
    rng = np.random.Generator(np.random.Philox(seed))
    seen = np.zeros((runs, n), dtype=np.bool_)
    remaining = np.full(runs, m, dtype=np.int64)
    offset = 0
    while offset < max_steps and np.any(times < 0):
        step = min(chunk, max_steps - offset)
        draws = rng.integers(0, n, size=(runs, step), dtype=np.int64)
        _coverage_scan(draws, needed, seen, remaining, times, offset)
        offset += step
    return times
