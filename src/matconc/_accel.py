"""Bulk coverage scans behind the coupling-time simulator, in numpy."""
from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the implementation of the inner loops; numpy is the only one."""
    return "numpy"


def coverage_times(n: int, needed: np.ndarray, runs: int, seed: int,
                   max_steps: int = 1_000_000, chunk: int = 64) -> np.ndarray:
    """First time a uniform draw stream covers every coordinate in ``needed``.

    Simulates ``runs`` independent streams of uniform draws on {0..n-1}
    (counter-based generator keyed by ``seed``) and returns, per run, the
    first step at which every index with needed[j] True has been drawn,
    or -1 if that does not happen within ``max_steps``.  An empty needed
    set gives 0.

    Draws come in (runs, chunk) blocks, drawn for every run so that the
    stream does not depend on which runs are done.  Coordinates are bits of
    uint64 words, 64 per word; for the runs still open, a cumulative OR
    along each row gives the set drawn so far after every step, and a run's
    time is the first step whose set holds every needed bit.
    """
    needed = np.asarray(needed, dtype=np.bool_)
    if needed.shape != (n,):
        raise ValueError(f"needed must have shape ({n},)")
    times = np.full(runs, -1, dtype=np.int64)
    if not needed.any():
        times[:] = 0
        return times
    words = -(-n // 64)
    flags = np.zeros(64 * words, dtype=np.uint64)
    flags[:n] = needed
    need = np.bitwise_or.reduce(flags.reshape(words, 64) << np.arange(64, dtype=np.uint64),
                                axis=1)
    rng = np.random.Generator(np.random.Philox(seed))
    seen = np.zeros((runs, words), dtype=np.uint64)
    active = np.arange(runs)
    offset = 0
    while offset < max_steps and active.size:
        step = min(chunk, max_steps - offset)
        draws = rng.integers(0, n, size=(runs, step), dtype=np.int64)
        if active.size < runs:
            draws = draws[active]
        covered = True
        for w in np.flatnonzero(need):
            # a shift outside 0..63 (a draw in another word) gives 0
            bits = np.left_shift(np.uint64(1), draws - 64 * w if w else draws,
                                 dtype=np.uint64, casting="unsafe")
            bits[:, 0] |= seen[active, w]
            np.bitwise_or.accumulate(bits, axis=1, out=bits)
            seen[active, w] = bits[:, -1]
            covered = covered & ((bits & need[w]) == need[w])
        hit = covered[:, -1]
        times[active[hit]] = offset + 1 + np.argmax(covered[hit], axis=1)
        active = active[~hit]
        offset += step
    return times
