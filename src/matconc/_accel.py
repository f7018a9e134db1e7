"""Bulk coverage scans behind the coupling-time simulator, in numpy."""
from __future__ import annotations

import numpy as np

from .matcore import _rng


def backend() -> str:
    """Name of the implementation of the inner loops; numpy is the only one."""
    return "numpy"


def coverage_times(n: int, runs: int, seed: int, max_steps: int = 1_000_000) -> np.ndarray:
    """First time a uniform draw stream covers every coordinate of {0..n-1}.

    Simulates ``runs`` independent streams of uniform draws on {0..n-1}
    (matcore's Philox stream keyed by ``seed``) and returns, per run, the
    first step at which every index has been drawn, or -1 if that does not
    happen within ``max_steps``: a function of (n, runs, seed, max_steps).

    Stream version 2: each block of up to 16 steps draws (step, open runs)
    int32 values for the runs not yet covered only (version 1 drew (runs,
    64) blocks for every run; all times differ).  For n <= 2**31 numpy draws
    int32 and int64 alike (a larger n is rejected by the draw).  Coordinates
    are bits of the narrowest unsigned word that holds min(n, 64) of them
    (uint8 up to n = 8, then uint16, uint32, and uint64 words, 64
    coordinates a word, above n = 32); the prefix OR along the steps is one
    vectorised OR per step over all open runs.  Coverage only grows within a
    block, so a run covered by the block's last step was covered at step
    offset + 1 + (the number of its steps that were not yet covered).
    """
    rng = _rng(seed)
    times = np.full(runs, -1, dtype=np.int64)
    width = next(w for w in (8, 16, 32, 64) if w >= min(n, 64))
    word = np.dtype(f"uint{width}")
    words = -(-n // width)
    flags = (np.arange(width * words) < n).astype(word)
    need = np.bitwise_or.reduce(flags.reshape(words, width) << np.arange(width, dtype=word),
                                axis=1)
    seen = np.zeros((words, runs), dtype=word)
    active = np.arange(runs)
    offset = 0
    while offset < max_steps and active.size:
        step = min(16, max_steps - offset)
        draws = rng.integers(0, n, size=(step, active.size), dtype=np.int32)
        short = None
        for w in range(words):
            # more than one word only for n > 64, in uint64 words, where a
            # shift outside 0..63 (a draw in another word) gives 0
            bits = np.left_shift(word.type(1), draws - width * w if w else draws,
                                 dtype=word, casting="unsafe")
            bits[0] |= seen[w]
            for c in range(1, step):
                np.bitwise_or(bits[c], bits[c - 1], out=bits[c])
            seen[w] = bits[-1]
            gap = bits != need[w]
            short = gap if short is None else short | gap
        hit = ~short[-1]
        times[active[hit]] = offset + 1 + np.count_nonzero(short, axis=0)[hit]
        active = active[~hit]
        seen = seen[:, ~hit]
        offset += step
    return times
