"""Deterministic randomness for every randomized suite.

All draws come from the Philox-4x64-10 counter-based generator, keyed as

    key = (seed << 16) | stream_id

with one fixed stream id per suite, named by its label in ``STREAMS``, so a
(seed, label) pair reproduces the same draws in any run.  Philox is a
published counter-based RNG, so the raw streams are reproducible outside
numpy as well; draw order within a stream is part of each suite's contract
(documented where the draws happen).
"""

from __future__ import annotations

import numpy as np

SEED_LIMIT = 1 << 112  # seed << 16 must fit the 128-bit Philox key

STREAMS = {
    "clifford": 1,
    "fpk": 2,
    "rim": 3,
    "plane": 4,
    "homotopy": 5,
    "mdo": 6,
    "props": 7,
}


def stream(seed: int, label: str) -> np.random.Generator:
    if label not in STREAMS:
        raise KeyError(f"unknown stream label {label!r}")
    key = (int(seed) << 16) | STREAMS[label]
    return np.random.Generator(np.random.Philox(key=key))
