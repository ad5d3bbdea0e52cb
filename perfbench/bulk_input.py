"""Seeded generator of the large pooled CSV input, written with plain numpy.

It deliberately does not call ``pocbounds.simulate``: a later change to the
simulator must not change the benchmark's input.  Each row is one of six
(d, s, y) cells in one of ``strata`` strata, so the file is assembled from a
table of 6 * strata pre-rendered lines, and the exact per-arm cell counts
come from the same draws.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# Large enough that parsing and recounting dominate the command-line run,
# small enough that a run of the benchmark holds about 15 operations.
ROWS = 250_000
STRATA = 50


def generate(path: Path, seed: int, rows: int = ROWS, strata: int = STRATA) -> dict:
    """Write the CSV to ``path``; return its sha256, size and exact cell counts.

    Counts follow the package's 2x3 layout: one row per arm (control, treated),
    columns (selected with y=1, selected with y=0, not selected).
    """
    rng = np.random.default_rng([seed, 1_000_003])
    # Per-stratum selection and outcome rates keep the model's observable
    # restrictions: the treated arm selects and succeeds at least as often.
    s_rate = np.empty((strata, 2))
    s_rate[:, 0] = rng.uniform(0.45, 0.65, strata)
    s_rate[:, 1] = s_rate[:, 0] + rng.uniform(0.02, 0.12, strata)
    y_rate = np.empty((strata, 2))
    y_rate[:, 0] = rng.uniform(0.25, 0.40, strata)
    y_rate[:, 1] = y_rate[:, 0] + rng.uniform(0.05, 0.15, strata)

    stratum = rng.integers(0, strata, rows)
    d = (rng.random(rows) < 0.5).astype(np.int64)
    s = rng.random(rows) < s_rate[stratum, d]
    y1 = rng.random(rows) < y_rate[stratum, d]
    cell = np.where(s, np.where(y1, 0, 1), 2)

    labels = [f"g{g:02d}" for g in range(strata)]
    tokens = {0: ("1", "1"), 1: ("0", "1"), 2: ("", "0")}
    lines = np.array(
        [
            f"{tokens[c][0]},{tokens[c][1]},{arm},{label}\n".encode()
            for label in labels
            for arm in (0, 1)
            for c in (0, 1, 2)
        ],
        dtype=object,
    )
    body = b"".join(lines[stratum * 6 + d * 3 + cell].tolist())
    data = b"y,s,d,stratum\n" + body
    path.write_bytes(data)
    counts = np.bincount(d * 3 + cell, minlength=6).reshape(2, 3)
    return {
        "path": str(path),
        "rows": rows,
        "strata": strata,
        "sha256": hashlib.sha256(data).hexdigest(),
        "counts": counts.tolist(),
    }
