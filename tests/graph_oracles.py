"""A reference for the SBM edge sampler: one row at a time in the calling
thread, each row drawn into one length-n buffer and compared against its
own thresholds.  It shares the stream contract with
fairspectral.graph._sample_block_edges but none of its row ranges, threads,
chunks or candidate search, so equal pairs show that those moved no draw."""

from __future__ import annotations

import numpy as np


def sample_block_edges(
    rng: np.random.Generator, n: int, half: int, p_in: float, p_out: float
) -> np.ndarray:
    """Bernoulli edges (i, j), i < j, over the upper triangle, as (m, 2) rows.

    Edge (i, j) is present when draw i*n + j of rng's PCG64 stream falls
    below its probability: p_in when both endpoints lie on the same side of
    `half`, p_out otherwise.  The i+1 lower-triangle draws before each row
    are skipped with `advance`, not drawn, into one length-n buffer, so the
    draws take O(n) memory, not 512 x n, and rng ends at draw n*n, where a
    full (n, n) draw would leave it.
    """
    threshold = np.full(n, p_out)
    threshold[:half] = p_in
    buf = np.empty(n)
    hits = []  # row i's hit columns, offset by i + 1
    for i in range(n):
        rng.bit_generator.advance(i + 1)
        draws = rng.random(out=buf[: n - i - 1])
        hits.append((draws < (threshold[i + 1:] if i < half else p_in)).nonzero()[0])
    rows = np.repeat(np.arange(n), [h.size for h in hits])
    return np.stack([rows, np.concatenate(hits) + rows + 1], axis=1)
