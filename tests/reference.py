"""Reference implementations kept as test oracles for code that was replaced.

Each function is a verbatim copy of the code it stands for, so a test can
require the replacement to give the same results bit for bit.

- `_search` and `_quantize`: the per-frame M-best search of
  `melvq.quantizer` before the batched shortlist search. They take the same
  `CodebookSet` and return the same `(frames, stages)` code array.
"""

from __future__ import annotations

import numpy as np

from melvq.quantizer import DEFAULT_BEAM_WIDTH, CodebookSet, VectorCodebook


def _search(vec: np.ndarray, stages: tuple[VectorCodebook, ...],
            beam_width: int) -> tuple[tuple[int, ...], float]:
    """M-best search of cascaded stages; returns the indices and their
    squared error.

    The beam keeps the beam_width codewords of the first stage closest to
    vec (ties toward lower index) and searches the later stages on each
    residual; the last stage is a full search. The indices minimizing
    ||vec - c1 - c2 - ...||^2 win, ties toward the lexicographically
    smallest. A beam as wide as the first stage is an exhaustive joint
    search of two stages; beam_width 1 is the greedy sequential search.
    """
    codewords = stages[0].codewords
    dists = ((codewords - vec) ** 2).sum(axis=1)
    if len(stages) == 1:
        index = int(np.argmin(dists))
        return (index,), dists[index]
    best, best_dist = (0,) * len(stages), np.inf
    for i in np.sort(np.argsort(dists, kind="stable")[:beam_width]):
        rest, dist = _search(vec - codewords[i], stages[1:], beam_width)
        if dist < best_dist:
            best, best_dist = (int(i),) + rest, dist
    return best, best_dist


def _quantize(frames: np.ndarray, codebooks: CodebookSet,
              beam_width: int = DEFAULT_BEAM_WIDTH) -> np.ndarray:
    """Codes of (frames, 1 + dim) MFCC rows as a (frames, stages) array:
    column 0 through the energy stage, the rest through the VQ stages."""
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    codes = np.empty((len(frames), len(codebooks.stages)), dtype=np.int64)
    for n, z in enumerate(frames):
        codes[n, :1] = _search(z[:1], codebooks.stages[:1], 1)[0]
        codes[n, 1:] = _search(z[1:], codebooks.stages[1:], beam_width)[0]
    return codes
