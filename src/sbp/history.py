"""Branch history and training-dataset collection.

A sample is the feature row of one branch record, read before the branch
retires: the GHR segment first (column j is the outcome of the record j+1
places back), then the LHR segment (column j is the outcome of the same PC's
(j+1)-th previous occurrence, not taken while that occurrence does not exist),
with outcomes mapped to {-1, +1} (taken = +1). Each PC's rows are gathered
from the trace's outcome column, not replayed record by record. `past` is the
one statement of that layout; the predictors read the same window.
`collect_datasets` gives each branch's samples as a `TrainingDataset` (see
`sparse_modeling`) that keeps the outcomes and gathers the rows on use.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError
from .sparse_modeling import TrainingDataset

GATHER_ROWS = 128  # sample rows gathered at a time, bounding the temporaries


@dataclass(frozen=True)
class HistoryConfig:
    gh: int
    lh: int

    def __post_init__(self):
        if self.gh < 0 or self.lh < 0 or self.gh + self.lh < 1:
            raise ConfigError(f"gh {self.gh}, lh {self.lh}: need gh >= 0, lh >= 0, gh + lh >= 1")

    @property
    def l(self):
        return self.gh + self.lh


def past(col, length, fill):
    """The (len(col), length) view whose row i, column j is col[i-1-j]: the
    `length` values before position i, newest first, `fill` before col starts."""
    padded = np.concatenate([np.full(length, fill, dtype=col.dtype), col])
    return sliding_window_view(padded, length)[:-1, ::-1]


def sample_rows(trace, config, targets=None):
    """(branches, rows): (pc, m) per target (targets=None: every PC) with m > 0
    samples after the warmup of gh+lh records, in the order of each PC's first
    sampled record; rows(i, t, out) returns the outcomes of samples t of
    branches i (integer arrays that broadcast together) and, if `out` is
    given, writes their feature rows into it."""
    gh, lh = config.gh, config.lh
    pcs, ids = trace.pc_ids()
    pm1 = trace.taken.view(np.int8) * 2 - 1
    wanted = np.array([targets is None or pc in targets for pc in pcs], dtype=bool)
    chosen = None if targets is None else np.flatnonzero(wanted[ids])
    key = ids if chosen is None else ids[chosen]
    order = np.argsort(key, kind="stable")  # record positions grouped by PC
    bounds = np.searchsorted(key, np.arange(len(pcs) + 1, dtype=ids.dtype), sorter=order).tolist()
    order = order if chosen is None else chosen[order]
    del ids, key
    groups = []  # (first sampled position, pc, its index in order, its occurrence, samples)
    for pc, start, stop in zip(pcs, bounds, bounds[1:]):
        k0 = int(np.searchsorted(order[start:stop], gh + lh))
        if start + k0 < stop:
            groups.append((int(order[start + k0]), pc, start + k0, k0, stop - start - k0))
    groups.sort()
    first, k0 = np.array([g[2:4] for g in groups], dtype=np.int64).reshape(-1, 2).T
    # row p: the outcomes before record p (GHR), before order[p] of its PC (LHR)
    ghr, lhr = past(pm1, gh, -1), past(pm1[order], lh, -1)

    def rows(i, t, out=None):
        pos = order[first[i] + t]
        if out is not None:
            out[..., :gh] = ghr[pos]
            out[..., gh:] = lhr[first[i] + t]
            # LHR entries older than the PC's first occurrence stand in as not taken
            out[..., gh:][np.arange(lh) >= (k0[i] + t)[..., None]] = -1
        return pm1[pos] > 0

    return [(g[1], g[4]) for g in groups], rows


def collect_datasets(trace, config):
    """{pc: TrainingDataset} of (features before update, outcome) samples for
    every PC seen after warmup, in the order of each PC's first sampled
    record; see sample_rows. Each dataset holds its outcomes and gathers its
    feature rows on use, GATHER_ROWS rows at a time."""
    branches, rows = sample_rows(trace, config)

    def gather(i, m, out):
        for s in range(0, m, GATHER_ROWS):
            rows(i, np.arange(s, min(s + GATHER_ROWS, m)), out[s : s + GATHER_ROWS])

    return {
        pc: TrainingDataset(pc, rows(i, np.arange(m)), config, partial(gather, i, m))
        for i, (pc, m) in enumerate(branches)
    }

