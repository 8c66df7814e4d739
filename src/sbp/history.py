"""Branch history and training-dataset collection.

A sample is the feature row of one branch record, read before the branch
retires: the GHR segment first (column j is the outcome of the record j+1
places back), then the LHR segment (column j is the outcome of the same PC's
(j+1)-th previous occurrence, not taken while that occurrence does not exist),
with outcomes mapped to {-1, +1} (taken = +1). Each PC's rows are gathered
from the trace's outcome column, not replayed record by record.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class HistoryConfig:
    gh: int
    lh: int

    def __post_init__(self):
        if self.gh < 0 or self.lh < 0 or self.gh + self.lh < 1:
            raise ValueError("need gh >= 0, lh >= 0, gh + lh >= 1")

    @property
    def l(self):
        return self.gh + self.lh


def ints_to_pm1(values, nbits):
    """Vectorized: list of history ints -> (len(values), nbits) int8 matrix in {-1,+1}.

    Bit i of a history int (i = 0 newest, 1 = taken) becomes column i."""
    m = len(values)
    if nbits == 0:
        return np.zeros((m, 0), dtype=np.int8)
    nbytes = (nbits + 7) // 8
    raw = b"".join(v.to_bytes(nbytes, "little") for v in values)
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(m, nbytes)
    bits = np.unpackbits(arr, axis=1, bitorder="little")[:, :nbits]
    return bits.astype(np.int8) * 2 - 1


@dataclass
class TrainingDataset:
    target_pc: int
    x: np.ndarray  # (m, gh+lh) int8 in {-1,+1}, GHR segment first
    y: np.ndarray  # (m,) bool
    config: HistoryConfig

    @property
    def m(self):
        return len(self.y)

    @property
    def taken_rate(self):
        return float(self.y.mean()) if self.m else 0.0


def iter_datasets(trace, config, targets=None):
    """Yield one TrainingDataset per PC with samples after warmup, in the
    order of each PC's first post-warmup record.

    Samples start after the warmup point of gh+lh retired branch records
    (targets=None collects every PC); each PC's rows are in trace order.
    """
    gh, lh = config.gh, config.lh
    warmup = gh + lh
    if len(trace) <= warmup:
        return
    pcs, ids = trace.pc_ids()
    pm1 = trace.taken.view(np.int8) * 2 - 1
    order = np.argsort(ids, kind="stable")  # positions grouped by id, ascending within
    starts = np.searchsorted(ids, np.arange(1, len(pcs), dtype=ids.dtype), sorter=order)
    per_pc = np.split(order, starts)
    del ids
    groups = []  # (first sampled position, pc, positions, first sampled occurrence)
    for pc, positions in zip(pcs, per_pc):
        k0 = int(np.searchsorted(positions, warmup))
        if k0 < len(positions) and (targets is None or pc in targets):
            groups.append((int(positions[k0]), pc, positions, k0))
    groups.sort(key=lambda g: g[0])
    for _first, pc, positions, k0 in groups:
        rows = positions[k0:]
        x = np.empty((len(rows), warmup), dtype=np.int8)
        # GHR column j of record i is record i-1-j's outcome; i >= warmup >= gh
        # keeps the index in range. Gathered column by column: one (rows x gh)
        # fancy index would allocate a temporary as large as the segment.
        for j in range(gh):
            x[:, j] = pm1[rows - (j + 1)]
        # Occurrence k's LHR reads the PC's outcomes k-1, k-2, ..., with lh
        # not-taken entries standing in before its first occurrence.
        local = np.concatenate([np.full(lh, -1, dtype=np.int8), pm1[positions]])
        x[:, gh:] = sliding_window_view(local, lh)[k0 : len(positions), ::-1]
        yield TrainingDataset(pc, x, pm1[rows] > 0, config)


def collect_datasets(trace, config, targets=None):
    """{pc: TrainingDataset} of (features before update, outcome) samples for
    every target seen after warmup; see iter_datasets."""
    return dict((ds.target_pc, ds) for ds in iter_datasets(trace, config, targets))


def collect_dataset(trace, config, target_pc):
    """Single-target variant; absent/never-post-warmup targets give m = 0."""
    ds = collect_datasets(trace, config, targets={target_pc})
    if target_pc in ds:
        return ds[target_pc]
    empty = np.zeros((0, config.l), dtype=np.int8)
    return TrainingDataset(target_pc, empty, np.zeros(0, dtype=bool), config)
