"""Global/local branch history tracking and training-dataset collection.

Histories are kept as Python ints with bit i holding the (i+1)-th most recent
outcome (bit 0 = newest, 1 = taken). Feature vectors lay out the GHR segment
first, then the LHR segment, with bits mapped to {-1, +1}.
"""

from dataclasses import dataclass

import numpy as np


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
    """Vectorized: list of history ints -> (len(values), nbits) int8 matrix in {-1,+1}."""
    m = len(values)
    if nbits == 0:
        return np.zeros((m, 0), dtype=np.int8)
    nbytes = (nbits + 7) // 8
    raw = b"".join(v.to_bytes(nbytes, "little") for v in values)
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(m, nbytes)
    bits = np.unpackbits(arr, axis=1, bitorder="little")[:, :nbits]
    return (bits.astype(np.int8) << 1) - 1


class HistoryState:
    """Shift-register GHR plus an unbounded per-PC LHR map (profiling side)."""

    def __init__(self, config):
        self.config = config
        self.ghr = 0
        self.lhr_map = {}
        self._gmask = (1 << config.gh) - 1
        self._lmask = (1 << config.lh) - 1

    def update(self, pc, taken):
        bit = 1 if taken else 0
        self.ghr = ((self.ghr << 1) | bit) & self._gmask
        self.lhr_map[pc] = ((self.lhr_map.get(pc, 0) << 1) | bit) & self._lmask

    def lhr(self, pc):
        return self.lhr_map.get(pc, 0)

    def features(self, pc):
        """Current GHR-then-LHR feature vector for pc, entries in {-1, +1}."""
        g = ints_to_pm1([self.ghr], self.config.gh)
        l = ints_to_pm1([self.lhr(pc)], self.config.lh)
        return np.concatenate([g[0], l[0]])


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


def collect_datasets(trace, config, targets=None):
    """Replay a trace and collect (features-before-update, outcome) samples.

    Samples start after the warmup point of gh+lh retired branch records.
    Returns {pc: TrainingDataset} for every target seen after warmup
    (targets=None collects every PC).
    """
    warmup = config.gh + config.lh
    gmask = (1 << config.gh) - 1
    lmask = (1 << config.lh) - 1
    ghr = 0
    lhr = {}
    raw = {}  # pc -> (ghr ints, lhr ints, outcomes)
    for i, rec in enumerate(trace.records):
        pc = rec.pc
        taken = rec.taken
        if i >= warmup and (targets is None or pc in targets):
            entry = raw.get(pc)
            if entry is None:
                entry = raw[pc] = ([], [], [])
            entry[0].append(ghr)
            entry[1].append(lhr.get(pc, 0))
            entry[2].append(taken)
        bit = 1 if taken else 0
        ghr = ((ghr << 1) | bit) & gmask
        lhr[pc] = ((lhr.get(pc, 0) << 1) | bit) & lmask
    out = {}
    for pc, (ghrs, lhrs, ys) in raw.items():
        x = np.concatenate(
            [ints_to_pm1(ghrs, config.gh), ints_to_pm1(lhrs, config.lh)], axis=1
        )
        out[pc] = TrainingDataset(pc, x, np.array(ys, dtype=bool), config)
    return out


def collect_dataset(trace, config, target_pc):
    """Single-target variant; absent/never-post-warmup targets give m = 0."""
    ds = collect_datasets(trace, config, targets={target_pc})
    if target_pc in ds:
        return ds[target_pc]
    empty = np.zeros((0, config.l), dtype=np.int8)
    return TrainingDataset(target_pc, empty, np.zeros(0, dtype=bool), config)
