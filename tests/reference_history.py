"""Per-record reference replays of the branch history.

Shift-register GHR and per-PC LHR ints (bit 0 = newest outcome, 1 = taken)
advanced one trace record at a time and mapped to {-1, +1} with
`ints_to_pm1`. `sbp.history` gathers the same rows from the outcome column
with sliding windows; these loops are the oracle the tests compare it with.
"""

import numpy as np

from sbp.history import TrainingDataset
from tests.conftest import gather_from


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


def replay(trace, config, targets=None):
    """Yield (pc, ghr, lhr, taken) for each post-warmup target record, with
    the histories as they stood before the record's update."""
    warmup = config.gh + config.lh
    gmask = (1 << config.gh) - 1
    lmask = (1 << config.lh) - 1
    ghr = 0
    lhr = {}
    for i, (pc, taken) in enumerate(zip(trace.pc.tolist(), trace.taken.tolist())):
        if i >= warmup and (targets is None or pc in targets):
            yield pc, ghr, lhr.get(pc, 0), taken
        bit = 1 if taken else 0
        ghr = ((ghr << 1) | bit) & gmask
        lhr[pc] = ((lhr.get(pc, 0) << 1) | bit) & lmask


def features(ghrs, lhrs, config):
    return np.concatenate(
        [ints_to_pm1(ghrs, config.gh), ints_to_pm1(lhrs, config.lh)], axis=1
    )


def reference_collect_datasets(trace, config, targets=None):
    raw = {}  # pc -> (ghr ints, lhr ints, outcomes)
    for pc, ghr, lhr, taken in replay(trace, config, targets):
        entry = raw.setdefault(pc, ([], [], []))
        entry[0].append(ghr)
        entry[1].append(lhr)
        entry[2].append(taken)
    return {
        pc: TrainingDataset(pc, np.array(ys, dtype=bool), config,
                            gather_from(features(g, l, config)))
        for pc, (g, l, ys) in raw.items()
    }
