"""Per-record reference reader and writer of the `.sbpt` trace format.

One `struct` unpack or pack per record, the gap escape handled record by
record, and the correlated generator with one `random()` call per coin.
`sbp.trace_io` reads, writes and draws whole columns; these loops are the
oracle the tests compare it with. `masked_write_trace` is the earlier
columnar writer, kept as a second oracle for `write_trace`.
"""

import random
import struct
from pathlib import Path

import numpy as np

from sbp.errors import TraceFormatError, TraceTruncatedError
from sbp.trace_io import GAP_ESCAPE, MAGIC, PC_A, PC_B, PC_NOISE_BASE, VERSION, Trace

_HEADER = struct.Struct("<4sHHQ")
_RECORD = struct.Struct("<QBB")
_GAP32 = struct.Struct("<I")


def reference_write(records):
    """File bytes of (pc, taken, gap) records."""
    out = bytearray()
    total = sum(gap for _pc, _taken, gap in records) + len(records)
    out += _HEADER.pack(MAGIC, VERSION, 0, total)
    for pc, taken, gap in records:
        flags = 1 if taken else 0
        if gap < GAP_ESCAPE:
            out += _RECORD.pack(pc, flags, gap)
        else:
            out += _RECORD.pack(pc, flags, GAP_ESCAPE)
            out += _GAP32.pack(gap)
    return bytes(out)


# The columnar writer as it stood before the records' offsets were stated
# once for the reader and the writer, verbatim but for its names: a mask over
# the whole body that is False on each escaped record's u32.
_RECORD_DTYPE = np.dtype([("pc", "<u8"), ("flags", "u1"), ("gap", "u1")])
_RSIZE = _RECORD_DTYPE.itemsize


def _gap_mask(size, starts):
    """Mask over a record body that is False on the u32 gap following each
    escaped record (starting at the byte offsets `starts`)."""
    keep = np.ones(size, dtype=bool)
    for k in range(_RSIZE, _RSIZE + 4):
        keep[starts + k] = False
    return keep


def masked_write_trace(trace, path):
    """Serialize a trace; byte output is a pure function of the trace."""
    escaped = np.flatnonzero(trace.gap >= GAP_ESCAPE)
    rec = np.empty(len(trace), dtype=_RECORD_DTYPE)
    rec["pc"], rec["flags"] = trace.pc, trace.taken
    rec["gap"] = np.minimum(trace.gap, GAP_ESCAPE)
    starts = _RSIZE * escaped + 4 * np.arange(len(escaped))
    keep = _gap_mask(rec.nbytes + 4 * len(escaped), starts)
    body = np.empty(len(keep), dtype=np.uint8)
    body[keep] = rec.view(np.uint8)
    body[~keep] = trace.gap[escaped].astype("<u4").view(np.uint8)
    header = _HEADER.pack(MAGIC, VERSION, 0, trace.total_instructions)
    Path(path).write_bytes(header + body.tobytes())


def reference_read(data):
    """(pc, taken, gap) records of file bytes, with the reader's checks."""
    if len(data) < _HEADER.size:
        raise TraceFormatError("file shorter than header")
    magic, version, _reserved, total = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise TraceFormatError(f"unsupported version {version}")
    records = []
    off = _HEADER.size
    n = len(data)
    while off < n:
        if off + _RECORD.size > n:
            raise TraceTruncatedError(off)
        pc, flags, gap = _RECORD.unpack_from(data, off)
        off += _RECORD.size
        if gap == GAP_ESCAPE:
            if off + _GAP32.size > n:
                raise TraceTruncatedError(off)
            (gap,) = _GAP32.unpack_from(data, off)
            off += _GAP32.size
        records.append((pc, bool(flags & 1), gap))
    if sum(gap for _pc, _taken, gap in records) + len(records) != total:
        raise TraceFormatError(f"header claims {total} instructions")
    return records


def records_of(trace):
    """(pc, taken, gap) tuples of a columnar trace, as Python values."""
    return list(zip(trace.pc.tolist(), trace.taken.tolist(), trace.gap.tolist()))


# The generator as it drew one `random()` per coin, verbatim but for its name.
def reference_gen_correlated(scenario):
    """Repeating block of A, M noise branches, and B = A from k blocks earlier.

    A and the noise branches flip fair coins. Whole blocks only: the trace holds
    length // (M + 2) blocks.
    """
    m = scenario.noise_branches
    k = scenario.correlation_distance
    block = m + 2
    blocks = scenario.length // block
    rng = random.Random(scenario.seed)
    block_pcs = [PC_A] + [PC_NOISE_BASE + 8 * i for i in range(m)] + [PC_B]
    taken = []
    for t in range(blocks):
        taken.append(rng.random() < 0.5)
        taken.extend(rng.random() < 0.5 for _ in range(m))
        taken.append(taken[(t - k) * block] if t >= k else rng.random() < 0.5)  # B
    return Trace(np.tile(np.array(block_pcs, dtype=np.uint64), blocks), taken,
                 phase_id=f"correlated_m{m}_k{k}_s{scenario.seed}")
