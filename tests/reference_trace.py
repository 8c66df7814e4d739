"""Per-record reference reader and writer of the `.sbpt` trace format.

One `struct` unpack or pack per record, the gap escape handled record by
record. `sbp.trace_io` reads and writes whole columns; these loops are the
oracle the tests compare it with.
"""

import struct

from sbp.errors import TraceFormatError, TraceTruncatedError
from sbp.trace_io import GAP_ESCAPE, MAGIC, VERSION

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
