"""Portable branch-trace format plus synthetic trace generators.

File layout (little-endian):
  header (16 bytes): magic "SBPT", version u16, reserved u16, total_instructions u64
  per record: pc u64, flags u8 (bit0 = taken), inst_gap u8;
              gap value 255 escapes to a following u32 holding the full gap.
"""

import random
import struct
from dataclasses import dataclass
from pathlib import Path

from .errors import TraceFormatError, TraceTruncatedError

MAGIC = b"SBPT"
VERSION = 1
GAP_ESCAPE = 255

_HEADER = struct.Struct("<4sHHQ")
_RECORD = struct.Struct("<QBB")
_GAP32 = struct.Struct("<I")


@dataclass(frozen=True, slots=True)
class TraceRecord:
    pc: int
    taken: bool
    inst_gap: int = 0  # non-branch instructions retired since the previous record


@dataclass
class Trace:
    records: list
    phase_id: str = ""

    @property
    def total_instructions(self):
        return sum(r.inst_gap for r in self.records) + len(self.records)

    def __len__(self):
        return len(self.records)


def write_trace(trace, path):
    """Serialize a trace; byte output is a pure function of the trace."""
    out = bytearray()
    out += _HEADER.pack(MAGIC, VERSION, 0, trace.total_instructions)
    for r in trace.records:
        gap = r.inst_gap
        if gap < GAP_ESCAPE:
            out += _RECORD.pack(r.pc, 1 if r.taken else 0, gap)
        else:
            out += _RECORD.pack(r.pc, 1 if r.taken else 0, GAP_ESCAPE)
            out += _GAP32.pack(gap)
    Path(path).write_bytes(bytes(out))


def read_trace(path):
    """Read a trace file, verifying the header instruction count."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise TraceFormatError(f"{path}: file shorter than header")
    magic, version, _reserved, total = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise TraceFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise TraceFormatError(f"{path}: unsupported version {version}")
    records = []
    # A trace repeats a few distinct PCs and gaps: share one int object per
    # value instead of allocating one per record.
    pcs = {}
    gaps = {}
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
        records.append(
            TraceRecord(pcs.setdefault(pc, pc), bool(flags & 1), gaps.setdefault(gap, gap))
        )
    trace = Trace(records, phase_id=Path(path).stem)
    if trace.total_instructions != total:
        raise TraceFormatError(
            f"{path}: header claims {total} instructions, records sum to "
            f"{trace.total_instructions}"
        )
    return trace


@dataclass
class SyntheticScenario:
    kind: str  # correlated | loop | utilization
    length: int = 1000
    seed: int = 0
    correlation_distance: int = 1  # k, in blocks
    noise_branches: int = 0  # M
    loop_period: int = 2  # s
    loop_offset: int = 0  # o
    branch_frequency: float = 1.0
    offload_ratio: float = 0.0

    def __post_init__(self):
        if self.kind not in ("correlated", "loop", "utilization"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if not 0.0 <= self.branch_frequency <= 1.0:
            raise ValueError("branch_frequency must be in [0, 1]")
        if not 0.0 <= self.offload_ratio <= 1.0:
            raise ValueError("offload_ratio must be in [0, 1]")
        if self.kind == "correlated" and self.correlation_distance < 1:
            raise ValueError("correlation_distance must be >= 1")
        if self.kind == "loop" and self.loop_period < 2:
            raise ValueError("loop_period must be >= 2")


# Fixed synthetic PC map: A, noise branches, target B, loop branch, utilization pool.
PC_A = 0x1000
PC_NOISE_BASE = 0x1100
PC_B = 0x2000
PC_LOOP = 0x3000
PC_UTIL_BASE = 0x4000
UTIL_STATIC_BRANCHES = 20


def gen_correlated(scenario):
    """Repeating block of A, M noise branches, and B = A from k blocks earlier.

    A and the noise branches flip fair coins. Whole blocks only: the trace holds
    length // (M + 2) blocks.
    """
    m = scenario.noise_branches
    k = scenario.correlation_distance
    block = m + 2
    blocks = scenario.length // block
    if blocks < 1:
        raise ValueError(f"length {scenario.length} cannot hold one {block}-record block")
    rng = random.Random(scenario.seed)
    noise_pcs = [PC_NOISE_BASE + 8 * i for i in range(m)]
    a_history = []
    records = []
    for t in range(blocks):
        a = rng.random() < 0.5
        a_history.append(a)
        records.append(TraceRecord(PC_A, a))
        for pc in noise_pcs:
            records.append(TraceRecord(pc, rng.random() < 0.5))
        b = a_history[t - k] if t >= k else rng.random() < 0.5
        records.append(TraceRecord(PC_B, b))
    return Trace(records, phase_id=f"correlated_m{m}_k{k}_s{scenario.seed}")


def gen_loop(scenario):
    """Single branch with pattern (taken x (s-1), not-taken), phase-shifted by o."""
    s = scenario.loop_period
    o = scenario.loop_offset
    records = [
        TraceRecord(PC_LOOP, (i + o) % s != s - 1) for i in range(scenario.length)
    ]
    return Trace(records, phase_id=f"loop_s{s}_o{o}")


def gen_utilization(scenario):
    """Trace of `length` instructions with branches scheduled uniformly.

    Returns (trace, offloaded_pcs): round(length * branch_frequency) branch
    records drawn from a pool of UTIL_STATIC_BRANCHES static branches, of which
    round(pool * offload_ratio) are flagged as offloaded.
    """
    rng = random.Random(scenario.seed)
    total = scenario.length
    n_branch = round(total * scenario.branch_frequency)
    if n_branch == 0:
        return Trace([], phase_id=f"util_s{scenario.seed}"), []
    n_static = min(UTIL_STATIC_BRANCHES, n_branch)
    pcs = [PC_UTIL_BASE + 16 * i for i in range(n_static)]
    records = []
    prev_pos = 0
    for j in range(1, n_branch + 1):
        pos = round(j * total / n_branch)
        records.append(
            TraceRecord(rng.choice(pcs), rng.random() < 0.5, pos - prev_pos - 1)
        )
        prev_pos = pos
    n_offload = round(n_static * scenario.offload_ratio)
    offloaded = sorted(rng.sample(pcs, n_offload))
    return Trace(records, phase_id=f"util_s{scenario.seed}"), offloaded


def generate(scenario):
    """Dispatch on scenario kind; utilization also returns its offload list."""
    if scenario.kind == "correlated":
        return gen_correlated(scenario)
    if scenario.kind == "loop":
        return gen_loop(scenario)
    return gen_utilization(scenario)
