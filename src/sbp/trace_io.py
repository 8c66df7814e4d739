"""Portable branch-trace format plus synthetic trace generators.

File layout (little-endian):
  header (16 bytes): magic "SBPT", version u16, reserved u16, total_instructions u64
  per record: pc u64, flags u8 (bit0 = taken), inst_gap u8;
              gap value 255 escapes to a following u32 holding the full gap.
"""

import random
import struct
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, TraceFormatError, TraceTruncatedError

MAGIC = b"SBPT"
VERSION = 1
GAP_ESCAPE = 255
_ESCAPE = bytes([GAP_ESCAPE])

_HEADER = struct.Struct("<4sHHQ")
_RECORD = np.dtype([("pc", "<u8"), ("flags", "u1"), ("gap", "u1")])  # 10 bytes, packed
_RSIZE = _RECORD.itemsize
_ID_BLOCK = 8192  # records per block of Trace.pc_ids and of a gathered read
_SCAN_WINDOW = 16  # fewest records a window of the escape scan reads


@dataclass
class Trace:
    """Branch records as columns: pc (uint64), taken (bool), and gap (uint32),
    the non-branch instructions retired since the previous record (None: 0)."""

    pc: np.ndarray
    taken: np.ndarray
    gap: np.ndarray = None
    phase_id: str = ""

    def __post_init__(self):
        self.pc = np.asarray(self.pc, dtype=np.uint64)
        self.taken = np.asarray(self.taken, dtype=bool)
        gap = np.zeros(len(self.pc), np.uint32) if self.gap is None else np.asarray(self.gap)
        if gap.size and (gap.min() < 0 or gap.max() > 0xFFFF_FFFF):
            bad = gap.max() if gap.max() > 0xFFFF_FFFF else gap.min()
            raise ValueError(f"instruction gap {bad} does not fit the trace format's u32")
        self.gap = gap.astype(np.uint32, copy=False)
        if not len(self.pc) == len(self.taken) == len(self.gap):
            raise ValueError("trace columns differ in length")

    @property
    def total_instructions(self):
        return int(self.gap.sum(dtype=np.uint64)) + len(self)

    def __len__(self):
        return len(self.pc)

    def pc_ids(self):
        """Distinct PCs as ascending ints, and each record's int32 index into them."""
        pcs = np.sort(self.pc)  # not np.unique, whose first call imports numpy.ma (~1 MB)
        pcs = np.concatenate([pcs[:1], pcs[1:][pcs[1:] != pcs[:-1]]])
        ids = np.empty(len(self), dtype=np.int32)
        for s in range(0, len(self), _ID_BLOCK):  # no int64 index column spans the trace
            ids[s : s + _ID_BLOCK] = np.searchsorted(pcs, self.pc[s : s + _ID_BLOCK])
        return pcs.tolist(), ids


def _starts(escaped, done=0):
    """The byte offsets past the header of consecutive records, the first at
    `done`, from their bool column `escaped` (a record whose gap escapes is
    followed by a u32): record i starts 10 i + 4 (escapes before i) bytes
    after the first."""
    return done + _RSIZE * np.arange(len(escaped)) + 4 * (np.cumsum(escaped) - escaped)


def _field(data, dtype, at):
    """The view of the `dtype` values at byte 16 + at + 2k of the file bytes
    `data`, for every k they fit at. Records start an even number of bytes
    past the header, so record i's field is element starts[i] // 2."""
    data = memoryview(data)[_HEADER.size + at :]
    return np.ndarray((max(0, (len(data) - np.dtype(dtype).itemsize) // 2 + 1),), dtype, data,
                      strides=(2,))


def write_trace(trace, path):
    """Serialize a trace; byte output is a pure function of the trace."""
    escaped = trace.gap >= GAP_ESCAPE
    at = _starts(escaped) // 2
    data = bytearray(_HEADER.size + _RSIZE * len(trace) + 4 * int(escaped.sum()))
    _HEADER.pack_into(data, 0, MAGIC, VERSION, 0, trace.total_instructions)
    _field(data, "<u8", 0)[at] = trace.pc
    _field(data, "u1", 8)[at] = trace.taken
    _field(data, "u1", 9)[at] = np.minimum(trace.gap, GAP_ESCAPE)
    _field(data, "<u4", _RSIZE)[at[escaped]] = trace.gap[escaped]
    Path(path).write_bytes(data)


def _scan(data):
    """(runs, end) of the records after the header: the number of records in
    each run, the runs alternating between plain records and escaped ones
    (whose gap byte escapes to a following u32), plain first; and the offset
    where the last record ends, past the file if it is cut.

    The records of a run that share the escape state are 10 bytes apart, or
    14, so a run's gap bytes are one strided slice of the file. It is read in
    windows that double while the run lasts, up to _ID_BLOCK records; a run's
    first window is twice as long as the last run of its kind, and at least
    _SCAN_WINDOW. So the scan is linear in the file size however the runs
    alternate, although a trace that alternates on every record pays for a
    window per record."""
    off, n = _HEADER.size, len(data)
    escaped, runs = False, array("q")
    win = [_SCAN_WINDOW, _SCAN_WINDOW]  # records per window, for runs of plain and escaped records
    while off + _RSIZE <= n:
        step = _RSIZE + 4 if escaped else _RSIZE
        count = min(win[escaped], (n - off - _RSIZE) // step + 1)  # gap bytes in the file
        gaps = data[off + _RSIZE - 1 : off + step * count : step]
        # k: records before the first of the other kind (find's -1, none, becomes count)
        k = count - len(gaps.lstrip(_ESCAPE)) if escaped else gaps.find(_ESCAPE) % (count + 1)
        runs.append(k)
        off += step * k
        if k < count:
            win[escaped] = min(max(2 * k, _SCAN_WINDOW), _ID_BLOCK)
            escaped = not escaped
        else:  # the run goes on past this window: an empty run of the other kind
            win[escaped] = min(2 * win[escaped], _ID_BLOCK)
            runs.append(0)
    return runs, off


def _gather(data, runs, phase_id):
    """The trace of the records after the header, in the `runs` of `_scan`,
    read through the `_field` views in blocks of _ID_BLOCK records."""
    runs = np.frombuffer(runs, dtype=np.int64)
    escaped = np.repeat(np.arange(len(runs)) % 2 == 1, runs)
    count = len(escaped)
    pc, flags = np.empty(count, np.uint64), np.empty(count, np.uint8)
    gap = np.empty(count, np.uint32)
    views = [_field(data, dtype, at) for dtype, at in (("<u8", 0), ("u1", 8), ("u1", 9))]
    gap32 = _field(data, "<u4", _RSIZE)
    done = 0  # where the block's first record starts
    for s in range(0, count, _ID_BLOCK):
        t = slice(s, min(s + _ID_BLOCK, count))
        e = escaped[t]
        at = _starts(e, done) // 2
        pc[t], flags[t], gap[t] = (view[at] for view in views)
        gap[t][e] = gap32[at[e]]
        done += _RSIZE * len(e) + 4 * int(e.sum())
    return Trace(pc, (flags & 1) != 0, gap, phase_id=phase_id)


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
    runs, off = _scan(data)
    if off != len(data):  # a cut record is reported at its start, a cut u32 at the u32's
        raise TraceTruncatedError(off - 4 if off > len(data) else off)
    if any(runs[1::2]):
        trace = _gather(data, runs, phase_id=Path(path).stem)
    else:  # every record is 10 bytes: read the columns from the file bytes
        rec = np.frombuffer(data, dtype=_RECORD, offset=_HEADER.size)
        trace = Trace(rec["pc"].astype(np.uint64), (rec["flags"] & 1) != 0,
                      rec["gap"].astype(np.uint32), phase_id=Path(path).stem)
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
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.length < 1:
            raise ConfigError(f"length {self.length}: need 1 or more")
        if not 0.0 <= self.branch_frequency <= 1.0:
            raise ConfigError(f"branch_frequency {self.branch_frequency}: must be in [0, 1]")
        if not 0.0 <= self.offload_ratio <= 1.0:
            raise ConfigError(f"offload_ratio {self.offload_ratio}: must be in [0, 1]")
        if self.noise_branches < 0:
            raise ConfigError(f"noise_branches {self.noise_branches}: need 0 or more")
        if self.kind == "correlated" and self.correlation_distance < 1:
            raise ConfigError(f"correlation_distance {self.correlation_distance}: need 1 or more")
        if self.kind == "correlated" and self.length < self.noise_branches + 2:
            raise ConfigError(
                f"length {self.length} cannot hold one {self.noise_branches + 2}-record block"
            )
        if self.kind == "loop" and self.loop_period < 2:
            raise ConfigError(f"loop_period {self.loop_period}: need 2 or more")


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
    length // (M + 2) blocks. The coins are `random.Random(seed).random() < 0.5`
    in record order (B draws one only in the first k blocks), read off the
    same Mersenne Twister words: random() is ((a >> 5) * 2^26 + (b >> 6)) / 2^53
    of two consecutive words a, b, which is below 1/2 exactly when a < 2^31.
    """
    m = scenario.noise_branches
    k = scenario.correlation_distance
    block = m + 2
    blocks = scenario.length // block
    head = min(k, blocks)  # blocks whose B draws its own coin
    _, state, _ = random.Random(scenario.seed).getstate()
    mt = np.random.MT19937()
    mt.state = {"bit_generator": "MT19937", "state": {"key": np.array(state[:-1], np.uint32),
                                                      "pos": state[-1]}}
    coins = mt.random_raw(2 * (blocks * (m + 1) + head))[::2] < 1 << 31
    taken = np.empty((blocks, block), dtype=bool)
    taken[:head] = coins[: head * block].reshape(head, block)
    taken[head:, :-1] = coins[head * block :].reshape(blocks - head, m + 1)
    taken[head:, -1] = taken[: blocks - head, 0]  # B
    block_pcs = [PC_A] + [PC_NOISE_BASE + 8 * i for i in range(m)] + [PC_B]
    return Trace(np.tile(np.array(block_pcs, dtype=np.uint64), blocks), taken.ravel(),
                 phase_id=f"correlated_m{m}_k{k}_s{scenario.seed}")


def gen_loop(scenario):
    """Single branch with pattern (taken x (s-1), not-taken), phase-shifted by o."""
    s = scenario.loop_period
    o = scenario.loop_offset
    taken = (np.arange(scenario.length) + o) % s != s - 1
    return Trace(np.full(scenario.length, PC_LOOP), taken, phase_id=f"loop_s{s}_o{o}")


def gen_utilization(scenario):
    """Trace of `length` instructions with branches scheduled uniformly.

    Returns (trace, offloaded_pcs): round(length * branch_frequency) branch
    records drawn from a pool of UTIL_STATIC_BRANCHES static branches, of which
    round(pool * offload_ratio) are flagged as offloaded.
    """
    rng = random.Random(scenario.seed)
    total = scenario.length
    n_branch = round(total * scenario.branch_frequency)
    n_static = min(UTIL_STATIC_BRANCHES, n_branch)
    pcs = [PC_UTIL_BASE + 16 * i for i in range(n_static)]
    pc, taken, gap = [], [], []
    prev_pos = 0
    for j in range(1, n_branch + 1):
        pos = round(j * total / n_branch)
        pc.append(rng.choice(pcs))
        taken.append(rng.random() < 0.5)
        gap.append(pos - prev_pos - 1)
        prev_pos = pos
    n_offload = round(n_static * scenario.offload_ratio)
    offloaded = sorted(rng.sample(pcs, n_offload))
    return Trace(pc, taken, gap, phase_id=f"util_s{scenario.seed}"), offloaded


def generate(scenario):
    """Dispatch on scenario kind; utilization also returns its offload list."""
    if scenario.kind == "correlated":
        return gen_correlated(scenario)
    if scenario.kind == "loop":
        return gen_loop(scenario)
    return gen_utilization(scenario)
