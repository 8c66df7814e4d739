"""Functional predictor models: the SLBIU hint unit, gshare and TAGE-lite.

The shared GHR always advances with the resolved outcome, so it is a function
of the trace: GHR bit j before record i is the outcome of record i-1-j (bit 0
is the newest, 1 = taken, 0 before the trace starts), row i of the window
`history.past(taken, gh, False)`. So is every index and tag folded from it
(`fold_history`), and every SLBIU sum. The components therefore read columns
of that window, and only the baseline's counters walk record by record, in
trace order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .history import past

DIRECTION_CHUNK_BYTES = 1 << 17  # float64 window rows gathered at a time, bounding the temporaries


@dataclass(frozen=True)
class Prediction:
    direction: bool  # True = taken
    hit: bool


# The only three outcomes of a scalar SLBIU probe, shared by every call.
MISS = Prediction(direction=False, hit=False)
HIT_TAKEN = Prediction(direction=True, hit=True)
HIT_NOT_TAKEN = Prediction(direction=False, hit=True)


def fold_pcs(pcs, width):
    """fold(pc, width) of each 64-bit PC: the XOR of its width-bit chunks."""
    pcs = np.asarray(pcs, dtype=np.uint64)
    out = np.zeros(len(pcs), dtype=np.uint64)
    if width > 0:
        mask = np.uint64((1 << min(width, 64)) - 1)
        for shift in range(0, 64, width):
            out ^= (pcs >> np.uint64(shift)) & mask
    return out


def fold_history(ghr, start, stop, lengths, width):
    """Folded GHR columns over records start..stop-1 of the GHR window `ghr`.

    For each L in `lengths` (ascending, at most the window's width) one
    uint32 column holding fold(ghr & (2^L - 1), width): bit k is the XOR of
    the GHR bits j < L with j % width == k. width is at most 32.
    """
    out = np.zeros(stop - start, dtype=np.uint32)
    cols = []
    j = 0
    for length in lengths:
        while width and j < length:
            out ^= ghr[start:stop, j].astype(np.uint32) << (j % width)
            j += 1
        cols.append(out.copy())
    return cols


class Slbiu:
    """Fully associative CAM of sparsity hints with per-entry local histories."""

    def __init__(self, config):
        self.config = config
        self.entries = {}  # pc -> [datapath, lhr int]; see _datapath
        # Dot product accumulates nnz+1 fixed-point terms of q bits each;
        # ceil(log2(nnz+1)) + q bits suffice.
        self._sum_bits = config.q + max(config.nnz, 0).bit_length()

    def load(self, hintset):
        """Install a hint set: all previous contents dropped, LHRs zeroed."""
        if len(hintset.hints) > self.config.n:
            raise ConfigError(
                f"{len(hintset.hints)} hints exceed SLBIU capacity N={self.config.n}"
            )
        self.entries = {h.pc: [self._datapath(h), 0] for h in hintset.hints}

    def _datapath(self, hint):
        """(bias, GHR terms, LHR terms, fixed) as the adder tree sums them.

        Fixed-point hints become integers in units of 2^-F (exact: their values
        are fixed-point multiples), and their adder-tree range is checked here,
        once, over every possible history. fp32 hints sum as floats. Terms are
        (bit position in the GHR or LHR, weight), in history-index order;
        fixed is False for fp32 hints.
        """
        qspec = hint.qspec
        if qspec is None:
            bias = float(hint.intercept)
            terms = [(j, float(wv)) for j, wv in hint.entries]
        else:
            scale = 1 << qspec.fraction_bits
            bias = round(hint.intercept * scale)
            terms = [(j, round(wv * scale)) for j, wv in hint.entries]
            reach = sum(abs(raw) for _, raw in terms)
            lim = 1 << (self._sum_bits - 1)
            if not (-lim <= bias - reach and bias + reach < lim):
                raise ConfigError(
                    f"hint for pc {hint.pc:#x} overflows the {self._sum_bits}-bit adder tree"
                )
        gh = self.config.gh
        ghr_terms = tuple((j, wv) for j, wv in terms if j < gh)
        lhr_terms = tuple((j - gh, wv) for j, wv in terms if j >= gh)
        return bias, ghr_terms, lhr_terms, qspec is not None

    def predict(self, pc, ghr):
        """One probe with a given GHR and the entry's stored LHR."""
        entry = self.entries.get(pc)
        if entry is None:
            return MISS
        (total, ghr_terms, lhr_terms, _), lhr = entry
        # sign flip for not-taken bits
        for j, wv in ghr_terms:
            total += wv if (ghr >> j) & 1 else -wv
        for j, wv in lhr_terms:
            total += wv if (lhr >> j) & 1 else -wv
        return HIT_TAKEN if total >= 0 else HIT_NOT_TAKEN

    def directions(self, ghr, taken, ids, pcs):
        """Probe every record of a trace: (hit, direction) bool columns.

        ghr is the trace's GHR window (at least this unit's gh wide), taken its
        outcome column, ids each record's index into the distinct `pcs`. A
        resident PC's LHR starts at zero and shifts in each of its own
        outcomes after its probe.

        Each PC's GHR and LHR window rows, up to its hint's last term and
        oldest bit first, are gathered as 0/1 float64 rows, at most
        DIRECTION_CHUNK_BYTES at a time. A term adds w when its bit b is 1 and
        -w when it is 0, that is w*(2b - 1), so a fixed-point sum is
        (bias - sum(w)) + rows @ 2w: integers whose partial sums stay below
        2^sum_bits by the adder-tree check of _datapath (at most 2^32 for the
        formats a hint file holds), exact in float64 in any order. An fp32 sum
        depends on the order, so it adds the terms one by one in the order of
        `predict`.
        """
        hit = np.zeros(len(taken), dtype=bool)
        direction = np.zeros(len(taken), dtype=bool)
        for k, pc in enumerate(pcs):
            entry = self.entries.get(pc)
            if entry is None:
                continue
            (bias, ghr_terms, lhr_terms, fixed), _ = entry
            gw = 1 + max((j for j, _ in ghr_terms), default=-1)
            lw = 1 + max((j for j, _ in lhr_terms), default=-1)
            # (column of the gathered row, weight), in term order
            terms = [(gw - 1 - j, wv) for j, wv in ghr_terms]
            terms += [(gw + lw - 1 - j, wv) for j, wv in lhr_terms]
            twice = np.zeros(gw + lw)
            for col, wv in terms:
                twice[col] = 2 * wv
            base = bias - sum(wv for _, wv in terms)
            rows = np.flatnonzero(ids == k)
            ghr_rows, lhr_rows = ghr[:, :gw][:, ::-1], past(taken[rows], lw, False)[:, ::-1]
            chunk = max(1, DIRECTION_CHUNK_BYTES // (8 * max(gw + lw, 1)))
            buf = np.empty((min(chunk, len(rows)), gw + lw))
            for s in range(0, len(rows), chunk):
                at = rows[s : s + chunk]
                x = buf[: len(at)]
                x[:, :gw] = ghr_rows[at]
                x[:, gw:] = lhr_rows[s : s + chunk]
                if fixed:
                    total = x @ twice
                    total += base
                else:
                    total = np.full(len(at), bias)
                    for col, wv in terms:
                        total += np.where(x[:, col], wv, -wv)
                direction[at] = total >= 0
            hit[rows] = True
        return hit, direction


class Gshare:
    """2-bit-counter gshare; GHR folded by XOR into the index width."""

    def __init__(self, index_bits_, gh, pcs):
        self.index_bits = index_bits_
        self.gh = gh
        self.counters = bytearray([1]) * (1 << index_bits_)  # weakly not-taken
        self._pc_bits = np.asarray(pcs, dtype=np.uint64) & np.uint64((1 << index_bits_) - 1)

    def walk(self, ids, taken, ghr, start, stop, rows):
        """Predict, then train on, records `rows` (ascending, in start..stop)
        in order; returns their predicted directions."""
        (hist,) = fold_history(ghr, start, stop, (self.gh,), self.index_bits)
        index = self._pc_bits[ids[rows]] ^ hist[rows - start]
        pred = bytearray(len(rows))
        ctr = self.counters
        for r, (i, t) in enumerate(zip(memoryview(index), memoryview(taken[rows]))):
            c = ctr[i]
            pred[r] = c >= 2
            if t:
                if c < 3:
                    ctr[i] = c + 1
            elif c:
                ctr[i] = c - 1
        return np.frombuffer(pred, dtype=bool)

    def snapshot(self):
        pass

    def allocations(self):
        return [0] * len(self._pc_bits)

    def unique_entries_avg(self):
        return [0.0] * len(self._pc_bits)


@dataclass(frozen=True)
class TageLiteConfig:
    num_tables: int = 4
    table_entries: int = 256  # per tagged table
    tag_bits: int = 8
    base_entries: int = 1024  # bimodal fallback
    history_lengths: tuple = ()  # default: 4 * 2^t, strictly increasing

    def __post_init__(self):
        lengths = self.history_lengths or tuple(
            4 * (1 << t) for t in range(self.num_tables)
        )
        if list(lengths) != sorted(set(lengths)):
            raise ValueError("history lengths must be strictly increasing")
        if len(lengths) != self.num_tables:
            raise ValueError("need one history length per table")
        if not 1 <= self.table_entries <= 1 << 32 or self.base_entries < 1:
            raise ValueError("TAGE tables need at least one entry, tagged ones at most 2^32")
        if not 0 <= self.tag_bits <= 32:
            raise ValueError("TAGE tags are 0 to 32 bits")
        object.__setattr__(self, "history_lengths", tuple(lengths))


class TageLite:
    """Simplified TAGE: tagged tables over geometric history lengths plus a
    bimodal base. Tracks per-PC allocation counts and periodic-snapshot
    unique-entry averages (entries tagged by the allocating PC).

    The tagged tables are flat over (table, index). An entry holds its tag
    plus one, so 0 marks an entry that was never allocated.
    """

    def __init__(self, config, pcs):
        self.config = config
        self._index_bits = (config.table_entries - 1).bit_length()
        size = config.num_tables * config.table_entries
        self.base = bytearray([1]) * config.base_entries  # weakly not-taken
        self._tag = np.zeros(size, dtype=np.int64)
        self._ctr = bytearray(size)
        self._u = bytearray(size)
        self._owner = np.full(size, -1, dtype=np.int32)  # pc index of the allocator
        pcs = np.asarray(pcs, dtype=np.uint64)
        self._pc_index = fold_pcs(pcs, self._index_bits)
        self._pc_tag = fold_pcs(pcs, config.tag_bits)
        self._pc_base = pcs % np.uint64(config.base_entries)
        self._alloc = [0] * len(pcs)
        self._snap_sum = np.zeros(len(pcs), dtype=np.int64)
        self._snap_count = 0

    def _slots_and_tags(self, ids, ghr, start, stop, rows):
        """Per table, the flat entry slot and the tag (plus one) of each row."""
        cfg = self.config
        lengths = cfg.history_lengths
        hists = fold_history(ghr, start, stop, lengths, self._index_bits)
        tag_hists = (
            hists if cfg.tag_bits == self._index_bits
            else fold_history(ghr, start, stop, lengths, cfg.tag_bits)
        )
        k, off = ids[rows], rows - start
        pc_index, pc_tag = self._pc_index[k], self._pc_tag[k]
        size, tmask = np.uint64(cfg.table_entries), (1 << cfg.tag_bits) - 1
        slots, tags = [], []
        for t in range(cfg.num_tables):
            index = (pc_index ^ hists[t][off] ^ np.uint64(t)) % size
            slots.append(memoryview(index.astype(np.int64) + t * cfg.table_entries))
            tag = (pc_tag ^ tag_hists[t][off] ^ np.uint64(t << 1)) & np.uint64(tmask)
            tags.append(memoryview(tag.astype(np.int64) + 1))
        return slots, tags

    def walk(self, ids, taken, ghr, start, stop, rows):
        """Predict, then train on, records `rows` (ascending, in start..stop)
        in order; returns their predicted directions."""
        slots, tags = self._slots_and_tags(ids, ghr, start, stop, rows)
        tables = range(self.config.num_tables)
        longest_first = tables[::-1]
        base, ctr, u, alloc = self.base, self._ctr, self._u, self._alloc
        tag, owner = memoryview(self._tag), memoryview(self._owner)
        k = ids[rows]
        pred_out = bytearray(len(rows))
        records = zip(
            memoryview(k), memoryview(taken[rows]), memoryview(self._pc_base[k]),
            zip(*slots), zip(*tags),
        )
        for r, (pc, t, b, sl, tg) in enumerate(records):
            provider = -1
            for p in longest_first:
                if tag[sl[p]] == tg[p]:
                    provider = p
                    break
            if provider >= 0:
                s = sl[provider]
                c = ctr[s]
                pred = c >= 4
                alt = base[b] >= 2
                for a in range(provider - 1, -1, -1):
                    if tag[sl[a]] == tg[a]:
                        alt = ctr[sl[a]] >= 4
                        break
                if t:
                    if c < 7:
                        ctr[s] = c + 1
                elif c:
                    ctr[s] = c - 1
                if pred != alt:
                    c = u[s]
                    if pred == t:
                        if c < 3:
                            u[s] = c + 1
                    elif c:
                        u[s] = c - 1
            else:
                c = base[b]
                pred = c >= 2
                if t:
                    if c < 3:
                        base[b] = c + 1
                elif c:
                    base[b] = c - 1
            pred_out[r] = pred
            if pred != t:
                candidates = tables[provider + 1:]
                for v in candidates:
                    s = sl[v]
                    if u[s] == 0:
                        tag[s] = tg[v]
                        ctr[s] = 4 if t else 3  # weak in the resolved direction
                        owner[s] = pc
                        alloc[pc] += 1
                        break
                else:
                    for v in candidates:
                        s = sl[v]
                        if u[s]:
                            u[s] -= 1
        return np.frombuffer(pred_out, dtype=bool)

    def snapshot(self):
        owners = self._owner[self._owner >= 0]
        self._snap_sum += np.bincount(owners, minlength=len(self._snap_sum))
        self._snap_count += 1

    def allocations(self):
        return list(self._alloc)

    def unique_entries_avg(self):
        if self._snap_count == 0:
            return [0.0] * len(self._snap_sum)
        return [n / self._snap_count for n in self._snap_sum.tolist()]
