"""Functional predictor models: the SLBIU hint unit, gshare, and TAGE-lite.

All histories arrive as ints (bit 0 = newest outcome, 1 = taken); components
slice off the low bits they use. Prediction before update within one branch is
the caller's responsibility (the simulator orders probe -> resolve -> update).
"""

from dataclasses import dataclass

from .errors import ConfigError

SLBIU_LATENCY = 3
BASELINE_LATENCY = 1


@dataclass(frozen=True)
class Prediction:
    direction: bool  # True = taken
    hit: bool
    latency_cycles: int


# The only three outcomes of an SLBIU probe, shared by every call.
MISS = Prediction(direction=False, hit=False, latency_cycles=BASELINE_LATENCY)
HIT_TAKEN = Prediction(direction=True, hit=True, latency_cycles=SLBIU_LATENCY)
HIT_NOT_TAKEN = Prediction(direction=False, hit=True, latency_cycles=SLBIU_LATENCY)


def fold(value, width):
    """XOR-fold an arbitrary-width int down to `width` bits."""
    if width <= 0:
        return 0
    mask = (1 << width) - 1
    out = 0
    while value:
        out ^= value & mask
        value >>= width
    return out


class Slbiu:
    """Fully associative CAM of sparsity hints with per-entry local histories."""

    def __init__(self, config):
        self.config = config
        self.entries = {}  # pc -> [datapath, lhr int]; see _datapath
        self._lmask = (1 << config.lh) - 1
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
        """(bias, GHR terms, LHR terms) as the adder tree sums them.

        Fixed-point hints become integers in units of 2^-F (exact: their values
        are fixed-point multiples), and their adder-tree range is checked here,
        once, over every possible history. Terms are (bit position in the GHR
        or LHR, weight), in history-index order.
        """
        qspec = hint.qspec
        if qspec is None:
            bias, terms = hint.intercept, hint.entries
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
        return bias, ghr_terms, lhr_terms

    def predict(self, pc, ghr):
        entry = self.entries.get(pc)
        if entry is None:
            return MISS
        (total, ghr_terms, lhr_terms), lhr = entry
        # sign flip for not-taken bits
        for j, wv in ghr_terms:
            total += wv if (ghr >> j) & 1 else -wv
        for j, wv in lhr_terms:
            total += wv if (lhr >> j) & 1 else -wv
        return HIT_TAKEN if total >= 0 else HIT_NOT_TAKEN

    def update(self, pc, taken):
        """Shift the outcome into the entry's LHR; weights never change."""
        entry = self.entries.get(pc)
        if entry is not None:
            entry[1] = ((entry[1] << 1) | (1 if taken else 0)) & self._lmask


class Gshare:
    """2-bit-counter gshare; GHR folded by XOR into the index width."""

    def __init__(self, index_bits_, gh):
        self.index_bits = index_bits_
        self.gh = gh
        self._mask = (1 << index_bits_) - 1
        self._gmask = (1 << gh) - 1
        self.counters = [1] * (1 << index_bits_)  # weakly not-taken

    def _index(self, pc, ghr):
        return (pc ^ fold(ghr & self._gmask, self.index_bits)) & self._mask

    def predict(self, pc, ghr):
        return self.counters[self._index(pc, ghr)] >= 2

    def update(self, pc, ghr, taken, suppress=False):
        if suppress:
            return
        i = self._index(pc, ghr)
        c = self.counters[i]
        self.counters[i] = min(c + 1, 3) if taken else max(c - 1, 0)

    def snapshot(self):
        pass

    def allocations(self, pc):
        return 0

    def unique_entries_avg(self, pc):
        return 0.0


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
        object.__setattr__(self, "history_lengths", tuple(lengths))


class _TageEntry:
    __slots__ = ("tag", "ctr", "u", "owner", "valid")

    def __init__(self):
        self.tag = 0
        self.ctr = 0
        self.u = 0
        self.owner = 0
        self.valid = False


class TageLite:
    """Simplified TAGE: tagged tables over geometric history lengths plus a
    bimodal base. Tracks per-PC allocation counts and periodic-snapshot
    unique-entry averages (entries tagged by the allocating PC)."""

    def __init__(self, config):
        self.config = config
        ib = (config.table_entries - 1).bit_length()
        self._index_bits = ib
        self._imask = config.table_entries - 1
        self._base_mask = config.base_entries - 1
        self.base = [1] * config.base_entries  # weakly not-taken
        self.tables = [
            [_TageEntry() for _ in range(config.table_entries)]
            for _ in range(config.num_tables)
        ]
        self._alloc = {}
        self._snap_sum = {}
        self._snap_count = 0
        self._last = None

    def _components(self, pc, ghr):
        idxs = []
        tags = []
        for t, length in enumerate(self.config.history_lengths):
            hist = ghr & ((1 << length) - 1)
            idxs.append((fold(pc, self._index_bits) ^ fold(hist, self._index_bits) ^ t) & self._imask)
            tags.append(
                (fold(pc, self.config.tag_bits) ^ fold(hist, self.config.tag_bits) ^ (t << 1))
                & ((1 << self.config.tag_bits) - 1)
            )
        return idxs, tags

    def predict(self, pc, ghr):
        idxs, tags = self._components(pc, ghr)
        provider = None
        for t in range(self.config.num_tables - 1, -1, -1):
            e = self.tables[t][idxs[t]]
            if e.valid and e.tag == tags[t]:
                provider = t
                break
        if provider is not None:
            pred = self.tables[provider][idxs[provider]].ctr >= 4
        else:
            pred = self.base[pc & self._base_mask] >= 2
        alt = None
        if provider is not None:
            alt = self.base[pc & self._base_mask] >= 2
            for t in range(provider - 1, -1, -1):
                e = self.tables[t][idxs[t]]
                if e.valid and e.tag == tags[t]:
                    alt = e.ctr >= 4
                    break
        self._last = (pc, ghr, idxs, tags, provider, pred, alt)
        return pred

    def update(self, pc, ghr, taken, suppress=False):
        if suppress:
            self._last = None
            return
        if self._last is not None and self._last[0] == pc and self._last[1] == ghr:
            _, _, idxs, tags, provider, pred, alt = self._last
        else:
            self.predict(pc, ghr)
            _, _, idxs, tags, provider, pred, alt = self._last
        self._last = None
        if provider is not None:
            e = self.tables[provider][idxs[provider]]
            e.ctr = min(e.ctr + 1, 7) if taken else max(e.ctr - 1, 0)
            if alt is not None and pred != alt:
                e.u = min(e.u + 1, 3) if pred == taken else max(e.u - 1, 0)
        else:
            i = pc & self._base_mask
            c = self.base[i]
            self.base[i] = min(c + 1, 3) if taken else max(c - 1, 0)
        if pred != taken:
            start = 0 if provider is None else provider + 1
            candidates = [
                (t, self.tables[t][idxs[t]])
                for t in range(start, self.config.num_tables)
            ]
            victim = next(((t, e) for t, e in candidates if e.u == 0), None)
            if victim is not None:
                t, e = victim
                e.tag = tags[t]
                e.ctr = 4 if taken else 3  # weak in the resolved direction
                e.u = 0
                e.owner = pc
                e.valid = True
                self._alloc[pc] = self._alloc.get(pc, 0) + 1
            else:
                for _, e in candidates:
                    e.u = max(e.u - 1, 0)

    def snapshot(self):
        counts = {}
        for table in self.tables:
            for e in table:
                if e.valid:
                    counts[e.owner] = counts.get(e.owner, 0) + 1
        for pc, n in counts.items():
            self._snap_sum[pc] = self._snap_sum.get(pc, 0) + n
        self._snap_count += 1

    def allocations(self, pc):
        return self._alloc.get(pc, 0)

    def unique_entries_avg(self, pc):
        if self._snap_count == 0:
            return 0.0
        return self._snap_sum.get(pc, 0) / self._snap_count
