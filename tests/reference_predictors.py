"""Per-record reference predictors and simulator loop.

Per-record forms of the gshare, TAGE-lite and SLBIU models: each record's
GHR is an int shift register, every index and tag is folded from it at probe
time, and the SLBIU keeps each entry's LHR as an int that `update` shifts.
`run` is the per-record loop over them. `sbp.simulator` and `sbp.predictors`
compute the same reports from columns; these are the oracle the tests
compare them with.
"""

from sbp.errors import ConfigError
from sbp.predictors import MISS, Slbiu
from sbp.simulator import PerBranchStats, SimReport


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


class ReferenceSlbiu(Slbiu):
    """Slbiu with the per-record LHR update."""

    def __init__(self, config):
        super().__init__(config)
        self._lmask = (1 << config.lh) - 1

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
            index = fold(pc, self._index_bits) ^ fold(hist, self._index_bits) ^ t
            idxs.append(index % self.config.table_entries)
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
            pred = self.base[pc % self.config.base_entries] >= 2
        alt = None
        if provider is not None:
            alt = self.base[pc % self.config.base_entries] >= 2
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
            i = pc % self.config.base_entries
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


def build_baseline(config):
    if config.baseline == "gshare":
        return Gshare(config.gshare_index_bits, config.history.gh)
    if config.baseline == "tage_lite":
        if max(config.tage.history_lengths) > config.history.gh:
            raise ConfigError("TAGE-lite history lengths exceed the shared GHR")
        return TageLite(config.tage)
    raise ConfigError(f"unknown baseline {config.baseline!r}")


def run(trace, config, hintset=None, correct_from=0):
    """Simulate one trace. With a hint set, SLBIU is probed per branch; on a
    hit its direction is used and the baseline's update is suppressed. The
    shared GHR is always updated. No warmup exclusion: every record counts.

    correct_from: record index from which per-branch correct-prediction counts
    accumulate (used by the pipeline to measure the primary predictor).
    """
    baseline = build_baseline(config)
    slbiu = None
    if hintset is not None:
        if hintset.config.gh > config.history.gh:
            raise ConfigError("SLBIU gh must not exceed the shared history gh")
        slbiu = ReferenceSlbiu(hintset.config)
        slbiu.load(hintset)
    gmask = (1 << config.history.gh) - 1
    ghr = 0
    pcs, ids = trace.pc_ids()
    stats_of = [PerBranchStats() for _ in pcs]
    mispredictions = 0
    interval = config.snapshot_interval
    # memoryviews hand out one int and one bool at a time: no per-record list
    for i, (k, taken) in enumerate(zip(memoryview(ids), memoryview(trace.taken))):
        pc = pcs[k]
        stats = stats_of[k]
        stats.occurrences += 1
        pred = MISS if slbiu is None else slbiu.predict(pc, ghr)
        suppress = pred.hit
        if suppress:
            stats.slbiu_hits += 1
            direction = pred.direction
        else:
            direction = baseline.predict(pc, ghr)
        if direction != taken:
            mispredictions += 1
            stats.mispredictions += 1
        if i >= correct_from and direction == taken:
            if suppress:
                stats.slbiu_correct += 1
            else:
                stats.correct += 1
        baseline.update(pc, ghr, taken, suppress=suppress)
        if slbiu is not None:
            slbiu.update(pc, taken)
        ghr = ((ghr << 1) | taken) & gmask
        if (i + 1) % interval == 0:
            baseline.snapshot()
    per_branch = dict(zip(pcs, stats_of))
    for pc, stats in per_branch.items():
        stats.allocations = baseline.allocations(pc)
        stats.unique_entries_avg = baseline.unique_entries_avg(pc)
    total = trace.total_instructions
    mpki = 1000.0 * mispredictions / total if total else 0.0
    return SimReport(
        phase_id=trace.phase_id,
        total_instructions=total,
        mispredictions=mispredictions,
        mpki=mpki,
        per_branch=per_branch,
        offloaded_count=len(hintset.hints) if hintset is not None else 0,
    )
