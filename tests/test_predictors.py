import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbp import predictors
from sbp.errors import ConfigError
from sbp.hints import Q3_4, HintSet, SlbiuConfig, SparsityHint
from sbp.history import past
from sbp.predictors import (
    HIT_NOT_TAKEN,
    HIT_TAKEN,
    MISS,
    Slbiu,
    TageLiteConfig,
    fold_history,
    fold_pcs,
)
from tests.conftest import random_trace
from tests.reference_predictors import Gshare, TageLite, fold


def make_slbiu(hints, lh=4, gh=8, n=4, nnz=4, q=8):
    unit = Slbiu(SlbiuConfig(lh=lh, gh=gh, n=n, nnz=nnz, q=q))
    unit.load(HintSet("", SlbiuConfig(lh=lh, gh=gh, n=n, nnz=nnz, q=q), hints))
    return unit


def test_fold():
    assert fold(0b1111_0000, 4) == 0b1111
    assert fold(0b1010_0110, 4) == 0b1100
    assert fold(123, 0) == 0
    assert fold(0, 8) == 0


@settings(deadline=None)
@given(
    st.lists(st.booleans(), max_size=200),
    st.integers(0, 130),
    st.integers(0, 32),
    st.data(),
)
def test_fold_history_matches_shift_register(outcomes, length, width, data):
    taken = np.array(outcomes, dtype=bool)
    start = data.draw(st.integers(0, len(taken)))
    stop = data.draw(st.integers(start, len(taken)))
    lengths = sorted({length, data.draw(st.integers(0, length))})
    cols = fold_history(past(taken, length, False), start, stop, lengths, width)
    ghr = 0
    for i, t in enumerate(outcomes[:stop]):
        if i >= start:
            for col, n in zip(cols, lengths):
                assert col[i - start] == fold(ghr & ((1 << n) - 1), width)
        ghr = (ghr << 1) | t
    assert [col.dtype for col in cols] == [np.uint32] * len(lengths)


@settings(deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=8), st.integers(0, 70))
def test_fold_pcs_matches_fold(pcs, width):
    assert fold_pcs(pcs, width).tolist() == [fold(pc, width) for pc in pcs]


def test_slbiu_miss():
    unit = make_slbiu([])
    pred = unit.predict(0x42, 0)
    assert not pred.hit


def test_slbiu_single_weight_sign_flip():
    hint = SparsityHint(0x42, 0.0, [(2, 1.0)], Q3_4)
    unit = make_slbiu([hint])
    taken_hist = unit.predict(0x42, 0b100)
    not_taken_hist = unit.predict(0x42, 0b000)
    assert taken_hist.hit and taken_hist.direction is True
    assert not_taken_hist.direction is False


def test_slbiu_zero_sum_is_taken():
    # sign rule: sum >= 0 predicts taken
    hint = SparsityHint(0x42, 1.0, [(0, 1.0)], Q3_4)
    unit = make_slbiu([hint])
    assert unit.predict(0x42, 0b0).direction is True  # 1.0 - 1.0 = 0


def test_slbiu_local_history_path():
    # index gh+1 selects LHR bit 1
    hint = SparsityHint(0x42, 0.0, [(9, 2.0)], Q3_4)
    unit = make_slbiu([hint], lh=4, gh=8)
    assert unit.predict(0x42, 0).direction is False
    unit.entries[0x42][1] = 0b01
    assert unit.predict(0x42, 0).direction is False
    unit.entries[0x42][1] = 0b10
    assert unit.predict(0x42, 0).direction is True
    # over a trace the LHR starts at 0 and shifts in the PC's own outcomes
    taken = np.array([True, False, False])
    hit, direction = unit.directions(past(taken, 8, False), taken, np.zeros(3, np.int32), [0x42])
    assert hit.tolist() == [True] * 3
    assert direction.tolist() == [False, False, True]


def test_slbiu_update_misses_are_no_ops():
    # outcomes of a PC without a hint never shift a resident PC's LHR
    unit = make_slbiu([SparsityHint(0x42, 0.0, [(8, 1.0)], Q3_4)])  # LHR bit 0
    taken = np.array([True, False, True, False])
    ids = np.array([1, 0, 1, 0], dtype=np.int32)  # 0x99, 0x42, 0x99, 0x42
    hit, direction = unit.directions(past(taken, 8, False), taken, ids, [0x42, 0x99])
    assert hit.tolist() == [False, True, False, True]
    assert direction.tolist() == [False] * 4


def test_slbiu_capacity():
    hints = [SparsityHint(pc, 0.0, [(0, 1.0)], Q3_4) for pc in range(3)]
    unit = Slbiu(SlbiuConfig(lh=4, gh=8, n=2, nnz=1, q=8))
    with pytest.raises(ConfigError):
        unit.load(HintSet("", SlbiuConfig(lh=4, gh=8, n=3, nnz=1, q=8), hints))


def test_slbiu_load_resets_lhr():
    hint = SparsityHint(0x42, 0.0, [(0, 1.0)], Q3_4)
    unit = make_slbiu([hint])
    unit.entries[0x42][1] = 0b1
    unit.load(HintSet("", unit.config, [hint]))
    assert unit.entries[0x42][1] == 0


def test_slbiu_adder_width_covers_extremes():
    # nnz saturated weights plus intercept at the format limits must not
    # overflow the q + ceil(log2(nnz+1)) adder
    entries = [(j, -8.0 if j % 2 else 7.9375) for j in range(4)]
    hint = SparsityHint(0x42, -8.0, entries, Q3_4)
    unit = make_slbiu([hint], nnz=4)  # load checks the adder range
    assert unit.predict(0x42, 0b0101).direction is True  # -8 + 7.9375 + 8 + 7.9375 + 8
    assert unit.predict(0x42, 0b1010).direction is False  # -8 - 7.9375 - 8 - 7.9375 - 8


def test_slbiu_load_rejects_adder_overflow():
    # 5.0 + 4 * 7.9375 = 36.75 fits the 11-bit adder of an nnz cap of 4
    # (limit 64.0) but not the 9-bit adder of an nnz cap of 1 (limit 16.0)
    hint = SparsityHint(0x42, 5.0, [(j, 7.9375) for j in range(4)], Q3_4)
    make_slbiu([hint], nnz=4)
    unit = Slbiu(SlbiuConfig(lh=4, gh=8, n=1, nnz=1, q=8))
    with pytest.raises(ConfigError):
        unit.load(HintSet("", SlbiuConfig(lh=4, gh=8, n=1, nnz=4, q=8), [hint]))


def test_slbiu_predictions_are_shared_constants():
    unit = make_slbiu([SparsityHint(0x42, 0.0, [(0, 1.0)], Q3_4)])
    assert unit.predict(0x99, 0) is MISS
    assert unit.predict(0x42, 0b1) is HIT_TAKEN
    assert unit.predict(0x42, 0b0) is HIT_NOT_TAKEN
    with pytest.raises(AttributeError):
        MISS.hit = True  # frozen


def test_slbiu_fp32_global_and_local_terms():
    # index 1 is GHR bit 1, index 9 is LHR bit 1
    hint = SparsityHint(0x42, -0.25, [(1, 0.5), (9, 0.75)], None)
    unit = make_slbiu([hint], lh=4, gh=8, q=32)
    assert unit.predict(0x42, 0b00).direction is False  # -0.25 - 0.5 - 0.75
    assert unit.predict(0x42, 0b10).direction is False  # -0.25 + 0.5 - 0.75
    unit.entries[0x42][1] = 0b10
    assert unit.predict(0x42, 0b00).direction is True  # -0.25 - 0.5 + 0.75 = 0
    assert unit.predict(0x42, 0b10).direction is True  # -0.25 + 0.5 + 0.75


def test_gshare_learns_and_suppresses():
    g = Gshare(6, 8)
    pc, ghr = 0x7, 0b1011
    assert g.predict(pc, ghr) is False  # init weakly not-taken
    g.update(pc, ghr, True)
    g.update(pc, ghr, True)
    assert g.predict(pc, ghr) is True
    g.update(pc, ghr, False, suppress=True)  # halt-update: no effect
    assert g.predict(pc, ghr) is True
    g.update(pc, ghr, False)
    g.update(pc, ghr, False)
    assert g.predict(pc, ghr) is False


def test_gshare_counter_saturation():
    g = Gshare(4, 4)
    for _ in range(10):
        g.update(1, 0, True)
    assert max(g.counters) == 3
    for _ in range(20):
        g.update(1, 0, False)
    assert min(g.counters) == 0


def test_tage_config_validation():
    with pytest.raises(ValueError):
        TageLiteConfig(num_tables=2, history_lengths=(8, 8))
    with pytest.raises(ValueError):
        TageLiteConfig(num_tables=3, history_lengths=(4, 8))
    assert TageLiteConfig(num_tables=3).history_lengths == (4, 8, 16)
    for bad in ({"table_entries": 0}, {"base_entries": 0}, {"tag_bits": 33}):
        with pytest.raises(ValueError):
            TageLiteConfig(**bad)


def test_tage_allocates_on_misprediction():
    t = TageLite(TageLiteConfig(num_tables=2, table_entries=16, tag_bits=6,
                                base_entries=16))
    pc, ghr = 0x9, 0b1101
    assert t.predict(pc, ghr) is False  # bimodal init
    t.update(pc, ghr, True)  # mispredict: allocate an entry owned by pc
    assert t.allocations(pc) == 1
    owners = [e.owner for table in t.tables for e in table if e.valid]
    assert owners == [pc]


def test_tage_suppress_freezes_state():
    cfg = TageLiteConfig(num_tables=2, table_entries=16, tag_bits=6, base_entries=16)
    t = TageLite(cfg)
    pc, ghr = 0x9, 0b1101
    t.predict(pc, ghr)
    t.update(pc, ghr, True, suppress=True)
    assert t.allocations(pc) == 0
    assert not any(e.valid for table in t.tables for e in table)
    assert t.base == [1] * 16


def test_tage_snapshot_statistics():
    t = TageLite(TageLiteConfig(num_tables=2, table_entries=16, tag_bits=6,
                                base_entries=16))
    assert t.unique_entries_avg(0x9) == 0.0
    t.predict(0x9, 0b1)
    t.update(0x9, 0b1, True)
    t.snapshot()
    t.snapshot()
    assert t.unique_entries_avg(0x9) == 1.0
    assert t.unique_entries_avg(0xBAD) == 0.0


def test_tage_longest_match_provides():
    cfg = TageLiteConfig(num_tables=2, table_entries=32, tag_bits=8, base_entries=32,
                         history_lengths=(2, 6))
    t = TageLite(cfg)
    pc = 0x3
    # Same short history, different long history: train the long table to
    # distinguish what the short table cannot.
    for _ in range(8):
        t.predict(pc, 0b000001)
        t.update(pc, 0b000001, True)
        t.predict(pc, 0b110001)
        t.update(pc, 0b110001, False)
    assert t.predict(pc, 0b000001) is True
    assert t.predict(pc, 0b110001) is False


@pytest.mark.parametrize("entries, base_entries", [(255, 1000), (100, 7)])
def test_tage_tables_of_any_size_use_every_slot(entries, base_entries):
    # Reducing the folded index modulo the size reaches every slot; a mask of
    # entries - 1 reached only 128 of 255 slots (254 = 0b11111110) and 16 of 100
    trace = random_trace(20_000, n_pcs=64, seed=3)
    cfg = TageLiteConfig(table_entries=entries, base_entries=base_entries)
    pcs, ids = trace.pc_ids()
    tage = predictors.TageLite(cfg, pcs)
    ghr = past(trace.taken, max(cfg.history_lengths), False)
    tage.walk(ids, trace.taken, ghr, 0, len(trace), np.arange(len(trace)))
    used = np.count_nonzero(tage._tag.reshape(cfg.num_tables, entries), axis=1)
    assert (used > entries // 2 + 1).all(), used
    assert len(set(tage._pc_base.tolist())) == min(len(pcs), base_entries)
