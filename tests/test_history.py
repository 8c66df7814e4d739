import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbp.history import HistoryConfig, collect_datasets, past, sample_rows
from sbp.trace_io import PC_B, PC_LOOP, SyntheticScenario, Trace, gen_correlated, gen_loop
from tests.conftest import int8_rows, random_trace
from tests.reference_history import ints_to_pm1, reference_collect_datasets


def test_ints_to_pm1_bit_order():
    # bit 0 is the newest outcome and lands in column 0
    out = ints_to_pm1([0b0101], 4)
    assert out.tolist() == [[1, -1, 1, -1]]
    assert out.dtype == np.int8


def test_ints_to_pm1_empty_width():
    assert ints_to_pm1([3, 7], 0).shape == (2, 0)


def test_collect_datasets_matches_reference_queue():
    """Oracle: explicit deques of recent outcomes, newest first, with missing
    history reading as not taken."""
    config = HistoryConfig(gh=6, lh=3)
    rng = random.Random(2)
    pcs = [10, 20, 30]
    picks = [(rng.choice(pcs), rng.random() < 0.5) for _ in range(400)]
    trace = Trace([pc for pc, _ in picks], [taken for _, taken in picks])
    ref_g = deque(maxlen=6)
    ref_l = {}
    want = {}
    for i, (pc, taken) in enumerate(picks):
        if i >= config.gh + config.lh:
            local = ref_l.get(pc, ())
            row = [1 if ref_g[j] else -1 for j in range(6)]
            row += [(1 if local[j] else -1) if j < len(local) else -1 for j in range(3)]
            want.setdefault(pc, []).append(row)
        ref_g.appendleft(taken)
        ref_l.setdefault(pc, deque(maxlen=3)).appendleft(taken)
    got = collect_datasets(trace, config)
    assert set(got) == set(want)
    for pc, rows in want.items():
        assert int8_rows(got[pc]).tolist() == rows


def test_features_layout():
    config = HistoryConfig(gh=3, lh=2)
    trace = Trace([9, 7, 7, 7, 7, 7], [False, True, False, True, True, False])
    ds = collect_datasets(trace, config)[7]
    # one sample, read before the last record: GHR segment first (newest =
    # index 0), then the LHR segment of pc 7
    assert int8_rows(ds).tolist() == [[1, 1, -1, 1, 1]]
    assert ds.y.tolist() == [False]


def test_local_history_pads_with_not_taken():
    # the sample is pc 2's second occurrence: one outcome of local history
    trace = Trace([1, 1, 2, 2], [True, False, True, False])
    ds = collect_datasets(trace, HistoryConfig(gh=1, lh=2))[2]
    assert int8_rows(ds).tolist() == [[1, 1, -1]]


def test_config_validation():
    with pytest.raises(ValueError):
        HistoryConfig(gh=0, lh=0)
    with pytest.raises(ValueError):
        HistoryConfig(gh=-1, lh=2)
    assert HistoryConfig(gh=4, lh=0).l == 4


def test_warmup_boundary():
    config = HistoryConfig(gh=5, lh=3)
    trace = random_trace(100, n_pcs=2, seed=4)
    datasets = collect_datasets(trace, config)
    total = sum(ds.m for ds in datasets.values())
    assert total == 100 - 8  # first gh+lh records are warmup only


def test_samples_use_history_before_update():
    # Single branch, alternating outcomes: with gh=1 the feature is the
    # previous outcome, so it must be the opposite of the label every time.
    trace = Trace([5] * 50, [i % 2 == 0 for i in range(50)])
    ds = collect_datasets(trace, HistoryConfig(gh=1, lh=0))[5]
    assert ds.m == 49
    assert np.all((int8_rows(ds)[:, 0] == 1) != ds.y)


def test_loop_lhr_mirrors_ghr():
    # One static branch only: its local history equals the global history.
    trace = gen_loop(SyntheticScenario(kind="loop", length=500, loop_period=5))
    ds = collect_datasets(trace, HistoryConfig(gh=4, lh=4))[PC_LOOP]
    x = int8_rows(ds)
    assert np.array_equal(x[:, :4], x[:, 4:])


def test_missing_target_has_no_dataset():
    trace = random_trace(50, seed=1)
    config = HistoryConfig(gh=4, lh=2)
    assert 0xDEAD not in collect_datasets(trace, config)
    assert sample_rows(trace, config, targets={0xDEAD})[0] == []


def test_targets_filter():
    trace = random_trace(300, n_pcs=3, seed=6)
    pc = int(trace.pc[250])
    config = HistoryConfig(gh=4, lh=2)
    branches, rows = sample_rows(trace, config, targets={pc})
    full = collect_datasets(trace, config)[pc]
    assert branches == [(pc, full.m)]
    x = np.empty((full.m, config.l), dtype=np.int8)
    assert np.array_equal(rows(0, np.arange(full.m), x), full.y)
    assert np.array_equal(x, int8_rows(full))


PCS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5, unique=True)


@st.composite
def traces_and_configs(draw, max_len=120):
    pcs = draw(PCS)
    picks = draw(st.lists(st.tuples(st.sampled_from(pcs), st.booleans()), max_size=max_len))
    trace = Trace([pc for pc, _ in picks], [taken for _, taken in picks])
    gh = draw(st.integers(0, 20))
    lh = draw(st.integers(0 if gh else 1, 20))
    absent = draw(st.integers(0, 2**64 - 1).filter(lambda pc: pc not in pcs))
    targets = draw(st.none() | st.sets(st.sampled_from(pcs + [absent])))
    return trace, HistoryConfig(gh, lh), targets


@settings(max_examples=300, deadline=None)
@given(traces_and_configs())
def test_collect_datasets_equals_per_record_replay(case):
    """Same bytes, dtypes, shapes and dict order as the shift-register replay,
    including empty traces, traces inside the warmup, gh = 0 or lh = 0,
    targets missing from the trace, and PCs up to 2^64 - 1."""
    trace, config, targets = case
    got = collect_datasets(trace, config)
    got = {pc: ds for pc, ds in got.items() if targets is None or pc in targets}
    want = reference_collect_datasets(trace, config, targets)
    assert list(got) == list(want)
    for pc, ds in got.items():
        ref = want[pc]
        assert ds.target_pc == pc and ds.config == config
        x, ref_x = int8_rows(ds), int8_rows(ref)
        assert ds.y.dtype == np.bool_
        assert x.shape == ref_x.shape == (ds.m, config.l)
        assert x.tobytes() == ref_x.tobytes()
        assert ds.y.tobytes() == ref.y.tobytes()
        columns = ds.fill(np.empty((ds.m, config.l), order="F"))
        assert np.array_equal(columns, ref_x)


def test_collect_datasets_holds_no_feature_matrix():
    """The datasets keep their outcomes; their rows are gathered on use, so
    collecting every branch of a trace costs a fraction of its int8 rows."""
    trace = gen_correlated(SyntheticScenario("correlated", length=40_000, seed=3,
                                             noise_branches=4))
    config = HistoryConfig(gh=64, lh=16)
    tracemalloc.start()
    try:
        datasets = collect_datasets(trace, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = sum(ds.m for ds in datasets.values()) * config.l
    assert rows > 3_000_000
    assert peak < rows / 3
    ds = datasets[PC_B]
    # B is A of the block before: 11 records back
    assert np.array_equal(int8_rows(ds)[:, 10] == 1, ds.y)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-1, 1), max_size=60),
    st.integers(0, 70),
    st.integers(-1, 1),
    st.sampled_from([np.int8, np.bool_]),
)
def test_past_matches_shift_register(values, length, fill, dtype):
    """Row i holds the `length` values before position i, newest first, with
    `fill` before the column starts: a shift register read before each push.
    Lengths 0 and beyond the column included."""
    col = np.array(values, dtype=dtype)
    window = past(col, length, dtype(fill))
    assert window.shape == (len(col), length) and window.dtype == col.dtype
    register = deque([dtype(fill)] * length, maxlen=length)
    for i, value in enumerate(col):
        assert window[i].tolist() == list(register)
        register.appendleft(value)
