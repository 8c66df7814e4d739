import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbp import predictors
from sbp.errors import ConfigError
from sbp.history import HistoryConfig, collect_datasets
from sbp.hints import (
    FP32_WIDTH,
    Q3_4,
    Q3_12,
    HintSet,
    SlbiuConfig,
    SparsityHint,
    decode_hintset,
    empty_hintset,
    encode_hintset,
    hint_from_model,
    quantize,
)
from sbp.predictors import TageLiteConfig
from sbp.simulator import (
    SimConfig,
    render_scurve_csv,
    report_scurve,
    run,
    run_pipeline,
    select_hints,
    train_models,
)
from sbp.sparse_modeling import BranchScreen, SolverConfig, SparseModel, correct_count
from sbp.trace_io import (
    PC_B,
    SyntheticScenario,
    Trace,
    gen_correlated,
    gen_loop,
)
from tests.conftest import random_trace
from tests.reference_predictors import run as reference_run


def assert_runs_agree(*case):
    """run equals the per-record oracle: the report, and the slbiu_correct
    counts that the report leaves out."""
    got, want = run(*case), reference_run(*case)
    assert got.to_json() == want.to_json()
    assert [s.slbiu_correct for s in got.per_branch.values()] == [
        s.slbiu_correct for s in want.per_branch.values()]


def sim_config(gh=10, lh=4, **kw):
    return SimConfig(history=HistoryConfig(gh, lh), gshare_index_bits=8, **kw)


def test_mpki_identity():
    trace = random_trace(2000, seed=3)
    report = run(trace, sim_config())
    assert report.mpki == 1000.0 * report.mispredictions / trace.total_instructions
    assert sum(s.occurrences for s in report.per_branch.values()) == 2000


def test_mpki_counts_instruction_gaps():
    trace = Trace([1] * 100, [True] * 100, [9] * 100)  # 10 instructions each
    report = run(trace, sim_config())
    assert report.total_instructions == 1000
    assert report.mpki == report.mispredictions  # 1000 instructions exactly


def test_determinism():
    trace = random_trace(3000, seed=8)
    a = run(trace, sim_config())
    b = run(trace, sim_config())
    assert a.to_json() == b.to_json()


def test_empty_hintset_is_identity():
    trace = random_trace(3000, seed=9)
    cfg = sim_config()
    plain = run(trace, cfg)
    coupled = run(trace, cfg, hintset=empty_hintset(lh=4, gh=10, q=8))
    assert plain.to_json() == coupled.to_json()


def test_hint_overrides_and_suppresses_baseline():
    # An always-taken branch with an always-taken hint: the SLBIU must answer
    # every occurrence and the gshare counters must stay untouched.
    trace = Trace([0x42] * 200, [True] * 200)
    hint = SparsityHint(0x42, 7.0, [(0, 0.0625)], Q3_4)
    hs = HintSet("", SlbiuConfig(lh=4, gh=10, n=1, nnz=1, q=8), [hint])
    report = run(trace, sim_config(), hintset=hs)
    stats = report.per_branch[0x42]
    assert stats.slbiu_hits == 200
    assert stats.mispredictions == 0
    # primary-predictor correct counts only accumulate for non-suppressed
    # records, so full suppression leaves them at zero
    assert stats.correct == 0


def test_config_mismatch_rejected():
    trace = random_trace(100, seed=1)
    hs = empty_hintset(lh=4, gh=32, q=8)  # hint gh exceeds simulator gh
    with pytest.raises(ConfigError):
        run(trace, sim_config(gh=10, lh=4), hintset=hs)


def test_unknown_baseline_rejected():
    with pytest.raises(ConfigError):
        run(random_trace(10), sim_config(baseline="perceptron"))


def test_snapshot_interval_must_be_positive():
    with pytest.raises(ConfigError):
        run(random_trace(10), sim_config(snapshot_interval=0))


def test_tage_baseline_runs():
    cfg = SimConfig(
        history=HistoryConfig(32, 4),
        baseline="tage_lite",
        tage=TageLiteConfig(num_tables=2, table_entries=32, tag_bits=6, base_entries=32),
        snapshot_interval=500,
    )
    report = run(random_trace(2000, seed=5), cfg)
    assert report.mispredictions > 0
    assert any(s.allocations > 0 for s in report.per_branch.values())


def test_pipeline_improves_correlated_branch():
    traces = [
        gen_correlated(SyntheticScenario(kind="correlated", length=24_000, seed=2,
                                         noise_branches=2)),
        gen_loop(SyntheticScenario(kind="loop", length=8_000, loop_period=5)),
    ]
    hc = HistoryConfig(16, 8)
    results = run_pipeline(
        traces,
        budget_bits=8192,
        policy="independent",
        qspec=Q3_4,
        history=hc,
        sim_config=SimConfig(history=hc, gshare_index_bits=8),
        screen_cfg=BranchScreen(min_occurrences=1000),
    )
    corr = results[0]
    assert any(h.pc == PC_B for h in corr.hintset.hints)
    base_b = corr.baseline_report.per_branch[PC_B].mispredictions
    coup_b = corr.coupled_report.per_branch[PC_B].mispredictions
    assert coup_b < base_b / 10
    assert corr.coupled_report.mpki < corr.baseline_report.mpki


def test_fp32_pipeline_hints_are_the_hint_file(tmp_path):
    # fp32 candidates are scored and simulated on the float32 weights that the
    # hint file holds, so the file reproduces the hint set and the coupled run
    trace = gen_correlated(SyntheticScenario(kind="correlated", length=6_000, seed=1,
                                             noise_branches=4))
    hc = HistoryConfig(64, 16)
    [res] = run_pipeline([trace], budget_bits=2 * 8192, policy="relative", qspec=None,
                         history=hc, screen_cfg=BranchScreen(min_occurrences=200))
    path = tmp_path / "h.sbph"
    encode_hintset(res.hintset, path)
    back = decode_hintset(path)
    assert len(res.hintset.hints) == 5
    assert back == res.hintset
    assert run(trace, SimConfig(history=hc), hintset=back) == res.coupled_report


def test_select_hints_skips_models_of_absent_pcs(correlated_trace):
    # `select --models` may name PCs that the scoring trace lacks; they are
    # skipped, in any order of the models
    history = HistoryConfig(16, 4)
    models = train_models(correlated_trace, history, BranchScreen(min_occurrences=2000),
                          SolverConfig())
    assert PC_B in models
    absent = 0x10  # before every PC of the trace in pc order
    assert absent not in set(correlated_trace.pc.tolist())
    extra = dict(reversed({absent: replace(models[PC_B], pc=absent), **models}.items()))
    config = SimConfig(history=history, gshare_index_bits=8)
    for qspec in (Q3_4, None):
        want = select_hints(correlated_trace, models, history, config, qspec, "relative", 8192)
        got = select_hints(correlated_trace, extra, history, config, qspec, "relative", 8192)
        assert any(h.pc == PC_B for h in want[0].hints)
        assert got[:2] == want[:2]


def test_fp32_hints_score_with_the_slbiu_sum():
    # 0x20 is always taken, after two not-taken records. The trainer's sign
    # rule sums (-1 - 2^-60) + 1 = 0 and predicts taken; the SLBIU adds in
    # history-index order, (1 - 1) - 2^-60 < 0, and answers not taken every
    # time. Scored with the trainer's rule the hint was chosen, and the
    # coupled run mispredicted 0x20 on all 3000 records
    trace = Trace([0x10, 0x10, 0x20] * 3000, [False, False, True] * 3000)
    history = HistoryConfig(2, 0)
    model = SparseModel(pc=0x20, bias=1.0, weights={0: 1.0, 1: 2.0**-60}, lam=0.01,
                        accuracy=1.0, m=3000)
    config = SimConfig(history=history)
    hs, chosen, base = select_hints(trace, {0x20: model}, history, config, None, "relative", 8192)
    assert (hs.hints, chosen) == ([], (0, 0))
    assert base.per_branch[0x20].correct > 2990


def test_training_and_scoring_hold_one_float64_copy():
    # each branch's dataset keeps its float64 copy of the features while it
    # lives: training and scoring must drop it once the branch is done, so
    # the peak stays near the largest branch's copy, not the sum of them
    trace = gen_correlated(SyntheticScenario(kind="correlated", length=24_000, seed=4,
                                             noise_branches=4))
    history = HistoryConfig(64, 16)
    config = SimConfig(history=history)
    m_max = max(ds.m for ds in collect_datasets(trace, history).values())
    tracemalloc.start()
    try:
        models = train_models(trace, history, BranchScreen(min_occurrences=1000),
                              SolverConfig())
        train_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        select_hints(trace, models, history, config, Q3_4, "relative", 16384)
        select_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(models) == 6
    bound = 8 * m_max * history.l + 2 * 2**20
    assert train_peak <= bound
    assert select_peak <= bound


def test_scurve_ordering_and_buckets():
    table = report_scurve([
        ("hot", 12.0, 9.0),
        ("cold", 0.5, 0.4),
        ("warm", 3.0, 2.0),
    ])
    assert [r["name"] for r in table["rows"]] == ["cold", "warm", "hot"]
    assert table["rows"][1]["improvement"] == 1.0
    assert table["rows"][1]["relative_improvement"] == pytest.approx(1 / 3)
    by_range = {tuple(b["range"]): b for b in table["buckets"]}
    assert by_range[(0.01, 1.0)]["traces"] == 1
    assert by_range[(1.0, 5.0)]["mean_improvement"] == 1.0
    assert by_range[(5.0, float("inf"))]["mean_improvement"] == 3.0


def test_scurve_csv_render():
    csv = render_scurve_csv(report_scurve([("t", 2.0, 1.5)]))
    lines = csv.strip().split("\n")
    assert lines[0].startswith("name,baseline_mpki")
    assert lines[1].split(",")[0] == "t"


PC_POOL = (0x400000, 0x400004, 0x2000, 2**64 - 4, 7)
ABSENT_PC = 0x999  # never in a generated trace


@st.composite
def sim_traces(draw):
    """Traces of runs of one PC, so that hint-covered blocks occur."""
    runs = draw(st.lists(st.tuples(st.sampled_from(PC_POOL), st.integers(1, 12)), max_size=24))
    pcs = [pc for pc, count in runs for _ in range(count)]
    n = len(pcs)
    taken = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return Trace(pcs, taken, gaps, phase_id="prop")


def _weight(draw, qspec):
    if qspec is None:
        return draw(st.one_of(
            st.sampled_from([0.25, -0.25, 0.5, -0.75, 1.0]),
            st.floats(-8.0, 8.0, allow_nan=False, width=32),
        ))
    fraction = qspec.fraction_bits
    limit = 1 << (qspec.integer_bits + fraction)
    return draw(st.integers(-limit, limit - 1)) / (1 << fraction)


@st.composite
def hint_sets(draw, gh):
    """Hint sets for a simulator with GHR length gh: Q3.4, Q3.12 or fp32
    weights, over PCs of the trace's pool and one PC outside it."""
    qspec = draw(st.sampled_from([Q3_4, Q3_12, None]))
    hgh = draw(st.integers(0, gh))
    hlh = draw(st.integers(0, 20))
    pcs = draw(st.lists(st.sampled_from(PC_POOL + (ABSENT_PC,)), max_size=4, unique=True))
    hints = []
    for pc in pcs:
        idxs = draw(st.lists(st.integers(0, max(hgh + hlh - 1, 0)), max_size=6, unique=True))
        if hgh + hlh == 0:
            idxs = []
        entries = [(j, w) for j in sorted(idxs) if (w := _weight(draw, qspec)) != 0.0]
        hints.append(SparsityHint(pc, _weight(draw, qspec), entries, qspec))
    cap = max((h.nnz for h in hints), default=0)
    q = FP32_WIDTH if qspec is None else qspec.q
    return HintSet("prop", SlbiuConfig(lh=hlh, gh=hgh, n=len(hints), nnz=cap, q=q), hints)


@st.composite
def sim_cases(draw, baseline):
    trace = draw(sim_traces())
    gh = draw(st.integers(0, 130))
    history = HistoryConfig(gh, draw(st.integers(0 if gh else 1, 20)))
    if baseline == "gshare":
        config = SimConfig(history=history, gshare_index_bits=draw(st.integers(0, 14)))
    else:
        lengths = draw(st.lists(st.integers(0, gh), min_size=1, max_size=4, unique=True))
        config = SimConfig(
            history=history,
            baseline="tage_lite",
            tage=TageLiteConfig(
                num_tables=len(lengths),
                table_entries=draw(st.integers(1, 40)),
                tag_bits=draw(st.integers(0, 10)),
                base_entries=draw(st.integers(1, 16)),
                history_lengths=tuple(sorted(lengths)),
            ),
            snapshot_interval=draw(st.integers(1, 60)),
        )
    hintset = draw(st.none() | hint_sets(gh))
    correct_from = draw(st.integers(-3, len(trace) + 3))
    return trace, config, hintset, correct_from


@st.composite
def fixed_point_cases(draw):
    """A trace, a history and a model for each of its PCs, in Q3.4 or Q3.12."""
    trace = draw(sim_traces())
    gh = draw(st.integers(0, 12))
    history = HistoryConfig(gh, draw(st.integers(0 if gh else 1, 6)))
    spec = draw(st.sampled_from([Q3_4, Q3_12]))
    value = st.floats(-9.0, 9.0, allow_nan=False)
    models = {}
    for pc in sorted(set(trace.pc.tolist())):
        idxs = draw(st.lists(st.integers(0, history.l - 1), max_size=5, unique=True))
        models[pc] = SparseModel(pc=pc, bias=draw(value), weights={j: draw(value) for j in idxs},
                                 lam=0.01, accuracy=1.0, m=1)
    return trace, history, spec, models


@settings(max_examples=200, deadline=None)
@given(fixed_point_cases())
def test_slbiu_correct_counts_equal_the_training_sign_rule(case):
    # for fixed-point models every partial sum is exact, so the SLBIU's count
    # in the scoring window equals the trainer's sign rule on the samples
    trace, history, spec, models = case
    quantized = [quantize(model, spec) for model in models.values()]
    config = SlbiuConfig(lh=history.lh, gh=history.gh, n=len(quantized),
                         nnz=max((m.nnz for m in quantized), default=0), q=spec.q)
    hs = HintSet("prop", config, [hint_from_model(m, spec) for m in quantized])
    report = run(trace, SimConfig(history=history), hs, correct_from=history.l)
    datasets = collect_datasets(trace, history)
    for model in quantized:
        want = correct_count(model, datasets[model.pc]) if model.pc in datasets else 0
        assert report.per_branch[model.pc].slbiu_correct == want


def test_snapshot_on_all_hit_block():
    # the hint answers records 3-5 whole, and the snapshot after them still
    # counts: pc 1 allocates before and after it
    trace = Trace([1, 1, 1, 2, 2, 2, 1, 1, 1, 1],
                  [False, False, True, True, False, True, False, True, True, False])
    config = SimConfig(
        history=HistoryConfig(8, 2),
        baseline="tage_lite",
        tage=TageLiteConfig(num_tables=1, table_entries=4, history_lengths=(2,)),
        snapshot_interval=3,
    )
    hs = HintSet("", SlbiuConfig(lh=0, gh=2, n=1, nnz=0, q=8), [SparsityHint(2, 1.0, [], Q3_4)])
    assert_runs_agree(trace, config, hs)
    assert run(trace, config, hs).per_branch[2].slbiu_hits == 3


def assert_runs_agree_in_chunks(*case):
    """assert_runs_agree with the module's chunk of window rows, and with one
    of a few rows or less, so that a PC's rows span several chunks."""
    for chunk_bytes in (predictors.DIRECTION_CHUNK_BYTES, 200):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(predictors, "DIRECTION_CHUNK_BYTES", chunk_bytes)
            assert_runs_agree(*case)


@settings(max_examples=250, deadline=None)
@given(sim_cases("gshare"))
def test_gshare_run_equals_per_record_reference(case):
    assert_runs_agree_in_chunks(*case)


@settings(max_examples=250, deadline=None)
@given(sim_cases("tage_lite"))
def test_tage_lite_run_equals_per_record_reference(case):
    assert_runs_agree_in_chunks(*case)


@pytest.mark.parametrize("baseline", ["gshare", "tage_lite"])
@pytest.mark.parametrize("qspec, hints", [
    pytest.param(Q3_4, None, id="qspec0"),
    pytest.param(Q3_12, None, id="qspec1"),
    pytest.param(None, None, id="None"),
    # at the adder-tree limit: |bias| + sum |w| = 2^(16 + 2 - 1) - 1 units of 2^-12
    pytest.param(Q3_12, [SparsityHint(PC_B, -8.0, [(1, -8.0), (8, -8.0), (41, 8.0 - 2.0**-12)],
                                      Q3_12)], id="adder_limit"),
    # fp32 sums that depend on the order of the terms (1 - 1 - 2^-60 < 0)
    pytest.param(None, [SparsityHint(PC_B, 1.0, [(0, 1.0), (1, 2.0**-60)], None)],
                 id="fp32_term_order"),
])
def test_correlated_run_equals_per_record_reference(baseline, qspec, hints):
    # a longer trace than the property tests draw: many blocks, snapshots on
    # hit and miss records, and hints on B and one noise branch (two records
    # in every five)
    trace = gen_correlated(SyntheticScenario(kind="correlated", length=20_000, seed=4,
                                             noise_branches=3))
    config = SimConfig(history=HistoryConfig(40, 6), baseline=baseline,
                       snapshot_interval=777)
    if hints is None:
        weight = {Q3_4: 2.0, Q3_12: 0.000244140625, None: 0.3}[qspec]
        bias = -0.5 if qspec is None else -0.0625
        hints = [SparsityHint(PC_B, 0.0, [(8, weight)], qspec),
                 SparsityHint(0x1100, bias, [(1, weight), (41, weight)], qspec)]
    q = FP32_WIDTH if qspec is None else qspec.q
    nnz = max(h.nnz for h in hints)
    hs = HintSet("c", SlbiuConfig(lh=6, gh=40, n=len(hints), nnz=nnz, q=q), hints)
    for hintset in (None, hs):
        assert_runs_agree(trace, config, hintset, 100)
