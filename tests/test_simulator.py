import pytest

from sbp.errors import ConfigError
from sbp.history import HistoryConfig
from sbp.hints import Q3_4, HintSet, SlbiuConfig, SparsityHint, empty_hintset
from sbp.predictors import TageLiteConfig
from sbp.simulator import (
    SimConfig,
    render_scurve_csv,
    report_scurve,
    run,
    run_pipeline,
)
from sbp.sparse_modeling import BranchScreen
from sbp.trace_io import (
    PC_B,
    SyntheticScenario,
    Trace,
    gen_correlated,
    gen_loop,
)
from tests.conftest import random_trace


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
