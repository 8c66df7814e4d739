import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbp.errors import ConfigError
from sbp.history import HistoryConfig, collect_datasets
from sbp.online_sgd import OnlineConfig, run_online
from sbp.trace_io import (
    PC_B,
    PC_LOOP,
    SyntheticScenario,
    Trace,
    gen_correlated,
    gen_loop,
    gen_utilization,
)
from tests.conftest import int8_rows
from tests.reference_online import (
    OnlineModel,
    adapt_lambda,
    online_update,
    reference_run_online,
)
from tests.test_history import traces_and_configs


def random_stream(n, l, seed=0):
    rng = random.Random(seed)
    for _ in range(n):
        x = np.array([1 if rng.random() < 0.5 else -1 for _ in range(l)], dtype=np.int8)
        yield x, x[2] == 1


def test_zero_lambda_is_plain_sgd():
    """With lam = 0 the cumulative-penalty step reduces to logistic SGD."""
    cfg = OnlineConfig(lambda_init=0.0, lambda_min=0.0, eta=0.1)
    model = OnlineModel.fresh(1, 6, cfg)
    w_ref = np.zeros(6)
    b_ref = 0.0
    for x, y in random_stream(300, 6, seed=1):
        online_update(model, x, y)
        xd = x.astype(np.float64)
        g = 1.0 / (1.0 + math.exp(-(b_ref + w_ref @ xd))) - (1.0 if y else 0.0)
        w_ref -= 0.1 * g * xd
        b_ref -= 0.1 * g
        assert np.max(np.abs(model.weights - w_ref)) <= 1e-12
        assert abs(model.bias - b_ref) <= 1e-12


def test_penalty_clips_to_exact_zero():
    model = OnlineModel.fresh(1, 4, OnlineConfig(lambda_init=0.05, eta=0.1))
    for x, y in random_stream(500, 4, seed=2):
        online_update(model, x, y)
    # uninformative coordinates must be pinned at exact zero, not near-zero
    assert model.weights[0] == 0.0 or abs(model.weights[0]) > 1e-6
    assert any(w == 0.0 for w in model.weights)
    assert model.weights[2] != 0.0  # the informative coordinate survives


def test_cumulative_penalty_bookkeeping():
    model = OnlineModel.fresh(1, 3, OnlineConfig(lambda_init=0.01, eta=0.5))
    x = np.array([1, -1, 1], dtype=np.int8)
    online_update(model, x, True)
    assert model.u == pytest.approx(0.5 * 0.01)
    assert model.update_count == 1
    # shrinkage applied so far is recorded per weight
    assert np.all(np.abs(model.q_vec) <= model.u + 1e-15)


def test_adapt_lambda_hysteresis():
    cfg = OnlineConfig(lambda_init=0.01, nnz_cap=4)
    model = OnlineModel.fresh(1, 10, cfg)
    model.lam = 0.01
    model.weights[:] = 1.0  # nnz = 10 > cap
    adapt_lambda(model, cfg)
    assert model.lam == 0.02
    model.weights[:] = 0.0
    model.weights[0] = 1.0  # nnz = 1 <= cap // 2
    adapt_lambda(model, cfg)
    assert model.lam == 0.01
    model.weights[:3] = 1.0  # nnz = 3: inside the hysteresis band
    adapt_lambda(model, cfg)
    assert model.lam == 0.01


def test_adapt_lambda_bounds():
    cfg = OnlineConfig(lambda_init=0.01, nnz_cap=2)
    model = OnlineModel.fresh(1, 8, cfg)
    model.weights[:] = 1.0
    for _ in range(20):
        adapt_lambda(model, cfg)
    assert model.lam == cfg.lambda_max
    model.weights[:] = 0.0
    for _ in range(40):
        adapt_lambda(model, cfg)
    assert model.lam == cfg.lambda_min


def test_online_config_validation():
    with pytest.raises(ValueError):
        OnlineConfig(lambda_init=1.0, lambda_max=0.1)
    with pytest.raises(ValueError):  # halving would take lambda to 0
        OnlineConfig(lambda_init=0.01, lambda_min=0.0)
    OnlineConfig(lambda_init=0.0, lambda_min=0.0)
    for eta in (math.nan, math.inf, -math.inf, 0.0, -0.05):
        with pytest.raises(ConfigError, match="eta"):
            OnlineConfig(eta=eta)
    OnlineConfig(eta=5e-324)


def test_run_online_learns_loop():
    trace = gen_loop(SyntheticScenario(kind="loop", length=20_000, loop_period=4))
    history = HistoryConfig(8, 4)
    result = run_online(trace, history)[PC_LOOP]
    assert result.occurrences == 20_000 - 12
    assert result.mispredictions < 100  # deterministic pattern: fast lock-in
    assert max(result.nnz_samples) <= 50


def test_run_online_target_filter_and_counts():
    trace = gen_correlated(
        SyntheticScenario(kind="correlated", length=12_000, seed=4, noise_branches=2)
    )
    history = HistoryConfig(10, 0)
    results = run_online(trace, history, target_pcs={PC_B})
    assert set(results) == {PC_B}
    b = results[PC_B]
    post_warmup_b = int(np.count_nonzero(trace.pc[10:] == PC_B))
    assert b.occurrences == post_warmup_b
    # B is a one-bit function of the GHR: the online model must beat a coin
    assert b.mispredictions < 0.1 * b.occurrences


def assert_same_results(got, want):
    """Same branches in the same order, same counts, nnz samples and final
    lambda, and bit for bit the same final weights, bias, u and q."""
    assert list(got) == list(want)
    for pc, r in got.items():
        ref = want[pc]
        assert (r.pc, r.occurrences, r.mispredictions) == (ref.pc, ref.occurrences, ref.mispredictions)
        assert r.nnz_samples == ref.nnz_samples
        assert r.nnz_avg == ref.nnz_avg
        assert r.final_lambda == ref.final_lambda
        (w, bias, u, q), (ref_w, ref_bias, ref_u, ref_q) = r.model, ref.model
        assert w.tobytes() == ref_w.tobytes()
        assert q.tobytes() == ref_q.tobytes()
        assert (bias.hex(), u.hex()) == (ref_bias.hex(), ref_u.hex())


CONFIGS = st.sampled_from([
    dict(lambda_init=0.01),
    dict(lambda_init=0.05, lambda_min=0.01),
    dict(lambda_init=0.0, lambda_min=0.0),
])


@settings(max_examples=60, deadline=None)
@given(traces_and_configs(max_len=300), st.sampled_from([1, 3, 1000]),
       st.sampled_from([0.05, 0.5]), CONFIGS)
def test_run_online_equals_interleaved_replay(case, interval, eta, lam):
    """The lockstep replay gives the per-record interleaved replay's results
    exactly, including lambda_init = 0 (plain SGD)."""
    trace, history, targets = case
    config = OnlineConfig(eta=eta, nnz_cap=4, adaptation_interval=interval, **lam)
    got = run_online(trace, history, target_pcs=targets, config=config)
    want = reference_run_online(trace, history, target_pcs=targets, config=config)
    assert_same_results(got, want)


@st.composite
def multi_pc_traces(draw):
    """Up to 1500 records over 2-6 PCs of unequal frequency. Each PC's outcome
    repeats an earlier record's, flipped with a PC-specific noise rate, so
    that weights grow, cross zero and get clipped."""
    n_pcs = draw(st.integers(2, 6))
    freq = draw(st.lists(st.integers(1, 12), min_size=n_pcs, max_size=n_pcs))
    length = draw(st.integers(200, 1500))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lags = [rng.randrange(1, 9) for _ in range(n_pcs)]
    noise = [rng.choice([0.0, 0.05, 0.3, 0.5]) for _ in range(n_pcs)]
    pcs = rng.choices(range(n_pcs), weights=freq, k=length)
    taken = []
    for i, p in enumerate(pcs):
        earlier = taken[i - lags[p]] if i >= lags[p] else rng.random() < 0.5
        taken.append(earlier != (rng.random() < noise[p]))
    gh = draw(st.integers(0, 12))
    lh = draw(st.integers(0 if gh else 1, 6))
    return Trace([0x400 + 4 * p for p in pcs], taken), HistoryConfig(gh, lh)


@settings(max_examples=40, deadline=None)
@given(multi_pc_traces(), st.data())
def test_lockstep_equals_interleaved_replay_on_long_traces(case, data):
    """Branches with unequal sample counts leave the lockstep at different
    steps; an adaptation interval equal to one branch's sample count adapts
    lambda on that branch's last update."""
    trace, history = case
    counts = sorted({ds.m for ds in collect_datasets(trace, history).values()})
    interval = data.draw(st.sampled_from(counts + [1, 50]), label="interval")
    lam = data.draw(CONFIGS, label="lambda")
    eta = data.draw(st.sampled_from([0.05, 0.5]), label="eta")
    config = OnlineConfig(eta=eta, nnz_cap=data.draw(st.integers(1, 6)),
                          adaptation_interval=interval, **lam)
    got = run_online(trace, history, config=config)
    assert_same_results(got, reference_run_online(trace, history, config=config))


def test_run_online_equals_interleaved_replay_on_correlated_trace():
    trace = gen_correlated(
        SyntheticScenario(kind="correlated", length=8_000, seed=3, noise_branches=3)
    )
    history = HistoryConfig(19, 4)
    # with B alone, every step takes the single-branch form, across many
    # gathers of rows and adaptation intervals
    for targets in (None, {PC_B}):
        assert_same_results(run_online(trace, history, target_pcs=targets),
                            reference_run_online(trace, history, target_pcs=targets))


def test_run_online_never_holds_every_branch_rows():
    """The lockstep gathers a few rows of every branch at a time: its peak
    stays below the int8 feature matrices of all 20 branches together."""
    trace, _ = gen_utilization(SyntheticScenario(kind="utilization", length=20_000, seed=5))
    history = HistoryConfig(64, 16)
    datasets = collect_datasets(trace, history)
    assert len(datasets) == 20
    all_rows = sum(int8_rows(ds).nbytes for ds in datasets.values())
    del datasets
    run_online(trace, history)  # first call: imports and lazy set-up
    tracemalloc.start()
    try:
        run_online(trace, history)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < all_rows
