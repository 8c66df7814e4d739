import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbp.hints import dedup
from sbp.history import HistoryConfig, TrainingDataset, collect_datasets
from sbp.sparse_modeling import (
    BranchScreen,
    SolverConfig,
    correct_count,
    eval_accuracy,
    fit,
    kkt_violation,
    lambda_search,
    predictions,
    screen,
)
from sbp.trace_io import PC_B, SyntheticScenario, gen_correlated
from tests import reference_cd
from tests.conftest import gather_from, int8_rows
from tests.reference_cd import objective


def make_dataset(x, y, pc=1):
    x = np.asarray(x, dtype=np.int8)
    config = HistoryConfig(gh=x.shape[1], lh=0)
    return TrainingDataset(pc, np.asarray(y, dtype=bool), config, gather_from(x))


def fresh(ds):
    """The same samples in a new dataset, with nothing built on it yet."""
    return TrainingDataset(ds.target_pc, ds.y, ds.config, gather_from(int8_rows(ds)))


def bernoulli_dataset(m, l, rule, seed=0, pc=1):
    rng = random.Random(seed)
    x = np.array(
        [[1 if rng.random() < 0.5 else -1 for _ in range(l)] for _ in range(m)],
        dtype=np.int8,
    )
    y = np.array([rule(row) for row in x], dtype=bool)
    return make_dataset(x, y, pc)


def test_intercept_only_matches_logit():
    # Strong L1 zeroes all weights; the unpenalized bias must converge to the
    # log-odds of the taken rate (the intercept-only optimum).
    ds = bernoulli_dataset(2000, 6, lambda row: random.random() < 0.7, seed=1)
    random.seed(1)
    ds.y = np.array([random.random() < 0.7 for _ in range(2000)], dtype=bool)
    model = fit(ds, lam=0.5, alpha=1.0, config=SolverConfig())
    assert model.nnz == 0
    rate = ds.taken_rate
    assert model.bias == pytest.approx(math.log(rate / (1 - rate)), abs=1e-3)


def test_single_feature_recovery():
    ds = bernoulli_dataset(1500, 8, lambda row: row[3] == 1, seed=2)
    # separable data: the optimum weight is large and the fixed-curvature
    # majorizer crawls there, so allow extra outer iterations
    model = fit(ds, lam=0.01, alpha=1.0, config=SolverConfig(max_iterations=300))
    assert model.accuracy == 1.0
    assert set(model.weights) == {3}
    assert model.weights[3] > 0
    assert model.converged


def test_constant_labels():
    ds = bernoulli_dataset(500, 4, lambda row: True, seed=3)
    model = fit(ds, lam=0.05, alpha=1.0, config=SolverConfig())
    assert model.accuracy == 1.0
    assert model.bias > 0


def test_objective_hand_computed():
    z = np.array([0.0, 2.0])
    y = np.array([1.0, 0.0])
    w = np.array([0.5, -1.0])
    # mean(log(1+e^z) - y z) + lam(alpha|w|_1 + (1-alpha)/2 |w|_2^2)
    expect = (math.log(2.0) + math.log(1 + math.e**2)) / 2
    expect += 0.1 * (0.5 * 1.5 + 0.25 * 1.25)
    assert objective(z, y, w, 0.1, 0.5) == pytest.approx(expect, rel=1e-12)


def test_kkt_at_convergence():
    for alpha in (1.0, 0.5):
        ds = bernoulli_dataset(600, 6, lambda row: row[1] == 1 or row[4] == 1, seed=4)
        cfg = SolverConfig(tolerance=1e-6, max_iterations=400, elasticnet_alpha=alpha)
        model = fit(ds, lam=0.02, alpha=alpha, config=cfg)
        assert model.converged
        assert kkt_violation(model, ds, alpha) <= 10 * cfg.tolerance


def test_lambda_search_sparse_recovery(correlated_trace):
    ds = collect_datasets(correlated_trace, HistoryConfig(gh=10, lh=0))[PC_B]
    model = lambda_search(ds, SolverConfig())
    assert model.sufficient
    assert model.accuracy >= 0.99
    # M=2, k=1: A's outcome sits at GHR index 2M+2 = 6 when B predicts.
    assert set(model.weights) == {6}


def test_lambda_search_insufficient_on_coin():
    ds = bernoulli_dataset(3000, 6, lambda row: random.random() < 0.5, seed=5)
    random.seed(5)
    ds.y = np.array([random.random() < 0.5 for _ in range(3000)], dtype=bool)
    model = lambda_search(ds, SolverConfig())
    assert not model.sufficient
    assert model.accuracy < 0.99


def test_eval_helpers():
    ds = bernoulli_dataset(200, 5, lambda row: row[0] == 1, seed=6)
    model = fit(ds, lam=0.01, alpha=1.0, config=SolverConfig())
    acc = eval_accuracy(model, ds)
    assert correct_count(model, ds) == round(acc * 200)
    empty = make_dataset(np.zeros((0, 5), dtype=np.int8), [])
    assert eval_accuracy(model, empty) == 0.0
    assert correct_count(model, empty) == 0


def test_screen():
    cfg = BranchScreen(min_occurrences=100, bias_low=0.02, bias_high=0.98)
    balanced = bernoulli_dataset(200, 3, lambda row: row[0] == 1, seed=7)
    assert screen(balanced, cfg)
    rare = bernoulli_dataset(50, 3, lambda row: row[0] == 1, seed=7)
    assert not screen(rare, cfg)
    biased = bernoulli_dataset(200, 3, lambda row: True, seed=7)
    assert not screen(biased, cfg)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lambda_min=0.0)
    with pytest.raises(ValueError):
        SolverConfig(lambda_min=1.0, lambda_max=0.5)
    with pytest.raises(ValueError):
        SolverConfig(elasticnet_alpha=1.5)
    with pytest.raises(ValueError):
        fit(make_dataset(np.zeros((0, 3), dtype=np.int8), []), 0.1, 1.0, SolverConfig())


def test_feature_order_does_not_change_models():
    # fit builds its own column-major copy of the features; the caller's
    # memory layout must not change a single bit of the result
    ds = bernoulli_dataset(1500, 8, lambda row: row[1] == 1 or row[5] == -1, seed=9)
    rows = np.asfortranarray(int8_rows(ds))
    assert rows.flags.f_contiguous and not rows.flags.c_contiguous
    ds_f = make_dataset(rows, ds.y)
    cfg = SolverConfig()
    for alpha in (1.0, 0.5):
        assert fit(ds, 0.01, alpha, cfg) == fit(ds_f, 0.01, alpha, cfg)
    assert lambda_search(ds, cfg) == lambda_search(ds_f, cfg)


def test_predictions_are_float_scores_of_int8_features():
    ds = bernoulli_dataset(400, 7, lambda row: row[0] + row[3] - row[6] > 0, seed=10)
    model = fit(ds, lam=0.005, alpha=1.0, config=SolverConfig())
    assert model.nnz > 0
    w = model.weight_vector(7)
    expect = model.bias + int8_rows(ds).astype(np.float64) @ w >= 0
    assert np.array_equal(predictions(model, ds), expect)


def test_no_float32_feature_cache():
    ds = bernoulli_dataset(10, 3, lambda row: True)
    assert not hasattr(ds, "xf")
    assert not hasattr(ds, "x")  # tests take int8 rows from conftest.int8_rows
    root = Path(__file__).resolve().parent.parent
    pattern = re.compile(r"\b_?xf\b")
    files = [*root.glob("src/sbp/*.py"), *root.glob("tests/*.py")]
    stale = [
        str(f.relative_to(root))
        for f in files
        if f.resolve() != Path(__file__).resolve() and pattern.search(f.read_text())
    ]
    assert stale == []


def test_design_maps_each_column_to_its_first_twin():
    x = np.array([[1, -1, 1, 1, -1], [-1, -1, -1, 1, -1], [1, 1, 1, -1, 1]], dtype=np.int8)
    ds = make_dataset(x, [True, False, False])
    assert ds.first == [0, 1, 0, 3, 1]
    assert ds.columns.flags.f_contiguous
    assert np.array_equal(ds.columns, x)
    assert np.array_equal(ds.colsum, [1, -1, 1, 1, -1])


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 8, 17, 63, 65, 1001, 1920, 6987])
def test_twin_columns_give_identical_dot_products(m):
    # fit steps each coordinate on its row of the Gram matrix; the matrix must
    # be the exact integer X.T @ X, so twin columns get identical rows, and
    # first[] (read off the matrix) must group columns by their bytes
    rng = np.random.default_rng(m)
    for distinct, l in [(1, 9), (3, 12), (8, 16), (20, 20)]:  # (1, 9): all identical
        base = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, distinct))
        x = np.ascontiguousarray(base[:, rng.integers(0, distinct, l)])
        ds = make_dataset(x, np.zeros(m, dtype=bool))
        exact = x.T.astype(np.int64) @ x.astype(np.int64)
        assert ds.gram.dtype == np.float64
        assert np.array_equal(ds.gram, exact)
        assert np.array_equal(ds.colsum, x.sum(axis=0, dtype=np.int64))
        owner = {}
        expect = [owner.setdefault(x[:, j].tobytes(), j) for j in range(l)]
        assert ds.first == expect
        for j, k in enumerate(ds.first):
            assert np.array_equal(ds.gram[j], ds.gram[k])


def test_design_is_built_on_first_use():
    ds = make_dataset(np.ones((4, 3), dtype=np.int8), [True, False, True, True])
    given = set(vars(ds))  # nothing computed yet
    assert given == {"target_pc", "y", "config", "_gather"}
    assert ds.first == [0, 0, 0]
    assert set(vars(ds)) - given == {"columns", "gram", "first"}
    ds.signs(0.0, np.zeros(3))
    assert set(vars(ds)) - given == {"columns", "gram", "first"}  # no second copy


def _scores(model, ds):
    return model.bias + int8_rows(ds) @ model.weight_vector(ds.config.l)


def assert_matches_reference(model, expect, ds, alpha):
    """Same structure and predictions, parameters within 1e-12, objective no
    higher. Accuracy must be equal, except that a sample whose reference score
    is within round-off of the threshold (0 on a balanced tie) may go either
    way."""
    for field in ("pc", "lam", "m", "converged", "sufficient"):
        assert getattr(model, field) == getattr(expect, field), field
    assert set(model.weights) == set(expect.weights)
    assert abs(model.bias - expect.bias) <= 1e-12
    assert all(abs(v - expect.weights[j]) <= 1e-12 for j, v in model.weights.items())
    clear = np.abs(_scores(expect, ds)) > 1e-9
    assert np.array_equal(predictions(model, ds)[clear], predictions(expect, ds)[clear])
    assert model.accuracy == expect.accuracy or not clear.all()
    y = ds.y.astype(np.float64)
    obj = objective(_scores(model, ds), y, model.weight_vector(ds.config.l), model.lam, alpha)
    ref = objective(_scores(expect, ds), y, expect.weight_vector(ds.config.l), expect.lam, alpha)
    assert obj <= ref + 1e-12


@st.composite
def cd_problems(draw):
    """Small ±1 designs with duplicate columns, and a fit setting."""
    m = draw(st.integers(1, 160))
    distinct = draw(st.integers(1, 6))
    l = draw(st.integers(distinct, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, distinct))
    which = np.concatenate([np.arange(distinct), rng.integers(0, distinct, l - distinct)])
    x = np.ascontiguousarray(base[:, rng.permutation(which)])
    if draw(st.booleans()):  # a sparse noisy rule, or coin flips
        w = rng.choice([-2.0, 0.0, 0.0, 2.0], size=l)
        y = rng.random(m) < 1.0 / (1.0 + np.exp(-(x @ w + rng.normal(0, 1, m))))
    else:
        y = rng.random(m) < 0.5
    lam = 10.0 ** draw(st.floats(-4.0, 0.0))
    alpha = draw(st.sampled_from([1.0, 0.5]))
    iterations = draw(st.sampled_from([1, 2, 3, 100]))  # cut off, or run to the end
    return make_dataset(x, y), lam, alpha, SolverConfig(max_iterations=iterations)


@settings(max_examples=120, deadline=None)
@given(cd_problems())
def test_fit_equals_reference_solver(problem):
    ds, lam, alpha, cfg = problem
    expect = reference_cd.fit(ds, lam, alpha, cfg)
    assert_matches_reference(fit(ds, lam, alpha, cfg), expect, ds, alpha)
    assert fit(ds, lam, alpha, cfg) == fit(fresh(ds), lam, alpha, cfg)


@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("which", ["correlated", "loop"])
def test_search_and_dedup_equal_reference(request, which, alpha):
    trace = request.getfixturevalue(f"{which}_trace")
    cfg = SolverConfig(elasticnet_alpha=alpha)
    datasets = collect_datasets(trace, HistoryConfig(gh=12, lh=4))
    screened = [ds for ds in datasets.values() if ds.m >= 1000]
    assert screened
    for ds in screened:
        searched = lambda_search(ds, cfg)
        model = dedup(ds, searched, cfg)
        expect_searched = reference_cd.lambda_search(ds, cfg)
        expect = reference_cd.dedup(ds, expect_searched, cfg)
        assert_matches_reference(searched, expect_searched, ds, alpha)
        # dedup returns the searched model, or its refit at alpha 0.5 (pure Lasso)
        refit_alpha = alpha if model is searched or alpha < 1.0 else 0.5
        assert_matches_reference(model, expect, ds, refit_alpha)
        again = fresh(ds)  # rows copied from a matrix, and no parts built yet
        assert dedup(again, lambda_search(again, cfg), cfg) == model


GRID = [(1, 1), (2, 100), (7, 3), (64, 16), (1001, 80), (1920, 80), (4096, 33), (6987, 80),
        (7000, 100)]


@pytest.mark.parametrize("m, l", GRID)
def test_design_scores_are_the_bits_of_int8_products(m, l):
    # every sign rule of the trainer is TrainingDataset.signs, a sum over the
    # column-major float64 copy; on data whose sums are away from ties its
    # booleans are those of numpy's int8 `bias + x @ w >= 0`
    rng = np.random.default_rng(m * 101 + l)
    x = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, l))
    ds = make_dataset(x, rng.random(m) < 0.5)
    for nnz in (0, 1, 3, l):
        w = np.zeros(l)
        w[rng.choice(l, size=min(nnz, l), replace=False)] = rng.normal(0.0, 1.0, min(nnz, l))
        bias = float(rng.normal())
        assert np.array_equal(ds.signs(bias, w), bias + x @ w >= 0), nnz
    r = rng.normal(0.0, 1.0, m)  # `x.T @ r` casts x.T in its row-major order
    assert (ds.columns.T @ r).tobytes() == (x.T @ r).tobytes()
    assert ds.columns.flags.f_contiguous


@pytest.mark.parametrize("m, l", GRID)
@pytest.mark.parametrize("fraction_bits", [4, 12])
def test_fixed_point_signs_with_exact_zero_sums(m, l, fraction_bits):
    # Q3.4 and Q3.12 models sum to exactly zero on many rows; every partial
    # sum is exact, so the float64 copy's signs are the int8 product's there too
    rng = np.random.default_rng(m * 7 + l)
    x = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, l))
    ds = make_dataset(x, rng.random(m) < 0.5)
    steps = np.array([1, 3, 5, 127]) / 2.0**fraction_bits
    mixed = rng.choice(steps, l) * rng.choice([-1, 1], l)
    for bias, w in [(0.0, np.full(l, steps[0])), (steps[1], mixed),
                    (-8.0, np.where(np.arange(l) % 2 == 0, 7.9375, -7.9375))]:
        expect = bias + x @ w >= 0
        assert np.array_equal(ds.signs(bias, w), expect)


@pytest.mark.parametrize("m, l", GRID)
def test_large_weights_off_the_grid(m, l):
    rng = np.random.default_rng(m * 3 + l)
    x = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, l))
    ds = make_dataset(x, rng.random(m) < 0.5)
    for scale in (1e6, 1e12, 2.0**40):
        w = rng.normal(0.0, scale, l)
        bias = float(rng.normal(0.0, scale))
        assert np.array_equal(ds.signs(bias, w), bias + x @ w >= 0), scale
    w = np.round(rng.normal(0.0, 2.0**23, l))  # on the grid, too large to be exact
    assert np.array_equal(ds.signs(0.5, w), 0.5 + x @ w >= 0)


def test_search_and_dedup_hold_one_float64_copy():
    # a fair-coin branch, as most screened branches are: the fits read one
    # float64 copy of the features, and the margin steps' temporaries take
    # less than 1 MB more
    m, l = 6000, 80
    rng = np.random.default_rng(6)
    ds = make_dataset(rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, l)),
                      rng.random(m) < 0.5)
    cfg = SolverConfig()
    tracemalloc.start()
    try:
        model = dedup(ds, lambda_search(ds, cfg), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.nnz > 0
    assert peak <= 8 * m * l + 2**20


def test_one_design_serves_fits_in_any_order():
    ds = bernoulli_dataset(3000, 24, lambda row: row[2] == 1 or row[9] == row[11], seed=12)
    cfg = SolverConfig()
    first, second, third = (fit(ds, lam, 1.0, cfg) for lam in (0.01, 0.002, 0.01))
    assert first == third == fit(fresh(ds), 0.01, 1.0, cfg)
    assert second == fit(fresh(ds), 0.002, 1.0, cfg)
    assert first != second


def test_scoring_a_fitted_dataset_equals_scoring_a_fresh_one():
    ds = bernoulli_dataset(800, 10, lambda row: row[0] + row[4] - row[7] > 0, seed=13)
    cfg = SolverConfig()
    for alpha in (1.0, 0.5):
        model = fit(ds, 0.005, alpha, cfg)  # builds the parts that ds keeps
        assert model.nnz > 0
        assert np.array_equal(predictions(model, ds), predictions(model, fresh(ds)))
        assert correct_count(model, ds) == correct_count(model, fresh(ds))
        assert eval_accuracy(model, ds) == eval_accuracy(model, fresh(ds)) == model.accuracy
        assert kkt_violation(model, ds, alpha) == kkt_violation(model, fresh(ds), alpha)
