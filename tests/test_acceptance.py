"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with the measured numbers. These are end-to-end properties over the
synthetic corpus plus cross-checks against independent oracles; the unit test
modules cover the fine-grained behavior."""

import hashlib
import random
import time

import numpy as np

from sbp.cli import dispatch
from sbp.history import HistoryConfig, TrainingDataset, collect_datasets
from sbp.hints import (
    Q3_4,
    Q3_12,
    HintSet,
    dedup,
    ScoredCandidate,
    SlbiuConfig,
    SparsityHint,
    empty_hintset,
    encode_hintset,
    hint_from_model,
    quantize,
    quantize_value,
    select,
    storage_bits,
)
from sbp.predictors import Slbiu, TageLiteConfig
from sbp.simulator import SimConfig, run, run_pipeline
from sbp.sparse_modeling import (
    BranchScreen,
    SolverConfig,
    SparseModel,
    eval_accuracy,
    fit,
    kkt_violation,
    lambda_search,
    predictions,
)
from sbp.trace_io import (
    PC_B,
    PC_LOOP,
    SyntheticScenario,
    gen_correlated,
    gen_loop,
    gen_utilization,
)
from tests.conftest import gather_from, int8_rows
from tests.reference_cd import objective
from tests.reference_history import ints_to_pm1
from tests.reference_solver import reference_fit, reference_objective


def test_criterion_01_sparse_recovery(check):
    """A branch that replays another branch's outcome from 10 records earlier
    is recovered as a single-weight model pointing at exactly that history bit."""
    t0 = time.time()
    trace = gen_correlated(
        SyntheticScenario(kind="correlated", length=1_000_000, seed=7, noise_branches=8)
    )
    ds = collect_datasets(trace, HistoryConfig(gh=64, lh=16))[PC_B]
    model = lambda_search(ds, SolverConfig())
    elapsed = time.time() - t0
    dominant = max(model.weights, key=lambda j: abs(model.weights[j]))
    # M=8 noise branches, one block back: the source outcome sits at GHR
    # index M + (M + 2) = 18 when the target predicts.
    ok = (
        model.accuracy >= 0.999
        and model.nnz <= 3
        and dominant == 18
        and elapsed < 60.0
    )
    check(1, ok, f"accuracy={model.accuracy:.4f} nnz={model.nnz} "
                 f"dominant_index={dominant} (expect 18) elapsed={elapsed:.1f}s")


def test_criterion_02_noise_pattern_blowup(check):
    """More noise branches between the correlated pair force the tagged
    baseline to spread the target over ever more table entries, while one
    sparsity-hint weight predicts it almost perfectly."""
    history = HistoryConfig(40, 8)
    tage = TageLiteConfig(num_tables=4, table_entries=8192, tag_bits=12,
                          base_entries=256, history_lengths=(7, 11, 19, 40))
    uniq = []
    ratios = []
    for m in (2, 4, 8):
        trace = gen_correlated(
            SyntheticScenario(kind="correlated", length=20_000 * (m + 2), seed=3,
                              noise_branches=m)
        )
        cfg = SimConfig(history=history, baseline="tage_lite", tage=tage,
                        snapshot_interval=10_000)
        base = run(trace, cfg).per_branch[PC_B]
        hint = SparsityHint(PC_B, 0.0, [(2 * m + 2, 4.0)], Q3_4)
        hs = HintSet(trace.phase_id, SlbiuConfig(lh=8, gh=40, n=1, nnz=1, q=8), [hint])
        coup = run(trace, cfg, hintset=hs).per_branch[PC_B]
        uniq.append(base.unique_entries_avg)
        ratios.append(base.mispredictions / max(coup.mispredictions, 1))
    ok = uniq[0] < uniq[1] < uniq[2] and min(ratios) >= 10.0
    check(2, ok, f"unique_entries_avg={[round(u, 1) for u in uniq]} "
                 f"misprediction_ratios={[round(r, 1) for r in ratios]}")


def test_criterion_03_storage_exactness(check, tmp_path):
    """Serialized hint payload length matches the closed-form bit count."""
    cases = [
        (SlbiuConfig(lh=512, gh=512, n=13, nnz=36, q=8), 16_016),
        (SlbiuConfig(lh=512, gh=512, n=2, nnz=34, q=32), 4_072),
    ]
    results = []
    for cfg, expected in cases:
        path = tmp_path / f"s{expected}.sbph"
        encode_hintset(HintSet("p", cfg, []), path)
        data = path.read_bytes()
        header_len = 4 + 6 + 1 + 12  # magic, counts, phase "p", config fields
        (payload_bits,) = np.frombuffer(data[header_len:header_len + 4],
                                        dtype="<u4")
        results.append((storage_bits(cfg), int(payload_bits), expected))
    ok = all(s == p == e for s, p, e in results)
    check(3, ok, f"(formula, payload, expected) = {results}")


def test_criterion_04_quantization(check):
    """Rounding error stays within half a step over a million random weights,
    and 8-bit hint weights cost nothing measurable end to end."""
    rng = random.Random(42)
    worst = []
    for spec in (Q3_4, Q3_12):
        half_step = 2.0 ** -(spec.fraction_bits + 1)
        errs = max(
            abs(quantize_value(v, spec) - v)
            for v in (rng.uniform(spec.min_value, spec.max_value)
                      for _ in range(1_000_000))
        )
        worst.append((errs, half_step))
    bound_ok = all(e <= h for e, h in worst)

    history = HistoryConfig(32, 16)
    corpus = lambda: [
        gen_correlated(SyntheticScenario(kind="correlated", length=60_000, seed=1,
                                         noise_branches=4)),
        gen_correlated(SyntheticScenario(kind="correlated", length=60_000, seed=2,
                                         noise_branches=8)),
        gen_loop(SyntheticScenario(kind="loop", length=30_000, loop_period=7)),
    ]
    kw = dict(
        budget_bits=2 * 8192,
        policy="independent",
        history=history,
        sim_config=SimConfig(history=history, gshare_index_bits=10),
        screen_cfg=BranchScreen(min_occurrences=3000),
    )
    fixed = run_pipeline(corpus(), qspec=Q3_4, **kw)
    full = run_pipeline(corpus(), qspec=None, **kw)
    diffs = [
        a.coupled_report.mpki - b.coupled_report.mpki for a, b in zip(fixed, full)
    ]
    e2e_ok = all(d <= 0.05 for d in diffs)
    check(4, bound_ok and e2e_ok,
          f"max_round_err={[f'{e:.2e}<= {h:.2e}' for e, h in worst]} "
          f"coupled_mpki_delta={[round(d, 4) for d in diffs]} (limit +0.05)")


def test_criterion_05_deduplication(check):
    """A loop branch makes whole history columns identical; after collapsing,
    each identical-column group carries at most one weight and the predictions
    are unchanged from the uncollapsed mixed-penalty refit."""
    trace = gen_loop(SyntheticScenario(kind="loop", length=5_000, loop_period=5))
    ds = collect_datasets(trace, HistoryConfig(gh=10, lh=10))[PC_LOOP]
    cfg = SolverConfig()
    lasso = lambda_search(ds, cfg)
    en = fit(ds, lasso.lam, 0.5, cfg)
    # guard: the refit may not lose accuracy, otherwise dedup would back out
    assert eval_accuracy(en, ds) >= lasso.accuracy - 0.001
    dd = dedup(ds, lasso, cfg)
    groups = {}
    for j in dd.weights:
        groups.setdefault(int8_rows(ds)[:, j].tobytes(), []).append(j)
    one_per_group = all(len(g) == 1 for g in groups.values())
    same_preds = bool(np.array_equal(predictions(dd, ds), predictions(en, ds)))
    check(5, one_per_group and same_preds,
          f"groups={sorted(groups.values())} identical_predictions={same_preds}")


def _oracle_select(scored, budget, p, q, lh, gh):
    """Brute-force reimplementation of the (N, nnz) grid search."""
    total_hist = lh + gh
    ib = (total_hist - 1).bit_length() if total_hist > 1 else 0
    options = []
    for cap in range(1, max((c.model.nnz for _, c in scored), default=0) + 1):
        cost = p + q + cap * (q + ib) + lh
        n = budget // cost
        pool = sorted(
            (sc for sc in scored if sc[1].model.nnz <= cap),
            key=lambda sc: (-sc[0], sc[1].model.nnz, sc[1].model.pc),
        )
        if n == 0 or not pool:
            continue
        chosen = pool[:n]
        options.append(
            (sum(s for s, _ in chosen), n, -cap, {c.model.pc for _, c in chosen})
        )
    if not options:
        return (0, 0), set()
    total, n, neg_cap, pcs = max(options)
    return (n, -neg_cap), pcs


def test_criterion_06_selection_soundness(check):
    """Randomized pools: selection under the relative policy never keeps a
    hint that fails to beat the primary predictor, never overruns the budget,
    and agrees with an exhaustive grid search."""
    rng = random.Random(99)
    p, q, lh, gh = 64, 32, 8, 24
    failures = 0
    for trial in range(1000):
        cands = []
        for i in range(rng.randint(1, 8)):
            nnz = rng.randint(1, 5)
            idxs = rng.sample(range(lh + gh), nnz)
            weights = {j: rng.choice([-2.0, -1.0, 1.0, 2.0]) for j in idxs}
            offline = rng.randint(0, 1000)
            primary = rng.randint(0, 1000)
            model = SparseModel(pc=0x1000 + 4 * i, bias=0.0, weights=weights,
                                lam=0.1, accuracy=rng.random(), m=1000)
            cands.append(ScoredCandidate(model, offline, primary))
        budget = rng.randint(300, 6000)
        hs, chosen = select(cands, "relative", budget, p=p, q=q, lh=lh, gh=gh)
        by_pc = {c.model.pc: c for c in cands}
        sound = all(
            by_pc[h.pc].offline_correct > by_pc[h.pc].primary_correct
            for h in hs.hints
        )
        within = hs.hints == [] or storage_bits(hs.config) <= budget
        scored = [(c.offline_correct - c.primary_correct, c) for c in cands
                  if c.offline_correct > c.primary_correct]
        want_chosen, want_pcs = _oracle_select(scored, budget, p, q, lh, gh)
        agrees = chosen == want_chosen and {h.pc for h in hs.hints} == want_pcs
        if not (sound and within and agrees):
            failures += 1
    check(6, failures == 0, f"1000 random pools, {failures} violations")


def test_criterion_07_coupling_identity(check):
    """An empty hint set must leave the coupled simulation bit-identical to
    the baseline-only run."""
    traces = [
        gen_correlated(SyntheticScenario(kind="correlated", length=20_000, seed=6,
                                         noise_branches=2)),
        gen_loop(SyntheticScenario(kind="loop", length=10_000, loop_period=4)),
        gen_utilization(SyntheticScenario(kind="utilization", length=20_000, seed=2,
                                          branch_frequency=0.5))[0],
    ]
    configs = [
        SimConfig(history=HistoryConfig(12, 4), gshare_index_bits=8),
        SimConfig(history=HistoryConfig(32, 4), baseline="tage_lite",
                  tage=TageLiteConfig(num_tables=2, table_entries=64, tag_bits=6,
                                      base_entries=64), snapshot_interval=5_000),
    ]
    mismatches = []
    for cfg in configs:
        for trace in traces:
            plain = run(trace, cfg).to_json()
            empty = empty_hintset(lh=cfg.history.lh, gh=cfg.history.gh, q=8)
            coupled = run(trace, cfg, hintset=empty).to_json()
            if plain != coupled:
                mismatches.append((cfg.baseline, trace.phase_id))
    check(7, not mismatches,
          f"6 (baseline, trace) pairs compared, mismatches={mismatches}")


def test_criterion_08_sign_rule_equivalence(check):
    """The fixed-point inference-unit datapath and the trainer's float scoring
    agree on the taken/not-taken decision for random models and histories."""
    rng = random.Random(17)
    gh, lh = 12, 4
    cases = 0
    mismatches = 0
    grid = [i / 16 for i in range(-128, 128)]
    for _ in range(100):
        nnz = rng.randint(1, 6)
        idxs = sorted(rng.sample(range(gh + lh), nnz))
        weights = {j: rng.choice([g for g in grid if g != 0.0]) for j in idxs}
        model = SparseModel(pc=0x2000, bias=rng.choice(grid), weights=weights,
                            lam=0.1, accuracy=1.0, m=1)
        unit = Slbiu(SlbiuConfig(lh=lh, gh=gh, n=1, nnz=nnz, q=8))
        unit.load(HintSet("", unit.config, [hint_from_model(model, Q3_4)]))
        ghrs = [rng.getrandbits(gh) for _ in range(1000)]
        lhrs = [rng.getrandbits(lh) for _ in range(1000)]
        x = np.concatenate([ints_to_pm1(ghrs, gh), ints_to_pm1(lhrs, lh)], axis=1)
        w = model.weight_vector(gh + lh)
        trainer = (model.bias + x.astype(np.float64) @ w) >= 0
        for ghr, lhr, want in zip(ghrs, lhrs, trainer):
            unit.entries[0x2000][1] = lhr
            cases += 1
            if unit.predict(0x2000, ghr).direction != bool(want):
                mismatches += 1
    check(8, cases == 100_000 and mismatches == 0,
          f"{cases} random (model, history) cases, {mismatches} mismatches")


def test_criterion_09_online_vs_offline(check):
    """The online penalized learner stays within 4x the deployed offline
    model's mispredictions for the correlated branch, with its live weight
    count capped at 50."""
    from sbp.online_sgd import OnlineConfig, run_online

    history = HistoryConfig(19, 0)
    trace = gen_correlated(
        SyntheticScenario(kind="correlated", length=100_000, seed=1, noise_branches=8)
    )
    ds = collect_datasets(trace, history)[PC_B]
    model = quantize(lambda_search(ds, SolverConfig()), Q3_4)
    hint = hint_from_model(model, Q3_4)
    hs = HintSet(trace.phase_id,
                 SlbiuConfig(lh=0, gh=19, n=1, nnz=model.nnz, q=8), [hint])
    sim = SimConfig(history=history, gshare_index_bits=10)
    offline = run(trace, sim, hintset=hs).per_branch[PC_B].mispredictions
    result = run_online(trace, history, target_pcs={PC_B},
                        config=OnlineConfig(eta=0.5))[PC_B]
    online = result.mispredictions
    nnz_peak = max(result.nnz_samples)
    ok = offline >= 1 and online <= 4 * offline and nnz_peak <= 50
    check(9, ok, f"offline_misp={offline} online_misp={online} "
                 f"(limit {4 * offline}) nnz_peak={nnz_peak}")


def test_criterion_10_solver_against_reference(check):
    """Coordinate descent lands on the same optimum as an independent
    accelerated proximal-gradient solver, and satisfies the stationarity
    conditions at its own tolerance."""
    rng = np.random.default_rng(7)
    cfg = SolverConfig(tolerance=1e-7, max_iterations=3000)
    worst_gap = 0.0
    worst_kkt = 0.0
    for trial in range(20):
        m = int(rng.integers(80, 201))
        l = int(rng.integers(6, 13))
        x = rng.choice([-1, 1], size=(m, l)).astype(np.int8)
        w_true = np.zeros(l)
        w_true[rng.choice(l, 3, replace=False)] = rng.choice([-2.0, 2.0], 3)
        z = x @ w_true + rng.normal(0, 1, m)
        y = rng.random(m) < 1.0 / (1.0 + np.exp(-z))
        lam = float(10 ** rng.uniform(-3, -0.7))
        alpha = 1.0 if trial % 2 == 0 else 0.5

        ds = TrainingDataset(1, y, HistoryConfig(gh=l, lh=0), gather_from(x))
        model = fit(ds, lam, alpha, cfg)
        w = model.weight_vector(l)
        obj_cd = objective(model.bias + x.astype(np.float64) @ w, y.astype(float),
                           w, lam, alpha)
        rb, rw = reference_fit(x, y, lam, alpha)
        obj_ref = reference_objective(x, y, rb, rw, lam, alpha)
        worst_gap = max(worst_gap, abs(obj_cd - obj_ref))
        worst_kkt = max(worst_kkt, kkt_violation(model, ds, alpha))
    ok = worst_gap <= 1e-6 and worst_kkt <= 10 * cfg.tolerance
    check(10, ok, f"20 instances, worst objective gap={worst_gap:.2e} "
                  f"(limit 1e-6), worst KKT residual={worst_kkt:.2e} "
                  f"(limit {10 * cfg.tolerance:.0e})")


def _sha_files(paths):
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def test_criterion_11_cli_determinism(check, tmp_path):
    """Every command, run three times on identical inputs, produces
    byte-identical outputs."""
    base = tmp_path
    trace = base / "c.sbpt"
    loop = base / "l.sbpt"
    util = base / "u.sbpt"
    drift = []

    def run3(name, argv_for, outputs_for):
        digests = set()
        for i in range(3):
            rc = dispatch([str(a) for a in argv_for(i)])
            assert rc == 0, f"{name} run {i} exited {rc}"
            digests.add(_sha_files(outputs_for(i)))
        if len(digests) != 1:
            drift.append(name)

    run3("gen-correlated",
         lambda i: ["gen", "--kind", "correlated", "--m", 2, "--len", 30_000,
                    "--seed", 5, "-o", trace],
         lambda i: [trace])
    run3("gen-loop",
         lambda i: ["gen", "--kind", "loop", "--s", 4, "--len", 8_000, "-o", loop],
         lambda i: [loop])
    run3("gen-utilization",
         lambda i: ["gen", "--kind", "utilization", "--len", 8_000,
                    "--branch-frequency", 0.5, "--offload-ratio", 0.5, "-o", util],
         lambda i: [util, base / "u.offload.json"])

    models = base / "models.json"
    run3("train",
         lambda i: ["train", "--trace", trace, "--gh", 16, "--lh", 4,
                    "--min-occurrences", 2000, "-o", models],
         lambda i: [models])
    hints = base / "h.sbph"
    run3("select",
         lambda i: ["select", "--models", models, "--trace", trace, "--gh", 16,
                    "--lh", 4, "--policy", "independent", "--budget-kb", 1,
                    "-o", hints],
         lambda i: [hints])
    report = base / "rep.json"
    run3("simulate",
         lambda i: ["simulate", "--trace", trace, "--gh", 16, "--lh", 4,
                    "--hints", hints, "-o", report],
         lambda i: [report])
    online = base / "online.json"
    run3("online",
         lambda i: ["online", "--trace", trace, "--gh", 12, "--lh", 0,
                    "--targets", hex(PC_B), "-o", online],
         lambda i: [online])
    run3("pipeline",
         lambda i: ["pipeline", "--traces", trace, loop, "--gh", 16, "--lh", 4,
                    "--budget-kb", 1, "--min-occurrences", 1500,
                    "--out-dir", base / f"pipe{i}"],
         lambda i: list((base / f"pipe{i}").iterdir()))
    csv = base / "s.csv"
    run3("report",
         lambda i: ["report", "--scurve", report, "-o", csv],
         lambda i: [csv])

    check(11, not drift, f"9 commands x 3 runs, non-deterministic: {drift}")
