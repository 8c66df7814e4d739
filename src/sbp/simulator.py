"""End-to-end runs: baseline-only and SLBIU-coupled simulation, the full
offline pipeline (profile -> train -> compress -> select -> simulate), and
MPKI / S-curve reporting."""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError
from .history import HistoryConfig, collect_datasets, past
from .hints import FP32_WIDTH, PC_BITS, HintSet, ScoredCandidate, SlbiuConfig, dedup
from .hints import hint_from_model, quantize, select
from .predictors import Gshare, Slbiu, TageLite, TageLiteConfig
from .sparse_modeling import BranchScreen, SolverConfig, lambda_search, screen

DEFAULT_SNAPSHOT_INTERVAL = 100_000
BLOCK = 4096  # records per block of history columns


@dataclass
class SimConfig:
    history: HistoryConfig
    baseline: str = "gshare"  # gshare | tage_lite
    gshare_index_bits: int = 12
    tage: TageLiteConfig = field(default_factory=TageLiteConfig)
    snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL

    def __post_init__(self):
        if self.baseline not in ("gshare", "tage_lite"):
            raise ConfigError(f"unknown baseline {self.baseline!r}")
        longest, gh = max(self.tage.history_lengths, default=0), self.history.gh
        if self.baseline == "tage_lite" and longest > gh:
            raise ConfigError(f"TAGE-lite history lengths reach {longest}, beyond gh {gh}")
        if self.snapshot_interval < 1:
            raise ConfigError("snapshot interval must be at least 1")


@dataclass
class PerBranchStats:
    occurrences: int = 0
    mispredictions: int = 0
    slbiu_hits: int = 0
    correct: int = 0  # baseline-window correct count (see run's correct_from)
    slbiu_correct: int = 0  # the same window's correct SLBIU answers
    allocations: int = 0
    unique_entries_avg: float = 0.0

    def to_dict(self):  # slbiu_correct, which only scoring reads, stays out of reports
        return {k: v for k, v in asdict(self).items() if k != "slbiu_correct"}


@dataclass
class SimReport:
    phase_id: str
    total_instructions: int
    mispredictions: int
    mpki: float
    per_branch: dict  # pc -> PerBranchStats
    offloaded_count: int

    def to_dict(self):
        return {
            "phase_id": self.phase_id,
            "total_instructions": self.total_instructions,
            "mispredictions": self.mispredictions,
            "mpki": self.mpki,
            "offloaded_count": self.offloaded_count,
            "per_branch": {
                str(pc): self.per_branch[pc].to_dict() for pc in sorted(self.per_branch)
            },
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def run(trace, config, hintset=None, correct_from=0):
    """Simulate one trace. With a hint set, SLBIU is probed per branch; on a
    hit its direction is used and the baseline's update is suppressed. The
    shared GHR is always updated. No warmup exclusion: every record counts.

    correct_from: record index from which per-branch correct-prediction counts
    accumulate, the baseline's in `correct` and the SLBIU's in `slbiu_correct`
    (select_hints scores candidates with both).

    Every SLBIU answer is a function of the trace, so the hit mask is known
    up front and the baseline walks only the records the SLBIU misses, in
    blocks of at most BLOCK records that end on every snapshot boundary.
    """
    interval = config.snapshot_interval
    pcs, ids = trace.pc_ids()
    if config.baseline == "gshare":
        baseline = Gshare(config.gshare_index_bits, config.history.gh, pcs)
    else:
        baseline = TageLite(config.tage, pcs)
    taken = trace.taken
    ghr = past(taken, config.history.gh, False)
    n = len(taken)
    if hintset is None:
        hit, pred = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    else:
        if hintset.config.gh > config.history.gh:
            raise ConfigError("SLBIU gh must not exceed the shared history gh")
        slbiu = Slbiu(hintset.config)
        slbiu.load(hintset)
        hit, pred = slbiu.directions(ghr, taken, ids, pcs)
    # occurrences, mispredictions, slbiu_hits, correct and slbiu_correct per
    # PC, summed over blocks so that no temporary spans the trace
    counts = np.zeros((5, len(pcs)), dtype=np.int64)
    stops = sorted({*range(BLOCK, n, BLOCK), *range(interval, n, interval), n} - {0})
    start = 0
    for stop in stops:
        block_hit = hit[start:stop]
        rows = np.flatnonzero(~block_hit) + start
        if len(rows):
            pred[rows] = baseline.walk(ids, taken, ghr, start, stop, rows)
        if stop % interval == 0:
            baseline.snapshot()
        wrong = pred[start:stop] != taken[start:stop]
        right = ~wrong
        right[:max(correct_from - start, 0)] = False
        k = ids[start:stop]
        for row, mask in enumerate((None, wrong, block_hit, right & ~block_hit, right & block_hit)):
            counts[row] += np.bincount(k if mask is None else k[mask], minlength=len(pcs))
        start = stop
    columns = zip(  # in PerBranchStats field order
        *counts.tolist(), baseline.allocations(), baseline.unique_entries_avg()
    )
    per_branch = {pc: PerBranchStats(*col) for pc, col in zip(pcs, columns)}
    mispredictions = int(counts[1].sum())
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


@dataclass
class PipelineResult:
    trace: object
    hintset: object
    chosen: tuple  # (N, nnz)
    baseline_report: SimReport
    coupled_report: SimReport


def train_models(trace, history, screen_cfg, solver):
    """Collect every branch's dataset, keep the screened ones, and train each
    with lambda_search followed by dedup, dropping each dataset (and its float64
    copy of the features) once its branch is done. Returns {pc: model} in pc order."""
    datasets = collect_datasets(trace, history)
    models = {}
    for pc in sorted(datasets):
        ds = datasets.pop(pc)
        if screen(ds, screen_cfg):
            models[pc] = dedup(ds, lambda_search(ds, solver), solver)
    return models


def select_hints(trace, models, history, sim_config, qspec, policy, budget_bits):
    """Score trained models against the primary predictor and select hints.

    models: {pc: model}; models of PCs absent from `trace` are skipped. Each
    model is quantized (qspec None: to float32), and all of them are loaded
    into one simulated SLBIU: a candidate scores its correct SLBIU answers
    against the baseline's correct predictions in a run without hints, both
    counted from the end of warmup. Returns (hintset, (N, nnz), baseline report).
    """
    warmup = history.gh + history.lh
    base_report = run(trace, sim_config, correct_from=warmup)
    q = FP32_WIDTH if qspec is None else qspec.q
    pcs = sorted(models.keys() & base_report.per_branch.keys())
    quantized = [quantize(models[pc], qspec) for pc in pcs]
    candidates = []
    if quantized:
        nnz = max(model.nnz for model in quantized)
        config = SlbiuConfig(lh=history.lh, gh=history.gh, n=len(quantized), nnz=nnz, q=q)
        unit = HintSet(trace.phase_id, config, [hint_from_model(m, qspec) for m in quantized])
        scored = run(trace, sim_config, unit, correct_from=warmup).per_branch
        candidates = [ScoredCandidate(m, scored[m.pc].slbiu_correct,
                                      base_report.per_branch[m.pc].correct) for m in quantized]
    hintset, chosen = select(
        candidates,
        policy,
        budget_bits,
        p=PC_BITS,
        q=q,
        lh=history.lh,
        gh=history.gh,
        phase_id=trace.phase_id,
    )
    return hintset, chosen, base_report


def run_pipeline(
    traces,
    budget_bits,
    policy,
    qspec,
    history,
    sim_config=None,
    solver=None,
    screen_cfg=None,
):
    """Full offline flow per trace/phase: train the screened branches
    (train_models), score and select hints under the budget (select_hints),
    then run the coupled simulation with that phase's hints."""
    if not traces:
        raise ValueError("need at least one trace")
    solver = solver or SolverConfig()
    screen_cfg = screen_cfg or BranchScreen()
    sim_config = sim_config or SimConfig(history=history)
    results = []
    for trace in traces:
        models = train_models(trace, history, screen_cfg, solver)
        hintset, chosen, base_report = select_hints(
            trace, models, history, sim_config, qspec, policy, budget_bits
        )
        coupled = run(trace, sim_config, hintset=hintset)
        results.append(PipelineResult(trace, hintset, chosen, base_report, coupled))
    return results


SCURVE_BUCKETS = ((0.01, 1.0), (1.0, 5.0), (5.0, float("inf")))


def report_scurve(entries):
    """entries: iterable of (name, baseline_mpki, coupled_mpki). Rows sorted by
    baseline MPKI, plus mean improvements per MPKI bucket."""
    rows = []
    for name, base, coupled in sorted(entries, key=lambda e: (e[1], e[0])):
        abs_imp = base - coupled
        rel_imp = abs_imp / base if base > 0 else 0.0
        rows.append(
            {
                "name": name,
                "baseline_mpki": base,
                "coupled_mpki": coupled,
                "improvement": abs_imp,
                "relative_improvement": rel_imp,
            }
        )
    buckets = []
    for lo, hi in SCURVE_BUCKETS:
        members = [r for r in rows if lo <= r["baseline_mpki"] < hi]
        buckets.append(
            {
                "range": [lo, hi],
                "traces": len(members),
                "mean_improvement": (
                    sum(r["improvement"] for r in members) / len(members)
                    if members
                    else 0.0
                ),
                "mean_relative_improvement": (
                    sum(r["relative_improvement"] for r in members) / len(members)
                    if members
                    else 0.0
                ),
            }
        )
    return {"rows": rows, "buckets": buckets}


def render_scurve_csv(table):
    lines = ["name,baseline_mpki,coupled_mpki,improvement,relative_improvement"]
    for r in table["rows"]:
        lines.append(
            f"{r['name']},{r['baseline_mpki']!r},{r['coupled_mpki']!r},"
            f"{r['improvement']!r},{r['relative_improvement']!r}"
        )
    return "\n".join(lines) + "\n"
