"""End-to-end runs: baseline-only and SLBIU-coupled simulation, the full
offline pipeline (profile -> train -> compress -> select -> simulate), and
MPKI / S-curve reporting."""

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError
from .history import HistoryConfig, collect_datasets
from .hints import FP32_WIDTH, PC_BITS, ScoredCandidate, dedup, encode_hintset, quantize, select
from .predictors import MISS, Gshare, Slbiu, TageLite, TageLiteConfig
from .sparse_modeling import (
    BranchScreen,
    SolverConfig,
    correct_count,
    lambda_search,
    screen,
)

DEFAULT_SNAPSHOT_INTERVAL = 100_000


@dataclass
class SimConfig:
    history: HistoryConfig
    baseline: str = "gshare"  # gshare | tage_lite
    gshare_index_bits: int = 12
    tage: TageLiteConfig = field(default_factory=TageLiteConfig)
    snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL

    def build_baseline(self):
        if self.baseline == "gshare":
            return Gshare(self.gshare_index_bits, self.history.gh)
        if self.baseline == "tage_lite":
            if max(self.tage.history_lengths) > self.history.gh:
                raise ConfigError("TAGE-lite history lengths exceed the shared GHR")
            return TageLite(self.tage)
        raise ConfigError(f"unknown baseline {self.baseline!r}")


@dataclass
class PerBranchStats:
    occurrences: int = 0
    mispredictions: int = 0
    slbiu_hits: int = 0
    correct: int = 0  # baseline-window correct count (see run's correct_from)
    allocations: int = 0
    unique_entries_avg: float = 0.0

    def to_dict(self):
        return asdict(self)


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
    accumulate (used by the pipeline to measure the primary predictor).
    """
    baseline = config.build_baseline()
    slbiu = None
    if hintset is not None:
        if hintset.config.gh > config.history.gh:
            raise ConfigError("SLBIU gh must not exceed the shared history gh")
        slbiu = Slbiu(hintset.config)
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
        if i >= correct_from and not suppress and direction == taken:
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


@dataclass
class PipelineResult:
    trace: object
    hintset: object
    chosen: tuple  # (N, nnz)
    baseline_report: SimReport
    coupled_report: SimReport
    hint_path: str = ""


def train_models(trace, history, screen_cfg, solver):
    """Collect every branch's dataset, keep the screened ones, and train each
    with lambda_search followed by dedup. Returns {pc: (model, dataset)} in
    pc order."""
    datasets = collect_datasets(trace, history)
    trained = {}
    for pc in sorted(datasets):
        ds = datasets[pc]
        if screen(ds, screen_cfg):
            model = dedup(ds, lambda_search(ds, solver), solver)
            trained[pc] = (model, ds)
    return trained


def select_hints(trace, trained, history, sim_config, qspec, policy, budget_bits):
    """Score trained models against the primary predictor and select hints.

    trained: {pc: (model, dataset)} for branches of `trace`, in pc order.
    Runs the baseline alone, counting its correct predictions from the end of
    warmup, quantizes each model (qspec None keeps fp32 weights), scores it
    against the baseline on its dataset, and selects under the budget.
    Returns (hintset, (N, nnz), baseline report).
    """
    base_report = run(trace, sim_config, correct_from=history.gh + history.lh)
    candidates = []
    for pc, (model, ds) in trained.items():
        if qspec is not None:
            model = quantize(model, qspec)
        candidates.append(
            ScoredCandidate(
                model=model,
                offline_correct=correct_count(model, ds),
                primary_correct=base_report.per_branch[pc].correct,
            )
        )
    hintset, chosen = select(
        candidates,
        policy,
        budget_bits,
        p=PC_BITS,
        q=FP32_WIDTH if qspec is None else qspec.q,
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
    out_dir=None,
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
        trained = train_models(trace, history, screen_cfg, solver)
        hintset, chosen, base_report = select_hints(
            trace, trained, history, sim_config, qspec, policy, budget_bits
        )
        hint_path = ""
        if out_dir is not None:
            hint_path = str(Path(out_dir) / f"{trace.phase_id or 'phase'}.sbph")
            encode_hintset(hintset, hint_path)
        coupled = run(trace, sim_config, hintset=hintset)
        results.append(
            PipelineResult(trace, hintset, chosen, base_report, coupled, hint_path)
        )
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
