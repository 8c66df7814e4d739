"""Span tracing from outside the program, and per-layer metrics from spans.

`install` replaces the public functions of each `sbp` module with wrappers
that record a span (name, layer, start, end, parent, phase, tag) and bump
counters. It rebinds every module attribute that refers to a wrapped
function, so the names that `cli`, `simulator` and `hints` bind with
`from ... import` are traced too. Spans and counters stay in memory; the
worker writes them out when its run ends.

The `cli` layer's own work is traced explicitly: argument parsing, JSON
encoding and decoding, and report text I/O. Whatever remains of a
`dispatch` span after all child spans is uncovered time. `aggregate` checks
that it stays under COVERAGE_TOLERANCE of the traced wall time, so a function
that escapes the wrappers (for example one re-bound under another name) is
reported instead of being counted as CLI time.

`aggregate` is pure Python; the parent process uses it without importing sbp.
"""

import functools
import json
import os
import time
from collections import Counter

from workloads import branch_class

COVERAGE_TOLERANCE = 0.02  # max uncovered share of the traced wall time

LAYERS = ("trace_io", "history", "sparse_modeling", "hints", "simulator", "online_sgd", "cli")
SIM_CONFIGS = ("gshare", "tage_lite", "gshare_slbiu", "tage_lite_slbiu")
BRANCH_CLASSES = ("separable", "fair_coin", "loop")

# Span fields.
NAME, LAYER, START, END, PARENT, PHASE, TAG = range(7)


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.phase = "setup"

    def wrap(self, fn, name, layer, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.phase, ""]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer.counts, span, args, kwargs, result)
            return result

        return traced


def _on_read(counts, span, args, kwargs, trace):
    # Record count and file size give the number of u32 gap escapes:
    # 16-byte header, 10 bytes per record, 4 more per escape.
    size = os.path.getsize(args[0])
    counts["read_calls"] += 1
    counts["read_records"] += len(trace)
    counts["gap_escapes"] += (size - 16 - 10 * len(trace)) // 4


def _on_collect(counts, span, args, kwargs, datasets):
    counts["datasets"] += len(datasets)
    counts["samples"] += sum(ds.m for ds in datasets.values())


def _on_fit(counts, span, args, kwargs, model):
    counts["fit_calls"] += 1
    counts["nonconverged_fits"] += not model.converged


def _on_lambda_search(counts, span, args, kwargs, model):
    span[TAG] = branch_class(model.pc)
    counts["models"] += 1
    counts["insufficient_models"] += not model.sufficient


def _on_dedup(counts, span, args, kwargs, model):
    counts["dedup_calls"] += 1
    counts["dedup_accepted"] += model is not args[1]


def _select_hook(storage_bits):
    def on_select(counts, span, args, kwargs, result):
        hintset, _chosen = result
        counts["hints_chosen"] += len(hintset.hints)
        counts["budget_bits"] += args[2]
        counts["budget_used_bits"] += storage_bits(hintset.config)

    return on_select


def _on_run(counts, span, args, kwargs, report):
    trace, config = args[0], args[1]
    hinted = (args[2] if len(args) > 2 else kwargs.get("hintset")) is not None
    label = config.baseline + ("_slbiu" if hinted else "")
    span[TAG] = label
    counts[f"run_records.{label}"] += len(trace)
    counts[f"run_mispredictions.{label}"] += report.mispredictions
    counts[f"run_instructions.{label}"] += report.total_instructions
    for stats in report.per_branch.values():
        counts["slbiu_hits"] += stats.slbiu_hits
        counts["tage_allocations"] += stats.allocations
    if hinted:
        counts["slbiu_probes"] += len(trace)


def _on_online(counts, span, args, kwargs, results):
    for r in results.values():
        counts["online_updates"] += r.occurrences
        counts["online_mispredictions"] += r.mispredictions


def _on_parser(tracer):
    def on_build(counts, span, args, kwargs, parser):
        parser.parse_args = tracer.wrap(parser.parse_args, "parse_args", "cli")

    return on_build


class _TracedJson:
    """Stand-in for the `json` module inside sbp.cli with traced dumps/loads."""

    def __init__(self, tracer):
        self.dumps = tracer.wrap(json.dumps, "json.dumps", "cli")
        self.loads = tracer.wrap(json.loads, "json.loads", "cli")

    def __getattr__(self, name):
        return getattr(json, name)


def install(tracer):
    """Wrap sbp's public functions (and the CLI's own work) for `tracer`."""
    import pathlib

    import sbp
    from sbp import cli, hints, history, online_sgd, predictors, simulator, sparse_modeling, trace_io

    modules = (sbp, cli, hints, history, online_sgd, predictors, simulator, sparse_modeling, trace_io)
    targets = (
        (trace_io, "read_trace", _on_read),
        (trace_io, "write_trace", None),
        (trace_io, "generate", None),
        (trace_io, "gen_correlated", None),
        (trace_io, "gen_loop", None),
        (trace_io, "gen_utilization", None),
        (history, "collect_datasets", _on_collect),
        (sparse_modeling, "fit", _on_fit),
        (sparse_modeling, "lambda_search", _on_lambda_search),
        (sparse_modeling, "eval_accuracy", None),
        (sparse_modeling, "correct_count", None),
        (sparse_modeling, "screen", None),
        (hints, "quantize", None),
        (hints, "dedup", _on_dedup),
        (hints, "select", _select_hook(hints.storage_bits)),
        (hints, "encode_hintset", None),
        (hints, "decode_hintset", None),
        (simulator, "run", _on_run),
        (simulator, "run_pipeline", None),
        (online_sgd, "run_online", _on_online),
        (cli, "dispatch", None),
        (cli, "build_parser", _on_parser(tracer)),
    )
    for module, attr, hook in targets:
        fn = getattr(module, attr)
        layer = "dispatch" if attr == "dispatch" else module.__name__.rpartition(".")[2]
        traced = tracer.wrap(fn, attr, layer, hook)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, traced)
    cli.json = _TracedJson(tracer)
    simulator.SimReport.to_json = tracer.wrap(simulator.SimReport.to_json, "to_json", "cli")
    for attr in ("read_text", "write_text"):
        setattr(pathlib.Path, attr, tracer.wrap(getattr(pathlib.Path, attr), attr, "cli"))


def _durations(spans):
    return [s[END] - s[START] for s in spans]


def _self_times(spans, dur):
    out = list(dur)
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            out[s[PARENT]] -= d
    return out


def _group_time(spans, dur, names, tag=None):
    """Inclusive time of spans named in `names` (optionally with `tag`),
    not counting spans nested inside another span of the group."""
    total = 0.0
    for i, s in enumerate(spans):
        if s[NAME] not in names or (tag is not None and s[TAG] != tag):
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            total += dur[i]
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def aggregate(spans, counts, untraced_wall):
    """Per-layer metrics of one traced run, plus its uncovered share.

    Layer self shares cover the timed commands; times, rates and counts
    cover set-up and timed commands together.
    """
    dur = _durations(spans)
    own = _self_times(spans, dur)
    wall = sum(d for s, d in zip(spans, dur) if s[PARENT] < 0)
    timed_wall = sum(d for s, d in zip(spans, dur) if s[PARENT] < 0 and s[PHASE] == "timed")
    layer_self = Counter()
    layer_self_timed = Counter()
    for s, t in zip(spans, own):
        layer_self[s[LAYER]] += t
        if s[PHASE] == "timed":
            layer_self_timed[s[LAYER]] += t
    c = Counter(counts)

    def g(*names, tag=None):
        return _group_time(spans, dur, set(names), tag)

    m = {f"{layer}.self_share": _ratio(layer_self_timed[layer], timed_wall) for layer in LAYERS}
    read_s = g("read_trace")
    m.update({
        "trace_io.read_s": read_s,
        "trace_io.read_records_per_s": _ratio(c["read_records"], read_s),
        "trace_io.read_calls": c["read_calls"],
        "trace_io.gap_escape_share": _ratio(c["gap_escapes"], c["read_records"]),
        "trace_io.write_s": g("write_trace"),
        "trace_io.gen_s": g("generate", "gen_correlated", "gen_loop", "gen_utilization"),
        "history.collect_s": g("collect_datasets"),
        "history.samples": c["samples"],
        "history.datasets": c["datasets"],
    })
    lam_s = g("lambda_search")
    m["sparse_modeling.lambda_search_s"] = lam_s
    for cls in BRANCH_CLASSES:
        m[f"sparse_modeling.lambda_search_share.{cls}"] = _ratio(g("lambda_search", tag=cls), lam_s)
    m.update({
        "sparse_modeling.fit_s": g("fit"),
        "sparse_modeling.fit_calls": c["fit_calls"],
        "sparse_modeling.nonconverged_fits": c["nonconverged_fits"],
        "sparse_modeling.models": c["models"],
        "sparse_modeling.insufficient_models": c["insufficient_models"],
        "sparse_modeling.sufficient_ratio": _ratio(c["models"] - c["insufficient_models"], c["models"]),
        "hints.dedup_s": g("dedup"),
        "hints.dedup_accepted_ratio": _ratio(c["dedup_accepted"], c["dedup_calls"]),
        "hints.quantize_s": g("quantize"),
        "hints.select_s": g("select"),
        "hints.codec_s": g("encode_hintset", "decode_hintset"),
        "hints.chosen": c["hints_chosen"],
        "hints.budget_used_ratio": _ratio(c["budget_used_bits"], c["budget_bits"]),
    })
    run_s = g("run")
    run_records = sum(c[f"run_records.{cfg}"] for cfg in SIM_CONFIGS)
    m["simulator.run_s"] = run_s
    m["simulator.run_records_per_s"] = _ratio(run_records, run_s)
    for cfg in SIM_CONFIGS:
        cfg_s = g("run", tag=cfg)
        m[f"simulator.run_share.{cfg}"] = _ratio(cfg_s, run_s)
        m[f"simulator.run_records_per_s.{cfg}"] = _ratio(c[f"run_records.{cfg}"], cfg_s)
    m["simulator.pipeline_self_share"] = _ratio(
        sum(t for s, t in zip(spans, own) if s[NAME] == "run_pipeline" and s[PHASE] == "timed"),
        timed_wall,
    )
    m.update({
        "predictors.slbiu_hits": c["slbiu_hits"],
        "predictors.slbiu_hit_ratio": _ratio(c["slbiu_hits"], c["slbiu_probes"]),
        "predictors.mispredictions": sum(c[f"run_mispredictions.{cfg}"] for cfg in SIM_CONFIGS),
        "predictors.tage_allocations": c["tage_allocations"],
    })
    for cfg in ("tage_lite", "tage_lite_slbiu"):
        m[f"predictors.mpki.{cfg}"] = 1000.0 * _ratio(
            c[f"run_mispredictions.{cfg}"], c[f"run_instructions.{cfg}"]
        )
    m.update({
        "online_sgd.updates": c["online_updates"],
        "online_sgd.updates_per_s": _ratio(c["online_updates"], g("run_online")),
        "online_sgd.mispredictions": c["online_mispredictions"],
        "cli.self_s": layer_self["cli"],
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.uncovered_share": _ratio(layer_self["dispatch"], wall),
    })
    return m


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if "_per_s" in name:
        return "records/s" if "records" in name else "1/s"
    if "share" in name or "ratio" in name:
        return "ratio"
    if ".mpki." in name:
        return "MPKI"
    if name.endswith("_s"):
        return "s"
    return "count"
