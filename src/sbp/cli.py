"""`sbp` command-line tool: trace generation, training, hint selection,
simulation, the full pipeline, online modeling, and S-curve reporting.

Exit codes: 0 success, 1 runtime error, 2 usage/config error."""

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, SbpError
from .history import HistoryConfig
from .hints import U16_MAX, QuantSpec, decode_hintset, encode_hintset, quantize
from .predictors import TageLiteConfig
from .simulator import (
    SimConfig,
    render_scurve_csv,
    report_scurve,
    run,
    run_pipeline,
    select_hints,
    train_models,
)
from .online_sgd import OnlineConfig, run_online
from .sparse_modeling import BranchScreen, SolverConfig, SparseModel
from .trace_io import SyntheticScenario, generate, read_trace, write_trace


def _add_history_flags(p):
    p.add_argument("--gh", type=int, default=64, help="global history bits")
    p.add_argument("--lh", type=int, default=16, help="local history bits")


def _add_baseline_flags(p):
    p.add_argument(
        "--baseline",
        choices=["gshare", "tage-lite"],
        default="gshare",
        help="primary predictor model",
    )
    p.add_argument("--gshare-bits", type=int, default=12, help="gshare index bits")
    p.add_argument("--tage-entries", type=int, default=256, help="entries per TAGE table")


def _add_q_flag(p):
    p.add_argument("--q", default="3.4", help="quantization: 3.4, 3.12, or fp32")


MAX_GSHARE_BITS = 24
MAX_TAGE_ENTRIES = 65536


def _check_flags(args):
    """Rejects, with a ConfigError, the flag values that no command can run
    with, before any input is read, and parses --q and --targets. Only the
    chosen baseline's size is checked. (argparse would report a ConfigError
    raised by a `type` function as its own usage error.)"""
    for flag in ("gh", "lh"):
        bits = getattr(args, flag, 0)
        if not 0 <= bits <= U16_MAX:
            raise ConfigError(f"--{flag} {bits}: must be 0 to {U16_MAX}, as the hint file holds it")
    kb = getattr(args, "budget_kb", 1.0)
    if not math.isfinite(kb) or int(kb * 8192) < 1:
        raise ConfigError(f"--budget-kb {kb:g}: need a finite budget of at least 1 bit (1/8192 KB)")
    if not 0.0 <= getattr(args, "alpha", 1.0) <= 1.0:
        raise ConfigError(f"--alpha {args.alpha:g}: must be in [0, 1]")
    if hasattr(args, "q"):
        args.q = QuantSpec.parse(args.q)
    if hasattr(args, "targets"):
        text = args.targets
        try:
            args.targets = None if text == "all" else {_target(t) for t in text.split(",")}
        except ValueError as e:
            raise ConfigError(f"--targets {text}: {e}; need 'all' or PCs like 0x2000") from None
    baseline = getattr(args, "baseline", None)
    if baseline == "gshare" and not 0 <= args.gshare_bits <= MAX_GSHARE_BITS:
        raise ConfigError(f"--gshare-bits must be 0 to {MAX_GSHARE_BITS}")
    if baseline == "tage-lite" and not 1 <= args.tage_entries <= MAX_TAGE_ENTRIES:
        raise ConfigError(f"--tage-entries must be 1 to {MAX_TAGE_ENTRIES}")


def _sim_config(args):
    """The checked simulator setup; the unchosen baseline's size flag is not read."""
    baseline = args.baseline.replace("-", "_")
    tage = (TageLiteConfig(table_entries=args.tage_entries) if baseline == "tage_lite"
            else TageLiteConfig())
    return SimConfig(HistoryConfig(args.gh, args.lh), baseline, args.gshare_bits, tage)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, for `dispatch` to report; subparsers share the class."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(
        prog="sbp",
        description="Sparse branch prediction: offline sparse modeling, hint "
        "selection, and trace-driven MPKI evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"sbp {__version__}")
    parser.add_argument("--verbose", action="store_true", help="diagnostics to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic trace")
    g.add_argument("--kind", choices=["correlated", "loop", "utilization"], required=True)
    g.add_argument("--m", type=int, default=0, help="noise branches (correlated)")
    g.add_argument("--k", type=int, default=1, help="correlation distance in blocks")
    g.add_argument("--s", type=int, default=2, help="loop period")
    g.add_argument("--offset", type=int, default=0, help="loop phase offset")
    g.add_argument("--branch-frequency", type=float, default=1.0)
    g.add_argument("--offload-ratio", type=float, default=0.0)
    g.add_argument("--len", dest="length", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)

    t = sub.add_parser("train", help="train sparse models for screened branches")
    t.add_argument("--trace", required=True)
    _add_history_flags(t)
    t.add_argument("--min-occurrences", type=int, default=10_000)
    t.add_argument("--alpha", type=float, default=1.0, help="elastic-net L1 mixing")
    t.add_argument("-o", "--output", required=True, help="models JSON file")

    s = sub.add_parser("select", help="score models and build a hint file")
    s.add_argument("--models", required=True, help="models JSON from `sbp train`")
    s.add_argument("--trace", required=True, help="profiling trace (scoring input)")
    _add_history_flags(s)
    _add_baseline_flags(s)
    s.add_argument("--policy", choices=["independent", "relative"], default="relative")
    s.add_argument("--budget-kb", type=float, required=True)
    _add_q_flag(s)
    s.add_argument("-o", "--output", required=True, help="hint file (.sbph)")

    m = sub.add_parser("simulate", help="simulate a trace, optionally with hints")
    m.add_argument("--trace", required=True)
    _add_history_flags(m)
    _add_baseline_flags(m)
    m.add_argument("--hints", help="hint file (.sbph)")
    m.add_argument("-o", "--output", help="report JSON (default stdout)")

    p = sub.add_parser("pipeline", help="profile, train, select, and simulate")
    p.add_argument("--traces", nargs="+", required=True, help="trace files or a directory")
    _add_history_flags(p)
    _add_baseline_flags(p)
    p.add_argument("--policy", choices=["independent", "relative"], default="relative")
    p.add_argument("--budget-kb", type=float, required=True)
    _add_q_flag(p)
    p.add_argument("--min-occurrences", type=int, default=10_000)
    p.add_argument("--out-dir", required=True)

    o = sub.add_parser("online", help="online SGD-L1 modeling over a trace")
    o.add_argument("--trace", required=True)
    _add_history_flags(o)
    o.add_argument("--targets", default="all", help="'all' or comma-separated PCs")
    o.add_argument("--eta", type=float, default=0.05)
    o.add_argument("-o", "--output", help="results JSON (default stdout)")

    r = sub.add_parser("report", help="S-curve over report JSON files")
    r.add_argument("--scurve", nargs="+", required=True, help="coupled report JSONs")
    r.add_argument("--baseline-reports", nargs="+", help="matching baseline-only JSONs")
    r.add_argument("-o", "--output", help="CSV output (default stdout)")
    return parser


def _cmd_gen(args):
    scenario = SyntheticScenario(
        kind=args.kind,
        length=args.length,
        seed=args.seed,
        correlation_distance=args.k,
        noise_branches=args.m,
        loop_period=args.s,
        loop_offset=args.offset,
        branch_frequency=args.branch_frequency,
        offload_ratio=args.offload_ratio,
    )
    out = generate(scenario)
    if args.kind == "utilization":
        trace, offloaded = out
        sidecar = Path(args.output).with_suffix(".offload.json")
        sidecar.write_text(json.dumps(offloaded) + "\n")
    else:
        trace = out
    write_trace(trace, args.output)
    return 0


def _cmd_train(args):
    history = HistoryConfig(args.gh, args.lh)
    trace = read_trace(args.trace)
    screen_cfg = BranchScreen(min_occurrences=args.min_occurrences)
    solver = SolverConfig(elasticnet_alpha=args.alpha)
    models = train_models(trace, history, screen_cfg, solver)
    Path(args.output).write_text(_models_json(args.gh, args.lh, models))
    return 0


def _emit(text, output):
    """Write `text` to the file `output`, or to stdout when there is none."""
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _target(text):
    """A --targets PC, read by int(text, 0): 0x2000 and padding spaces work."""
    try:
        pc = int(text, 0)
    except ValueError:
        raise ValueError(f"target {text!r} is not an integer") from None
    if not 0 <= pc < 1 << 64:
        raise ValueError(f"target {text!r} is not a 64-bit PC")
    return pc


def _key(text, limit, what):
    """n for a models.json key that is str(n), as `sbp train` writes it, and 0 <= n < limit."""
    if text.isascii() and text.isdigit() and len(text) <= len(str(limit)):  # int() caps digits
        n = int(text)
        if str(n) == text and n < limit:
            return n
    raise ValueError(f"{what} {text!r} is not in [0, {limit}) in canonical decimal")


def _count(value, what):
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} {value!r} is not a non-negative integer")
    return value


def _number(value, what):  # not math.isfinite, which raises on an int beyond the float range
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} {value!r} is not a finite number")
    return value


def _flag(value, what):
    if type(value) is not bool:
        raise ValueError(f"{what} {value!r} is not true or false")
    return value


# A model's scalar fields in models.json: (JSON key, SparseModel attribute, check,
# value if absent: None when required; older files have no `converged`).
MODEL_FIELDS = (
    ("bias", "bias", _number, None),
    ("lambda", "lam", _number, None),
    ("accuracy", "accuracy", _number, None),
    ("m", "m", _count, None),
    ("sufficient", "sufficient", _flag, None),
    ("converged", "converged", _flag, True),
)


def _models_json(gh, lh, models):
    """The text of models.json, the hand-off from `sbp train` to `sbp select`."""
    payload = {
        str(pc): {key: getattr(model, attr) for key, attr, _, _ in MODEL_FIELDS}
        | {"weights": {str(j): w for j, w in model.weights.items()}}
        for pc, model in models.items()
    }
    return json.dumps({"gh": gh, "lh": lh, "models": payload}, sort_keys=True, indent=2) + "\n"


def _model_from_json(text, m, width, qspec):
    """One `sbp train` model; weight indices must address the gh + lh history,
    and the values must fit the weight format (fp32: the float32 range)."""
    pc = _key(text, 1 << 64, "model key")  # one model per PC: `_read_json` rejects repeated keys
    fields = {
        attr: check(m[key] if absent is None else m.get(key, absent), f"model {pc}: {key}")
        for key, attr, check, absent in MODEL_FIELDS
    }
    weights = {
        _key(j, width, f"model {pc}: weight index"): _number(w, f"model {pc}: weight {j}")
        for j, w in m["weights"].items()
    }
    model = SparseModel(pc=pc, weights=weights, **fields)
    quantize(model, qspec)  # select_hints quantizes again; here a failure names the file
    return model


def _read_json(path):
    """A file's JSON value; anything but UTF-8 JSON with unique keys is an error naming it."""

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise SbpError(f"{path}: key {key!r} repeats in one JSON object")
            obj[key] = value
        return obj

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique)
    except (ValueError, RecursionError) as e:  # also UnicodeDecodeError; deep nesting recurses
        raise SbpError(f"{path}: not a JSON file ({e})") from None


def _load_models_json(path, qspec):
    data = _read_json(path)
    try:
        gh, lh = _count(data["gh"], "gh"), _count(data["lh"], "lh")
        models = [_model_from_json(key, m, gh + lh, qspec) for key, m in data["models"].items()]
    except (AttributeError, KeyError, TypeError) as e:
        raise SbpError(f"{path}: not a models file from `sbp train` ({e!r})") from None
    except ValueError as e:
        raise SbpError(f"{path}: {e}") from None
    return gh, lh, {model.pc: model for model in models}


def _cmd_select(args):
    sim_config = _sim_config(args)
    gh, lh, models = _load_models_json(args.models, args.q)
    if (gh, lh) != (args.gh, args.lh):
        raise ConfigError("models file history lengths disagree with --gh/--lh")
    trace = read_trace(args.trace)
    hs, chosen, _base = select_hints(
        trace, models, HistoryConfig(gh, lh), sim_config, args.q, args.policy,
        int(args.budget_kb * 8192),
    )
    encode_hintset(hs, args.output)
    print(f"selected (N, nnz) = {chosen}, hints = {len(hs.hints)}", file=sys.stderr)
    return 0


def _cmd_simulate(args):
    sim_config = _sim_config(args)
    hintset = decode_hintset(args.hints) if args.hints else None
    if hintset is not None:
        lh, gh = hintset.config.lh, hintset.config.gh
        if lh != args.lh:
            raise ConfigError(f"{args.hints}: hint file lh {lh} disagrees with --lh {args.lh}")
        if gh > args.gh:
            raise ConfigError(f"{args.hints}: hint file gh {gh} exceeds --gh {args.gh}")
    trace = read_trace(args.trace)
    _emit(run(trace, sim_config, hintset=hintset).to_json(), args.output)
    return 0


def _expand_traces(paths):
    """The paths, each directory replaced by its *.sbpt files in sorted order."""
    return [f for p in map(Path, paths) for f in (sorted(p.glob("*.sbpt")) if p.is_dir() else [p])]


def _cmd_pipeline(args):
    sim_config = _sim_config(args)
    files = _expand_traces(args.traces)
    if not files:
        raise SbpError("no trace files found")
    traces = [read_trace(f) for f in files]
    history = HistoryConfig(args.gh, args.lh)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_pipeline(
        traces,
        budget_bits=int(args.budget_kb * 8192),
        policy=args.policy,
        qspec=args.q,
        history=history,
        sim_config=sim_config,
        screen_cfg=BranchScreen(min_occurrences=args.min_occurrences),
    )
    summary = []
    for res in results:
        name = res.trace.phase_id or "phase"
        encode_hintset(res.hintset, out_dir / f"{name}.sbph")
        (out_dir / f"{name}.baseline.json").write_text(res.baseline_report.to_json())
        (out_dir / f"{name}.coupled.json").write_text(res.coupled_report.to_json())
        summary.append(
            {
                "phase_id": name,
                "baseline_mpki": res.baseline_report.mpki,
                "coupled_mpki": res.coupled_report.mpki,
                "chosen_n": res.chosen[0],
                "chosen_nnz": res.chosen[1],
                "hints": len(res.hintset.hints),
            }
        )
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    return 0


def _cmd_online(args):
    config = OnlineConfig(eta=args.eta)
    history = HistoryConfig(args.gh, args.lh)
    trace = read_trace(args.trace)
    results = run_online(trace, history, target_pcs=args.targets, config=config)
    payload = {
        str(pc): {
            "occurrences": r.occurrences,
            "mispredictions": r.mispredictions,
            "nnz_avg": r.nnz_avg,
            "final_lambda": r.final_lambda,
        }
        for pc, r in sorted(results.items())
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def _read_report(path):
    """(phase_id or None, mpki) of a report JSON file."""
    data = _read_json(path)
    if isinstance(data, dict) and isinstance(data.get("mpki"), (int, float)):
        phase = data.get("phase_id")
        if phase is None or isinstance(phase, str):
            return phase, _number(data["mpki"], f"{path}: mpki")
    raise SbpError(f"{path}: not a report (needs a numeric mpki and a string phase_id)")


def _mpki_by_phase(paths, what):
    """{phase_id: (report, mpki)} of report JSON files; a phase_id may occur once."""
    out = {}
    for path in paths:
        phase, mpki = _read_report(path)
        if phase in out:
            raise SbpError(f"{path}: {what} phase_id {phase!r} repeats {out[phase][0]}")
        out[phase] = (path, mpki)
    return out


def _cmd_report(args):
    """S-curve rows pair each coupled report with the baseline report of the
    same phase_id; without --baseline-reports the coupled MPKI stands in."""
    entries = []
    if args.baseline_reports:
        baselines = _mpki_by_phase(args.baseline_reports, "baseline")
        for phase, (path, coupled) in _mpki_by_phase(args.scurve, "coupled").items():
            if phase not in baselines:
                raise SbpError(f"{path}: no baseline report has phase_id {phase!r}")
            entries.append((phase or Path(path).stem, baselines[phase][1], coupled))
    else:
        for path in args.scurve:
            phase, mpki = _read_report(path)
            entries.append((phase or Path(path).stem, mpki, mpki))
    table = report_scurve(entries)
    _emit(render_scurve_csv(table), args.output)
    for b in table["buckets"]:
        lo, hi = b["range"]
        print(
            f"[{lo}, {hi}) MPKI: {b['traces']} traces, mean improvement "
            f"{b['mean_improvement']:.4f} ({100 * b['mean_relative_improvement']:.2f}%)",
            file=sys.stderr,
        )
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "select": _cmd_select,
    "simulate": _cmd_simulate,
    "pipeline": _cmd_pipeline,
    "online": _cmd_online,
    "report": _cmd_report,
}


@functools.cache
def _parser():
    """One parser per process. A dropped parser is cyclic garbage that waits
    for a full collection, and building one per call raised peak RSS by
    about 0.7 MB over 50 `simulate` calls in one process."""
    return build_parser()


def dispatch(argv):
    try:
        args = _parser().parse_args(argv)
        _check_flags(args)
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"sbp: {e}", file=sys.stderr)
        return 2
    except (SbpError, OSError, ValueError, MemoryError) as e:
        print(f"sbp: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
