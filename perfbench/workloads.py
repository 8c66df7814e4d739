"""Benchmark workloads: the `sbp` commands each one runs, generated from a seed.

A workload is a list of set-up commands (trace generation and, for the
replay-style workloads, training a held-out hint file on a separate
profiling trace) and a list of timed commands. Every command is an argv for
`sbp.cli.dispatch`, run in the workload's directory. Profiling and evaluation
traces use distinct seeds derived from the workload seed, so hints are always
scored on traces they were not trained on.

This module imports nothing from `sbp`: the parent process uses it to plan
runs and stays free of numpy.
"""

from dataclasses import dataclass

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

HISTORY = ["--gh", "64", "--lh", "16"]
HINT_FLAGS = ["--budget-kb", "2", "--q", "3.4", "--policy", "relative"]

# Fixed synthetic PC map of sbp.trace_io (repeated here to keep this module
# free of sbp imports).
PC_A = 0x1000
PC_NOISE_BASE = 0x1100
PC_B = 0x2000
PC_LOOP = 0x3000
PC_UTIL_BASE = 0x4000

# Input sizes. A correlated trace holds whole blocks of M + 2 records; a
# utilization trace holds round(instructions * frequency) branch records.
PIPELINE_CORR_M = 4
PIPELINE_CORR_LEN = 42_000
PIPELINE_LOOP_PERIOD = 7
PIPELINE_LOOP_LEN = 2_000
PIPELINE_MIN_OCC = 1_500
REPLAY_M = 8
REPLAY_PROFILE_LEN = 20_000
REPLAY_EVAL_LEN = 60_000
REPLAY_MIN_OCC = 1_500
GAPPED_FREQ = 0.002  # one branch per 500 instructions: every gap takes the u32 escape
GAPPED_PROFILE_INSTR = 20_000_000
GAPPED_EVAL_INSTR = 15_000_000
GAPPED_MIN_OCC = 1_000


@dataclass(frozen=True)
class Command:
    """One `sbp` invocation. `records` is the number of trace records it
    consumes; `report` names the output a check reads ("" for none)."""

    argv: tuple
    records: int = 0
    kind: str = ""  # simulate | online | pipeline | hints (set-up select)
    report: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple  # of Command
    timed: tuple  # of Command
    baseline_reports: tuple  # report files whose MPKI is baseline_mpki
    coupled_reports: tuple  # report files whose MPKI is coupled_mpki
    checks: tuple = ()  # (simulate Command, report it must reproduce), run untimed


def derived_seed(seed, role):
    """Distinct generator seed for each trace role of a workload seed."""
    return 10 * seed + role


def correlated_records(m, length):
    return length // (m + 2) * (m + 2)


def _gen_correlated(m, length, seed, out):
    return Command(
        ("gen", "--kind", "correlated", "--m", str(m), "--len", str(length),
         "--seed", str(seed), "-o", out)
    )


def _gen_utilization(instructions, seed, out):
    return Command(
        ("gen", "--kind", "utilization", "--branch-frequency", str(GAPPED_FREQ),
         "--len", str(instructions), "--seed", str(seed), "-o", out)
    )


def _train_and_select(profile, min_occ):
    return (
        Command(("train", "--trace", profile, *HISTORY, "--min-occurrences",
                 str(min_occ), "-o", "models.json")),
        Command(("select", "--models", "models.json", "--trace", profile, *HISTORY,
                 *HINT_FLAGS, "-o", "hints.sbph"), kind="hints", report="hints.sbph"),
    )


def _simulate(trace, records, out, tage=False, hints=""):
    argv = ["simulate", "--trace", trace, *HISTORY]
    if tage:
        argv += ["--baseline", "tage-lite"]
    if hints:
        argv += ["--hints", hints]
    return Command(tuple(argv + ["-o", out]), records, "simulate", out)


def _online(trace, records, targets):
    return Command(
        ("online", "--trace", trace, *HISTORY, "--targets", targets, "-o", "online.json"),
        records, "online", "online.json",
    )


def pipeline(seed):
    corr_n = correlated_records(PIPELINE_CORR_M, PIPELINE_CORR_LEN)
    setup = (
        _gen_correlated(PIPELINE_CORR_M, PIPELINE_CORR_LEN, derived_seed(seed, 1), "corr.sbpt"),
        Command(("gen", "--kind", "loop", "--s", str(PIPELINE_LOOP_PERIOD),
                 "--offset", str(seed % PIPELINE_LOOP_PERIOD),
                 "--len", str(PIPELINE_LOOP_LEN), "-o", "loop.sbpt")),
    )
    timed = (
        Command(("pipeline", "--traces", "corr.sbpt", "loop.sbpt", *HISTORY, *HINT_FLAGS,
                 "--min-occurrences", str(PIPELINE_MIN_OCC), "--out-dir", "out"),
                corr_n + PIPELINE_LOOP_LEN, "pipeline", "out"),
    )
    phases = ("corr", "loop")
    # Untimed: each hint file the pipeline wrote must reproduce its phase's
    # coupled report when simulated on its own.
    checks = tuple(
        (_simulate(f"{p}.sbpt", 0, f"check_{p}.json", hints=f"out/{p}.sbph"),
         f"out/{p}.coupled.json")
        for p in phases
    )
    return Workload(
        "pipeline", setup, timed,
        baseline_reports=tuple(f"out/{p}.baseline.json" for p in phases),
        coupled_reports=tuple(f"out/{p}.coupled.json" for p in phases),
        checks=checks,
    )


def replay(seed):
    n = correlated_records(REPLAY_M, REPLAY_EVAL_LEN)
    setup = (
        _gen_correlated(REPLAY_M, REPLAY_PROFILE_LEN, derived_seed(seed, 2), "profile.sbpt"),
        *_train_and_select("profile.sbpt", REPLAY_MIN_OCC),
        _gen_correlated(REPLAY_M, REPLAY_EVAL_LEN, derived_seed(seed, 3), "eval.sbpt"),
    )
    timed = (
        _simulate("eval.sbpt", n, "gshare.json"),
        _simulate("eval.sbpt", n, "gshare_slbiu.json", hints="hints.sbph"),
        _simulate("eval.sbpt", n, "tage_lite.json", tage=True),
        _simulate("eval.sbpt", n, "tage_lite_slbiu.json", tage=True, hints="hints.sbph"),
        _online("eval.sbpt", n, hex(PC_B)),
    )
    return Workload("replay", setup, timed, ("gshare.json",), ("gshare_slbiu.json",))


def gapped(seed):
    n = round(GAPPED_EVAL_INSTR * GAPPED_FREQ)
    setup = (
        _gen_utilization(GAPPED_PROFILE_INSTR, derived_seed(seed, 4), "profile.sbpt"),
        *_train_and_select("profile.sbpt", GAPPED_MIN_OCC),
        _gen_utilization(GAPPED_EVAL_INSTR, derived_seed(seed, 5), "eval.sbpt"),
    )
    timed = (
        _simulate("eval.sbpt", n, "gshare.json"),
        _simulate("eval.sbpt", n, "gshare_slbiu.json", hints="hints.sbph"),
        _simulate("eval.sbpt", n, "tage_lite.json", tage=True),
        _online("eval.sbpt", n, "all"),
    )
    return Workload("gapped", setup, timed, ("gshare.json",), ("gshare_slbiu.json",))


WORKLOADS = {"pipeline": pipeline, "replay": replay, "gapped": gapped}


def branch_class(pc):
    """Class of a synthetic branch PC: separable, fair_coin, loop, or other."""
    if pc == PC_B:
        return "separable"
    if pc == PC_LOOP:
        return "loop"
    if pc == PC_A or (PC_NOISE_BASE <= pc < PC_B and (pc - PC_NOISE_BASE) % 8 == 0):
        return "fair_coin"
    if pc >= PC_UTIL_BASE and (pc - PC_UTIL_BASE) % 16 == 0:
        return "fair_coin"
    return "other"
