"""sbp benchmark: run one workload from a seed and print its metrics.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload pipeline|replay|gapped|all
                           [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --workload W --seed N --write-reference

With --trace 0 the run prints the end-to-end metrics: records/s of the timed
commands, peak RSS of the process that ran them, set-up time, and the
instruction-weighted MPKI of gshare alone and with hints. With --trace 1 it
prints per-layer metrics from traced runs, checks span coverage, and checks
that two traced runs give identical counters. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Each phase runs in a fresh single-threaded child process (worker.py). Work
files go to .perfbench_work/ in the checkout and are removed at the end; a
copy of each result, with the environment it ran in, stays in
.perfbench_work/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3  # at least; more until SETUP_SECONDS have passed
SETUP_SECONDS = 3.0
MAX_SETUP_REPEATS = 15
MIN_TRACED_RUNS = 2
RUN_BUDGET_S = 170.0  # per workload, all child processes included

END_TO_END_UNITS = {
    "records_per_s": "records/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "baseline_mpki": "MPKI",
    "coupled_mpki": "MPKI",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Run:
    """Child processes of one workload run, sharing a deadline and a work dir."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def child(self, mode, subdir="", **settings):
        cwd = self.workdir / subdir
        cwd.mkdir(parents=True, exist_ok=True)
        spec = cwd / f"{mode}.spec.json"
        result = cwd / f"{mode}.result.json"
        log = cwd / f"{mode}.log"
        spec.write_text(json.dumps({
            "root": str(ROOT), "workdir": str(cwd), "workload": self.workload,
            "seed": self.seed, "mode": mode, **settings,
        }))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"{self.workload}: out of time before the {mode} phase")
        with open(log, "w") as out:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(spec), str(result)],
                    cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT, timeout=remaining,
                )
            except subprocess.TimeoutExpired as e:
                raise BenchError(f"{self.workload}: {mode} phase timed out") from e
        if proc.returncode != 0:
            tail = log.read_text()[-2000:]
            raise BenchError(f"{self.workload}: {mode} worker exited {proc.returncode}\n{tail}")
        return json.loads(result.read_text())


def load_reference(seed, workload):
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(str(seed), {}).get(workload)


def failed_ops(ops, reference):
    """Operations that failed, with the reason. A command fails on a non-zero
    exit, on an output that differs from the recorded reference, from its own
    first run in this benchmark run, or (check phase) from the report it must
    reproduce."""
    first = {}
    failures = []
    for op in ops:
        key = (op["phase"], op["index"])
        sig = op["signature"]
        first.setdefault(key, sig)
        reason = None
        if op["rc"] != 0:
            reason = f"exit code {op['rc']}"
        elif isinstance(sig, dict) and "error" in sig:
            reason = f"unreadable output: {sig['error']}"
        elif sig != first[key]:
            reason = "output differs from the first run of the same command"
        elif "expected" in op and sig != op["expected"]:
            reason = "hint file does not reproduce the pipeline's coupled report"
        elif reference and op["phase"] in reference and sig != reference[op["phase"]][op["index"]]:
            reason = "output differs from the reference"
        if reason:
            failures.append((" ".join(op["argv"]), reason))
    return failures


def measure(run, seconds):
    """Set-up (timed on its own), rounds of timed commands, then output checks."""
    setup = run.child("setup", repeats=SETUP_REPEATS, seconds=SETUP_SECONDS,
                      max_repeats=MAX_SETUP_REPEATS)
    timed = run.child("measure", seconds=seconds)
    wl = workloads.WORKLOADS[run.workload](run.seed)
    check = run.child("check") if wl.checks else {"ops": []}
    rounds = timed["rounds"]
    metrics = {
        "records_per_s": statistics.median(r["records"] / r["seconds"] for r in rounds),
        "peak_rss_mb": timed["peak_rss_mb"],
        "setup_s": statistics.median(setup["setup_s"]),
        "baseline_mpki": rounds[-1]["baseline_mpki"],
        "coupled_mpki": rounds[-1]["coupled_mpki"],
    }
    ops = setup["ops"] + timed["ops"] + check["ops"]
    detail = {"rounds": rounds, "setup_s": setup["setup_s"]}
    return metrics, ops, [], timed["env"], detail


def trace(run, seconds):
    """Traced runs of set-up plus timed commands, with one untraced run
    between the first two so that drift in host speed hits both sides alike.

    Per-layer metrics are medians over the traced runs (counts are equal in
    all of them). The self-test fails when the traced runs disagree on any
    counter, and the coverage check fails when a traced run leaves more than
    COVERAGE_TOLERANCE of its wall time outside every span.
    """
    traced = [run.child("trace", "traced0", traced=True)]
    untraced = run.child("trace", "untraced", traced=False)
    start = time.monotonic()
    while len(traced) < MIN_TRACED_RUNS or time.monotonic() - start < seconds:
        t0 = time.monotonic()
        traced.append(run.child("trace", f"traced{len(traced)}", traced=True))
        if run.deadline - time.monotonic() < 2 * (time.monotonic() - t0):
            break
    errors = []
    if any(t["counts"] != traced[0]["counts"] for t in traced):
        errors.append("self-test: traced runs gave different counters")
    per_run = [tracing.aggregate(t["spans"], t["counts"], untraced["wall_s"]) for t in traced]
    for m in per_run:
        if m["trace.uncovered_share"] > tracing.COVERAGE_TOLERANCE:
            errors.append(
                f"span coverage: {m['trace.uncovered_share']:.2%} of traced wall time is in no "
                f"span (tolerance {tracing.COVERAGE_TOLERANCE:.0%})"
            )
    metrics = {
        name: value if tracing.unit(name) == "count" else statistics.median(m[name] for m in per_run)
        for name, value in per_run[0].items()
    }
    ops = untraced["ops"] + [op for t in traced for op in t["ops"]]
    detail = {"traced_runs": len(traced), "counts": traced[0]["counts"]}
    return metrics, ops, errors, untraced["env"], detail


def environment():
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this host
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sbp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }


def run_workload(workload, seed, seconds, traced):
    workdir = WORK / f"{workload}-s{seed}-t{int(traced)}-{os.getpid()}"
    env = environment()
    run = Run(workload, seed, workdir)
    try:
        metrics, ops, errors, child_env, detail = (trace if traced else measure)(run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env.update(child_env)
    failures = failed_ops(ops, load_reference(seed, workload))
    for argv, reason in failures:
        print(f"perfbench: {workload}: FAILED `sbp {argv}`: {reason}", file=sys.stderr)
    for err in errors:
        print(f"perfbench: {workload}: {err}", file=sys.stderr)
    units = {n: tracing.unit(n) for n in metrics} if traced else END_TO_END_UNITS
    result = {
        "correct": not failures and not errors,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-s{seed}-t{int(traced)}-{int(time.time())}.json").write_text(
        json.dumps({"env": env, "result": result, "detail": detail, "errors": errors},
                   indent=1, sort_keys=True)
    )
    print(f"perfbench env {workload}: {json.dumps(env, sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"{workload:9s} {name:48s} {m['value']:>16.6g} {m['unit']}")
    return result


def write_reference(workload, seed):
    """Record the simulated outputs of one set-up, one round and the checks
    as the reference that later runs on this seed must reproduce."""
    workdir = WORK / f"reference-{workload}-s{seed}-{os.getpid()}"
    run = Run(workload, seed, workdir)
    try:
        ops = run.child("setup", repeats=1, seconds=0, max_repeats=1)["ops"]
        ops += run.child("measure", seconds=0)["ops"]
        if workloads.WORKLOADS[workload](seed).checks:
            ops += run.child("check")["ops"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = failed_ops(ops, None)
    if failures:
        raise BenchError(f"{workload}: not recording a reference from failing commands: {failures}")
    entry = {}
    for op in ops:
        entry.setdefault(op["phase"], []).append(op["signature"])
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data.setdefault(str(seed), {})[workload] = entry
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"perfbench: recorded reference for {workload} seed {seed}")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"workload seed (default {workloads.DEFAULT_SEED}; "
                        f"held-out seed {workloads.HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this seed's outputs in reference.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sbp" / "cli.py").is_file():
        print(f"perfbench: no sbp sources under {ROOT / 'src'}; run from an sbp checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.write_reference:
            for name in names:
                write_reference(name, args.seed)
            return 0
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
