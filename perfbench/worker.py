"""One benchmark phase of one workload, in a fresh single-threaded process.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC.json (written by run.py) holds: root (the checkout), workdir, workload,
seed, mode and the mode's settings. Modes:

  setup    run the set-up commands at least `repeats` times and until
           `seconds` have passed (at most `max_repeats`), timing each
  measure  run rounds of the timed commands until `seconds` have passed
  check    re-simulate each hint file the workload wrote (untimed)
  trace    run set-up and one round of timed commands, traced if `traced`

Every command is one call of `sbp.cli.dispatch` in this process. RESULT.json
gets one entry per command (exit code, host seconds, records consumed, and a
signature of its simulated output) plus the mode's own figures.
"""

import ctypes
import glob
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

_decode_hintset = None  # sbp.hints.decode_hintset, bound in main()

# BLAS is fixed at one thread before numpy loads, so that a second BLAS thread
# neither contends for a core nor changes the order of floating-point sums.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _load(path):
    with open(path) as f:
        return json.load(f)


def report_signature(path):
    r = _load(path)
    return {
        "mispredictions": r["mispredictions"],
        "total_instructions": r["total_instructions"],
        "slbiu_hits": sum(b["slbiu_hits"] for b in r["per_branch"].values()),
        "per_branch_mispredictions": {pc: b["mispredictions"] for pc, b in r["per_branch"].items()},
    }


def hints_signature(path):
    hs = _decode_hintset(path)
    return {"chosen": [hs.config.n, hs.config.nnz], "hint_pcs": [h.pc for h in hs.hints]}


def online_signature(path):
    return {pc: r["mispredictions"] for pc, r in _load(path).items()}


def pipeline_signature(out_dir):
    out = Path(out_dir)
    sig = {}
    for phase in _load(out / "summary.json"):
        name = phase["phase_id"]
        sig[name] = {
            "chosen": [phase["chosen_n"], phase["chosen_nnz"]],
            "hint_pcs": hints_signature(out / f"{name}.sbph")["hint_pcs"],
            "baseline": report_signature(out / f"{name}.baseline.json"),
            "coupled": report_signature(out / f"{name}.coupled.json"),
        }
    return sig


SIGNATURES = {
    "simulate": report_signature,
    "online": online_signature,
    "pipeline": pipeline_signature,
    "hints": hints_signature,
}


def signature(kind, path):
    """Simulated statistics of an output of the given kind (None: no output)."""
    if not kind:
        return None
    try:
        return SIGNATURES[kind](path)
    except (OSError, ValueError, KeyError) as e:
        return {"error": f"{type(e).__name__}: {e}"}


def mpki(paths):
    """Instruction-weighted MPKI over report files."""
    reports = [_load(p) for p in paths]
    return 1000.0 * sum(r["mispredictions"] for r in reports) / sum(
        r["total_instructions"] for r in reports
    )


def run_command(cli, cmd):
    """Dispatch one command; returns (exit code, host seconds)."""
    t0 = time.perf_counter()
    try:
        rc = cli.dispatch(list(cmd.argv))
    except SystemExit as e:  # argparse rejects the arguments
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:  # the benchmark records the failure and goes on
        traceback.print_exc()
        rc = -1
    return rc, time.perf_counter() - t0


def _op(phase, rnd, index, cmd, rc, seconds):
    return {"phase": phase, "round": rnd, "index": index, "argv": list(cmd.argv),
            "rc": rc, "seconds": seconds, "records": cmd.records}


def run_commands(cli, commands, phase, rnd):
    ops = [_op(phase, rnd, i, cmd, *run_command(cli, cmd)) for i, cmd in enumerate(commands)]
    for op, cmd in zip(ops, commands):  # outside the timed region
        op["signature"] = signature(cmd.kind, cmd.report)
    return ops


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy bundles, if found."""
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(spec_path, result_path):
    spec = _load(spec_path)
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from sbp import cli, hints

    global _decode_hintset
    _decode_hintset = hints.decode_hintset  # bound before tracing wraps it

    wl = workloads.WORKLOADS[spec["workload"]](spec["seed"])
    os.chdir(spec["workdir"])
    mode = spec["mode"]
    result = {"ops": [], "env": environment()}
    if mode == "setup":
        result["setup_s"] = []
        start = time.perf_counter()
        while len(result["setup_s"]) < spec["max_repeats"] and (
            len(result["setup_s"]) < spec["repeats"] or time.perf_counter() - start < spec["seconds"]
        ):
            ops = run_commands(cli, wl.setup, "setup", len(result["setup_s"]))
            result["ops"] += ops
            result["setup_s"].append(sum(op["seconds"] for op in ops))
    elif mode == "measure":
        result["rounds"] = []
        start = time.perf_counter()
        while True:
            ops = run_commands(cli, wl.timed, "timed", len(result["rounds"]))
            result["ops"] += ops
            result["rounds"].append({
                "seconds": sum(op["seconds"] for op in ops),
                "records": sum(op["records"] for op in ops),
                "baseline_mpki": mpki(wl.baseline_reports),
                "coupled_mpki": mpki(wl.coupled_reports),
            })
            if time.perf_counter() - start >= spec["seconds"]:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif mode == "check":
        result["ops"] = run_commands(cli, [cmd for cmd, _ in wl.checks], "check", 0)
        for op, (_, coupled) in zip(result["ops"], wl.checks):
            op["expected"] = signature("simulate", coupled)
    elif mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        if spec["traced"]:
            tracing.install(tracer)
        result["ops"] = run_commands(cli, wl.setup, "setup", 0)
        tracer.phase = "timed"
        result["ops"] += run_commands(cli, wl.timed, "timed", 0)
        result["wall_s"] = sum(op["seconds"] for op in result["ops"])
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
