"""The benchmark's tracer (perfbench/tracing.py) wraps sbp's functions by name
and reads some of their arguments by position. A renamed or re-ordered
function must fail here, not only when the benchmark runs."""

import json
import os
import subprocess
import sys
from inspect import signature
from pathlib import Path

from sbp import hints, simulator, trace_io
from sbp.cli import dispatch

ROOT = Path(__file__).resolve().parent.parent

# argv: the `sbp` arguments; prints the tracer's counters as JSON
TRACED_SBP = """
import collections, json, sys
import tracing
from sbp import cli
tracer = tracing.Tracer()
tracing.install(tracer)
rc = cli.dispatch(sys.argv[1:])
calls = collections.Counter(span[tracing.NAME] for span in tracer.spans)
print(json.dumps({"rc": rc, "counts": tracer.counts, "calls": calls}))
"""


def test_traced_pipeline_counts_fits_dedups_models_and_datasets(tmp_path):
    trace = tmp_path / "corr.sbpt"
    assert dispatch(["gen", "--kind", "correlated", "--m", "2", "--len", "8000",
                     "--seed", "3", "-o", str(trace)]) == 0
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    argv = ["pipeline", "--traces", str(trace), "--gh", "16", "--lh", "4", "--budget-kb", "1",
            "--min-occurrences", "1000", "--out-dir", str(tmp_path / "out")]
    # a process of its own: `install` rebinds sbp's functions for good
    proc = subprocess.run([sys.executable, "-c", TRACED_SBP, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0, proc.stderr
    counts = result["counts"]
    for key in ("fit_calls", "dedup_calls", "models", "datasets"):
        assert counts.get(key, 0) > 0, key
    # training and scoring share one collection of the trace's datasets
    assert result["calls"]["collect_datasets"] == 1


def test_hooks_find_their_arguments_where_they_read_them():
    # _on_read reads args[0], _on_run args[0:3], the select hook args[2] and
    # _on_dedup args[1] (the input model, to count accepted refits)
    assert list(signature(trace_io.read_trace).parameters)[0] == "path"
    assert list(signature(simulator.run).parameters)[:3] == ["trace", "config", "hintset"]
    assert list(signature(hints.select).parameters)[2] == "budget_bits"
    assert list(signature(hints.dedup).parameters)[1] == "lasso_model"
