import random

import numpy as np
import pytest
from hypothesis import settings

# Tier-1 runs the same examples every time: fixed generation, no example
# database. Each test keeps its own max_examples.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def pytest_configure(config):
    # verdict lines recorded by the acceptance tests, echoed after the run so
    # they survive pytest's output capture
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture
def check(request):
    """Acceptance verdict helper: records one PASS/FAIL line, then asserts."""

    def _check(num, ok, detail):
        status = "PASS" if ok else "FAIL"
        line = f"acceptance criterion {num:2d}: {status} ({detail})"
        request.config._acceptance_lines.append(line)
        print(line)
        assert ok, f"criterion {num}: {detail}"

    return _check

from sbp.hints import Q3_4, HintSet, SlbiuConfig, SparsityHint, encode_hintset
from sbp.trace_io import SyntheticScenario, Trace, gen_correlated, gen_loop


@pytest.fixture
def correlated_trace():
    """20k-record correlated trace: B repeats A's outcome one block later."""
    return gen_correlated(
        SyntheticScenario(kind="correlated", length=20_000, seed=11, noise_branches=2)
    )


@pytest.fixture
def loop_trace():
    """4k-record loop trace, period 7: its history columns repeat every 7."""
    return gen_loop(SyntheticScenario(kind="loop", length=4_000, loop_period=7, loop_offset=1))


def random_trace(n, n_pcs=4, seed=0):
    rng = random.Random(seed)
    pcs = [0x400000 + 4 * i for i in range(n_pcs)]
    picks = [(rng.choice(pcs), rng.random() < 0.5) for _ in range(n)]
    return Trace([pc for pc, _ in picks], [taken for _, taken in picks], phase_id=f"rand_{seed}")


def gather_from(x):
    """A `TrainingDataset` gatherer whose rows are those of the matrix `x`."""
    return lambda out: np.copyto(out, x)


def int8_rows(ds):
    """A fresh gathered copy of a `TrainingDataset`'s (m, l) rows, as int8."""
    return ds.fill(np.empty((ds.m, ds.config.l), dtype=np.int8))


def write_out_of_range_hint(path):
    """A hint file whose one entry index (7) is outside [0, lh + gh) = [0, 6)
    but fits the 3-bit index field."""
    hs = HintSet("", SlbiuConfig(lh=2, gh=4, n=1, nnz=1, q=8),
                 [SparsityHint(0x42, 0.0, [(5, 1.0)], Q3_4)])
    hs.hints[0].entries = [(7, 1.0)]  # past the check, as a corrupt file would be
    encode_hintset(hs, path)
