import random
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbp.errors import ConfigError, TraceFormatError, TraceTruncatedError
from sbp.trace_io import (
    PC_A,
    PC_B,
    PC_LOOP,
    SyntheticScenario,
    Trace,
    gen_correlated,
    gen_loop,
    gen_utilization,
    generate,
    read_trace,
    write_trace,
)
from tests.reference_trace import (
    masked_write_trace,
    records_of,
    reference_gen_correlated,
    reference_read,
    reference_write,
)


def same_columns(a, b):
    return all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a.pc, b.pc), (a.taken, b.taken), (a.gap, b.gap))
    )


def test_round_trip_identity(tmp_path):
    rng = random.Random(5)
    records = []
    for _ in range(500):
        gap = rng.choice([0, 1, 7, 254, 255, 256, 1_000_000])
        records.append((rng.getrandbits(64), rng.random() < 0.5, gap))
    trace = Trace(*zip(*records), phase_id="orig")
    path = tmp_path / "rt.sbpt"
    write_trace(trace, path)
    back = read_trace(path)
    assert records_of(back) == records
    assert back.phase_id == "rt"  # phase id comes from the file name
    assert back.total_instructions == trace.total_instructions


def test_columns_and_defaults():
    trace = Trace([1, 2**64 - 1], [True, False])
    assert (trace.pc.dtype, trace.taken.dtype, trace.gap.dtype) == (
        np.uint64, np.bool_, np.uint32)
    assert trace.gap.tolist() == [0, 0]  # no gap column: back-to-back branches
    assert len(trace) == 2 and trace.total_instructions == 2
    assert trace.pc_ids()[0] == [1, 2**64 - 1]
    assert trace.pc_ids()[1].tolist() == [0, 1]
    pcs, ids = Trace([7, 3, 7, 3, 9], [True] * 5).pc_ids()
    assert pcs == [3, 7, 9] and ids.dtype == np.int32 and ids.tolist() == [1, 0, 1, 0, 2]
    assert Trace([], []).pc_ids()[0] == []


@pytest.mark.parametrize("gap", [-1, 2**32, 10**10, 2**70])
def test_gap_outside_u32_rejected(gap):
    with pytest.raises(ValueError, match="u32"):
        Trace([1, 2], [True, False], [0, gap])


def test_file_size_accounting(tmp_path):
    trace = Trace([1, 2, 3], [True, False, True], [3, 255, 70_000])  # 2 escaped gaps
    path = tmp_path / "t.sbpt"
    write_trace(trace, path)
    # 16-byte header, 10 bytes per record, 4 extra per escaped gap.
    assert path.stat().st_size == 16 + 10 * 3 + 4 * 2


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.sbpt"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "v.sbpt"
    path.write_bytes(struct.pack("<4sHHQ", b"SBPT", 99, 0, 0))
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_truncated_record_rejected(tmp_path):
    path = tmp_path / "trunc.sbpt"
    write_trace(Trace([1, 2], [True, False]), path)
    data = path.read_bytes()
    path.write_bytes(data[:-3])  # cut into the last record
    with pytest.raises(TraceTruncatedError) as exc:
        read_trace(path)
    assert exc.value.offset == 26


def test_header_total_mismatch_rejected(tmp_path):
    path = tmp_path / "mis.sbpt"
    write_trace(Trace([1], [True], [5]), path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<Q", data, 8, 999)
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_generator_determinism():
    for scenario in (
        SyntheticScenario(kind="correlated", length=5000, seed=3, noise_branches=3),
        SyntheticScenario(kind="loop", length=1000, loop_period=4),
        SyntheticScenario(kind="utilization", length=5000, seed=3,
                          branch_frequency=0.3, offload_ratio=0.5),
    ):
        a = generate(scenario)
        b = generate(scenario)
        if scenario.kind == "utilization":
            assert same_columns(a[0], b[0]) and a[1] == b[1]
        else:
            assert same_columns(a, b)


def test_correlated_structure():
    scenario = SyntheticScenario(kind="correlated", length=10_000, seed=1,
                                 noise_branches=3, correlation_distance=2)
    trace = gen_correlated(scenario)
    block = 5
    assert len(trace) == (10_000 // block) * block
    a_outcomes = trace.taken[trace.pc == PC_A].tolist()
    b_outcomes = trace.taken[trace.pc == PC_B].tolist()
    # B(t) replays A(t - k) once k blocks have passed.
    for t in range(2, len(b_outcomes)):
        assert b_outcomes[t] == a_outcomes[t - 2]


@pytest.mark.parametrize("m", [0, 1, 4, 8])
@pytest.mark.parametrize("k", [1, 2, 5, 40])
def test_correlated_equals_one_draw_per_coin(m, k):
    # the same Mersenne Twister words, read as columns: whole traces equal the
    # one-random()-per-coin generator, including cut blocks and k >= blocks
    for length in (m + 2, 11, 97, 1000, 42_001):
        for seed in (0, 11, 2**40 + 3):
            scenario = SyntheticScenario(kind="correlated", length=max(length, m + 2),
                                         seed=seed, noise_branches=m, correlation_distance=k)
            got, want = gen_correlated(scenario), reference_gen_correlated(scenario)
            assert same_columns(got, want) and got.phase_id == want.phase_id


def test_loop_pattern():
    trace = gen_loop(SyntheticScenario(kind="loop", length=20, loop_period=4, loop_offset=1))
    assert np.all(trace.pc == PC_LOOP)
    taken = trace.taken.tolist()
    assert taken[:8] == [True, True, False, True, True, True, False, True]


def test_utilization_accounting():
    scenario = SyntheticScenario(kind="utilization", length=50_000, seed=9,
                                 branch_frequency=0.2, offload_ratio=0.5)
    trace, offloaded = gen_utilization(scenario)
    assert len(trace) == 10_000
    assert trace.total_instructions == 50_000
    pool = set(trace.pc.tolist())
    assert len(offloaded) == 10
    assert set(offloaded) <= pool


def test_scenario_validation():
    with pytest.raises(ValueError):
        SyntheticScenario(kind="nope", length=10)
    with pytest.raises(ValueError):
        SyntheticScenario(kind="loop", length=10, loop_period=1)
    with pytest.raises(ValueError):
        SyntheticScenario(kind="correlated", length=10, correlation_distance=0)
    with pytest.raises(ValueError):
        SyntheticScenario(kind="utilization", length=10, branch_frequency=1.5)
    with pytest.raises(ConfigError, match="noise_branches"):
        SyntheticScenario(kind="correlated", length=10, noise_branches=-1)


def test_empty_utilization_trace():
    trace, offloaded = gen_utilization(
        SyntheticScenario(kind="utilization", length=10, seed=4, branch_frequency=0.01))
    assert len(trace) == 0 and offloaded == [] and trace.phase_id == "util_s4"


RECORDS = st.lists(
    st.tuples(
        st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**64 - 1]),
        st.booleans(),
        st.sampled_from([0, 254, 255, 256, 2**32 - 1]) | st.integers(0, 2**32 - 1),
    ),
    max_size=40,
)


def read_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.sbpt"
        path.write_bytes(data)
        return read_trace(path)


@settings(max_examples=200, deadline=None)
@given(RECORDS)
def test_write_read_round_trip_matches_per_record_format(records):
    """Columns written and read back are the records, in the bytes of the
    per-record writer, with file size 16 + 10 n + 4 escapes; covers the
    empty trace, PCs up to 2^64 - 1 and gaps at the escape boundary."""
    trace = Trace([r[0] for r in records], [r[1] for r in records],
                  [r[2] for r in records])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.sbpt"
        write_trace(trace, path)
        data = path.read_bytes()
    escapes = sum(gap >= 255 for _pc, _taken, gap in records)
    assert len(data) == 16 + 10 * len(records) + 4 * escapes
    assert data == reference_write(records)
    back = read_bytes(data)
    assert same_columns(back, trace)
    assert records_of(back) == reference_read(data) == records
    assert back.total_instructions == trace.total_instructions


@settings(max_examples=50, deadline=None)
@given(RECORDS.filter(bool))
def test_every_truncation_matches_per_record_reader(records):
    """Every cut inside a record raises TraceTruncatedError at the per-record
    reader's offset; a cut between records fails the header total."""
    data = reference_write(records)
    for cut in range(16, len(data)):
        with pytest.raises(TraceFormatError) as ref:
            reference_read(data[:cut])
        with pytest.raises(TraceFormatError) as got:
            read_bytes(data[:cut])
        assert type(got.value) is type(ref.value)
        if isinstance(ref.value, TraceTruncatedError):
            assert got.value.offset == ref.value.offset


def test_reader_takes_direction_from_flag_bit_0(tmp_path):
    data = bytearray(reference_write([(1, False, 0), (2, True, 300)]))
    data[16 + 8] = 0xFE  # other flag bits are reserved: not taken
    data[26 + 8] = 0x03
    assert records_of(read_bytes(bytes(data))) == reference_read(bytes(data)) == [
        (1, False, 0), (2, True, 300)]


@st.composite
def alternating_runs(draw, longest):
    """Records in runs that alternate between escaped gaps and plain ones:
    the scan's hardest layout."""
    lengths = draw(st.lists(st.integers(1, longest), min_size=1, max_size=12))
    escaped = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    records = []
    for n in lengths:
        for _ in range(n):
            gap = rng.choice([255, 256, 2**32 - 1]) if escaped else rng.choice([0, 7, 254])
            records.append((rng.choice([0, 255, 2**64 - 1, rng.getrandbits(64)]),
                            rng.random() < 0.5, gap))
        escaped = not escaped
    return records


@settings(max_examples=100, deadline=None)
@given(alternating_runs(longest=40))
def test_alternating_escape_runs_match_per_record_reader(records):
    data = reference_write(records)
    assert records_of(read_bytes(data)) == reference_read(data) == records


@settings(max_examples=25, deadline=None)
@given(alternating_runs(longest=5))
def test_every_truncation_of_alternating_runs_matches_per_record_reader(records):
    data = reference_write(records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.sbpt"
        for cut in range(16, len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(TraceFormatError) as ref:
                reference_read(data[:cut])
            with pytest.raises(TraceFormatError) as got:
                read_trace(path)
            assert type(got.value) is type(ref.value)
            if isinstance(ref.value, TraceTruncatedError):
                assert got.value.offset == ref.value.offset


def test_long_runs_and_blocks_match_per_record_reader(tmp_path):
    # runs longer than a scan window and traces longer than a gather block
    rng = random.Random(14)
    records = []
    for n, share in [(20_000, 0.0), (9_000, 1.0), (3, 0.0), (12_000, 0.01), (10_000, 0.5)]:
        records += [(rng.getrandbits(64), rng.random() < 0.5,
                     rng.randrange(255, 2**32) if rng.random() < share else rng.randrange(255))
                    for _ in range(n)]
    path = tmp_path / "long.sbpt"
    path.write_bytes(reference_write(records))
    assert records_of(read_trace(path)) == records


@st.composite
def gap_layouts(draw):
    """Traces of 0 to 60 records whose gaps are all plain, mixed, all
    escaped, or alternate between the two on every record."""
    n = draw(st.sampled_from([0, 1]) | st.integers(0, 60))
    layout = draw(st.sampled_from(["plain", "mixed", "escaped", "alternating"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = draw(st.integers(0, 1))
    escaped = {"plain": np.zeros(n, bool), "mixed": rng.random(n) < 0.3,
               "escaped": np.ones(n, bool), "alternating": np.arange(n) % 2 == start}[layout]
    gap = np.where(escaped, rng.integers(255, 2**32, n), rng.integers(0, 255, n))
    return Trace(rng.integers(0, 2**64, n, dtype=np.uint64), rng.random(n) < 0.5, gap)


@settings(max_examples=200, deadline=None)
@given(gap_layouts())
def test_writer_equals_masked_columnar_writer(trace):
    """`write_trace` places each field at its record's offset; the earlier
    writer masked the whole body instead. Same bytes, and the file reads back
    as the trace."""
    with tempfile.TemporaryDirectory() as tmp:
        path, oracle = Path(tmp) / "t.sbpt", Path(tmp) / "o.sbpt"
        write_trace(trace, path)
        masked_write_trace(trace, oracle)
        assert path.read_bytes() == oracle.read_bytes()
        assert same_columns(read_trace(path), trace)
