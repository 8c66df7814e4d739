import random
import struct
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbp.errors import ConfigError, HintFormatError
from sbp.history import HistoryConfig, TrainingDataset, collect_datasets
from sbp.hints import (
    FP32_WIDTH,
    Q3_4,
    Q3_12,
    U16_MAX,
    HintSet,
    QuantSpec,
    ScoredCandidate,
    SlbiuConfig,
    SparsityHint,
    decode_hintset,
    dedup,
    empty_hintset,
    encode_hintset,
    hint_from_model,
    index_bits,
    quantize,
    quantize_value,
    score,
    select,
    storage_bits,
)
from sbp.sparse_modeling import SolverConfig, SparseModel, fit, lambda_search, predictions
from sbp.trace_io import PC_LOOP, SyntheticScenario, gen_loop
from tests import reference_hints
from tests.conftest import gather_from, int8_rows, write_out_of_range_hint


def test_quant_spec_parse():
    assert QuantSpec.parse("3.4") == Q3_4
    assert QuantSpec.parse("q3.12") == Q3_12
    assert QuantSpec.parse("fp32") is None
    assert Q3_4.q == 8 and Q3_12.q == 16
    assert Q3_4.max_value == 7.9375
    assert Q3_4.min_value == -8.0


@pytest.mark.parametrize("text", ["2.5", "4.4", "3.5", "3", "fp16", ""])
def test_quant_spec_parse_rejects_unsupported(text):
    # the hint file stores only the weight width: Q2.5 would read back as Q3.4
    with pytest.raises(ConfigError):
        QuantSpec.parse(text)


def test_quantize_value_examples():
    assert quantize_value(0.40, Q3_4) == 0.375
    assert quantize_value(0.03, Q3_4) == 0.0
    assert quantize_value(100.0, Q3_4) == 7.9375  # saturates high
    assert quantize_value(-100.0, Q3_4) == -8.0  # saturates low
    assert quantize_value(0.03125, Q3_4) == 0.0625  # tie rounds away from zero
    assert quantize_value(-0.03125, Q3_4) == -0.0625
    assert quantize_value(1e308, Q3_4) == 7.9375  # 1e308 * 16 is inf: no int to round to
    assert quantize_value(-1e308, Q3_4) == -8.0


def test_quantize_value_fp32_is_the_nearest_float32():
    # fp32 hints hold float32 weights, so candidates are scored on those
    rng = random.Random(3)
    for v in [0.1, -3.0, 1e-50, 3.4e38] + [rng.uniform(-10, 10) for _ in range(1000)]:
        assert quantize_value(v, None) == float(np.float32(v))
    with pytest.raises(ValueError, match="beyond the float32 range"):
        quantize_value(1e39, None)


def test_quantize_error_bound():
    rng = random.Random(1)
    for spec in (Q3_4, Q3_12):
        half_step = 2.0 ** -(spec.fraction_bits + 1)
        for _ in range(2000):
            v = rng.uniform(spec.min_value, spec.max_value)
            assert abs(quantize_value(v, spec) - v) <= half_step


def test_quantize_drops_zeroed_weights():
    model = SparseModel(pc=1, bias=0.2, weights={0: 0.02, 3: 1.3}, lam=0.1,
                        accuracy=0.9, m=10)
    q = quantize(model, Q3_4)
    assert set(q.weights) == {3}
    assert q.weights[3] == 1.3125
    assert q.bias == 0.1875


def test_index_bits():
    assert index_bits(0, 1) == 0
    assert index_bits(0, 2) == 1
    assert index_bits(1, 2) == 2
    assert index_bits(512, 512) == 10
    assert index_bits(16, 64) == 7


def test_storage_bits_examples():
    assert storage_bits(SlbiuConfig(lh=512, gh=512, n=13, nnz=36, q=8)) == 16_016
    assert storage_bits(SlbiuConfig(lh=512, gh=512, n=2, nnz=34, q=32)) == 4_072


def test_dedup_collapses_duplicate_columns():
    trace = gen_loop(SyntheticScenario(kind="loop", length=4000, loop_period=3))
    ds = collect_datasets(trace, HistoryConfig(gh=6, lh=6))[PC_LOOP]
    cfg = SolverConfig()
    lasso = lambda_search(ds, cfg)
    dd = dedup(ds, lasso, cfg)
    assert dd.accuracy >= lasso.accuracy - 0.001
    # period 3: columns j, j+3, j+6, ... are identical; at most one survivor each
    groups = {}
    for j in dd.weights:
        groups.setdefault(int8_rows(ds)[:, j].tobytes(), []).append(j)
    assert all(len(members) == 1 for members in groups.values())


def test_dedup_preserves_elasticnet_predictions():
    trace = gen_loop(SyntheticScenario(kind="loop", length=4000, loop_period=3))
    ds = collect_datasets(trace, HistoryConfig(gh=6, lh=6))[PC_LOOP]
    cfg = SolverConfig()
    lasso = lambda_search(ds, cfg)
    en = fit(ds, lasso.lam, 0.5, cfg)
    dd = dedup(ds, lasso, cfg)
    assert np.array_equal(predictions(dd, ds), predictions(en, ds))


def test_dedup_keeps_insufficient_flag():
    rng = random.Random(0)
    x = np.array([[rng.choice((-1, 1)) for _ in range(8)] for _ in range(2000)], dtype=np.int8)
    y = np.array([rng.random() < 0.5 for _ in range(2000)], dtype=bool)
    ds = TrainingDataset(1, y, HistoryConfig(gh=8, lh=0), gather_from(x))
    cfg = SolverConfig()
    lasso = lambda_search(ds, cfg)
    assert not lasso.sufficient
    dd = dedup(ds, lasso, cfg)
    assert dd is not lasso  # the refit was accepted
    assert not dd.sufficient


def test_score_policies():
    good = ScoredCandidate(
        model=SparseModel(1, 0.0, {0: 1.0}, 0.1, 0.995, 100), offline_correct=995,
        primary_correct=900,
    )
    weak = ScoredCandidate(
        model=SparseModel(2, 0.0, {0: 1.0}, 0.1, 0.80, 100), offline_correct=800,
        primary_correct=750,
    )
    assert score(good, "independent") == 995
    assert score(weak, "independent") is None  # accuracy gate
    assert score(good, "relative") == 95
    assert score(weak, "relative") == 50
    with pytest.raises(ValueError):
        score(good, "bogus")


def _cand(pc, nnz, offline, primary, accuracy=1.0):
    weights = {j: 1.0 for j in range(nnz)}
    return ScoredCandidate(
        model=SparseModel(pc, 0.0, weights, 0.1, accuracy, offline + 10),
        offline_correct=offline,
        primary_correct=primary,
    )


def test_select_drops_non_positive_scores():
    cands = [_cand(1, 1, 500, 500), _cand(2, 1, 400, 450)]
    hs, chosen = select(cands, "relative", 10_000, p=64, q=32, lh=8, gh=16)
    assert chosen == (0, 0)
    assert hs.hints == []


def test_select_respects_budget_and_ranking():
    cands = [_cand(1, 1, 900, 100), _cand(2, 1, 800, 100), _cand(3, 1, 700, 100)]
    per_hint = 64 + 32 + 1 * 32 + 1 * index_bits(8, 16) + 8
    hs, chosen = select(cands, "relative", 2 * per_hint, p=64, q=32, lh=8, gh=16)
    assert chosen == (2, 1)
    assert {h.pc for h in hs.hints} == {1, 2}  # two best scores
    assert storage_bits(hs.config) <= 2 * per_hint


def test_select_nnz_cap_excludes_wide_models():
    # The wide model scores best but forces a per-hint cost that only fits one
    # entry; two narrow hints outscore it.
    cands = [_cand(1, 5, 900, 100), _cand(2, 1, 600, 100), _cand(3, 1, 550, 100)]
    per_narrow = 64 + 32 + 1 * 32 + 1 * index_bits(8, 16) + 8
    hs, chosen = select(cands, "relative", 2 * per_narrow, p=64, q=32, lh=8, gh=16)
    assert chosen == (2, 1)
    assert {h.pc for h in hs.hints} == {2, 3}


def test_hint_validation():
    with pytest.raises(ValueError):
        SparsityHint(1, 0.0, [(3, 1.0), (2, 1.0)])  # not increasing
    with pytest.raises(ValueError):
        SparsityHint(1, 0.0, [(1, 0.0)])  # zero weight
    cfg = SlbiuConfig(lh=4, gh=8, n=1, nnz=2, q=8)
    with pytest.raises(ValueError):
        HintSet("", cfg, [SparsityHint(1, 0.0, [(0, 1.0)]), SparsityHint(2, 0.0, [(0, 1.0)])])
    with pytest.raises(ValueError):
        HintSet("", cfg, [SparsityHint(1, 0.0, [(0, 1.0), (1, 1.0), (2, 1.0)])])


def test_hint_set_rejects_entry_indices_outside_the_history():
    # lh=2, gh=4: index width 3 bits, so an index of 9 would be written as 1
    cfg = SlbiuConfig(lh=2, gh=4, n=1, nnz=2, q=8)
    HintSet("", cfg, [SparsityHint(1, 0.0, [(0, 1.0), (5, 1.0)], Q3_4)])
    for j in (6, 7, 9):
        with pytest.raises(ValueError, match=r"outside \[0, 6\)"):
            HintSet("", cfg, [SparsityHint(1, 0.0, [(0, 1.0), (j, 1.0)], Q3_4)])
    with pytest.raises(ValueError):
        HintSet("", cfg, [SparsityHint(1, 0.0, [(-1, 1.0)], Q3_4)])


def test_decode_rejects_entry_indices_outside_the_history(tmp_path):
    path = tmp_path / "h.sbph"
    write_out_of_range_hint(path)
    with pytest.raises(HintFormatError, match=r"entry index outside \[0, 6\)"):
        decode_hintset(path)


def test_encode_decode_round_trip_q8(tmp_path):
    cfg = SlbiuConfig(lh=8, gh=24, n=3, nnz=2, q=8)
    hints = [
        SparsityHint(0x1000, 0.5, [(2, -1.25), (30, 4.0625)], Q3_4),
        SparsityHint(0x2000, -8.0, [(0, 7.9375)], Q3_4),
    ]
    hs = HintSet("phase_a", cfg, hints)
    path = tmp_path / "h.sbph"
    encode_hintset(hs, path)
    back = decode_hintset(path)
    assert back.phase_id == "phase_a"
    assert back.config == cfg
    assert [(h.pc, h.intercept, h.entries) for h in back.hints] == [
        (h.pc, h.intercept, h.entries) for h in hints
    ]


def test_encode_decode_round_trip_fp32(tmp_path):
    cfg = SlbiuConfig(lh=0, gh=16, n=2, nnz=3, q=32)
    hints = [SparsityHint(0x5555, 0.123, [(1, -2.5), (7, 0.75), (15, 1.0)], None)]
    hs = HintSet("p", cfg, hints)
    path = tmp_path / "h32.sbph"
    encode_hintset(hs, path)
    back = decode_hintset(path)
    h = back.hints[0]
    assert h.pc == 0x5555
    assert h.intercept == pytest.approx(0.123, rel=1e-6)  # float32 rounding
    assert [j for j, _ in h.entries] == [1, 7, 15]
    assert [wv for _, wv in h.entries] == [-2.5, 0.75, 1.0]


def test_payload_is_exactly_storage_bits(tmp_path):
    cfg = SlbiuConfig(lh=8, gh=24, n=4, nnz=2, q=8)
    hs = HintSet("x", cfg, [SparsityHint(9, 1.0, [(3, 2.0)], Q3_4)])
    path = tmp_path / "pad.sbph"
    encode_hintset(hs, path)
    header_len = 4 + 6 + len("x") + 12 + 4
    payload_bytes = path.stat().st_size - header_len
    assert payload_bytes == (storage_bits(cfg) + 7) // 8


def test_decode_rejects_corruption(tmp_path):
    path = tmp_path / "bad.sbph"
    encode_hintset(empty_hintset(4, 8, 8), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(HintFormatError):
        decode_hintset(path)


def test_decode_rejects_every_truncation(tmp_path):
    cfg = SlbiuConfig(lh=4, gh=8, n=2, nnz=1, q=8)
    path = tmp_path / "h.sbph"
    encode_hintset(HintSet("ph", cfg, [SparsityHint(0x40, 0.5, [(3, -1.0)], Q3_4)]), path)
    data = path.read_bytes()
    cut = tmp_path / "cut.sbph"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(HintFormatError):
            decode_hintset(cut)


def test_encode_rejects_oversized_phase_id(tmp_path):
    with pytest.raises(HintFormatError):
        encode_hintset(empty_hintset(4, 8, 8, phase_id="p" * 65536), tmp_path / "h.sbph")


def test_hint_from_model_orders_entries():
    model = SparseModel(3, 0.25, {9: -1.0, 2: 0.5}, 0.1, 1.0, 10)
    h = hint_from_model(model, Q3_4)
    assert h.entries == [(2, 0.5), (9, -1.0)]


def _weights(qspec):
    """Non-zero weights the format stores exactly: fixed-point multiples of
    2^-F in the Q range, or float32 values."""
    if qspec is None:
        return st.floats(width=32, allow_nan=False, allow_infinity=False).filter(bool)
    top = 1 << (qspec.q - 1)
    return st.integers(-top, top - 1).filter(bool).map(lambda raw: raw / (1 << qspec.fraction_bits))


@st.composite
def hint_sets(draw):
    qspec = draw(st.sampled_from([Q3_4, Q3_12, None]))
    q = FP32_WIDTH if qspec is None else qspec.q
    lh, gh = draw(st.integers(0, 8)), draw(st.integers(0, 40))
    cfg = SlbiuConfig(lh=lh, gh=gh, n=draw(st.integers(0, 4)), nnz=draw(st.integers(0, 5)),
                      q=q, p=draw(st.sampled_from([16, 64])))
    pcs = draw(st.lists(st.integers(0, (1 << cfg.p) - 1), max_size=cfg.n, unique=True))
    hints = []
    for pc in pcs:
        # indices up to lh + gh - 1; fewer than nnz entries leave padding in the slot
        idxs = draw(st.lists(st.integers(0, lh + gh - 1), max_size=cfg.nnz, unique=True)
                    if lh + gh else st.just([]))
        entries = [(j, draw(_weights(qspec))) for j in sorted(idxs)]
        intercept = draw(_weights(qspec) | st.just(0.0))
        hints.append(SparsityHint(pc, intercept, entries, qspec))
    phase = draw(st.text(max_size=8))
    return HintSet(phase, cfg, hints)


@settings(max_examples=300, deadline=None)
@given(hint_sets())
@example(empty_hintset(16, 64, 8))
@example(empty_hintset(0, 1, 32, phase_id="fp32"))
@example(HintSet("partial", SlbiuConfig(lh=16, gh=64, n=3, nnz=4, q=16),
                 [SparsityHint(0x40, -8.0, [(0, 0.5), (79, -7.99951171875)], Q3_12)]))
def test_hint_codec_round_trips(hs):
    """decode(encode(hs)) == hs for Q3.4, Q3.12 and fp32 weights, n = 0,
    empty CAM slots, hints below the nnz cap and indices up to lh + gh - 1;
    the payload is exactly storage_bits(config) bits."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.sbph"
        encode_hintset(hs, path)
        data = path.read_bytes()
        assert decode_hintset(path) == hs
    header = 4 + 6 + len(hs.phase_id.encode("utf-8")) + 12
    (payload_bits,) = struct.unpack_from("<I", data, header)
    assert payload_bits == storage_bits(hs.config)
    assert len(data) - header - 4 == (payload_bits + 7) // 8


@settings(max_examples=300, deadline=None)
@given(hint_sets())
def test_codec_matches_the_reference_codec(hs):
    """The hint file is byte for byte the one the field-by-field reference
    writes, and both decoders read it back alike."""
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.sbph", Path(tmp) / "ref.sbph"
        encode_hintset(hs, ours)
        reference_hints.encode_hintset(hs, theirs)
        assert ours.read_bytes() == theirs.read_bytes()
        assert decode_hintset(ours) == reference_hints.decode_hintset(ours) == hs
    assert storage_bits(hs.config) == reference_hints.storage_bits(hs.config)


def test_codec_round_trips_a_full_header(tmp_path):
    """The largest N the header holds and a few thousand hints below the nnz
    cap; the reference encoder, quadratic in the payload size, takes hundreds
    of times longer on this file."""
    rng = random.Random(7)
    cfg = SlbiuConfig(lh=16, gh=64, n=U16_MAX, nnz=3, q=16)
    hints = []
    for pc in {rng.getrandbits(64) for _ in range(3000)}:
        idxs = sorted(rng.sample(range(80), rng.randint(0, 3)))
        entries = [(j, rng.choice([-1, 1]) * rng.randint(1, 1 << 15) / 4096) for j in idxs]
        intercept = rng.randint(-(1 << 15), (1 << 15) - 1) / 4096
        hints.append(SparsityHint(pc, intercept, entries, Q3_12))
    hs = HintSet("full", cfg, hints)
    path = tmp_path / "full.sbph"
    encode_hintset(hs, path)
    assert decode_hintset(path) == hs
    assert path.stat().st_size == 4 + 6 + 4 + 12 + 4 + (storage_bits(cfg) + 7) // 8


def test_decode_rejects_more_hints_than_slots(tmp_path):
    path = tmp_path / "h.sbph"
    cfg = SlbiuConfig(lh=4, gh=8, n=2, nnz=1, q=8)
    encode_hintset(HintSet("", cfg, [SparsityHint(0x40, 0.5, [(3, -1.0)], Q3_4)]), path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<H", data, 6, 3)  # n_hints, past N = 2
    path.write_bytes(bytes(data))
    with pytest.raises(HintFormatError, match="3 hints exceed capacity N=2"):
        decode_hintset(path)


@pytest.mark.parametrize("field, changes", [
    ("lh", {"lh": U16_MAX + 1}),
    ("gh", {"gh": U16_MAX + 1}),
    ("nnz", {"nnz": U16_MAX + 1}),
    ("payload", {"lh": U16_MAX, "n": U16_MAX}),  # 4.3e9 bits
])
def test_encode_rejects_geometry_the_header_cannot_hold(tmp_path, field, changes):
    cfg = SlbiuConfig(**{**asdict(SlbiuConfig(lh=4, gh=8, n=1, nnz=1, q=8)), **changes})
    path = tmp_path / "h.sbph"
    with pytest.raises(HintFormatError, match=field):
        encode_hintset(HintSet("", cfg, []), path)
    assert not path.exists()
