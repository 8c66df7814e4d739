import contextlib
import functools
import io
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbp import cli
from sbp.cli import build_parser, dispatch
from sbp.errors import ConfigError
from sbp.hints import (
    Q3_4,
    HintSet,
    SlbiuConfig,
    SparsityHint,
    decode_hintset,
    empty_hintset,
    encode_hintset,
)
from sbp.history import HistoryConfig
from sbp.simulator import train_models
from sbp.sparse_modeling import BranchScreen, SolverConfig, SparseModel
from sbp.trace_io import PC_B, read_trace, write_trace
from tests.conftest import write_out_of_range_hint


def run_cli(*argv):
    return dispatch([str(a) for a in argv])


@pytest.fixture
def corr_trace(tmp_path):
    path = tmp_path / "corr.sbpt"
    rc = run_cli("gen", "--kind", "correlated", "--m", 2, "--len", 40_000,
                 "--seed", 5, "-o", path)
    assert rc == 0
    return path


def test_gen_loop_and_read_back(tmp_path):
    path = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--s", 3, "--len", 600, "-o", path) == 0
    trace = read_trace(path)
    assert len(trace) == 600


def test_gen_utilization_sidecar(tmp_path):
    path = tmp_path / "util.sbpt"
    assert run_cli("gen", "--kind", "utilization", "--len", 2000,
                   "--branch-frequency", 0.5, "--offload-ratio", 0.5, "-o", path) == 0
    offloaded = json.loads((tmp_path / "util.offload.json").read_text())
    assert len(offloaded) == 10


def test_train_select_simulate_flow(tmp_path, corr_trace):
    models = tmp_path / "models.json"
    assert run_cli("train", "--trace", corr_trace, "--gh", 16, "--lh", 4,
                   "--min-occurrences", 2000, "-o", models) == 0
    payload = json.loads(models.read_text())
    assert payload["gh"] == 16
    assert str(PC_B) in payload["models"]
    assert payload["models"][str(PC_B)]["accuracy"] >= 0.99
    assert all(isinstance(m["converged"], bool) for m in payload["models"].values())

    hints = tmp_path / "h.sbph"
    assert run_cli("select", "--models", models, "--trace", corr_trace,
                   "--gh", 16, "--lh", 4, "--policy", "independent",
                   "--budget-kb", 1, "-o", hints) == 0
    hs = decode_hintset(hints)
    assert any(h.pc == PC_B for h in hs.hints)

    base = tmp_path / "base.json"
    coup = tmp_path / "coup.json"
    assert run_cli("simulate", "--trace", corr_trace, "--gh", 16, "--lh", 4,
                   "-o", base) == 0
    assert run_cli("simulate", "--trace", corr_trace, "--gh", 16, "--lh", 4,
                   "--hints", hints, "-o", coup) == 0
    base_misp = json.loads(base.read_text())["per_branch"][str(PC_B)]["mispredictions"]
    coup_misp = json.loads(coup.read_text())["per_branch"][str(PC_B)]["mispredictions"]
    assert coup_misp < base_misp

    csv = tmp_path / "s.csv"
    assert run_cli("report", "--scurve", coup, "--baseline-reports", base,
                   "-o", csv) == 0
    assert csv.read_text().startswith("name,")


@pytest.mark.parametrize("q, policy, baseline", [("3.4", "relative", "gshare"),
                                                 ("fp32", "independent", "tage-lite")])
def test_train_then_select_writes_the_pipeline_hint_file(tmp_path, q, policy, baseline):
    # the CLI's two steps and `pipeline` score and select through one path
    trace = tmp_path / "corr.sbpt"
    assert run_cli("gen", "--kind", "correlated", "--m", 2, "--len", 12_000,
                   "--seed", 3, "-o", trace) == 0
    flags = ["--gh", 32, "--lh", 4, "--baseline", baseline, "--policy", policy,
             "--budget-kb", 1, "--q", q]
    models, hints, out = tmp_path / "models.json", tmp_path / "h.sbph", tmp_path / "out"
    assert run_cli("train", "--trace", trace, "--gh", 32, "--lh", 4,
                   "--min-occurrences", 1500, "-o", models) == 0
    assert run_cli("select", "--models", models, "--trace", trace, *flags, "-o", hints) == 0
    assert run_cli("pipeline", "--traces", trace, *flags, "--min-occurrences", 1500,
                   "--out-dir", out) == 0
    assert any(h.pc == PC_B for h in decode_hintset(hints).hints)
    assert (out / "corr.sbph").read_bytes() == hints.read_bytes()


def test_pipeline_directory_input(tmp_path):
    traces = tmp_path / "traces"
    traces.mkdir()
    assert run_cli("gen", "--kind", "correlated", "--m", 2, "--len", 18_000,
                   "--seed", 1, "-o", traces / "a.sbpt") == 0
    assert run_cli("gen", "--kind", "loop", "--s", 4, "--len", 6_000,
                   "-o", traces / "b.sbpt") == 0
    out = tmp_path / "out"
    assert run_cli("pipeline", "--traces", traces, "--gh", 16, "--lh", 4,
                   "--budget-kb", 1, "--min-occurrences", 1500,
                   "--out-dir", out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert {s["phase_id"] for s in summary} == {"a", "b"}
    assert (out / "a.baseline.json").exists()
    assert (out / "a.coupled.json").exists()
    assert (out / "a.sbph").exists()


def test_online_command(tmp_path, corr_trace):
    out = tmp_path / "online.json"
    assert run_cli("online", "--trace", corr_trace, "--gh", 12, "--lh", 0,
                   "--targets", hex(PC_B), "-o", out) == 0
    payload = json.loads(out.read_text())
    assert list(payload) == [str(PC_B)]
    assert payload[str(PC_B)]["mispredictions"] < payload[str(PC_B)]["occurrences"] / 5


def test_exit_code_runtime_error(tmp_path):
    assert run_cli("simulate", "--trace", tmp_path / "missing.sbpt") == 1


def test_exit_code_config_error(tmp_path, corr_trace):
    models = tmp_path / "m.json"
    assert run_cli("train", "--trace", corr_trace, "--gh", 16, "--lh", 4,
                   "--min-occurrences", 2000, "-o", models) == 0
    # history flags disagree with the models file
    assert run_cli("select", "--models", models, "--trace", corr_trace,
                   "--gh", 8, "--lh", 4, "--budget-kb", 1,
                   "-o", tmp_path / "h.sbph") == 2


def test_truncated_hint_file_is_a_runtime_error(tmp_path, capsys):
    trace = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--s", 3, "--len", 300, "-o", trace) == 0
    hints = tmp_path / "h.sbph"
    encode_hintset(empty_hintset(4, 16, 8, phase_id="loop"), hints)
    hints.write_bytes(hints.read_bytes()[:20])
    capsys.readouterr()
    assert run_cli("simulate", "--trace", trace, "--gh", 16, "--lh", 4,
                   "--hints", hints) == 1
    err = capsys.readouterr().err
    assert err.startswith("sbp: ") and "truncated" in err


def test_hint_index_outside_the_history_is_a_runtime_error(tmp_path, capsys):
    trace = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--s", 3, "--len", 300, "-o", trace) == 0
    hints = tmp_path / "h.sbph"
    write_out_of_range_hint(hints)
    capsys.readouterr()
    assert run_cli("simulate", "--trace", trace, "--gh", 4, "--lh", 2,
                   "--hints", hints) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"sbp: {hints}: ") and "entry index outside [0, 6)" in err


def test_hint_file_phase_id_not_utf8_is_a_runtime_error(tmp_path, capsys):
    trace = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--s", 3, "--len", 300, "-o", trace) == 0
    hints = tmp_path / "h.sbph"
    encode_hintset(empty_hintset(4, 16, 8, phase_id="loop"), hints)
    data = hints.read_bytes()
    at = data.index(b"loop")
    hints.write_bytes(data[:at] + b"lo\xefp" + data[at + 4 :])  # a cut 3-byte sequence
    capsys.readouterr()
    assert run_cli("simulate", "--trace", trace, "--gh", 16, "--lh", 4,
                   "--hints", hints) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"sbp: {hints}: ") and "phase id is not UTF-8" in err


@pytest.fixture(scope="module")
def pipeline_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("pipeline") / "corr.sbpt"
    assert run_cli("gen", "--kind", "correlated", "--m", 2, "--len", 12_000,
                   "--seed", 3, "-o", path) == 0
    return path


@pytest.mark.parametrize("baseline", ["gshare", "tage-lite"])
@pytest.mark.parametrize("q", ["3.4", "fp32"])
def test_simulate_on_pipeline_hints_equals_coupled_report(tmp_path, pipeline_trace, baseline, q):
    """`simulate --hints` on the `.sbph` a pipeline wrote reproduces that
    phase's coupled report byte for byte (fp32 weights are float32 on disk)."""
    flags = ["--gh", 32, "--lh", 4, "--baseline", baseline]
    out = tmp_path / "out"
    assert run_cli("pipeline", "--traces", pipeline_trace, *flags, "--budget-kb", 1,
                   "--q", q, "--min-occurrences", 1000, "--out-dir", out) == 0
    assert decode_hintset(out / "corr.sbph").hints
    report = tmp_path / "sim.json"
    assert run_cli("simulate", "--trace", pipeline_trace, *flags,
                   "--hints", out / "corr.sbph", "-o", report) == 0
    assert report.read_bytes() == (out / "corr.coupled.json").read_bytes()


@pytest.mark.parametrize("q", ["2.5", "4.4"])
def test_unsupported_q_rejected_before_any_work(tmp_path, capsys, q):
    # the inputs do not exist: exit 2 (not 1) shows that --q was checked first
    missing = tmp_path / "missing"
    assert run_cli("select", "--models", missing, "--trace", missing,
                   "--budget-kb", 1, "--q", q, "-o", tmp_path / "h.sbph") == 2
    assert capsys.readouterr().err.startswith("sbp: unsupported quantization")
    out = tmp_path / "out"
    assert run_cli("pipeline", "--traces", missing, "--budget-kb", 1, "--q", q,
                   "--out-dir", out) == 2
    assert capsys.readouterr().err.startswith("sbp: unsupported quantization")
    assert not out.exists()


@pytest.mark.parametrize("budget", ["0", "-2", "0.0001", "nan", "inf"])
def test_bad_budget_rejected_before_any_work(tmp_path, capsys, budget):
    # 0.0001 KB is 0.8 bits; the inputs do not exist, so exit 2 shows the
    # budget was checked before any file was read
    missing = tmp_path / "missing"
    assert run_cli("select", "--models", missing, "--trace", missing,
                   "--budget-kb", budget, "-o", tmp_path / "h.sbph") == 2
    assert capsys.readouterr().err.startswith(f"sbp: --budget-kb {budget}: need a finite")
    out = tmp_path / "out"
    assert run_cli("pipeline", "--traces", missing, "--budget-kb", budget,
                   "--out-dir", out) == 2
    assert capsys.readouterr().err.startswith(f"sbp: --budget-kb {budget}: need a finite")
    assert not out.exists()


def test_smallest_budget_is_one_bit():
    args = build_parser().parse_args(["pipeline", "--traces", "t", "--budget-kb",
                                      str(1 / 8192), "--out-dir", "o"])
    assert int(args.budget_kb * 8192) == 1


@pytest.mark.parametrize("alpha", ["1.5", "-0.1", "nan", "inf"])
def test_bad_alpha_rejected_before_any_work(tmp_path, capsys, alpha):
    missing = tmp_path / "missing.sbpt"
    assert run_cli("train", "--trace", missing, "--alpha", alpha,
                   "-o", tmp_path / "m.json") == 2
    assert capsys.readouterr().err == f"sbp: --alpha {alpha}: must be in [0, 1]\n"


@pytest.mark.parametrize("alpha", ["0", "0.5", "1"])
def test_alpha_limits_accepted(alpha):
    args = build_parser().parse_args(["train", "--trace", "t", "--alpha", alpha, "-o", "m"])
    assert args.alpha == float(alpha)


def test_parser_rejects_unknown_command():
    with pytest.raises(ConfigError):
        build_parser().parse_args(["frobnicate"])


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as e:
        dispatch([flag])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("sbp " if flag == "--version" else "usage: sbp")


def test_out_of_memory_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    trace = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--len", 300, "-o", trace) == 0

    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "train_models", out_of_memory)
    capsys.readouterr()
    assert run_cli("train", "--trace", trace, "--gh", 4, "--lh", 0,
                   "-o", tmp_path / "m.json") == 1
    assert capsys.readouterr().err == "sbp: out of memory\n"


def _write_reports(tmp_path, kind, mpkis):
    paths = []
    for phase, mpki in mpkis.items():
        path = tmp_path / f"{phase}.{kind}.json"
        path.write_text(json.dumps({"phase_id": phase, "mpki": mpki}))
        paths.append(path)
    return paths


def test_report_pairs_baselines_by_phase_id(tmp_path):
    coupled = _write_reports(tmp_path, "coupled", {"a": 2.0, "b": 0.5})
    base = _write_reports(tmp_path, "baseline", {"a": 4.0, "b": 1.0})
    ordered = tmp_path / "ordered.csv"
    swapped = tmp_path / "swapped.csv"
    assert run_cli("report", "--scurve", *coupled, "--baseline-reports", *base,
                   "-o", ordered) == 0
    assert run_cli("report", "--scurve", *coupled,
                   "--baseline-reports", *reversed(base), "-o", swapped) == 0
    assert swapped.read_text() == ordered.read_text()
    rows = {r.split(",")[0]: r.split(",")[1:3] for r in ordered.read_text().splitlines()[1:]}
    assert rows == {"a": ["4.0", "2.0"], "b": ["1.0", "0.5"]}


def test_report_without_baselines_uses_coupled_mpki(tmp_path):
    coupled = _write_reports(tmp_path, "coupled", {"a": 2.0})
    csv = tmp_path / "s.csv"
    assert run_cli("report", "--scurve", *coupled, "-o", csv) == 0
    assert csv.read_text().splitlines()[1] == "a,2.0,2.0,0.0,0.0"


# fewer baseline files than coupled ones, and as many but for another phase
@pytest.mark.parametrize("baselines", [{"b": 1.0}, {"b": 1.0, "z": 4.0}])
def test_report_missing_baseline_is_an_error(tmp_path, capsys, baselines):
    coupled = _write_reports(tmp_path, "coupled", {"a": 2.0, "b": 0.5})
    base = _write_reports(tmp_path, "baseline", baselines)
    capsys.readouterr()
    assert run_cli("report", "--scurve", *coupled, "--baseline-reports", *base) == 1
    assert capsys.readouterr().err.startswith("sbp: ")


def test_report_duplicate_phase_id_is_an_error(tmp_path, capsys):
    coupled = _write_reports(tmp_path, "coupled", {"a": 2.0})
    base = _write_reports(tmp_path, "baseline", {"a": 4.0})
    copy = tmp_path / "copy.json"
    copy.write_text(base[0].read_text())
    capsys.readouterr()
    assert run_cli("report", "--scurve", *coupled,
                   "--baseline-reports", base[0], copy) == 1
    assert "repeats" in capsys.readouterr().err


@pytest.mark.parametrize("content, reason", [
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    (b'{"gh": 4, "lh"', "Expecting ':' delimiter"),
    (b'\xff{"mpki": 1.0}', "'utf-8' codec can't decode byte 0xff"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded", id="deep"),
])
@pytest.mark.parametrize("flag", ["--models", "--scurve", "--baseline-reports"])
def test_input_that_is_not_json_names_its_path(tmp_path, capsys, flag, content, reason):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    trace = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--len", 300, "-o", trace) == 0
    coupled = _write_reports(tmp_path, "coupled", {"a": 2.0})
    argv = {
        "--models": ["select", "--models", bad, "--trace", trace, "--gh", 4, "--lh", 0,
                     "--budget-kb", 1, "-o", tmp_path / "h.sbph"],
        "--scurve": ["report", "--scurve", bad],
        "--baseline-reports": ["report", "--scurve", *coupled, "--baseline-reports", bad],
    }[flag]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"sbp: {bad}: not a JSON file ({reason}") and err.endswith(")\n")


def test_jobs_flag_is_gone():
    with pytest.raises(ConfigError):
        build_parser().parse_args(["--jobs", "2", "simulate", "--trace", "t.sbpt"])


def test_dump_text_flag_is_gone(tmp_path, capsys):
    # models.json is the one model format
    capsys.readouterr()
    assert run_cli("train", "--trace", "t.sbpt", "-o", tmp_path / "m.json",
                   "--dump-text", tmp_path / "dump") == 2
    assert capsys.readouterr().err.startswith("sbp: unrecognized arguments: --dump-text")
    assert not (tmp_path / "dump").exists()


def test_gap_beyond_u32_is_a_runtime_error(tmp_path, capsys):
    # one branch record 10^10 - 1 instructions after the start of the trace
    out = tmp_path / "big.sbpt"
    capsys.readouterr()
    assert run_cli("gen", "--kind", "utilization", "--len", 10_000_000_000,
                   "--branch-frequency", 1e-10, "-o", out) == 1
    assert capsys.readouterr().err.startswith("sbp: instruction gap 9999999999")
    assert not out.exists()


@pytest.mark.parametrize("payload", [{"gh": 64}, [1, 2], {"gh": 4, "lh": 0, "models": [1]},
                                     {"gh": 4, "lh": 0, "models": {"5": {"bias": 0.5}}}])
def test_select_rejects_wrong_shape_models(tmp_path, capsys, payload):
    trace = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--len", 300, "-o", trace) == 0
    models = tmp_path / "m.json"
    models.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("select", "--models", models, "--trace", trace, "--gh", 4, "--lh", 0,
                   "--budget-kb", 1, "-o", tmp_path / "h.sbph") == 1
    assert capsys.readouterr().err.startswith(f"sbp: {models}: not a models file")


@pytest.mark.parametrize("payload", [[1, 2], {}, {"mpki": "1.0"}, {"mpki": 1.0, "phase_id": [1]}])
@pytest.mark.parametrize("with_baselines", [False, True])
def test_report_rejects_wrong_shape_reports(tmp_path, capsys, payload, with_baselines):
    report = tmp_path / "r.json"
    report.write_text(json.dumps(payload))
    argv = ["report", "--scurve", report]
    if with_baselines:
        argv += ["--baseline-reports", report]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith(f"sbp: {report}: not a report")


# a key that is not str(n) for an n in range, as `sbp train` writes PCs and indices
NOT_A_PC = f"is not in [0, {2**64}) in canonical decimal"
NOT_AN_INDEX = "is not in [0, 4) in canonical decimal"  # gh 4 + lh 0


def _model(**changes):
    model = {"bias": 0.5, "weights": {"1": 1.0}, "lambda": 0.01, "accuracy": 1.0,
             "m": 300, "sufficient": True}
    model.update(changes)
    return model


@pytest.mark.parametrize("model, message", [
    (_model(bias="x"), "model 12288: bias 'x' is not a finite number"),
    (_model(bias=True), "model 12288: bias True is not a finite number"),
    (_model(**{"lambda": None}), "model 12288: lambda None is not a finite number"),
    (_model(weights={"1": "0.5"}), "model 12288: weight 1 '0.5' is not a finite number"),
    (_model(weights={"one": 0.5}), f"model 12288: weight index 'one' {NOT_AN_INDEX}"),
    (_model(weights={"9": 0.5}), f"model 12288: weight index '9' {NOT_AN_INDEX}"),
    (_model(weights={"-1": 0.5}), f"model 12288: weight index '-1' {NOT_AN_INDEX}"),
    (_model(m="x"), "model 12288: m 'x' is not a non-negative integer"),
    (_model(m=-1), "model 12288: m -1 is not a non-negative integer"),
    (_model(m=300.0), "model 12288: m 300.0 is not a non-negative integer"),
    (_model(m=True), "model 12288: m True is not a non-negative integer"),
    (_model(sufficient="no"), "model 12288: sufficient 'no' is not true or false"),
    (_model(sufficient=1), "model 12288: sufficient 1 is not true or false"),
    (_model(converged="no"), "model 12288: converged 'no' is not true or false"),
    (_model(converged=None), "model 12288: converged None is not true or false"),
    (_model(weights={"0": 1e39}), "model 12288: weight 0 1e+39 is beyond the float32 range"),
    (_model(bias=-1e39), "model 12288: bias -1e+39 is beyond the float32 range"),
    (_model(weights={"+1": 0.5}), f"model 12288: weight index '+1' {NOT_AN_INDEX}"),
    (_model(weights={" 1": 0.5}), f"model 12288: weight index ' 1' {NOT_AN_INDEX}"),
    (_model(weights={"\u0661": 0.5}), f"model 12288: weight index '\u0661' {NOT_AN_INDEX}"),
    (_model(weights={"0_1": 0.5}), f"model 12288: weight index '0_1' {NOT_AN_INDEX}"),
    (_model(weights={"1_0": 0.5}), f"model 12288: weight index '1_0' {NOT_AN_INDEX}"),
    (_model(weights={"1": 1.0, "01": -1.0}), f"model 12288: weight index '01' {NOT_AN_INDEX}"),
    (_model(weights={"03": 1.0, "3": -1.0}), f"model 12288: weight index '03' {NOT_AN_INDEX}"),
    # a JSON integer beyond the float range, which math.isfinite cannot take
    (_model(bias=10**400), f"model 12288: bias {10**400} is not a finite number"),
])
def test_select_rejects_bad_model_values(tmp_path, capsys, model, message):
    # in fp32, where values beyond the float32 range are bad too; Q3.4 saturates them
    trace = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--len", 300, "-o", trace) == 0
    models = tmp_path / "m.json"
    models.write_text(json.dumps({"gh": 4, "lh": 0, "models": {"12288": model}}))
    capsys.readouterr()
    assert run_cli("select", "--models", models, "--trace", trace, "--gh", 4, "--lh", 0,
                   "--q", "fp32", "--budget-kb", 1, "-o", tmp_path / "h.sbph") == 1
    assert capsys.readouterr().err == f"sbp: {models}: {message}\n"
    assert not (tmp_path / "h.sbph").exists()


def test_select_names_a_model_key_that_is_not_a_pc(tmp_path, capsys):
    trace = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--len", 300, "-o", trace) == 0
    models = tmp_path / "m.json"
    models.write_text(json.dumps({"gh": 4, "lh": 0, "models": {"zz": _model()}}))
    capsys.readouterr()
    assert run_cli("select", "--models", models, "--trace", trace, "--gh", 4, "--lh", 0,
                   "--budget-kb", 1, "-o", tmp_path / "h.sbph") == 1
    assert capsys.readouterr().err == f"sbp: {models}: model key 'zz' {NOT_A_PC}\n"


# `sbp train` writes each key as str(pc): ASCII decimal digits below 2**64,
# without a leading zero; int() would reject 5,000 digits with its own message
@pytest.mark.parametrize("key", ["-5", "18446744073709551616", "1_2", " 7", "+7", "\u0667", "07",
                                 pytest.param("9" * 5000, id="5000_digits")])
def test_select_names_a_model_key_that_no_pc_can_have(tmp_path, capsys, key):
    trace = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--len", 300, "-o", trace) == 0
    models = tmp_path / "m.json"
    models.write_text(json.dumps({"gh": 4, "lh": 0, "models": {key: _model()}}))
    capsys.readouterr()
    assert run_cli("select", "--models", models, "--trace", trace, "--gh", 4, "--lh", 0,
                   "--budget-kb", 1, "-o", tmp_path / "h.sbph") == 1
    assert capsys.readouterr().err == f"sbp: {models}: model key {key!r} {NOT_A_PC}\n"
    assert not (tmp_path / "h.sbph").exists()


# json.loads keeps the last of two keys written alike: each is an error naming
# the key. A PC or index has one spelling, str(n), so no other key can repeat it
@pytest.mark.parametrize("models_text, message", [
    ('{"12288": %s, "012288": %s}' % (json.dumps(_model()), json.dumps(_model(bias=-0.5))),
     f"model key '012288' {NOT_A_PC}"),
    ('{"12288": %s, "12288": %s}' % (json.dumps(_model()), json.dumps(_model(bias=-0.5))),
     "key '12288' repeats in one JSON object"),
    ('{"12288": %s}' % json.dumps(_model()).replace('{"1": 1.0}', '{"1": 1.0, "1": -1.0}'),
     "key '1' repeats in one JSON object"),
], ids=["pc", "model", "weight"])
def test_select_names_a_key_that_repeats(tmp_path, capsys, models_text, message):
    trace = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--len", 300, "-o", trace) == 0
    models = tmp_path / "m.json"
    models.write_text('{"gh": 4, "lh": 0, "models": %s}' % models_text)
    capsys.readouterr()
    assert run_cli("select", "--models", models, "--trace", trace, "--gh", 4, "--lh", 0,
                   "--budget-kb", 1, "-o", tmp_path / "h.sbph") == 1
    assert capsys.readouterr().err == f"sbp: {models}: {message}\n"
    assert not (tmp_path / "h.sbph").exists()


def _bits(model):
    """A model's fields, each float as its bits: -0.0 is not 0.0, nor 1.0 the integer 1."""

    def bits(v):
        return float.hex(v) if isinstance(v, float) else v

    return {key: {j: bits(w) for j, w in value.items()} if key == "weights" else bits(value)
            for key, value in asdict(model).items()}


FINITE = st.sampled_from([-0.0, 5e-324, -2.5e-310]) | st.floats(allow_nan=False,
                                                                  allow_infinity=False)


@st.composite
def sparse_models(draw):
    """gh, lh and {pc: SparseModel} with any finite values, weights at indices below gh + lh."""
    gh, lh = draw(st.integers(0, 70)), draw(st.integers(1, 20))
    pcs = draw(st.lists(st.integers(0, 2**64 - 1), unique=True, max_size=4))
    return gh, lh, {
        pc: SparseModel(pc=pc, bias=draw(FINITE),
                        weights=draw(st.dictionaries(st.integers(0, gh + lh - 1), FINITE,
                                                     max_size=8)),
                        lam=draw(FINITE), accuracy=draw(FINITE), m=draw(st.integers(0)),
                        converged=draw(st.booleans()), sufficient=draw(st.booleans()))
        for pc in pcs
    }


@pytest.mark.parametrize("which", ["correlated", "loop"])
def test_models_file_round_trips_train_models(request, tmp_path, which):
    # what `sbp train` writes, `select` reads back as the very models that
    # train_models returns, field by field and bit for bit; and so it does
    # for drawn models with any finite values (Q3.4 takes every one)
    trace = request.getfixturevalue(f"{which}_trace")
    path = tmp_path / "t.sbpt"
    write_trace(trace, path)
    out = tmp_path / "models.json"
    assert run_cli("train", "--trace", path, "--gh", 12, "--lh", 4,
                   "--min-occurrences", 1000, "-o", out) == 0
    expect = train_models(trace, HistoryConfig(12, 4), BranchScreen(min_occurrences=1000),
                          SolverConfig())
    assert expect and any(model.weights for model in expect.values())
    gh, lh, models = cli._load_models_json(out, None)
    assert (gh, lh) == (12, 4)
    assert list(models) == list(expect)
    for pc, model in models.items():
        assert _bits(model) == _bits(expect[pc])
    # the file's bytes: json.dumps(sort_keys=True) orders weight keys as
    # strings ("10" before "2"), so integer keys would write another order
    payload = {
        str(pc): {"bias": m.bias, "weights": {str(j): w for j, w in m.weights.items()},
                  "lambda": m.lam, "accuracy": m.accuracy, "m": m.m,
                  "sufficient": m.sufficient, "converged": m.converged}
        for pc, m in expect.items()
    }
    text = json.dumps({"gh": 12, "lh": 4, "models": payload}, sort_keys=True, indent=2)
    assert out.read_text() == text + "\n"

    @settings(max_examples=100, deadline=None)
    @given(drawn=sparse_models())
    def drawn_models_round_trip(drawn):
        gh, lh, expect = drawn
        out.write_text(cli._models_json(gh, lh, expect))
        got_gh, got_lh, models = cli._load_models_json(out, Q3_4)
        assert (got_gh, got_lh) == (gh, lh) and models.keys() == expect.keys()
        for pc, model in models.items():
            assert _bits(model) == _bits(expect[pc])

    drawn_models_round_trip()


@pytest.mark.parametrize("header, message", [
    ({"gh": 4.0}, "gh 4.0 is not a non-negative integer"),
    ({"gh": True}, "gh True is not a non-negative integer"),
    ({"gh": -4}, "gh -4 is not a non-negative integer"),
    ({"lh": "0"}, "lh '0' is not a non-negative integer"),
    ({"lh": None}, "lh None is not a non-negative integer"),
])
def test_select_rejects_bad_history_lengths_in_models(tmp_path, capsys, header, message):
    trace = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--len", 300, "-o", trace) == 0
    models = tmp_path / "m.json"
    models.write_text(json.dumps({"gh": 4, "lh": 0, **header, "models": {"12288": _model()}}))
    capsys.readouterr()
    assert run_cli("select", "--models", models, "--trace", trace, "--gh", 4, "--lh", 0,
                   "--budget-kb", 1, "-o", tmp_path / "h.sbph") == 1
    assert capsys.readouterr().err == f"sbp: {models}: {message}\n"
    assert not (tmp_path / "h.sbph").exists()


def test_online_targets_take_hex_and_spaces(tmp_path):
    trace = tmp_path / "corr.sbpt"
    assert run_cli("gen", "--kind", "correlated", "--len", 600, "-o", trace) == 0
    out = tmp_path / "online.json"
    assert run_cli("online", "--trace", trace, "--gh", 4, "--lh", 0,
                   "--targets", "0x1000, 0x2000", "-o", out) == 0
    assert sorted(json.loads(out.read_text())) == [str(0x1000), str(0x2000)]


def test_select_accepts_integer_model_values(tmp_path):
    # JSON integers are numbers too
    trace = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--len", 300, "-o", trace) == 0
    models = tmp_path / "m.json"
    # period 2: a branch opposite to its last outcome and equal to its fourth-last
    model = _model(bias=1, weights={"0": -2, "3": 1.5}, accuracy=1)
    models.write_text(json.dumps({"gh": 4, "lh": 0, "models": {"12288": model}}))
    assert run_cli("select", "--models", models, "--trace", trace, "--gh", 4, "--lh", 0,
                   "--policy", "independent", "--budget-kb", 1, "-o", tmp_path / "h.sbph") == 0
    assert [h.pc for h in decode_hintset(tmp_path / "h.sbph").hints] == [0x3000]


BAD_SIZES = [
    ("--gshare-bits", "-1", "gshare", "--gshare-bits must be 0 to 24"),
    ("--gshare-bits", "25", "gshare", "--gshare-bits must be 0 to 24"),
    ("--gshare-bits", "40", "gshare", "--gshare-bits must be 0 to 24"),
    ("--tage-entries", "0", "tage-lite", "--tage-entries must be 1 to 65536"),
    ("--tage-entries", "65537", "tage-lite", "--tage-entries must be 1 to 65536"),
]


def _baseline_argv(tmp_path, command):
    """`command`'s arguments, with input files that do not exist."""
    missing = tmp_path / "missing.sbpt"
    return {
        "simulate": ["simulate", "--trace", missing],
        "select": ["select", "--models", tmp_path / "none.json", "--trace", missing,
                   "--budget-kb", 1, "-o", tmp_path / "h.sbph"],
        "pipeline": ["pipeline", "--traces", missing, "--budget-kb", 1,
                     "--out-dir", tmp_path / "out"],
    }[command]


@pytest.mark.parametrize("flag, value, baseline, message", BAD_SIZES)
@pytest.mark.parametrize("command", ["simulate", "select", "pipeline"])
def test_impossible_baseline_sizes_rejected_before_reading(tmp_path, capsys, flag, value,
                                                           baseline, message, command):
    # the inputs are never read: the flag check comes first
    capsys.readouterr()
    assert run_cli(*_baseline_argv(tmp_path, command), "--baseline", baseline, flag, value) == 2
    assert capsys.readouterr().err == f"sbp: {message}\n"


@pytest.mark.parametrize("command", ["simulate", "select", "pipeline"])
def test_tage_history_beyond_gh_rejected_before_reading(tmp_path, capsys, command):
    # TAGE-lite's default history lengths run 4 to 32 bits of the shared GHR;
    # the configuration is checked before any input is read or output made
    capsys.readouterr()
    assert run_cli(*_baseline_argv(tmp_path, command), "--baseline", "tage-lite",
                   "--gh", 16) == 2
    assert capsys.readouterr().err == "sbp: TAGE-lite history lengths reach 32, beyond gh 16\n"
    assert not (tmp_path / "out").exists()


def test_baseline_size_limits_accepted(tmp_path, capsys):
    trace = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--len", 300, "-o", trace) == 0
    for flags in (["--gshare-bits", 0], ["--gshare-bits", 24],
                  ["--baseline", "tage-lite", "--tage-entries", 1],
                  ["--baseline", "tage-lite", "--tage-entries", 100],
                  ["--baseline", "tage-lite", "--tage-entries", 65536],
                  ["--tage-entries", 0]):  # only the chosen baseline's size is checked
        assert run_cli("simulate", "--trace", trace, "--gh", 32, "--lh", 4, *flags,
                       "-o", tmp_path / "r.json") == 0


@pytest.mark.parametrize("eta", ["nan", "inf", "-inf", "0", "-1"])
def test_bad_eta_rejected_before_any_work(tmp_path, capsys, eta):
    # the trace does not exist: exit 2 (not 1) shows that --eta was checked first
    assert run_cli("online", "--trace", tmp_path / "missing.sbpt", f"--eta={eta}") == 2
    assert capsys.readouterr().err.startswith("sbp: eta ")


def test_negative_noise_branches_rejected(tmp_path, capsys):
    out = tmp_path / "c.sbpt"
    assert run_cli("gen", "--kind", "correlated", "--m", -1, "--len", 100, "-o", out) == 2
    assert capsys.readouterr().err.startswith("sbp: noise_branches -1")
    assert not out.exists()


@pytest.mark.parametrize("mpki", ["NaN", "Infinity", "-Infinity",
                                  pytest.param(str(10**400), id="10**400")])
@pytest.mark.parametrize("with_baselines", [False, True])
def test_report_rejects_non_finite_mpki(tmp_path, capsys, mpki, with_baselines):
    report = tmp_path / "r.json"
    report.write_text(f'{{"mpki": {mpki}, "phase_id": "p"}}')
    flags = ["--baseline-reports", report] if with_baselines else []
    capsys.readouterr()
    assert run_cli("report", "--scurve", report, *flags) == 1
    assert capsys.readouterr().err.startswith(f"sbp: {report}: mpki ")


def test_simulate_rejects_hint_file_of_another_lh(tmp_path, capsys):
    trace = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--len", 300, "-o", trace) == 0
    hints = tmp_path / "h.sbph"
    encode_hintset(empty_hintset(4, 16, 8, phase_id="loop"), hints)
    capsys.readouterr()
    for lh in (0, 16):
        assert run_cli("simulate", "--trace", trace, "--gh", 16, "--lh", lh,
                       "--hints", hints) == 2
        assert capsys.readouterr().err == (
            f"sbp: {hints}: hint file lh 4 disagrees with --lh {lh}\n")
    # a GHR wider than the run's is rejected before the trace is read
    for trace_path in (trace, tmp_path / "missing.sbpt"):
        assert run_cli("simulate", "--trace", trace_path, "--gh", 8, "--lh", 4,
                       "--hints", hints) == 2
        assert capsys.readouterr().err == f"sbp: {hints}: hint file gh 16 exceeds --gh 8\n"
    assert run_cli("simulate", "--trace", trace, "--gh", 16, "--lh", 4, "--hints", hints,
                   "-o", tmp_path / "r.json") == 0


@pytest.mark.parametrize("argv, message", [
    (["gen", "--kind", "loop", "--len", 0], "length 0"),
    (["gen", "--kind", "loop", "--s", 1, "--len", 100], "loop_period 1"),
    (["gen", "--kind", "correlated", "--k", 0, "--len", 100], "correlation_distance 0"),
    (["gen", "--kind", "utilization", "--branch-frequency", 2, "--len", 100], "branch_frequency"),
    (["gen", "--kind", "correlated", "--m", 8, "--len", 5], "length 5 cannot hold"),
    (["simulate", "--trace", "missing.sbpt", "--gh", -1], "--gh -1"),
    (["simulate", "--trace", "missing.sbpt", "--gh", 0, "--lh", 0], "gh 0, lh 0"),
    (["online", "--trace", "missing.sbpt", "--targets", "zz"], "--targets zz"),
    (["online", "--trace", "missing.sbpt", "--targets", "-5"],
     "--targets -5: target '-5' is not a 64-bit PC"),
    (["online", "--trace", "missing.sbpt", "--targets", str(2**64)],
     f"--targets {2**64}: target '{2**64}' is not a 64-bit PC"),
    # argparse's usage errors leave through dispatch like every other error
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
    (["simulate"], "the following arguments are required: --trace"),
    (["select", "--models", "m.json", "--trace", "missing.sbpt", "--budget-kb", "-inf"],
     "argument --budget-kb: expected one argument"),
    (["online", "--trace", "missing.sbpt", "--eta", "x"], "argument --eta: invalid float value"),
])
def test_configuration_errors_exit_2(tmp_path, capsys, argv, message):
    # the output is never written and the trace never read: the check comes first
    out = tmp_path / "t.sbpt"
    capsys.readouterr()
    assert run_cli(*argv, *(["-o", out] if argv[:1] == ["gen"] else [])) == 2
    assert capsys.readouterr().err.startswith(f"sbp: {message}")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--gh", "--lh"])
@pytest.mark.parametrize("command", ["train", "select", "simulate", "pipeline", "online"])
def test_history_lengths_past_the_hint_header_rejected(tmp_path, capsys, flag, command):
    missing = tmp_path / "missing.sbpt"  # never read: the flag check comes first
    argv = {
        "train": ["train", "--trace", missing, "-o", tmp_path / "m.json"],
        "select": ["select", "--models", tmp_path / "none.json", "--trace", missing,
                   "--budget-kb", 1, "-o", tmp_path / "h.sbph"],
        "simulate": ["simulate", "--trace", missing],
        "pipeline": ["pipeline", "--traces", missing, "--budget-kb", 1,
                     "--out-dir", tmp_path / "out"],
        "online": ["online", "--trace", missing],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv, flag, 70_000) == 2
    assert capsys.readouterr().err == (
        f"sbp: {flag} 70000: must be 0 to 65535, as the hint file holds it\n")


def test_select_caps_n_at_the_hint_header(tmp_path):
    # 3000 KB holds some 245k slots of this geometry; the header's N holds 65535
    trace = tmp_path / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--len", 300, "-o", trace) == 0
    models = tmp_path / "m.json"
    model = _model(bias=1, weights={"0": -2, "3": 1.5}, accuracy=1)
    models.write_text(json.dumps({"gh": 4, "lh": 0, "models": {"12288": model}}))
    hints = tmp_path / "h.sbph"
    assert run_cli("select", "--models", models, "--trace", trace, "--gh", 4, "--lh", 0,
                   "--policy", "independent", "--budget-kb", 3000, "-o", hints) == 0
    hs = decode_hintset(hints)
    assert hs.config.n == 65_535 and [h.pc for h in hs.hints] == [0x3000]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A loop trace and a valid hint file for it (gh 4, lh 2, three slots)."""
    base = tmp_path_factory.mktemp("fuzz")
    trace = base / "loop.sbpt"
    assert run_cli("gen", "--kind", "loop", "--s", 3, "--len", 300, "-o", trace) == 0
    hs = HintSet("loop", SlbiuConfig(lh=2, gh=4, n=3, nnz=2, q=8),
                 [SparsityHint(0x3000, 0.5, [(0, -1.0), (2, 2.0)], Q3_4),
                  SparsityHint(0x3008, -0.25, [(5, 0.75)], Q3_4)])
    hints = base / "h.sbph"
    encode_hintset(hs, hints)
    return trace, hints.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_simulate_survives_mutated_hint_files(fuzz_inputs, data):
    """A truncated or bit-flipped hint file ends in exit 0, or in 1 or 2 with
    an `sbp:` message: never in an exception."""
    trace, original = fuzz_inputs
    size = data.draw(st.just(len(original)) | st.integers(0, len(original)), label="size")
    mutated = bytearray(original[:size])
    flips = data.draw(st.lists(st.integers(0, 8 * len(original) - 1), max_size=3), label="flips")
    for bit in flips:
        if bit < 8 * len(mutated):
            mutated[bit // 8] ^= 1 << (bit % 8)
    with tempfile.TemporaryDirectory() as tmp:
        hints = Path(tmp) / "h.sbph"
        hints.write_bytes(bytes(mutated))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run_cli("simulate", "--trace", trace, "--gh", 4, "--lh", 2, "--hints", hints,
                         "-o", Path(tmp) / "r.json")
    assert rc in (0, 1, 2)
    assert rc == 0 or err.getvalue().startswith("sbp: ")


# Out-of-range and non-finite values of the range-checked flags, per command.
# Each is passed as --flag=value or as --flag value; argparse reads "-inf" in
# the second form as an option, which is a usage error. No value is a size
# that would allocate much memory if it were accepted.
NON_FINITE = ["nan", "inf", "-inf", "-1", "-0.5"]
HISTORY_BAD = {"--gh": ["-1", "65536"], "--lh": ["-3", "70000"]}
FUZZ_FLAGS = {
    "simulate": {**HISTORY_BAD, "--gshare-bits": ["-1", "25"],
                 "--tage-entries": ["0", "-2", "65537"]},
    "online": {**HISTORY_BAD, "--eta": NON_FINITE + ["0"]},
    "train": {**HISTORY_BAD, "--alpha": NON_FINITE + ["1.5"]},
    "select": {**HISTORY_BAD, "--budget-kb": NON_FINITE + ["0"]},
}


@pytest.fixture(scope="module")
def fuzz_trace(tmp_path_factory):
    """A 400-record correlated trace (4 PCs, 100 records each), and models
    trained on it (gh 4, lh 2)."""
    base = tmp_path_factory.mktemp("fuzz_trace")
    trace, models = base / "corr.sbpt", base / "models.json"
    assert run_cli("gen", "--kind", "correlated", "--m", 2, "--len", 400, "--seed", 9,
                   "-o", trace) == 0
    assert run_cli("train", "--trace", trace, "--gh", 4, "--lh", 2, "--min-occurrences", 90,
                   "-o", models) == 0
    return trace, models


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_commands_survive_mutated_traces_and_bad_flags(fuzz_trace, data):
    """`simulate`, `online`, `train` and `select` on a truncated, bit-flipped
    or extended trace, with at most one flag out of range, an unknown command
    or a missing --trace, end in exit 0, or in 1 or 2 with an `sbp:` message:
    never in an exception."""
    original, models = fuzz_trace[0].read_bytes(), fuzz_trace[1]
    command = data.draw(st.sampled_from(sorted(FUZZ_FLAGS)), label="command")
    size = data.draw(st.just(len(original)) | st.integers(0, len(original)), label="size")
    mutated = bytearray(original[:size])
    mutated += data.draw(st.binary(max_size=30), label="extension")
    flips = data.draw(st.lists(st.integers(0, 8 * len(mutated) - 1), max_size=3)
                      if mutated else st.just([]), label="flips")
    for bit in flips:
        mutated[bit // 8] ^= 1 << (bit % 8)
    flag = data.draw(st.none() | st.sampled_from(sorted(FUZZ_FLAGS[command])), label="flag")
    with tempfile.TemporaryDirectory() as tmp:
        trace, out = Path(tmp) / "t.sbpt", Path(tmp) / "out"
        trace.write_bytes(bytes(mutated))
        argv = [command, "--trace", trace, "--gh", 4, "--lh", 2, "-o", out]
        if command == "simulate":  # each baseline checks its own size flag
            baseline = {"--gshare-bits": "gshare", "--tage-entries": "tage-lite"}.get(flag)
            argv += ["--baseline", baseline or data.draw(st.sampled_from(["gshare", "tage-lite"]))]
        elif command == "train":
            argv += ["--min-occurrences", 90]
        elif command == "select":
            argv += ["--models", models, "--budget-kb", 1]
        if flag is not None:
            value = data.draw(st.sampled_from(FUZZ_FLAGS[command][flag]), label="value")
            joined = data.draw(st.booleans(), label="joined")
            argv += [f"{flag}={value}"] if joined else [flag, value]
        usage = data.draw(st.none() | st.sampled_from(["unknown command", "no --trace"]),
                          label="usage error")
        if usage == "unknown command":
            argv[0] = "frobnicate"
        elif usage == "no --trace":
            del argv[1:3]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run_cli(*argv)
    assert rc in (0, 1, 2)
    assert rc == 0 or err.getvalue().startswith("sbp: ")
    assert flag is None and usage is None or rc == 2


# JSON values: scalars, the edges of the float range and an integer beyond
# it, and small arrays and objects of scalars
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = (
    st.sampled_from([1.7976931348623157e308, -1e308, 5e-324, 2**64, -(10**400)])
    | JSON_SCALARS
    | st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)
)


def _key_paths(node, path=()):
    """The path of every key in the JSON objects of a document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_select_survives_mutated_models_files(fuzz_trace, data):
    """A truncated or bit-flipped models file, or one with a field (the
    header's, a model, a model's field or a weight) replaced by a drawn JSON
    value, ends `select` in exit 0, or in 1 or 2 with an `sbp:` message:
    never in an exception."""
    trace, original = fuzz_trace[0], fuzz_trace[1].read_bytes()
    if data.draw(st.sampled_from(["replace", "cut or flip"]), label="mutation") == "replace":
        doc = json.loads(original)
        *parents, key = data.draw(st.sampled_from(list(_key_paths(doc))), label="path")
        functools.reduce(dict.__getitem__, parents, doc)[key] = data.draw(JSON_VALUES,
                                                                        label="value")
        mutated = bytearray(json.dumps(doc).encode())
    else:
        size = data.draw(st.just(len(original)) | st.integers(0, len(original)), label="size")
        mutated = bytearray(original[:size])
        flips = data.draw(st.lists(st.integers(0, 8 * len(original) - 1), max_size=3),
                          label="flips")
        for bit in flips:
            if bit < 8 * len(mutated):
                mutated[bit // 8] ^= 1 << (bit % 8)
    q = data.draw(st.sampled_from(["3.4", "3.12", "fp32"]), label="q")
    with tempfile.TemporaryDirectory() as tmp:
        models = Path(tmp) / "models.json"
        models.write_bytes(bytes(mutated))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run_cli("select", "--models", models, "--trace", trace, "--gh", 4, "--lh", 2,
                         "--q", q, "--budget-kb", 1, "-o", Path(tmp) / "h.sbph")
    assert rc in (0, 1, 2)
    assert rc == 0 or err.getvalue().startswith("sbp: ")
