from __future__ import annotations

import json
import multiprocessing
import os
import signal
from pathlib import Path

import pytest

from retransim import sim
from retransim.cli import main
from retransim.metrics import TradeoffPoint, mask_histogram, pareto_frontier
from retransim.sim import SweepSpec, load_sweep_spec, run_sweep
from retransim.predict import load_lm
from retransim.sim import ConfigError, RunConfig, read_traces, save_run_config
from retransim.strategy import StrategyConfig
from conftest import lm_prob, write_corpus


def _write_lexicon(tmp_path, lexicon) -> Path:
    lines = []
    for src, entries in lexicon.items():
        for tgt, prob in entries:
            lines.append(f"{src} ||| {tgt} ||| {prob}")
    path = tmp_path / "lex.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


NOISY_LEXICON = {
    "a": (("x", 0.7), ("x2", 0.3)),
    "b": (("y", 1.0),),
    "c": (("z", 0.65), ("z2", 0.35)),
    "d": (("w", 1.0),),
}


@pytest.fixture
def workspace(tmp_path):
    """Corpus, lexicon and a base run config on disk."""
    src_lines = ["a b c d a", "c d a b", "b a c", "d c b a d c", "a b", "b c d a c d"]
    ref_lines = ["x y z w x", "z w x y", "y x z", "w z y x w z", "x y", "y z w x z w"]
    src, ref = write_corpus(tmp_path, src_lines, ref_lines)
    lex = _write_lexicon(tmp_path, NOISY_LEXICON)
    cfg = RunConfig(
        source_path=str(src),
        reference_path=str(ref),
        translator={
            "kind": "toy",
            "lexicon_path": str(lex),
            "beam_size": 2,
            "distortion": 0.5,
            "instability": 0.8,
            "seed": 13,
        },
        strategy=StrategyConfig("none"),
    )
    cfg_path = tmp_path / "run.json"
    save_run_config(cfg, cfg_path)
    return tmp_path, cfg, cfg_path


def test_train_lm_round_trip_and_determinism(tmp_path, capsys):
    src, _ = write_corpus(tmp_path, ["a b", "a b c"], ["x", "y"])
    out1, out2 = tmp_path / "lm1.json", tmp_path / "lm2.json"
    assert main(["train-lm", "--source", str(src), "--order", "2", "--out", str(out1)]) == 0
    printed = capsys.readouterr().out
    assert "vocabulary size: 5" in printed  # a, b, c + UNK + EOS
    assert "5 tokens" in printed
    assert main(["train-lm", "--source", str(src), "--order", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lm = load_lm(out1)
    assert lm.order == 2
    assert lm_prob(lm, "b", ("a",)) > lm_prob(lm, "c", ("a",))


def test_train_lm_order_one_has_only_unigrams(tmp_path):
    src, _ = write_corpus(tmp_path, ["a b"], ["x"])
    out = tmp_path / "lm.json"
    assert main(["train-lm", "--source", str(src), "--order", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert list(payload["counts"].keys()) == ["1"]


def test_run_mask_zero_equals_none(workspace, capsys):
    tmp_path, cfg, cfg_path = workspace
    t_none = tmp_path / "none.jsonl"
    t_zero = tmp_path / "zero.jsonl"
    assert main(["run", "--config", str(cfg_path), "--strategy", "none",
                 "--traces-out", str(t_none)]) == 0
    out_none = capsys.readouterr()
    assert main(["run", "--config", str(cfg_path), "--strategy", "mask_k", "--k-mask", "0",
                 "--traces-out", str(t_zero)]) == 0
    out_zero = capsys.readouterr()
    _, traces_none = read_traces(t_none)
    _, traces_zero = read_traces(t_zero)
    assert traces_none == traces_zero
    # CSV rows agree apart from the strategy label
    row_none = out_none.out.strip().splitlines()[-1]
    row_zero = out_zero.out.strip().splitlines()[-1]
    assert row_none.split(",")[1:] == row_zero.split(",")[1:]


def test_run_oracle_reports_zero_erasure(workspace, capsys):
    _, _, cfg_path = workspace
    assert main(["run", "--config", str(cfg_path), "--strategy", "oracle"]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()[-2:]
    assert header == TradeoffPoint.CSV_HEADER
    fields = row.split(",")
    assert fields[0] == "oracle"
    assert float(fields[2]) == 0.0


def test_run_missing_reference_exits_2(workspace, capsys):
    tmp_path, cfg, _ = workspace
    broken = tmp_path / "broken.json"
    save_run_config(
        RunConfig(**{**cfg.__dict__, "reference_path": str(tmp_path / "missing.ref")}),
        broken,
    )
    assert main(["run", "--config", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "missing.ref" in err


def test_run_metrics_roundtrip_bit_identical(workspace, capsys):
    tmp_path, _, cfg_path = workspace
    traces_path = tmp_path / "t.jsonl"
    metrics_path = tmp_path / "m.csv"
    assert main(["run", "--config", str(cfg_path), "--strategy", "mask_k", "--k-mask", "2",
                 "--traces-out", str(traces_path), "--metrics-out", str(metrics_path)]) == 0
    capsys.readouterr()
    recomputed = tmp_path / "m2.csv"
    assert main(["metrics", "--traces", str(traces_path), "--out", str(recomputed)]) == 0
    capsys.readouterr()
    assert metrics_path.read_text() == recomputed.read_text()


def test_run_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json\n", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    assert ":1:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("translator", "beam_size", "wide"),
        ("translator", "distortion", "x"),
        ("translator", "distortion", 0),
        ("translator", "seed", True),
        ("translator", "beam_sise", 3),
        (None, "ne_mode", "bogus"),
    ],
)
def test_run_bad_config_value_exits_2_naming_the_key(
    workspace, tmp_path, capsys, monkeypatch, section, key, value
):
    _, cfg, _ = workspace
    data = cfg.to_dict()
    (data[section] if section else data)[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    # rejected before any sentence is simulated
    monkeypatch.setattr(sim, "simulate_sentence", None)
    assert main(["run", "--config", str(bad)]) == 2
    assert key in capsys.readouterr().err


def _run_with(workspace, tmp_path, **changes) -> int:
    """Exit code of `run --config` on the workspace config with top-level changes."""
    _, cfg, _ = workspace
    data = {**cfg.to_dict(), **changes}
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return main(["run", "--config", str(path)])


def _script(tmp_path) -> str:
    path = tmp_path / "script.tsv"
    path.write_text("a\tx\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("kind, path_key", [("toy", "lexicon_path"), ("scripted", "script_path")])
def test_translator_spec_without_its_path_exits_2(
    workspace, tmp_path, capsys, monkeypatch, kind, path_key
):
    monkeypatch.setattr(sim, "simulate_sentence", None)
    assert _run_with(workspace, tmp_path, translator={"kind": kind}) == 2
    assert f"{kind} translator: missing key {path_key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("identity_fallbak", True),
        ("identity_fallback", "yes"),
        ("identity_fallback", 1),
        ("script_path", 7),
    ],
)
def test_scripted_spec_bad_key_exits_2_naming_it(
    workspace, tmp_path, capsys, monkeypatch, key, value
):
    spec = {"kind": "scripted", "script_path": _script(tmp_path), key: value}
    monkeypatch.setattr(sim, "simulate_sentence", None)
    assert _run_with(workspace, tmp_path, translator=spec) == 2
    err = capsys.readouterr().err
    assert "scripted translator: " in err and key in err


def test_scripted_spec_with_fallback_runs(workspace, tmp_path):
    spec = {"kind": "scripted", "script_path": _script(tmp_path), "identity_fallback": True}
    assert _run_with(workspace, tmp_path, translator=spec) == 0


@pytest.mark.parametrize(
    "key, content, where",
    [
        ("lm_path", b'{"format": "retransim-ngram-lm",\n  oops}\n', ":2: "),
        ("lm_path", b'{"format":\n "\xff"}\n', ":2: not UTF-8"),
        ("lm_path", b"[]\n", ": not a retransim-ngram-lm file"),
        ("source_path", b"a b\nc \xff d\n", ":2: not UTF-8"),
        ("reference_path", b"\xfe\n", ":1: not UTF-8"),
        ("lexicon_path", b"a ||| x ||| 1.0\nb ||| \xff ||| 1.0\n", ":2: not UTF-8"),
        ("script_path", b"a\tx\n\xff b\ty\n", ":2: not UTF-8"),
    ],
)
def test_unreadable_input_file_exits_2_naming_it(workspace, tmp_path, capsys, key, content, where):
    path = tmp_path / "unreadable.txt"
    path.write_bytes(content)
    _, cfg, _ = workspace
    changes = {key: str(path)}
    if key == "lexicon_path":
        changes = {"translator": {**cfg.translator, key: str(path)}}
    elif key == "script_path":
        changes = {"translator": {"kind": "scripted", key: str(path)}}
    assert _run_with(workspace, tmp_path, **changes) == 2
    assert f"{path}{where}" in capsys.readouterr().err


def test_run_without_config_or_paths_exits_2(capsys):
    assert main(["run", "--strategy", "none"]) == 2
    assert "--config" in capsys.readouterr().err


def _sweep_spec_dict(cfg: RunConfig, **extra) -> dict:
    spec = {"base": cfg.to_dict(), "axes": {"k_mask": list(range(0, 11))}}
    spec.update(extra)
    return spec


def test_sweep_al_nondecreasing_in_k(workspace, tmp_path):
    _, cfg, _ = workspace
    spec = SweepSpec.from_dict(_sweep_spec_dict(cfg))
    results = run_sweep(spec)
    by_k = sorted(
        (int(point.strategy_label.split("=")[1]), point.al)
        for _, point, _ in results
    )
    als = [al for _, al in by_k]
    assert als == sorted(als)
    assert als[0] < als[-1]  # masking does delay output on this corpus


def test_sweep_single_cell_matches_run(workspace, tmp_path, capsys):
    tmp_path, cfg, cfg_path = workspace
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(
        json.dumps({"base": cfg.to_dict(), "axes": {"k_mask": [3]}}), encoding="utf-8"
    )
    out_dir = tmp_path / "sweepout"
    assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    csv_lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    assert csv_lines[0] == TradeoffPoint.CSV_HEADER
    assert len(csv_lines) == 2

    assert main(["run", "--config", str(cfg_path), "--strategy", "mask_k", "--k-mask", "3"]) == 0
    run_row = capsys.readouterr().out.strip().splitlines()[-1]
    assert csv_lines[1] == run_row


def test_sweep_cells_and_labels(workspace):
    _, cfg, _ = workspace
    spec = SweepSpec.from_dict(
        {
            "base": cfg.to_dict(),
            "axes": {"k_mask": [1, 2], "bias_beta": [0.0, 0.5]},
            "dynamic_cells": [{"strategy": "unknown", "k": 1}],
            "include_none": True,
            "include_oracle": True,
        }
    )
    cells = spec.cells()
    labels = [c.label for c in cells]
    assert len(set(labels)) == len(labels)
    assert "none" in labels and "oracle" in labels
    assert "mask_k=1,beta=0.5" in labels
    assert "dynamic:unknown,k=1" in labels
    assert len(cells) == 2 + 1 + 4 + 2  # none per beta, oracle, mask grid, dynamic per beta


def test_sweep_duplicate_labels_rejected(workspace):
    _, cfg, _ = workspace
    with pytest.raises(ConfigError):
        SweepSpec.from_dict(
            {"base": cfg.to_dict(), "axes": {"k_mask": [1, 1]}}
        ).cells()


def test_sweep_empty_spec_rejected(workspace):
    _, cfg, _ = workspace
    with pytest.raises(ConfigError):
        SweepSpec.from_dict({"base": cfg.to_dict()}).cells()


def test_sweep_pareto_and_traces(workspace, tmp_path, capsys):
    tmp_path, cfg, _ = workspace
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(
        json.dumps(
            {
                "base": cfg.to_dict(),
                "axes": {"k_mask": [0, 4, 8]},
                "include_oracle": True,
            }
        ),
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    assert main([
        "sweep", "--spec", str(spec_path), "--out-dir", str(out_dir),
        "--pareto", "--traces", "--parallelism", "2",
    ]) == 0
    capsys.readouterr()
    assert (out_dir / "sweep.csv").exists()
    pareto_lines = (out_dir / "sweep_pareto.csv").read_text().strip().splitlines()
    assert pareto_lines[0] == TradeoffPoint.CSV_HEADER
    assert len(pareto_lines) >= 2
    trace_files = sorted(p.name for p in out_dir.glob("*.jsonl"))
    assert "oracle.jsonl" in trace_files
    assert "mask_k=4.jsonl" in trace_files
    # oracle dominates everything on NE; it must be on the frontier
    assert any(line.startswith("oracle,") for line in pareto_lines[1:])


def test_sweep_workers_do_not_change_results(workspace):
    _, cfg, _ = workspace
    data = {
        "base": cfg.to_dict(),
        "axes": {"k_mask": [0, 2, 4]},
        "dynamic_cells": [{"strategy": "random", "k": 2, "n": 2}],
        "include_oracle": True,
    }
    spec = SweepSpec.from_dict(data)
    parallel_spec = SweepSpec.from_dict(data, base_parallelism=4)
    serial = [(c.label, p) for c, p, _ in run_sweep(spec)]
    parallel = [(c.label, p) for c, p, _ in run_sweep(parallel_spec)]
    assert serial == parallel


def _write_sweep_spec(tmp_path, cfg: RunConfig, **extra) -> Path:
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(_sweep_spec_dict(cfg, **extra)), encoding="utf-8")
    return path


@pytest.mark.parametrize("value", ["0", "-3"])
def test_parallelism_below_one_exits_2(workspace, tmp_path, capsys, value):
    tmp_path, cfg, cfg_path = workspace
    spec_path = _write_sweep_spec(tmp_path, cfg)
    assert main(["run", "--config", str(cfg_path), "--parallelism", value]) == 2
    assert "parallelism must be >= 1" in capsys.readouterr().err
    assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out"),
                 "--parallelism", value]) == 2
    assert "parallelism must be >= 1" in capsys.readouterr().err


def test_sweep_missing_lm_fails_before_any_work(workspace, tmp_path, capsys, monkeypatch):
    tmp_path, cfg, _ = workspace
    spec_path = _write_sweep_spec(
        tmp_path, cfg, dynamic_cells=[{"strategy": "lm_greedy", "k": 1}]
    )
    simulated = []
    monkeypatch.setattr(sim, "simulate_sentence", lambda *args: simulated.append(args))
    assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "cell 'dynamic:lm_greedy,k=1,n=1'" in err
    assert "needs an LM: run's --lm, or lm_path in a run config or a sweep's base config" in err
    assert simulated == []


def test_sweep_ignores_its_base_strategy(workspace, tmp_path, capsys):
    # a base whose strategy needs an LM the spec does not name runs its
    # mask_k cells exactly as a base with no strategy of note
    tmp_path, cfg, _ = workspace
    csvs = []
    for strategy in ({"kind": "dynamic", "predictor": {"strategy": "lm_greedy"}},
                     {"kind": "none"}):
        spec = _sweep_spec_dict(cfg)
        spec["base"]["strategy"] = strategy
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out_dir = tmp_path / strategy["kind"]
        code = main(["sweep", "--spec", str(spec_path), "--out-dir", str(out_dir)])
        assert code == 0, capsys.readouterr().err
        csvs.append((out_dir / "sweep.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_worker_errors_match_serial_errors(workspace, tmp_path, capsys, command):
    """Two workers each fail on a different sentence; the serial run's error wins."""
    tmp_path, cfg, _ = workspace
    src_lines = ["a b", "b c", "a q", "c r", "d a", "a b"]
    ref_lines = ["x y", "y z", "x x", "z z", "w x", "x y"]
    src, ref = write_corpus(tmp_path, src_lines, ref_lines)
    broken = RunConfig(**{**cfg.__dict__, "source_path": str(src), "reference_path": str(ref)})
    cfg_path = tmp_path / "broken.json"
    save_run_config(broken, cfg_path)
    if command == "run":
        argv = ["run", "--config", str(cfg_path), "--strategy", "oracle"]
    else:
        spec_path = _write_sweep_spec(tmp_path, broken, include_oracle=True)
        argv = ["sweep", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")]
    errors = []
    for jobs in ("1", "2"):
        assert main(argv + ["--parallelism", jobs]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "sentence 2, step 2" in errors[0] and "'q' not in lexicon" in errors[0]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="workers need fork"
)
def test_dead_worker_fails_the_run_instead_of_hanging(workspace, capsys, monkeypatch):
    _, _, cfg_path = workspace
    parent, simulate_sentence = os.getpid(), sim.simulate_sentence

    def die_in_child(*args):
        # this process simulates a shard too, and must live to report
        if os.getpid() != parent:
            os._exit(3)
        return simulate_sentence(*args)

    monkeypatch.setattr(sim, "simulate_sentence", die_in_child)

    def hung(*_):
        pytest.fail("the run hung after a worker died")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        code = main(["run", "--config", str(cfg_path), "--parallelism", "2"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    assert "exited with code 3 before sending its result" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_line, problem",
    [
        ("[1, 2]", "expected a JSON object, got list"),
        ('{"kind": "trace", "schema_version": 1, "final_output": []}',
         "trace lacks 'sentence_id', 'records'"),
        ('{"kind": "trace", "schema_version": 1, "sentence_id": 0, "final_output": [],'
         ' "records": [{"step_index": 1}]}', "malformed step record"),
    ],
)
def test_metrics_malformed_trace_line_exits_2(workspace, tmp_path, capsys, bad_line, problem):
    tmp_path, _, cfg_path = workspace
    traces_path = tmp_path / "t.jsonl"
    assert main(["run", "--config", str(cfg_path), "--traces-out", str(traces_path)]) == 0
    capsys.readouterr()
    header = traces_path.read_text(encoding="utf-8").splitlines()[0]
    traces_path.write_text(header + "\n" + bad_line + "\n", encoding="utf-8")
    assert main(["metrics", "--traces", str(traces_path)]) == 2
    err = capsys.readouterr().err
    assert f"{traces_path}:2: {problem}" in err


def _blank_one_display(header, traces):
    for trace in traces:
        for rec in trace["records"][:-1]:
            if rec["emitted_output"]:
                rec["mask_length"] = len(rec["raw_hypothesis"])
                rec["emitted_output"] = []
                return f"sentence {trace['sentence_id']}, step {rec['step_index']}: emitted []"
    raise AssertionError("no displayed non-final step")


def _renumber_first_step(header, traces):
    traces[0]["records"][0]["step_index"] = 7
    return f"sentence {traces[0]['sentence_id']}, step 1: step_index 7"


def _break_header_config(header, traces):
    header["config"] = {"strategy": {"kind": "bogus"}}
    return "run header: bad run config"


def _score_tampered(workspace, capsys, command, tamper):
    """Write a dynamic run's traces to t.jsonl, edit them with tamper(header, traces)
    and score the file with command, which must exit 2 and print nothing.

    Returns (the trace file, tamper's result, the command's stderr)."""
    tmp_path, _, cfg_path = workspace
    traces_path = tmp_path / "t.jsonl"
    assert main(["run", "--config", str(cfg_path), "--strategy", "dynamic",
                 "--predictor", "random", "--pred-k", "2", "--pred-n", "2",
                 "--traces-out", str(traces_path)]) == 0
    header, *traces = map(json.loads, traces_path.read_text(encoding="utf-8").splitlines())
    result = tamper(header, traces)
    traces_path.write_text(
        "".join(json.dumps(line) + "\n" for line in (header, *traces)), encoding="utf-8"
    )
    capsys.readouterr()
    assert main([command, "--traces", str(traces_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return traces_path, result, captured.err


@pytest.mark.parametrize("command", ["metrics", "mask-hist"])
@pytest.mark.parametrize(
    "tamper", [_blank_one_display, _renumber_first_step, _break_header_config]
)
def test_tampered_traces_exit_2_before_scoring(workspace, capsys, command, tamper):
    traces_path, problem, err = _score_tampered(workspace, capsys, command, tamper)
    assert f"{traces_path}: {problem}" in err


def _swap_token(trace, new):
    """Every occurrence of the trace's first output token, in every target field, becomes new."""
    old = trace["final_output"][0]

    def swap(tokens):
        return [new if tok == old else tok for tok in tokens]

    for rec in trace["records"]:
        rec["raw_hypothesis"] = swap(rec["raw_hypothesis"])
        rec["emitted_output"] = swap(rec["emitted_output"])
        rec["probes"] = [swap(probe) for probe in rec["probes"]]
    trace["final_output"] = swap(trace["final_output"])
    trace["reference"] = swap(trace["reference"])


# each edit of the first trace line (line 2) with the error it must raise
MISTYPED_TRACES = [
    ("list-token", lambda tr: _swap_token(tr, ["x"]),
     "malformed step record: TypeError: unhashable type: 'list'"),
    ("int-token", lambda tr: _swap_token(tr, 7), "token 7: expected a string"),
    ("null-token", lambda tr: _swap_token(tr, None), "token None: expected a string"),
    ("int-final-output", lambda tr: tr.update(final_output=5),
     "malformed final_output: TypeError: 'int' object is not iterable"),
    ("int-reference", lambda tr: tr.update(reference=7),
     "malformed reference: TypeError: 'int' object is not iterable"),
    ("string-final-output", lambda tr: tr.update(final_output="".join(tr["final_output"])),
     "malformed final_output: TypeError: expected an array of strings, got str"),
    ("string-reference", lambda tr: tr.update(reference="".join(tr["reference"])),
     "malformed reference: TypeError: expected an array of strings, got str"),
    ("string-sentence-id", lambda tr: tr.update(sentence_id=str(tr["sentence_id"])),
     "sentence_id: expected int, got '0'"),
    ("bool-sentence-id", lambda tr: tr.update(sentence_id=False),
     "sentence_id: expected int, got False"),
    ("float-mask-length", lambda tr: tr["records"][0].update(mask_length=0.0),
     "step record 1: mask_length: expected int, got 0.0"),
    ("int-final-flag", lambda tr: tr["records"][-1].update(is_final=1),
     "step record 5: is_final: expected bool, got 1"),
]


@pytest.mark.parametrize("command", ["metrics", "mask-hist"])
@pytest.mark.parametrize(
    "tamper, problem", [pytest.param(*case[1:], id=case[0]) for case in MISTYPED_TRACES]
)
def test_mistyped_trace_field_exits_2_naming_its_line(workspace, capsys, command, tamper,
                                                      problem):
    traces_path, _, err = _score_tampered(
        workspace, capsys, command, lambda header, traces: tamper(traces[0])
    )
    assert f"{traces_path}:2: {problem}" in err


@pytest.mark.parametrize("command", ["metrics", "mask-hist"])
@pytest.mark.parametrize("stale", ["edited", "missing"])
def test_run_header_config_hash_is_checked(workspace, capsys, command, stale):
    tmp_path, _, cfg_path = workspace
    traces_path = tmp_path / "t.jsonl"
    assert main(["run", "--config", str(cfg_path), "--traces-out", str(traces_path)]) == 0
    header, *traces = traces_path.read_text(encoding="utf-8").splitlines()
    header = json.loads(header)
    if stale == "edited":
        header["config"]["ne_mode"] = "corpus"  # scores differently, hash left as it was
    else:
        del header["config_hash"]
    traces_path.write_text(
        "".join(line + "\n" for line in (json.dumps(header), *traces)), encoding="utf-8"
    )
    capsys.readouterr()
    assert main([command, "--traces", str(traces_path)]) == 2
    captured = capsys.readouterr()
    assert f"{traces_path}:1: run header config_hash" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["metrics", "mask-hist"])
@pytest.mark.parametrize("placement", ["appended", "repeated", "moved"])
def test_misplaced_run_header_exits_2(workspace, capsys, command, placement):
    tmp_path, _, cfg_path = workspace
    paths = {kind: tmp_path / f"{kind}.jsonl" for kind in ("mask_k", "none")}
    for kind, path in paths.items():
        assert main(["run", "--config", str(cfg_path), "--strategy", kind, "--k-mask", "1",
                     "--traces-out", str(path)]) == 0
    header, *traces = paths["mask_k"].read_text(encoding="utf-8").splitlines()
    other = paths["none"].read_text(encoding="utf-8").splitlines()[0]
    if placement == "appended":
        lines, problem = [header, *traces, other], f":{len(traces) + 2}: second run header"
    elif placement == "repeated":
        lines, problem = [header, other, *traces], ":2: second run header"
    else:
        lines, problem = [traces[0], header, *traces[1:]], ":2: run header after the first trace"
    paths["mask_k"].write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--traces", str(paths["mask_k"])]) == 2
    captured = capsys.readouterr()
    assert f"{paths['mask_k']}{problem}" in captured.err
    assert captured.out == ""


def test_pareto_frontier_logic():
    points = [
        TradeoffPoint("a", al=1.0, ne=1.0, bleu=0, n_sentences=1),
        TradeoffPoint("b", al=2.0, ne=0.5, bleu=0, n_sentences=1),
        TradeoffPoint("c", al=2.5, ne=0.6, bleu=0, n_sentences=1),  # dominated by b
        TradeoffPoint("d", al=1.0, ne=1.2, bleu=0, n_sentences=1),  # dominated by a
    ]
    assert [p.strategy_label for p in pareto_frontier(points)] == ["a", "b"]


def test_mask_hist_none_all_zero(workspace, tmp_path, capsys):
    tmp_path, _, cfg_path = workspace
    traces_path = tmp_path / "t.jsonl"
    assert main(["run", "--config", str(cfg_path), "--strategy", "none",
                 "--traces-out", str(traces_path)]) == 0
    capsys.readouterr()
    assert main(["mask-hist", "--traces", str(traces_path), "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "mask_length,count"
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_mask_hist_fixed_mask_concentrates(workspace, tmp_path, capsys):
    tmp_path, _, cfg_path = workspace
    traces_path = tmp_path / "t.jsonl"
    # corpus sentences are at least 2 tokens; with mask 2 every non-final
    # hypothesis (length == prefix length here) masks min(len, 2) tokens
    assert main(["run", "--config", str(cfg_path), "--strategy", "mask_k", "--k-mask", "2",
                 "--traces-out", str(traces_path)]) == 0
    capsys.readouterr()
    _, traces = read_traces(traces_path)
    hist = mask_histogram(traces)
    long_enough = sum(
        1
        for tr in traces
        for rec in tr.records
        if not rec.is_final and len(rec.raw_hypothesis) >= 2
    )
    assert hist.get(2, 0) == long_enough


def test_mask_hist_schema_mismatch_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        json.dumps({"kind": "trace", "schema_version": 99, "sentence_id": 0,
                     "final_output": [], "records": []}) + "\n",
        encoding="utf-8",
    )
    assert main(["mask-hist", "--traces", str(bad)]) == 2
    assert "schema version" in capsys.readouterr().err


def test_make_synthetic_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["make-synthetic", "--out-dir", str(d1), "--sentences", "20",
                 "--vocab", "10", "--seed", "7"]) == 0
    assert main(["make-synthetic", "--out-dir", str(d2), "--sentences", "20",
                 "--vocab", "10", "--seed", "7"]) == 0
    capsys.readouterr()
    for name in ("synthetic.src", "synthetic.ref", "synthetic.lexicon"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    src_lines = (d1 / "synthetic.src").read_text().strip().splitlines()
    assert len(src_lines) == 20
    assert all(3 <= len(line.split()) <= 20 for line in src_lines)
    # the emitted run config is directly usable
    assert main(["run", "--config", str(d1 / "run.json")]) == 0


def test_cli_unknown_strategy_flag_exits_2(workspace):
    _, _, cfg_path = workspace
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(cfg_path), "--strategy", "bogus"])
    assert exit_info.value.code == 2


def test_load_sweep_spec_requires_base(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_sweep_spec(path)
