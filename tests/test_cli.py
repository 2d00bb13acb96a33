from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retransim import sim, synthetic, translator
from retransim.cli import main
from retransim.metrics import TradeoffPoint, mask_histogram, pareto_frontier
from retransim.sim import SweepSpec, load_sweep_spec, run_sweep
from retransim.predict import LM_FORMAT, load_lm
from retransim.sim import ConfigError, RunConfig, read_traces, save_run_config
from retransim.strategy import KINDS, StrategyConfig
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
    assert capsys.readouterr().out == metrics_path.read_text()  # prints the CSV it writes
    recomputed = tmp_path / "m2.csv"
    assert main(["metrics", "--traces", str(traces_path), "--out", str(recomputed)]) == 0
    assert capsys.readouterr().out == recomputed.read_text()
    assert metrics_path.read_text() == recomputed.read_text()
    assert not list(tmp_path.glob("*.tmp"))  # every file was renamed into place


def test_metrics_takes_its_label_from_the_run_header(workspace, capsys):
    # the header names the strategy, so no flag relabels a replayed run
    tmp_path, _, cfg_path = workspace
    traces_path = tmp_path / "t.jsonl"
    assert main(["run", "--config", str(cfg_path), "--traces-out", str(traces_path)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["metrics", "--traces", str(traces_path), "--label", "other"])
    assert info.value.code == 2
    assert "unrecognized arguments: --label other" in capsys.readouterr().err


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


@pytest.fixture
def synthetic_work(tmp_path, monkeypatch, capsys):
    """A small make-synthetic workspace and its LM, as the README's walkthrough makes them."""
    monkeypatch.chdir(tmp_path)
    assert main(["make-synthetic", "--out-dir", "work", "--sentences", "20"]) == 0
    assert main(["train-lm", "--source", "work/synthetic.src", "--order", "3",
                 "--out", "work/lm.json"]) == 0
    capsys.readouterr()
    return tmp_path / "work"


def test_walkthrough_run_and_its_sweep_cell_write_one_file(synthetic_work):
    """A dynamic run over the mask_k template keeps no k_mask, so it hashes
    and writes as the sweep cell of the same strategy does."""
    assert main(["run", "--config", "work/run.json", "--strategy", "dynamic",
                 "--predictor", "lm_greedy", "--pred-k", "1", "--lm", "work/lm.json",
                 "--traces-out", "work/dyn.jsonl"]) == 0
    base = json.loads((synthetic_work / "run.json").read_text(encoding="utf-8"))
    spec = {"base": {**base, "lm_path": "work/lm.json"},
            "dynamic_cells": [{"strategy": "lm_greedy", "k": 1}]}
    Path("sweep.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main(["sweep", "--spec", "sweep.json", "--out-dir", "results", "--traces"]) == 0
    cell = Path("results/dynamic_lm_greedy,k=1,n=1.jsonl").read_bytes()
    assert (synthetic_work / "dyn.jsonl").read_bytes() == cell


def _sweep_over(name: str, base: dict) -> list[str]:
    """Write a sweep spec of base and one mask_k cell to name; its sweep's argv."""
    Path(name).write_text(json.dumps({"base": base, "axes": {"k_mask": [2]}}), encoding="utf-8")
    return ["sweep", "--spec", name]


def _spec_named_as_its_csv(work: Path) -> list[str]:
    base = json.loads((work / "run.json").read_text(encoding="utf-8"))
    return [*_sweep_over("sweep.csv", base), "--out-dir", "."]


def _corpus_in_its_pareto_file(work: Path) -> list[str]:
    Path("res").mkdir()
    Path("res/sweep_pareto.csv").write_bytes((work / "synthetic.src").read_bytes())
    base = json.loads((work / "run.json").read_text(encoding="utf-8"))
    base["source_path"] = "res/sweep_pareto.csv"
    return [*_sweep_over("s.json", base), "--out-dir", "res", "--pareto"]


def _sweep_csv_a_directory(work: Path) -> list[str]:
    Path("out/sweep.csv").mkdir(parents=True)
    base = json.loads((work / "run.json").read_text(encoding="utf-8"))
    return [*_sweep_over("s.json", base), "--out-dir", "out", "--traces"]


def _sweep_pareto_a_directory(work: Path) -> list[str]:
    Path("res/sweep_pareto.csv").mkdir(parents=True)
    base = json.loads((work / "run.json").read_text(encoding="utf-8"))
    return [*_sweep_over("s.json", base), "--out-dir", "res", "--pareto"]


def _metrics_out_a_directory(work: Path) -> list[str]:
    assert main(["run", "--config", "work/run.json", "--traces-out", "t.jsonl"]) == 0
    Path("m.csv").mkdir()
    return ["metrics", "--traces", "t.jsonl", "--out", "m.csv"]


def _lexicon_as_its_cell_file(work: Path) -> list[str]:
    base = json.loads((work / "run.json").read_text(encoding="utf-8"))
    base["translator"]["lexicon_path"] = "work/mask_k=2.jsonl"
    Path("work/mask_k=2.jsonl").write_bytes((work / "synthetic.lexicon").read_bytes())
    return [*_sweep_over("s.json", base), "--out-dir", "work", "--traces"]


@pytest.mark.parametrize(
    "argv, problem",
    [
        (["run", "--config", "work/run.json", "--metrics-out", "work/synthetic.src"],
         "--metrics-out 'work/synthetic.src' names the same file as source_path "
         "'work/synthetic.src'"),
        (["train-lm", "--source", "work/synthetic.src", "--out", "work/synthetic.src"],
         "--out 'work/synthetic.src' names the same file as --source 'work/synthetic.src'"),
        (["run", "--config", "work/run.json", "--traces-out", "work/synthetic.lexicon"],
         "--traces-out 'work/synthetic.lexicon' names the same file as translator.lexicon_path "
         "'work/synthetic.lexicon'"),
        (["run", "--config", "work/run.json", "--traces-out", "./work/run.json"],
         "--traces-out './work/run.json' names the same file as --config 'work/run.json'"),
        (["run", "--config", "work/run.json", "--reference", "work/synthetic.ref",
          "--metrics-out", "work/../work/synthetic.ref"],
         "--metrics-out 'work/../work/synthetic.ref' names the same file as --reference "
         "'work/synthetic.ref'"),
        (["run", "--config", "work/run.json", "--strategy", "dynamic", "--predictor", "lm_greedy",
          "--lm", "work/lm.json", "--traces-out", "work/lm.json"],
         "--traces-out 'work/lm.json' names the same file as --lm 'work/lm.json'"),
        (_spec_named_as_its_csv, "--out-dir 'sweep.csv' names the same file as --spec 'sweep.csv'"),
        (_corpus_in_its_pareto_file, "--out-dir 'res/sweep_pareto.csv' names the same file as "
         "base.source_path 'res/sweep_pareto.csv'"),
        (_lexicon_as_its_cell_file, "--out-dir 'work/mask_k=2.jsonl' names the same file as "
         "base.translator.lexicon_path 'work/mask_k=2.jsonl'"),
        (["run", "--config", "work/run.json", "--traces-out", "work"], "'work' is a directory"),
        (["run", "--config", "work/run.json", "--metrics-out", "new/m.csv"],
         "'new/m.csv': 'new' is not a directory"),
        (_sweep_csv_a_directory, "'out/sweep.csv' is a directory"),
        (_sweep_pareto_a_directory, "'res/sweep_pareto.csv' is a directory"),
        (_metrics_out_a_directory, "'m.csv' is a directory"),
        (["train-lm", "--source", "work/synthetic.src", "--out", "work"], "'work' is a directory"),
    ],
    ids=["run-metrics-over-source", "train-lm-over-its-source", "run-traces-over-lexicon",
         "run-traces-over-config", "run-metrics-over-reference-flag", "run-traces-over-lm",
         "sweep-csv-over-spec", "sweep-pareto-over-base-source", "sweep-cell-over-base-lexicon",
         "run-traces-a-directory", "run-metrics-in-no-directory", "sweep-csv-a-directory",
         "sweep-pareto-a-directory", "metrics-out-a-directory", "train-lm-out-a-directory"],
)
def test_an_output_over_an_input_exits_2_before_any_work(synthetic_work, monkeypatch, capsys,
                                                         argv, problem):
    """No command writes over a file it reads or over a directory: each
    output path is refused, before any work, when it is a directory, lies in
    no directory, or resolves to an input or to another output."""
    if callable(argv):
        argv = argv(synthetic_work)
    capsys.readouterr()
    # directories too, so that a refused command is seen to make none
    tree = {path: path.is_file() and path.read_bytes() for path in Path().rglob("*")}
    monkeypatch.setattr(sim, "simulate_sentence", None)
    monkeypatch.setattr("retransim.cli.train_lm", None)
    monkeypatch.setattr("retransim.cli.read_valid_traces", None)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {problem}\n"
    assert captured.out == ""
    # every input is left byte for byte, and no output is made
    assert {path: path.is_file() and path.read_bytes() for path in Path().rglob("*")} == tree


def _echoed(err: str) -> dict:
    return json.loads(next(line for line in err.splitlines() if line.startswith("{")))


def test_no_char_mode_overrides_a_configs_true(synthetic_work, capsys):
    config = json.loads((synthetic_work / "run.json").read_text(encoding="utf-8"))
    Path("char.json").write_text(json.dumps({**config, "char_mode": True}), encoding="utf-8")
    assert main(["run", "--config", "char.json", "--no-char-mode", "--echo-config"]) == 0
    assert _echoed(capsys.readouterr().err)["char_mode"] is False


def test_echo_config_prints_before_a_failing_run(synthetic_work, capsys):
    config = json.loads((synthetic_work / "run.json").read_text(encoding="utf-8"))
    Path("char.json").write_text(json.dumps({**config, "char_mode": True}), encoding="utf-8")
    assert main(["run", "--config", "char.json", "--echo-config"]) == 2
    err = capsys.readouterr().err
    assert "not in lexicon" in err
    assert _echoed(err)["char_mode"] is True


def test_the_predictor_seed_alone_seeds_a_draw(synthetic_work, capsys):
    """One draw seed: a drawing predictor's seeds each draw their own probes,
    and every seed value that would draw like another one is refused."""
    base = json.loads((synthetic_work / "run.json").read_text(encoding="utf-8"))

    def run(change: dict, *flags: str) -> int:
        config = {**base, "lm_path": "work/lm.json", **change}
        Path("seeded.json").write_text(json.dumps(config), encoding="utf-8")
        return main(["run", "--config", "seeded.json", *flags])

    def dynamic(**predictor) -> dict:
        return {"strategy": {"kind": "dynamic", "predictor": predictor}}

    # (a) seeds 0, 1 and 2**64 - 1 write pairwise different trace lines
    for strategy in ("random", "lm_sample"):
        bodies = set()
        for seed in (0, 1, 2**64 - 1):
            traces = f"{strategy}-{seed}.jsonl"
            assert run(dynamic(strategy=strategy, k=2, n=2, seed=seed),
                       "--traces-out", traces) == 0
            bodies.add(Path(traces).read_text(encoding="utf-8").split("\n", 1)[1])
        assert len(bodies) == 3, strategy
    capsys.readouterr()

    # (b) a refused value exits 2 naming its key, before any trace is written
    random_0 = dynamic(strategy="random", seed=0)
    toy = base["translator"]
    for change, flags, named in [
        ({"seed": 1}, (), "bad run config: seed must be 0, got 1: use strategy.predictor.seed"),
        ({"seed": 1, **random_0}, (), "bad run config: seed must be 0, got 1"),
        (dynamic(strategy="random", seed=-1), (),
         "strategy.predictor: seed must be in [0, 2**64), got -1"),
        (dynamic(strategy="lm_sample", seed=2**64), (),
         f"strategy.predictor: seed must be in [0, 2**64), got {2**64}"),
        (dynamic(strategy="lm_greedy", seed=7), (),
         "strategy.predictor: seed is for lm_sample and random only, got 7 with lm_greedy"),
        (dynamic(strategy="unknown", seed=7), (),
         "strategy.predictor: seed is for lm_sample and random only, got 7 with unknown"),
        ({"translator": {**toy, "seed": -1}}, (),
         "translator: toy translator: seed must be in [0, 2**64), got -1"),
        ({"translator": {**toy, "seed": 2**64}}, (),
         f"translator: toy translator: seed must be in [0, 2**64), got {2**64}"),
        ({}, ("--model-seed", "-1"), "translator: toy translator: seed must be in [0, 2**64)"),
    ]:
        assert run(change, *flags, "--traces-out", "refused.jsonl") == 2, named
        assert named in capsys.readouterr().err
        assert not Path("refused.jsonl").exists()
    Path("sweep.json").write_text(
        json.dumps({"base": {**base, "seed": 1}, "axes": {"k_mask": [1]}}), encoding="utf-8"
    )
    assert main(["sweep", "--spec", "sweep.json", "--out-dir", "results", "--traces"]) == 2
    assert "bad sweep spec: base: seed must be 0, got 1" in capsys.readouterr().err
    assert not Path("results/mask_k=1.jsonl").exists()

    # (c) a header that holds a run seed, under its own hash, is refused
    header, rest = Path("random-0.jsonl").read_text(encoding="utf-8").split("\n", 1)
    header = json.loads(header)
    header["config"]["seed"] = 3
    canonical = json.dumps(header["config"], sort_keys=True, ensure_ascii=False)
    header["config_hash"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    Path("seed3.jsonl").write_text(json.dumps(header) + "\n" + rest, encoding="utf-8")
    assert main(["metrics", "--traces", "seed3.jsonl"]) == 2
    assert "run header: bad run config: seed must be 0, got 3" in capsys.readouterr().err

    # (d) run takes no --seed
    with pytest.raises(SystemExit) as info:
        main(["run", "--config", "work/run.json", "--seed", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, piped",
    [(["--traces-out", "/dev/stdout"], False), (["--metrics-out", "/dev/stdout"], False),
     (["--traces-out", "/dev/stdout"], True),
     # a path that exists as no regular file may be given twice
     (["--traces-out", "/dev/null", "--metrics-out", "/dev/null"], True)],
    ids=["--traces-out", "--metrics-out", "--traces-out-piped", "dev-null"],
)
def test_dev_stdout_redirected_to_a_file_keeps_every_line_in_order(workspace, flags, piped):
    """With standard output on a regular file, /dev/stdout names that file:
    what is written to it and what is printed after both stay, in order. So
    they do with standard output on a pipe, and /dev/null takes what is
    written to it and drops it."""
    tmp_path, _, cfg_path = workspace
    out = tmp_path / "out.txt"
    env = dict(os.environ, PYTHONPATH=str(Path(sim.__file__).parents[1]))
    with open(out, "wb") as stdout:
        child = subprocess.run(
            [sys.executable, "-m", "retransim.cli", "run", "--config", str(cfg_path), *flags],
            stdout=subprocess.PIPE if piped else stdout, stderr=subprocess.PIPE, env=env,
            check=True, timeout=60,
        )
    text = child.stdout.decode("utf-8") if piped else out.read_text(encoding="utf-8")
    *written, csv_header, csv_row = text.splitlines()
    plain = io.StringIO()  # what the same run prints with no output flag
    with contextlib.redirect_stdout(plain), contextlib.redirect_stderr(io.StringIO()):
        assert main(["run", "--config", str(cfg_path)]) == 0
    assert [csv_header, csv_row] == plain.getvalue().splitlines()
    if flags == ["--traces-out", "/dev/stdout"]:
        header, *traces = map(json.loads, written)
        assert header["kind"] == "run_header"
        assert [trace["sentence_id"] for trace in traces] == list(range(6))
    elif flags == ["--metrics-out", "/dev/stdout"]:  # the metrics file, then the same lines
        assert written == [csv_header, csv_row]
    else:
        assert written == []
    assert not list(tmp_path.glob("*.tmp"))


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
    assert capsys.readouterr().out == (out_dir / "sweep.csv").read_text()  # prints what it writes
    assert not list(out_dir.glob("*.tmp"))  # every file was renamed into place
    pareto_lines = (out_dir / "sweep_pareto.csv").read_text().strip().splitlines()
    assert pareto_lines[0] == TradeoffPoint.CSV_HEADER
    assert len(pareto_lines) >= 2
    trace_files = sorted(p.name for p in out_dir.glob("*.jsonl"))
    assert "oracle.jsonl" in trace_files
    assert "mask_k=4.jsonl" in trace_files
    # oracle dominates everything on NE; it must be on the frontier
    assert any(line.startswith("oracle,") for line in pareto_lines[1:])
    # every cell file reads back and scores
    for name in trace_files:
        for command in ("metrics", "mask-hist"):
            assert main([command, "--traces", str(out_dir / name)]) == 0, (command, name)


def test_sweep_workers_do_not_change_results(workspace):
    _, cfg, _ = workspace
    data = {
        "base": cfg.to_dict(),
        "axes": {"k_mask": [0, 2, 4]},
        "dynamic_cells": [{"strategy": "random", "k": 2, "n": 2}],
        "include_oracle": True,
    }
    spec = SweepSpec.from_dict(data)
    parallel_spec = dataclasses.replace(spec, base=dataclasses.replace(spec.base, parallelism=4))
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


class _OutOfMemory:  # a kernel whose every allocation fails
    def rt_beam_search_many(self, n_requests, *args):
        lengths = args[-2]
        for r in range(n_requests):
            lengths[r] = translator._KERNEL_NO_MEMORY


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_located_failure_that_is_no_input_error_exits_1(
    workspace, tmp_path, capsys, monkeypatch, command
):
    _, cfg, cfg_path = workspace
    monkeypatch.setattr(translator, "_kernel", _OutOfMemory())
    if command == "run":
        argv = ["run", "--config", str(cfg_path)]
    else:
        spec_path = _write_sweep_spec(tmp_path, cfg)
        argv = ["sweep", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "sentence 0, step 1: beam search kernel: out of memory" in capsys.readouterr().err


# buffered, the write fails when main flushes; unbuffered, in the command
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_closed_standard_output_exits_1_without_a_message(workspace, buffered):
    tmp_path, _, cfg_path = workspace
    traces = tmp_path / "t.jsonl"
    assert main(["run", "--config", str(cfg_path), "--traces-out", str(traces)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(sim.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen(
        [sys.executable, "-m", "retransim.cli", "mask-hist", "--traces", str(traces)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    child.stdout.close()  # before the interpreter has started, so before any write
    err = child.stderr.read()
    assert child.wait(timeout=60) == 1
    assert err == b""  # no "internal error" and no "Exception ignored" at exit


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_script_miss_exits_2_from_any_shard(workspace, tmp_path, capsys, jobs):
    """Sentence 0 is scripted and sentence 1 is not: at parallelism 2 the
    miss that comes first happens in the forked child."""
    tmp_path, cfg, _ = workspace
    script = tmp_path / "script.tsv"
    script.write_text("".join(f"{' '.join('abcda'[:n])}\tx\n" for n in range(1, 6)),
                      encoding="utf-8")
    data = {**cfg.to_dict(), "translator": {"kind": "scripted", "script_path": str(script)}}
    cfg_path = tmp_path / "scripted.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path), "--parallelism", jobs]) == 2
    assert "error: sentence 1, step 1: no script entry for prefix 'c'" in capsys.readouterr().err


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="workers need fork"
)
@pytest.mark.parametrize(
    "command, location",
    [("run", "sentence 1, step 1"), ("sweep", "cell 'mask_k=0': sentence 1, step 1")],
)
def test_a_located_failure_from_a_forked_child_exits_1(
    workspace, capsys, monkeypatch, command, location
):
    """The kernel runs out of memory in the forked child only, whose shard
    holds sentence 1: the located error crosses the pipe whole."""
    tmp_path, cfg, cfg_path = workspace
    parent, simulate_sentence = os.getpid(), sim.simulate_sentence

    def out_of_memory_in_child(*args):
        if os.getpid() != parent:
            translator._kernel = _OutOfMemory()
        return simulate_sentence(*args)

    monkeypatch.setattr(sim, "simulate_sentence", out_of_memory_in_child)
    if command == "run":
        argv = ["run", "--config", str(cfg_path)]
    else:
        spec_path = _write_sweep_spec(tmp_path, cfg)
        argv = ["sweep", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")]
    assert main(argv + ["--parallelism", "2"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {location}: beam search kernel: out of memory\n"


def test_a_script_miss_in_a_forked_child_fails_its_sweep_cell_with_exit_2(workspace, capsys):
    """Sentence 0 is scripted and sentence 1, which the forked child
    simulates at parallelism 2, is not."""
    tmp_path, cfg, _ = workspace
    script = tmp_path / "script.tsv"
    script.write_text("".join(f"{' '.join('abcda'[:n])}\tx\n" for n in range(1, 6)),
                      encoding="utf-8")
    data = {**cfg.to_dict(), "translator": {"kind": "scripted", "script_path": str(script)}}
    spec_path = _write_sweep_spec(tmp_path, RunConfig.from_dict(data))
    argv = ["sweep", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out"),
            "--parallelism", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: cell 'mask_k=0': sentence 1, step 1: no script entry for prefix 'c'\n"
    )


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
            if displayed := rec["emitted_output"]:
                rec["mask_length"] = len(rec["raw_hypothesis"])
                rec["emitted_output"] = []
                return (f"sentence {trace['sentence_id']}, step {rec['step_index']}: "
                        f"emitted_output [], expected {displayed}")
    raise AssertionError("no displayed non-final step")


def _swap_first_traces(header, traces):
    traces[0], traces[1] = traces[1], traces[0]
    return f"sentence {traces[1]['sentence_id']} after {traces[0]['sentence_id']}"


def _renumber_first_step(header, traces):
    traces[0]["records"][0]["step_index"] = 7
    return f"sentence {traces[0]['sentence_id']}, step 1: step_index 7"


def _lengthen_first_mask(header, traces):
    rec = traces[0]["records"][0]  # a non-final step: every sentence has two tokens or more
    rec["mask_length"] += 1
    return (f"sentence {traces[0]['sentence_id']}, step 1: mask_length {rec['mask_length']}, "
            f"expected {rec['mask_length'] - 1}")


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
    "tamper",
    [_blank_one_display, _swap_first_traces, _renumber_first_step, _lengthen_first_mask,
     _break_header_config],
)
def test_tampered_traces_exit_2_before_scoring(workspace, capsys, command, tamper):
    traces_path, problem, err = _score_tampered(workspace, capsys, command, tamper)
    assert f"{traces_path}: {problem}" in err


def _empty_corpus(tmp_path, cfg_path):
    src, ref = tmp_path / "empty.src", tmp_path / "empty.ref"
    src.write_text("", encoding="utf-8")
    ref.write_text("", encoding="utf-8")
    return (["run", "--config", str(cfg_path), "--source", str(src), "--reference", str(ref)],
            f"{src}: empty corpus")


def _scored_traces(tamper):
    """A case that scores a run's trace file after tamper(traces) edits it;
    tamper returns the problem named after the file."""
    def case(tmp_path, cfg_path):
        path = tmp_path / "t.jsonl"
        assert main(["run", "--config", str(cfg_path), "--traces-out", str(path)]) == 0
        header, *traces = map(json.loads, path.read_text(encoding="utf-8").splitlines())
        problem = tamper(traces)
        path.write_text("".join(json.dumps(line) + "\n" for line in (header, *traces)),
                        encoding="utf-8")
        return ["metrics", "--traces", str(path)], f"{path}: {problem}"
    return case


def _drop_every_trace(traces):
    traces.clear()
    return "no traces"


def _empty_first_records(traces):
    traces[0]["records"] = []
    return "sentence 0: no records"


def _drop_first_record(traces):
    records = traces[0]["records"]
    del records[0]
    return f"sentence 0: {len(records)} records for {len(records) + 1} source tokens"


def _erasing_sweep(ne_mode, problem):
    """A case whose one sweep cell, none, erases the only token it showed at
    the final step, so the sentence ends with an empty translation."""
    def case(tmp_path, cfg_path):
        src, ref = write_corpus(tmp_path, ["a b"], ["x y"])
        script = tmp_path / "script.tsv"
        script.write_text("a\tx\na b\t\n", encoding="utf-8")
        base = {"source_path": str(src), "reference_path": str(ref), "ne_mode": ne_mode,
                "translator": {"kind": "scripted", "script_path": str(script)},
                "strategy": {"kind": "none"}}
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"base": base, "include_none": True}), encoding="utf-8")
        return (["sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "out")],
                f"cell 'none': {problem}")
    return case


def _erasing_second_sweep_cell(tmp_path, cfg_path):
    """A sweep with --traces whose first cell, mask_k=5, scores, and whose
    second, mask_k=1, erases the one token it showed at the final step."""
    src, ref = write_corpus(tmp_path, ["a b"], ["x"])
    script = tmp_path / "script.tsv"
    script.write_text("a\tp q\na b\t\n", encoding="utf-8")
    base = {"source_path": str(src), "reference_path": str(ref),
            "translator": {"kind": "scripted", "script_path": str(script)},
            "strategy": {"kind": "none"}}
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"base": base, "axes": {"k_mask": [5, 1]}}), encoding="utf-8")
    return (["sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "out"), "--traces"],
            "cell 'mask_k=1': sentence 0: 1 tokens erased but final output is empty")


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(_empty_corpus, id="empty-corpus"),
        pytest.param(_scored_traces(_drop_every_trace), id="header-only-trace"),
        pytest.param(_scored_traces(_empty_first_records), id="no-records"),
        pytest.param(_scored_traces(_drop_first_record), id="missing-record"),
        pytest.param(_erasing_sweep("mean", "sentence 0: 1 tokens erased but final output is "
                                    "empty"), id="sweep-erases-to-empty"),
        pytest.param(_erasing_sweep("corpus", "erasure with empty final outputs"),
                     id="sweep-erases-to-empty-corpus-ne"),
        pytest.param(_erasing_second_sweep_cell, id="sweep-second-cell-erases-to-empty"),
    ],
)
def test_input_boundary_exits_2_naming_the_problem(workspace, capsys, case):
    tmp_path, _, cfg_path = workspace
    argv, problem = case(tmp_path, cfg_path)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {problem}" in captured.err
    assert captured.out == ""
    # a failing sweep writes no file, not even the cells scored before the failure
    assert list(tmp_path.glob("out/*")) == []


_RUN_FILES = ["run", "--source", "corpus.src", "--reference", "corpus.ref"]


@pytest.mark.parametrize(
    "files, argv, problem",
    [
        ({"s.tsv": "\tx\n"}, [*_RUN_FILES, "--script", "s.tsv"], "s.tsv:1: empty source prefix"),
        ({"empty.jsonl": ""}, ["metrics", "--traces", "empty.jsonl"], "empty.jsonl: no run header"),
        ({"empty.src": ""}, ["train-lm", "--source", "empty.src", "--out", "lm.json"],
         "empty.src: no sentences"),
        # check_tokens is the lexicon's one rule for an empty token
        ({"lex.txt": "a ||| x ||| 1\n ||| y ||| 1\n"}, [*_RUN_FILES, "--lexicon", "lex.txt"],
         "invalid token '' in lex.txt:2"),
        ({}, ["make-synthetic", "--out-dir", "out", "--min-len", "1"],
         "need 2 <= min_len <= max_len"),
        ({}, ["make-synthetic", "--out-dir", "out", "--vocab", "0"],
         "vocab and sentences must be >= 1"),
        ({}, ["make-synthetic", "--out-dir", "out", "--seed", "-1"], "seed must be >= 0, got -1"),
        # the run config template is checked before any file is written
        ({}, ["make-synthetic", "--out-dir", "out", "--instability", "1000"],
         "flags: bad run config: translator: toy translator: instability must be in [0, 709."),
        ({}, ["make-synthetic", "--out-dir", "out", "--instability", "nan"],
         "flags: bad run config: translator: toy translator: instability: expected float, got "
         "nan"),
        ({"lm.json": json.dumps({"format": LM_FORMAT, "version": 99})},
         ["run", "--config", "run.json", "--strategy", "dynamic", "--predictor", "lm_greedy",
          "--lm", "lm.json"], "lm.json: version 99 unsupported (expected 1)"),
        # a token the corpus reader would split in two: refused on loading, not mid-run
        ({"lm.json": json.dumps({"format": LM_FORMAT, "version": 1, "order": 1,
                                 "smoothing_alpha": 0.1, "vocabulary": ["a", "zz top"],
                                 "counts": {"1": {"": {"a": 1, "zz top": 1}}}})},
         ["run", "--config", "run.json", "--strategy", "dynamic", "--predictor", "lm_sample",
          "--pred-k", "2", "--pred-n", "2", "--lm", "lm.json"],
         "lm.json: invalid token 'zz top' in vocabulary"),
        # a counted token the vocabulary lacks: no sampling table would lay it out
        ({"lm.json": json.dumps({"format": LM_FORMAT, "version": 1, "order": 1,
                                 "smoothing_alpha": 0.1, "vocabulary": ["a"],
                                 "counts": {"1": {"": {"a": 1, "c": 50}}}})},
         ["run", "--config", "run.json", "--strategy", "dynamic", "--predictor", "lm_sample",
          "--lm", "lm.json"],
         "lm.json: invalid token 'c' in counts: not in the vocabulary"),
        ({}, ["run", "--config", "run.json", "--beta", "1.5"],
         "flags over run.json: bad run config: strategy: bias_beta must be in [0, 1]"),
        ({}, ["run", "--config", "run.json", "--strategy", "dynamic", "--predictor", "random",
              "--pred-n", "0"], "flags over run.json: bad run config: strategy.predictor: n must "
         "be >= 1"),
        # one file given twice: the second write would replace the first
        ({}, ["run", "--config", "run.json", "--traces-out", "b.jsonl", "--metrics-out",
              "./b.jsonl"], "--metrics-out './b.jsonl' names the same file as --traces-out "
         "'b.jsonl'"),
        ({"m.jsonl": "traces\n"}, ["metrics", "--traces", "m.jsonl", "--out", "./m.jsonl"],
         "--out './m.jsonl' names the same file as --traces 'm.jsonl'"),
    ],
    ids=["script-empty-prefix", "empty-trace-file", "train-lm-empty-source",
         "lexicon-empty-source", "min-len", "vocab", "negative-seed", "synthetic-instability",
         "synthetic-instability-nan", "lm-version", "lm-token", "lm-counted-token", "beta",
         "pred-n", "run-outputs-one-file", "metrics-out-over-its-traces"],
)
def test_file_or_flag_boundary_exits_2_naming_the_problem(workspace, monkeypatch, capsys, files,
                                                          argv, problem):
    tmp_path, _, _ = workspace
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sim, "simulate_sentence", None)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {problem}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()
    for name, text in files.items():  # an input is left as it was
        assert (tmp_path / name).read_text(encoding="utf-8") == text


def test_instability_past_exps_range_exits_2_before_simulating(workspace, monkeypatch, capsys):
    _, _, cfg_path = workspace
    monkeypatch.setattr(sim, "simulate_sentence", None)
    assert main(["run", "--config", str(cfg_path), "--instability", "1000"]) == 2
    captured = capsys.readouterr()
    assert "toy translator: instability must be in [0, 709." in captured.err
    assert captured.out == ""


@pytest.fixture(scope="module")
def walkthrough_work(tmp_path_factory):
    """The README walkthrough's default make-synthetic corpus (200 sentences),
    its LM, and its lexicon without 'vedita', which sentence 1 holds and
    sentence 0 lacks."""
    work = tmp_path_factory.mktemp("walkthrough")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["make-synthetic", "--out-dir", str(work)]) == 0
        assert main(["train-lm", "--source", str(work / "synthetic.src"), "--order", "3",
                     "--out", str(work / "lm.json")]) == 0
    lexicon = (work / "synthetic.lexicon").read_text(encoding="utf-8").splitlines(keepends=True)
    (work / "short.lexicon").write_text(
        "".join(line for line in lexicon if not line.startswith("vedita |||")), encoding="utf-8"
    )
    return work


_LM_GREEDY = ["--strategy", "dynamic", "--predictor", "lm_greedy", "--pred-k", "1",
              "--lm", "lm.json"]


@pytest.mark.parametrize(
    "flags, code, problem",
    [
        (["--instability", "1000"], 2, "toy translator: instability must be in [0, 709."),
        (["--distortion", "1e-100", "--beam-size", "8"], 0, "config_hash: "),
        (_LM_GREEDY, 0, "config_hash: "),
        # biased: each batch carries the previous outputs
        ([*_LM_GREEDY, "--beta", "0.5"], 0, "config_hash: "),
        (["--strategy", "mask_k", "--k-mask", "2"], 0, "config_hash: "),
        # the full-sentence translation joins each sentence's batch
        (["--strategy", "oracle"], 0, "config_hash: "),
        # the forked child's shard fails first, and its located error crosses the pipe
        (["--lexicon", "short.lexicon", "--parallelism", "2"], 2,
         "error: sentence 1, step 2: source token 'vedita' not in lexicon\n"),
    ],
    ids=["instability-past-exps-range", "underflowing-distortion", "dynamic-lm-greedy",
         "biased", "mask-k", "oracle", "lexicon-without-a-token"],
)
def test_run_outcome_does_not_depend_on_the_kernel(walkthrough_work, tmp_path, monkeypatch,
                                                   capsys, flags, code, problem):
    """The C kernel and the Python beam search, which forked children
    inherit, give the same exit code, output, errors and trace bytes."""
    monkeypatch.chdir(walkthrough_work)
    traces = tmp_path / "t.jsonl"
    argv = ["run", "--config", "run.json", *flags, "--traces-out", str(traces)]
    outcomes = []
    for kernel in (translator._kernel, None):
        monkeypatch.setattr(translator, "_kernel", kernel)
        exit_code = main(argv)
        captured = capsys.readouterr()
        outcomes.append((exit_code, captured.out, captured.err,
                         traces.read_bytes() if traces.exists() else None))
        traces.unlink(missing_ok=True)
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code
    assert problem in outcomes[0][2]


@pytest.fixture(scope="module")
def small_work(tmp_path_factory):
    """A 20-sentence make-synthetic corpus, its run config template and its LM."""
    work = tmp_path_factory.mktemp("small")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["make-synthetic", "--out-dir", str(work), "--sentences", "20",
                     "--max-len", "12"]) == 0
        assert main(["train-lm", "--source", str(work / "synthetic.src"), "--out",
                     str(work / "lm.json")]) == 0
    return work


# a predictor of each kind with its k; n and seed only where PredictorConfig takes them
WHOLE_RUN_PREDICTORS = st.one_of(
    st.fixed_dictionaries({"strategy": st.sampled_from(["lm_sample", "random"]),
                           "k": st.integers(1, 3), "n": st.integers(1, 3),
                           "seed": st.integers(0, 2**64 - 1)}),
    st.fixed_dictionaries({"strategy": st.sampled_from(["lm_greedy", "unknown"]),
                           "k": st.integers(1, 3)}),
)


@st.composite
def whole_run_configs(draw):
    """(strategy, translator parameters) of a valid run over small_work."""
    kind = draw(st.sampled_from(KINDS))
    strategy = {"kind": kind,
                "bias_beta": 0.0 if kind == "oracle" else draw(st.sampled_from([0.0, 0.3, 1.0]))}
    if kind == "mask_k":
        strategy["k_mask"] = draw(st.integers(1, 4))
    if kind == "dynamic":
        strategy["predictor"] = draw(WHOLE_RUN_PREDICTORS)
    params = {"instability": draw(st.sampled_from([0.0, 0.5, 3.0])),
              "beam_size": draw(st.sampled_from([1, 2, 6])),
              "distortion": draw(st.sampled_from([0.2, 1.0]))}
    return strategy, params


def _run_outcome(argv, kernel) -> tuple[int, str]:
    """main's exit code and stdout with translator._kernel set to kernel."""
    saved, translator._kernel = translator._kernel, kernel
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        translator._kernel = saved
    return code, out.getvalue()


@settings(deadline=None, max_examples=40)
@given(case=whole_run_configs())
def test_a_whole_run_depends_on_neither_the_kernel_nor_parallelism(small_work, case):
    """A valid run's exit code, stdout and trace bytes are the same with the
    C kernel and with the Python beam search, and at parallelism 1 and 3;
    metrics on its trace file prints the CSV the run printed."""
    strategy, params = case
    config = json.loads((small_work / "run.json").read_text(encoding="utf-8"))
    config["translator"].update(params)
    config.update(strategy=strategy, lm_path=str(small_work / "lm.json"))
    (small_work / "case.json").write_text(json.dumps(config), encoding="utf-8")
    outcomes = []
    for kernel, parallelism in ((translator._kernel, 1), (None, 1), (translator._kernel, 3)):
        traces = small_work / f"{parallelism}-{kernel is None}.jsonl"
        traces.unlink(missing_ok=True)
        code, out = _run_outcome(["run", "--config", str(small_work / "case.json"),
                                  "--parallelism", str(parallelism), "--traces-out", str(traces)],
                                 kernel)
        outcomes.append((code, out, traces.exists() and traces.read_bytes()))
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]
    assert outcomes[0][0] == 0
    assert _run_outcome(["metrics", "--traces", str(traces)], translator._kernel) == (0, out)


@pytest.mark.parametrize(
    "lines, problem",
    [
        (["b ||| y ||| 1.0", "a ||| x ||| 1.5"], "lex.txt:2: probability 1.5 for 'a' -> 'x' "
         "outside (0, 1]"),
        (["b ||| y ||| 1.0", "a ||| x ||| nan"], "lex.txt:2: probability nan for 'a' -> 'x' "
         "outside (0, 1]"),
        # a sum names its token's first entry
        (["b ||| y ||| 1.0", "a ||| x ||| 0.75", "# c", "a ||| x2 ||| 0.75"],
         "lex.txt:2: probabilities for 'a' sum to 1.5, expected 1"),
    ],
    ids=["above-one", "nan", "sum"],
)
def test_lexicon_value_error_exits_2_naming_its_line(tmp_path, monkeypatch, capsys, lines,
                                                     problem):
    src, ref = write_corpus(tmp_path, ["a b"], ["x y"])
    (tmp_path / "lex.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sim, "simulate_sentence", None)
    assert main(["run", "--source", str(src), "--reference", str(ref),
                 "--lexicon", "lex.txt"]) == 2
    captured = capsys.readouterr()
    assert f"error: {problem}" in captured.err
    assert captured.out == ""


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
        k_mask = ["--k-mask", "1"] if kind == "mask_k" else []
        assert main(["run", "--config", str(cfg_path), "--strategy", kind, *k_mask,
                     "--traces-out", str(path)]) == 0
    header, *traces = paths["mask_k"].read_text(encoding="utf-8").splitlines()
    other = paths["none"].read_text(encoding="utf-8").splitlines()[0]
    if placement == "appended":
        lines, problem = [header, *traces, other], f":{len(traces) + 2}: second run header"
    elif placement == "repeated":
        lines, problem = [header, other, *traces], ":2: second run header"
    else:
        lines, problem = [traces[0], header, *traces[1:]], ":1: expected a run header"
    paths["mask_k"].write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--traces", str(paths["mask_k"])]) == 2
    captured = capsys.readouterr()
    assert f"{paths['mask_k']}{problem}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["metrics", "mask-hist"])
@pytest.mark.parametrize("unmask", [False, True], ids=["deleted", "unmasked"])
def test_header_less_file_exits_2_naming_line_1(workspace, capsys, command, unmask):
    """A mask_k run's file with line 1 deleted. With unmask, every step is
    also rewritten to show its hypothesis unmasked: that passes every
    structural check, and only the header's strategy tells the replay otherwise."""
    tmp_path, _, cfg_path = workspace
    traces_path = tmp_path / "t.jsonl"
    assert main(["run", "--config", str(cfg_path), "--strategy", "mask_k", "--k-mask", "2",
                 "--traces-out", str(traces_path)]) == 0
    _, *traces = map(json.loads, traces_path.read_text(encoding="utf-8").splitlines())
    if unmask:
        for trace in traces:
            for rec in trace["records"]:
                rec.update(emitted_output=rec["raw_hypothesis"], mask_length=0)
    traces_path.write_text("".join(json.dumps(tr) + "\n" for tr in traces), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--traces", str(traces_path)]) == 2
    captured = capsys.readouterr()
    assert f"error: {traces_path}:1: expected a run header, got 'trace'" in captured.err
    assert captured.out == ""


SCORERS = ("metrics", "mask-hist")


@pytest.fixture(scope="module")
def dynamic_run(tmp_path_factory):
    """A small dynamic run's trace file, and each command's exit code and stdout on it."""
    tmp_path = tmp_path_factory.mktemp("dynamic_run")
    src, ref = write_corpus(tmp_path, ["a b c", "c d a b", "b a"], ["x y z", "z w x y", "y x"])
    cfg = RunConfig(
        source_path=str(src),
        reference_path=str(ref),
        translator={"kind": "toy", "lexicon_path": str(_write_lexicon(tmp_path, NOISY_LEXICON)),
                    "beam_size": 2, "distortion": 0.5, "instability": 0.8, "seed": 13},
        strategy=StrategyConfig("none"),
    )
    cfg_path = tmp_path / "run.json"
    save_run_config(cfg, cfg_path)
    traces_path = tmp_path / "t.jsonl"
    assert main(["run", "--config", str(cfg_path), "--strategy", "dynamic",
                 "--predictor", "random", "--pred-k", "2", "--pred-n", "2",
                 "--traces-out", str(traces_path)]) == 0
    return traces_path, {command: _score(command, traces_path) for command in SCORERS}


def _score(command, path) -> tuple[int, str]:
    """(exit code, stdout) of a scoring command, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--traces", str(path)])
    return code, out.getvalue()


def _value_paths(value, prefix=()):
    """The key path of value and of every value nested in it."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _value_paths(item, prefix + (key,))


# any JSON value, and the tokens a toy run writes, so that some mutations
# pass the type checks and reach the replay
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats(allow_nan=False)
    | st.text(max_size=3) | st.sampled_from(["x", "x2", "y", "z", "z2", "w", "a", "b"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=2),
    max_leaves=4,
)


@st.composite
def one_value_replaced(draw, lines):
    """(line number, key path, new line): one JSON value of one line replaced."""
    lineno = draw(st.integers(1, len(lines)))
    data = json.loads(lines[lineno - 1])
    path = draw(st.sampled_from(list(_value_paths(data))))
    value = draw(JSON_VALUES)
    if not path:
        return lineno, path, json.dumps(value)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return lineno, path, json.dumps(data)


def _without_bleu(csv_text: str) -> list[tuple[str, str]]:
    """metrics' CSV rows without their BLEU column, the last but one."""
    return [(head, tail) for head, _, tail in (row.rsplit(",", 2) for row in csv_text.splitlines())]


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_one_replaced_value_exits_2_or_scores_as_before(dynamic_run, data):
    """metrics and mask-hist reject a file with one JSON value replaced, or
    print what they print for the original; they never fail internally.

    A trace's reference is scored, not checked, so a value replaced inside
    one may change metrics' BLEU column, and nothing else."""
    traces_path, scored = dynamic_run
    lines = traces_path.read_text(encoding="utf-8").splitlines()
    lineno, path, line = data.draw(one_value_replaced(lines))
    lines[lineno - 1] = line
    mutated = traces_path.with_name("mutated.jsonl")
    mutated.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    for command in SCORERS:
        code, out = _score(command, mutated)
        assert code in (0, 2)
        if code == 2:
            assert out == ""
        elif command == "metrics" and path[:1] == ("reference",):
            assert _without_bleu(out) == _without_bleu(scored[command][1])
        else:
            assert (code, out) == scored[command]


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


def test_mask_hist_schema_mismatch_exits_2(workspace, capsys):
    tmp_path, cfg, _ = workspace
    bad = tmp_path / "bad.jsonl"
    sim.write_traces(bad, [], cfg)
    with open(bad, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "trace", "schema_version": 99, "sentence_id": 0,
                             "final_output": [], "records": []}) + "\n")
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


@pytest.mark.parametrize(
    "args, named",
    [
        (["make-synthetic", "--out-dir", "afile"], "afile"),
        (["make-synthetic", "--out-dir", "afile/sub"], "afile/sub"),
        (["run", "--config", "run.json", "--traces-out", "afile/t.jsonl"], "afile/t.jsonl"),
        (["run", "--config", "run.json", "--metrics-out", "afile/m.csv"], "afile/m.csv"),
        (["run", "--config", "run.json", "--traces-out", "adir"], "adir"),
        (["run", "--config", "run.json", "--metrics-out", "adir"], "adir"),
        (["sweep", "--spec", "sweep.json", "--out-dir", "afile"], "afile"),
    ],
    ids=["synthetic-dir", "synthetic-subdir", "traces-out", "metrics-out", "traces-out-dir",
         "metrics-out-dir", "sweep-dir"],
)
def test_output_path_through_a_regular_file_exits_2(workspace, monkeypatch, capsys, args,
                                                    named):
    tmp_path, cfg, _ = workspace
    _write_sweep_spec(tmp_path, cfg, axes={"k_mask": [1]})
    (tmp_path / "afile").write_text("", encoding="utf-8")
    (tmp_path / "adir").mkdir()
    monkeypatch.chdir(tmp_path)
    # refused before any sentence is simulated
    monkeypatch.setattr(sim, "simulate_sentence", None)
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"'{named}'" in err
    assert "internal error" not in err


def test_make_synthetic_vocab_beyond_the_pseudo_words_exits_2(tmp_path, monkeypatch, capsys):
    """Each vocabulary word takes up to 3 of the 70**2 + 70**3 pseudo-words;
    a vocabulary that could need more is refused before any is drawn."""
    monkeypatch.setattr(synthetic, "_pseudo_word", lambda *_: pytest.fail("word drawn"))
    out_dir = tmp_path / "s"
    assert main(["make-synthetic", "--out-dir", str(out_dir), "--vocab", "115967",
                 "--sentences", "1"]) == 2
    assert "vocab must be <= 115966, got 115967" in capsys.readouterr().err
    assert not out_dir.exists()


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
