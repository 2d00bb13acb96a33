from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from retransim import sim
from retransim import translator as translator_module
from retransim.core import CorpusLengthMismatch, SentencePair, SessionTrace, StepRecord, read_corpus
from retransim.metrics import aggregate, erased_between, normalized_erasure
from retransim.predict import EOS, UNK, PredictorConfig, predict_extensions, save_lm, train_lm
from retransim.sim import (
    ConfigError,
    Models,
    RunConfig,
    SchemaVersionMismatch,
    SimulationError,
    TraceError,
    TraceInvariantError,
    config_hash,
    load_models,
    load_run_config,
    read_traces,
    run_corpus,
    run_sentence,
    save_run_config,
    trace_from_dict,
    trace_to_dict,
    validate_trace,
    write_traces,
)
from retransim.strategy import StrategyConfig, emit
from retransim.translator import BiasSpec, ScriptedTranslator, ToyLexicalTranslator, ToyModelConfig
from conftest import ONE_TO_ONE_LEXICON, pairs_from, seq, write_corpus

UNSTABLE_TAIL_SCRIPT = {
    "a": seq("p"),
    "a ⟨unk⟩": seq("p"),
    "a b": seq("p q r"),
    "a b ⟨unk⟩": seq("p q s t"),
    "a b c": seq("p q s t"),
}


def toy_spec(tmp_path, lexicon: dict, **params) -> dict:
    lines = ["# src ||| tgt ||| prob"]
    for src, entries in lexicon.items():
        for tgt, prob in entries:
            lines.append(f"{src} ||| {tgt} ||| {prob}")
    path = tmp_path / "toy.lexicon"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    spec = {"kind": "toy", "lexicon_path": str(path)}
    spec.update(params)
    return spec


def stable_run_config(tmp_path, strategy: StrategyConfig, src_lines, ref_lines) -> RunConfig:
    src, ref = write_corpus(tmp_path, src_lines, ref_lines)
    return RunConfig(
        source_path=str(src),
        reference_path=str(ref),
        translator=toy_spec(tmp_path, ONE_TO_ONE_LEXICON, distortion=1.0, instability=0.0),
        strategy=strategy,
    )


def test_single_token_sentence(tmp_path):
    cfg = stable_run_config(tmp_path, StrategyConfig("none"), ["a"], ["x"])
    traces, point = run_corpus(cfg)
    trace = traces[0]
    assert len(trace.records) == 1
    rec = trace.records[0]
    assert rec.is_final
    assert rec.probes == ()
    assert trace.final_output == ("x",)
    assert normalized_erasure(trace) == 0.0
    assert point.n_sentences == 1


def test_scripted_session_with_unknown_probe(tmp_path):
    src, ref = write_corpus(tmp_path, ["a b c"], ["p q s t"])
    cfg = RunConfig(
        source_path=str(src),
        reference_path=str(ref),
        translator={"kind": "scripted", "script_path": "unused"},
        strategy=StrategyConfig(
            "dynamic", predictor=PredictorConfig(strategy="unknown", k=1)
        ),
    )
    models = Models(translator=ScriptedTranslator(UNSTABLE_TAIL_SCRIPT))
    trace = run_sentence(cfg, pairs_from(["a b c"], ["p q s t"])[0], models)
    outputs = [rec.emitted_output for rec in trace.records]
    assert outputs[0] == ("p",)
    assert outputs[1] == ("p", "q")  # masked back to the stable prefix
    assert outputs[2] == ("p", "q", "s", "t")
    assert trace.records[1].mask_length == 1
    assert trace.records[1].probes == (("p", "q", "s", "t"),)
    assert trace.records[1].n_translate_calls == 2
    validate_trace(trace, cfg.strategy)
    assert normalized_erasure(trace) == 0.0


def test_scripted_session_progressive_stability():
    # the translator is unstable on short prefixes; probing one token ahead
    # detects it and the display advances one stable word at a time
    from pathlib import Path

    from retransim.translator import load_script

    script = Path(__file__).parent / "data" / "progressive_stability.tsv"
    cfg = RunConfig(
        source_path="unused",
        reference_path="unused",
        translator={"kind": "scripted", "script_path": str(script)},
        strategy=StrategyConfig(
            "dynamic", predictor=PredictorConfig(strategy="unknown", k=1)
        ),
    )
    models = Models(translator=load_script(script))
    pair = pairs_from(["Here are two patients ."], ["Hier sind zwei Patienten ."])[0]
    trace = run_sentence(cfg, pair, models)
    outputs = [" ".join(rec.emitted_output) for rec in trace.records]
    assert outputs == [
        "Hier",
        "Hier sind",
        "Hier sind zwei",
        "Hier sind zwei Patienten",
        "Hier sind zwei Patienten .",
    ]
    validate_trace(trace, cfg.strategy)
    assert normalized_erasure(trace) == 0.0


def _scripted_session(strategy: StrategyConfig, script: dict):
    cfg = RunConfig(
        source_path="unused",
        reference_path="unused",
        translator={"kind": "scripted", "script_path": "unused"},
        strategy=strategy,
    )
    return cfg, Models(translator=ScriptedTranslator(script))


def test_oracle_full_sentence_failure_names_the_last_step():
    # the oracle translates the whole sentence before its first step; the
    # failure is reported at step len(source), the step that uses that call
    cfg, models = _scripted_session(
        StrategyConfig("oracle"), {"a": seq("p"), "a b": seq("p q")}
    )
    pair = pairs_from(["a b c"], ["p q r"])[0]
    with pytest.raises(SimulationError, match=r"^sentence 0, step 3: no script entry"):
        run_sentence(cfg, pair, models)


def test_translate_failure_names_its_step_and_emission_errors_pass_through(monkeypatch):
    cfg, models = _scripted_session(StrategyConfig("none"), {"a": seq("p")})
    pair = pairs_from(["a b"], ["p q"])[0]
    with pytest.raises(SimulationError, match=r"^sentence 0, step 2: no script entry"):
        run_sentence(cfg, pair, models)

    def broken_emit(*args):
        raise RuntimeError("emission bug")

    monkeypatch.setattr(sim, "emit", broken_emit)
    with pytest.raises(RuntimeError, match="^emission bug$"):
        run_sentence(cfg, pair, models)


def _noisy_corpus_config(tmp_path, strategy: StrategyConfig, **overrides) -> RunConfig:
    lexicon = {
        "a": (("x", 0.7), ("x2", 0.3)),
        "b": (("y", 1.0),),
        "c": (("z", 0.65), ("z2", 0.35)),
        "d": (("w", 1.0),),
    }
    src_lines = ["a b c", "c d a b", "b a", "d c b a d", "a", "b c d a c"]
    ref_lines = ["x y z", "z w x y", "y x", "w z y x w", "x", "y z w x z"]
    src, ref = write_corpus(tmp_path, src_lines, ref_lines)
    base = dict(
        source_path=str(src),
        reference_path=str(ref),
        translator=toy_spec(
            tmp_path, lexicon, distortion=0.5, instability=0.8, seed=11, beam_size=2
        ),
        strategy=strategy,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_determinism_and_parallelism_independence(tmp_path):
    cfg = _noisy_corpus_config(
        tmp_path, StrategyConfig("dynamic", predictor=PredictorConfig("random", k=2, n=2)),
        seed=3,
    )
    t1, p1 = run_corpus(cfg)
    t2, p2 = run_corpus(cfg)
    t8, p8 = run_corpus(dataclasses.replace(cfg, parallelism=8))
    assert t1 == t2 == t8
    assert p1 == p2 == p8

    f1, f8 = tmp_path / "par1.jsonl", tmp_path / "par8.jsonl"
    write_traces(f1, t1, cfg)
    write_traces(f8, t8, dataclasses.replace(cfg, parallelism=8))
    assert f1.read_bytes() == f8.read_bytes()


def test_trace_round_trip_and_replay_equality(tmp_path):
    cfg = _noisy_corpus_config(tmp_path, StrategyConfig("mask_k", k_mask=2))
    traces, point = run_corpus(cfg)
    path = tmp_path / "traces.jsonl"
    write_traces(path, traces, cfg)
    header, loaded = read_traces(path)
    assert header is not None
    assert header["config_hash"] == config_hash(cfg)
    assert loaded == traces
    replayed = aggregate(cfg.strategy.label, loaded, ne_mode=cfg.ne_mode)
    assert replayed == point  # bit-identical floats


def test_trace_dict_round_trip(tmp_path):
    cfg = _noisy_corpus_config(tmp_path, StrategyConfig("none"))
    traces, _ = run_corpus(cfg)
    for trace in traces:
        assert trace_from_dict(trace_to_dict(trace)) == trace


# any text: non-ASCII, quotes, backslashes, control characters and line
# separators; JSON escapes what would break a line
ANY_TOKENS = st.lists(st.text(min_size=1, max_size=4), max_size=4).map(tuple)


@st.composite
def arbitrary_traces(draw):
    """Traces that need not satisfy any session invariant, only the record types."""
    records = tuple(
        StepRecord(
            draw(st.integers()),
            draw(ANY_TOKENS),
            draw(ANY_TOKENS),
            draw(ANY_TOKENS),
            draw(st.integers()),
            draw(st.booleans()),
            tuple(draw(st.lists(ANY_TOKENS, max_size=3))),
            draw(st.integers()),
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    reference = draw(st.one_of(st.none(), ANY_TOKENS))
    return SessionTrace(draw(st.integers(-5, 5)), records, draw(ANY_TOKENS), reference)


def _list_based_dict(trace: SessionTrace) -> dict:
    """A trace's dict as written before keys were sorted by construction: lists, any order."""
    return {
        "kind": "trace",
        "schema_version": sim.TRACE_SCHEMA_VERSION,
        "sentence_id": trace.sentence_id,
        "final_output": list(trace.final_output),
        "reference": list(trace.reference) if trace.reference is not None else None,
        "records": [
            {
                "step_index": rec.step_index,
                "source_prefix": list(rec.source_prefix),
                "raw_hypothesis": list(rec.raw_hypothesis),
                "emitted_output": list(rec.emitted_output),
                "mask_length": rec.mask_length,
                "is_final": rec.is_final,
                "probes": [list(p) for p in rec.probes],
                "n_translate_calls": rec.n_translate_calls,
            }
            for rec in trace.records
        ],
    }


@settings(deadline=None, max_examples=200)
@given(st.lists(arbitrary_traces(), max_size=4))
def test_arbitrary_traces_round_trip_with_sort_keys_bytes(tmp_path_factory, traces):
    path = tmp_path_factory.mktemp("roundtrip") / "traces.jsonl"
    write_traces(path, traces)
    ordered = sorted(traces, key=lambda tr: tr.sentence_id)
    header, loaded = read_traces(path)
    assert (header, loaded) == (None, ordered)
    # the file's traces hold each distinct token once
    toks = []
    for tr in loaded:
        toks += tr.final_output + (tr.reference or ())
        for rec in tr.records:
            for seq in (rec.source_prefix, rec.raw_hypothesis, rec.emitted_output, *rec.probes):
                toks += seq
    assert len({id(tok) for tok in toks}) == len(set(toks))
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines.pop() == ""
    assert lines == [
        json.dumps(_list_based_dict(tr), sort_keys=True, ensure_ascii=False) for tr in ordered
    ]


@pytest.mark.parametrize(
    "probes, expected",
    [
        ("absent", ()),
        ([], ()),
        ([["p", "q"], []], (("p", "q"), ())),
        (None, "TypeError: 'NoneType' object is not iterable"),
        (0, "TypeError: 'int' object is not iterable"),
        ([7], "TypeError: 'int' object is not iterable"),
    ],
)
def test_trace_from_dict_reads_probes(probes, expected):
    rec = {
        "step_index": 1,
        "source_prefix": ["a"],
        "raw_hypothesis": ["x"],
        "emitted_output": ["x"],
        "mask_length": 0,
        "is_final": True,
    }
    if probes != "absent":
        rec["probes"] = probes
    data = {"schema_version": 1, "sentence_id": 0, "final_output": ["x"], "records": [rec]}
    if isinstance(expected, tuple):
        assert trace_from_dict(data).records[0].probes == expected
    else:
        with pytest.raises(TraceError, match=f"^malformed step record: {expected}$"):
            trace_from_dict(data)


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("step_index", 2.0, "int"),
        ("step_index", True, "int"),
        ("mask_length", 1.0, "int"),
        ("mask_length", False, "int"),
        ("mask_length", "0", "int"),
        ("is_final", 1, "bool"),
        ("is_final", None, "bool"),
        ("n_translate_calls", 1.0, "int"),
        ("n_translate_calls", True, "int"),
    ],
)
def test_trace_from_dict_type_checks_step_fields(field, value, kind):
    recs = [
        {"step_index": i, "source_prefix": ["a", "b"][:i], "raw_hypothesis": ["x"],
         "emitted_output": ["x"], "mask_length": 0, "is_final": i == 2}
        for i in (1, 2)
    ]
    data = {"schema_version": 1, "sentence_id": 0, "final_output": ["x"], "records": recs}
    assert trace_from_dict(data).records[1].n_translate_calls == 1  # absent reads as 1
    recs[1][field] = value
    with pytest.raises(TraceError) as info:
        trace_from_dict(data)
    assert str(info.value) == f"step record 2: {field}: expected {kind}, got {value!r}"


def test_schema_version_mismatch(tmp_path):
    cfg = _noisy_corpus_config(tmp_path, StrategyConfig("none"))
    traces, _ = run_corpus(cfg)
    payload = trace_to_dict(traces[0])
    payload["schema_version"] = 999
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch):
        read_traces(path)


def test_validate_trace_catches_corruption(tmp_path):
    cfg = _noisy_corpus_config(tmp_path, StrategyConfig("mask_k", k_mask=1))
    traces, _ = run_corpus(cfg)
    good = traces[1]
    validate_trace(good, cfg.strategy)

    bad_mask = dataclasses.replace(good.records[0], mask_length=99)
    with pytest.raises(TraceInvariantError):
        validate_trace(
            dataclasses.replace(good, records=(bad_mask,) + good.records[1:]),
            cfg.strategy,
        )
    with pytest.raises(TraceInvariantError):
        validate_trace(dataclasses.replace(good, records=good.records[:-1]))
    with pytest.raises(TraceInvariantError):
        validate_trace(dataclasses.replace(good, final_output=("wrong",)))
    # probes on a policy that takes none, with a made-up call count, and
    # with a call count that matches them
    def first_step(**changes):
        rec = dataclasses.replace(good.records[0], **changes)
        return dataclasses.replace(good, records=(rec,) + good.records[1:])

    made_up = (("made", "up"),)
    bad_calls = first_step(probes=made_up, n_translate_calls=99)
    bad_probes = first_step(probes=made_up, n_translate_calls=2)
    for tampered, strategy in (
        (bad_calls, None), (bad_calls, cfg.strategy), (bad_probes, cfg.strategy)
    ):
        with pytest.raises(TraceInvariantError, match=f"sentence {good.sentence_id}, step 1:"):
            validate_trace(tampered, strategy)
    validate_trace(bad_probes)  # structurally sound: only the policy takes no probes

    dynamic = StrategyConfig("dynamic", predictor=PredictorConfig("random", k=2, n=2))
    traces, _ = run_corpus(_noisy_corpus_config(tmp_path, dynamic))
    trace = max(traces, key=lambda tr: len(tr.records))
    validate_trace(trace, dynamic)
    pos = next(
        i for i, rec in enumerate(trace.records)
        if not rec.is_final and rec.emitted_output
    )
    rec = trace.records[pos]
    blanked = dataclasses.replace(rec, emitted_output=(), mask_length=len(rec.raw_hypothesis))
    unprobed = dataclasses.replace(rec, probes=(), n_translate_calls=1)
    for changed in (blanked, unprobed):
        records = trace.records[:pos] + (changed,) + trace.records[pos + 1:]
        tampered = dataclasses.replace(trace, records=records)
        validate_trace(tampered)  # structurally sound
        with pytest.raises(
            TraceInvariantError, match=f"sentence {trace.sentence_id}, step {pos + 1}:"
        ):
            validate_trace(tampered, dynamic)


TOKENS = st.lists(st.sampled_from("pqrs"), max_size=5).map(tuple)
POLICIES = (
    StrategyConfig("none"),
    StrategyConfig("mask_k", k_mask=2),
    StrategyConfig("dynamic", predictor=PredictorConfig("unknown", k=1)),
    StrategyConfig("oracle"),
)


@st.composite
def emitted_traces(draw):
    """A strategy and a trace whose every output is that strategy's emit."""
    strategy = draw(st.sampled_from(POLICIES))
    hyps = draw(st.lists(TOKENS, min_size=1, max_size=6))
    records = []
    previous = ()
    for i, hyp in enumerate(hyps, start=1):
        is_final = i == len(hyps)
        probes = ()
        if strategy.kind == "dynamic" and not is_final:
            probes = tuple(draw(st.lists(TOKENS, min_size=1, max_size=3)))
        out = emit(strategy, hyp, probes, previous, is_final, hyps[-1])
        source = tuple(f"s{j}" for j in range(i))
        records.append(
            StepRecord(
                i, source, hyp, out, erased_between(hyp, out), is_final, probes,
                n_translate_calls=1 + len(probes),
            )
        )
        previous = out
    return strategy, SessionTrace(0, tuple(records), previous)


@settings(deadline=None)  # a loaded host must not fail a correct example
@given(emitted_traces(), st.data())
def test_replay_accepts_emitted_traces_and_rejects_any_changed_output(case, data):
    strategy, trace = case
    validate_trace(trace, strategy)
    assume(len(trace.records) > 1)
    pos = data.draw(st.integers(0, len(trace.records) - 2))
    rec = trace.records[pos]
    out = data.draw(TOKENS.filter(lambda tokens: tokens != rec.emitted_output))
    changed = dataclasses.replace(
        rec, emitted_output=out, mask_length=erased_between(rec.raw_hypothesis, out)
    )
    tampered = dataclasses.replace(
        trace, records=trace.records[:pos] + (changed,) + trace.records[pos + 1:]
    )
    validate_trace(tampered)  # structurally sound, so only the replay can object
    with pytest.raises(TraceInvariantError, match=f"step {pos + 1}:"):
        validate_trace(tampered, strategy)


def test_every_strategy_produces_valid_traces(tmp_path):
    lm = train_lm([seq("a b c"), seq("c d a b"), seq("b a")], order=2)
    lm_path = tmp_path / "lm.json"
    save_lm(lm, lm_path)
    strategies = [
        StrategyConfig("none"),
        StrategyConfig("none", bias_beta=0.5),
        StrategyConfig("mask_k", k_mask=2),
        StrategyConfig("mask_k", k_mask=2, bias_beta=0.8),
        StrategyConfig("oracle"),
        StrategyConfig("dynamic", predictor=PredictorConfig("unknown", k=1)),
        StrategyConfig("dynamic", predictor=PredictorConfig("lm_greedy", k=2)),
        StrategyConfig("dynamic", predictor=PredictorConfig("lm_sample", k=2, n=3)),
        StrategyConfig("dynamic", predictor=PredictorConfig("random", k=3, n=2)),
        StrategyConfig(
            "dynamic", predictor=PredictorConfig("lm_sample", k=1, n=2), bias_beta=0.6
        ),
    ]
    for strategy in strategies:
        cfg = _noisy_corpus_config(tmp_path, strategy, lm_path=str(lm_path))
        traces, point = run_corpus(cfg)
        for trace in traces:
            validate_trace(trace, strategy)
        assert point.n_sentences == len(traces) == 6


def test_oracle_zero_erasure_on_noisy_corpus(tmp_path):
    cfg = _noisy_corpus_config(tmp_path, StrategyConfig("oracle"))
    traces, point = run_corpus(cfg)
    for trace in traces:
        assert normalized_erasure(trace) == 0.0
        validate_trace(trace, cfg.strategy)
    assert point.ne == 0.0


def test_prefix_stable_translator_never_erases(tmp_path):
    src_lines = ["a b c d", "b b a", "e d c b a", "c"]
    ref_lines = ["x y z w", "y y x", "v w z y x", "z"]
    lm = train_lm([seq(s) for s in src_lines], order=2)
    lm_path = tmp_path / "lm.json"
    save_lm(lm, lm_path)
    predictors = [
        PredictorConfig("unknown", k=2),
        PredictorConfig("lm_greedy", k=2),
        PredictorConfig("lm_sample", k=2, n=3),
        PredictorConfig("random", k=2, n=3),
    ]
    cfg0 = stable_run_config(tmp_path, StrategyConfig("none"), src_lines, ref_lines)
    cfg0 = dataclasses.replace(cfg0, lm_path=str(lm_path))
    traces, point = run_corpus(cfg0)
    assert point.ne == 0.0
    for pred in predictors:
        cfg = dataclasses.replace(
            cfg0, strategy=StrategyConfig("dynamic", predictor=pred)
        )
        traces, point = run_corpus(cfg)
        assert point.ne == 0.0, pred.strategy
        for trace in traces:
            outputs = [rec.emitted_output for rec in trace.records]
            for a, b in zip(outputs, outputs[1:]):
                assert a == b[: len(a)]  # monotone growth


def test_char_mode_runs_character_level(tmp_path):
    src, ref = write_corpus(tmp_path, ["ab"], ["xy"])
    lexicon = {"a": (("x", 1.0),), "b": (("y", 1.0),)}
    cfg = RunConfig(
        source_path=str(src),
        reference_path=str(ref),
        translator=toy_spec(tmp_path, lexicon, distortion=1.0, instability=0.0),
        strategy=StrategyConfig("none"),
        char_mode=True,
    )
    traces, point = run_corpus(cfg)
    assert len(traces[0].records) == 2  # one step per character
    assert traces[0].final_output == ("x", "y")
    assert point.bleu == 100.0


def test_corpus_length_mismatch(tmp_path):
    src, _ = write_corpus(tmp_path, ["a", "b"], ["x", "y"])
    short_ref = tmp_path / "short.ref"
    short_ref.write_text("x\n", encoding="utf-8")
    cfg = RunConfig(
        source_path=str(src),
        reference_path=str(short_ref),
        translator=toy_spec(tmp_path, ONE_TO_ONE_LEXICON),
        strategy=StrategyConfig("none"),
    )
    with pytest.raises(CorpusLengthMismatch):
        run_corpus(cfg)


def test_run_config_round_trip(tmp_path):
    cfg = _noisy_corpus_config(
        tmp_path,
        StrategyConfig(
            "dynamic", predictor=PredictorConfig("lm_sample", k=2, n=3, seed=4), bias_beta=0.5
        ),
        seed=9,
        char_mode=False,
        ne_mode="corpus",
    )
    assert RunConfig.from_dict(cfg.to_dict()) == dataclasses.replace(cfg, parallelism=1)
    path = tmp_path / "run.json"
    save_run_config(cfg, path)
    loaded = load_run_config(path, parallelism=4)
    assert loaded == dataclasses.replace(cfg, parallelism=4)
    # parallelism stays out of the persisted form and the hash
    assert "parallelism" not in json.loads(path.read_text())
    assert config_hash(loaded) == config_hash(cfg)


def test_load_run_config_line_anchored_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "source_path": [oops\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    assert ":2:" in str(err.value)


def test_run_corpus_validates_lm_requirement(tmp_path):
    from retransim.predict import MissingLM

    cfg = _noisy_corpus_config(
        tmp_path, StrategyConfig("dynamic", predictor=PredictorConfig("lm_greedy"))
    )
    with pytest.raises(MissingLM):
        run_corpus(cfg)
    # models loaded without an LM are checked too, before any sentence runs
    models = load_models(cfg, read_corpus(cfg.source_path, cfg.reference_path))
    with pytest.raises(MissingLM):
        run_corpus(cfg, models)


def test_bias_changes_decoding_on_unstable_model(tmp_path):
    # with strong bias the retranslations stick to the previous output more
    # often, so erasure cannot grow
    base = _noisy_corpus_config(tmp_path, StrategyConfig("none"), seed=2)
    _, plain = run_corpus(base)
    biased_cfg = dataclasses.replace(base, strategy=StrategyConfig("none", bias_beta=0.9))
    traces, biased = run_corpus(biased_cfg)
    assert biased.ne <= plain.ne
    for trace in traces:
        validate_trace(trace, biased_cfg.strategy)


# ---------------------------------------------------------------------------
# The per-sentence core against a config-by-config oracle
# ---------------------------------------------------------------------------


def _reference_session(cfg: RunConfig, pair, models: Models) -> SessionTrace:
    """One config's session as the simulator ran it before configs shared a
    sentence's work: one translate call per request and one predict call
    per step, in step order, with errors raised where they happen."""
    strat = cfg.strategy
    translator = models.translator
    source = pair.source
    predictor = strat.predictor
    if predictor is not None:
        predictor = dataclasses.replace(predictor, seed=predictor.seed ^ cfg.seed)
    previous = ()
    full = None
    if strat.kind == "oracle":
        try:
            full = translator.translate(source, source_is_final=True).tokens
        except Exception as exc:
            raise SimulationError(f"sentence {pair.sentence_id}, step {len(source)}: {exc}") from exc
    records = []
    for i in range(1, len(source) + 1):
        prefix, is_final = source[:i], i == len(source)
        bias = BiasSpec(previous, strat.bias_beta) if strat.bias_beta > 0.0 and previous else None
        probes = ()
        try:
            if strat.kind == "oracle" and is_final:
                hyp = full
            else:
                hyp = translator.translate(prefix, bias=bias, source_is_final=is_final).tokens
            if strat.kind == "dynamic" and not is_final:
                extensions = predict_extensions(
                    predictor, models.lm, models.vocab, prefix,
                    sentence_id=pair.sentence_id, step_index=i,
                )
                probes = tuple(
                    translator.translate(ext, bias=bias, source_is_final=False).tokens
                    for ext in extensions
                )
        except Exception as exc:
            raise SimulationError(f"sentence {pair.sentence_id}, step {i}: {exc}") from exc
        output = emit(strat, hyp, probes, previous, is_final, full)
        records.append(
            StepRecord(i, prefix, hyp, output, erased_between(hyp, output), is_final,
                       probes, 1 + len(probes))
        )
        previous = output
    return SessionTrace(pair.sentence_id, tuple(records), previous, pair.reference)


def _reference_simulate(cfgs, pairs, models):
    """Traces per config, or (config index, error text) of the first error,
    config by config and sentence by sentence."""
    out = []
    for index, cfg in enumerate(cfgs):
        traces = []
        for pair in pairs:
            try:
                traces.append(_reference_session(cfg, pair, models))
            except SimulationError as exc:
                return (index, str(exc))
        out.append(traces)
    return out


CORE_WORDS = ("a", "b", "c", "d")
BETAS = st.sampled_from([0.0, 0.3])
CORE_CELLS = st.one_of(
    st.builds(lambda b: StrategyConfig("none", bias_beta=b), BETAS),
    st.builds(lambda k, b: StrategyConfig("mask_k", k_mask=k, bias_beta=b), st.integers(0, 3), BETAS),
    st.just(StrategyConfig("oracle")),
    st.builds(
        lambda strategy, k, n, seed, b: StrategyConfig(
            "dynamic", predictor=PredictorConfig(strategy, k=k, n=n, seed=seed), bias_beta=b
        ),
        st.sampled_from(["lm_sample", "lm_greedy", "unknown", "random"]),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(-2, 2),
        BETAS,
    ),
)


@st.composite
def core_cases(draw):
    """Configs, sentences and models; the lexicon may lack corpus words, and
    the LM or the probe vocabulary may be missing."""
    known = draw(st.lists(st.sampled_from(CORE_WORDS), min_size=1, unique=True))
    lexicon = {}
    for word in known:
        targets = draw(st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=2,
                                unique=True))
        lexicon[word] = tuple((t, 1.0 / len(targets)) for t in targets)
    sources = draw(st.lists(st.lists(st.sampled_from(CORE_WORDS), min_size=1, max_size=5),
                            min_size=1, max_size=4))
    pairs = [SentencePair(tuple(s), ("x",), i) for i, s in enumerate(sources)]
    lm = train_lm([pair.source for pair in pairs], order=2)
    models = Models(
        translator=ToyLexicalTranslator(ToyModelConfig(
            lexicon=lexicon, beam_size=2, distortion=0.6, instability=0.8,
            seed=draw(st.integers(0, 5)),
        )),
        lm=draw(st.sampled_from([lm, lm, None])),
        vocab=draw(st.sampled_from([frozenset(lm.vocabulary) - {UNK, EOS}, None])),
    )
    seed = draw(st.integers(0, 3))
    cfgs = [
        RunConfig(source_path="unused", reference_path="unused", translator={"kind": "toy"},
                  strategy=cell, seed=seed)
        for cell in draw(st.lists(CORE_CELLS, min_size=1, max_size=5))
    ]
    return cfgs, pairs, models


@settings(deadline=None, max_examples=60)
@given(core_cases())
def test_core_matches_config_by_config_oracle(case):
    cfgs, pairs, models = case
    want = _reference_simulate(cfgs, pairs, models)
    for jobs in (1, 2, 3):
        traces, failure = sim._simulate(cfgs, pairs, models, jobs)
        if failure is None:
            assert traces == want, jobs
        else:
            assert (failure[0], str(failure[1])) == want, jobs


def test_one_kernel_crossing_per_sentence_and_per_biased_step(monkeypatch):
    if translator_module._kernel is None:
        pytest.skip("no C beam search")
    crossings = []

    class Counting:
        def __getattr__(self, name):
            return getattr(kernel, name)

        def rt_beam_search_many(self, *args):
            crossings.append(args[0])
            return kernel.rt_beam_search_many(*args)

    kernel = translator_module._kernel
    monkeypatch.setattr(translator_module, "_kernel", Counting())
    lexicon = {w: ((t, 0.5), (t + "2", 0.5)) for w, t in zip(CORE_WORDS, "xyzw")}
    sources = [("a", "b", "c"), ("d", "c", "b", "a"), ("b",)]
    pairs = [SentencePair(s, ("x",), i) for i, s in enumerate(sources)]
    lm = train_lm(sources, order=2)
    models = Models(
        ToyLexicalTranslator(ToyModelConfig(lexicon=lexicon, beam_size=2, instability=0.5)),
        lm, frozenset(lm.vocabulary) - {UNK, EOS},
    )
    cells = [StrategyConfig("mask_k", k_mask=k) for k in range(4)] + [
        StrategyConfig("oracle"),
        StrategyConfig("dynamic", predictor=PredictorConfig("random", k=2, n=3)),
        StrategyConfig("dynamic", predictor=PredictorConfig("lm_sample", k=2, n=2)),
    ]
    cfgs = [RunConfig("unused", "unused", {"kind": "toy"}, cell) for cell in cells]
    _, failure = sim._simulate(cfgs, pairs, models, 1)
    assert failure is None
    assert len(crossings) == len(pairs)
    biased = [
        RunConfig("unused", "unused", {"kind": "toy"}, dataclasses.replace(cell, bias_beta=0.5))
        for cell in (StrategyConfig("none"), cells[-2])
    ]
    crossings.clear()
    traces, failure = sim._simulate(cfgs + biased, pairs, models, 1)
    assert failure is None
    # a step with nothing displayed yet asks what its unbiased twin asked,
    # which the shared batch served; every other step is one crossing,
    # for its hypothesis and its probes together
    biased_steps = sum(
        1
        for cell_traces in traces[-2:]
        for trace in cell_traces
        for before in trace.records[:-1]
        if before.emitted_output
    )
    assert biased_steps > len(pairs)
    assert len(crossings) == len(pairs) + biased_steps


def test_every_session_runs_through_run_sentence(monkeypatch):
    # run_sentence is the one step loop, called per config and sentence
    calls = []

    def counting(cfg, pair, models, memo=None):
        calls.append((cfg.strategy.label, pair.sentence_id, memo is not None))
        return run_sentence(cfg, pair, models, memo)

    monkeypatch.setattr(sim, "run_sentence", counting)
    cfg, models = _scripted_session(
        StrategyConfig("mask_k", k_mask=1), {"a": seq("p"), "a b": seq("p q")}
    )
    cfgs = [cfg, dataclasses.replace(cfg, strategy=StrategyConfig("none"))]
    pairs = pairs_from(["a b", "a"], ["p q", "p"])
    traces, failure = sim._simulate(cfgs, pairs, models, 1)
    assert failure is None and [len(cell) for cell in traces] == [2, 2]
    assert calls == [
        ("mask_k=1", 0, True), ("none", 0, True), ("mask_k=1", 1, True), ("none", 1, True)
    ]
    # the configs' records of one sentence hold one prefix tuple
    assert traces[0][0].records[0].source_prefix is traces[1][0].records[0].source_prefix


def test_first_error_in_config_then_sentence_order():
    # config 1 fails on sentence 0 and config 0 only on sentence 1: config
    # 0 runs on after config 1 stops, and its error is the one reported
    cfg, models = _scripted_session(StrategyConfig("none"), {"a": seq("p"), "a c": seq("p q")})
    probing = dataclasses.replace(
        cfg, strategy=StrategyConfig("dynamic", predictor=PredictorConfig("unknown"))
    )
    pairs = pairs_from(["a c", "b"], ["p q", "q"])
    for jobs in (1, 2):
        traces, failure = sim._simulate([cfg, probing], pairs, models, jobs)
        assert traces == [] and failure[0] == 0, jobs
        assert str(failure[1]) == "sentence 1, step 1: no script entry for prefix 'b'", jobs


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="children need fork"
)


def _three_shards():
    cfg, models = _scripted_session(StrategyConfig("none"), {"a": seq("p"), "a b": seq("p q")})
    return [cfg], pairs_from(["a b", "a", "a b"], ["p q", "p", "p q"]), models


@needs_fork
def test_exception_escaping_a_childs_shard_reaches_the_parent(monkeypatch):
    parent, run_shard = os.getpid(), sim._run_shard

    def fail_in_children(cfgs, pairs, models):
        if os.getpid() != parent:
            raise LookupError(f"a shard of {len(pairs)} sentence broke")
        return run_shard(cfgs, pairs, models)

    monkeypatch.setattr(sim, "_run_shard", fail_in_children)
    with pytest.raises(LookupError) as info:
        sim._simulate(*_three_shards(), 3)
    assert type(info.value) is LookupError
    assert str(info.value) == "a shard of 1 sentence broke"
    assert multiprocessing.active_children() == []


@needs_fork
def test_failure_in_the_parents_shard_leaves_no_child_behind(monkeypatch, tmp_path):
    parent, started = os.getpid(), tmp_path / "started"
    started.mkdir()

    def hang_in_children_fail_here(cfgs, pairs, models):
        if os.getpid() != parent:
            (started / str(os.getpid())).touch()
            time.sleep(60)  # killed long before
        deadline = time.monotonic() + 30
        while len(list(started.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        raise ZeroDivisionError("the parent's shard broke")

    monkeypatch.setattr(sim, "_run_shard", hang_in_children_fail_here)
    began = time.monotonic()
    with pytest.raises(ZeroDivisionError, match="^the parent's shard broke$"):
        sim._simulate(*_three_shards(), 3)
    assert time.monotonic() - began < 30
    pids = [int(path.name) for path in started.iterdir()]
    assert len(pids) == 2
    for pid in pids:
        # reaped: neither running nor a zombie, so no longer this process's child
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "script, vocab, error",
    [
        ({}, None, "no script entry for prefix 'a'"),  # hypothesis first
        ({"a": seq("p")}, None, "random strategy requires a vocabulary"),  # then the draws
        ({"a": seq("p")}, frozenset({"b"}), "no script entry for prefix 'a b'"),  # then probes
    ],
)
def test_step_errors_in_order_hypothesis_draws_probes(script, vocab, error):
    cfg, models = _scripted_session(
        StrategyConfig("dynamic", predictor=PredictorConfig("random", k=1)), script
    )
    models.vocab = vocab
    pair = pairs_from(["a c"], ["p q"])[0]
    with pytest.raises(SimulationError, match=f"^sentence 0, step 1: {error}$"):
        run_sentence(cfg, pair, models)
