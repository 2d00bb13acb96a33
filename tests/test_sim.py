from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing
import os
import pickle
import re
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
from retransim.translator import (
    BiasSpec,
    CachingTranslator,
    ScriptedTranslator,
    ToyLexicalTranslator,
    ToyModelConfig,
)
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


def test_a_located_error_joins_locations_and_pickles_whole():
    miss = translator_module.ScriptMiss("no script entry for prefix 'c'")
    exc = SimulationError("cell 'mask_k=2'", SimulationError("sentence 3, step 2", miss))
    assert exc.args == ("cell 'mask_k=2': sentence 3, step 2", miss)
    assert exc.error is miss
    assert str(exc) == "cell 'mask_k=2': sentence 3, step 2: no script entry for prefix 'c'"
    back = pickle.loads(pickle.dumps(exc))  # as a forked child sends it
    assert type(back) is SimulationError and type(back.error) is translator_module.ScriptMiss
    assert str(back) == str(exc)


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
        tmp_path, StrategyConfig("dynamic", predictor=PredictorConfig("random", k=2, n=2, seed=3))
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
    loaded_cfg, loaded = read_traces(path)  # read_traces checked the header's hash
    assert (loaded_cfg, loaded) == (cfg, traces)
    replayed = aggregate(cfg.strategy.label, loaded, ne_mode=cfg.ne_mode)
    assert replayed == point  # bit-identical floats


def test_read_traces_hands_out_one_tuple_per_equal_token_sequence(tmp_path):
    cfg = _noisy_corpus_config(
        tmp_path, StrategyConfig("dynamic", predictor=PredictorConfig("random", k=2, n=2, seed=3))
    )
    traces, _ = run_corpus(cfg)
    path = tmp_path / "traces.jsonl"
    write_traces(path, traces, cfg)
    _, loaded = read_traces(path)
    assert loaded == traces
    for trace in loaded:
        assert trace.final_output is trace.records[-1].emitted_output
        first: dict = {}  # each sequence's first tuple in the trace
        for rec in trace.records:
            for toks in (rec.source_prefix, rec.raw_hypothesis, rec.emitted_output, *rec.probes):
                assert first.setdefault(toks, toks) is toks
        assert first.setdefault(trace.reference, trace.reference) is trace.reference


def test_read_traces_skips_blank_lines(tmp_path):
    cfg = _noisy_corpus_config(tmp_path, StrategyConfig("mask_k", k_mask=2))
    traces, _ = run_corpus(cfg)
    path = tmp_path / "traces.jsonl"
    write_traces(path, traces, cfg)
    lines = path.read_text(encoding="utf-8").splitlines()
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("\n \n" + "\n\n".join(lines) + "\n\t\n", encoding="utf-8")
    assert read_traces(spaced) == read_traces(path) == (cfg, traces)


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


# a header for files of arbitrary traces; reading one opens none of its paths
ROUND_TRIP_CONFIG = RunConfig(
    "in.src", "in.ref", {"kind": "scripted", "script_path": "in.tsv"}, StrategyConfig("none")
)


@settings(deadline=None, max_examples=200)
@given(st.lists(arbitrary_traces(), max_size=4))
def test_arbitrary_traces_round_trip_with_sort_keys_bytes(tmp_path_factory, traces):
    path = tmp_path_factory.mktemp("roundtrip") / "traces.jsonl"
    write_traces(path, traces, ROUND_TRIP_CONFIG)
    ordered = sorted(traces, key=lambda tr: tr.sentence_id)
    cfg, loaded = read_traces(path)
    assert (cfg, loaded) == (ROUND_TRIP_CONFIG, ordered)
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
    assert json.loads(lines.pop(0))["config_hash"] == config_hash(ROUND_TRIP_CONFIG)
    assert lines == [
        json.dumps(_list_based_dict(tr), sort_keys=True, ensure_ascii=False) for tr in ordered
    ]


@pytest.mark.parametrize(
    "probes, expected",
    [
        ("absent", "KeyError: 'probes'"),  # every writer writes all eight keys
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
        "n_translate_calls": 1,
    }
    if probes != "absent":
        rec["probes"] = probes
    data = {"schema_version": 1, "sentence_id": 0, "final_output": ["x"], "records": [rec]}
    if isinstance(expected, tuple):
        assert trace_from_dict(data).records[0].probes == expected
    else:
        with pytest.raises(TraceError, match=f"^malformed step record: {expected}$"):
            trace_from_dict(data)


def test_trace_from_dict_refuses_a_record_without_n_translate_calls():
    # every writer writes all eight keys, so a missing one is a malformed record
    rec = {"step_index": 1, "source_prefix": ["a"], "raw_hypothesis": ["x"],
           "emitted_output": ["x"], "mask_length": 0, "is_final": True, "probes": []}
    data = {"schema_version": 1, "sentence_id": 0, "final_output": ["x"], "records": [rec]}
    with pytest.raises(TraceError) as info:
        trace_from_dict(data)
    assert str(info.value) == "malformed step record: KeyError: 'n_translate_calls'"


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
         "emitted_output": ["x"], "mask_length": 0, "is_final": i == 2, "probes": [],
         "n_translate_calls": 1}
        for i in (1, 2)
    ]
    data = {"schema_version": 1, "sentence_id": 0, "final_output": ["x"], "records": recs}
    assert trace_from_dict(data).records[1].n_translate_calls == 1
    recs[1][field] = value
    with pytest.raises(TraceError) as info:
        trace_from_dict(data)
    assert str(info.value) == f"step record 2: {field}: expected {kind}, got {value!r}"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failed_trace_read_leaves_its_file_closed(tmp_path):
    path = tmp_path / "t.jsonl"
    write_traces(path, [], ROUND_TRIP_CONFIG)
    header = path.read_text(encoding="utf-8")
    path.write_text(header + "[1, 2]\n" + header * 3, encoding="utf-8")
    with pytest.raises(TraceError, match=":2: expected a JSON object") as info:
        read_traces(path)
    assert info.value.__traceback__ is not None  # the reader's frame is still referenced
    targets = set()
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):  # the listing's own descriptor is gone
            targets.add(os.readlink(f"/proc/self/fd/{fd}"))
    assert str(path) not in targets


@pytest.mark.parametrize("write", [
    lambda path, cfg: write_traces(path, [], cfg),
    lambda path, cfg: save_run_config(cfg, path),
], ids=["write_traces", "save_run_config"])
def test_writers_refuse_a_config_their_readers_refuse(tmp_path, write):
    # built directly, so no reader has checked it
    cfg = RunConfig(source_path="(mem)", reference_path="(mem)", translator={"kind": "scripted"},
                    strategy=StrategyConfig("none"))
    path = tmp_path / "out.json"
    with pytest.raises(ConfigError, match="^" + re.escape(f"{path}")):
        write(path, cfg)
    assert not path.exists()


def test_schema_version_mismatch(tmp_path):
    cfg = _noisy_corpus_config(tmp_path, StrategyConfig("none"))
    traces, _ = run_corpus(cfg)
    path = tmp_path / "bad.jsonl"
    # the header's version, then a trace's
    for line in (1, 2):
        write_traces(path, traces[:1], cfg)
        lines = [json.loads(text) for text in path.read_text(encoding="utf-8").splitlines()]
        lines[line - 1]["schema_version"] = 999
        path.write_text("".join(json.dumps(data) + "\n" for data in lines), encoding="utf-8")
        with pytest.raises(SchemaVersionMismatch) as info:
            read_traces(path)
        assert str(info.value).startswith(f"{path}:{line}: ")


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
        validate_trace(dataclasses.replace(good, records=good.records[:-1]), cfg.strategy)
    with pytest.raises(TraceInvariantError):
        validate_trace(dataclasses.replace(good, final_output=("wrong",)), cfg.strategy)
    # probes on a policy that takes none, with a made-up call count, and
    # with a call count that matches them
    def first_step(**changes):
        rec = dataclasses.replace(good.records[0], **changes)
        return dataclasses.replace(good, records=(rec,) + good.records[1:])

    made_up = (("made", "up"),)
    bad_calls = first_step(probes=made_up, n_translate_calls=99)
    bad_probes = first_step(probes=made_up, n_translate_calls=2)
    for tampered in (bad_calls, bad_probes):
        with pytest.raises(TraceInvariantError, match=f"sentence {good.sentence_id}, step 1:"):
            validate_trace(tampered, cfg.strategy)

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


# each derived value a tamper may change: where it sits and its values. A
# recorded hypothesis and a dynamic step's probes are inputs to the
# rebuild, not derived values, so they are not among them
NUMBERS = st.integers(-2, 9)
DERIVED_VALUES = {
    "step_index": ("any step", NUMBERS),
    # the last record's source_prefix is the source the others must prefix
    "source_prefix": ("non-last step", TOKENS),
    "emitted_output": ("any step", TOKENS),
    "mask_length": ("any step", NUMBERS),
    "is_final": ("any step", st.booleans()),
    "n_translate_calls": ("any step", NUMBERS),
    "probes": ("step without probes", st.lists(TOKENS, min_size=1, max_size=3).map(tuple)),
    "final_output": ("trace", TOKENS),
}


@settings(deadline=None)  # a loaded host must not fail a correct example
@given(emitted_traces(), st.sampled_from(sorted(DERIVED_VALUES)), st.data())
def test_replay_accepts_emitted_traces_and_rejects_any_changed_output(case, field, data):
    strategy, trace = case
    validate_trace(trace, strategy)
    where, values = DERIVED_VALUES[field]
    last = len(trace.records) - 1
    if where == "trace":
        old = trace.final_output
    else:
        if where == "non-last step":
            assume(last > 0)
            pos = data.draw(st.integers(0, last - 1))
        elif where == "step without probes" and strategy.kind == "dynamic":
            pos = last
        else:
            pos = data.draw(st.integers(0, last))
        rec = trace.records[pos]
        old = getattr(rec, field)
    new = data.draw(values.filter(lambda value: value != old))
    if where == "trace":
        tampered = dataclasses.replace(trace, final_output=new)
        message = f"sentence {trace.sentence_id}: {field} "
    else:
        changes = {field: new}
        if field == "emitted_output":  # a display whose mask_length agrees with it
            changes["mask_length"] = erased_between(rec.raw_hypothesis, new)
        elif field == "probes":  # and a translate call for each
            changes["n_translate_calls"] = 1 + len(new)
        records = list(trace.records)
        records[pos] = dataclasses.replace(rec, **changes)
        tampered = dataclasses.replace(trace, records=tuple(records))
        message = f"sentence {trace.sentence_id}, step {pos + 1}: {field} "
    with pytest.raises(TraceInvariantError) as info:
        validate_trace(tampered, strategy)
    assert message in str(info.value)


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
        char_mode=False,
        ne_mode="corpus",
    )
    assert RunConfig.from_dict(cfg.to_dict()) == dataclasses.replace(cfg, parallelism=1)
    path = tmp_path / "run.json"
    save_run_config(cfg, path)
    loaded = dataclasses.replace(load_run_config(path), parallelism=4)
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
    base = _noisy_corpus_config(tmp_path, StrategyConfig("none"))
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
    previous = ()
    full = None
    if strat.kind == "oracle":
        try:
            full = translator.translate(source, source_is_final=True).tokens
        except Exception as exc:
            raise SimulationError(f"sentence {pair.sentence_id}, step {len(source)}", exc)
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
            raise SimulationError(f"sentence {pair.sentence_id}, step {i}", exc)
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
            "dynamic", bias_beta=b,
            # only a drawing predictor makes more than one extension, or takes a seed
            predictor=PredictorConfig(strategy, k=k, n=n, seed=seed)
            if strategy in ("lm_sample", "random") else PredictorConfig(strategy, k=k),
        ),
        st.sampled_from(["lm_sample", "lm_greedy", "unknown", "random"]),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 3),
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
    cfgs = [
        RunConfig(source_path="unused", reference_path="unused", translator={"kind": "toy"},
                  strategy=cell)
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


def _three_sentence_models() -> tuple[list[SentencePair], Models]:
    """Three sentences over CORE_WORDS, a toy decoder with two targets per
    word, and a bigram LM trained on the sentences."""
    lexicon = {w: ((t, 0.5), (t + "2", 0.5)) for w, t in zip(CORE_WORDS, "xyzw")}
    sources = [("a", "b", "c"), ("d", "c", "b", "a"), ("b",)]
    pairs = [SentencePair(s, ("x",), i) for i, s in enumerate(sources)]
    lm = train_lm(sources, order=2)
    models = Models(
        ToyLexicalTranslator(ToyModelConfig(lexicon=lexicon, beam_size=2, instability=0.5)),
        lm, frozenset(lm.vocabulary) - {UNK, EOS},
    )
    return pairs, models


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
    pairs, models = _three_sentence_models()
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


def test_translate_calls_are_what_the_records_count(monkeypatch):
    """A run's translate calls can be read from its traces: each step's
    n_translate_calls, plus one full-sentence translation per oracle session."""
    calls = []
    translate = CachingTranslator.translate

    def counting(self, *args, **kwargs):
        calls.append(args)
        return translate(self, *args, **kwargs)

    monkeypatch.setattr(CachingTranslator, "translate", counting)
    pairs, models = _three_sentence_models()
    cells = [
        StrategyConfig("none"),
        StrategyConfig("mask_k", k_mask=2),
        StrategyConfig("oracle"),
        StrategyConfig("dynamic", predictor=PredictorConfig("random", k=2, n=3)),
        StrategyConfig("dynamic", predictor=PredictorConfig("lm_sample", k=2, n=2),
                       bias_beta=0.5),
    ]
    cfgs = [RunConfig("unused", "unused", {"kind": "toy"}, cell) for cell in cells]
    traces, failure = sim._simulate(cfgs, pairs, models, 1)
    assert failure is None
    recorded = sum(
        rec.n_translate_calls for cell in traces for trace in cell for rec in trace.records
    )
    oracle_sessions = len(traces[cells.index(StrategyConfig("oracle"))])
    assert len(calls) == recorded + oracle_sessions


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
