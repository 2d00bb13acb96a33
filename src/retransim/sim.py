"""Simulated-ASR session runner.

Gold transcripts are revealed one token at a time; every update is
retranslated, run through the configured emission policy, and recorded.
A run is a pure function of its RunConfig: traces are reproducible
byte-for-byte regardless of parallelism degree, because every sentence
is an independent session and parallel processes only shard sentences.
Sweeps run a grid of strategies over one base config; validate_trace
rebuilds a recorded session with the step rule the simulator uses. A
failing step or sweep cell raises a SimulationError that locates its error.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import multiprocessing
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

from .core import CorpusError, SentencePair, SessionTrace, StepRecord, TokenSeq, read_corpus
from .core import ConfigError, _join, load_json, numbered_lines, read_config, write_lines
from .metrics import NE_MODES, MetricsError, TradeoffPoint, aggregate, erased_between
from .predict import EOS, UNK, MissingLM, NgramLM, PredictorConfig, check_lm, load_lm
from .predict import predict_extensions
from .strategy import StrategyConfig, emit
from .translator import (
    BiasSpec,
    CachingTranslator,
    Request,
    ToyLexicalTranslator,
    ToyModelConfig,
    load_lexicon,
    load_script,
)

TRACE_SCHEMA_VERSION = 1


class SimulationError(Exception):
    """A run's failure and where it happened: args are (where, error), so it
    crosses a forked child's pipe whole. error is never a SimulationError:
    locating one again joins the two locations."""

    def __init__(self, where: str, error: Exception):
        if isinstance(error, SimulationError):
            where, error = f"{where}: {error.args[0]}", error.error
        super().__init__(where, error)

    @property
    def error(self) -> Exception:
        return self.args[1]

    def __str__(self) -> str:
        return "%s: %s" % self.args


class TraceError(ValueError):
    """Malformed trace file."""


class SchemaVersionMismatch(TraceError):
    """Trace file written by an incompatible schema version."""


class TraceInvariantError(TraceError):
    """A trace violates the session invariants."""


@dataclass(frozen=True)
class ScriptedSpec:
    """A scripted translator spec's keys besides kind."""

    script_path: str
    identity_fallback: bool = False


@dataclass(frozen=True, kw_only=True)
class ToySpec(ToyModelConfig):
    """A toy translator spec's keys besides kind: its lexicon file and the
    decoder parameters, each ToyModelConfig field but the lexicon."""

    lexicon: dict = dataclasses.field(default_factory=dict, metadata={"key": False})
    lexicon_path: str


_TRANSLATOR_SPECS = {"scripted": ScriptedSpec, "toy": ToySpec}


def translator_spec(spec: dict, where: str = "") -> ScriptedSpec | ToySpec:
    """A translator config dict read as its kind's spec; range checks included."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _TRANSLATOR_SPECS:
        raise ConfigError(_join(": ", where, f"unknown translator kind {kind!r}"))
    params = {k: v for k, v in spec.items() if k != "kind"}
    return read_config(_TRANSLATOR_SPECS[kind], params, _join(": ", where, f"{kind} translator"))


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run.

    translator is a plain dict so configs stay serializable:
    {"kind": "toy", "lexicon_path": ..., beam_size/distortion/...}
    or {"kind": "scripted", "script_path": ..., "identity_fallback": ...};
    from_dict checks it against ToySpec or ScriptedSpec.
    parallelism is the number of processes that simulate sentences, the
    calling one included: each of the other parallelism - 1 is forked
    with the heap frozen (see _simulate). It is an execution detail the
    caller sets, no key of the serialized form, and must never change results.
    seed is reserved at 0: the one seed of a probe draw is strategy.predictor.seed.
    """

    source_path: str
    reference_path: str
    translator: dict = dataclasses.field(metadata={"check": translator_spec})
    strategy: StrategyConfig
    char_mode: bool = False
    seed: int = 0
    lm_path: str | None = None
    ne_mode: str = "mean"
    parallelism: int = dataclasses.field(default=1, metadata={"key": False})

    def __post_init__(self) -> None:
        if self.seed != 0:
            raise ConfigError(f"seed must be 0, got {self.seed}: use strategy.predictor.seed")
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.ne_mode not in NE_MODES:
            raise ConfigError(f"ne_mode must be one of {NE_MODES}, got {self.ne_mode!r}")

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        del data["parallelism"]
        return data

    @classmethod
    def from_dict(cls, data, where: str = "") -> "RunConfig":
        """Read a run config object; where (a file, say) prefixes every error."""
        return read_config(cls, data, _join(": ", where, "bad run config"))


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_run_config(path: str | Path) -> RunConfig:
    return RunConfig.from_dict(load_json(path, ConfigError), str(path))


def save_run_config(cfg: RunConfig, path: str | Path) -> None:
    """Write cfg as load_run_config reads it; a cfg it would refuse is a
    ConfigError, and no file is written."""
    data = cfg.to_dict()
    RunConfig.from_dict(data, str(path))
    write_lines(path, [json.dumps(data, sort_keys=True, ensure_ascii=False, indent=2)])


def build_translator(spec: dict):
    """Instantiate a translator from its config dict."""
    checked = translator_spec(spec)
    if isinstance(checked, ScriptedSpec):
        return load_script(checked.script_path, checked.identity_fallback)
    params = {k: v for k, v in spec.items() if k not in ("kind", "lexicon_path")}
    return ToyLexicalTranslator(load_lexicon(checked.lexicon_path, **params))


@dataclass
class Models:
    """Shared read-only models for a run: translator, optional LM, vocab.

    The translator is anything with translate_many (see translator.py);
    the simulator memoizes its results one sentence at a time.
    """

    translator: object
    lm: NgramLM | None = None
    vocab: frozenset[str] | None = None


def load_models(cfg: RunConfig, pairs: list[SentencePair]) -> Models:
    """Build the shared read-only models that cfg.translator and
    cfg.lm_path name; no strategy is read, so any strategy can use them.

    The probe vocabulary comes from the LM when one is loaded, otherwise
    from the source side of pairs.
    """
    translator = build_translator(cfg.translator)
    lm = load_lm(cfg.lm_path) if cfg.lm_path else None
    if lm is not None:
        vocab = frozenset(lm.vocabulary) - {UNK, EOS}
    else:
        vocab = frozenset(tok for pair in pairs for tok in pair.source)
    return Models(translator=translator, lm=lm, vocab=vocab)


def _takes_probes(predictor: PredictorConfig | None, is_final: bool) -> bool:
    """Whether a step translates probe extensions: a non-final step under a
    predictor, which only dynamic masking holds."""
    return predictor is not None and not is_final


def _step_record(
    strategy: StrategyConfig, step: int, prefix: TokenSeq, hypothesis: TokenSeq,
    probes: tuple[TokenSeq, ...], previous: TokenSeq, is_final: bool, full: TokenSeq | None,
) -> tuple:
    """A step's StepRecord fields, in order: the one rule by which a record
    follows from its translations, run by run_sentence and validate_trace.
    previous is the step before's display, full the oracle's full translation."""
    output = emit(strategy, hypothesis, probes, previous, is_final, full)
    return (step, prefix, hypothesis, output,
            erased_between(hypothesis, output),  # mask_length
            is_final, probes,
            1 + len(probes))  # n_translate_calls


def run_sentence(
    cfg: RunConfig, pair: SentencePair, models: Models, memo: _SentenceMemo | None = None
) -> SessionTrace:
    """Simulate one sentence: reveal, retranslate, probe, emit, record.

    Translations and probe draws go through memo, the sentence's
    _SentenceMemo; simulate_sentence shares one among its configs, and
    without one the config fills its own.
    """
    strat = cfg.strategy
    source = pair.source
    if memo is None:
        memo = _SentenceMemo([cfg], pair, models)
    translator = memo.translator
    predictor = strat.predictor

    previous: TokenSeq = ()
    full_translation: TokenSeq | None = None
    if strat.kind == "oracle":
        try:
            full_translation = translator.translate(source, source_is_final=True).tokens
        except Exception as exc:
            raise SimulationError(f"sentence {pair.sentence_id}, step {len(source)}", exc)

    records: list[StepRecord] = []
    for i, prefix in enumerate(memo.prefixes, start=1):
        is_final = i == len(source)
        bias = None
        if strat.bias_beta > 0.0:
            if previous:
                bias = BiasSpec(previous, strat.bias_beta)
            # decoded towards this session's own display, so not filled
            # ahead: the step's requests go to the decoder in one batch
            translator.translate_many(memo.requests(predictor, i, bias))

        probe_outputs: tuple[TokenSeq, ...] = ()
        try:
            hyp = translator.translate(prefix, bias, is_final).tokens
            if _takes_probes(predictor, is_final):
                extensions = memo.extensions(predictor, i)
                probe_outputs = tuple(
                    [translator.translate(ext, bias, False).tokens for ext in extensions]
                )
        except Exception as exc:
            raise SimulationError(f"sentence {pair.sentence_id}, step {i}", exc)

        # emission stays outside the try: its bugs are not input errors
        record = StepRecord(*_step_record(
            strat, i, prefix, hyp, probe_outputs, previous, is_final, full_translation
        ))
        records.append(record)
        previous = record.emitted_output

    return SessionTrace(
        sentence_id=pair.sentence_id,
        records=tuple(records),
        final_output=records[-1].emitted_output,
        reference=pair.reference,
    )


def simulate_sentence(
    cfgs: list[RunConfig], pair: SentencePair, models: Models
) -> tuple[list[SessionTrace], tuple[int, Exception] | None]:
    """Every config's session over one sentence, through one _SentenceMemo.

    Returns (one trace per config, None), or, when config c fails, the
    traces of the configs before it and (c, error).
    """
    memo = _SentenceMemo(cfgs, pair, models)
    traces = []
    for index, cfg in enumerate(cfgs):
        try:
            traces.append(run_sentence(cfg, pair, models, memo))
        except Exception as exc:  # returned, so the caller can pick the serial order's first
            return traces, (index, exc)
    return traces, None


class _SentenceMemo:
    """One sentence's prefixes, translations and probe extensions, shared
    by the configs run over it.

    translator is a CachingTranslator over the models' translator, so
    translator errors are kept and raised by each step that asks again.
    Building the memo fills it with every request of the unbiased
    configs (each prefix's hypothesis, the last one also the oracle's
    full translation, and every probe) in one translate_many call: the
    decoder kernel decodes them all in one crossing.
    """

    def __init__(self, cfgs: list[RunConfig], pair: SentencePair, models: Models):
        self.pair, self.models = pair, models
        # one tuple per prefix, however many configs' records hold it
        self.prefixes = [pair.source[:i] for i in range(1, len(pair.source) + 1)]
        self.translator = CachingTranslator(models.translator)
        self._extensions: dict[tuple[PredictorConfig, int], list[TokenSeq]] = {}
        keys = dict.fromkeys(c.strategy.predictor for c in cfgs if c.strategy.bias_beta == 0.0)
        self.translator.translate_many(
            [
                request
                for key in keys
                for step in range(1, len(self.prefixes) + 1)
                for request in self.requests(key, step, None)
            ]
        )

    def extensions(self, predictor: PredictorConfig, step: int) -> list[TokenSeq]:
        """The predictor's extensions of the step's prefix, drawn once;
        errors are raised, not kept."""
        key = (predictor, step)
        found = self._extensions.get(key)
        if found is None:
            found = self._extensions[key] = predict_extensions(
                predictor,
                self.models.lm,
                self.models.vocab,
                self.prefixes[step - 1],
                sentence_id=self.pair.sentence_id,
                step_index=step,
            )
        return found

    def requests(
        self, predictor: PredictorConfig | None, step: int, bias: BiasSpec | None
    ) -> list[Request]:
        """A step's translate requests: its hypothesis, then its probes. A
        predictor that fails adds none; the step raises its error itself."""
        is_final = step == len(self.prefixes)
        requests = [(self.prefixes[step - 1], bias, is_final)]
        if _takes_probes(predictor, is_final):
            try:
                extensions = self.extensions(predictor, step)
            except Exception:  # raised again by the step that needs the probes
                return requests
            requests += [(ext, bias, False) for ext in extensions]
        return requests


def run_corpus(
    cfg: RunConfig, models: Models | None = None
) -> tuple[list[SessionTrace], TradeoffPoint]:
    """Run every corpus sentence and aggregate corpus metrics."""
    traces, failure = _run_configs(cfg, [cfg], models)
    if failure is not None:
        raise failure[1]
    return traces[0], aggregate(cfg.strategy.label, traces[0], ne_mode=cfg.ne_mode)


def _run_configs(
    base: RunConfig, cfgs: list[RunConfig], models: Models | None = None
) -> tuple[list[list[SessionTrace]], tuple[int, Exception] | None]:
    """Every config over base's corpus, as _simulate returns it.

    The corpus is read once, and base's models are loaded once unless
    given. Every config's LM need is checked before any sentence is
    simulated; an unmet one is that config's failure.
    """
    pairs = read_corpus(base.source_path, base.reference_path, base.char_mode)
    if not pairs:
        raise CorpusError(f"{base.source_path}: empty corpus")
    if models is None:
        models = load_models(base, pairs)
    for index, cfg in enumerate(cfgs):
        try:
            check_lm(cfg.strategy.predictor, models.lm)
        except MissingLM as exc:
            return [], (index, exc)
    return _simulate(cfgs, pairs, models, base.parallelism)


def _simulate(
    cfgs: list[RunConfig], pairs: list[SentencePair], models: Models, jobs: int
) -> tuple[list[list[SessionTrace]], tuple[int, Exception] | None]:
    """Run every config over every sentence; each config's traces by sentence_id.

    With jobs > 1 the sentences are cut into the shards pairs[i::jobs]:
    this process runs shard 0, and each other shard runs in one forked
    child process, which runs every config over it sentence by sentence
    as the serial run does and sends its _run_shard result back over a
    pipe. Fork hands the models over without pickling them, and the
    simulation starts no threads that a fork could catch holding a lock.
    The heap is frozen across the forks (gc.freeze), so a child's
    collector never walks the objects it inherited. An exception that
    escapes a child's shard is raised here with its type and message; a
    child that dies without sending raises RuntimeError naming its exit
    code instead of hanging. Every child is killed and reaped before
    this returns or raises. Where fork does not exist, everything runs
    in this process.

    On failure the traces are empty and the failure is (config index,
    exception) of the first error in serial order, config by config and
    sentence by sentence, so sharding never changes which error is seen.
    """
    jobs = min(jobs, len(pairs))
    if jobs > 1 and "fork" in multiprocessing.get_all_start_methods():
        shards = _run_forked(cfgs, pairs, models, jobs)
    else:
        shards = [_run_shard(cfgs, pairs, models)]
    failures = [failure for _, failure in shards if failure is not None]
    if failures:
        index, _, exc = min(failures, key=lambda failure: failure[:2])
        return [], (index, exc)
    return [
        sorted(
            chain.from_iterable(traces[c] for traces, _ in shards),
            key=lambda trace: trace.sentence_id,
        )
        for c in range(len(cfgs))
    ], None


def _run_shard(cfgs, pairs, models):
    """(traces per config, None), or ([], (config index, sentence_id, error))
    of the first error in config-then-sentence order.

    Sentence by sentence, every config runs through simulate_sentence.
    When config c fails, configs from c on stop; the configs before c run
    on, because one of them failing later comes first in that order.
    """
    out: list[list[SessionTrace]] = [[] for _ in cfgs]
    live, failure = cfgs, None
    for pair in pairs:
        traces, failed = simulate_sentence(live, pair, models)
        for cell, trace in zip(out, traces):
            cell.append(trace)
        if failed is not None:
            index, exc = failed
            failure = (index, pair.sentence_id, exc)
            live = cfgs[:index]
            if not live:
                break
    if failure is not None:
        return [], failure
    return out, None


def _run_forked(cfgs, pairs, models, jobs: int) -> list:
    """The _run_shard results of the shards pairs[i::jobs], in shard order:
    shard 0 run here, every other one in a forked child (see _simulate)."""
    fork = multiprocessing.get_context("fork")
    children = []
    try:
        gc.freeze()
        try:
            for shard in range(1, jobs):
                receiver, sender = fork.Pipe(duplex=False)
                child = fork.Process(
                    target=_child_shard, args=(sender, cfgs, pairs[shard::jobs], models),
                    daemon=True,
                )
                children.append((child, receiver))
                # the child holds the only sending end, so its death ends the pipe
                with sender:
                    child.start()
        finally:
            gc.unfreeze()
        shards = [_run_shard(cfgs, pairs[0::jobs], models)]
        for shard, (child, receiver) in enumerate(children, start=1):
            try:
                result = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"the process simulating shard {shard} of {jobs} exited "
                    f"with code {child.exitcode} before sending its result"
                ) from None
            if isinstance(result, Exception):
                raise result
            shards.append(result)
        return shards
    finally:
        for child, receiver in children:
            if child.pid is not None:
                child.kill()
                child.join()
            receiver.close()


def _child_shard(sender, cfgs, pairs, models) -> None:
    """A forked child's work: send _run_shard's result, or the exception
    that escaped it."""
    try:
        result = _run_shard(cfgs, pairs, models)
    except Exception as exc:  # sent, so the parent raises it
        result = exc
    sender.send(result)


# ---------------------------------------------------------------------------
# Sweeps: a grid of strategies over one base run configuration
# ---------------------------------------------------------------------------


# the field metadata of a sweep axis: its key sits in the spec's "axes" object
_AXIS = {"section": "axes"}


@dataclass(frozen=True)
class SweepSpec:
    """A grid of strategies over one base run configuration.

    mask-k cells are the cross product of k_mask and bias_beta, dynamic
    cells that of dynamic_cells and bias_beta. No cell is merged or
    dropped: every cell must map to a unique strategy label.
    """

    base: RunConfig
    k_mask: tuple[int, ...] = dataclasses.field(default=(), metadata=_AXIS)
    bias_beta: tuple[float, ...] = dataclasses.field(default=(0.0,), metadata=_AXIS)
    dynamic_cells: tuple[PredictorConfig, ...] = ()
    include_none: bool = False
    include_oracle: bool = False

    def __post_init__(self) -> None:
        self.cells()  # every cell a valid strategy, and the labels unique

    def cells(self) -> list[StrategyConfig]:
        betas = self.bias_beta  # an empty list crosses to no cells
        out: list[StrategyConfig] = []
        if self.include_none:
            out.extend(StrategyConfig("none", bias_beta=b) for b in betas)
        if self.include_oracle:
            out.append(StrategyConfig("oracle"))
        for k in self.k_mask:
            out.extend(StrategyConfig("mask_k", k_mask=k, bias_beta=b) for b in betas)
        for pred in self.dynamic_cells:
            out.extend(StrategyConfig("dynamic", predictor=pred, bias_beta=b) for b in betas)
        labels = Counter(cell.label for cell in out)
        dupes = [label for label, c in labels.items() if c > 1]
        if dupes:
            raise ConfigError(f"duplicate sweep cell labels: {dupes}")
        if not out:
            raise ConfigError("sweep defines no cells")
        return out

    @classmethod
    def from_dict(cls, data, where: str = "") -> "SweepSpec":
        """Read a sweep spec object; where (a file, say) prefixes every error."""
        return read_config(cls, data, _join(": ", where, "bad sweep spec"))


def load_sweep_spec(path: str | Path) -> SweepSpec:
    return SweepSpec.from_dict(load_json(path, ConfigError), str(path))


def run_sweep(spec: SweepSpec) -> list[tuple[StrategyConfig, TradeoffPoint, list[SessionTrace]]]:
    """Run and score every cell; (cell, point, traces) come back sorted by
    strategy label. Like run_corpus, it writes no file.

    The base config supplies the corpus, models and run settings; its
    strategy is not run. Every cell's LM needs are checked before any
    work starts. The cells run sentence by sentence through
    simulate_sentence, which shares each sentence's translations and
    probe draws across cells; that is sound because translators and
    predictors are pure functions of their inputs. With
    spec.base.parallelism > 1 each process (see _simulate) does so over
    its shard of sentences. The first cell that fails, in simulation, in
    its LM check or in its metrics, is a SimulationError at its label.
    """
    cells = spec.cells()
    cfgs = [dataclasses.replace(spec.base, strategy=cell) for cell in cells]
    traces, failure = _run_configs(spec.base, cfgs)
    if failure is not None:
        index, exc = failure
        raise SimulationError(f"cell {cells[index].label!r}", exc)

    results = []
    for cell, cfg, cell_traces in zip(cells, cfgs, traces):
        try:
            point = aggregate(cell.label, cell_traces, ne_mode=cfg.ne_mode)
        except MetricsError as exc:
            raise SimulationError(f"cell {cell.label!r}", exc)
        results.append((cell, point, cell_traces))
    results.sort(key=lambda item: item[0].label)
    return results


# ---------------------------------------------------------------------------
# Trace serialization (JSONL, one session per line, versioned)
# ---------------------------------------------------------------------------


# trace lines need no sort_keys: trace_to_dict inserts every key in sorted
# order, so the bytes equal json.dumps(..., sort_keys=True); tuples encode as
# arrays
_TRACE_ENCODER = json.JSONEncoder(ensure_ascii=False)


def trace_to_dict(trace: SessionTrace) -> dict:
    """A trace as a JSON-ready dict whose keys, and each record's, are in sorted order."""
    return {
        "final_output": trace.final_output,
        "kind": "trace",
        "records": [
            {
                "emitted_output": rec.emitted_output,
                "is_final": rec.is_final,
                "mask_length": rec.mask_length,
                "n_translate_calls": rec.n_translate_calls,
                "probes": rec.probes,
                "raw_hypothesis": rec.raw_hypothesis,
                "source_prefix": rec.source_prefix,
                "step_index": rec.step_index,
            }
            for rec in trace.records
        ],
        "reference": trace.reference,
        "schema_version": TRACE_SCHEMA_VERSION,
        "sentence_id": trace.sentence_id,
    }


# what an absent probes list reads as; compared by value, never handed out
_NO_PROBES: list = []


def trace_from_dict(data: dict, strings: dict | None = None) -> SessionTrace:
    """Rebuild a trace; raises TraceError for a wrong version or a missing or mistyped field.

    Every token field must be an array of strings (`reference` may be
    null) and `sentence_id` an int. Each token is stored as
    `strings.setdefault(token, token)`, so traces built with one `strings`
    dict hold each distinct token once; read_traces keeps one per file.
    """
    version = data.get("schema_version")
    if version != TRACE_SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"trace schema version {version}, expected {TRACE_SCHEMA_VERSION}"
        )
    missing = [key for key in ("sentence_id", "records", "final_output") if key not in data]
    if missing:
        raise TraceError(f"trace lacks {', '.join(map(repr, missing))}")
    sentence_id = data["sentence_id"]
    if type(sentence_id) is not int:
        raise TraceError(f"sentence_id: expected int, got {sentence_id!r}")
    if strings is None:
        strings = {}
    known = len(strings)
    share = strings.setdefault

    def tokens(seq) -> TokenSeq:
        # a non-iterable fails in map, an iterable that is not an array here;
        # tuples are arrays too, as trace_to_dict leaves them
        toks = tuple(map(share, seq, seq))
        if not isinstance(seq, (list, tuple)):
            raise TypeError(f"expected an array of strings, got {type(seq).__name__}")
        return toks

    records = []
    append = records.append
    try:
        for rec in data["records"]:
            step, mask, final = rec["step_index"], rec["mask_length"], rec["is_final"]
            calls = rec.get("n_translate_calls", 1)
            if type(step) is not int:
                raise _mistyped(len(records), "step_index", step, int)
            if type(mask) is not int:
                raise _mistyped(len(records), "mask_length", mask, int)
            if type(final) is not bool:
                raise _mistyped(len(records), "is_final", final, bool)
            if type(calls) is not int:
                raise _mistyped(len(records), "n_translate_calls", calls, int)
            # StepRecords built positionally, in field order; absent or
            # empty probes are (), anything else is converted and may
            # raise: a probes value that is not an array fails in `tokens`,
            # on its first element or, if it converts to (), on itself
            append(StepRecord(
                step,
                tokens(rec["source_prefix"]),
                tokens(rec["raw_hypothesis"]),
                tokens(rec["emitted_output"]),
                mask,
                final,
                () if (probes := rec.get("probes", _NO_PROBES)) == _NO_PROBES
                else tuple(map(tokens, probes)) or tokens(probes),
                calls,
            ))
    except (AttributeError, KeyError, TypeError) as exc:
        raise TraceError(f"malformed step record: {type(exc).__name__}: {exc}") from exc
    ends = []
    for key in ("final_output", "reference"):
        value = data.get(key)
        try:
            ends.append(None if value is None and key == "reference" else tokens(value))
        except TypeError as exc:
            raise TraceError(f"malformed {key}: TypeError: {exc}") from exc
    # only the tokens this trace added to strings are type-checked, so a
    # file costs one check per distinct token
    for token in islice(reversed(strings), len(strings) - known):
        if type(token) is not str:
            raise TraceError(f"token {token!r}: expected a string")
    return SessionTrace(sentence_id, tuple(records), *ends)


def _mistyped(before: int, field: str, value, kind: type) -> TraceError:
    """The error for a step field of the wrong type, after `before` good records;
    a bool is no int."""
    return TraceError(
        f"step record {before + 1}: {field}: expected {kind.__name__}, got {value!r}"
    )


def write_traces(path: str | Path, traces: list[SessionTrace], config: RunConfig) -> None:
    """Write the run header line, then one JSON line per trace in sentence_id order;
    a config that read_traces would refuse is a ConfigError, and no file is written."""
    data = config.to_dict()
    RunConfig.from_dict(data, f"{path}: run header")
    header = {"kind": "run_header", "schema_version": TRACE_SCHEMA_VERSION,
              "config": data, "config_hash": config_hash(config)}
    ordered = sorted(traces, key=lambda tr: tr.sentence_id)
    lines = map(_TRACE_ENCODER.encode, map(trace_to_dict, ordered))
    write_lines(path, chain([json.dumps(header, sort_keys=True, ensure_ascii=False)], lines))


def read_traces(path: str | Path) -> tuple[RunConfig, list[SessionTrace]]:
    """Read a trace file back; returns (its run header's checked config, traces).

    The first non-blank line must be the run header, and no other line may
    be one. The traces share one string per distinct token (see trace_from_dict).
    """
    cfg: RunConfig | None = None
    traces: list[SessionTrace] = []
    strings: dict[str, str] = {}
    for lineno, line in numbered_lines(path, TraceError):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}:{lineno}: {exc.msg}") from exc
        if not isinstance(data, dict):
            raise TraceError(
                f"{path}:{lineno}: expected a JSON object, got {type(data).__name__}"
            )
        if cfg is None:
            cfg = _header_config(path, lineno, data)
        elif data.get("kind") == "run_header":
            raise TraceError(f"{path}:{lineno}: second run header")
        else:
            try:
                traces.append(trace_from_dict(data, strings))
            except TraceError as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    if cfg is None:
        raise TraceError(f"{path}: no run header")
    return cfg, traces


def _header_config(path: str | Path, lineno: int, data: dict) -> RunConfig:
    """The config of a trace file's run header; its version must match, and
    its config must parse and hash to its config_hash."""
    if data.get("kind") != "run_header":
        raise TraceError(f"{path}:{lineno}: expected a run header, got {data.get('kind')!r}")
    version = data.get("schema_version")
    if version != TRACE_SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"{path}:{lineno}: schema version {version}, expected {TRACE_SCHEMA_VERSION}"
        )
    cfg = RunConfig.from_dict(data.get("config"), where=f"{path}: run header")
    if data.get("config_hash") != config_hash(cfg):
        raise TraceError(
            f"{path}:{lineno}: run header config_hash {data.get('config_hash')!r} "
            "does not match its config"
        )
    return cfg


def read_valid_traces(path: str | Path) -> tuple[RunConfig, list[SessionTrace]]:
    """Read a trace file (read_traces checks its header) and validate every
    trace before anything scores it: sentence ids ascend, as written, and
    each trace is rebuilt under the header's strategy (see validate_trace).
    """
    cfg, traces = read_traces(path)
    if not traces:
        raise TraceError(f"{path}: no traces")
    for before, trace in zip(traces, traces[1:]):
        if trace.sentence_id <= before.sentence_id:
            raise TraceError(f"{path}: sentence {trace.sentence_id} after {before.sentence_id}")
    for trace in traces:
        try:
            validate_trace(trace, cfg.strategy)
        except TraceInvariantError as exc:
            raise TraceInvariantError(f"{path}: {exc}") from exc
    return cfg, traces


# a StepRecord's field names, and its values in that order, as _step_record returns them
_RECORD_FIELDS = tuple(field.name for field in dataclasses.fields(StepRecord))
_record_values = operator.attrgetter(*_RECORD_FIELDS)


def validate_trace(trace: SessionTrace, strategy: StrategyConfig) -> None:
    """Rebuild each step's record with the simulator's step rule; raises
    TraceInvariantError naming the first recorded value that differs.

    A step is rebuilt from its recorded hypothesis, its recorded probes
    where the policy takes probes (none elsewhere) and the display
    recorded the step before; the oracle's full-sentence translation is
    the last step's hypothesis. final_output must be the last display.
    """
    if not trace.records:
        raise TraceInvariantError(f"sentence {trace.sentence_id}: no records")
    source = trace.records[-1].source_prefix
    if len(trace.records) != len(source):
        raise TraceInvariantError(
            f"sentence {trace.sentence_id}: {len(trace.records)} records "
            f"for {len(source)} source tokens"
        )
    full = trace.records[-1].raw_hypothesis
    previous: TokenSeq = ()
    # whether the policy takes probes on a non-final step, and on the final one
    takes_probes = (_takes_probes(strategy.predictor, False),
                    _takes_probes(strategy.predictor, True))
    for pos, rec in enumerate(trace.records, start=1):
        is_final = pos == len(source)
        probes = rec.probes if takes_probes[is_final] else ()
        try:
            rebuilt = _step_record(
                strategy, pos, source[:pos], rec.raw_hypothesis, probes, previous, is_final, full
            )
        except ValueError as exc:  # a dynamic non-final step with no probes
            raise TraceInvariantError(f"sentence {trace.sentence_id}, step {pos}: {exc}") from exc
        recorded = _record_values(rec)
        if recorded != rebuilt:
            field, got, want = next(
                diff for diff in zip(_RECORD_FIELDS, recorded, rebuilt) if diff[1] != diff[2]
            )
            raise TraceInvariantError(
                f"sentence {trace.sentence_id}, step {pos}: {field} {_shown(got)}, "
                f"expected {_shown(want)}"
            )
        previous = rec.emitted_output
    if trace.final_output != previous:
        raise TraceInvariantError(
            f"sentence {trace.sentence_id}: final_output {_shown(trace.final_output)}, "
            f"expected {_shown(previous)}"
        )


def _shown(value):
    """A record value as errors show it: token sequences as lists."""
    return [_shown(item) for item in value] if isinstance(value, tuple) else value
