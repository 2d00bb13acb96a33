"""Simulated-ASR session runner.

Gold transcripts are revealed one token at a time; every update is
retranslated, run through the configured emission policy, and recorded.
A run is a pure function of its RunConfig: traces are reproducible
byte-for-byte regardless of parallelism degree, because every sentence
is an independent session and worker processes only shard sentences.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .core import (
    CorpusError,
    SentencePair,
    SessionTrace,
    StepRecord,
    TokenSeq,
    longest_common_prefix,
    read_corpus,
)
from .metrics import TradeoffPoint, aggregate
from .predict import EOS, UNK, MissingLM, NgramLM, load_lm, predict_extensions
from .strategy import (
    EmissionState,
    StrategyConfig,
    emit_dynamic,
    emit_mask_k,
    emit_none,
    emit_oracle,
)
from .translator import (
    BiasSpec,
    CachingTranslator,
    ToyLexicalTranslator,
    load_lexicon,
    load_script,
)

TRACE_SCHEMA_VERSION = 1

_TOY_PARAM_KEYS = (
    "beam_size",
    "distortion",
    "instability",
    "eos_prob_final",
    "eos_prob_nonfinal",
    "max_len_ratio",
    "seed",
)


class SimulationError(Exception):
    """A translator or predictor failure, annotated with its location."""


class TraceError(ValueError):
    """Malformed trace file."""


class SchemaVersionMismatch(TraceError):
    """Trace file written by an incompatible schema version."""


class TraceInvariantError(TraceError):
    """A trace violates the session invariants."""


class ConfigError(ValueError):
    """Malformed run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run.

    translator is a plain dict so configs stay serializable:
    {"kind": "toy", "lexicon_path": ..., beam_size/distortion/...}
    or {"kind": "scripted", "script_path": ..., "identity_fallback": ...}.
    parallelism is the number of worker processes that simulate
    sentences; it is an execution detail, excluded from the serialized
    form, and must never change results.
    """

    source_path: str
    reference_path: str
    translator: dict
    strategy: StrategyConfig
    char_mode: bool = False
    seed: int = 0
    lm_path: str | None = None
    ne_mode: str = "mean"
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")

    def to_dict(self) -> dict:
        strat = self.strategy
        predictor = None
        if strat.predictor is not None:
            p = strat.predictor
            predictor = {"strategy": p.strategy, "k": p.k, "n": p.n, "seed": p.seed}
        return {
            "source_path": self.source_path,
            "reference_path": self.reference_path,
            "translator": dict(self.translator),
            "strategy": {
                "kind": strat.kind,
                "k_mask": strat.k_mask,
                "bias_beta": strat.bias_beta,
                "predictor": predictor,
            },
            "char_mode": self.char_mode,
            "seed": self.seed,
            "lm_path": self.lm_path,
            "ne_mode": self.ne_mode,
        }

    @classmethod
    def from_dict(cls, data: dict, parallelism: int = 1) -> "RunConfig":
        from .predict import PredictorConfig

        try:
            strat_data = dict(data["strategy"])
            pred_data = strat_data.pop("predictor", None)
            predictor = PredictorConfig(**pred_data) if pred_data else None
            strategy = StrategyConfig(predictor=predictor, **strat_data)
            return cls(
                source_path=data["source_path"],
                reference_path=data["reference_path"],
                translator=dict(data["translator"]),
                strategy=strategy,
                char_mode=data.get("char_mode", False),
                seed=data.get("seed", 0),
                lm_path=data.get("lm_path"),
                ne_mode=data.get("ne_mode", "mean"),
                parallelism=parallelism,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad run config: {exc}") from exc


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_run_config(path: str | Path, parallelism: int = 1) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return RunConfig.from_dict(data, parallelism=parallelism)


def save_run_config(cfg: RunConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, sort_keys=True, ensure_ascii=False, indent=2)
        fh.write("\n")


def build_translator(spec: dict):
    """Instantiate a translator from its config dict, wrapped in a cache."""
    kind = spec.get("kind")
    if kind == "scripted":
        translator = load_script(
            spec["script_path"],
            identity_fallback=bool(spec.get("identity_fallback", False)),
        )
    elif kind == "toy":
        params = {k: spec[k] for k in _TOY_PARAM_KEYS if k in spec}
        translator = ToyLexicalTranslator(load_lexicon(spec["lexicon_path"], **params))
    else:
        raise ConfigError(f"unknown translator kind {kind!r}")
    if spec.get("cache", True):
        translator = CachingTranslator(translator)
    return translator


@dataclass
class Models:
    """Shared read-only models for a run: translator, optional LM, vocab."""

    translator: object
    lm: NgramLM | None = None
    vocab: frozenset[str] | None = None


def load_models(cfg: RunConfig, pairs: list[SentencePair] | None = None) -> Models:
    """Build the shared read-only models; usable across strategies.

    The probe vocabulary comes from the LM when one is loaded, otherwise
    from the corpus source side.
    """
    translator = build_translator(cfg.translator)
    lm = load_lm(cfg.lm_path) if cfg.lm_path else None
    check_lm(cfg.strategy, lm)
    vocab: frozenset[str] | None = None
    if lm is not None:
        vocab = frozenset(lm.vocabulary) - {UNK, EOS}
    elif pairs is not None:
        vocab = frozenset(tok for pair in pairs for tok in pair.source)
    return Models(translator=translator, lm=lm, vocab=vocab)


def check_lm(strategy: StrategyConfig, lm: NgramLM | None) -> None:
    """Raise MissingLM if a dynamic strategy's predictor needs an LM and none is loaded."""
    if strategy.kind != "dynamic" or lm is not None:
        return
    if strategy.predictor.strategy in ("lm_sample", "lm_greedy"):
        raise MissingLM(f"strategy {strategy.predictor.strategy} needs --lm (see train-lm)")


def run_sentence(cfg: RunConfig, pair: SentencePair, models: Models) -> SessionTrace:
    """Simulate one sentence: reveal, retranslate, probe, emit, record."""
    strat = cfg.strategy
    translator = models.translator
    source = pair.source
    if not source:
        raise CorpusError(f"sentence {pair.sentence_id}: empty source")
    predictor = strat.predictor
    if predictor is not None:
        # fold the run seed into the predictor stream; per-draw seeding
        # also mixes sentence_id, so results are order-independent
        predictor = dataclasses.replace(predictor, seed=predictor.seed ^ cfg.seed)

    state = EmissionState(sentence_id=pair.sentence_id)
    full_translation: TokenSeq | None = None
    if strat.kind == "oracle":
        full_translation = _checked(
            lambda: translator.translate(source, source_is_final=True).tokens,
            pair.sentence_id,
            len(source),
        )

    records: list[StepRecord] = []
    for i in range(1, len(source) + 1):
        prefix = source[:i]
        is_final = i == len(source)
        bias = None
        if strat.bias_beta > 0.0 and strat.kind != "oracle" and state.previous_output:
            bias = BiasSpec(state.previous_output, strat.bias_beta)

        calls = 1
        if strat.kind == "oracle" and is_final:
            hyp = full_translation  # the upfront full-sentence call
        else:
            hyp = _checked(
                lambda: translator.translate(
                    prefix, bias=bias, source_is_final=is_final
                ).tokens,
                pair.sentence_id,
                i,
            )

        probe_outputs: tuple[TokenSeq, ...] = ()
        if strat.kind == "dynamic" and not is_final:
            extensions = _checked(
                lambda: predict_extensions(
                    predictor,
                    models.lm,
                    models.vocab,
                    prefix,
                    sentence_id=pair.sentence_id,
                    step_index=i,
                ),
                pair.sentence_id,
                i,
            )
            probe_outputs = tuple(
                _checked(
                    lambda e=ext: translator.translate(
                        e, bias=bias, source_is_final=False
                    ).tokens,
                    pair.sentence_id,
                    i,
                )
                for ext in extensions
            )
            calls += len(extensions)

        if strat.kind == "none":
            output = emit_none(hyp)
        elif strat.kind == "mask_k":
            output = emit_mask_k(hyp, strat.k_mask, is_final)
        elif strat.kind == "dynamic":
            output, _ = emit_dynamic(hyp, probe_outputs, state, is_final)
        else:
            assert full_translation is not None
            output = emit_oracle(hyp, full_translation, is_final, state.previous_output)

        mask = len(hyp) - len(longest_common_prefix(hyp, output))
        records.append(
            StepRecord(
                step_index=i,
                source_prefix=prefix,
                raw_hypothesis=hyp,
                emitted_output=output,
                mask_length=mask,
                is_final=is_final,
                probes=probe_outputs,
                n_translate_calls=calls,
            )
        )
        state.previous_output = output
        state.step_index = i

    return SessionTrace(
        sentence_id=pair.sentence_id,
        records=tuple(records),
        final_output=records[-1].emitted_output,
        reference=pair.reference,
    )


def _checked(thunk, sentence_id: int, step_index: int):
    try:
        return thunk()
    except SimulationError:
        raise
    except Exception as exc:
        raise SimulationError(
            f"sentence {sentence_id}, step {step_index}: {exc}"
        ) from exc


def run_corpus(
    cfg: RunConfig, models: Models | None = None
) -> tuple[list[SessionTrace], TradeoffPoint]:
    """Run every corpus sentence and aggregate corpus metrics."""
    pairs = read_corpus(cfg.source_path, cfg.reference_path, cfg.char_mode)
    if not pairs:
        raise CorpusError(f"{cfg.source_path}: empty corpus")
    if models is None:
        models = load_models(cfg, pairs)
    traces, failure = _simulate([cfg], pairs, models, cfg.parallelism)
    if failure is not None:
        raise failure[1]
    return traces[0], aggregate(cfg.strategy.label, traces[0], ne_mode=cfg.ne_mode)


def _simulate(
    cfgs: list[RunConfig], pairs: list[SentencePair], models: Models, jobs: int
) -> tuple[list[list[SessionTrace]], tuple[int, Exception] | None]:
    """Run every config over every sentence; each config's traces by sentence_id.

    With jobs > 1, forked worker processes each take the shard
    pairs[i::jobs] and run every config over it with their own copy of
    the models, so a sweep's cross-config cache hits stay inside each
    worker. Fork hands the models over without pickling them, and the
    simulation starts no threads that a fork could catch holding a lock.
    A worker that dies raises BrokenProcessPool here instead of hanging.
    Where fork does not exist, everything runs in this process.

    On failure the traces are empty and the failure is (config index,
    exception) of the first error in serial order, config by config and
    sentence by sentence, so sharding never changes which error is seen.
    """
    jobs = min(jobs, len(pairs))
    if jobs > 1 and "fork" in multiprocessing.get_all_start_methods():
        # imported here so that serial runs do not load the process-pool
        # modules (about 1.3 MiB of resident memory on CPython 3.11)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            jobs,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(cfgs, pairs, models, jobs),
        ) as pool:
            shards = list(pool.map(_worker_shard, range(jobs)))
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
    """(traces per config, None), or ([], (config index, sentence_id, error)) at the first error."""
    out = []
    for index, cfg in enumerate(cfgs):
        traces = []
        for pair in pairs:
            try:
                traces.append(run_sentence(cfg, pair, models))
            except Exception as exc:  # returned, so the parent can pick the serial loop's first
                return [], (index, pair.sentence_id, exc)
        out.append(traces)
    return out, None


# (cfgs, pairs, models, jobs) of the pool this process works for; set only
# in forked workers, by the pool's initializer, whose arguments a forked
# worker inherits rather than unpickles
_worker_state: tuple | None = None


def _init_worker(*state) -> None:
    global _worker_state
    _worker_state = state


def _worker_shard(shard: int):
    cfgs, pairs, models, jobs = _worker_state
    return _run_shard(cfgs, pairs[shard::jobs], models)


# ---------------------------------------------------------------------------
# Trace serialization (JSONL, one session per line, versioned)
# ---------------------------------------------------------------------------


def trace_to_dict(trace: SessionTrace) -> dict:
    return {
        "kind": "trace",
        "schema_version": TRACE_SCHEMA_VERSION,
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


def trace_from_dict(data: dict) -> SessionTrace:
    """Rebuild a trace; raises TraceError for a wrong version or missing fields."""
    version = data.get("schema_version")
    if version != TRACE_SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"trace schema version {version}, expected {TRACE_SCHEMA_VERSION}"
        )
    missing = [key for key in ("sentence_id", "records", "final_output") if key not in data]
    if missing:
        raise TraceError(f"trace lacks {', '.join(map(repr, missing))}")
    try:
        records = tuple(
            StepRecord(
                step_index=rec["step_index"],
                source_prefix=tuple(rec["source_prefix"]),
                raw_hypothesis=tuple(rec["raw_hypothesis"]),
                emitted_output=tuple(rec["emitted_output"]),
                mask_length=rec["mask_length"],
                is_final=rec["is_final"],
                probes=tuple(tuple(p) for p in rec.get("probes", [])),
                n_translate_calls=rec.get("n_translate_calls", 1),
            )
            for rec in data["records"]
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise TraceError(f"malformed step record: {type(exc).__name__}: {exc}") from exc
    reference = data.get("reference")
    return SessionTrace(
        sentence_id=data["sentence_id"],
        records=records,
        final_output=tuple(data["final_output"]),
        reference=tuple(reference) if reference is not None else None,
    )


def write_traces(
    path: str | Path, traces: list[SessionTrace], config: RunConfig | None = None
) -> None:
    """Write one JSON line per trace, preceded by a provenance header."""
    with open(path, "w", encoding="utf-8") as fh:
        if config is not None:
            header = {
                "kind": "run_header",
                "schema_version": TRACE_SCHEMA_VERSION,
                "config": config.to_dict(),
                "config_hash": config_hash(config),
            }
            fh.write(json.dumps(header, sort_keys=True, ensure_ascii=False))
            fh.write("\n")
        for trace in sorted(traces, key=lambda tr: tr.sentence_id):
            fh.write(json.dumps(trace_to_dict(trace), sort_keys=True, ensure_ascii=False))
            fh.write("\n")


def read_traces(path: str | Path) -> tuple[dict | None, list[SessionTrace]]:
    """Read a trace file back; returns (header or None, traces)."""
    header: dict | None = None
    traces: list[SessionTrace] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
            kind = data.get("kind")
            if kind == "run_header":
                version = data.get("schema_version")
                if version != TRACE_SCHEMA_VERSION:
                    raise SchemaVersionMismatch(
                        f"{path}:{lineno}: schema version {version}, "
                        f"expected {TRACE_SCHEMA_VERSION}"
                    )
                header = data
            else:
                try:
                    traces.append(trace_from_dict(data))
                except TraceError as exc:
                    raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    return header, traces


def validate_trace(trace: SessionTrace, strategy: StrategyConfig | None = None) -> None:
    """Check the session invariants; raises TraceInvariantError on violation."""
    if not trace.records:
        raise TraceInvariantError(f"sentence {trace.sentence_id}: no records")
    source = trace.records[-1].source_prefix
    if len(trace.records) != len(source):
        raise TraceInvariantError(
            f"sentence {trace.sentence_id}: {len(trace.records)} records "
            f"for {len(source)} source tokens"
        )
    previous: TokenSeq = ()
    for pos, rec in enumerate(trace.records, start=1):
        where = f"sentence {trace.sentence_id}, step {pos}"
        if rec.step_index != pos:
            raise TraceInvariantError(f"{where}: step_index {rec.step_index}")
        if rec.source_prefix != source[:pos]:
            raise TraceInvariantError(f"{where}: source_prefix is not source[:{pos}]")
        if rec.is_final != (pos == len(source)):
            raise TraceInvariantError(f"{where}: bad is_final flag")
        expected_mask = len(rec.raw_hypothesis) - len(
            longest_common_prefix(rec.raw_hypothesis, rec.emitted_output)
        )
        if rec.mask_length != expected_mask:
            raise TraceInvariantError(
                f"{where}: mask_length {rec.mask_length}, expected {expected_mask}"
            )
        if strategy is not None:
            _check_strategy_output(strategy, rec, previous, where)
        previous = rec.emitted_output
    last = trace.records[-1]
    if trace.final_output != last.emitted_output or last.emitted_output != last.raw_hypothesis:
        raise TraceInvariantError(
            f"sentence {trace.sentence_id}: final output must equal the last "
            "hypothesis, unmasked"
        )


def _check_strategy_output(
    strategy: StrategyConfig, rec: StepRecord, previous: TokenSeq, where: str
) -> None:
    hyp, out = rec.raw_hypothesis, rec.emitted_output
    if rec.is_final:
        if out != hyp:
            raise TraceInvariantError(f"{where}: final step must be unmasked")
        return
    if strategy.kind == "none" and out != hyp:
        raise TraceInvariantError(f"{where}: plain retranslation must not mask")
    elif strategy.kind == "mask_k":
        if out != hyp[: max(len(hyp) - strategy.k_mask, 0)]:
            raise TraceInvariantError(f"{where}: output is not hypothesis minus {strategy.k_mask}")
    elif strategy.kind == "dynamic":
        if out != previous and out != longest_common_prefix(hyp, out):
            raise TraceInvariantError(
                f"{where}: dynamic output must be a hypothesis prefix or the previous output"
            )
    elif strategy.kind == "oracle":
        if longest_common_prefix(previous, out) != previous:
            raise TraceInvariantError(f"{where}: oracle output shrank")
