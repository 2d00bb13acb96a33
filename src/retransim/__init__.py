"""Retranslation simulator for online spoken-language translation.

Building blocks for studying the latency / flicker trade-off of
retranslation systems: deterministic toy translators, fixed and dynamic
output masking, biased beam search, source-extension prediction, and the
average-lag / normalized-erasure / BLEU evaluation metrics.
"""

from .core import (
    SentencePair,
    SessionTrace,
    StepRecord,
    TokenSeq,
    is_prefix,
    longest_common_prefix,
    read_corpus,
    tokenize,
)
from .metrics import (
    TradeoffPoint,
    aggregate,
    average_lag,
    corpus_bleu,
    normalized_erasure,
)
from .predict import (
    NgramLM,
    PredictorConfig,
    load_lm,
    predict_extensions,
    save_lm,
    train_lm,
)
from .sim import (
    Models,
    RunConfig,
    load_models,
    read_traces,
    run_corpus,
    run_sentence,
    validate_trace,
    write_traces,
)
from .strategy import (
    StrategyConfig,
    emit,
    emit_dynamic,
    emit_mask_k,
    emit_none,
    emit_oracle,
)
from .translator import (
    EOS,
    UNK,
    BiasSpec,
    ScriptedTranslator,
    ToyLexicalTranslator,
    ToyModelConfig,
    Translation,
    load_lexicon,
    load_script,
)

__version__ = "0.1.0"

__all__ = [
    "BiasSpec",
    "EOS",
    "Models",
    "NgramLM",
    "PredictorConfig",
    "RunConfig",
    "ScriptedTranslator",
    "SentencePair",
    "SessionTrace",
    "StepRecord",
    "StrategyConfig",
    "TokenSeq",
    "ToyLexicalTranslator",
    "ToyModelConfig",
    "TradeoffPoint",
    "Translation",
    "UNK",
    "aggregate",
    "average_lag",
    "corpus_bleu",
    "emit",
    "emit_dynamic",
    "emit_mask_k",
    "emit_none",
    "emit_oracle",
    "is_prefix",
    "load_lexicon",
    "load_lm",
    "load_models",
    "load_script",
    "longest_common_prefix",
    "normalized_erasure",
    "predict_extensions",
    "read_corpus",
    "read_traces",
    "run_corpus",
    "run_sentence",
    "save_lm",
    "tokenize",
    "train_lm",
    "validate_trace",
    "write_traces",
]
