"""Source-extension prediction for dynamic masking.

The probe strategies extend a source prefix by k hypothetical tokens:
an add-alpha smoothed n-gram language model (sampled or greedy), the
reserved unknown token, or uniform draws from the vocabulary. All draws
are reproducible from (seed, sentence_id, step_index, sample_index).
"""

from __future__ import annotations

import _random
import json
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

from .core import ConfigError, TokenSeq, check_tokens, load_json, read_config, write_lines
from .translator import _MASK64, EOS, UNK, _avalanche, mix64

LM_FORMAT = "retransim-ngram-lm"
LM_VERSION = 1

STRATEGIES = ("lm_sample", "lm_greedy", "unknown", "random")


class PredictorError(Exception):
    """Base class for prediction failures."""


class EmptyCorpus(PredictorError):
    """No sentences supplied for language-model training."""


class MissingLM(PredictorError):
    """An lm_* strategy was configured without a language model."""


class LMFormatError(ValueError):
    """A persisted language model file does not match the expected format."""


class NgramLM:
    """Add-alpha smoothed n-gram model with backoff to lower orders.

    counts[o] maps a context tuple of o-1 tokens to {token: count}. Every
    training sentence is implicitly terminated by EOS; the vocabulary
    always contains UNK and EOS, its tokens pass check_tokens and it holds
    every counted token, as load_lm requires. A context never observed at
    one order backs off to the next shorter context, bottoming out at
    unigrams.
    """

    def __init__(
        self,
        order: int,
        counts: dict[int, dict[tuple[str, ...], dict[str, int]]],
        vocabulary: set[str],
        smoothing_alpha: float,
    ):
        if not 1 <= order <= 4:
            raise ValueError(f"order must be in [1, 4], got {order}")
        if not smoothing_alpha > 0:  # NaN too
            raise ValueError("smoothing_alpha must be > 0")
        if 1 not in counts:
            raise ValueError("counts: no order-1 table")
        self.order = order
        self.counts = counts
        self.vocabulary = frozenset(vocabulary) | {UNK, EOS}
        self.smoothing_alpha = smoothing_alpha
        # checked in sorted order, so the token an error names is the same every run
        self._sorted_vocab = check_tokens(tuple(sorted(self.vocabulary)), "vocabulary")
        # a file's counts, unlike train_lm's, can name a token outside the vocabulary
        counted = set().union(*(table for tables in counts.values() for table in tables.values()))
        if not counted <= self.vocabulary:
            outside = min(counted - self.vocabulary)
            raise ValueError(f"invalid token {outside!r} in counts: not in the vocabulary")
        # sampling tables, built on first use: one per resolved count
        # table, shared by every context that backs off to it
        self._by_table: dict[tuple, tuple[array, str]] = {}
        self._by_context: dict[TokenSeq, tuple[array, str]] = {}

    def _resolve(self, context: TokenSeq) -> tuple[tuple, dict[str, int]]:
        """(order, context) key and count table of the longest observed
        context for a query, after backoff."""
        context = tuple(context)
        for o in range(min(self.order, len(context) + 1), 1, -1):
            key = context[len(context) - o + 1 :]
            table = self.counts.get(o, {}).get(key)
            if table is not None:
                return (o, key), table
        return (1, ()), self.counts[1].get((), {})

    def _table(self, context: TokenSeq) -> tuple[array, str]:
        """(cumulative probabilities in sorted-vocabulary order, argmax)
        of the table a context resolves to; only its last order - 1 tokens count."""
        context = tuple(context[1 - self.order :]) if self.order > 1 else ()
        entry = self._by_context.get(context)
        if entry is None:
            key, table = self._resolve(context)
            entry = self._by_table.get(key)
            if entry is None:
                entry = self._by_table[key] = self._build_table(table)
            self._by_context[context] = entry
        return entry

    def _build_table(self, table: dict[str, int]) -> tuple[array, str]:
        a = self.smoothing_alpha
        denom = sum(table.values()) + a * len(self.vocabulary)
        vocab = self._sorted_vocab
        counts = [table.get(t, 0) for t in vocab]
        cum = array("d", accumulate([(c + a) / denom for c in counts]))
        # index finds the first of equal counts: the smallest token
        return cum, vocab[counts.index(max(counts))]

    def argmax(self, context: TokenSeq = ()) -> str:
        """Most probable next token; ties break lexicographically."""
        return self._table(context)[1]

    def sample(self, context: TokenSeq, rng: random.Random) -> str:
        """The first token, in sorted-vocabulary order, whose left-to-right
        cumulative probability exceeds one uniform draw; the last token
        when float rounding leaves the draw above the final sum."""
        cum = self._table(context)[0]
        i = bisect_right(cum, rng.random())
        return self._sorted_vocab[min(i, len(cum) - 1)]


def train_lm(
    source_corpus: list[TokenSeq],
    order: int = 3,
    smoothing_alpha: float = 0.1,
) -> NgramLM:
    """Count n-grams up to the given order over the source sentences."""
    if not source_corpus:
        raise EmptyCorpus("cannot train a language model on an empty corpus")
    counts: dict[int, dict[tuple[str, ...], dict[str, int]]] = {
        o: {} for o in range(1, order + 1)
    }
    vocab: set[str] = set()
    for sentence in source_corpus:
        seq = tuple(sentence) + (EOS,)
        vocab.update(sentence)
        for o in range(1, order + 1):
            tables = counts[o]
            for i in range(o - 1, len(seq)):
                ctx = seq[i - o + 1 : i]
                table = tables.get(ctx)
                if table is None:
                    table = tables[ctx] = {}
                tok = seq[i]
                table[tok] = table.get(tok, 0) + 1
    return NgramLM(order, counts, vocab, smoothing_alpha)


def save_lm(lm: NgramLM, path: str | Path) -> None:
    """Write a versioned, byte-stable JSON dump of the count tables."""
    payload = {
        "format": LM_FORMAT,
        "version": LM_VERSION,
        "order": lm.order,
        "smoothing_alpha": lm.smoothing_alpha,
        "vocabulary": sorted(lm.vocabulary),
        "counts": {
            str(o): {"\x1f".join(ctx): dict(sorted(table.items())) for ctx, table in tables.items()}
            for o, tables in lm.counts.items()
        },
    }
    # one dumps call: json.dump streams through the pure-Python encoder
    write_lines(path, [json.dumps(payload, ensure_ascii=False, sort_keys=True)])


def _check_counts(counts: dict, where: str) -> None:
    """Count tables as save_lm writes them: order -> context -> token -> an int >= 0."""
    for order, tables in counts.items():
        if not order.isdecimal() or not isinstance(tables, dict):
            raise ConfigError(f"{where}: malformed count table {order!r}")
        for table in tables.values():
            if not isinstance(table, dict):
                raise ConfigError(f"{where}: order {order}: malformed count table")
            for token, count in table.items():
                if type(count) is not int or count < 0:  # a bool is no count
                    raise ConfigError(
                        f"{where}: order {order}, token {token!r}: "
                        f"expected an int >= 0, got {count!r}"
                    )


@dataclass(frozen=True)
class _LMFile:
    """An LM file's keys besides format and version."""

    order: int
    smoothing_alpha: float
    vocabulary: tuple[str, ...]
    counts: dict = field(metadata={"check": _check_counts})


def load_lm(path: str | Path) -> NgramLM:
    payload = load_json(path, LMFormatError)
    if not isinstance(payload, dict) or payload.get("format") != LM_FORMAT:
        raise LMFormatError(f"{path}: not a {LM_FORMAT} file")
    if payload.get("version") != LM_VERSION:
        raise LMFormatError(
            f"{path}: version {payload.get('version')} unsupported (expected {LM_VERSION})"
        )
    keys = {key: value for key, value in payload.items() if key not in ("format", "version")}
    try:
        data = read_config(_LMFile, keys, str(path))
        counts = {
            int(order): {
                tuple(ctx.split("\x1f")) if ctx else (): table for ctx, table in tables.items()
            }
            for order, tables in data.counts.items()
        }
        return NgramLM(data.order, counts, data.vocabulary, data.smoothing_alpha)
    except ConfigError as exc:
        raise LMFormatError(str(exc)) from exc
    except ValueError as exc:  # NgramLM's checks
        raise LMFormatError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class PredictorConfig:
    """Which extension strategy to probe with, and how much of it.

    k is the extension length in tokens, n the number of extensions, which
    only the drawing strategies (lm_sample, random) take above 1.
    """

    strategy: str
    k: int = 1
    n: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.n != 1 and self.strategy in ("lm_greedy", "unknown"):
            raise ValueError(f"n is for lm_sample and random only, got {self.n} with {self.strategy}")
        if self.seed != 0 and self.strategy in ("lm_greedy", "unknown"):
            raise ValueError(
                f"seed is for lm_sample and random only, got {self.seed} with {self.strategy}"
            )

    @property
    def label(self) -> str:
        if self.strategy == "unknown":
            return f"{self.strategy},k={self.k}"
        return f"{self.strategy},k={self.k},n={self.n}"


def check_lm(predictor: PredictorConfig | None, lm: NgramLM | None) -> None:
    """Raise MissingLM if the predictor needs an LM and lm is None: the one
    statement of which predictors need one."""
    if lm is None and predictor is not None and predictor.strategy in ("lm_sample", "lm_greedy"):
        raise MissingLM(
            f"strategy {predictor.strategy} needs an LM: run's --lm, or lm_path "
            "in a run config or a sweep's base config (see train-lm)"
        )


def predict_extensions(
    cfg: PredictorConfig,
    lm: NgramLM | None,
    vocab: frozenset[str] | set[str] | None,
    prefix: TokenSeq,
    sentence_id: int = 0,
    step_index: int = 0,
) -> list[TokenSeq]:
    """Extend a source prefix by up to k predicted tokens, n times.

    Every returned sequence starts with the prefix exactly. An extension
    stops early if the LM produces EOS, so it may gain fewer than k
    tokens. Samples are independent draws and may repeat.
    """
    if not prefix:
        raise ValueError("prefix must be non-empty")
    check_lm(cfg, lm)

    if cfg.strategy == "unknown":
        return [tuple(prefix) + (UNK,) * cfg.k]

    if cfg.strategy == "random":
        if not vocab:
            raise PredictorError("random strategy requires a vocabulary")
        pool = sorted(vocab)
        return [
            # choice draws as pool[randrange(len(pool))] does
            tuple(prefix) + tuple([rng.choice(pool) for _ in range(cfg.k)])
            for rng in _sample_rngs(cfg.seed, sentence_id, step_index, cfg.n)
        ]

    # lm_sample draws once per stream; lm_greedy is one pass that draws nothing
    assert lm is not None
    out = []
    greedy = cfg.strategy == "lm_greedy"
    for rng in [None] if greedy else _sample_rngs(cfg.seed, sentence_id, step_index, cfg.n):
        seq = list(prefix)
        for _ in range(cfg.k):
            token = lm.argmax(seq) if rng is None else lm.sample(seq, rng)
            if token == EOS:
                break
            seq.append(token)
        out.append(tuple(seq))
    return out


def _sample_rngs(seed: int, sentence_id: int, step_index: int, n: int):
    """For each sample s < n, one generator seeded with
    mix64(seed, sentence_id, step_index, s): the same one, reseeded."""
    stream = mix64(seed, sentence_id, step_index)
    rng = random.Random(_sample_seed(stream, 0))
    yield rng
    for s in range(1, n):
        # random.Random.seed's int case, without its Python wrapper
        _random.Random.seed(rng, _sample_seed(stream, s))
        yield rng


def _sample_seed(stream: int, s: int) -> int:
    """mix64(seed, sentence_id, step_index, s), given
    stream = mix64(seed, sentence_id, step_index)."""
    return _avalanche(stream ^ _avalanche(s & _MASK64))
