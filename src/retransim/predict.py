"""Source-extension prediction for dynamic masking.

The probe strategies extend a source prefix by k hypothetical tokens:
an add-alpha smoothed n-gram language model (sampled or greedy), the
reserved unknown token, or uniform draws from the vocabulary. All draws
are reproducible from (seed, sentence_id, step_index, sample_index).
"""

from __future__ import annotations

import json
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from .core import TokenSeq, utf8_error_location
from .translator import EOS, UNK, mix64

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
    always contains UNK and EOS. A context never observed at one order
    backs off to the next shorter context, bottoming out at unigrams.
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
        self.order = order
        self.counts = counts
        self.vocabulary = frozenset(vocabulary) | {UNK, EOS}
        self.smoothing_alpha = smoothing_alpha
        self._sorted_vocab = tuple(sorted(self.vocabulary))
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
        of the table a context resolves to."""
        context = tuple(context)
        if len(context) >= self.order:  # only the last order-1 tokens count
            context = context[len(context) - self.order + 1 :]
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
        cum = array("d")
        acc = 0.0
        best, best_count = "", -1
        for t in self._sorted_vocab:
            c = table.get(t, 0)
            acc += (c + a) / denom
            cum.append(acc)
            if c > best_count:
                best, best_count = t, c
        return cum, best

    def prob(self, token: str, context: TokenSeq = ()) -> float:
        if token not in self.vocabulary:
            token = UNK
        _, table = self._resolve(context)
        a = self.smoothing_alpha
        v = len(self.vocabulary)
        return (table.get(token, 0) + a) / (sum(table.values()) + a * v)

    def distribution(self, context: TokenSeq = ()) -> list[tuple[str, float]]:
        """(token, prob) over the full vocabulary, sorted by token."""
        _, table = self._resolve(context)
        a = self.smoothing_alpha
        denom = sum(table.values()) + a * len(self.vocabulary)
        return [(t, (table.get(t, 0) + a) / denom) for t in self._sorted_vocab]

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
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_lm(path: str | Path) -> NgramLM:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise LMFormatError(f"{path}:{exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise LMFormatError(f"{utf8_error_location(path)}: not UTF-8: {exc.reason}") from exc
    if not isinstance(payload, dict) or payload.get("format") != LM_FORMAT:
        raise LMFormatError(f"{path}: not a {LM_FORMAT} file")
    if payload.get("version") != LM_VERSION:
        raise LMFormatError(
            f"{path}: version {payload.get('version')} unsupported (expected {LM_VERSION})"
        )
    fields = (
        ("order", int, "int"),
        ("smoothing_alpha", (int, float), "number"),
        ("vocabulary", list, "list"),
        ("counts", dict, "object"),
    )
    unknown = sorted(payload.keys() - {"format", "version"} - {key for key, _, _ in fields})
    if unknown:
        raise LMFormatError(f"{path}: unknown key {unknown[0]!r}")
    for key, want, name in fields:
        if key not in payload:
            raise LMFormatError(f"{path}: missing key {key!r}")
        if not isinstance(payload[key], want) or isinstance(payload[key], bool):
            raise LMFormatError(f"{path}: {key}: expected {name}, got {payload[key]!r}")
    if not all(isinstance(tok, str) for tok in payload["vocabulary"]):
        raise LMFormatError(f"{path}: vocabulary: expected a list of str")
    try:
        counts = {
            int(o): {
                tuple(ctx.split("\x1f")) if ctx else (): {t: int(c) for t, c in table.items()}
                for ctx, table in tables.items()
            }
            for o, tables in payload["counts"].items()
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise LMFormatError(f"{path}: counts: malformed count table: {exc}") from exc
    if 1 not in counts:
        raise LMFormatError(f"{path}: counts: no order-1 table")
    vocab = set(payload["vocabulary"]) - {UNK, EOS}
    try:
        return NgramLM(payload["order"], counts, vocab, payload["smoothing_alpha"])
    except ValueError as exc:
        raise LMFormatError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class PredictorConfig:
    """Which extension strategy to probe with, and how much of it.

    k is the extension length in tokens, n the number of extensions.
    Deterministic strategies (lm_greedy, unknown) force n to 1.
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
        if self.strategy in ("lm_greedy", "unknown"):
            object.__setattr__(self, "n", 1)

    @property
    def label(self) -> str:
        if self.strategy == "unknown":
            return f"{self.strategy},k={self.k}"
        return f"{self.strategy},k={self.k},n={self.n}"


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
    if cfg.strategy in ("lm_sample", "lm_greedy") and lm is None:
        raise MissingLM(f"strategy {cfg.strategy} requires a language model")

    if cfg.strategy == "unknown":
        return [tuple(prefix) + (UNK,) * cfg.k]

    if cfg.strategy == "lm_greedy":
        assert lm is not None
        seq = list(prefix)
        for _ in range(cfg.k):
            token = lm.argmax(tuple(seq[-(lm.order - 1) :]) if lm.order > 1 else ())
            if token == EOS:
                break
            seq.append(token)
        return [tuple(seq)]

    if cfg.strategy == "random":
        if not vocab:
            raise PredictorError("random strategy requires a vocabulary")
        pool = sorted(vocab)
        out = []
        for s in range(cfg.n):
            rng = random.Random(mix64(cfg.seed, sentence_id, step_index, s))
            seq = tuple(prefix) + tuple(
                pool[rng.randrange(len(pool))] for _ in range(cfg.k)
            )
            out.append(seq)
        return out

    # lm_sample
    assert lm is not None
    out = []
    for s in range(cfg.n):
        rng = random.Random(mix64(cfg.seed, sentence_id, step_index, s))
        seq = list(prefix)
        for _ in range(cfg.k):
            ctx = tuple(seq[-(lm.order - 1) :]) if lm.order > 1 else ()
            token = lm.sample(ctx, rng)
            if token == EOS:
                break
            seq.append(token)
        out.append(tuple(seq))
    return out
