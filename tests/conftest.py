from __future__ import annotations

import pytest

from retransim.core import SentencePair, tokenize
from retransim.predict import UNK
from retransim.translator import ToyLexicalTranslator, ToyModelConfig


def seq(text: str) -> tuple[str, ...]:
    """Shorthand: whitespace-split a string into a token tuple."""
    return tokenize(text)


def lm_prob(lm, token: str, context: tuple[str, ...] = ()) -> float:
    """An NgramLM's add-alpha probability, (count + alpha) / (total + alpha * |V|),
    read off the count table its context backs off to; the oracle for its
    sampling tables."""
    if token not in lm.vocabulary:
        token = UNK
    _, table = lm._resolve(context)
    a = lm.smoothing_alpha
    return (table.get(token, 0) + a) / (sum(table.values()) + a * len(lm.vocabulary))


def lm_distribution(lm, context: tuple[str, ...] = ()) -> list[tuple[str, float]]:
    """(token, lm_prob) over an NgramLM's whole vocabulary, sorted by token."""
    return [(t, lm_prob(lm, t, context)) for t in sorted(lm.vocabulary)]


def pairs_from(src_lines: list[str], ref_lines: list[str]) -> list[SentencePair]:
    return [
        SentencePair(source=seq(s), reference=seq(r), sentence_id=i)
        for i, (s, r) in enumerate(zip(src_lines, ref_lines))
    ]


def write_corpus(tmp_path, src_lines: list[str], ref_lines: list[str]):
    src = tmp_path / "corpus.src"
    ref = tmp_path / "corpus.ref"
    src.write_text("\n".join(src_lines) + "\n", encoding="utf-8")
    ref.write_text("\n".join(ref_lines) + "\n", encoding="utf-8")
    return src, ref


ONE_TO_ONE_LEXICON = {
    "a": (("x", 1.0),),
    "b": (("y", 1.0),),
    "c": (("z", 1.0),),
    "d": (("w", 1.0),),
    "e": (("v", 1.0),),
}


@pytest.fixture
def stable_translator() -> ToyLexicalTranslator:
    """Prefix-stable toy model: 1-to-1 lexicon, no noise, no distortion cost."""
    return ToyLexicalTranslator(
        ToyModelConfig(lexicon=ONE_TO_ONE_LEXICON, distortion=1.0, instability=0.0)
    )
