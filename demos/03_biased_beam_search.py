#!/usr/bin/env python3
"""Biased decoding: interpolate the step distribution with the previous output.

Each decoding step scores candidates by (1 - beta) * p + beta * [token
matches the previous translation at this position], and the bias switches
off for a hypothesis as soon as it diverges. That keeps retranslations
close to what is already on screen (less flicker) at the cost of locking
in early choices, which can hurt full-sentence quality once masking is
added.
"""

import dataclasses
from pathlib import Path
import tempfile

from retransim import BiasSpec, RunConfig, StrategyConfig, run_corpus
from retransim.sim import build_translator, load_models
from retransim.core import read_corpus
from retransim.synthetic import write_synthetic, toy_translator_spec


def single_sentence_view(lexicon_path: str) -> None:
    tr = build_translator(toy_translator_spec(lexicon_path, instability=1.0))
    src_lines = Path(lexicon_path).parent.joinpath("synthetic.src").read_text().splitlines()
    source = tuple(src_lines[2].split())

    prev = tr.translate(source[:4]).tokens
    unbiased = tr.translate(source[:5]).tokens
    biased = tr.translate(source[:5], bias=BiasSpec(prev, beta=0.8)).tokens
    print("previous output :", " ".join(prev))
    print("next, no bias   :", " ".join(unbiased))
    print("next, beta=0.8  :", " ".join(biased))
    print()


def corpus_grid(paths: dict) -> None:
    base = RunConfig(
        source_path=paths["source"],
        reference_path=paths["reference"],
        translator=toy_translator_spec(paths["lexicon"], instability=0.5),
        strategy=StrategyConfig("none"),
    )
    pairs = read_corpus(base.source_path, base.reference_path)
    models = load_models(base, pairs)
    print(f"{'strategy':<24}{'AL':>8}{'NE':>8}{'BLEU':>8}")
    for beta in (0.0, 0.3, 0.6, 0.9):
        for k in (0, 2, 5):
            strat = StrategyConfig("mask_k", k_mask=k, bias_beta=beta)
            _, point = run_corpus(dataclasses.replace(base, strategy=strat), models=models)
            print(f"{strat.label:<24}{point.al:>8.3f}{point.ne:>8.3f}{point.bleu:>8.2f}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_synthetic(tmp)
        print("--- one retranslation step, with and without bias ---")
        single_sentence_view(paths["lexicon"])
        print("--- bias/mask grid over the synthetic corpus ---")
        corpus_grid(paths)
    print(
        "\nBias drives erasure toward zero at every mask level. With masks"
        "\n>= 2 the BLEU column drops as beta grows: the decoder anchors to"
        "\nchoices it made on short, under-informed prefixes."
    )


if __name__ == "__main__":
    main()
