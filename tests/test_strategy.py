from __future__ import annotations

import random

import pytest

from retransim.core import is_prefix, longest_common_prefix
from retransim.metrics import erased_between
from retransim.predict import PredictorConfig
from retransim.strategy import (
    StrategyConfig,
    emit_dynamic,
    emit_mask_k,
    emit_none,
    emit_oracle,
)
from conftest import seq


def test_emit_none():
    assert emit_none(seq("a b")) == ("a", "b")
    assert emit_none(()) == ()


def test_emit_mask_k_examples():
    assert emit_mask_k(seq("a b c d"), 2, is_final=False) == ("a", "b")
    assert emit_mask_k(seq("a b"), 10, is_final=False) == ()
    assert emit_mask_k(seq("a b c"), 5, is_final=True) == ("a", "b", "c")
    assert emit_mask_k(seq("a b"), 0, is_final=False) == ("a", "b")
    with pytest.raises(ValueError):
        emit_mask_k(seq("a"), -1, is_final=False)


def test_mask_k_larger_masks_never_lengthen_output():
    rng = random.Random(1)
    for _ in range(100):
        hyp = tuple(rng.choice("pqrs") for _ in range(rng.randrange(0, 8)))
        for k in range(0, 9):
            shorter = emit_mask_k(hyp, k + 1, is_final=False)
            longer = emit_mask_k(hyp, k, is_final=False)
            assert is_prefix(shorter, longer)


def test_emit_dynamic_masks_to_common_prefix():
    hyp = seq("p q r")
    out = emit_dynamic(hyp, [seq("p q s t")], (), is_final=False)
    assert out == ("p", "q")
    assert erased_between(hyp, out) == 1


def test_emit_dynamic_word_order_uncertainty():
    hyp = seq("Aber Sie wissen es")
    probe = seq("Aber wissen Sie , sie wissen schon")
    out = emit_dynamic(hyp, [probe], (), is_final=False)
    assert out == ("Aber",)
    assert erased_between(hyp, out) == 3


def test_emit_dynamic_freeze_rule():
    # the hypothesis and probe disagree at the first token; instead of
    # masking everything, the previous display is repeated unchanged
    prev = "Um zu paraphrasen: Es ist nicht die Stärke der Dinge"
    hyp = seq("Um zu Paraphrasen: Es ist nicht die Stärke der Dinge")
    probe = seq("Zum paraphrasen: Es ist nicht die stärksten der Welt")
    assert longest_common_prefix(hyp, probe) == ()
    out = emit_dynamic(hyp, [probe], seq(prev), is_final=False)
    assert out == seq(prev)
    # display kept the stable first two tokens, so only the tail counts as masked
    assert erased_between(hyp, out) == len(hyp) - 2


def test_emit_dynamic_freeze_when_equal():
    out = emit_dynamic(seq("p q r"), [seq("p q")], seq("p q"), is_final=False)
    assert out == ("p", "q")


def test_emit_dynamic_final_is_unmasked():
    hyp = seq("p q r")
    out = emit_dynamic(hyp, [], seq("x"), is_final=True)
    assert out == ("p", "q", "r")
    assert erased_between(hyp, out) == 0


def test_emit_dynamic_requires_probes_before_final():
    with pytest.raises(ValueError):
        emit_dynamic(seq("p q"), [], (), is_final=False)


def test_emit_dynamic_multi_probe_intersection():
    probes = [seq("p q r x"), seq("p q y"), seq("p z")]
    hyp = seq("p q r")
    out = emit_dynamic(hyp, probes, (), is_final=False)
    assert out == ("p",)
    assert erased_between(hyp, out) == 2


def test_emit_dynamic_output_shape_property():
    # output is always either a prefix of the hypothesis or exactly the
    # previous output, and never a strict prefix of the previous output
    rng = random.Random(8)
    toks = "pqrs"
    for _ in range(500):
        hyp = tuple(rng.choice(toks) for _ in range(rng.randrange(0, 6)))
        probes = [
            tuple(rng.choice(toks) for _ in range(rng.randrange(0, 6)))
            for _ in range(rng.randrange(1, 4))
        ]
        prev = tuple(rng.choice(toks) for _ in range(rng.randrange(0, 6)))
        out = emit_dynamic(hyp, probes, prev, is_final=False)
        assert out == prev or is_prefix(out, hyp)
        assert not (is_prefix(out, prev) and out != prev)


def test_emit_oracle_examples():
    assert emit_oracle(seq("a b x"), seq("a b c d"), is_final=False) == ("a", "b")
    assert emit_oracle(seq("a b"), seq("a b c d"), is_final=False) == ("a", "b")
    assert emit_oracle(seq("x"), seq("a b c"), is_final=True) == ("a", "b", "c")


def test_emit_oracle_never_shrinks():
    # a later hypothesis that agrees less keeps the already displayed prefix
    out = emit_oracle(
        seq("a x"), seq("a b c d"), is_final=False, previous_output=seq("a b c")
    )
    assert out == ("a", "b", "c")


def test_emit_oracle_monotone_growth_property():
    rng = random.Random(4)
    for _ in range(200):
        full = tuple(rng.choice("abcd") for _ in range(rng.randrange(1, 8)))
        prev = ()
        for _ in range(6):
            hyp = tuple(rng.choice("abcd") for _ in range(rng.randrange(0, 8)))
            out = emit_oracle(hyp, full, is_final=False, previous_output=prev)
            assert is_prefix(out, full)
            assert is_prefix(prev, out)
            prev = out
        assert emit_oracle(prev, full, is_final=True, previous_output=prev) == full


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(kind="bogus")
    with pytest.raises(ValueError):
        StrategyConfig(kind="mask_k", k_mask=-1)
    with pytest.raises(ValueError):
        StrategyConfig(kind="dynamic")  # predictor required
    with pytest.raises(ValueError):
        StrategyConfig(kind="none", bias_beta=1.5)
    with pytest.raises(ValueError):
        StrategyConfig(kind="oracle", bias_beta=0.5)


def test_strategy_labels_are_distinct():
    pred = PredictorConfig(strategy="lm_greedy", k=1)
    configs = [
        StrategyConfig(kind="none"),
        StrategyConfig(kind="none", bias_beta=0.5),
        StrategyConfig(kind="mask_k", k_mask=3),
        StrategyConfig(kind="mask_k", k_mask=4),
        StrategyConfig(kind="dynamic", predictor=pred),
        StrategyConfig(kind="dynamic", predictor=PredictorConfig(strategy="random", k=5, n=3)),
        StrategyConfig(kind="oracle"),
    ]
    labels = [c.label for c in configs]
    assert len(set(labels)) == len(labels)
    assert StrategyConfig(kind="mask_k", k_mask=3).label == "mask_k=3"
