"""Emission policies: what part of a translation hypothesis gets displayed.

Four policies are provided. ``none`` shows every hypothesis unchanged.
``mask_k`` withholds a fixed number of trailing tokens. ``dynamic`` masks
back to the longest common prefix of the hypothesis and the translations
of probe extensions, with a freeze rule that re-displays the previous
output instead of shrinking. ``oracle`` masks against the known
full-sentence translation and never flickers.

Full sentences are always transmitted unmasked, whatever the policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import TokenSeq, is_prefix, longest_common_prefix
from .predict import PredictorConfig

KINDS = ("none", "mask_k", "dynamic", "oracle")


@dataclass(frozen=True)
class StrategyConfig:
    """Which emission policy to run and its parameters.

    k_mask is for mask_k only (0 for other kinds), and a predictor is set
    exactly when the kind is dynamic. bias_beta > 0 turns on biased decoding
    towards the previously displayed output; it applies to
    none/mask_k/dynamic. The oracle needs no bias: its hypotheses are
    compared against the full-sentence translation directly.
    """

    kind: str
    k_mask: int = 0
    predictor: PredictorConfig | None = None
    bias_beta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}, expected one of {KINDS}")
        if self.k_mask < 0:
            raise ValueError("k_mask must be >= 0")
        if self.k_mask and self.kind != "mask_k":
            raise ValueError(f"k_mask is for mask_k only, got {self.k_mask} with kind {self.kind}")
        if not 0.0 <= self.bias_beta <= 1.0:
            raise ValueError("bias_beta must be in [0, 1]")
        if (self.predictor is not None) != (self.kind == "dynamic"):
            raise ValueError("dynamic strategy requires a predictor" if self.kind == "dynamic"
                             else f"predictor is for dynamic only, got one with kind {self.kind}")
        if self.kind == "oracle" and self.bias_beta > 0.0:
            raise ValueError("oracle does not combine with biased decoding")

    @property
    def label(self) -> str:
        if self.kind == "none":
            base = "none"
        elif self.kind == "mask_k":
            base = f"mask_k={self.k_mask}"
        elif self.kind == "oracle":
            base = "oracle"
        else:
            assert self.predictor is not None
            base = f"dynamic:{self.predictor.label}"
        if self.bias_beta > 0.0:
            base += f",beta={self.bias_beta:g}"
        return base


def emit(
    strategy: StrategyConfig,
    hypothesis: TokenSeq,
    probes: tuple[TokenSeq, ...],
    previous: TokenSeq,
    is_final: bool,
    full: TokenSeq | None,
) -> TokenSeq:
    """The output the strategy displays for one step, when running or replaying a session.

    probes are the probe translations (dynamic), previous the output of
    the step before, full the full-sentence translation (oracle). The
    emit_* functions are looked up at call time, so wrappers see every call.
    """
    kind = strategy.kind
    if kind == "none":
        return emit_none(hypothesis)
    if kind == "mask_k":
        return emit_mask_k(hypothesis, strategy.k_mask, is_final)
    if kind == "dynamic":
        return emit_dynamic(hypothesis, probes, previous, is_final)
    return emit_oracle(hypothesis, full, is_final, previous)


def emit_none(hypothesis: TokenSeq) -> TokenSeq:
    """Plain retranslation: display the hypothesis as-is."""
    return hypothesis


def emit_mask_k(hypothesis: TokenSeq, k: int, is_final: bool) -> TokenSeq:
    """Withhold the last k tokens; full sentences pass through unmasked."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if is_final or k == 0:
        return hypothesis
    return hypothesis[: max(len(hypothesis) - k, 0)]


def emit_dynamic(
    hypothesis: TokenSeq,
    probe_translations: list[TokenSeq] | tuple[TokenSeq, ...],
    previous_output: TokenSeq,
    is_final: bool,
) -> TokenSeq:
    """Mask back to the common prefix of the hypothesis and all probes.

    The candidate output is the simultaneous longest common prefix of the
    hypothesis and every probe translation. If that candidate is a prefix
    of what is already displayed, the display is frozen (the previous
    output is emitted again) rather than shrunk.
    """
    if is_final:
        return hypothesis
    if not probe_translations:
        raise ValueError("dynamic masking needs at least one probe on non-final steps")
    agreed = hypothesis
    for probe in probe_translations:
        agreed = longest_common_prefix(agreed, probe)
    if is_prefix(agreed, previous_output):
        return previous_output
    return agreed


def emit_oracle(
    hypothesis: TokenSeq,
    full_sentence_translation: TokenSeq,
    is_final: bool,
    previous_output: TokenSeq = (),
) -> TokenSeq:
    """Mask against the known full-sentence translation.

    Emits the agreement between the hypothesis and the final translation,
    but never less than what is already displayed: previous_output is by
    construction a prefix of the full translation, so the display only
    ever grows towards it and the session cannot flicker.
    """
    if is_final:
        return full_sentence_translation
    agreed = longest_common_prefix(hypothesis, full_sentence_translation)
    if len(previous_output) > len(agreed):
        return previous_output
    return agreed
