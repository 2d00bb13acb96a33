"""Token and trace data model shared by the simulator, strategies and metrics.

A token sequence is a plain tuple of strings, so equality, hashing and
slicing behave the way the rest of the package expects. All record types
are frozen dataclasses: traces can be shared freely between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

TokenSeq = tuple[str, ...]


class CorpusError(ValueError):
    """Malformed corpus input."""


class CorpusLengthMismatch(CorpusError):
    """Source and reference files disagree on line count."""


def tokenize(text: str, char_mode: bool = False) -> TokenSeq:
    """Split a line into tokens.

    Default is whitespace splitting; with char_mode every non-space
    character becomes its own token (used for character-level scoring).
    """
    if char_mode:
        return tuple(ch for ch in text if not ch.isspace())
    return tuple(text.split())


def check_tokens(tokens: TokenSeq, where: str = "token sequence") -> TokenSeq:
    """Validate that every token is non-empty and whitespace-free."""
    for tok in tokens:
        if not tok or any(ch.isspace() for ch in tok):
            raise CorpusError(f"invalid token {tok!r} in {where}")
    return tokens


def common_prefix_length(a: TokenSeq, b: TokenSeq) -> int:
    """Length of the longest common prefix of a and b.

    Most pairs the policies and metrics compare have one side a prefix of
    the other; a slice comparison settles those at C speed, and the token
    loop runs only when the two diverge.
    """
    if b[: len(a)] == a:
        return len(a)
    if a[: len(b)] == b:
        return len(b)
    n = 0
    limit = min(len(a), len(b))
    while n < limit and a[n] == b[n]:
        n += 1
    return n


def longest_common_prefix(a: TokenSeq, b: TokenSeq) -> TokenSeq:
    return a[: common_prefix_length(a, b)]


def is_prefix(a: TokenSeq, b: TokenSeq) -> bool:
    """True iff a is a (possibly empty, possibly equal) prefix of b."""
    return len(a) <= len(b) and a == b[: len(a)]


@dataclass(frozen=True)
class SentencePair:
    """One corpus row: source sentence and its reference translation."""

    source: TokenSeq
    reference: TokenSeq
    sentence_id: int

    def __post_init__(self) -> None:
        if not self.source or not self.reference:
            raise CorpusError(
                f"sentence {self.sentence_id}: source and reference must be non-empty"
            )


@dataclass(frozen=True)
class StepRecord:
    """State of one simulated ASR update.

    step_index counts revealed source tokens (1-based); emitted_output is
    what the strategy displayed after masking; probes holds the probe
    translations used by dynamic masking at this step.
    """

    step_index: int
    source_prefix: TokenSeq
    raw_hypothesis: TokenSeq
    emitted_output: TokenSeq
    mask_length: int
    is_final: bool
    probes: tuple[TokenSeq, ...] = ()
    n_translate_calls: int = 1


@dataclass(frozen=True)
class SessionTrace:
    """Per-sentence record of every update, hypothesis and emitted output."""

    sentence_id: int
    records: tuple[StepRecord, ...]
    final_output: TokenSeq
    reference: TokenSeq | None = None


def read_lines(path: str | Path) -> list[str]:
    """The file's lines without their newlines; a file that is not UTF-8 is a CorpusError."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for _, line in numbered_lines(fh, path, CorpusError)]


def numbered_lines(fh, path: str | Path, error: type[Exception]):
    """(line number, line) of a text file; a byte that is not UTF-8 raises
    error("path:line: not UTF-8: ...")."""
    try:
        yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise error(f"{utf8_error_location(path)}: not UTF-8: {exc.reason}") from exc


def utf8_error_location(path: str | Path) -> str:
    """path:line of the file's first byte that is not UTF-8.

    The text reader's error gives an offset into its read buffer only, so
    the file is decoded again whole.
    """
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        return f"{path}:{lineno}"
    return str(path)


def read_corpus(
    source_path: str | Path,
    reference_path: str | Path,
    char_mode: bool = False,
) -> list[SentencePair]:
    """Load a parallel corpus: one sentence per line, two files, equal length."""
    src_lines = read_lines(source_path)
    ref_lines = read_lines(reference_path)
    if len(src_lines) != len(ref_lines):
        raise CorpusLengthMismatch(
            f"{source_path} has {len(src_lines)} lines but "
            f"{reference_path} has {len(ref_lines)}"
        )
    pairs = []
    for idx, (src, ref) in enumerate(zip(src_lines, ref_lines)):
        pairs.append(
            SentencePair(
                source=tokenize(src, char_mode),
                reference=tokenize(ref, char_mode),
                sentence_id=idx,
            )
        )
    return pairs
