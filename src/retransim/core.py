"""Token and trace data model shared by the simulator, strategies and metrics.

A token sequence is a plain tuple of strings, so equality, hashing and
slicing behave the way the rest of the package expects. All record types
are frozen dataclasses: traces can be shared freely between workers.

Every text file the package opens is opened here: read by numbered_lines
(JSON through load_json, its objects through read_config, which takes its
schema from a dataclass) and written by write_lines.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import stat
import sys
import types
import typing
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
    return [line.rstrip("\n") for _, line in numbered_lines(path, CorpusError)]


def numbered_lines(path: str | Path, error: type[Exception]):
    """(line number, line) of a UTF-8 text file, newline kept; a byte that is
    not UTF-8 raises error("path:line: not UTF-8: ..."). A caller that stops
    early closes the file by dropping the generator."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise error(f"{utf8_error_location(path)}: not UTF-8: {exc.reason}") from exc


def write_lines(path: str | Path, lines) -> None:
    """Write each of lines, as they come, plus "\n" to path as UTF-8; the line
    end is "\n" on every platform, so the bytes do not depend on the machine.

    The file appears whole or not at all: the lines go to a temporary beside
    the path's resolved target (a symlink keeps its link), which is renamed
    onto it once written, and removed if writing fails. A process that dies
    mid-write leaves at most that temporary; there is no fsync, so a machine
    crash is not covered. A path that names the file open on descriptor 1
    or 2 (/dev/stdout, or the file that standard output is redirected to)
    is written through that descriptor, after sys.stdout or sys.stderr is
    flushed, so what is printed before and after stays in order around it.
    Any other path that exists as no regular file (/dev/null) is written
    in place.
    """
    try:
        info = os.stat(path)
    except (OSError, ValueError):  # no such file yet, or one that the write below names
        info = None
    if info is not None:
        for fd, stream in ((1, sys.stdout), (2, sys.stderr)):
            try:
                held = os.fstat(fd)
            except OSError:  # fd is closed
                continue
            if os.path.samestat(held, info):
                stream.flush()
                _write_lines(fd, lines)
                return
        if not stat.S_ISREG(info.st_mode):
            _write_lines(path, lines)
            return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        _write_lines(tmp, lines)
        os.replace(tmp, target)
    except BaseException as exc:
        if os.path.lexists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the caller's path
            exc.filename = str(path)
        raise


def _write_lines(file: str | Path | int, lines) -> None:
    """Write lines to a path, or through a descriptor that stays open."""
    with open(file, "w", encoding="utf-8", newline="\n", closefd=not isinstance(file, int)) as fh:
        for line in lines:
            fh.write(line + "\n")


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


class ConfigError(ValueError):
    """A JSON input that does not match its schema."""


def _join(sep: str, *parts: str) -> str:
    return sep.join(part for part in parts if part)


# evaluated annotations per config class: evaluating them costs ~170 us a class
_type_hints = functools.cache(typing.get_type_hints)


def read_config(cls, data, where: str, key: str = ""):
    """A cls built from data, a parsed JSON object, with cls's fields as its schema.

    Every key must name a field and every field without a default must be
    present. Each value must have its field's annotated type: a nested
    dataclass is an object read the same way, tuple[X, ...] a list of X
    and X | None also null. Values are checked, never converted, so an
    int stands for a float but a bool, NaN or an infinity is no number.
    Field metadata may put a field in a nested object ("section"), keep it
    out of the file ("key": False) or check its value further ("check":
    f(value, where)). Every failure, __post_init__'s range checks
    included, is a ConfigError "<where>: <key.path>: <problem>".
    """
    hints = _type_hints(cls)
    sections: dict[str, list[dataclasses.Field]] = {"": []}
    for f in dataclasses.fields(cls):
        if f.metadata.get("key", True):
            sections.setdefault(f.metadata.get("section", ""), []).append(f)
    top = _object(data, where, key)
    values = {}
    for section, fields in sections.items():
        obj = _object(top.get(section, {}), where, _join(".", key, section)) if section else top
        allowed = {f.name for f in fields} | (set() if section else sections.keys() - {""})
        unknown = sorted(obj.keys() - allowed)
        if unknown:
            raise ConfigError(f"{where}: unknown key {_join('.', key, section, unknown[0])!r}")
        for f in fields:
            path = _join(".", key, section, f.name)
            if f.name in obj:
                values[f.name] = _read_value(hints[f.name], obj[f.name], where, path)
                if "check" in f.metadata:
                    f.metadata["check"](values[f.name], _join(": ", where, path))
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{where}: missing key {path!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(_join(": ", where, key, str(exc))) from exc


def _object(data, where: str, key: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(_join(": ", where, key, f"expected an object, got {data!r}"))
    return data


def _read_value(tp, value, where: str, key: str):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return read_config(tp, value, where, key)
    if origin in (typing.Union, types.UnionType):  # X | None
        return None if value is None else _read_value(args[0], value, where, key)
    if origin is tuple:  # tuple[X, ...], a list in JSON
        if isinstance(value, list):
            return tuple(_read_value(args[0], v, where, f"{key}[{i}]") for i, v in enumerate(value))
    elif isinstance(value, (int, float) if tp is float else tp):
        if tp is bool or not isinstance(value, bool):  # an int stands for a float, a bool is no number
            if not isinstance(value, float) or math.isfinite(value):
                return value
    want = "list" if origin is tuple else tp.__name__
    raise ConfigError(f"{where}: {key}: expected {want}, got {value!r}")


def load_json(path: str | Path, error: type[Exception]):
    """A JSON file's value; bytes that are not UTF-8 or not JSON raise
    error("path:line: ...")."""
    text = "".join(line for _, line in numbered_lines(path, error))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}: {exc.msg}") from exc
