"""Translation models used by the retranslation simulator.

Two concrete translators share one small interface: ``translate`` for one
request, and ``translate_many`` for a batch of (source, bias,
source_is_final) requests, which returns each request's Translation or
the error ``translate`` would raise for it:

* ``ScriptedTranslator``: exact source-prefix lookup, for regression tests
  and walkthroughs of known translation sessions.
* ``ToyLexicalTranslator``: a deterministic lexical beam-search decoder
  with optional biasing towards a previous output. A seeded hash
  perturbation ("instability") makes translations of a prefix change as
  the prefix grows, which is the flicker mechanism the masking strategies
  are designed to contain.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import math
import os
import shutil
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

from .core import TokenSeq, _join, check_tokens, numbered_lines, tokenize

EOS = "</s>"
UNK = "⟨unk⟩"  # ⟨unk⟩: reserved, never produced by whitespace corpora

_MASK64 = (1 << 64) - 1
_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_GOLDEN = 0x9E3779B97F4A7C15
_MIN_PROB = 1e-300  # floor for log() when biasing zeroes a candidate out
# the largest instability at which exp(instability * u) is finite for |u| <= 1
_MAX_INSTABILITY = math.log(sys.float_info.max)

_FINAL_PUNCT = (".", "?", "!")


class TranslatorError(Exception):
    """Base class for translator failures."""


class UnknownSourceToken(TranslatorError):
    """A source token has no lexicon entry; corpus and lexicon disagree."""


class ScriptMiss(TranslatorError):
    """A source prefix is not in the script and fallback is disabled."""


class ParseError(ValueError):
    """A model file failed to parse; message carries the line number."""


class DuplicatePrefix(ParseError):
    """The same source prefix appears twice in a script file."""


class NonNormalizedLexicon(ParseError):
    """Per-source-token target probabilities do not sum to 1."""


@dataclass(frozen=True)
class BiasSpec:
    """Bias decoding towards a previous output with interpolation weight beta."""

    previous_output: TokenSeq
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")


@dataclass(frozen=True)
class Translation:
    tokens: TokenSeq
    score: float  # accumulated log-probability; scripted lookups report 0


# one translate call's arguments: (source, bias, source_is_final)
Request = tuple[TokenSeq, BiasSpec | None, bool]


def _raised(result: Translation | Exception) -> Translation:
    """A translate_many result as translate returns it: the error raised."""
    if isinstance(result, Exception):
        raise result
    return result


def _one_by_one(translate, requests: list[Request]) -> list[Translation | Exception]:
    """translate_many by one translate call per request."""
    results = []
    for request in requests:
        try:
            results.append(translate(*request))
        except Exception as exc:  # the request's status
            results.append(exc)
    return results


# ---------------------------------------------------------------------------
# Instability hash
# ---------------------------------------------------------------------------
#
# The perturbation applied to candidate scores is part of the external
# contract so traces are reproducible. It is defined as:
#
#   blob(seq)     = UTF-8 bytes of the tokens joined by 0x1F
#   avalanche(x)  = the splitmix64 finalizer
#   P             = fnv1a64(blob(source_prefix), init=avalanche(seed))
#   C             = fnv1a64(UTF-8(candidate_token), init=FNV_BASIS)
#   h             = avalanche(P xor avalanche((C + target_len * GOLDEN) mod 2^64))
#   u             = 2 * h / (2^64 - 1) - 1          (uniform in [-1, 1])
#
# where GOLDEN = 0x9E3779B97F4A7C15 and fnv1a64 is standard FNV-1a.


def _avalanche(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _fnv1a64(data: bytes, init: int = _FNV_BASIS) -> int:
    h = init
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _prefix_state(seed: int, source: TokenSeq) -> int:
    blob = "\x1f".join(source).encode("utf-8")
    return _fnv1a64(blob, init=_avalanche(seed))


def _token_state(token: str) -> int:
    return _fnv1a64(token.encode("utf-8"))


def _noise(prefix_state: int, token_state: int, target_len: int) -> float:
    """u of the derivation above, from the P and C states."""
    h = _avalanche(prefix_state ^ _avalanche((token_state + target_len * _GOLDEN) & _MASK64))
    return 2.0 * (h / _MASK64) - 1.0


def mix64(*values: int) -> int:
    """Fold integers into one 64-bit value; used to derive RNG streams."""
    h = _FNV_BASIS
    for v in values:
        h = _avalanche(h ^ _avalanche(v & _MASK64))
    return h


# ---------------------------------------------------------------------------
# Scripted translator
# ---------------------------------------------------------------------------


class ScriptedTranslator:
    """Maps exact source prefixes (joined by single spaces) to translations.

    With identity_fallback enabled, unknown prefixes translate to a copy of
    the source tokens, so a partial script can drive a long corpus.
    """

    def __init__(self, script: dict[str, TokenSeq], identity_fallback: bool = False):
        self.script = dict(script)
        self.identity_fallback = identity_fallback

    def translate(
        self,
        source: TokenSeq,
        bias: BiasSpec | None = None,
        source_is_final: bool = False,
    ) -> Translation:
        if not source:
            raise ValueError("source must be non-empty")
        hit = self.script.get(" ".join(source))
        if hit is not None:
            return Translation(hit, 0.0)
        if self.identity_fallback:
            return Translation(tuple(source), 0.0)
        raise ScriptMiss(f"no script entry for prefix {' '.join(source)!r}")

    def translate_many(self, requests: list[Request]) -> list[Translation | Exception]:
        return _one_by_one(self.translate, requests)


def load_script(path: str | Path, identity_fallback: bool = False) -> ScriptedTranslator:
    """Parse a tab-separated "source prefix<TAB>translation" file."""
    script: dict[str, TokenSeq] = {}
    for lineno, line in numbered_lines(path, ParseError):
        line = line.rstrip("\n")
        if not line:
            continue
        if "\t" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'prefix<TAB>translation'")
        prefix, translation = line.split("\t", 1)
        key = " ".join(prefix.split())
        if not key:
            raise ParseError(f"{path}:{lineno}: empty source prefix")
        if key in script:
            raise DuplicatePrefix(f"{path}:{lineno}: duplicate prefix {key!r}")
        script[key] = tokenize(translation)
    return ScriptedTranslator(script, identity_fallback=identity_fallback)


# ---------------------------------------------------------------------------
# Toy lexical translator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToyModelConfig:
    """Configuration of the toy lexical decoder.

    lexicon maps each source token to its target options, probabilities
    summing to 1. distortion in (0, 1] penalizes out-of-order consumption
    of source positions; instability in [0, log(DBL_MAX) = 709.78...]
    scales the hash perturbation (0 removes it entirely). End-of-sentence
    becomes available once all source positions are consumed or the output
    reaches max_len_ratio * len(source) tokens. seed, in [0, 2**64), seeds
    the hash perturbation.
    """

    lexicon: dict[str, tuple[tuple[str, float], ...]]
    beam_size: int = 4
    distortion: float = 0.7
    instability: float = 0.0
    eos_prob_final: float = 0.9
    eos_prob_nonfinal: float = 0.2
    max_len_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if not 0.0 < self.distortion <= 1.0:
            raise ValueError("distortion must be in (0, 1]")
        if not 0.0 <= self.instability <= _MAX_INSTABILITY:
            raise ValueError(f"instability must be in [0, {_MAX_INSTABILITY}]")
        for name in ("eos_prob_final", "eos_prob_nonfinal"):
            p = getattr(self, name)
            if not 0.0 < p < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        if self.max_len_ratio <= 0.0:
            raise ValueError("max_len_ratio must be > 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        for src, entries in self.lexicon.items():
            if not entries:
                raise NonNormalizedLexicon(f"source token {src!r} has no entries")
            for tgt, p in entries:
                _check_probability(src, tgt, p)
            _check_sum(src, entries)


# the lexicon's two value rules, run by ToyModelConfig and, naming
# path:line, by load_lexicon; where prefixes the error
def _check_probability(src: str, tgt: str, p: float, where: str = "") -> None:
    if not 0.0 < p <= 1.0:
        raise NonNormalizedLexicon(
            _join(": ", where, f"probability {p} for {src!r} -> {tgt!r} outside (0, 1]")
        )


def _check_sum(src: str, entries, where: str = "") -> None:
    total = 0.0
    for _, p in entries:
        total += p
    if abs(total - 1.0) > 1e-9:
        raise NonNormalizedLexicon(
            _join(": ", where, f"probabilities for {src!r} sum to {total}, expected 1")
        )


def _unknown(missing: KeyError) -> UnknownSourceToken:
    """The error of a source token that a translator's tables lack."""
    return UnknownSourceToken(f"source token {missing.args[0]!r} not in lexicon")


def _raw_step_weights(
    cfg: ToyModelConfig,
    entries: list[tuple[tuple[str, float], ...]],
    coverage: int,
    highest_covered: int,
    target_len: int,
    eos_weight: float,
    noise: "_NoiseTable | None",
) -> list[tuple[float, str, int | None]]:
    """Unnormalized candidate weights for one decode step.

    Candidates are the lexicon entries of every uncovered source position,
    each weighted lex_prob * distortion^|pos - expected| * exp(instability *
    noise), plus EOS when coverage is complete or the length gate is open.
    """
    n = len(entries)
    expected = highest_covered + 1
    weights: list[tuple[float, str, int | None]] = []
    for j in range(n):
        if coverage >> j & 1:
            continue
        pen = cfg.distortion ** abs(j - expected)
        for tgt, p in entries[j]:
            w = p * pen
            if noise is not None:
                w *= noise.factor(target_len, tgt)
            weights.append((w, tgt, j))
    full = (1 << n) - 1
    if coverage == full or target_len >= cfg.max_len_ratio * n:
        weights.append((eos_weight, EOS, None))
    return weights


class _NoiseTable:
    """Per-call cache of exp(instability * noise) factors; token_states maps
    every candidate target to its hash state."""

    def __init__(self, cfg: ToyModelConfig, source: TokenSeq, token_states: dict[str, int]):
        self._lam = cfg.instability
        self._prefix = _prefix_state(cfg.seed, source)
        self._token_states = token_states
        self._factors: dict[tuple[int, str], float] = {}

    def factor(self, target_len: int, token: str) -> float:
        key = (target_len, token)
        f = self._factors.get(key)
        if f is None:
            u = _noise(self._prefix, self._token_states[token], target_len)
            f = self._factors[key] = math.exp(self._lam * u)
        return f


def _eos_weight(cfg: ToyModelConfig, source: TokenSeq, source_is_final: bool) -> float:
    if source_is_final or source[-1].endswith(_FINAL_PUNCT):
        return cfg.eos_prob_final
    return cfg.eos_prob_nonfinal


# ---------------------------------------------------------------------------
# Compiled beam search
# ---------------------------------------------------------------------------
#
# _beam.c holds ToyLexicalTranslator's beam search, which translate_many
# calls once per batch. It is compiled once with the system C compiler into
# this package's __pycache__/, named by a sha256 of the source and one of
# the flags, and loaded when this module is imported, so forked workers
# inherit it. A build with other flags (a sanitized one, say) sits beside
# it; the builds of an earlier source are removed. Without a compiler, or
# when the build or load fails, translate_many runs the Python beam
# search, which is also the reference the kernel must match bit for bit.

_KERNEL_SOURCE = Path(__file__).with_name("_beam.c")
# no -ffast-math and no fused multiply-adds: the kernel must round every
# operation as Python does
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_KERNEL_NO_MEMORY = -2  # RT_NO_MEMORY in _beam.c
_INT32_MAX = 2**31 - 1
# an entry of a row of the kernel's table: fnv state, prob, token id
_ROW_ENTRY = struct.Struct("=Qdi")
# a request of the kernel's batch: n, previous output length, eos weight,
# beta; the table offsets of its n rows follow it
_REQUEST = struct.Struct("=iidd")
_OFFSET = struct.Struct("=q")


def _build_kernel(flags: tuple[str, ...] = _KERNEL_FLAGS) -> Path:
    """Path of the kernel compiled with flags, compiling it unless already cached."""
    source_key = hashlib.sha256(_KERNEL_SOURCE.read_bytes()).hexdigest()[:16]
    flags_key = hashlib.sha256("\0".join(flags).encode()).hexdigest()[:8]
    lib = _KERNEL_SOURCE.parent / "__pycache__" / f"_beam.{source_key}.{flags_key}.so"
    if lib.exists():
        return lib
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler 'cc' on PATH")
    import subprocess

    lib.parent.mkdir(exist_ok=True)
    # a private temporary name, then an atomic rename: overlapping builds
    # never load a half-written library
    tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
    try:
        done = subprocess.run(
            [cc, *flags, "-o", str(tmp), str(_KERNEL_SOURCE), "-lm"],
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            raise OSError(f"{cc} exited {done.returncode}: {done.stderr.strip()}")
        os.replace(tmp, lib)
    finally:
        tmp.unlink(missing_ok=True)
    for stale in lib.parent.glob("_beam.*.so"):  # earlier sources' builds
        if not stale.name.startswith(f"_beam.{source_key}."):
            stale.unlink(missing_ok=True)
    return lib


def _load_kernel(flags: tuple[str, ...] = _KERNEL_FLAGS) -> ctypes.CDLL | None:
    """The kernel compiled with flags, or None after one warning when it is unavailable."""
    try:
        kernel = ctypes.CDLL(str(_build_kernel(flags)))
    except OSError as exc:
        logging.getLogger(__name__).warning(
            "toy decoder: C beam search unavailable (%s); using the Python beam search",
            exc,
        )
        return None
    c_i32, c_f64 = ctypes.c_int32, ctypes.c_double
    kernel.rt_beam_search_many.argtypes = (
        c_i32,  # request count
        ctypes.c_char_p,  # requests
        ctypes.c_char_p,  # row table
        ctypes.POINTER(c_i32),  # bias: previous outputs' token ids
        ctypes.c_uint64,  # seed state
        c_f64,  # instability
        c_f64,  # distortion
        c_f64,  # max_len_ratio
        c_i32,  # beam size
        ctypes.POINTER(c_i32),  # out: token ids
        ctypes.POINTER(c_i32),  # out: lengths
        ctypes.POINTER(c_f64),  # out: scores
    )
    kernel.rt_beam_search_many.restype = None
    kernel.rt_unit_interval.argtypes = (ctypes.c_uint64,)
    kernel.rt_unit_interval.restype = c_f64
    return kernel


_kernel = _load_kernel()


class ToyLexicalTranslator:
    """Beam-search decoder over a probabilistic word lexicon.

    translate is a pure function of (config, source, bias, finality flag).
    Every table is built at construction and never changes after, so
    forked children inherit them complete.
    """

    def __init__(self, config: ToyModelConfig):
        self.config = config
        # each source token's (target, prob) entries; UNK translates to
        # itself unless the lexicon says otherwise
        self._entries = {UNK: ((UNK, 1.0),), **config.lexicon}
        # the kernel's target ids, one per string; EOS first, as RT_EOS is 0
        self._targets = list(dict.fromkeys(
            [EOS, *(tgt for entries in self._entries.values() for tgt, _ in entries)]
        ))
        self._ids = {tgt: i for i, tgt in enumerate(self._targets)}
        self._token_states = states = {tgt: _token_state(tgt) for tgt in self._targets}
        # the kernel's row table (see _beam.c), one row per source token, and
        # each row's packed offset in it
        table, self._offsets = bytearray(), {}
        for src, entries in self._entries.items():
            text = src.encode("utf-8")
            self._offsets[src] = _OFFSET.pack(len(table))
            table += struct.pack(f"=i{len(text)}si", len(text), text, len(entries))
            table += b"".join(_ROW_ENTRY.pack(states[tgt], p, self._ids[tgt]) for tgt, p in entries)
        self._table = bytes(table)
        self._seed_state = _avalanche(config.seed)

    def translate(
        self,
        source: TokenSeq,
        bias: BiasSpec | None = None,
        source_is_final: bool = False,
    ) -> Translation:
        return _raised(self.translate_many([(source, bias, source_is_final)])[0])

    def translate_many(self, requests: list[Request]) -> list[Translation | Exception]:
        """A Translation or the error translate would raise, per (source, bias,
        source_is_final) request; the kernel decodes them all in one call."""
        if _kernel is None:
            return _one_by_one(self._python_beam_search, requests)
        cfg = self.config
        offsets, ids, pack = self._offsets, self._ids, _REQUEST.pack
        results: list = [None] * len(requests)
        decoded: list[int] = []  # indices of the requests the kernel decodes
        sizes, packed, prev = [], [], []
        for r, (source, bias, source_is_final) in enumerate(requests):
            if not source:
                results[r] = ValueError("source must be non-empty")
                continue
            try:
                rows = b"".join(map(offsets.__getitem__, source))
            except KeyError as missing:
                results[r] = _unknown(missing)
                continue
            n_prev, beta = 0, 0.0
            if bias is not None and bias.beta > 0.0 and bias.previous_output:
                n_prev, beta = len(bias.previous_output), bias.beta
                prev += [ids.get(t, -1) for t in bias.previous_output]
            eos = _eos_weight(cfg, source, source_is_final)
            packed += (pack(len(source), n_prev, eos, beta), rows)
            decoded.append(r)
            sizes.append(len(source))
        if not decoded:
            return results
        out = (ctypes.c_int32 * sum(sizes))()  # room for one token per source position
        lengths = (ctypes.c_int32 * len(decoded))()
        scores = (ctypes.c_double * len(decoded))()
        _kernel.rt_beam_search_many(
            len(decoded),
            b"".join(packed),
            self._table,
            (ctypes.c_int32 * len(prev))(*prev),
            self._seed_state,
            cfg.instability,
            cfg.distortion,
            cfg.max_len_ratio,
            # no pool can reach 2**31 hypotheses, so a wider beam decodes alike
            min(cfg.beam_size, _INT32_MAX),
            out,
            lengths,
            scores,
        )
        target, out = self._targets.__getitem__, out[:]
        at = 0
        for r, n, length, score in zip(decoded, sizes, lengths[:], scores[:]):
            if length == _KERNEL_NO_MEMORY:
                results[r] = MemoryError("beam search kernel: out of memory")
            else:
                results[r] = Translation(tuple(map(target, out[at : at + length])), score)
            at += n
        return results

    def _python_beam_search(
        self, source: TokenSeq, bias: BiasSpec | None, source_is_final: bool
    ) -> Translation:
        """The beam search in Python: the kernel's reference and fallback."""
        if not source:
            raise ValueError("source must be non-empty")
        cfg = self.config
        n = len(source)
        try:
            entries = [self._entries[tok] for tok in source]
        except KeyError as missing:
            raise _unknown(missing) from None
        noise = (
            _NoiseTable(cfg, source, self._token_states) if cfg.instability > 0 else None
        )
        eos_w = _eos_weight(cfg, source, source_is_final)

        prev = bias.previous_output if bias is not None else ()
        beta = bias.beta if bias is not None else 0.0
        biasing = beta > 0.0 and len(prev) > 0

        # hypothesis: (score, tokens, coverage, highest_covered, diverged, done)
        beam: list[tuple[float, TokenSeq, int, int, bool, bool]] = [
            (0.0, (), 0, -1, False, False)
        ]
        log = math.log
        for _ in range(n + 1):
            if all(done for *_, done in beam):
                break
            pool: list[tuple[float, TokenSeq, int, int, bool, bool]] = []
            for score, tokens, cov, highest, diverged, done in beam:
                if done:
                    pool.append((score, tokens, cov, highest, diverged, True))
                    continue
                m = len(tokens)
                weights = _raw_step_weights(cfg, entries, cov, highest, m, eos_w, noise)
                total = 0.0
                for w, _, _ in weights:
                    total += w
                for w, tok, pos in weights:
                    # weights that all underflow give every candidate the floor
                    p = w / total if total > 0.0 else 0.0
                    child_diverged = diverged
                    if biasing and not diverged and m < len(prev):
                        if tok == prev[m]:
                            p = (1.0 - beta) * p + beta
                        else:
                            p = (1.0 - beta) * p
                            child_diverged = True
                    if p < _MIN_PROB:
                        p = _MIN_PROB
                    if tok == EOS:
                        pool.append((score + log(p), tokens, cov, highest, diverged, True))
                    else:
                        pool.append(
                            (
                                score + log(p),
                                tokens + (tok,),
                                cov | (1 << pos),
                                highest if highest > pos else pos,
                                child_diverged,
                                False,
                            )
                        )
            # stable sort keeps earlier (monotone-first) expansions ahead on ties
            pool.sort(key=lambda h: -h[0])
            beam = pool[: cfg.beam_size]

        # every hypothesis has ended: each expansion adds a token for a new
        # source position or ends, and every lexicon row has an entry
        score, tokens, *_ = beam[0]
        return Translation(tokens, score)


class CachingTranslator:
    """Memoizes a translator's results, errors included; valid because
    translators are pure. The simulator keeps one for each sentence."""

    def __init__(self, inner):
        self.inner = inner
        self._cache: dict[tuple, Translation | Exception] = {}

    def translate(
        self,
        source: TokenSeq,
        bias: BiasSpec | None = None,
        source_is_final: bool = False,
    ) -> Translation:
        request = (source, bias, source_is_final)
        hit = self._cache.get(request)
        if hit is None:
            hit = self.translate_many([request])[0]
        return _raised(hit)

    def translate_many(self, requests: list[Request]) -> list[Translation | Exception]:
        """Each request's result; the distinct misses go to the inner
        translator in one translate_many call."""
        cache = self._cache
        misses = [request for request in dict.fromkeys(requests) if request not in cache]
        if misses:
            cache.update(zip(misses, self.inner.translate_many(misses)))
        return [cache[request] for request in requests]


def load_lexicon(path: str | Path, **params) -> ToyModelConfig:
    """Parse a "src ||| tgt ||| prob" lexicon file into a ToyModelConfig.

    '#' starts a comment; blank lines are skipped. Remaining keyword
    arguments become ToyModelConfig fields (beam_size, distortion, ...).
    A bad probability names its line, a bad sum its token's first line.
    """
    raw: dict[str, list[tuple[str, float]]] = {}
    first_line: dict[str, int] = {}
    for lineno, line in numbered_lines(path, ParseError):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|||")]
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'src ||| tgt ||| prob'")
        src, tgt, prob_text = parts
        check_tokens((src, tgt), where=f"{path}:{lineno}")
        try:
            prob = float(prob_text)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad probability {prob_text!r}") from None
        _check_probability(src, tgt, prob, f"{path}:{lineno}")
        raw.setdefault(src, []).append((tgt, prob))
        first_line.setdefault(src, lineno)
    for src, entries in raw.items():
        _check_sum(src, entries, f"{path}:{first_line[src]}")
    lexicon = {src: tuple(entries) for src, entries in raw.items()}
    return ToyModelConfig(lexicon=lexicon, **params)
