"""Spans around the package's public functions, installed from outside.

The tracer replaces each listed function by a timing wrapper in every
module namespace that holds it (its defining module, and ``sim`` and
``cli``, which import by name), and each listed method in its class.
Nothing under ``src/`` is edited; ``uninstall`` puts every original
object back.

A span is ``(id, name, start, end, parent, sentence_id, size)``. Parents
come from a per-thread stack, so spans of a pool worker have no parent in
the calling thread. ``sentence_id`` is taken from ``run_sentence``'s pair
and inherited by the spans beneath it. ``size`` is the number of probes a
``predict_extensions`` call returned, or the bytes ``write_traces`` wrote.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager

import adapter

from retransim import cli, metrics, predict, sim, strategy, translator

# span names of the two translate layers: the cache in front, the decoder behind
CACHE = "translator.CachingTranslator.translate"
DECODE = "translator.ToyLexicalTranslator.translate"

# (layer, defining module, function name); spans are named layer.function.
# The wrapper also replaces every same-object binding in LOOKUP_MODULES.
FUNCTIONS = (
    ("predict", predict, "predict_extensions"),
    ("strategy", strategy, "emit_none"),
    ("strategy", strategy, "emit_mask_k"),
    ("strategy", strategy, "emit_dynamic"),
    ("strategy", strategy, "emit_oracle"),
    ("sim", sim, "run_sentence"),
    ("sim", sim, "run_corpus"),
    ("sim", sim, "load_models"),
    ("sim", sim, "write_traces"),
    ("sim", sim, "read_traces"),
    ("sim", sim, "validate_trace"),
    ("metrics", metrics, "aggregate"),
    ("cli", adapter.sweeps, "run_sweep"),
    ("cli", adapter.sweeps, "mask_histogram"),
)
METHODS = (
    (translator.CachingTranslator, "translate"),
    (translator.ToyLexicalTranslator, "translate"),
)
LOOKUP_MODULES = (sim, cli, adapter.sweeps)


def _sentence_of_pair(args, kwargs):
    pair = args[1] if len(args) > 1 else kwargs["pair"]
    return pair.sentence_id


def _probe_count(args, kwargs, result):
    return len(result)


def _bytes_written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


_SENTENCE_OF = {"sim.run_sentence": _sentence_of_pair}
_SIZE_OF = {
    "predict.predict_extensions": _probe_count,
    "sim.write_traces": _bytes_written,
}


class Tracer:
    """Collects spans while installed; ``take`` hands them over and resets."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.models: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        ids = self._ids
        clock = time.perf_counter
        sentence_of = _SENTENCE_OF.get(name)
        size_of = _SIZE_OF.get(name)

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent, inherited = stack[-1] if stack else (None, None)
            sid = sentence_of(args, kwargs) if sentence_of else inherited
            span_id = next(ids)  # atomic under the GIL, unlike len(spans)
            stack.append((span_id, sid))
            result = done = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = clock()
                stack.pop()
                size = size_of(args, kwargs, result) if done and size_of else None
                spans.append((span_id, name, start, end, parent, sid, size))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module, attr in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            if attr == "load_models":
                wrapper = self._keep_models(wrapper)
            for target in (module, *LOOKUP_MODULES):
                if target.__dict__.get(attr) is original:
                    self._saved.append((target, attr, original))
                    setattr(target, attr, wrapper)
        for cls, attr in METHODS:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"translator.{cls.__name__}.{attr}", original))

    def _keep_models(self, wrapper):
        # the loaded models stay referenced until take(), so their cache
        # sizes can be read at the end of a pass
        def keep(*args, **kwargs):
            models = wrapper(*args, **kwargs)
            self.models.append(models)
            return models

        keep.__wrapped__ = wrapper
        return keep

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self) -> tuple[list[tuple], int]:
        """Spans so far and the entries of every translator cache loaded."""
        spans = list(self.spans)
        self.spans.clear()
        entries = sum(
            len(m.translator._cache)
            for m in self.models
            if isinstance(m.translator, translator.CachingTranslator)
        )
        self.models.clear()
        return spans, entries


def self_times(spans: list[tuple]) -> dict[int, float]:
    """span id -> duration minus the time its child spans cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for span_id, _, start, end, parent, _, _ in spans:
        if parent is not None and parent in own:
            own[parent] -= end - start
    return own
