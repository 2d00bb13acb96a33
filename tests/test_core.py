from __future__ import annotations

import dataclasses
import os
import pickle
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from retransim.core import (
    CorpusError,
    CorpusLengthMismatch,
    SentencePair,
    SessionTrace,
    StepRecord,
    check_tokens,
    common_prefix_length,
    is_prefix,
    longest_common_prefix,
    read_corpus,
    read_lines,
    tokenize,
    utf8_error_location,
    write_lines,
)
from retransim.metrics import erased_between
from conftest import seq, write_corpus


def test_lcp_reordering_example():
    assert longest_common_prefix(seq("p q r"), seq("p q s t")) == seq("p q")


def test_lcp_word_order_flip_example():
    a = seq("Aber Sie wissen es")
    b = seq("Aber wissen Sie , sie wissen schon")
    assert longest_common_prefix(a, b) == ("Aber",)


def test_lcp_identity_and_empty():
    for x in [(), ("p",), seq("p q r")]:
        assert longest_common_prefix(x, x) == x
        assert longest_common_prefix(x, ()) == ()
        assert longest_common_prefix((), x) == ()


def _random_seq(rng: random.Random) -> tuple[str, ...]:
    return tuple(rng.choice("abc") for _ in range(rng.randrange(0, 8)))


def test_lcp_properties_random():
    rng = random.Random(7)
    for _ in range(500):
        a, b = _random_seq(rng), _random_seq(rng)
        lcp = longest_common_prefix(a, b)
        assert lcp == longest_common_prefix(b, a)
        assert len(lcp) <= min(len(a), len(b))
        assert is_prefix(lcp, a) and is_prefix(lcp, b)
        # maximality: one more token would disagree
        n = len(lcp)
        if n < min(len(a), len(b)):
            assert a[n] != b[n]
        assert longest_common_prefix(lcp, a) == lcp


def _loop_prefix_length(a, b) -> int:
    """The token loop alone, without the slice-comparison fast paths."""
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return n


SHORT_SEQS = st.lists(st.sampled_from("abc"), max_size=6).map(tuple)


@given(SHORT_SEQS, SHORT_SEQS)
def test_prefix_fast_paths_equal_the_token_loop(a, b):
    # either side empty, equal, a prefix of the other, or diverging
    for x, y in [(a, b), (a, a), (a, a + b), (a + b, a), ((), a), (a, ())]:
        n = _loop_prefix_length(x, y)
        assert common_prefix_length(x, y) == n
        assert longest_common_prefix(x, y) == x[:n]
        assert erased_between(x, y) == len(x) - n
        # a list on one side defeats the tuple fast paths; the loop still
        # compares tokens, and the prefix keeps the first argument's type
        assert common_prefix_length(x, list(y)) == n
        assert type(longest_common_prefix(x, list(y))) is tuple
        assert longest_common_prefix(list(x), y) == list(x[:n])


def test_is_prefix_basics():
    assert is_prefix((), seq("p q r"))
    assert is_prefix((), ())
    assert is_prefix(seq("p q"), seq("p q r"))
    assert not is_prefix(seq("p r"), seq("p q r"))
    assert not is_prefix(seq("p q r"), seq("p q"))


def test_is_prefix_antisymmetry_random():
    rng = random.Random(11)
    for _ in range(500):
        a, b = _random_seq(rng), _random_seq(rng)
        if is_prefix(a, b) and is_prefix(b, a):
            assert a == b
        assert is_prefix(a, b) == (longest_common_prefix(a, b) == a)


def test_tokenize_whitespace():
    assert tokenize("  Mehrere   Male \n") == ("Mehrere", "Male")
    assert tokenize("") == ()


def test_tokenize_char_mode():
    assert tokenize("ab c", char_mode=True) == ("a", "b", "c")
    assert tokenize("你 好", char_mode=True) == ("你", "好")


def test_check_tokens_rejects_bad_tokens():
    with pytest.raises(CorpusError):
        check_tokens(("ok", ""))
    with pytest.raises(CorpusError):
        check_tokens(("has space",))


def test_sentence_pair_requires_nonempty():
    with pytest.raises(CorpusError):
        SentencePair(source=(), reference=("x",), sentence_id=0)
    with pytest.raises(CorpusError):
        SentencePair(source=("x",), reference=(), sentence_id=0)


def test_records_are_slotted_and_pickle_as_their_constructor_call():
    """A run holds one StepRecord per step: no per-instance dict, and the fork
    hand-off pickles each as its constructor call, sequences shared as given."""
    shown = seq("x")
    rec = StepRecord(2, seq("a b"), seq("x y"), shown, 1, False, (seq("x y z"),), 2)
    trace = SessionTrace(0, (rec,), shown, seq("x y"))
    for obj in (rec, trace):
        assert not hasattr(obj, "__dict__")
        values = tuple(getattr(obj, field.name) for field in dataclasses.fields(obj))
        assert obj.__reduce__() == (type(obj), values)
        copied = pickle.loads(pickle.dumps(obj))
        assert copied == obj and hash(copied) == hash(obj)
    copied = pickle.loads(pickle.dumps(trace))
    assert copied.final_output is copied.records[-1].emitted_output
    unmasked = StepRecord(2, seq("a b"), seq("x y"), shown, 0, False, (seq("x y z"),), 2)
    assert dataclasses.replace(rec, mask_length=0) == unmasked
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.mask_length = 0


def test_read_corpus(tmp_path):
    src, ref = write_corpus(tmp_path, ["a b", "c"], ["x y", "z"])
    pairs = read_corpus(src, ref)
    assert len(pairs) == 2
    assert pairs[0].source == ("a", "b")
    assert pairs[1].reference == ("z",)
    assert pairs[1].sentence_id == 1


def test_read_corpus_length_mismatch(tmp_path):
    src, ref = write_corpus(tmp_path, ["a", "b"], ["x"])
    with pytest.raises(CorpusLengthMismatch):
        read_corpus(src, ref)


def test_read_corpus_char_mode(tmp_path):
    src, ref = write_corpus(tmp_path, ["ab"], ["xy z"])
    pairs = read_corpus(src, ref, char_mode=True)
    assert pairs[0].source == ("a", "b")
    assert pairs[0].reference == ("x", "y", "z")


def test_read_lines_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "corpus.src"
    # past the text reader's first buffer, so a buffer offset would be wrong
    path.write_bytes(b"a b\n" * 5000 + b"c \xff d\n")
    with pytest.raises(CorpusError, match=re.escape(f"{path}:5001: not UTF-8")):
        read_lines(path)


def test_utf8_error_location_of_a_file_that_decodes_names_no_line(tmp_path):
    # the file may have changed between the failed read and this call
    path = tmp_path / "corpus.src"
    path.write_bytes("a b\nc é\n".encode("utf-8"))
    assert utf8_error_location(path) == str(path)


def test_write_lines_writes_utf8_with_newline_line_ends(tmp_path):
    path = tmp_path / "out.txt"
    write_lines(path, iter(["a é", "", "b\tc"]))
    assert path.read_bytes() == "a é\n\nb\tc\n".encode("utf-8")
    assert read_lines(path) == ["a é", "", "b\tc"]
    write_lines(path, [])
    assert path.read_bytes() == b""


def _one_line_then_a_failure():
    yield "a"
    raise RuntimeError("lines failed")


@pytest.mark.parametrize("old", [None, b"old\n"], ids=["absent", "existing"])
def test_write_lines_that_fail_leave_the_old_file_and_no_temporary(tmp_path, old):
    path = tmp_path / "out.txt"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises(RuntimeError, match="lines failed"):
        write_lines(path, _one_line_then_a_failure())
    assert (path.read_bytes() if path.exists() else None) == old
    assert list(tmp_path.iterdir()) == ([path] if old is not None else [])


def test_write_lines_through_a_symlink_keeps_the_link(tmp_path):
    target = tmp_path / "target.txt"
    target.write_bytes(b"old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    with open(target, "rb") as reader:
        write_lines(link, ["new"])
        assert reader.read() == b"old\n"  # the target was replaced whole, not rewritten
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


def test_write_lines_writes_a_file_that_is_no_regular_file_in_place(monkeypatch):
    # a temporary beside /dev/null could not be made, nor renamed onto it
    monkeypatch.setattr("os.replace", lambda *_: pytest.fail("renamed"))
    write_lines(os.devnull, ["a"])
    # a pipe's descriptor link resolves to no path, as /dev/stdout on a pipe does
    read_fd, write_fd = os.pipe()
    try:
        write_lines(f"/dev/fd/{write_fd}", ["a", "b"])
        assert os.read(read_fd, 16) == b"a\nb\n"
    finally:
        os.close(read_fd)
        os.close(write_fd)


def test_write_lines_into_a_missing_directory_names_the_path_given(tmp_path):
    path = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError) as info:
        write_lines(path, ["a"])
    assert str(info.value).endswith(f": {str(path)!r}")  # not the temporary's name
