import re
import sys

import pytest
from hypothesis import given, strategies as st

from alacarte import sexpr


def test_read_atom():
    assert sexpr.read("42") == 42
    assert sexpr.read("-7") == -7
    assert sexpr.read("foo") == "foo"


def test_read_nested():
    assert sexpr.read("(add (lit 2) (lit 3))") == ["add", ["lit", 2], ["lit", 3]]


def test_whitespace_insensitive():
    assert sexpr.read(" ( a\n\t( b 1 ) ) ") == ["a", ["b", 1]]


def test_errors():
    for bad in ["", "(a", "a)", "(a) b", ")"]:
        with pytest.raises(sexpr.SexprError):
            sexpr.read(bad)


TOO_LONG = "9" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "bad, message",
    [
        (" \n", "empty input"),
        (")", "unexpected ')'"),
        (") (", "unexpected ')'"),
        ("((a) (b", "unclosed '('"),
        ("a)", "trailing input after expression: ')'"),
        ("(a) b (", "trailing input after expression: 'b'"),
        (f"(a) {TOO_LONG}", "trailing input after expression: '" + TOO_LONG + "'"),
        pytest.param(
            f"(a ({TOO_LONG}) (",
            f"integer literal has {len(TOO_LONG)} digits, more than the limit of {sys.get_int_max_str_digits()}",
            marks=pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="integer digit limit is off"),
        ),
    ],
)
def test_error_texts_name_the_first_fault_in_reading_order(bad, message):
    with pytest.raises(sexpr.SexprError) as info:
        sexpr.read(bad)
    assert str(info.value) == message


def test_round_trip_at_depth_100000():
    depth = 100_000
    text = "".join(f"(k{i} " for i in range(depth)) + "(leaf -1)" + "".join(f" {i})" for i in reversed(range(depth)))
    expr = sexpr.read(text)
    node = expr
    for i in range(depth):
        assert len(node) == 3 and node[0] == f"k{i}" and node[2] == i
        node = node[1]
    assert node == ["leaf", -1]
    assert sexpr.write(expr) == text
    empty = "(" * depth + ")" * depth
    assert sexpr.write(sexpr.read(empty)) == empty


atoms = st.one_of(
    st.integers(-999, 999),
    st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
)
exprs = st.recursive(atoms, lambda inner: st.lists(inner, max_size=4), max_leaves=20)


@given(exprs)
def test_write_read_roundtrip(expr):
    assert sexpr.read(sexpr.write(expr)) == expr


# ---------------------------------------------------------------------------
# the compiled tokenizer and atom check against the character scans they replaced

ALL_CHARS = "".join(map(chr, range(sys.maxunicode + 1)))


def reference_tokenize(text):
    """The spec: a scan of one character at a time by ``str.isspace``."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append(c)
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def reference_unprintable(atom):
    return atom == "" or any(ch.isspace() or ch in "()" for ch in atom)


def test_regex_whitespace_is_exactly_isspace_on_this_interpreter():
    assert re.findall(r"\s", ALL_CHARS) == [ch for ch in ALL_CHARS if ch.isspace()]


def test_tokenize_equals_the_character_scan_on_every_code_point():
    for ch in ALL_CHARS:
        for text in (ch, f"a{ch}b"):
            assert sexpr.tokenize(text) == reference_tokenize(text), repr(text)


@given(st.text(alphabet=st.sampled_from("ab1-( )\t\n\x1c\x85\xa0 　\U0001f600")) | st.text())
def test_tokenize_equals_the_character_scan_on_random_text(text):
    assert sexpr.tokenize(text) == reference_tokenize(text)


def _rejected(atom):
    try:
        sexpr.write(atom)
    except sexpr.SexprError as e:
        assert str(e) == f"unprintable atom: {atom!r}"
        return True
    return False


def test_atom_check_rejects_what_the_character_scan_rejected_on_every_code_point():
    assert _rejected("")
    for ch in ALL_CHARS:
        for atom in (ch, f"a{ch}b"):
            assert _rejected(atom) == reference_unprintable(atom), repr(atom)


@given(st.text())
def test_atom_check_rejects_what_the_character_scan_rejected_on_random_text(atom):
    assert _rejected(atom) == reference_unprintable(atom)
