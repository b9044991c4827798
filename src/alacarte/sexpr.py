"""Minimal s-expression reader and writer.

Surface syntax for terms is whitespace-insensitive UTF-8 s-expressions.
``read`` produces nested Python lists whose atoms are ``int`` or ``str``;
``write`` is its exact inverse on that representation.
"""

from __future__ import annotations

import re
import sys

_INT = re.compile(r"[+-]?\d+$")
_DELIMS = "()"


class SexprError(Exception):
    pass


class IntTooLongError(ValueError):
    """An integer has more digits than ``sys.get_int_max_str_digits()`` lets Python print."""


def tokenize(text: str) -> list[str]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in _DELIMS:
            tokens.append(c)
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in _DELIMS:
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _read_one(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise SexprError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise SexprError("unclosed '('")
            if tokens[pos] == ")":
                return items, pos + 1
            item, pos = _read_one(tokens, pos)
            items.append(item)
    if tok == ")":
        raise SexprError("unexpected ')'")
    if _INT.match(tok):
        try:
            return int(tok), pos + 1
        except ValueError:  # more digits than Python converts
            digits = len(tok.lstrip("+-"))
            raise SexprError(
                f"integer literal has {digits} digits, more than the limit of {sys.get_int_max_str_digits()}"
            ) from None
    return tok, pos + 1


def read(text: str):
    """Parse exactly one s-expression; trailing garbage is an error."""
    tokens = tokenize(text)
    if not tokens:
        raise SexprError("empty input")
    expr, pos = _read_one(tokens, 0)
    if pos != len(tokens):
        raise SexprError(f"trailing input after expression: {tokens[pos]!r}")
    return expr


def write(expr) -> str:
    if isinstance(expr, list):
        return "(" + " ".join(write(e) for e in expr) + ")"
    if isinstance(expr, bool):
        raise SexprError("booleans are not part of the surface syntax")
    if isinstance(expr, int):
        try:
            return str(expr)
        except ValueError:
            raise IntTooLongError(
                f"an integer has more than {sys.get_int_max_str_digits()} digits"
            ) from None
    if isinstance(expr, str):
        if expr == "" or any(ch.isspace() or ch in _DELIMS for ch in expr):
            raise SexprError(f"unprintable atom: {expr!r}")
        return expr
    raise SexprError(f"unprintable value: {expr!r}")
