"""Minimal s-expression reader and writer.

Surface syntax for terms is whitespace-insensitive UTF-8 s-expressions.
``read`` produces nested Python lists whose atoms are ``int`` or ``str``;
``write`` is its exact inverse on that representation.
"""

from __future__ import annotations

import re
import sys

_INT = re.compile(r"[+-]?\d+$")
_TOKEN = re.compile(r"[()]|[^\s()]+")
_UNPRINTABLE = re.compile(r"[\s()]")  # what a string atom may not contain


class SexprError(Exception):
    pass


class IntTooLongError(ValueError):
    """An integer has more digits than ``sys.get_int_max_str_digits()`` lets Python print."""


def tokenize(text: str) -> list[str]:
    """Each delimiter, and each maximal run of non-space, non-delimiter characters.

    Python's ``\\s`` matches exactly the characters ``str.isspace`` calls
    whitespace, so ``_TOKEN`` splits the text where a scan by ``isspace``
    would; a tier-1 test checks that on the running interpreter.
    """
    return _TOKEN.findall(text)


def _read_atom(tok: str):
    if _INT.match(tok):
        try:
            return int(tok)
        except ValueError:  # more digits than Python converts
            digits = len(tok.lstrip("+-"))
            raise SexprError(
                f"integer literal has {digits} digits, more than the limit of {sys.get_int_max_str_digits()}"
            ) from None
    return tok


def read(text: str):
    """Parse exactly one s-expression; trailing garbage is an error.

    The lists still open are kept on an explicit stack, so nesting depth is
    limited by memory, not by the recursion limit.
    """
    tokens = tokenize(text)
    if not tokens:
        raise SexprError("empty input")
    open_lists = []  # innermost last
    for pos, tok in enumerate(tokens):
        if tok == "(":
            open_lists.append([])
            continue
        if tok != ")":
            expr = _read_atom(tok)
        elif open_lists:
            expr = open_lists.pop()
        else:
            raise SexprError("unexpected ')'")
        if open_lists:
            open_lists[-1].append(expr)
        elif pos + 1 != len(tokens):
            raise SexprError(f"trailing input after expression: {tokens[pos + 1]!r}")
        else:
            return expr
    raise SexprError("unclosed '('")


def write(expr) -> str:
    """The text of ``expr``, which must be acyclic, as ``read``'s results are.

    Written in one pass, with the lists still open kept on an explicit
    stack, so nesting depth is limited by memory, not by the recursion limit.
    """
    if not isinstance(expr, list):
        return _write_atom(expr)
    out = ["("]
    open_lists = [iter(expr)]  # per open list, innermost last: its items left to write
    sep = ""  # what goes before the next item: nothing right after a "("
    while open_lists:
        for e in open_lists[-1]:
            if isinstance(e, list):
                out.append(sep + "(")
                open_lists.append(iter(e))
                sep = ""
                break
            out.append(sep + _write_atom(e))
            sep = " "
        else:
            open_lists.pop()
            out.append(")")
            sep = " "
    return "".join(out)


def _write_atom(expr) -> str:
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
        if expr == "" or _UNPRINTABLE.search(expr):
            raise SexprError(f"unprintable atom: {expr!r}")
        return expr
    raise SexprError(f"unprintable value: {expr!r}")
