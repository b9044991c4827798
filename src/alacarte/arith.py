"""The literals-and-addition language.

The term signature is the coproduct of a literal grammar and an addition
grammar; evaluation is the fold of the composed algebra.  Three relations
over terms are given as indexed signatures:

- ``EVAL_SIG`` relates a term to its value,
- ``TYPOF_SIG`` assigns every term the single numeric type ``N``,
- ``ISTRM_SIG`` is the relational lifting of the term datatype itself.

``preservation`` turns an evaluation derivation plus a typing derivation
into a typing derivation for the resulting literal; it is implemented
exclusively as an ``ifold`` whose step consumes recursive premises only
through the supplied ``rec`` procedure.  ``preservation_via_istrm`` reaches
the same conclusion by folding over the lifted term predicate instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from . import sexpr
from .indexed import (
    Derivation,
    IndexedSignature,
    InvalidDerivationError,
    WrongIndexError,
    derivation_to_json,
    din,
    dout,
    ifold,
    rule,
    validate,
)
from .kernel import (
    Node,
    Signature,
    Term,
    case,
    coproduct,
    fold_c,
    in_,
    inject_left,
    inject_right,
    out_,
    value_class,
)


@value_class
class Val:
    vv: int


@value_class
class TypN:
    """The single numeric type."""


N = TypN()


TRM_G1 = Signature("trm_g1", {"lit": ("int",)})
TRM_G2 = Signature("trm_g2", {"add": ("rec", "rec")})
TRM = coproduct(TRM_G1, TRM_G2)

LIT = "inl:lit"
ADD = "inr:add"


def lit(x: int) -> Term:
    return in_(inject_left(TRM, TRM_G1.node("lit", (x,))))


def add(a: Term, b: Term) -> Term:
    return in_(inject_right(TRM, TRM_G2.node("add", (a, b))))


# The rule conclusions and the preservation postconditions build their terms
# in one call each.  ``lit``/``add`` build the same terms, with the same
# checks and messages, through the modular injection path.
_lit = TRM.constructor(LIT, "lit")
_add = TRM.constructor(ADD, "add")


def lit_value(t: Term) -> int:
    """Payload of a literal term."""
    node = out_(t)
    if node.ctor != LIT:
        raise ValueError(f"not a literal: {node.ctor}")
    return node.payload[0]


# ---------------------------------------------------------------------------
# evaluation: per-summand algebras copaired over the coproduct


def eval_g1(n: Node) -> Val:
    return Val(n.payload[0])


def eval_g2(n: Node) -> Val:
    x1, x2 = n.rec
    return Val(x1.vv + x2.vv)


eval_g = case(TRM, eval_g1, eval_g2)
eval_g.__name__ = eval_g.__qualname__ = "eval_g"


def eval_(t: Term) -> Val:
    return fold_c(eval_g, t)


# ---------------------------------------------------------------------------
# relations

EVAL_SIG = IndexedSignature(
    "Eval",
    [
        rule(
            "ev1",
            params=("x",),
            conclusion=lambda P: (_lit(P["x"]), Val(P["x"])),
        ),
        rule(
            "ev2",
            params=("e1", "e2", "x1", "x2", "v"),
            premises=(
                lambda P: (P["e1"], P["x1"]),
                lambda P: (P["e2"], P["x2"]),
            ),
            side=(
                ("sum", lambda P: P["v"].vv == P["x1"].vv + P["x2"].vv),
            ),
            conclusion=lambda P: (_add(P["e1"], P["e2"]), P["v"]),
        ),
    ],
)

TYPOF_SIG = IndexedSignature(
    "TypOf",
    [
        rule(
            "tof1",
            params=("v",),
            conclusion=lambda P: (_lit(P["v"].vv), N),
        ),
        rule(
            "tof2",
            params=("e1", "e2"),
            premises=(
                lambda P: (P["e1"], N),
                lambda P: (P["e2"], N),
            ),
            conclusion=lambda P: (_add(P["e1"], P["e2"]), N),
        ),
    ],
)

ISTRM_SIG = IndexedSignature(
    "IsTrm",
    [
        rule("isLit", params=("x",), conclusion=lambda P: _lit(P["x"])),
        rule(
            "isAdd",
            params=("e1", "e2"),
            premises=(lambda P: P["e1"], lambda P: P["e2"]),
            conclusion=lambda P: _add(P["e1"], P["e2"]),
        ),
    ],
)


def build_eval_derivation(t: Term) -> Derivation:
    """A validating derivation concluding at ``(t, eval_(t))``."""
    node = out_(t)
    if node.ctor == LIT:
        return din(EVAL_SIG.dnode("ev1", {"x": node.payload[0]}))
    e1, e2 = node.rec
    d1 = build_eval_derivation(e1)
    d2 = build_eval_derivation(e2)
    x1 = d1.root.conclusion[1]
    x2 = d2.root.conclusion[1]
    return din(
        EVAL_SIG.dnode(
            "ev2",
            {"e1": e1, "e2": e2, "x1": x1, "x2": x2, "v": Val(x1.vv + x2.vv)},
            (d1, d2),
        )
    )


@dataclass(frozen=True)
class Agreement:
    ok: bool
    conclusion: tuple
    evaluated: Val

    def __bool__(self):
        return self.ok


def eval_of_derivation(d: Derivation) -> Agreement:
    """Does the derivation's conclusion ``(e, v)`` satisfy ``v == eval_(e)``?"""
    verdict = validate(d)
    if not verdict:
        raise InvalidDerivationError(verdict.reason)
    e, v = d.root.conclusion
    evaluated = eval_(e)
    return Agreement(v == evaluated, d.root.conclusion, evaluated)


def build_typof_derivation(t: Term) -> Derivation:
    node = out_(t)
    if node.ctor == LIT:
        return din(TYPOF_SIG.dnode("tof1", {"v": Val(node.payload[0])}))
    e1, e2 = node.rec
    return din(
        TYPOF_SIG.dnode(
            "tof2",
            {"e1": e1, "e2": e2},
            (build_typof_derivation(e1), build_typof_derivation(e2)),
        )
    )


def build_istrm(t: Term) -> Derivation:
    node = out_(t)
    if node.ctor == LIT:
        return din(ISTRM_SIG.dnode("isLit", {"x": node.payload[0]}))
    e1, e2 = node.rec
    return din(
        ISTRM_SIG.dnode(
            "isAdd", {"e1": e1, "e2": e2}, (build_istrm(e1), build_istrm(e2))
        )
    )


# ---------------------------------------------------------------------------
# type preservation as an indexed Mendler fold
#
# Carrier at index (e, v): a transformer taking a typing derivation of e and
# returning a typing derivation of lit(v.vv) at the same type.


def _tof1(v: Val) -> Derivation:
    return din(TYPOF_SIG.dnode("tof1", {"v": v}))


def _preservation_step(rec, w, node):
    """The preservation step of both routes: over ``EVAL_SIG``, at index
    ``(e, v)``, and over ``ISTRM_SIG``, at index ``e``.

    The evaluation route also checks that its premise transformers agree
    with the premises' values.
    """
    evaluation = node.sig is EVAL_SIG
    e = w[0] if evaluation else w

    def transform(td: Derivation) -> Derivation:
        if td.root.conclusion != (e, N):
            raise WrongIndexError(
                f"typing derivation concludes {td.root.conclusion!r}, "
                f"expected {(e, N)!r}"
            )
        if node.rule in ("ev1", "isLit"):
            return td  # validated, and it concludes (lit x, N): tof1 at this literal
        tnode = dout(td)
        if tnode.rule != "tof2":
            raise InvalidDerivationError(
                f"typing of an addition must end in tof2, got {tnode.rule}"
            )
        (_, w1, h1), (_, w2, h2) = node.premises
        (_, _, td1), (_, _, td2) = tnode.premises
        out1 = rec(w1, h1)(td1)
        out2 = rec(w2, h2)(td2)
        x1 = lit_value(out1.root.conclusion[0])
        x2 = lit_value(out2.root.conclusion[0])
        if evaluation and (Val(x1) != w1[1] or Val(x2) != w2[1]):
            raise InvalidDerivationError("premise transformers disagreed with indices")
        return _tof1(Val(x1 + x2))

    return transform


def preservation(d: Derivation, td: Derivation) -> Derivation:
    """Typing is preserved across evaluation, by induction on the evaluation."""
    for x in (validate(d), validate(td)):
        if not x:
            raise InvalidDerivationError(x.reason)
    e, v = d.root.conclusion
    e2, t = td.root.conclusion
    if e != e2:
        raise WrongIndexError("evaluation and typing derivations disagree on the term")
    out = ifold(_preservation_step, (e, v), d)(td)
    assert out.root.conclusion == (_lit(v.vv), t)
    return out


def preservation_via_istrm(w: Derivation, td: Derivation) -> Derivation:
    """Same goal as :func:`preservation`, by induction on the lifted predicate."""
    for x in (validate(w), validate(td)):
        if not x:
            raise InvalidDerivationError(x.reason)
    e = w.root.conclusion
    e2, t = td.root.conclusion
    if e != e2:
        raise WrongIndexError("lifting and typing derivations disagree on the term")
    out = ifold(_preservation_step, e, w)(td)
    assert out.root.conclusion == (_lit(eval_(e).vv), t)
    return out


# ---------------------------------------------------------------------------
# surface syntax: (lit n) and (add e e)


def parse_term(text: str) -> Term:
    return term_of_sexpr(sexpr.read(text))


def term_of_sexpr(expr) -> Term:
    match expr:
        case ["lit", int(x)]:
            return lit(x)
        case ["add", a, b]:
            return add(term_of_sexpr(a), term_of_sexpr(b))
    raise sexpr.SexprError(f"not an arithmetic term: {sexpr.write(expr)}")


def term_to_sexpr(t: Term):
    node = out_(t)
    if node.ctor == LIT:
        return ["lit", node.payload[0]]
    a, b = node.rec
    return ["add", term_to_sexpr(a), term_to_sexpr(b)]


def print_term(t: Term) -> str:
    return sexpr.write(term_to_sexpr(t))


def print_val(v: Val) -> str:
    return sexpr.write(["val", v.vv])


def encode_index(v):
    """JSON encoding for values occurring in arith derivation indices."""
    if isinstance(v, Term):
        return print_term(v)
    if isinstance(v, Val):
        return print_val(v)
    if isinstance(v, TypN):
        return "N"
    if isinstance(v, tuple):
        return [encode_index(x) for x in v]
    return v


def derivation_json(d: Derivation) -> dict:
    return derivation_to_json(d, encode_index)
