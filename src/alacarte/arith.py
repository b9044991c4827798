"""The literals-and-addition language.

The term signature is the coproduct of a literal grammar and an addition
grammar; evaluation is the fold of the composed algebra.  Three relations
over terms are given as indexed signatures:

- ``EVAL_SIG`` relates a term to its value,
- ``TYPOF_SIG`` assigns every term the single numeric type ``N``,
- ``ISTRM_SIG`` is the relational lifting of the term datatype itself.

Each relation declares its index layout and each rule its subject pattern,
so each builder is one ``indexed.search`` call.  ``ev2`` defines ``v`` from
its premises' values, which ``sum`` checks, and ``tof1`` its ``Val`` from
the literal, which its pattern ``(lit "v.vv")`` checks.

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
    cases,
    derivation_to_json,
    ifold,
    rule,
    search,
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


# the factory every ``Val`` of this module is built through (see ``kernel.value_class``)
_new_val = Val._positional


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


# The rule patterns and the preservation postconditions build their terms
# in one call each.  ``lit``/``add`` build the same terms, with the same
# checks and messages, through the modular injection path.
_lit = TRM.constructor(LIT, "lit")
_add = TRM.constructor(ADD, "add")


def _trm_node(t: Term) -> Node:
    """The root node of ``t``, which must be a node of ``TRM``, not of another signature."""
    node = out_(t)
    if node.sig is not TRM:
        raise TypeError(f"{node.ctor!r} of {node.sig.name} is not a node of arith.TRM")
    return node


def lit_value(t: Term) -> int:
    """Payload of a literal term."""
    node = _trm_node(t)
    if node.ctor != LIT:
        raise ValueError(f"not a literal: {node.ctor}")
    return node.payload[0]


# ---------------------------------------------------------------------------
# evaluation: per-summand algebras copaired over the coproduct


def eval_g1(n: Node) -> Val:
    return _new_val(n.payload[0])


def eval_g2(n: Node) -> Val:
    x1, x2 = n.rec
    return _new_val(x1.vv + x2.vv)


eval_g = case(TRM, eval_g1, eval_g2)
eval_g.__name__ = eval_g.__qualname__ = "eval_g"


def eval_(t: Term) -> Val:
    return fold_c(eval_g, t)


# ---------------------------------------------------------------------------
# relations

EVAL_SIG = IndexedSignature(
    "Eval",
    [
        rule("ev1", params=("x",), subject=(_lit, "x"), conclusion=lambda P, s: (s, _new_val(P["x"]))),
        rule(
            "ev2",
            params=("e1", "e2", "x1", "x2", "v"),
            premises=(lambda P: (P["e1"], P["x1"]), lambda P: (P["e2"], P["x2"])),
            define=(("v", lambda P, s: _new_val(P["x1"].vv + P["x2"].vv)),),
            side=(("sum", lambda P: P["v"].vv == P["x1"].vv + P["x2"].vv),),
            subject=(_add, "e1", "e2"),
            conclusion=lambda P, s: (s, P["v"]),
        ),
    ],
    layout=("subject", "output"),
)

TYPOF_SIG = IndexedSignature(
    "TypOf",
    [
        rule(
            "tof1",
            params=("v",),
            define=(("v", lambda P, s: _new_val(s.root.payload[0])),),
            subject=(_lit, "v.vv"),
            conclusion=lambda P, s: (s, N),
        ),
        rule(
            "tof2",
            params=("e1", "e2"),
            premises=(lambda P: (P["e1"], N), lambda P: (P["e2"], N)),
            subject=(_add, "e1", "e2"),
            conclusion=lambda P, s: (s, N),
        ),
    ],
    layout=("subject", "output"),
)

ISTRM_SIG = IndexedSignature(
    "IsTrm",
    [
        rule("isLit", params=("x",), subject=(_lit, "x"), conclusion=lambda P, s: s),
        rule(
            "isAdd",
            params=("e1", "e2"),
            premises=(lambda P: P["e1"], lambda P: P["e2"]),
            subject=(_add, "e1", "e2"),
            conclusion=lambda P, s: s,
        ),
    ],
    layout=("subject",),
)


def build_eval_derivation(t: Term) -> Derivation:
    """A validating derivation concluding at ``(t, eval_(t))``."""
    return search(EVAL_SIG, 1, None, t)[1]


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
    """A validating derivation concluding at ``(t, N)``."""
    return search(TYPOF_SIG, 1, None, t)[1]


def build_istrm(t: Term) -> Derivation:
    """A validating derivation of the lifted term predicate at ``t``."""
    return search(ISTRM_SIG, 1, None, t)[1]


# ---------------------------------------------------------------------------
# type preservation as an indexed Mendler fold
#
# Carrier at index (e, v): a transformer taking a typing derivation of e and
# returning a typing derivation of lit(v.vv) at the same type.


_TOF1 = TYPOF_SIG.rules["tof1"]


def _mistyped(td: Derivation, e: Term) -> WrongIndexError:
    return WrongIndexError(f"typing derivation concludes {td.root.conclusion!r}, expected {(e, N)!r}")


# The two proof cases of both routes: over ``EVAL_SIG``, at index ``(e, v)``,
# and over ``ISTRM_SIG``, at index ``e``.  The evaluation route also checks
# that its premise transformers agree with the premises' values.  Each check
# is inline, and a premise's literal is read as ``lit_value`` reads it, which
# raises its error for anything else.
def _literal_case(rec, w, node):
    e = w[0] if node.sig is EVAL_SIG else w

    def transform(td: Derivation) -> Derivation:
        if td.root.conclusion != (e, N):
            raise _mistyped(td, e)
        return td  # validated, and it concludes (lit x, N): tof1 at this literal

    return transform


def _sum_case(rec, w, node):
    evaluation = node.sig is EVAL_SIG
    e = w[0] if evaluation else w

    def transform(td: Derivation) -> Derivation:
        tnode = td.root
        if tnode.conclusion != (e, N):
            raise _mistyped(td, e)
        if tnode.rule != "tof2":
            raise InvalidDerivationError(f"typing of an addition must end in tof2, got {tnode.rule}")
        (_, w1, h1), (_, w2, h2) = node.premises
        (_, _, td1), (_, _, td2) = tnode.premises
        s1 = rec(w1, h1)(td1).root.conclusion[0]
        x1 = m.payload[0] if (m := s1.root).sig is TRM and m.ctor == LIT else lit_value(s1)
        s2 = rec(w2, h2)(td2).root.conclusion[0]
        x2 = m.payload[0] if (m := s2.root).sig is TRM and m.ctor == LIT else lit_value(s2)
        if evaluation and not (  # only a Val index of the same value agrees
            w1[1].__class__ is Val and w1[1].vv == x1 and w2[1].__class__ is Val and w2[1].vv == x2
        ):
            raise InvalidDerivationError("premise transformers disagreed with indices")
        x = x1 + x2
        return _TOF1.compiled[1](TYPOF_SIG, "tof1", {"v": _new_val(x)}, (), _lit(x))

    return transform


_preservation_step = cases(EVAL_SIG, {"ev1": _literal_case, "ev2": _sum_case})
_istrm_preservation_step = cases(ISTRM_SIG, {"isLit": _literal_case, "isAdd": _sum_case})


def _concludes(out: Derivation, x, t) -> Derivation:
    """``out``, which must conclude at ``(lit x, t)``; a literal that is plainly that one is not built to be compared."""
    c = out.root.conclusion
    if c.__class__ is tuple and len(c) == 2 and c[1] is t and x.__class__ is int and (s := c[0]).__class__ is Term:
        m = s.root
        if s.sig is TRM and m.__class__ is Node and m.sig is TRM and m.ctor == LIT and m.rec == () and m.payload == (x,):
            return out
    if c != (expected := (_lit(x), t)):
        raise InvalidDerivationError(f"preservation concludes {c!r}, expected {expected!r}")
    return out


def preservation(d: Derivation, td: Derivation) -> Derivation:
    """Typing is preserved across evaluation, by induction on the evaluation."""
    for x in (validate(d), validate(td)):
        if not x:
            raise InvalidDerivationError(x.reason)
    e, v = d.root.conclusion
    e2, t = td.root.conclusion
    if e is not e2 and e != e2:
        raise WrongIndexError("evaluation and typing derivations disagree on the term")
    return _concludes(ifold(_preservation_step, (e, v), d)(td), v.vv, t)


def preservation_via_istrm(w: Derivation, td: Derivation) -> Derivation:
    """Same goal as :func:`preservation`, by induction on the lifted predicate."""
    for x in (validate(w), validate(td)):
        if not x:
            raise InvalidDerivationError(x.reason)
    e = w.root.conclusion
    e2, t = td.root.conclusion
    if e is not e2 and e != e2:
        raise WrongIndexError("lifting and typing derivations disagree on the term")
    return _concludes(ifold(_istrm_preservation_step, e, w)(td), eval_(e).vv, t)


# ---------------------------------------------------------------------------
# surface syntax: (lit n) and (add e e)


def parse_term(text: str) -> Term:
    return term_of_sexpr(sexpr.read(text))


def term_of_sexpr(expr) -> Term:
    match expr:
        case ["lit", int(x)]:
            return _lit(x)
        case ["add", a, b]:
            return _add(term_of_sexpr(a), term_of_sexpr(b))
    raise sexpr.SexprError(f"not an arithmetic term: {sexpr.write(expr)}")


def term_to_sexpr(t: Term):
    node = _trm_node(t)
    if node.ctor == LIT:
        return ["lit", node.payload[0]]
    a, b = node.rec
    return ["add", term_to_sexpr(a), term_to_sexpr(b)]


def print_term(t: Term) -> str:
    return sexpr.write(term_to_sexpr(t))


def print_val(v: Val) -> str:
    return sexpr.write(["val", v.vv])


def _index_encoder():
    """A fresh ``encode_index`` that builds each distinct subterm's text once.

    A term's text is composed from its children's texts, which are kept by
    ``id`` for the encoder's lifetime: the terms are reachable from the value
    being encoded, so none of them is freed, and no id reused, while it runs.
    Structural ``Term.__hash__`` is not cached, so it would cost more than
    the printing it saves.  The left child is printed before the right, so
    a term holding literals ``sexpr`` cannot print raises the error
    ``print_term`` would.
    """
    texts = {}

    def term_text(t: Term) -> str:
        text = texts.get(id(t))
        if text is None:
            node = _trm_node(t)
            if node.ctor == LIT:
                text = f"(lit {sexpr._write_atom(node.payload[0])})"
            else:
                a, b = node.rec
                text = f"(add {term_text(a)} {term_text(b)})"
            texts[id(t)] = text
        return text

    def encode(v):
        if isinstance(v, Term):
            return term_text(v)
        if isinstance(v, Val):
            return print_val(v)
        if isinstance(v, TypN):
            return "N"
        if isinstance(v, tuple):
            return [encode(x) for x in v]
        return v

    return encode


def encode_index(v):
    """JSON encoding for values occurring in arith derivation indices."""
    return _index_encoder()(v)


def derivation_json(d: Derivation) -> dict:
    return derivation_to_json(d, _index_encoder())
