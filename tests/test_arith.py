"""Evaluation, relations, and the two preservation routes."""

import random
import re

import pytest

from alacarte import arith, testkit
from alacarte.arith import (
    EVAL_SIG,
    N,
    Val,
    add,
    build_eval_derivation,
    build_istrm,
    build_typof_derivation,
    eval_,
    eval_of_derivation,
    lit,
    parse_term,
    preservation,
    preservation_via_istrm,
    print_term,
    print_val,
)
from alacarte.indexed import (
    DNode,
    Derivation,
    InvalidDerivationError,
    WrongIndexError,
    validate,
)
from alacarte.kernel import Signature, coproduct


def enum_terms(depth=4):
    return list(testkit.enumerate_terms(testkit.arith_enum(depth)))


# ---------------------------------------------------------------------------
# eval


def test_eval_lit():
    assert eval_(lit(3)) == Val(3)


def test_eval_add():
    assert eval_(add(lit(2), lit(3))) == Val(5)


def test_eval_nested():
    assert eval_(add(add(lit(1), lit(1)), lit(2))) == Val(4)


def test_eval_equals_oracle_on_enumeration():
    for t in enum_terms(4):
        assert eval_(t) == testkit.oracle_eval(t)


# ---------------------------------------------------------------------------
# Eval derivations


def test_build_eval_derivation_lit():
    d = build_eval_derivation(lit(3))
    assert d.root.rule == "ev1"
    assert d.root.conclusion == (lit(3), Val(3))


def test_build_eval_derivation_add():
    d = build_eval_derivation(add(lit(1), lit(2)))
    assert d.root.rule == "ev2"
    assert [w.root.rule for _, _, w in d.root.premises] == ["ev1", "ev1"]
    assert validate(d)


def test_build_eval_derivation_sweep():
    for t in enum_terms(4):
        d = build_eval_derivation(t)
        assert validate(d)
        assert d.root.conclusion == (t, eval_(t))


# ---------------------------------------------------------------------------
# agreement


def test_agreement_ev1():
    assert eval_of_derivation(build_eval_derivation(lit(5))).ok


def test_agreement_built_ev2():
    assert eval_of_derivation(build_eval_derivation(add(lit(1), lit(2)))).ok


def test_forged_ev2_rejected_by_validate():
    d1, d2 = build_eval_derivation(lit(1)), build_eval_derivation(lit(2))
    forged = Derivation(
        EVAL_SIG,
        EVAL_SIG.dnode(
            "ev2",
            {"e1": lit(1), "e2": lit(2), "x1": Val(1), "x2": Val(2), "v": Val(9)},
            (d1, d2),
        ),
    )
    with pytest.raises(InvalidDerivationError):
        eval_of_derivation(forged)


def test_every_validating_eval_derivation_agrees():
    for t in enum_terms(3):
        assert eval_of_derivation(build_eval_derivation(t)).ok


# ---------------------------------------------------------------------------
# TypOf and IsTrm


def test_typof_lit():
    d = build_typof_derivation(lit(0))
    assert d.root.rule == "tof1"
    assert d.root.conclusion == (lit(0), N)


def test_typof_add():
    d = build_typof_derivation(add(lit(1), lit(2)))
    assert d.root.rule == "tof2"
    assert [w.root.rule for _, _, w in d.root.premises] == ["tof1", "tof1"]
    assert validate(d)


def test_typof_sweep():
    for t in enum_terms(4):
        d = build_typof_derivation(t)
        assert validate(d)
        assert d.root.conclusion == (t, N)


def test_istrm_lit():
    d = build_istrm(lit(1))
    assert d.root.rule == "isLit"
    assert d.root.conclusion == lit(1)


def test_istrm_add():
    d = build_istrm(add(lit(1), lit(2)))
    assert d.root.rule == "isAdd"
    assert len(d.root.premises) == 2


def test_istrm_sweep():
    for t in enum_terms(4):
        assert validate(build_istrm(t))


def _foreign_terms():
    """Terms of a three-fragment coproduct over ``TRM``, and a literal of another coproduct of its summands."""
    t3 = coproduct(arith.TRM, Signature("trm_g3", {"neg": ("rec",)}))
    lit3, add3, neg3 = (t3.constructor(c) for c in ("inl:inl:lit", "inl:inr:add", "inr:neg"))
    other = coproduct(arith.TRM_G1, arith.TRM_G2)  # the same tagged names, another signature
    return [
        (lit3(5), "'inl:inl:lit' of ((trm_g1+trm_g2)+trm_g3)"),
        (add3(lit3(1), lit3(2)), "'inl:inr:add' of ((trm_g1+trm_g2)+trm_g3)"),
        (neg3(lit3(5)), "'inr:neg' of ((trm_g1+trm_g2)+trm_g3)"),
        (other.constructor("inl:lit")(3), "'inl:lit' of (trm_g1+trm_g2)"),
    ]


@pytest.mark.parametrize("t, what", _foreign_terms())
def test_the_builders_reject_a_term_that_is_no_literal_or_addition_of_trm(t, what):
    # neither a bare unpacking error nor, for a literal of another coproduct, a derivation of ``TRM``'s literal
    for build, rel in ((build_eval_derivation, "Eval"), (build_typof_derivation, "TypOf"), (build_istrm, "IsTrm")):
        with pytest.raises(TypeError, match=f"^{re.escape(f'{rel} has no rule for {what}')}$"):
            build(t)


@pytest.mark.parametrize("t, what", _foreign_terms())
def test_the_printers_and_lit_value_reject_a_node_of_another_signature(t, what):
    # neither a bare unpacking error nor, for a literal of another coproduct, ``TRM``'s ``(lit 3)`` or its payload
    for read in (arith.print_term, arith.encode_index, arith.lit_value):
        with pytest.raises(TypeError, match=f"^{re.escape(f'{what} is not a node of arith.TRM')}$"):
            read(t)


# ---------------------------------------------------------------------------
# preservation


def test_preservation_axiom_case():
    e = lit(3)
    out = preservation(build_eval_derivation(e), build_typof_derivation(e))
    assert out.root.rule == "tof1"
    assert out.root.conclusion == (lit(3), N)
    assert validate(out)


def test_preservation_add_case():
    e = add(lit(1), lit(2))
    out = preservation(build_eval_derivation(e), build_typof_derivation(e))
    assert out.root.conclusion == (lit(3), N)
    assert validate(out)


def test_preservation_sweep():
    for t in enum_terms(3):
        out = preservation(build_eval_derivation(t), build_typof_derivation(t))
        assert validate(out)
        assert out.root.conclusion == (lit(eval_(t).vv), N)


def test_preservation_index_mismatch():
    with pytest.raises(WrongIndexError):
        preservation(build_eval_derivation(lit(1)), build_typof_derivation(lit(2)))


def test_preservation_via_istrm_mirrors():
    for e in (lit(3), add(lit(1), lit(2)), add(add(lit(-1), lit(2)), lit(0))):
        td = build_typof_derivation(e)
        a = preservation(build_eval_derivation(e), td)
        b = preservation_via_istrm(build_istrm(e), td)
        assert a.root.conclusion == b.root.conclusion
        assert validate(b)


def test_preservation_routes_coincide_sweep():
    for t in enum_terms(3):
        td = build_typof_derivation(t)
        a = preservation(build_eval_derivation(t), td)
        b = preservation_via_istrm(build_istrm(t), td)
        assert a.root.conclusion == b.root.conclusion


def _unstamped(d: Derivation) -> Derivation:
    """A hand-built copy of ``d``: no stamp, no certificate, so checked in full."""
    n = d.root
    premises = tuple((fam, ix, _unstamped(w)) for fam, ix, w in n.premises)
    return Derivation(d.sig, DNode(n.sig, n.family, n.rule, n.params, premises, n.conclusion))


def test_preservation_of_a_literal_returns_its_typing_derivation():
    for x in (-3, 0, 7):
        e, td = lit(x), build_typof_derivation(lit(x))
        for out in (
            preservation(build_eval_derivation(e), td),
            preservation_via_istrm(build_istrm(e), td),
        ):
            assert out == build_typof_derivation(e) and out._certified
            assert out is td  # the typing leaf it was handed, not a rebuilt one


def test_preservation_results_validate_node_by_node_sweep():
    for t in enum_terms(3):
        td = build_typof_derivation(t)
        for out in (
            preservation(build_eval_derivation(t), td),
            preservation_via_istrm(build_istrm(t), td),
        ):
            assert out == build_typof_derivation(lit(eval_(t).vv))
            assert validate(_unstamped(out))


# ---------------------------------------------------------------------------
# surface syntax


def test_parse_print_roundtrip():
    for t in enum_terms(3):
        assert parse_term(print_term(t)) == t


def test_print_val():
    assert print_val(Val(5)) == "(val 5)"


def test_parse_rejects_garbage():
    from alacarte.sexpr import SexprError

    with pytest.raises(SexprError):
        parse_term("(mul (lit 1) (lit 2))")


def test_evaluation_route_checks_premise_transformers_against_premise_values():
    from alacarte import arith
    from alacarte.indexed import DNode, ifold

    # a hand-built (never validated) ev2 whose left premise claims the value 5
    # for (lit 1): the child link holds, but the transformed literal is 1
    left = DNode(EVAL_SIG, 1, "ev1", (("x", 1),), (), (lit(1), Val(5)))
    right = build_eval_derivation(lit(2))
    params = {"e1": lit(1), "e2": lit(2), "x1": Val(5), "x2": Val(2), "v": Val(7)}
    node = DNode(
        EVAL_SIG,
        1,
        "ev2",
        tuple(params.items()),
        ((1, (lit(1), Val(5)), Derivation(EVAL_SIG, left)), (1, (lit(2), Val(2)), right)),
        (add(lit(1), lit(2)), Val(7)),
    )
    typd = build_typof_derivation(add(lit(1), lit(2)))
    run = ifold(arith._preservation_step, node.conclusion, Derivation(EVAL_SIG, node))
    with pytest.raises(InvalidDerivationError) as exc:
        run(typd)
    assert str(exc.value) == "premise transformers disagreed with indices"
    # the lifted-term route carries no values, so it has nothing to disagree with
    out = preservation_via_istrm(build_istrm(add(lit(1), lit(2))), typd)
    assert out.root.conclusion == (lit(3), N)


def _counting_node(monkeypatch):
    """Count the calls of ``Signature.node`` from here on."""
    from alacarte import kernel

    calls = []
    node = kernel.Signature.node

    def counted(self, ctor, slots=()):
        calls.append(ctor)
        return node(self, ctor, slots)

    monkeypatch.setattr(kernel.Signature, "node", counted)
    return calls


def test_rule_conclusions_and_preservation_build_no_node(monkeypatch):
    rng = random.Random(20)
    t = lit(rng.randint(-9, 9))
    for _ in range(19):
        leaf = lit(rng.randint(-9, 9))
        t = add(t, leaf) if rng.random() < 0.5 else add(leaf, t)
    calls = _counting_node(monkeypatch)
    evald, typd, istrm = build_eval_derivation(t), build_typof_derivation(t), build_istrm(t)
    out, alt = preservation(evald, typd), preservation_via_istrm(istrm, typd)
    assert calls == []
    assert out.root.conclusion == alt.root.conclusion == (lit(eval_(t).vv), N)
    assert evald.root.conclusion == (t, eval_(t)) and istrm.root.conclusion == t


def test_the_public_term_builders_still_go_through_node(monkeypatch):
    calls = _counting_node(monkeypatch)
    t = add(lit(4), lit(5))
    assert calls == ["lit", "lit", "add"]
    assert t == parse_term("(add (lit 4) (lit 5))")


@pytest.mark.parametrize(
    "relation, rule_name, params, public, message",
    [
        ("eval", "ev1", {"x": "7"}, lambda: lit("7"), "trm_g1.lit: '7' is not a valid 'int' payload"),
        ("typof", "tof1", {"v": Val(True)}, lambda: lit(True), "trm_g1.lit: True is not a valid 'int' payload"),
        ("istrm", "isLit", {"x": 1.5}, lambda: lit(1.5), "trm_g1.lit: 1.5 is not a valid 'int' payload"),
        (
            "istrm",
            "isAdd",
            {"e1": lit(1), "e2": 2},
            lambda: add(lit(1), 2),
            "(trm_g1+trm_g2).inr:add: recursive slot 2 is not a term of this signature",
        ),
        (
            "typof",
            "tof2",
            {"e1": Val(1), "e2": lit(2)},
            lambda: add(Val(1), lit(2)),
            "(trm_g1+trm_g2).inr:add: recursive slot Val(vv=1) is not a term of this signature",
        ),
    ],
)
def test_rule_conclusions_reject_as_the_public_builders_do(relation, rule_name, params, public, message):
    from alacarte import arith
    from alacarte.kernel import MalformedNodeError

    sig = {"eval": EVAL_SIG, "typof": arith.TYPOF_SIG, "istrm": arith.ISTRM_SIG}[relation]
    witnesses = (None,) * len(sig.rules[rule_name].premises)
    for build in (lambda: sig.dnode(rule_name, params, witnesses), public):
        with pytest.raises(MalformedNodeError) as got:
            build()
        assert str(got.value) == message


def _hand_built_ev2(x1):
    """A never-validated ``ev2`` over ``(lit 1)`` and ``(lit 2)`` whose left premise index is ``x1``."""
    from alacarte.indexed import DNode

    left = DNode(EVAL_SIG, 1, "ev1", (("x", 1),), (), (lit(1), x1))
    right = build_eval_derivation(lit(2))
    params = {"e1": lit(1), "e2": lit(2), "x1": x1, "x2": Val(2), "v": Val(3)}
    node = DNode(
        EVAL_SIG,
        1,
        "ev2",
        tuple(params.items()),
        ((1, (lit(1), x1), Derivation(EVAL_SIG, left)), (1, (lit(2), Val(2)), right)),
        (add(lit(1), lit(2)), Val(3)),
    )
    return Derivation(EVAL_SIG, node)


class _EqualToEveryVal:
    """An index whose ``__eq__`` claims equality with any ``Val``, so ``Val.__eq__`` defers to it."""

    vv = 1

    def __eq__(self, other):
        return isinstance(other, Val) or other is self

    __hash__ = object.__hash__


@pytest.mark.parametrize("x1", [1, _EqualToEveryVal()], ids=["int", "equal-to-every-Val"])
def test_only_a_val_index_of_the_transformed_value_agrees(x1):
    from alacarte import arith
    from alacarte.indexed import ifold

    d = _hand_built_ev2(x1)
    typd = build_typof_derivation(add(lit(1), lit(2)))
    with pytest.raises(InvalidDerivationError) as exc:
        ifold(arith._preservation_step, d.root.conclusion, d)(typd)
    assert str(exc.value) == "premise transformers disagreed with indices"
    assert ifold(arith._preservation_step, d.root.conclusion, _hand_built_ev2(Val(1)))(typd).root.conclusion == (
        lit(3),
        N,
    )


def test_an_index_equal_to_every_val_validates_but_does_not_preserve():
    from alacarte.indexed import din

    e1, e2 = lit(1), lit(2)
    params = {"e1": e1, "e2": e2, "x1": _EqualToEveryVal(), "x2": Val(2), "v": Val(3)}
    d = din(EVAL_SIG.dnode("ev2", params, (build_eval_derivation(e1), build_eval_derivation(e2))))
    assert validate(d)
    with pytest.raises(InvalidDerivationError) as exc:
        preservation(d, build_typof_derivation(add(e1, e2)))
    assert str(exc.value) == "premise transformers disagreed with indices"


# ---------------------------------------------------------------------------
# the text of terms and derivations against the printers they replaced


def reference_encode_index(v):
    """The spec: every term printed from scratch with ``print_term``."""
    from alacarte.kernel import Term
    from alacarte.arith import TypN

    if isinstance(v, Term):
        return print_term(v)
    if isinstance(v, Val):
        return print_val(v)
    if isinstance(v, TypN):
        return "N"
    if isinstance(v, tuple):
        return [reference_encode_index(x) for x in v]
    return v


def reference_derivation_json(d):
    from alacarte.indexed import derivation_to_json

    return derivation_to_json(d, reference_encode_index)


def reference_term_of_sexpr(expr):
    """The spec: literals and additions built through the public ``lit``/``add``."""
    from alacarte.sexpr import SexprError, write

    match expr:
        case ["lit", int(x)]:
            return lit(x)
        case ["add", a, b]:
            return add(reference_term_of_sexpr(a), reference_term_of_sexpr(b))
    raise SexprError(f"not an arithmetic term: {write(expr)}")


def test_derivation_json_equals_the_reprinting_encoder_on_every_depth3_derivation():
    from alacarte.arith import derivation_json

    for t in testkit.enumerate_terms(testkit.arith_enum(3, testkit.ARITH_POOL_FULL)):
        for d in (build_eval_derivation(t), build_typof_derivation(t), build_istrm(t)):
            assert derivation_json(d) == reference_derivation_json(d)


def test_derivation_json_equals_the_reprinting_encoder_on_shared_subterms_and_preserve_output():
    from alacarte.arith import derivation_json, encode_index

    s = add(lit(3), add(lit(-4), lit(5)))
    t = add(add(s, s), s)  # one subterm object in several places
    d = build_eval_derivation(t)
    assert derivation_json(d) == reference_derivation_json(d)
    out = preservation(d, build_typof_derivation(t))
    assert derivation_json(out) == reference_derivation_json(out)
    assert derivation_json(build_istrm(t)) == reference_derivation_json(build_istrm(t))
    value = (t, s, (Val(4), N), "x", 7)
    assert encode_index(value) == reference_encode_index(value)


def _raised(f, *args):
    try:
        f(*args)
    except Exception as e:  # the exception itself is what is compared
        return type(e), str(e)
    return None


def test_derivation_json_raises_what_the_reprinting_encoder_raises_first():
    import sys

    from alacarte.arith import TRM, LIT, derivation_json, encode_index
    from alacarte.kernel import Node, Term

    if sys.get_int_max_str_digits() == 0:
        pytest.skip("integer digit limit is off")
    boolean = Term(TRM, Node(TRM, LIT, (), (True,)))  # hand-built: the payload check is skipped
    huge = lit(10 ** (sys.get_int_max_str_digits() + 1))
    for t in (add(boolean, huge), add(huge, boolean), add(add(lit(1), boolean), add(huge, lit(2)))):
        got = _raised(encode_index, (lit(1), t))
        assert got is not None and got == _raised(reference_encode_index, (lit(1), t))
    d = build_istrm(add(lit(1), add(huge, lit(2))))
    got = _raised(derivation_json, d)
    assert got is not None and got == _raised(reference_derivation_json, d)


def test_parse_term_equals_parsing_through_the_public_builders():
    from alacarte import sexpr

    texts = [print_term(t) for t in enum_terms(3)] + [
        "(lit)",
        "(lit a)",
        "(lit 1 2)",
        "(add (lit 1))",
        "(add (lit 1) (lit x))",
        "(add (mul (lit 1) (lit 2)) (lit))",
        "(mul (lit 1) (lit 2))",
        "lit",
        "5",
        "((lit 1))",
        "(add (lit 1) (lit 2)",
        "",
    ]
    for text in texts:
        want = _raised(lambda: reference_term_of_sexpr(sexpr.read(text)))
        assert _raised(parse_term, text) == want
        if want is None:
            assert parse_term(text) == reference_term_of_sexpr(sexpr.read(text))


def _left_nested(depth):
    t = lit(0)
    for i in range(depth):
        t = add(t, lit(i))
    return t


def test_term_and_derivation_text_at_depth_320():
    from alacarte.arith import derivation_json

    t = _left_nested(320)
    text = print_term(t)
    assert text.startswith("(add " * 320 + "(lit 0) (lit 0))")
    js = derivation_json(build_eval_derivation(t))
    assert js["index"] == [text, print_val(eval_(t))]


# ---------------------------------------------------------------------------
# the preservation cases are tables over the rules, and the postconditions are raises


@pytest.mark.parametrize("sig_name", ["Eval", "IsTrm"])
def test_a_node_whose_rule_has_no_preservation_case_is_not_folded_as_an_addition(sig_name):
    from alacarte import arith
    from alacarte.indexed import ifold

    e = add(lit(1), lit(2))
    if sig_name == "Eval":
        sig, step, w = EVAL_SIG, arith._preservation_step, (e, Val(3))
    else:
        sig, step, w = arith.ISTRM_SIG, arith._istrm_preservation_step, e
    d = build_eval_derivation(e) if sig is EVAL_SIG else build_istrm(e)
    bogus = Derivation(sig, DNode(sig, 1, "bogus", d.root.params, d.root.premises, w))
    with pytest.raises(InvalidDerivationError) as exc:
        ifold(step, w, bogus)(build_typof_derivation(e))
    assert str(exc.value) == f"{sig_name} has no case for rule 'bogus'"


@pytest.mark.parametrize("route", ["evaluation", "istrm"])
def test_a_preservation_result_with_the_wrong_conclusion_is_raised_not_asserted(monkeypatch, route):
    from alacarte import arith

    wrong = lambda rec, w, node: lambda td: arith.TYPOF_SIG.derive("tof1", {"v": Val(99)})
    e = add(lit(1), lit(2))
    td = build_typof_derivation(e)
    if route == "evaluation":
        monkeypatch.setattr(arith, "_preservation_step", wrong)
        call = lambda: preservation(build_eval_derivation(e), td)
    else:
        monkeypatch.setattr(arith, "_istrm_preservation_step", wrong)
        call = lambda: preservation_via_istrm(build_istrm(e), td)
    with pytest.raises(InvalidDerivationError) as exc:
        call()
    assert str(exc.value) == f"preservation concludes {(lit(99), N)!r}, expected {(lit(3), N)!r}"
