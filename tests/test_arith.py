"""Evaluation, relations, and the two preservation routes."""

import random

import pytest

from alacarte import testkit
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
