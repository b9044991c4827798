"""The exact text of every node rejection, and what node construction accepts.

``Signature.node`` (and so ``CoproductSignature.node``) and
``BiSignature.node`` reject an unknown constructor, a wrong slot count and
an ill-kinded payload; ``in_`` and ``in_bi`` reject a child that is not a
term of the right signature or component.  The first failing slot, in
declaration order, is the one reported.
"""

import pytest

from alacarte import kernel
from alacarte.arith import ADD, LIT, TRM, TRM_G1, TRM_G2, add, lit
from alacarte.kernel import MalformedNodeError, Node, Signature, in_, register_payload_kind
from alacarte.lang_l import LANG, EMPTY_ENV, Ty, cn, env_, vr
from alacarte.mutual import BiSignature, in_bi

MIXED = Signature("mixed", {"p": ("int", "rec", "id"), "q": ()})
BIMIXED = BiSignature("bimixed", {"d": ("int", "rec2", "id"), "z": ()}, {"e": ("rec1",)})


def rejects(build, message):
    with pytest.raises(MalformedNodeError) as info:
        build()
    assert str(info.value) == message


def test_signature_node_rejections():
    rejects(lambda: TRM_G1.node("nope", (1,)), "trm_g1 has no constructor 'nope'")
    rejects(lambda: TRM_G1.node(LIT, (1,)), "trm_g1 has no constructor 'inl:lit'")
    rejects(lambda: TRM_G2.node("add", (lit(1),)), "trm_g2.add expects 2 slots, got 1")
    rejects(lambda: TRM_G2.node("add"), "trm_g2.add expects 2 slots, got 0")
    rejects(lambda: MIXED.node("q", (1,)), "mixed.q expects 0 slots, got 1")
    rejects(lambda: TRM_G1.node("lit", ("7",)), "trm_g1.lit: '7' is not a valid 'int' payload")
    rejects(lambda: TRM_G1.node("lit", (True,)), "trm_g1.lit: True is not a valid 'int' payload")
    rejects(lambda: MIXED.node("p", (1, None, "")), "mixed.p: '' is not a valid 'id' payload")
    # the first ill-kinded payload in declaration order is the one reported
    rejects(lambda: MIXED.node("p", (False, None, "")), "mixed.p: False is not a valid 'int' payload")


def test_coproduct_node_rejections():
    rejects(lambda: TRM.node("lit", (1,)), "(trm_g1+trm_g2) has no constructor 'lit'")
    rejects(lambda: TRM.node("inl:add", (1, 2)), "(trm_g1+trm_g2) has no constructor 'inl:add'")
    rejects(lambda: TRM.node(LIT, ()), "(trm_g1+trm_g2).inl:lit expects 1 slots, got 0")
    rejects(lambda: TRM.node(ADD, (1, 2, 3)), "(trm_g1+trm_g2).inr:add expects 2 slots, got 3")
    rejects(lambda: TRM.node(LIT, (True,)), "(trm_g1+trm_g2).inl:lit: True is not a valid 'int' payload")
    rejects(lambda: TRM.node(LIT, (1.0,)), "(trm_g1+trm_g2).inl:lit: 1.0 is not a valid 'int' payload")


def test_bisignature_node_rejections():
    rejects(lambda: LANG.node(1, "vr", ("x",)), "lang_l component 1 has no constructor 'vr'")
    rejects(lambda: LANG.node(2, "join", ()), "lang_l component 2 has no constructor 'join'")
    rejects(lambda: LANG.node(1, "nope", ()), "lang_l component 1 has no constructor 'nope'")
    rejects(lambda: LANG.node(2, "nope", ("x",)), "lang_l component 2 has no constructor 'nope'")
    rejects(lambda: BIMIXED.node(2, "d", (1, None, "x")), "bimixed component 2 has no constructor 'd'")
    rejects(lambda: BIMIXED.node(1, "e", (None,)), "bimixed component 1 has no constructor 'e'")
    rejects(lambda: LANG.node(0, "vr", ("x",)), "lang_l component 0 has no constructor 'vr'")
    rejects(lambda: LANG.node(-1, "env", (EMPTY_ENV,)), "lang_l component -1 has no constructor 'env'")
    rejects(lambda: LANG.node(3, "vr", ("x",)), "lang_l component 3 has no constructor 'vr'")
    rejects(lambda: LANG.node(2, "apply", (vr("x"),)), "lang_l.apply expects 2 slots, got 1")
    rejects(lambda: LANG.node(1, "env", ()), "lang_l.env expects 1 slots, got 0")
    rejects(lambda: LANG.node(2, "vr", ("",)), "lang_l.vr: '' is not a valid 'id' payload")
    rejects(lambda: LANG.node(2, "cn", ("c", "t")), "lang_l.cn: 't' is not a valid 'typ' payload")
    rejects(lambda: LANG.node(2, "cn", ("", "t")), "lang_l.cn: '' is not a valid 'id' payload")
    rejects(lambda: LANG.node(1, "env", ({},)), "lang_l.env: {} is not a valid 'envE' payload")
    rejects(lambda: BIMIXED.node(1, "d", (True, None, "x")), "bimixed.d: True is not a valid 'int' payload")
    rejects(lambda: BIMIXED.node(1, "d", (1, None, "")), "bimixed.d: '' is not a valid 'id' payload")


def test_in_rejects_children_of_another_signature():
    rejects(lambda: in_(TRM_G2.node("add", (5, 6))), "trm_g2.add: recursive slot 5 is not a term of this signature")
    inner = in_(TRM_G1.node("lit", (1,)))
    rejects(
        lambda: in_(TRM_G2.node("add", (inner, 6))),
        "trm_g2.add: recursive slot Term(sig=<Signature trm_g1>, root=Node(sig=<Signature trm_g1>, "
        "ctor='lit', rec=(), payload=(1,))) is not a term of this signature",
    )
    rejects(
        lambda: in_(TRM.node(ADD, (lit(1), inner))),
        "(trm_g1+trm_g2).inr:add: recursive slot Term(sig=<Signature trm_g1>, root=Node(sig=<Signature "
        "trm_g1>, ctor='lit', rec=(), payload=(1,))) is not a term of this signature",
    )
    rejects(lambda: in_(MIXED.node("p", (1, None, "x"))), "mixed.p: recursive slot None is not a term of this signature")


def test_in_bi_rejects_children_of_another_component_or_signature():
    d = env_(EMPTY_ENV)
    rejects(
        lambda: in_bi(LANG.node(1, "join", (d, vr("x")))),
        "lang_l.join: slot Term(sig=<BiSignature lang_l>, root=Node(sig=<BiSignature lang_l>, ctor='vr', "
        "rec=(), payload=('x',))) is not a component-1 term",
    )
    rejects(lambda: in_bi(LANG.node(2, "apply", (5, vr("x")))), "lang_l.apply: slot 5 is not a component-2 term")
    rejects(lambda: in_bi(LANG.node(2, "apply", (vr("x"), d))), "lang_l.apply: slot " + repr(d) + " is not a component-2 term")
    # rec1 slots are checked before rec2 slots
    rejects(lambda: in_bi(LANG.node(2, "scope", (1, 2))), "lang_l.scope: slot 1 is not a component-1 term")
    rejects(lambda: in_bi(LANG.node(2, "scope", (d, 2))), "lang_l.scope: slot 2 is not a component-2 term")
    # a term of the right component but another signature
    foreign = in_bi(BIMIXED.node(2, "e", (in_bi(BIMIXED.node(1, "z")),)))
    assert foreign.component == 2
    rejects(
        lambda: in_bi(LANG.node(2, "apply", (foreign, vr("x")))),
        "lang_l.apply: slot Term(sig=<BiSignature bimixed>, root=Node(sig=<BiSignature bimixed>, ctor='e', "
        "rec=(Term(sig=<BiSignature bimixed>, root=Node(sig=<BiSignature bimixed>, ctor='z', rec=(), "
        "payload=())),), payload=())) is not a component-2 term",
    )
    rejects(
        lambda: in_bi(BIMIXED.node(2, "e", (d,))),
        "bimixed.e: slot " + repr(d) + " is not a component-1 term",
    )
    # a hand-built node its constructor does not fit is checked slot by slot
    misfit = Node(LANG, "apply", (vr("x"), vr("y"), 5), ())
    rejects(lambda: in_bi(misfit), "lang_l.apply: recursive slot 5 is not a term of this signature")
    misfit = Node(TRM, ADD, (lit(1), lit(2), 5), ())
    rejects(lambda: in_(misfit), "(trm_g1+trm_g2).inr:add: recursive slot 5 is not a term of this signature")


def test_generator_slots_are_accepted():
    a, b = lit(1), lit(2)
    assert TRM_G2.node("add", (x for x in (a, b))) == TRM_G2.node("add", (a, b))
    assert TRM.node(ADD, iter([a, b])) == TRM.node(ADD, [a, b]) == TRM.node(ADD, (a, b))
    assert in_(TRM.node(ADD, (x for x in (a, b)))) == add(a, b)
    assert MIXED.node("p", iter([1, None, "x"])) == MIXED.node("p", (1, None, "x"))
    assert MIXED.node("p", [1, None, "x"]).rec == (None,)
    assert MIXED.node("p", [1, None, "x"]).payload == (1, "x")
    assert LANG.node(2, "cn", (x for x in ("c", Ty("a")))) == cn("c", Ty("a")).root
    assert LANG.node(2, "apply", iter([vr("f"), vr("x")])) == LANG.node(2, "apply", (vr("f"), vr("x")))
    node = BIMIXED.node(1, "d", iter([1, None, "x"]))
    assert (node.rec1, node.rec2, node.payload) == ((), (None,), (1, "x"))
    rejects(lambda: TRM_G2.node("add", (x for x in (a,))), "trm_g2.add expects 2 slots, got 1")
    rejects(lambda: LANG.node(2, "vr", iter(["x", "y"])), "lang_l.vr expects 1 slots, got 2")


def test_a_payload_kind_re_registered_after_its_signature_is_still_used():
    register_payload_kind("probe", lambda v: v == 1)
    try:
        sig = Signature("probed", {"p": ("probe",)})
        bisig = BiSignature("biprobed", {"p": ("probe",)}, {})
        assert sig.node("p", (1,)).payload == (1,)
        assert bisig.node(1, "p", (1,)).payload == (1,)
        register_payload_kind("probe", lambda v: v == 2)
        rejects(lambda: sig.node("p", (1,)), "probed.p: 1 is not a valid 'probe' payload")
        rejects(lambda: bisig.node(1, "p", (1,)), "biprobed.p: 1 is not a valid 'probe' payload")
        assert sig.node("p", (2,)).payload == (2,)
        assert bisig.node(1, "p", (2,)).payload == (2,)
    finally:
        kernel._PAYLOAD_KINDS.pop("probe", None)


TWO_SORTS = Signature("two", {"a": ("rec1",)}, {"b": ("rec2", "int")})


@pytest.mark.parametrize(
    "left, right, named",
    [
        (LANG, TRM_G1, "lang_l"),
        (TRM_G1, LANG, "lang_l"),
        (TWO_SORTS, TRM_G1, "two"),
        (TRM_G2, TWO_SORTS, "two"),
        (LANG, TWO_SORTS, "lang_l"),
    ],
)
def test_a_coproduct_refuses_a_summand_of_many_sorts(left, right, named):
    with pytest.raises(ValueError) as info:
        kernel.coproduct(left, right)
    assert str(info.value) == f"coproduct summand {named} has 2 sorts; only one-sort signatures can be summands"


def test_a_coproduct_of_a_coproduct_is_still_a_one_sort_coproduct():
    nested = kernel.coproduct(TRM, MIXED)
    assert nested.name == "((trm_g1+trm_g2)+mixed)"
    assert list(nested.ctors) == ["inl:inl:lit", "inl:inr:add", "inr:p", "inr:q"]
