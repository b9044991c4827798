"""Kernel laws and operations, checked on the arithmetic signature."""

import re

import pytest

from alacarte import arith, kernel, testkit
from alacarte.arith import ADD, LIT, TRM, TRM_G1, TRM_G2, Val, add, lit
from alacarte.kernel import (
    ForeignHandleError,
    MalformedNodeError,
    Signature,
    UnsupportedCarrierError,
    case,
    check_uniqueness,
    coproduct,
    fmap,
    fold_c,
    ft_fold,
    ft_in,
    ft_out,
    in_,
    inject_left,
    inject_right,
    lift,
    mfold,
    out_,
    pre_in,
    project,
    project_left,
    project_right,
    reflect,
    reify,
    step_once,
    term_from_json,
    term_to_json,
)


def small_terms(depth=3, pool=(-1, 0, 1)):
    return list(testkit.enumerate_terms(testkit.arith_enum(depth, pool)))


# ---------------------------------------------------------------------------
# fmap


def test_fmap_identity_on_depth1_nodes():
    nodes = [TRM.node(LIT, (x,)) for x in range(-2, 3)]
    nodes += [TRM.node(ADD, (a, b)) for a in range(-2, 3) for b in range(-2, 3)]
    for n in nodes:
        assert fmap(lambda x: x, n) == n


def test_fmap_composition_instance():
    n = TRM.node(ADD, (1, 2))
    f = lambda x: x + 10
    g = lambda x: x * 3
    assert fmap(lambda x: g(f(x)), n) == fmap(g, fmap(f, n))


def test_fmap_negate_slotwise():
    n = TRM.node(ADD, (2, 3))
    assert fmap(lambda x: -x, n) == TRM.node(ADD, (-2, -3))


def test_fmap_leaves_payload_alone():
    n = TRM.node(LIT, (3,))
    assert fmap(lambda x: x + 1, n) == n


def test_fmap_returns_a_leaf_itself():
    n = TRM.node(LIT, (3,))
    assert fmap(lambda x: x + 1, n) is n


# ---------------------------------------------------------------------------
# in_ / out_


def test_in_wraps_node():
    n = TRM.node(LIT, (3,))
    assert in_(n) == kernel.Term(TRM, n)
    assert out_(in_(n)) == n


def test_out_in_laws_on_enumeration():
    for t in small_terms(4):
        assert in_(out_(t)) == t
        assert out_(in_(out_(t))) == out_(t)


def test_in_rejects_non_term_slots():
    with pytest.raises(MalformedNodeError):
        in_(TRM.node(ADD, (lit(1), 5)))


def test_node_validates_slot_count_and_payload():
    with pytest.raises(MalformedNodeError):
        TRM.node(LIT, ())
    with pytest.raises(MalformedNodeError):
        TRM.node(LIT, ("three",))
    with pytest.raises(MalformedNodeError):
        TRM.node("mul", (lit(1), lit(2)))


# ---------------------------------------------------------------------------
# fold_c


def test_fold_eval_lit():
    assert fold_c(arith.eval_g, lit(3)) == Val(3)


def test_fold_eval_add():
    assert fold_c(arith.eval_g, add(lit(2), lit(3))) == Val(5)


def test_fold_computation_rule():
    for t in small_terms(3):
        n = out_(t)
        lhs = fold_c(arith.eval_g, in_(n))
        rhs = arith.eval_g(fmap(lambda c: fold_c(arith.eval_g, c), n))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# mfold / lift


def test_mfold_lifted_eval():
    assert mfold(lift(arith.eval_g), add(lit(2), lit(3))) == Val(5)


def test_mfold_computation_rule_no_rec_slots():
    lifted = lift(arith.eval_g)
    n = out_(lit(7))
    assert mfold(lifted, in_(n)) == step_once(lifted, n, lambda s: mfold(lifted, s))


def test_mfold_matches_oracle_on_enumeration():
    lifted = lift(arith.eval_g)
    for t in small_terms(4):
        assert mfold(lifted, t) == testkit.oracle_eval(t)


def test_lift_coherence_on_enumeration():
    lifted = lift(arith.eval_g)
    for t in small_terms(4):
        assert mfold(lifted, t) == fold_c(arith.eval_g, t)


def test_lift_on_lit_zero():
    assert mfold(lift(arith.eval_g), lit(0)) == Val(0)


def test_lift_hands_a_leaf_to_the_algebra_as_it_is():
    seen = []
    t = lit(3)
    assert mfold(lift(lambda n: seen.append(n) or 3), t) == 3
    assert len(seen) == 1 and seen[0] is out_(t)


def test_lift_identity_rebuild():
    rebuild = lift(in_)
    for t in small_terms(3):
        assert mfold(rebuild, t) == t


def test_handle_opacity_cross_fold_use():
    smuggled = []

    def thief(rec, node):
        if node.ctor == LIT:
            return Val(node.payload[0])
        smuggled.append(node.rec[0])
        return Val(0)

    t = add(lit(1), lit(2))
    mfold(thief, t)
    stolen = smuggled[0]

    def reuser(rec, node):
        return rec(stolen)

    with pytest.raises(ForeignHandleError):
        mfold(reuser, t)


# ---------------------------------------------------------------------------
# pre_in


def test_pre_in_identity_is_in():
    n = TRM.node(LIT, (3,))
    assert pre_in(lambda x: x, n) == in_(n)


def test_pre_in_unfolds_to_in_fmap():
    c1, c2 = "left", "right"
    table = {"left": lit(1), "right": lit(2)}
    n = TRM.node(ADD, (c1, c2))
    assert pre_in(table.__getitem__, n) == in_(TRM.node(ADD, (lit(1), lit(2))))


def test_pre_in_constant():
    n = TRM.node(ADD, (lit(4), lit(5)))
    assert pre_in(lambda _: lit(0), n) == add(lit(0), lit(0))


# ---------------------------------------------------------------------------
# uniqueness


def test_uniqueness_reflexive():
    lifted = lift(arith.eval_g)
    samples = small_terms(3)
    verdict = check_uniqueness(lifted, lambda t: mfold(lifted, t), samples)
    assert verdict.ok and verdict.kind == "ok"


def test_uniqueness_oracle():
    verdict = check_uniqueness(lift(arith.eval_g), testkit.oracle_eval, small_terms(4))
    assert verdict.ok


def test_uniqueness_constant_breaks_hypothesis():
    samples = [lit(0), lit(1), add(lit(0), lit(1))]
    verdict = check_uniqueness(lift(arith.eval_g), lambda t: Val(0), samples)
    assert not verdict.ok
    assert verdict.kind == "hypothesis-violation"


def test_uniqueness_rejects_noneq_carrier():
    malg = lambda rec, node: (lambda: None)
    with pytest.raises(UnsupportedCarrierError):
        check_uniqueness(malg, lambda t: (lambda: None), [lit(0)])


# ---------------------------------------------------------------------------
# coproducts


def test_inject_project_left():
    n = TRM_G1.node("lit", (3,))
    assert project(TRM, inject_left(TRM, n)) == ("left", n)
    assert project_left(TRM, inject_left(TRM, n)) == n


def test_project_as_left_of_right_is_none():
    n = TRM_G2.node("add", (lit(1), lit(2)))
    assert project_left(TRM, inject_right(TRM, n)) is None


def test_composed_algebra_dispatches_per_summand():
    # the coproduct algebra delegates to the summand algebras
    left = TRM.node(LIT, (4,))
    right = TRM.node(ADD, (Val(1), Val(2)))
    assert arith.eval_g(left) == arith.eval_g1(project_left(TRM, left))
    assert arith.eval_g(right) == arith.eval_g2(project_right(TRM, right))
    assert arith.eval_g.__name__ == "eval_g"


def _projection_copair(csig, left_alg, right_alg):
    """The copairing by trial projection: the specification ``case`` is checked against."""

    def alg(n):
        inner = project_left(csig, n)
        if inner is not None:
            return left_alg(inner)
        return right_alg(project_right(csig, n))

    return alg


def test_case_equals_the_projection_copairing_on_every_node():
    by_case = case(TRM, arith.eval_g1, arith.eval_g2)
    by_projection = _projection_copair(TRM, arith.eval_g1, arith.eval_g2)
    terms = small_terms(3)
    assert len(terms) == 147  # closed under subterms: every node of every term is some root
    for t in terms:
        n = fmap(testkit.oracle_eval, out_(t))  # Val children
        assert by_case(n) == by_projection(n) == arith.eval_g(n)


def test_case_gives_each_side_its_own_node_under_shared_ctor_names():
    a = Signature("a", {"mk": ("int",)})
    b = Signature("b", {"mk": ("int",)})
    for c, right in ((coproduct(a, b), b), (coproduct(a, a), a)):
        alg = case(c, lambda n: ("left", n), lambda n: ("right", n))
        assert alg(inject_left(c, a.node("mk", (1,)))) == ("left", a.node("mk", (1,)))
        assert alg(inject_right(c, right.node("mk", (2,)))) == ("right", right.node("mk", (2,)))
        assert alg(inject_right(c, right.node("mk", (2,))))[1].sig is right


def test_nested_coproducts_dispatch_through_two_cases():
    num = Signature("num", {"lit": ("int",)})
    plus = Signature("plus", {"add": ("rec", "rec")})
    times = Signature("times", {"mul": ("rec", "rec")})
    inner = coproduct(num, plus)
    outer = coproduct(inner, times)
    evaluate = case(
        outer,
        case(inner, lambda n: n.payload[0], lambda n: n.rec[0] + n.rec[1]),
        lambda n: n.rec[0] * n.rec[1],
    )
    num_ = lambda x: in_(inject_left(outer, inject_left(inner, num.node("lit", (x,)))))
    add_ = lambda a, b: in_(inject_left(outer, inject_right(inner, plus.node("add", (a, b)))))
    mul_ = lambda a, b: in_(inject_right(outer, times.node("mul", (a, b))))
    t = mul_(add_(num_(2), num_(3)), add_(num_(4), mul_(num_(1), num_(5))))
    assert fold_c(evaluate, t) == 45 == mfold(lift(evaluate), t)
    with pytest.raises(MalformedNodeError, match=re.escape("'inl:lit' is not a coproduct node of ((num+plus)+times)")):
        evaluate(inject_left(inner, num.node("lit", (1,))))


def test_eval_g_rejects_a_node_that_is_not_a_trm_node():
    for n in (TRM_G1.node("lit", (3,)), kernel.Node(TRM, "bogus", (), ())):
        message = f"{n.ctor!r} is not a coproduct node of (trm_g1+trm_g2)"
        with pytest.raises(MalformedNodeError, match=f"^{re.escape(message)}$"):
            arith.eval_g(n)


def test_injections_jointly_surjective_and_disjoint():
    for t in small_terms(3):
        n = out_(t)
        side, inner = project(TRM, n)
        back = inject_left(TRM, inner) if side == "left" else inject_right(TRM, inner)
        assert back == n
        assert (project_left(TRM, n) is None) != (project_right(TRM, n) is None)


def test_coproduct_allows_shared_ctor_names():
    a = kernel.Signature("a", {"mk": ("int",)})
    b = kernel.Signature("b", {"mk": ("int",)})
    c = coproduct(a, b)
    ln = inject_left(c, a.node("mk", (1,)))
    rn = inject_right(c, b.node("mk", (1,)))
    assert ln != rn


def test_self_coproduct_keeps_its_sides_apart():
    a = kernel.Signature("a", {"mk": ("int",)})
    c = coproduct(a, a)
    ln = inject_left(c, a.node("mk", (1,)))
    rn = inject_right(c, a.node("mk", (1,)))
    assert (ln.ctor, rn.ctor) == ("inl:mk", "inr:mk")
    assert project_left(c, ln) == a.node("mk", (1,)) and project_right(c, ln) is None
    assert project_right(c, rn) == a.node("mk", (1,)) and project_left(c, rn) is None
    assert project(c, rn) == ("right", a.node("mk", (1,)))


def test_injections_reject_constructors_their_summand_does_not_declare():
    stray = kernel.Node(TRM_G1, "add", (), ())
    with pytest.raises(MalformedNodeError, match="^'add' does not belong to the left summand$"):
        inject_left(TRM, stray)
    with pytest.raises(MalformedNodeError, match="^'lit' does not belong to the right summand$"):
        inject_right(TRM, kernel.Node(TRM_G2, "lit", (), (1,)))
    tagged = kernel.Node(TRM, "inl:add", (), ())
    assert project_left(TRM, tagged) is None and project_right(TRM, tagged) is None
    with pytest.raises(MalformedNodeError, match="is not a coproduct node"):
        project(TRM, tagged)


# ---------------------------------------------------------------------------
# fold-carrying representation


def test_reify_reflect_roundtrip():
    for t in small_terms(4):
        assert reify(reflect(t)) == t


def test_ft_fold_agrees_with_mfold():
    lifted = lift(arith.eval_g)
    for t in small_terms(3):
        assert ft_fold(lifted, reflect(t)) == mfold(lifted, t)


def test_ft_in_out_laws():
    for t in small_terms(3):
        ft = reflect(t)
        node = ft_out(ft)
        assert reify(ft_in(node)) == t
        rebuilt = fmap(reify, node)
        assert in_(rebuilt) == t


# ---------------------------------------------------------------------------
# JSON


def test_term_json_roundtrip():
    for t in small_terms(3):
        assert term_from_json(TRM, term_to_json(t)) == t


def test_term_json_with_a_child_or_payload_too_many_or_too_few_is_malformed():
    one, two = term_to_json(lit(1)), term_to_json(lit(2))
    cases = [
        ({"ctor": ADD, "rec": [one, two, one], "payload": []}, f"{ADD} expects 2 rec slots, got 3"),
        ({"ctor": ADD, "rec": [one], "payload": []}, f"{ADD} expects 2 rec slots, got 1"),
        ({"ctor": LIT, "rec": [], "payload": [1, 2]}, f"{LIT} expects 1 payload slots, got 2"),
        ({"ctor": LIT, "rec": [], "payload": []}, f"{LIT} expects 1 payload slots, got 0"),
        ({"ctor": ADD, "rec": [one, {"ctor": LIT, "rec": [], "payload": []}], "payload": []}, f"{LIT} expects 1"),
    ]
    for js, message in cases:
        with pytest.raises(MalformedNodeError, match=re.escape(f"{TRM.name}.{message}")):
            term_from_json(TRM, js)
    assert term_from_json(TRM, {"ctor": ADD, "rec": [one, two], "payload": []}) == add(lit(1), lit(2))


def test_term_json_without_a_slot_list_or_not_an_object_is_malformed():
    one = term_to_json(lit(1))
    cases = [
        ({"ctor": LIT, "payload": [1]}, f"{TRM.name}.{LIT} expects a list of 0 rec slots, not None"),
        ({"ctor": LIT, "rec": [], "payload": 1}, f"{TRM.name}.{LIT} expects a list of 1 payload slots, not 1"),
        ({"ctor": ADD, "rec": one, "payload": []}, f"{TRM.name}.{ADD} expects a list of 2 rec slots, not {one!r}"),
        (["x"], f"{TRM.name}: a node is a JSON object, not ['x']"),
        ({"ctor": ADD, "rec": [one, ["x"]], "payload": []}, f"{TRM.name}: a node is a JSON object, not ['x']"),
        ({"rec": [], "payload": [1]}, f"{TRM.name} has no constructor None"),
        ({"ctor": [LIT], "rec": [], "payload": [1]}, f"{TRM.name} has no constructor [{LIT!r}]"),
    ]
    for js, message in cases:
        with pytest.raises(MalformedNodeError, match=f"^{re.escape(message)}$"):
            term_from_json(TRM, js)


def test_term_json_shape():
    assert term_to_json(lit(3)) == {"ctor": LIT, "rec": [], "payload": [3]}
    assert term_to_json(add(lit(1), lit(2))) == {
        "ctor": ADD,
        "rec": [
            {"ctor": LIT, "rec": [], "payload": [1]},
            {"ctor": LIT, "rec": [], "payload": [2]},
        ],
        "payload": [],
    }


def test_signature_json():
    js = kernel.signature_to_json(TRM)
    assert js["signature"] == "(trm_g1+trm_g2)"
    assert {"name": LIT, "slots": ["int"]} in js["constructors"]
