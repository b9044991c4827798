"""Folds of ``case`` algebras through their table, against the generic path they replace.

``fold_c`` and ``lift`` hand each node of a ``case`` algebra's coproduct
straight to its summand algebra.  The specification is the generic fold of
the projection copairing, and of any plain callable, which sees every node
as ``fmap``'s image.
"""

import functools
import re

import pytest

from alacarte import arith, kernel, testkit
from alacarte.arith import TRM, TRM_G1, TRM_G2, Val, add, lit
from alacarte.kernel import (
    MalformedNodeError,
    Signature,
    Term,
    case,
    check_uniqueness,
    coproduct,
    fold_c,
    in_,
    inject_left,
    inject_right,
    lift,
    mfold,
    out_,
)

from test_kernel import _projection_copair as projection_copair  # a plain callable: the generic path folds it


def generic(alg):
    """``alg`` behind a wrapper that copies its ``__dict__``, as ``functools.wraps`` does."""
    return functools.wraps(alg)(lambda n: alg(n))


@pytest.fixture(scope="module")
def depth4_terms():
    return list(testkit.enumerate_terms(testkit.arith_enum(4)))


def test_case_folds_equal_the_projection_copairing_on_every_depth4_term(depth4_terms):
    spec = projection_copair(TRM, arith.eval_g1, arith.eval_g2)
    lifted = lift(arith.eval_g)
    assert len(depth4_terms) == 21612
    for t in depth4_terms:
        expected = fold_c(spec, t)
        assert fold_c(arith.eval_g, t) == expected
        assert mfold(lifted, t) == expected
        assert arith.eval_(t) == expected == testkit.oracle_eval(t)


def test_a_case_of_a_case_folds_through_both_tables():
    num = Signature("num", {"lit": ("int",)})
    plus = Signature("plus", {"add": ("rec", "rec")})
    times = Signature("times", {"mul": ("rec", "rec"), "neg": ("rec",)})
    inner = coproduct(num, plus)
    outer = coproduct(inner, times)
    seen = []

    def at(sig, f):
        return lambda n: seen.append(n.sig) or (f(n) if n.sig is sig else pytest.fail(f"{n} is not of {sig}"))

    evaluate = case(
        outer,
        case(inner, at(num, lambda n: n.payload[0]), at(plus, lambda n: n.rec[0] + n.rec[1])),
        at(times, lambda n: n.rec[0] * n.rec[1] if n.ctor == "mul" else -n.rec[0]),
    )
    spec = projection_copair(
        outer,
        projection_copair(inner, lambda n: n.payload[0], lambda n: n.rec[0] + n.rec[1]),
        lambda n: n.rec[0] * n.rec[1] if n.ctor == "mul" else -n.rec[0],
    )
    num_ = lambda x: in_(inject_left(outer, inject_left(inner, num.node("lit", (x,)))))
    add_ = lambda a, b: in_(inject_left(outer, inject_right(inner, plus.node("add", (a, b)))))
    mul_ = lambda a, b: in_(inject_right(outer, times.node("mul", (a, b))))
    neg_ = lambda a: in_(inject_right(outer, times.node("neg", (a,))))
    terms = [num_(x) for x in (-2, 0, 3)]
    for _ in range(2):
        terms += [f(a, b) for f in (add_, mul_) for a in terms for b in terms[::3]] + [neg_(a) for a in terms]
    assert len(terms) > 100
    lifted = lift(evaluate)
    for t in terms:
        expected = fold_c(spec, t)
        seen.clear()
        assert fold_c(evaluate, t) == expected
        by_fold = list(seen)
        seen.clear()
        assert mfold(lifted, t) == expected
        assert seen == by_fold and outer not in seen and inner not in seen


def foreign_terms():
    """Terms a fold of ``eval_g`` rejects: the message, and the summand nodes folded before it."""
    stray = in_(TRM_G1.node("lit", (3,)))  # of a summand, not of the coproduct
    bogus = Term(TRM, kernel.Node(TRM, "inl:bogus", (), ()))  # an unknown tagged constructor
    under = lambda child: Term(TRM, kernel.Node(TRM, "inr:add", (add(lit(1), lit(2)), child), ()))
    message = "'{}' is not a coproduct node of (trm_g1+trm_g2)"
    return [
        (stray, message.format("lit"), []),
        (bogus, message.format("inl:bogus"), []),
        (under(stray), message.format("lit"), ["lit", "lit", "add"]),
        (under(bogus), message.format("inl:bogus"), ["lit", "lit", "add"]),
        (Term(TRM, kernel.Node(TRM, "inr:add", (stray, bogus), ())), message.format("lit"), []),
        # a rejected node with children is rejected after they are folded
        (Term(TRM, kernel.Node(TRM, "inr:bogus", (add(lit(1), lit(2)),), ())), message.format("inr:bogus"), ["lit", "lit", "add"]),
        (Term(TRM_G2, kernel.Node(TRM_G2, "add", (lit(1), lit(2)), ())), message.format("add"), ["lit", "lit"]),
    ]


@pytest.mark.parametrize("t, message, before", foreign_terms())
def test_a_foreign_node_raises_what_the_generic_path_raises_after_the_same_children(t, message, before):
    folded = []
    counting = lambda f: lambda n: folded.append(n.ctor) or f(n)
    copair = case(TRM, counting(arith.eval_g1), counting(arith.eval_g2))
    runs = {
        "fold_c": lambda alg: fold_c(alg, t),
        "mfold": lambda alg: mfold(lift(alg), t),
    }
    for name, run in runs.items():
        seen = {}
        for path, alg in (("table", copair), ("generic", generic(copair))):
            folded.clear()
            with pytest.raises(MalformedNodeError, match=f"^{re.escape(message)}$"):
                run(alg)
            seen[path] = list(folded)
        assert seen["table"] == seen["generic"] == before, name


def test_a_plain_algebra_sees_every_node_as_a_coproduct_node(depth4_terms):
    nodes = []
    plain = lambda n: nodes.append(n) or arith.eval_g(n)
    wrapped = generic(plain)
    functools.update_wrapper(wrapped, arith.eval_g)
    assert wrapped._case == arith.eval_g._case  # copied with the __dict__, yet not the copair's own
    for t in depth4_terms[::97]:
        size = kernel.fold_c(lambda n: 1 + sum(n.rec), t)
        for alg in (plain, wrapped):
            nodes.clear()
            assert fold_c(alg, t) == mfold(lift(alg), t) == testkit.oracle_eval(t)
            assert len(nodes) == 2 * size and all(n.sig is TRM for n in nodes)


def test_check_uniqueness_computes_h_once_per_sample():
    # per sample: h(t), h(in_(out_(t))) and h of each child in the Mendler
    # step; the second pass reuses h(t), where it used to call h again
    calls = []

    def h(t):
        calls.append(t)
        return testkit.oracle_eval(t)

    samples = list(testkit.enumerate_terms(testkit.arith_enum(3)))
    assert check_uniqueness(lift(arith.eval_g), h, samples).ok
    assert len(calls) == sum(2 + len(out_(t).rec) for t in samples)


def test_check_uniqueness_keeps_its_witnesses():
    lifted = lift(arith.eval_g)
    double = lambda t: Val(2 * testkit.oracle_eval(t).vv)
    t = add(lit(1), lit(2))
    # doubling satisfies the hypothesis at an ``add`` root, not at a literal
    assert check_uniqueness(lifted, double, [t, add(lit(0), t)]) == kernel.UniquenessVerdict(
        False, "uniqueness-violation", t
    )
    verdict = check_uniqueness(lifted, double, [t, lit(2)])
    assert verdict == kernel.UniquenessVerdict(False, "hypothesis-violation", (lit(2), Val(4), Val(2)))
