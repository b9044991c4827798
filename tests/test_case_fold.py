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


def test_case_needs_a_coproduct_signature():
    for sig in (TRM_G1, arith.TRM_G2):
        with pytest.raises(TypeError, match=f"^case needs a coproduct signature, not {re.escape(repr(sig))}$"):
            case(sig, arith.eval_g1, arith.eval_g2)
    with pytest.raises(TypeError, match="^case needs a coproduct signature, not None$"):
        case(None, arith.eval_g1, arith.eval_g2)


def test_arity_three_and_mixed_slots_fold_as_the_projection_copairing():
    tri = Signature("tri", {"leaf": ("int",), "tri": ("rec", "rec", "rec")})
    mixed = Signature("mixed", {"tag": ("int", "rec"), "pair": ("rec", "id", "rec")})
    csig = coproduct(tri, mixed)
    # each side tells its slots apart, so a dropped or reordered child shows
    left = lambda n: n.payload[0] if n.ctor == "leaf" else n.rec[0] - 2 * n.rec[1] + 7 * n.rec[2]
    right = lambda n: 10 * n.payload[0] + n.rec[0] if n.ctor == "tag" else 3 * n.rec[0] - n.rec[1] + len(n.payload[0])
    seen = []
    seeing = lambda f: lambda n: seen.append(n) or f(n)
    evaluate = case(csig, seeing(left), seeing(right))
    spec = projection_copair(csig, left, right)
    leaf, tri_, tag, pair = (csig.constructor(c) for c in ("inl:leaf", "inl:tri", "inr:tag", "inr:pair"))
    terms = [leaf(x) for x in (-1, 2, 5)]
    for _ in range(2):
        terms += [tri_(a, b, c) for a in terms[::2] for b in terms[-2:] for c in terms[:2]]
        terms += [tag(x, a) for x in (0, 4) for a in terms[-3:]] + [pair(a, "ab", b) for a in terms[:3] for b in terms[-4:]]
    assert len(terms) > 100
    for t in terms:
        expected = fold_c(spec, t)
        by_path = {}
        for path, alg in (("table", evaluate), ("generic", generic(evaluate))):
            seen.clear()
            assert fold_c(alg, t) == expected
            assert mfold(lift(alg), t) == expected
            by_path[path] = list(seen)
        assert by_path["table"] == by_path["generic"]  # the same summand nodes, slots and payloads
        assert all(n.sig in (tri, mixed) for n in seen)


def test_a_node_of_another_coproduct_of_the_same_summands_is_foreign():
    other = coproduct(TRM_G1, arith.TRM_G2)  # the same tagged names, another signature
    leaf = in_(inject_left(other, TRM_G1.node("lit", (3,))))
    message = "'inl:lit' is not a coproduct node of (trm_g1+trm_g2)"  # an ``add`` folds its children first
    for t in (leaf, in_(inject_right(other, arith.TRM_G2.node("add", (leaf, leaf))))):
        for alg in (arith.eval_g, generic(arith.eval_g)):
            for run in (lambda: fold_c(alg, t), lambda: mfold(lift(alg), t)):
                with pytest.raises(MalformedNodeError, match=f"^{re.escape(message)}$"):
                    run()


def malformed_adds():
    """Hand-built ``inr:add`` nodes whose ``rec`` is not of the constructor's arity.

    Each raises ``eval_g2``'s error once every child is folded: the last
    ``add`` the summand algebras see is the malformed node.
    """
    one = Term(TRM, kernel.Node(TRM, "inr:add", (add(lit(1), lit(2)),), ()))
    three = Term(TRM, kernel.Node(TRM, "inr:add", (add(lit(1), lit(2)), lit(3), lit(4)), ()))
    return [
        (one, "not enough values to unpack (expected 2, got 1)", ["lit", "lit", "add", "add"]),
        (three, "too many values to unpack (expected 2)", ["lit", "lit", "add", "lit", "lit", "add"]),
        (add(lit(5), three), "too many values to unpack (expected 2)", ["lit", "lit", "lit", "add", "lit", "lit", "add"]),
    ]


@pytest.mark.parametrize("t, message, before", malformed_adds())
def test_a_hand_built_node_of_the_wrong_arity_raises_what_the_generic_path_raises(t, message, before):
    folded = []
    counting = lambda f: lambda n: folded.append(n.ctor) or f(n)
    copair = case(TRM, counting(arith.eval_g1), counting(arith.eval_g2))
    for run in (lambda alg: fold_c(alg, t), lambda alg: mfold(lift(alg), t)):
        seen = {}
        for path, alg in (("table", copair), ("generic", generic(copair))):
            folded.clear()
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run(alg)
            seen[path] = list(folded)
        assert seen["table"] == seen["generic"] == before


def test_no_child_of_a_hand_built_node_is_dropped():
    total = case(TRM, lambda n: n.payload[0], lambda n: sum(n.rec))
    for children in ((lit(1),), (lit(1), lit(2), add(lit(3), lit(4))), (lit(1), lit(2), lit(3), lit(4))):
        t = add(lit(10), Term(TRM, kernel.Node(TRM, "inr:add", children, ())))
        expected = 10 + sum(testkit.oracle_eval(c).vv for c in children)
        for alg in (total, generic(total)):
            assert fold_c(alg, t) == mfold(lift(alg), t) == expected


def test_each_case_table_generates_its_fold_and_mendler_step_once():
    evaluate = case(TRM, arith.eval_g1, arith.eval_g2)
    table = evaluate._case
    assert not {"fold", "lifted"} & vars(table).keys()
    assert fold_c(evaluate, add(lit(1), lit(2))) == Val(3)
    assert vars(table).keys() & {"fold", "lifted"} == {"fold"}  # kept by the first fold
    fold = table.fold
    assert fold_c(evaluate, add(lit(3), lit(4))) == Val(7) and table.fold is fold
    assert "lifted" not in vars(table)
    assert lift(evaluate) is lift(evaluate) is table.lifted
    assert mfold(lift(evaluate), add(lit(1), lit(2))) == Val(3)


def _verdict(open_, h):
    try:
        return "opened", open_(h)
    except Exception as e:
        return type(e), str(e)


def test_step_once_opens_a_handle_as_open_handle_does():
    class SubHandle(kernel.Handle):
        __slots__ = ()

    class Impostor:  # a Handle's fields, but no Handle
        def __init__(self, value, brand):
            self._value, self._brand = value, brand

    steps = []
    capture = lambda rec, node: steps.append((rec, node.rec[0]))
    for _ in range(2):  # two sibling steps, each with its own brand
        kernel.step_once(capture, out_(add(lit(1), lit(2))), lambda s: s)
    (_, leaked), (rec, own) = steps
    brand = own._brand
    handles = [
        own,
        leaked,
        lit(1),
        Impostor(lit(1), brand),
        SubHandle(lit(7), brand),
        SubHandle(lit(7), object()),
    ]
    verdicts = [_verdict(rec, h) for h in handles]
    assert verdicts == [_verdict(lambda h: kernel.open_handle(h, brand), h) for h in handles]
    foreign = (kernel.ForeignHandleError, "handle consumed outside the fold that issued it")
    assert verdicts == [("opened", lit(1)), foreign, foreign, foreign, ("opened", lit(7)), foreign]


class _SubHandle(kernel.Handle):
    __slots__ = ()


class _Impostor:  # a Handle's fields, but no Handle
    def __init__(self, value, brand):
        self._value, self._brand = value, brand


def _handle_kinds(own, leaked):
    """Own, leaked, non-handle, impostor and ``SubHandle`` candidates for the ``rec`` that issued ``own``."""
    brand = own._brand
    return [own, leaked, lit(1), _Impostor(lit(1), brand), _SubHandle(lit(7), brand), _SubHandle(lit(7), object())]


def test_mfold_opens_a_handle_as_step_once_does():
    # the step keeps its ``rec`` and first handle at an ``add`` and folds a literal to its payload
    steps = []
    capture = lambda rec, node: steps.append((rec, node.rec[0])) if node.rec else node.payload[0]
    t = add(lit(1), lit(2))
    for _ in range(2):  # two sibling folds, each with its own brand
        mfold(capture, t)
    (_, leaked), (by_mfold, own) = steps
    steps.clear()
    for _ in range(2):  # the same two steps, run by ``step_once`` with ``mfold`` as ``recurse``
        kernel.step_once(capture, out_(t), lambda s: mfold(capture, s))
    (_, step_leaked), (by_step, step_own) = steps
    verdicts = [_verdict(by_mfold, h) for h in _handle_kinds(own, leaked)]
    assert verdicts == [_verdict(by_step, h) for h in _handle_kinds(step_own, step_leaked)]
    foreign = (kernel.ForeignHandleError, "handle consumed outside the fold that issued it")
    assert verdicts == [("opened", 1), foreign, foreign, foreign, ("opened", 7), foreign]


def test_a_handle_moved_between_levels_of_one_mfold_is_foreign():
    t = add(add(lit(1), lit(2)), lit(3))
    kept = []

    def down(rec, node):
        """The root keeps its right handle and recurses left, where the kept handle is handed to the inner ``rec``."""
        if not node.rec:
            return node.payload[0]
        if not kept:
            kept.append(node.rec[1])
            return rec(node.rec[0])
        return rec(kept[0])

    def up(rec, node):
        """The inner ``add`` returns its own handle, and the root hands it to its ``rec``."""
        if not node.rec:
            return node.payload[0]
        inner = rec(node.rec[0])
        return rec(inner) if isinstance(inner, kernel.Handle) else node.rec[0]

    spec = lambda malg, s: kernel.step_once(malg, s.root, lambda c: spec(malg, c))
    for malg in (down, up):
        for run in (mfold, spec):
            kept.clear()
            with pytest.raises(kernel.ForeignHandleError, match="^handle consumed outside the fold that issued it$"):
                run(malg, t)


def _left_nested(depth):
    t = lit(0)
    for _ in range(depth):
        t = add(t, lit(1))
    return t


def test_eval_folds_a_900_deep_left_nested_chain():
    # a case fold takes one frame per level, so nearly the whole recursion limit is depth;
    # ``mfold`` of its lifted step takes three: ``mfold``'s ``recurse``, the step and ``rec``
    assert arith.eval_(_left_nested(900)) == Val(900)
    assert mfold(lift(arith.eval_g), _left_nested(300)) == Val(300)


def test_lift_of_a_plain_algebra_folds_a_190_deep_left_nested_chain():
    # ``lift``'s generic step maps with ``map`` and calls no ``fmap``: three frames a level, as a case fold's
    plain = lambda n: arith.eval_g(n)
    t = _left_nested(190)
    assert mfold(lift(plain), t) == kernel.fold_c(plain, t) == Val(190)
