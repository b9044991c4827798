"""Each fold and derivation level builds only what it uses, and still checks what it checked.

``search`` runs each child link before it fills a node, and the node then
holds the child's own conclusion as that premise's index: here every premise
index of the arith builders' derivations (on criterion 6's terms) and of the
step derivations of the ``lang-fuzz`` seed-1 corpus ``is`` its child's
conclusion.  A fold level without premises or recursive slots issues no
brand and no ``rec`` closure: every such level of ``mfold``, ``ifold`` and
``hfold`` is handed one shared ``rec``, which rejects a handle of another
level and a non-handle exactly as ``step_once``, ``istep_once`` and
``hstep_once`` do.  With every index found by identity,
``preservation_via_istrm`` compares no two terms on its passing path.  The
proof cases of ``arith.preservation`` run their checks inline and keep each
rejection's type and message, and the fold generated for
``arith._preservation_step`` is pinned, so that a change to the fold
generator shows up here as a diff.
"""

import linecache

import pytest

from alacarte import arith, testkit
from alacarte.arith import EVAL_SIG, N, TYPOF_SIG, Val, add, lit
from alacarte.indexed import Derivation, DNode, InvalidDerivationError, WrongIndexError, cases, hstep_once, ifold, istep_once
from alacarte.kernel import ForeignHandleError, Term, mfold, out_, step_once
from alacarte.lang_l import STEP_SIG, step_dec, step_exp
from alacarte.mutual import IndexedBiMendlerAlgebra, hfold

FOREIGN = (ForeignHandleError, "handle consumed outside the fold that issued it")


def _outcome(run):
    """``("ok", value)``, or the type and message of what ``run()`` raised."""
    try:
        return "ok", run()
    except Exception as exc:  # noqa: BLE001 (the outcome is compared, whatever it is)
        return type(exc), str(exc)


def _unlinked(d):
    """The premises below ``d``, ``d``'s own included, whose index is not their child's conclusion itself."""
    stack, unlinked = [d], []
    while stack:
        for premise in stack.pop().root.premises:
            _, ix, w = premise
            if ix is not w.root.conclusion:
                unlinked.append(premise)
            stack.append(w)
    return unlinked


# ---------------------------------------------------------------------------
# a premise holds its child's own conclusion


def test_every_premise_index_of_the_arith_builders_is_its_childs_conclusion():
    built = 0
    for t in testkit.enumerate_terms(testkit.arith_enum(4)):  # criterion 6's terms; criterion 7's are among them
        for build in (arith.build_eval_derivation, arith.build_typof_derivation, arith.build_istrm):
            assert _unlinked(build(t)) == []
            built += 1
    assert built == 3 * 21_612


def test_every_premise_index_of_a_step_derivation_is_its_childs_conclusion():
    steps = premises = 0
    for c in testkit.gen_well_typed_config(testkit.GenConfig(seed=1, count=3_000)):  # the ``lang-fuzz`` corpus
        stepper = step_dec if c.sort == "dec" else step_exp
        term = c.term
        for _ in range(50):  # its fuel
            sub = stepper(c.rho, term)
            if sub is None:
                break
            term, d = sub
            assert _unlinked(d) == []
            steps += 1
            premises += len(d.root.premises)
    assert steps > 4_000 and premises > 1_000


# ---------------------------------------------------------------------------
# a leaf level's ``rec``


class _Impostor:  # a Handle's fields, but no Handle
    def __init__(self, value, brand):
        self._value, self._brand = value, brand


def test_a_leaf_levels_rec_in_mfold_rejects_as_step_once_does():
    recs, handles = [], []

    def step(rec, node):
        recs.append(rec)
        handles.extend(node.rec)
        for h in node.rec:
            rec(h)
        return 0

    mfold(step, add(lit(1), lit(2)))
    root_rec, leaf_rec, other_leaf_rec = recs
    assert leaf_rec is other_leaf_rec is not root_rec  # one shared ``rec``, no closure per leaf
    step_once(step, out_(lit(5)), lambda s: 0)
    assert recs[-1] is leaf_rec
    candidates = [handles[0], handles[1], lit(1), _Impostor(lit(1), handles[0]._brand)]
    verdicts = [_outcome(lambda: leaf_rec(h)) for h in candidates]
    assert verdicts == [FOREIGN] * len(candidates)
    assert _outcome(lambda: root_rec(handles[0])) == ("ok", 0)


@pytest.mark.parametrize("path", ["generated", "generic"])
def test_a_leaf_levels_rec_in_ifold_rejects_as_istep_once_does(path):
    recs, handles = [], []

    def capture(rec, w, node):
        recs.append(rec)
        for _, ix, h in node.premises:
            handles.append((ix, h))
            rec(ix, h)
        return 0

    d = arith.build_eval_derivation(add(lit(1), lit(2)))
    if path == "generated":
        ifold(cases(EVAL_SIG, {"ev1": capture, "ev2": capture}), d.root.conclusion, d)
    else:
        recurse = lambda wi, di: istep_once(capture, wi, di.root, recurse)
        recurse(d.root.conclusion, d)
    root_rec, leaf_rec, other_leaf_rec = recs
    assert leaf_rec is other_leaf_rec is not root_rec
    leaf = d.root.premises[0][2]
    istep_once(capture, leaf.root.conclusion, leaf.root, None)
    assert recs[-1] is leaf_rec
    (ix, h), _ = handles
    candidates = [(ix, h), (ix, lit(1)), (ix, _Impostor(leaf, h._brand))]
    assert [_outcome(lambda: leaf_rec(*args)) for args in candidates] == [FOREIGN] * len(candidates)
    assert _outcome(lambda: root_rec(ix, h)) == ("ok", 0)


@pytest.mark.parametrize("path", ["generated", "generic"])
def test_a_leaf_levels_recs_in_hfold_reject_as_hstep_once_does(path):
    recs, handles = [], []

    def capture(rec1, rec2, w, node):
        recs.append((rec1, rec2))
        for fam, ix, h in node.premises:
            handles.append((fam, ix, h))
            (rec1, rec2)[fam - 1](ix, h)
        return 0

    step = cases(STEP_SIG, dict.fromkeys(STEP_SIG.rules, capture))
    malg = IndexedBiMendlerAlgebra(step, step)
    c = next(
        c
        for c in testkit.gen_well_typed_config(testkit.GenConfig(seed=1, count=200))
        if c.sort == "exp" and (sub := step_exp(c.rho, c.term)) and sub[1].root.premises
    )
    d = step_exp(c.rho, c.term)[1]
    if path == "generated":
        hfold(d.family, malg, d.root.conclusion, d)
    else:
        recurse = lambda wi, di: hstep_once(malg, wi, di.root, recurse, recurse)
        recurse(d.root.conclusion, d)
    leaves = [pair for pair, level in zip(recs, _levels(d)) if not level.root.premises]
    assert leaves and all(pair == (leaves[0][0],) * 2 for pair in leaves)  # one shared ``rec`` for both families
    leaf = next(level for level in _levels(d) if not level.root.premises)
    hstep_once(malg, leaf.root.conclusion, leaf.root, None, None)
    assert recs[-1] == leaves[0]
    fam, ix, h = handles[0]
    for rec in leaves[0]:
        candidates = [(ix, h), (ix, lit(1)), (ix, _Impostor(d, h._brand))]
        assert [_outcome(lambda: rec(*args)) for args in candidates] == [FOREIGN] * len(candidates)


def _levels(d):
    """The derivations below ``d`` and ``d`` itself, in the order a fold steps them: each before its premises."""
    yield d
    for _, _, w in d.root.premises:
        yield from _levels(w)


# ---------------------------------------------------------------------------
# preservation compares no terms on its passing path, and keeps its rejections


def test_preservation_via_istrm_compares_no_terms_on_its_passing_path(monkeypatch):
    terms = [lit(4), add(lit(1), lit(2)), add(add(lit(1), lit(-4)), add(lit(0), add(lit(5), lit(6))))]
    built = [(arith.build_istrm(t), arith.build_typof_derivation(t)) for t in terms]
    calls = []
    term_eq = Term.__eq__
    monkeypatch.setattr(Term, "__eq__", lambda self, other: calls.append(self) or term_eq(self, other))
    outs = [arith.preservation_via_istrm(w, td) for w, td in built]
    monkeypatch.undo()
    assert calls == []
    assert [out.root.conclusion for out in outs] == [(lit(arith.eval_(t).vv), N) for t in terms]


def _preserve(d, td):
    return _outcome(lambda: ifold(arith._preservation_step, d.root.conclusion, d)(td))


def test_a_typing_of_an_addition_by_another_rule_is_rejected():
    e = add(lit(1), lit(2))
    td = Derivation(TYPOF_SIG, DNode(TYPOF_SIG, 1, "tof1", (("v", Val(3)),), (), (e, N)))
    assert _preserve(arith.build_eval_derivation(e), td) == (
        InvalidDerivationError,
        "typing of an addition must end in tof2, got tof1",
    )


@pytest.mark.parametrize("e", [lit(1), add(lit(1), lit(2))], ids=["literal", "addition"])
def test_a_typing_at_another_index_is_rejected(e):
    td = arith.build_typof_derivation(other := add(lit(2), lit(2)))
    assert _preserve(arith.build_eval_derivation(e), td) == (
        WrongIndexError,
        f"typing derivation concludes {(other, N)!r}, expected {(e, N)!r}",
    )
    with pytest.raises(WrongIndexError, match="^evaluation and typing derivations disagree on the term$"):
        arith.preservation(arith.build_eval_derivation(e), td)


def _eval_sum(left, right, conclusion):
    """An ``ev2`` node over ``left`` and ``right``, each an ``ev1`` node at its own index; not validated."""
    kids = [Derivation(EVAL_SIG, DNode(EVAL_SIG, 1, "ev1", (("x", 0),), (), ix)) for ix in (left, right)]
    params = (("e1", left[0]), ("e2", right[0]), ("x1", left[1]), ("x2", right[1]), ("v", conclusion[1]))
    return Derivation(EVAL_SIG, DNode(EVAL_SIG, 1, "ev2", params, ((1, left, kids[0]), (1, right, kids[1])), conclusion))


class _OtherVal:
    vv = 1


@pytest.mark.parametrize("value", [Val(7), _OtherVal()], ids=["another-value", "not-a-val"])
def test_premise_values_that_disagree_with_the_literals_are_rejected(value):
    e = add(lit(1), lit(2))
    d = _eval_sum((lit(1), value), (lit(2), Val(2)), (e, Val(3)))
    assert _preserve(d, arith.build_typof_derivation(e)) == (
        InvalidDerivationError,
        "premise transformers disagreed with indices",
    )


def test_a_premise_that_types_no_literal_is_rejected_as_lit_value_rejects_it():
    inner = add(lit(1), lit(1))
    e = add(inner, lit(2))
    d = _eval_sum((inner, Val(2)), (lit(2), Val(2)), (e, Val(4)))
    assert _preserve(d, arith.build_typof_derivation(e)) == (ValueError, "not a literal: inr:add")


# ---------------------------------------------------------------------------
# the generated fold, pinned

PRESERVATION_FOLD = """\
def fold(w, d):
    n = d.root
    premises = n.premises
    if n.sig is _sig1 and n.family == 1:
        rule = n.rule
        if rule == _rule1_0:
            if not premises:
                return _case1_0(_leaf_rec, w, n)
        elif rule == _rule1_1:
            if len(premises) == 2:
                (f0, ix0, w0), (f1, ix1, w1), = premises
                if f0 == 1 and f1 == 1:
                    b1 = _object()
                    def rec1(wi, h):
                        if not isinstance(h, _Handle) or h._brand is not b1:
                            raise _ForeignHandleError(_FOREIGN_HANDLE)
                        if (c := (child := h._value).root.conclusion) is not wi and c != wi:
                            raise _wrong_index(wi, child)
                        return fold(wi, child)
                    h0 = _new_object(_Handle)
                    h0._value = w0
                    h0._brand = b1
                    h1 = _new_object(_Handle)
                    h1._value = w1
                    h1._brand = b1
                    c = _DNode_twin()
                    c.sig = n.sig
                    c.family = n.family
                    c.rule = rule
                    c.params = n.params
                    c.premises = ((f0, ix0, h0), (f1, ix1, h1), )
                    c.conclusion = n.conclusion
                    c.__class__ = _DNode_class
                    return _case1_1(rec1, w, c)
    return _generic(_malg, w, n, fold, )
"""


def test_the_fold_of_the_preservation_step_is_pinned():
    d = arith.build_eval_derivation(add(lit(1), lit(2)))
    arith.preservation(d, arith.build_typof_derivation(add(lit(1), lit(2))))
    code = arith._preservation_step._cases[3][(arith._preservation_step,)].__code__
    assert "".join(linecache.getlines(code.co_filename)) == PRESERVATION_FOLD
