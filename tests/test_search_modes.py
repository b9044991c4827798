"""``search`` in the modes other than ``STEP_SIG``'s, on relations made for these tests.

Each relation is over arith terms.  ``Pos`` has a bare index: a term whose
literals are all positive.  ``Size`` relates a term to its node count, which
each rule defines rather than reads from a premise.  ``Zero`` relates a term
to its value, and its addition rule fixes both premises' outputs at 0.  The
last tests check that each mode's ill-moded declarations are rejected when
the search table is built, naming the rule, and pin the step relation's
generated search over applications.
"""

import linecache
from dataclasses import replace

import pytest

from alacarte import arith
from alacarte.arith import TYPOF_SIG, Val, _add, _lit, add, lit
from alacarte.indexed import IndexedSignature, InvalidDerivationError, rule, search, validate

POS = IndexedSignature(
    "Pos",
    [
        rule(
            "p-lit",
            params=("x",),
            side=(("positive", lambda P: P["x"] > 0),),
            subject=(_lit, "x"),
            conclusion=lambda P, s: s,
        ),
        rule(
            "p-add",
            params=("e1", "e2"),
            premises=(lambda P: P["e1"], lambda P: P["e2"]),
            subject=(_add, "e1", "e2"),
            conclusion=lambda P, s: s,
        ),
    ],
    layout=("subject",),
)

SIZE = IndexedSignature(
    "Size",
    [
        rule(
            "s-lit",
            params=("x", "n"),
            define=(("n", lambda P, s: 1),),
            side=(("one", lambda P: P["n"] == 1),),
            subject=(_lit, "x"),
            conclusion=lambda P, s: (s, P["n"]),
        ),
        rule(
            "s-add",
            params=("e1", "e2", "n1", "n2", "n"),
            premises=(lambda P: (P["e1"], P["n1"]), lambda P: (P["e2"], P["n2"])),
            define=(("n", lambda P, s: P["n1"] + P["n2"] + 1),),
            side=(("sum", lambda P: P["n"] == P["n1"] + P["n2"] + 1),),
            subject=(_add, "e1", "e2"),
            conclusion=lambda P, s: (s, P["n"]),
        ),
    ],
    layout=("subject", "output"),
)

ZERO = IndexedSignature(
    "Zero",
    [
        rule("z-lit", params=("x",), subject=(_lit, "x"), conclusion=lambda P, s: (s, P["x"])),
        rule(
            "z-add",
            params=("e1", "e2"),
            premises=(lambda P: (P["e1"], 0), lambda P: (P["e2"], 0)),
            subject=(_add, "e1", "e2"),
            conclusion=lambda P, s: (s, 0),
        ),
    ],
    layout=("subject", "output"),
)


def test_a_bare_index_searches_with_no_output():
    t = add(lit(1), add(lit(2), lit(3)))
    out, d = search(POS, 1, None, t)
    assert out is None and d.root.conclusion is t and validate(d)
    assert [w.root.conclusion for _, _, w in d.root.premises] == [lit(1), add(lit(2), lit(3))]
    # a side condition that fails anywhere below makes the whole search find nothing
    assert search(POS, 1, None, add(lit(1), add(lit(2), lit(-3)))) is None


def test_a_defined_parameter_is_bound_after_the_premises_and_checked_by_the_side_conditions():
    t = add(add(lit(1), lit(2)), lit(3))
    out, d = search(SIZE, 1, None, t)
    assert out == 5 and validate(d)
    assert d.root.params == (("e1", add(lit(1), lit(2))), ("e2", lit(3)), ("n1", 3), ("n2", 1), ("n", 5))
    assert d.root.conclusion[0] is t


def test_a_definition_that_breaks_its_side_condition_makes_the_rule_not_apply():
    wrong = replace(SIZE.rules["s-add"], defines=(("n", lambda P, s: P["n1"] + P["n2"]),))
    sig = IndexedSignature("Size", [SIZE.rules["s-lit"], wrong], layout=("subject", "output"))
    assert search(sig, 1, None, lit(4))[0] == 1
    assert search(sig, 1, None, add(lit(1), lit(2))) is None


def test_a_fixed_output_that_the_premise_does_not_give_makes_the_rule_not_apply():
    t = add(add(lit(0), lit(0)), lit(0))
    out, d = search(ZERO, 1, None, t)
    assert out == 0 and validate(d) and d.root.conclusion == (t, 0)
    for miss in (add(lit(0), lit(5)), add(add(lit(0), lit(7)), lit(0))):
        assert search(ZERO, 1, None, miss) is None


def test_a_dotted_slot_binds_nothing_and_derive_checks_it():
    out, d = search(TYPOF_SIG, 1, None, t := lit(2))
    assert out is arith.N and d.root.params == (("v", Val(2)),) and d.root.conclusion[0] is t
    assert TYPOF_SIG.derive("tof1", {"v": Val(2)}).root.conclusion == (lit(2), arith.N)
    with pytest.raises(InvalidDerivationError, match="^TypOf.tof1: the subject does not fit the rule's pattern$"):
        TYPOF_SIG.derive("tof1", {"v": Val(3)}, (), t)


def test_each_arith_builder_is_its_relations_search():
    t = add(lit(1), add(lit(2), lit(3)))
    for build, sig in (
        (arith.build_eval_derivation, arith.EVAL_SIG),
        (arith.build_typof_derivation, arith.TYPOF_SIG),
        (arith.build_istrm, arith.ISTRM_SIG),
    ):
        assert build(t) == search(sig, 1, None, t)[1]


def test_a_side_condition_runs_before_the_premises_in_a_rule_with_no_definitions():
    from alacarte.lang_l import EMPTY_ENV, apply_, vr
    from alacarte.lang_l.step import EXP_STEP, STEP_SIG
    from alacarte.mutual import IndexedBiSignature

    read = []
    app2 = STEP_SIG.rules["E-APP2"]
    (family, ix), = app2.premises
    spy = replace(app2, premises=((family, lambda P: read.append(P["v1"]) or ix(P)),))
    sig = IndexedBiSignature("Step", [spy if r is app2 else r for r in STEP_SIG.rules.values()])
    assert search(sig, EXP_STEP, EMPTY_ENV, apply_(vr("f"), vr("x"))) is None  # ``f`` is unbound: stuck
    assert read == []  # ``vr("f")`` is no value, so E-APP2's premise was never read


def _rejected(sig, subject):
    """The message of the ``ValueError`` that building ``sig``'s table for ``subject`` raises, twice."""
    messages = []
    for _ in range(2):  # a rejected table is not kept
        with pytest.raises(ValueError) as exc:
            search(sig, 1, None, subject)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    return messages[0]


def _with(sig, bad):
    return IndexedSignature(sig.name, [bad if r.name == bad.name else r for r in sig.rules.values()], sig.layout)


S_ADD, Z_ADD, P_ADD = SIZE.rules["s-add"], ZERO.rules["z-add"], POS.rules["p-add"]


def _one(P, s):
    return 1


@pytest.mark.parametrize(
    "sig, bad, message",
    [
        (SIZE, replace(S_ADD, defines=(("m", _one),)), "Size.s-add: defines 'm', which is bound already or no parameter"),
        (SIZE, replace(S_ADD, defines=(("e1", _one),)), "Size.s-add: defines 'e1', which is bound already or no parameter"),
        (SIZE, replace(S_ADD, defines=(("n", _one), ("n", _one))), "Size.s-add: defines 'n', which is bound already or no parameter"),
        (SIZE, replace(S_ADD, defines=()), "Size.s-add: unbound parameters ['n1', 'n2', 'n'] do not match its premises"),
        (ZERO, replace(Z_ADD, params=("e1", "e2", "k")), "Zero.z-add: unbound parameters ['k'] do not match its premises"),
        (POS, replace(P_ADD, params=("e1", "e2", "k", "l")), "Pos.p-add: unbound parameters ['k', 'l'] do not match its premises"),
    ],
)
def test_an_ill_moded_rule_is_rejected_when_the_table_is_built(sig, bad, message):
    assert _rejected(_with(sig, bad), lit(1)) == message  # no rule of a literal runs: only the table is built


def test_a_bare_output_must_be_where_the_layout_puts_the_output():
    bad = replace(S_ADD, premises=((1, lambda P: (P["n1"], P["e1"])), S_ADD.premises[1]))
    with pytest.raises(ValueError) as exc:
        search(_with(SIZE, bad), 1, None, add(lit(1), lit(2)))
    assert str(exc.value) == "Size.s-add: a premise index does not put 'n1' second"


@pytest.mark.parametrize("layout", [("output", "subject"), ("context", "subject"), "subject", ["subject", "output"]])
def test_a_layout_search_does_not_run_is_rejected_with_the_signature(layout):
    with pytest.raises(ValueError) as exc:
        IndexedSignature("Odd", [], layout)
    layouts = "('context', 'subject', 'output'), ('subject', 'output'), ('subject',)"
    assert str(exc.value) == f"Odd: index layout {layout!r} is not one of {layouts}"


# The step relation's search over applications, generated from E-APP1, E-APP2 and E-BETA.
STEP_APPLY_SEARCH = """\
def search(sig, context, subject):
    rec, payload = subject.root.rec, subject.root.payload
    found = None
    P0 = {'rho': context, 'e1': rec[0], 'e2': rec[1], }
    P0['e1p'] = _OUT
    context0_0, subject0_0, bare = _ix0_0(P0)
    if bare is not _OUT:
        raise _ill_moded(sig, _rule0, 'e1p')
    sub = _table[2, subject0_0.root.ctor](sig, context0_0, subject0_0)
    if sub:
        P0['e1p'], w0_0 = sub
        found = _name0
    P1 = {'rho': context, 'v1': rec[0], 'e2': rec[1], }
    if _side1_0(P1):
        P1['e2p'] = _OUT
        context1_0, subject1_0, bare = _ix1_0(P1)
        if bare is not _OUT:
            raise _ill_moded(sig, _rule1, 'e2p')
        sub = _table[2, subject1_0.root.ctor](sig, context1_0, subject1_0)
        if sub:
            P1['e2p'], w1_0 = sub
            if found is not None:
                raise _overlapping(sig, found, _name1)
            found = _name1
    if (m0 := rec[0].root).ctor == 'closure':
        P2 = {'rho': context, 'v': rec[1], 'eb': m0.rec[0], 'rho0': m0.payload[0], 'p': m0.payload[1], }
        if _side2_0(P2) and _side2_1(P2):
            if found is not None:
                raise _overlapping(sig, found, _name2)
            found = _name2
    if found is None:
        return None
    if found is _name0:
        if (c0 := w0_0.root.conclusion) != (context0_0, subject0_0, P0['e1p'], ):
            raise _child_mismatch(_name0, 0, (context0_0, subject0_0, P0['e1p'], ), w0_0)
        n = _DNode_twin()
        n.sig = sig
        n.family = 2
        n.rule = _name0
        n.params = (('rho', P0['rho']), ('e1', P0['e1']), ('e1p', P0['e1p']), ('e2', P0['e2']), )
        n.premises = ((2, c0, w0_0), )
        n.conclusion = _at0(P0, subject)
        n.__class__ = _DNode_class
        d = _Derivation_twin()
        d.sig = sig
        d.root = n
        d._certified = True
        d.__class__ = _Derivation_class
        return n.conclusion[2], d
    if found is _name1:
        if (c0 := w1_0.root.conclusion) != (context1_0, subject1_0, P1['e2p'], ):
            raise _child_mismatch(_name1, 0, (context1_0, subject1_0, P1['e2p'], ), w1_0)
        n = _DNode_twin()
        n.sig = sig
        n.family = 2
        n.rule = _name1
        n.params = (('rho', P1['rho']), ('v1', P1['v1']), ('e2', P1['e2']), ('e2p', P1['e2p']), )
        n.premises = ((2, c0, w1_0), )
        n.conclusion = _at1(P1, subject)
        n.__class__ = _DNode_class
        d = _Derivation_twin()
        d.sig = sig
        d.root = n
        d._certified = True
        d.__class__ = _Derivation_class
        return n.conclusion[2], d
    n = _DNode_twin()
    n.sig = sig
    n.family = 2
    n.rule = _name2
    n.params = (('rho', P2['rho']), ('rho0', P2['rho0']), ('p', P2['p']), ('eb', P2['eb']), ('v', P2['v']), )
    n.premises = ()
    n.conclusion = _at2(P2, subject)
    n.__class__ = _DNode_class
    d = _Derivation_twin()
    d.sig = sig
    d.root = n
    d._certified = True
    d.__class__ = _Derivation_class
    return n.conclusion[2], d
"""


def test_the_step_relations_search_over_applications_is_pinned():
    from alacarte.lang_l import EMPTY_ENV, apply_, vr
    from alacarte.lang_l.step import EXP_STEP, STEP_SIG, step_exp

    term = apply_(vr("f"), vr("x"))
    step_exp(EMPTY_ENV, term)
    code = STEP_SIG._search_tables[term.sig][EXP_STEP, term.root.ctor].__code__
    assert "".join(linecache.getlines(code.co_filename)) == STEP_APPLY_SEARCH
