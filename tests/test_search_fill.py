"""``search`` fills the node of the rule that applies itself, checking nothing its matching checked.

A search matches a rule's pattern, runs its side conditions and reads each
premise index, and then fills that rule's node and derivation in its own
body instead of handing them to the rule's ``derive``.  Here, over
``EVAL_SIG``, the ``Size`` and ``Zero`` relations of ``test_search_modes.py``
and a seeded walk of the step relation, each side condition and each
premise index expression runs exactly once for every node a search builds,
and no rule's compiled ``derive`` runs at all.  Over the 3,000 seed-1
configurations of the ``lang-fuzz`` workload, stepped under subject
reduction, ``patmatch`` runs at most twice per ``E-BETA``/``D-MATCH``
instance.

What the matching cannot vouch for is still checked, as ``derive`` checks
it: a dotted slot (``"v.vv"``) binds nothing, so a definition that
disagrees with it is rejected with ``derive``'s message, and a child whose
rule concludes somewhere other than the index its premise asked for breaks
the child link, as it does under ``derive``.  Neither ends in a certified
derivation that ``validate`` would accept.
"""

from dataclasses import replace

import pytest
from test_search_modes import SIZE, ZERO

from alacarte import arith, testkit
from alacarte.arith import N, Val, _add, _lit, add, lit
from alacarte.indexed import IndexedSignature, InvalidDerivationError, _AtSubject, rule, search, validate
from alacarte.lang_l import subject_reduction
from alacarte.lang_l import step as step_module
from alacarte.lang_l.step import DEC_STEP, EXP_STEP, STEP_SIG


def _derive_ran(*args):
    raise AssertionError("a rule's compiled derive ran inside a search")


def _spied(sig, calls):
    """A copy of ``sig`` whose side conditions, premise indices and conclusions record the ``P`` they ran on.

    ``calls`` gets ``(what, rule name, P)`` for each call.  Each copied
    rule's compiled ``derive`` is a trap, so a search that
    calls either fails.
    """

    def spy(what, name, f):
        def recorded(P, *rest):
            calls.append((what, name, P))
            return f(P, *rest)

        return recorded

    rules = []
    for r in sig.rules.values():
        at = r.conclusion
        conclusion = _AtSubject(at.pattern, spy("conclusion", r.name, at.at)) if isinstance(at, _AtSubject) else spy("conclusion", r.name, at)
        copy = replace(
            r,
            side_conditions=tuple((label, spy(("side", label), r.name, p)) for label, p in r.side_conditions),
            premises=tuple((fam, spy(("index", i), r.name, ix)) for i, (fam, ix) in enumerate(r.premises)),
            conclusion=conclusion,
        )
        copy.__dict__["compiled"] = _derive_ran
        rules.append(copy)
    return type(sig)(sig.name, rules, sig.layout)


def _nodes(d):
    stack, nodes = [d], []
    while stack:
        n = stack.pop().root
        nodes.append(n)
        stack.extend(w for _, _, w in n.premises)
    return nodes


def _check_once_per_node(sig, calls, derivations):
    """Each node was concluded once, and on its ``P`` each side condition and premise index ran once."""
    nodes = [n for d in derivations for n in _nodes(d)]
    built = {id(P): (name, P) for what, name, P in calls if what == "conclusion"}
    assert len(built) == len(nodes) == sum(what == "conclusion" for what, _, _ in calls)
    ran = {}
    for what, name, P in calls:
        if id(P) in built and what != "conclusion":
            assert built[id(P)][0] == name
            ran[id(P), what] = ran.get((id(P), what), 0) + 1
    for key, (name, P) in built.items():
        r = sig.rules[name]
        expected = [("side", label) for label, _ in r.side_conditions] + [("index", i) for i in range(len(r.premises))]
        assert {what: ran.get((key, what), 0) for what in expected} == {what: 1 for what in expected}, name
    return {n.rule for n in nodes}


def _arith_terms():
    return [lit(7), add(lit(1), lit(2)), add(add(lit(1), lit(-4)), add(lit(0), add(lit(5), lit(6))))]


@pytest.mark.parametrize(
    "sig, terms",
    [
        (arith.EVAL_SIG, _arith_terms()),
        (SIZE, _arith_terms()),
        (ZERO, [lit(0), add(lit(0), lit(0)), add(add(lit(0), lit(0)), lit(0))]),
    ],
    ids=["Eval", "Size", "Zero"],
)
def test_each_side_condition_and_premise_index_runs_once_per_node_a_search_builds(sig, terms):
    calls = []
    spied = _spied(sig, calls)
    derivations = [search(spied, 1, None, t)[1] for t in terms]
    assert _check_once_per_node(spied, calls, derivations) == set(sig.rules)


def test_each_side_condition_and_premise_index_runs_once_per_node_of_a_step_walk():
    calls = []
    spied = _spied(STEP_SIG, calls)
    derivations = []
    for c in testkit.gen_well_typed_config(testkit.GenConfig(seed=1, count=300)):
        term, family = c.term, DEC_STEP if c.sort == "dec" else EXP_STEP
        for _ in range(50):
            sub = search(spied, family, c.rho, term)
            if sub is None:
                break
            term, d = sub
            derivations.append(d)
    assert _check_once_per_node(spied, calls, derivations) == set(STEP_SIG.rules)


def test_patmatch_runs_at_most_twice_per_beta_and_match_instance(monkeypatch):
    matched = []
    patmatch = step_module.patmatch

    def counted(p, v):
        m = patmatch(p, v)
        matched.append(m is not None)
        return m

    monkeypatch.setattr(step_module, "patmatch", counted)
    instances = 0
    for c in testkit.gen_well_typed_config(testkit.GenConfig(seed=1, count=3000)):
        step = step_module.step_dec if c.sort == "dec" else step_module.step_exp
        term, typd = c.term, c.typd
        for _ in range(50):
            sub = step(c.rho, term)
            if sub is None:
                break
            term, d = sub
            instances += sum(n.rule in ("E-BETA", "D-MATCH") for n in _nodes(d))
            typd = subject_reduction(c.rho, d, c.gamma, c.envd, typd)
    # a call that matches belongs to an instance; one that does not leaves the configuration stuck
    assert instances > 1000 and sum(matched) <= 2 * instances


def _typof_with(v_of_literal):
    """``TypOf`` whose literal rule defines ``v`` by ``v_of_literal``, the dotted slot ``"v.vv"`` unchanged."""
    tof1 = replace(arith.TYPOF_SIG.rules["tof1"], defines=(("v", lambda P, s: Val(v_of_literal(s.root.payload[0]))),))
    return IndexedSignature("Off", [tof1, arith.TYPOF_SIG.rules["tof2"]], layout=("subject", "output"))


def test_a_definition_that_disagrees_with_its_dotted_slot_is_rejected_as_derive_rejects_it():
    out, d = search(_typof_with(lambda x: x), 1, None, lit(3))
    assert out is N and d.root.params == (("v", Val(3)),) and validate(d)
    off = _typof_with(lambda x: x + 1)
    for t in (lit(3), add(lit(1), lit(2))):
        with pytest.raises(InvalidDerivationError) as exc:
            search(off, 1, None, t)
        assert str(exc.value) == "Off.tof1: the subject does not fit the rule's pattern"
    # ``derive`` itself, given the same node, says the same
    with pytest.raises(InvalidDerivationError) as exc:
        off.derive("tof1", {"v": Val(4)}, (), lit(3))
    assert str(exc.value) == "Off.tof1: the subject does not fit the rule's pattern"


# Two rules over additions: the first reads a nested literal's payload through a dotted slot; the
# second's pattern names a nested node too, at the other slot, and never applies here.
LEFT = IndexedSignature(
    "Left",
    [
        rule("l-lit", params=("x",), subject=(_lit, "x"), conclusion=lambda P, s: (s, P["x"])),
        rule(
            "l-add",
            params=("e2", "v"),
            define=(("v", lambda P, s: Val(s.root.rec[0].root.payload[0])),),
            subject=(_add, (_lit, "v.vv"), "e2"),
            conclusion=lambda P, s: (s, P["v"].vv),
        ),
        rule(
            "l-add-add",
            params=("e1", "a", "b"),
            subject=(_add, "e1", (_add, "a", "b")),
            conclusion=lambda P, s: (s, 0),
        ),
    ],
    layout=("subject", "output"),
)


def test_a_nested_dotted_slot_is_tested_at_its_own_node_after_later_candidates_ran():
    out, d = search(LEFT, 1, None, t := add(lit(4), lit(9)))
    assert out == 4 and d.root.rule == "l-add" and d.root.conclusion[0] is t and validate(d)
    wrong = replace(LEFT.rules["l-add"], defines=(("v", lambda P, s: Val(9)),))
    left = IndexedSignature("Left", [wrong if r.name == "l-add" else r for r in LEFT.rules.values()], LEFT.layout)
    with pytest.raises(InvalidDerivationError) as exc:
        search(left, 1, None, t)
    assert str(exc.value) == "Left.l-add: the subject does not fit the rule's pattern"


def _misplaced(sig, name):
    """``sig`` with rule ``name`` concluding at ``lit(-1)`` rather than at its subject."""
    r = sig.rules[name]
    moved = replace(r, conclusion=_AtSubject(r.subject, lambda P, s, at=r.conclusion.at: (lit(-1), *at(P, s)[1:])))
    return IndexedSignature(sig.name, [moved if x is r else x for x in sig.rules.values()], sig.layout)


@pytest.mark.parametrize(
    "sig, leaf, parent, child, output",
    [(SIZE, "s-lit", "s-add", lit(5), 1), (ZERO, "z-lit", "z-add", lit(0), 0)],
    ids=["bound-output", "fixed-output"],
)
def test_a_child_that_concludes_away_from_its_premise_index_breaks_the_link(sig, leaf, parent, child, output):
    sig = _misplaced(sig, leaf)
    out, d = search(sig, 1, None, child)  # a root may conclude where its rule says
    assert d.root.conclusion == (lit(-1), output) and validate(d)
    with pytest.raises(InvalidDerivationError) as exc:
        search(sig, 1, None, add(child, child))
    expected = f"premise 0 expects conclusion {(child, output)!r}, child concludes {(lit(-1), output)!r}"
    assert str(exc.value) == f"rule {parent}: {expected}"
