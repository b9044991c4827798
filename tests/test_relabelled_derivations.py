"""A derivation's relation and family are its root's: relabelled wrappers never validate.

A wrapper (``Derivation``) names a signature, and its root node names one
too.  The checker must read the root's, and must reject a wrapper whose
signature is not its root's, or else a derivation of one relation passes as
evidence for another: the forgeries below concluded ``(add (lit 1) (lit 2))
⇓ 101`` and "even 1" before the checker compared the two.
"""

import dataclasses

import pytest

from alacarte import arith, testkit
from alacarte.arith import EVAL_SIG, TYPOF_SIG, Val, add, lit
from alacarte.indexed import (
    Derivation,
    IndexedSignature,
    InvalidDerivationError,
    din,
    rule,
    validate,
)
from alacarte.lang_l import STEP_SIG, TYPING_SIG, step_dec, step_exp
from alacarte.mutual import BiDerivation, BiDNode, IndexedBiSignature, birule, din_bi, validate_bi

# a relation that concludes any (term, value) pair from nothing
OTHER = IndexedSignature("Other", [rule("claim", params=("e", "v"), conclusion=lambda P: (P["e"], P["v"]))])


# even (family 1) and odd (family 2) naturals
PARITY = IndexedBiSignature(
    "Parity",
    [
        birule(1, "even-z", conclusion=lambda P: 0),
        birule(1, "even-s", params=("n",), premises=((2, lambda P: P["n"]),), conclusion=lambda P: P["n"] + 1),
        birule(2, "odd-s", params=("n",), premises=((1, lambda P: P["n"]),), conclusion=lambda P: P["n"] + 1),
    ],
)


def _claim(e, v):
    """A root of ``OTHER`` concluding ``(e, v)``: an ``Eval`` index, but no evaluation."""
    return OTHER.dnode("claim", {"e": e, "v": v})


def _verdict(v):
    return v.ok, v.path, v.reason


# ---------------------------------------------------------------------------
# the forgeries


def test_an_eval_witness_with_another_relations_root_is_rejected():
    forged = Derivation(EVAL_SIG, _claim(lit(1), Val(99)))
    params = {"e1": lit(1), "e2": lit(2), "x1": Val(99), "x2": Val(2), "v": Val(101)}
    node = EVAL_SIG.dnode("ev2", params, (forged, arith.build_eval_derivation(lit(2))))
    reason = "rule ev2: premise 0 witness is not a derivation"
    with pytest.raises(InvalidDerivationError) as exc:
        din(node)
    assert str(exc.value) == reason
    assert _verdict(validate(Derivation(EVAL_SIG, node))) == (False, (), reason)
    hand = dataclasses.replace(node)  # unstamped: the checker's full path
    assert _verdict(validate(Derivation(EVAL_SIG, hand))) == (False, (), reason)
    nested = EVAL_SIG.dnode(
        "ev2",
        {"e1": add(lit(1), lit(2)), "e2": lit(0), "x1": Val(101), "x2": Val(0), "v": Val(101)},
        (Derivation(EVAL_SIG, hand), arith.build_eval_derivation(lit(0))),
    )
    assert _verdict(validate(Derivation(EVAL_SIG, nested))) == (False, (0,), reason)


def test_a_derivation_whose_root_is_another_relations_is_rejected():
    forged = Derivation(EVAL_SIG, _claim(lit(1), Val(99)))
    reason = "derivation of Eval has a root of Other"
    assert _verdict(validate(forged)) == (False, (), reason)
    with pytest.raises(InvalidDerivationError) as exc:
        arith.eval_of_derivation(forged)
    assert str(exc.value) == reason
    with pytest.raises(InvalidDerivationError) as exc:
        arith.preservation(forged, arith.build_typof_derivation(lit(1)))
    assert str(exc.value) == reason
    typing_root = arith.build_typof_derivation(lit(1)).root
    verdict = validate(Derivation(EVAL_SIG, typing_root))
    assert _verdict(verdict) == (False, (), "derivation of Eval has a root of TypOf")


def test_even_one_from_odd_zero_is_rejected():
    zero = din_bi(PARITY.dnode("even-z", {}))  # even 0, family 1
    forged = BiDerivation(PARITY, zero.root)  # offered as "odd 0"
    node = PARITY.dnode("even-s", {"n": 0}, (forged,))
    reason = "rule even-s: premise 0 witness is not a family-2 derivation"
    with pytest.raises(InvalidDerivationError) as exc:
        din_bi(node)
    assert str(exc.value) == reason
    hand = BiDNode(node.sig, node.family, node.rule, node.params, node.premises, node.conclusion)
    for root in (node, hand):
        verdict = validate_bi(BiDerivation(PARITY, root))
        assert _verdict(verdict) == (False, (), reason)


# ---------------------------------------------------------------------------
# a root that is no rule instance gets a verdict, not an AttributeError


def test_validate_rejects_a_root_that_is_no_rule_instance():
    reason = "derivation of Eval has no rule instance at its root"
    assert _verdict(validate(Derivation(EVAL_SIG, "x"))) == (False, (), reason)
    bad = Derivation(EVAL_SIG, "x")
    node = EVAL_SIG.dnode(
        "ev2",
        {"e1": lit(1), "e2": lit(2), "x1": Val(1), "x2": Val(2), "v": Val(3)},
        (bad, arith.build_eval_derivation(lit(2))),
    )
    reason = "rule ev2: premise 0 witness is not a derivation"
    for root in (node, dataclasses.replace(node)):  # stamped, then checked in full
        assert _verdict(validate(Derivation(EVAL_SIG, root))) == (False, (), reason)


def test_validate_bi_rejects_a_root_that_is_no_rule_instance():
    reason = "derivation of Parity has no rule instance at its root"
    assert _verdict(validate_bi(BiDerivation(PARITY, None))) == (False, (), reason)
    node = PARITY.dnode("odd-s", {"n": 0}, (BiDerivation(PARITY, 0),))
    reason = "rule odd-s: premise 0 witness is not a family-1 derivation"
    hand = BiDNode(node.sig, node.family, node.rule, node.params, node.premises, node.conclusion)
    for root in (node, hand):
        assert _verdict(validate_bi(BiDerivation(PARITY, root))) == (False, (), reason)


def test_din_rejects_a_witness_whose_root_is_no_rule_instance():
    params = {"e1": lit(1), "e2": lit(2), "x1": Val(1), "x2": Val(2), "v": Val(3)}
    node = EVAL_SIG.dnode("ev2", params, (Derivation(EVAL_SIG, "x"), arith.build_eval_derivation(lit(2))))
    for root in (node, dataclasses.replace(node)):  # the compiled check, then the generic one
        with pytest.raises(InvalidDerivationError) as exc:
            din(root)
        assert str(exc.value) == "rule ev2: premise 0 witness is not a derivation"


def test_din_bi_rejects_a_witness_whose_root_is_no_rule_instance():
    node = PARITY.dnode("even-s", {"n": 0}, (BiDerivation(PARITY, "odd 0"),))
    hand = BiDNode(node.sig, node.family, node.rule, node.params, node.premises, node.conclusion)
    for root in (node, hand):
        with pytest.raises(InvalidDerivationError) as exc:
            din_bi(root)
        assert str(exc.value) == "rule even-s: premise 0 witness is not a family-2 derivation"


# ---------------------------------------------------------------------------
# property: relabelling any one wrapper of a valid derivation invalidates it


def _unstamped(d):
    """A copy of ``d`` with no stamp and no certificate, so every node is checked in full."""
    root = d.root
    premises = tuple((*p[:-1], _unstamped(p[-1])) for p in root.premises)
    return dataclasses.replace(d, root=dataclasses.replace(root, premises=premises))


def _paths(d, path=()):
    yield path
    for i, premise in enumerate(d.root.premises):
        yield from _paths(premise[-1], path + (i,))


def _relabel(d, path, sig):
    """``d`` with the wrapper at ``path`` naming ``sig`` instead of its root's signature."""
    if not path:
        return dataclasses.replace(d, sig=sig)
    i, rest = path[0], path[1:]
    premises = list(d.root.premises)
    premises[i] = (*premises[i][:-1], _relabel(premises[i][-1], rest, sig))
    return dataclasses.replace(d, root=dataclasses.replace(d.root, premises=tuple(premises)))


def _at(d, path):
    for i in path:
        d = d.root.premises[i][-1]
    return d


def _expected(d, path, sig):
    """The verdict on ``d`` with the wrapper at ``path`` relabelled to ``sig``."""
    if not path:
        return False, (), f"derivation of {sig.name} has a root of {d.sig.name}"
    parent = _at(d, path[:-1]).root
    i = path[-1]
    family = parent.shape[i][0]
    witness = "a derivation" if type(d.sig) is IndexedSignature else f"a family-{family} derivation"
    return False, path[:-1], f"rule {parent.rule}: premise {i} witness is not {witness}"


def _arith_cases():
    terms = testkit.enumerate_terms(testkit.arith_enum(2))
    for t in terms:
        yield arith.build_eval_derivation(t), TYPOF_SIG
        yield arith.build_typof_derivation(t), EVAL_SIG
        yield arith.build_istrm(t), EVAL_SIG


def _lang_cases():
    for config in testkit.gen_well_typed_config(testkit.GenConfig(seed=5, count=50)):
        yield config.typd, STEP_SIG
        stepper = step_dec if config.sort == "dec" else step_exp
        sub = stepper(config.rho, config.term)
        if sub is not None:
            yield sub[1], TYPING_SIG


# the arith cases are all 90 wrappers of 36 derivations; the lang cases 299 of 83
@pytest.mark.parametrize("cases, check, least", [(_arith_cases, validate, 90), (_lang_cases, validate_bi, 250)])
def test_relabelling_any_one_wrapper_fails_at_its_parent(cases, check, least):
    checked = 0
    for d, other in cases():
        copy = _unstamped(d)
        assert check(copy) and not copy._certified
        for path in _paths(copy):
            verdict = check(_relabel(copy, path, other))
            assert _verdict(verdict) == _expected(copy, path, other), path
            checked += 1
    assert checked >= least
