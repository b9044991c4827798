"""Every rule instance the library builds concludes at the term it was built for.

A producer that holds the term a rule instance is about passes it to
``derive``, which checks that it fits the rule's pattern and concludes at
that very object.  Over the first 300 seed-1 ``lang-fuzz`` configurations,
stepped under subject reduction, and a seeded arith corpus, every node that
the builders, the stepper, the typechecker and subject reduction build (every
rule has a subject pattern, ``tof1`` too) has a subject index that ``is`` the
term it was derived for: the root's is the producer's term, and a premise's is the
subject of the index its parent stored for it.  ``derive`` now trusts that
fit check, so each derivation is also copied without its certificates and
the copy must pass ``validate``, which rebuilds every subject from its
pattern; a mutant fit check that accepts any subject is caught so.

The trusted sites that hand ``derive_given`` side conditions they have
established (the typechecker, ``weaken``/``retype_value``, the congruence
cases, the scoped congruences' ``te_env`` and ``D-JOIN3``'s ``TD-ENV``) are
checked the same way: everything they build on that walk, including each
``te_env`` a scoped congruence builds and subject reduction never returns,
is copied without certificates and validated in full, and each child link
is still checked.
"""

import dataclasses
import random
from collections import Counter

import pytest

from alacarte import arith, indexed, testkit
from alacarte.indexed import Derivation, DNode, IndexedSignature, InvalidDerivationError, validate
from alacarte.kernel import Term
from alacarte.lang_l import EMPTY_ENV, Ty, cn, step_dec, step_exp, subject_reduction, typecheck_dec, typecheck_exp
from alacarte.lang_l import preservation
from alacarte.lang_l.typing import TYPING_SIG, TYPOENV_SIG


def _subject(index):
    """The term an index is about: the index itself, or its first term (never an environment)."""
    if isinstance(index, Term):
        return index
    return next((x for x in index if isinstance(x, Term)), None)


def _lang_corpus():
    """``(derivation, term it was derived for)`` over the first 300 seed-1 ``lang-fuzz`` configurations."""
    for c in testkit.gen_well_typed_config(testkit.GenConfig(seed=1, count=300)):
        step, typecheck = (step_dec, typecheck_dec) if c.sort == "dec" else (step_exp, typecheck_exp)
        term, typd = c.term, c.typd
        yield typd, term
        yield typecheck(c.gamma, term)[1], term
        for _ in range(50):
            sub = step(c.rho, term)
            if sub is None:
                break
            succ, stepd = sub
            yield stepd, term
            typd = subject_reduction(c.rho, stepd, c.gamma, c.envd, typd)
            yield typd, succ
            term = succ


def _arith_term(rng, leaves):
    if leaves == 1:
        return arith.lit(rng.randrange(-10**6, 10**6))
    left = rng.randrange(1, leaves)
    return arith.add(_arith_term(rng, left), _arith_term(rng, leaves - left))


def _arith_corpus():
    rng = random.Random(21)
    for i in range(60):
        t = _arith_term(rng, 1 + i % 20)
        for build in (arith.build_eval_derivation, arith.build_typof_derivation, arith.build_istrm):
            yield build(t), t


@pytest.fixture(scope="module")
def corpus():
    return list(_lang_corpus()) + list(_arith_corpus())


def test_every_node_concludes_at_the_term_it_was_derived_for(corpus):
    checked = {}
    for d, term in corpus:
        stack = [(d, term)]
        while stack:
            d, term = stack.pop()
            n = d.root
            assert _subject(n.conclusion) is term, n.rule
            checked[n.rule] = checked.get(n.rule, 0) + 1
            stack.extend((w, _subject(ix)) for _, ix, w in n.premises)
    rules = [
        name
        for sig in (arith.EVAL_SIG, arith.TYPOF_SIG, arith.ISTRM_SIG, *{d.sig for d, _ in corpus})
        for name, r in sig.rules.items()
    ]
    assert sorted(checked) == sorted(set(rules))


def _uncertified(d):
    """A copy of ``d`` in which no derivation is certified."""
    n = d.root
    premises = tuple((fam, ix, _uncertified(w)) for fam, ix, w in n.premises)
    return Derivation(d.sig, DNode(n.sig, n.family, n.rule, n.params, premises, n.conclusion))


def test_every_derivation_copied_without_its_certificates_validates(corpus):
    for d, _ in corpus:
        assert d._certified
        copy = _uncertified(d)
        assert copy == d and not copy._certified
        assert validate(copy), validate(copy).reason


def test_a_fit_check_that_accepts_any_subject_is_caught(monkeypatch):
    wrong = arith.add(arith.lit(1), arith.lit(2))
    with pytest.raises(InvalidDerivationError):
        arith.EVAL_SIG.derive("ev1", {"x": 5}, (), wrong)
    monkeypatch.setattr(indexed, "_fit_src", lambda pattern: "True")
    # fresh copies of the rules, compiled with the mutant check
    mutant = IndexedSignature("Eval", [dataclasses.replace(r) for r in arith.EVAL_SIG.rules.values()])
    d = mutant.derive("ev1", {"x": 5}, (), wrong)
    assert d._certified and d.root.conclusion[0] is wrong
    verdict = validate(_uncertified(d))
    assert not verdict and verdict.reason == "rule ev1: conclusion index mismatch"


def _nodes(d):
    stack, nodes = [d], []
    while stack:
        n = stack.pop().root
        nodes.append(n)
        stack.extend(w for _, _, w in n.premises)
    return nodes


@pytest.fixture(scope="module")
def trusted():
    """What the trusted sites build over the first 300 seed-1 configurations, and the step derivations.

    Each configuration is typechecked, then stepped under subject reduction,
    its successors typechecked too.  Every ``derive_given`` call is kept as
    ``(site, rule, given, args, derivation)``, ``site`` being ``"typecheck"``
    or ``"subject reduction"``, and every ``weaken``/``retype_value`` result
    as ``(name, rule, None, args, derivation)``.
    """
    built, steps, site = [], [], ["typecheck"]

    def spied(sig):
        derive_given = sig.derive_given

        def spy(rule_name, given, *args):
            d = derive_given(rule_name, given, *args)
            built.append((site[0], rule_name, given, (sig, *args), d))
            return d

        return spy

    def moved(name, move):
        def spy(*args):
            d = move(*args)
            built.append((name, d.root.rule, None, args, d))
            return d

        return spy

    with pytest.MonkeyPatch.context() as mp:
        for sig in (TYPING_SIG, TYPOENV_SIG):
            mp.setitem(vars(sig), "derive_given", spied(sig))
        for name in ("weaken", "retype_value"):
            mp.setattr(preservation, name, moved(name, getattr(preservation, name)))
        for c in testkit.gen_well_typed_config(testkit.GenConfig(seed=1, count=300)):
            step, typecheck = (step_dec, typecheck_dec) if c.sort == "dec" else (step_exp, typecheck_exp)
            term, typd = c.term, c.typd
            for _ in range(50):
                site[0] = "typecheck"
                typecheck(c.gamma, term)
                sub = step(c.rho, term)
                if sub is None:
                    break
                term, stepd = sub
                steps.append(stepd)
                site[0] = "subject reduction"
                typd = subject_reduction(c.rho, stepd, c.gamma, c.envd, typd)
    return built, steps


def test_everything_the_trusted_sites_build_validates_without_its_certificates(trusted):
    built, _ = trusted
    for site, rule_name, given, _, d in built:
        assert d._certified
        verdict = validate(_uncertified(d))
        assert verdict, (site, rule_name, given, verdict.reason)
    kinds = Counter((site, rule_name, given) for site, rule_name, given, _, _ in built)
    for kind in [
        ("typecheck", "T-CLOS", ("envtyping", "pattype")),
        ("typecheck", "TD-ENV", ("envtyping",)),
        ("typecheck", "TD-MATCH", ("pattype",)),
        ("subject reduction", "T-CLOS", ("envtyping", "pattype")),  # moved by weaken and retype_value
        ("subject reduction", "TD-MATCH", ("pattype",)),  # the congruence and weaken
        ("subject reduction", "TD-ENV", ("envtyping",)),  # D-JOIN3 and weaken
        ("subject reduction", "te_env", ("pointwise",)),  # the scoped congruences
    ]:
        assert kinds[kind] > 20, kind
    moves = Counter(site for site, *_ in built if site in ("weaken", "retype_value"))
    assert moves["weaken"] > 20 and moves["retype_value"] > 20


def test_every_scoped_congruence_te_env_and_d_join3_td_env_is_among_them(trusted):
    built, steps = trusted
    nodes = [n for d in steps for n in _nodes(d)]
    scoped = sum(n.rule in ("E-SCOPE2", "D-JOIN2") for n in nodes)
    te_envs = [given for site, rule_name, given, _, _ in built if site == "subject reduction" and rule_name == "te_env"]
    assert scoped > 50 and te_envs == [("pointwise",)] * scoped
    joined = {id(n.conclusion[2]) for n in nodes if n.rule == "D-JOIN3"}
    typed = {id(d.root.conclusion[1]) for site, rule_name, given, _, d in built if site == "subject reduction" and rule_name == "TD-ENV"}
    assert len(joined) > 50 and joined <= typed


def test_the_given_entry_keeps_each_child_link(trusted):
    built, _ = trusted
    _, elsewhere = typecheck_exp(EMPTY_ENV, cn("elsewhere", Ty("a")))
    checked = set()
    for site, rule_name, given, args, d in built:
        if given and d.root.premises and (rule_name, given) not in checked:
            checked.add((rule_name, given))
            sig, params, witnesses, subject = args
            with pytest.raises(InvalidDerivationError) as exc:
                sig.derive_given(rule_name, given, params, (elsewhere, *witnesses[1:]), subject)
            assert str(exc.value).startswith(f"rule {rule_name}: premise 0 expects conclusion ")
    assert checked == {("T-CLOS", ("envtyping", "pattype")), ("TD-MATCH", ("pattype",))}
