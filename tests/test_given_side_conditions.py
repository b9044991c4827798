"""The trusted entry ``derive_given`` and the side conditions its callers establish.

``IndexedSignature.derive_given(rule, given, params, witnesses, subject)``
is ``derive`` without the side conditions labelled in ``given``, which its
caller vouches for: the typechecker has just computed them; the typing
transport (``weaken``/``retype_value``) moves a certified node without
changing a parameter they read; a congruence case of subject reduction
rebuilds a certified typing around its stepped child, which none reads; and
the scoped congruence and ``D-JOIN3`` cases rely on the pointwise lemma
``env_typing(a ⊕ b) = env_typing(a) ⊕ env_typing(b)``, checked here as a
law.  Everything else runs as in ``derive``, with its messages; a label the
rule does not have is rejected; the entry is compiled on first use, for the
rules that call it only.  Over the 3,000 seed-1 ``lang-fuzz``
configurations stepped under subject reduction, ``env_typing`` runs at most
2,000 times and ``pat_type`` at most 150 (5,550 and 2,240 when every
``derive`` ran them again).
"""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from test_shared_subjects import _uncertified

from alacarte import testkit
from alacarte.indexed import Derivation, DNode, InvalidDerivationError
from alacarte.kernel import Term
from alacarte.lang_l import (
    EMPTY_ENV,
    Arrow,
    Env,
    PVar,
    Ty,
    apply_,
    closure,
    cn,
    env_,
    env_union,
    match_,
    typecheck_dec,
    typecheck_exp,
    vr,
)
from alacarte.lang_l import typing as ltyping
from alacarte.lang_l.typing import TYPING_SIG, TYPOENV_SIG, env_typing, retype_value, weaken
from alacarte.mutual import validate_bi

TY_A = Ty("a")
CLOSURE = closure(Env([("y", cn("c", TY_A))]), PVar("x", TY_A), vr("y"))


def _counted(monkeypatch, *names):
    """Count the calls of each named function of the typing module, recursive ones included."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        f = getattr(ltyping, name)

        def counted(*args, f=f, name=name):
            counts[name] += 1
            return f(*args)

        monkeypatch.setattr(ltyping, name, counted)
    return counts


@pytest.mark.parametrize(
    "sig, rule, label",
    [(TYPING_SIG, "T-VAR", "envtyping"), (TYPING_SIG, "T-CLOS", "bound"), (TYPOENV_SIG, "te_env", "pattype")],
)
def test_a_label_the_rule_does_not_have_is_rejected_naming_the_rule_and_the_label(sig, rule, label):
    for _ in range(2):  # nothing is kept for a rejected label
        with pytest.raises(ValueError) as exc:
            sig.derive_given(rule, (label,), {})
        assert str(exc.value) == f"rule {rule!r} has no side condition {label!r}"
    assert (label,) not in vars(sig.rules[rule]).get("_given", {})


def _closure_typing():
    t, td = typecheck_exp(EMPTY_ENV, CLOSURE)
    return td, td.root.params_dict(), tuple(w for _, _, w in td.root.premises)


@pytest.mark.parametrize(
    "given, wrong, failed",
    [(("pattype",), {"gamma0": Env([("y", Ty("b"))])}, "envtyping"), (("envtyping",), {"t1": Ty("b")}, "pattype")],
)
def test_a_side_condition_the_caller_does_not_vouch_for_still_runs(given, wrong, failed):
    td, P, witnesses = _closure_typing()
    for entry in (lambda: TYPING_SIG.derive("T-CLOS", {**P, **wrong}, witnesses, CLOSURE),
                  lambda: TYPING_SIG.derive_given("T-CLOS", given, {**P, **wrong}, witnesses, CLOSURE)):
        with pytest.raises(InvalidDerivationError) as exc:
            entry()
        assert str(exc.value) == f"rule T-CLOS: side condition {failed!r} failed"


def test_everything_but_the_given_side_conditions_runs_as_derive_runs_it():
    td, P, witnesses = _closure_typing()
    given = ("envtyping", "pattype")
    assert TYPING_SIG.derive_given("T-CLOS", given, P, witnesses, CLOSURE) == td
    _, other = typecheck_exp(EMPTY_ENV, cn("d", TY_A))
    wrongs = [
        ({k: v for k, v in P.items() if k != "t2"}, witnesses, CLOSURE),  # the parameter set
        (P, (), CLOSURE),  # the witness count
        (P, witnesses, closure(EMPTY_ENV, PVar("x", TY_A), vr("y"))),  # the subject fit
        (P, ("not a derivation",), CLOSURE),  # the witness
        (P, (other,), CLOSURE),  # the child link
        ({**P, "t2": Ty("b")}, witnesses, CLOSURE),  # the index expressions, through the child link
    ]
    for params, ws, subject in wrongs:
        with pytest.raises(InvalidDerivationError) as expected:
            TYPING_SIG.derive("T-CLOS", params, ws, subject)
        with pytest.raises(InvalidDerivationError) as exc:
            TYPING_SIG.derive_given("T-CLOS", given, params, ws, subject)
        assert (type(exc.value), str(exc.value)) == (type(expected.value), str(expected.value))
    # certified only when every witness is
    d = TYPING_SIG.derive_given("T-CLOS", given, P, tuple(map(_uncertified, witnesses)), CLOSURE)
    assert d == td and not d._certified and validate_bi(d)


@pytest.mark.parametrize("move", [weaken, retype_value], ids=["weaken", "retype_value"])
def test_a_move_vouches_only_for_a_certified_typing(move):
    td, P, witnesses = _closure_typing()
    n = td.root
    forged = Derivation(TYPING_SIG, DNode(n.sig, n.family, n.rule, tuple({**P, "t1": Ty("b")}.items()), n.premises, n.conclusion))
    assert not forged._certified
    with pytest.raises(InvalidDerivationError) as exc:
        move(EMPTY_ENV, forged)
    assert str(exc.value) == "rule T-CLOS: side condition 'pattype' failed"
    assert move(EMPTY_ENV, _uncertified(td)) == move(EMPTY_ENV, td)


def test_the_entry_is_compiled_on_first_use_for_the_rules_that_call_it():
    script = textwrap.dedent(
        """
        import alacarte.lang_l
        from alacarte.lang_l import EMPTY_ENV, Env, PVar, Ty, closure, cn, typecheck_exp, vr
        from alacarte.lang_l.typing import TYPING_SIG, TYPOENV_SIG

        rules = [r for sig in (TYPING_SIG, TYPOENV_SIG) for r in sig.rules.values()]
        report = lambda: print(sorted(r.name for r in rules if "compiled" in vars(r)),
                               sorted((r.name, k) for r in rules for k in vars(r).get("_given", {})))
        report()
        typecheck_exp(EMPTY_ENV, closure(Env([("y", cn("c", Ty("a")))]), PVar("x", Ty("a")), vr("y")))
        report()
        print(TYPING_SIG.rules["T-CLOS"]._given[("envtyping", "pattype")].__qualname__)
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == [
        "[] []",
        "['T-VAR'] [('T-CLOS', ('envtyping', 'pattype'))]",
        "Rule('T-CLOS').derive_given",
    ]


@pytest.mark.parametrize(
    "typecheck, term, runs",
    [
        (typecheck_exp, CLOSURE, {"env_typing": 1, "pat_type": 1}),
        (typecheck_dec, env_(Env([("y", cn("c", TY_A))])), {"env_typing": 1, "pat_type": 0}),
        (typecheck_dec, match_(PVar("z", TY_A), cn("c", TY_A)), {"env_typing": 0, "pat_type": 1}),
    ],
    ids=["T-CLOS", "TD-ENV", "TD-MATCH"],
)
def test_the_typechecker_runs_each_side_condition_it_computes_once(monkeypatch, typecheck, term, runs):
    counts = _counted(monkeypatch, "env_typing", "pat_type")
    _, td = typecheck(EMPTY_ENV, term)
    assert counts == runs
    assert td._certified and td.root.conclusion[1] is term


def test_env_typing_and_pat_type_run_within_their_budget_over_the_fuzz_corpus(monkeypatch):
    corpus = testkit.gen_well_typed_config(testkit.GenConfig(seed=1, count=3000))
    counts = _counted(monkeypatch, "env_typing", "pat_type")
    steps = 0
    for c in corpus:
        n, counterexample = testkit.check_configuration(c, 50)
        assert counterexample is None
        steps += n
    assert steps > 4000
    assert counts["env_typing"] <= 2000 and counts["pat_type"] <= 150, counts


# ---------------------------------------------------------------------------
# the pointwise lemma, on which the scoped congruence and ``D-JOIN3`` cases rely


def _check_pointwise(a, b) -> bool:
    """``env_typing(a ⊕ b) == env_typing(a) ⊕ env_typing(b)`` if both sides type; whether they did."""
    left, right = env_typing(a), env_typing(b)
    if left is None or right is None:
        return False
    assert env_typing(env_union(a, b)) == env_union(left, right)
    return True


def _environments(terms):
    """Every environment the terms hold (closure environments and ``env`` declarations), nested ones too."""
    found, stack = [], list(terms)
    while stack:
        x = stack.pop()
        if isinstance(x, Env):
            found.append(x)
            stack.extend(v for _, v in x.items())
        elif isinstance(x, Term):
            stack.extend(x.root.rec)
            stack.extend(p for p in x.root.payload if isinstance(p, Env))
    return found


def test_the_pointwise_lemma_holds_over_the_environments_of_the_fuzz_corpus():
    corpus = testkit.gen_well_typed_config(testkit.GenConfig(seed=1, count=300))
    envs = [c.rho for c in corpus] + _environments(c.term for c in corpus)
    pairs = [(a, b) for k in (0, 1, 7) for a, b in zip(envs, envs[k:])]
    checked = [(a, b) for a, b in pairs if _check_pointwise(a, b)]
    shared = [(a, b) for a, b in checked if set(a.domain()) & set(b.domain()) and a != b]
    assert len(checked) > 1000 and len(shared) > 100


_UNTYPABLE = (apply_(cn("c", Arrow(TY_A, TY_A)), cn("d", Ty("b"))), closure(EMPTY_ENV, PVar("y", TY_A), vr("u")))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    depth=st.integers(0, 3),
    shared=st.booleans(),
    bad=st.sampled_from((None,) + _UNTYPABLE),
    bad_right=st.booleans(),
)
def test_the_pointwise_lemma_holds_over_generated_environments(seed, sizes, depth, shared, bad, bad_right):
    gen = testkit._Gen(random.Random(seed))
    a, b = (gen.value_env(size, depth) for size in sizes)
    if shared and a.items():  # ``b`` rebinds a name of ``a``, and wins
        b = Env([*b.items(), (a.domain()[0], gen.value(gen.typ(1), depth))])
    if bad is not None:
        a, b = (a, Env([*b.items(), ("bad", bad)])) if bad_right else (Env([*a.items(), ("bad", bad)]), b)
    assert _check_pointwise(a, b) == (bad is None)
