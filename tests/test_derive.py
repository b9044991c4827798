"""``IndexedSignature.derive`` is ``din(sig.dnode(...))`` in one call.

For every rule of the library's signatures it builds the same derivation
with the same certificate and rejects with the same exception and message.
It runs each index expression once, then the side conditions in their
order.  Given the term a rule instance is about, it concludes at that term,
and rejects one that does not fit the rule's pattern.  The seed-42
derivations the stepper and subject reduction build are pinned by digest.
"""

import dataclasses
import hashlib
import json

import pytest

from alacarte import arith, testkit
from alacarte.indexed import Derivation, InvalidDerivationError, din
from alacarte.kernel import Term
from alacarte.lang_l import (
    EMPTY_ENV,
    PApp,
    PCon,
    PVar,
    STEP_SIG,
    TYPING_SIG,
    Arrow,
    Ty,
    build_typopat,
    cn,
    env_,
    step_dec,
    step_exp,
    subject_reduction,
)
from alacarte.lang_l.step import step_derivation_json
from alacarte.lang_l.typing import TYPOENV_SIG, TYPOPAT_SIG, typing_derivation_json

SIGS = (
    STEP_SIG,
    TYPING_SIG,
    TYPOENV_SIG,
    TYPOPAT_SIG,
    arith.EVAL_SIG,
    arith.TYPOF_SIG,
    arith.ISTRM_SIG,
)
PER_RULE = 4  # instances kept per rule


def _collect(found, d):
    stack = [d]
    while stack:
        d = stack.pop()
        kept = found[d.sig].setdefault(d.root.rule, [])
        if len(kept) < PER_RULE and d not in kept:
            kept.append(d)
        stack.extend(w for _, _, w in d.root.premises)


@pytest.fixture(scope="module")
def instances():
    """Up to ``PER_RULE`` derivations of each rule, by signature and rule name."""
    found = {sig: {} for sig in SIGS}
    patterns = []
    for c in testkit.gen_well_typed_config(testkit.GenConfig(seed=5, count=80)):
        _collect(found, c.envd)
        _collect(found, c.typd)
        step = step_dec if c.sort == "dec" else step_exp
        term, typd = c.term, c.typd
        for _ in range(20):
            sub = step(c.rho, term)
            if sub is None:
                break
            term, stepd = sub
            typd = subject_reduction(c.rho, stepd, c.gamma, c.envd, typd)
            _collect(found, stepd)
            _collect(found, typd)
    for typing in found[TYPING_SIG].values():
        patterns += [d.root.params_dict()["p"] for d in typing if "p" in d.root.params_dict()]
    ty_a, ty_b = Ty("a"), Ty("b")
    patterns.append(PApp(PCon("c", Arrow(ty_a, ty_b)), PVar("x", ty_a)))
    for p in patterns:
        _collect(found, build_typopat(p))
    for t in (arith.lit(3), arith.add(arith.add(arith.lit(1), arith.lit(-2)), arith.lit(5))):
        for build in (arith.build_eval_derivation, arith.build_typof_derivation, arith.build_istrm):
            _collect(found, build(t))
    for sig in SIGS:
        assert sorted(found[sig]) == sorted(sig.rules), sig.name
    return found


def _outcome(make):
    """What ``make()`` gives: the derivation and its certificate, or the exception's class and message."""
    try:
        d = make()
    except Exception as exc:  # noqa: BLE001 (any exception must match)
        return type(exc), str(exc)
    return d, d._certified


def _both(sig, name, params, witnesses):
    """``derive``'s outcome and ``din(dnode)``'s, which must agree."""
    by_derive = _outcome(lambda: sig.derive(name, params, witnesses))
    by_din = _outcome(lambda: din(sig.dnode(name, params, witnesses)))
    assert by_derive == by_din, (sig.name, name)
    return by_derive


def _parts(d):
    return d.root.rule, d.root.params_dict(), tuple(w for _, _, w in d.root.premises)


def _rejects(outcome):
    return isinstance(outcome[0], type) and issubclass(outcome[0], Exception)


def test_derive_builds_what_din_of_dnode_builds(instances):
    for sig in SIGS:
        for name, ds in instances[sig].items():
            for d in ds:
                rule_name, params, witnesses = _parts(d)
                built, certified = _both(sig, rule_name, params, witnesses)
                assert built == d and certified
                # a witness that is not certified leaves the result uncertified
                fresh = tuple(Derivation(w.sig, w.root) for w in witnesses)
                built, certified = _both(sig, rule_name, params, fresh)
                assert built == d and certified == (not witnesses)


def test_derive_rejects_what_din_of_dnode_rejects(instances):
    for sig in SIGS:
        assert _rejects(_both(sig, "no-such-rule", {}, ()))
        foreign = arith.build_eval_derivation(arith.lit(1)) if sig is arith.ISTRM_SIG else arith.build_istrm(arith.lit(1))
        everything = [d for ds in instances[sig].values() for d in ds]
        for name, ds in instances[sig].items():
            rule_name, params, witnesses = _parts(ds[0])
            bad = [
                ({**params, "extra": 0}, witnesses),
                (dict(list(params.items())[1:]), witnesses),
                (params, witnesses + (foreign,)),
            ]
            if witnesses:
                bad.append((params, witnesses[1:]))
            for i, w in enumerate(witnesses):
                swaps = ["not a derivation", w.root, foreign, Derivation(foreign.sig, w.root)]
                swaps += [o for o in everything if o.family != w.family][:1]  # another family's
                swaps.append(next(o for o in everything if o.family == w.family and o.root.conclusion != w.root.conclusion))
                bad += [(params, witnesses[:i] + (swap,) + witnesses[i + 1 :]) for swap in swaps]
            for p, ws in bad:
                outcome = _both(sig, rule_name, p, ws)
                assert _rejects(outcome), (sig.name, name, outcome)


def _subject(d):
    """The term a derivation is about: its index, or the index's first term; None if it has none."""
    c = d.root.conclusion
    return c if isinstance(c, Term) else next((x for x in c if isinstance(x, Term)), None)


def test_derive_given_its_subject_concludes_at_it(instances):
    for sig in SIGS:
        for name, ds in instances[sig].items():
            if sig.rules[name].subject is None:
                continue
            for d in ds:
                rule_name, params, witnesses = _parts(d)
                s = _subject(d)
                twin = type(s)(s.sig, s.root)  # equal, but not the same object
                built = sig.derive(rule_name, params, witnesses, twin)
                assert built == d and built._certified and _subject(built) is twin


def test_derive_rejects_a_subject_that_does_not_fit(instances):
    lang_terms = (cn("c", Ty("a")), env_(EMPTY_ENV))
    for sig in SIGS:
        subjects = [_subject(d) for ds in instances[sig].values() for d in ds]
        for name, ds in instances[sig].items():
            rule_name, params, witnesses = _parts(ds[0])
            s = _subject(ds[0])
            if sig.rules[name].subject is None:  # no subject fits a rule without a pattern
                message = f"{sig.name}.{name}: the rule has no subject pattern to fit"
                wrong_ctor, wrong_slot = lang_terms
            else:
                message = f"{sig.name}.{name}: the subject does not fit the rule's pattern"
                wrong_ctor = next(o for o in subjects if o.root.ctor != s.root.ctor)
                wrong_slot = next(_subject(o) for o in ds if _subject(o) != s)
                assert wrong_slot.root.ctor == s.root.ctor
            other_sig = lang_terms[0] if sig in (arith.EVAL_SIG, arith.TYPOF_SIG, arith.ISTRM_SIG) else arith.lit(1)
            not_a_term = s.root if s is not None else "not a term"
            for bad in (wrong_ctor, wrong_slot, not_a_term, other_sig):
                outcome = _outcome(lambda: sig.derive(rule_name, params, witnesses, bad))
                assert outcome == (InvalidDerivationError, message), (sig.name, name, bad)


def _logged(sig, log, failing):
    """A copy of ``sig`` whose rules log each index and side-condition call.

    While ``failing[0]`` is ``(rule, i)``, that rule's side condition ``i`` fails.
    """

    def wrap(kind, i, f, target=None):
        def logged(P):
            log.append((kind, i))
            if target is not None and failing[0] == target:
                return False
            return f(P)

        return logged

    rules = [
        dataclasses.replace(
            r,
            premises=tuple((fam, wrap("premise", i, ix)) for i, (fam, ix) in enumerate(r.premises)),
            side_conditions=tuple(
                (label, wrap("side", i, pred, (r.name, i))) for i, (label, pred) in enumerate(r.side_conditions)
            ),
            conclusion=wrap("conclusion", 0, r.conclusion),
        )
        for r in sig.rules.values()
    ]
    return type(sig)(sig.name, rules)


def _moved(twin, d):
    """``d`` rebuilt, rule by rule, in ``twin``."""
    rule_name, params, witnesses = _parts(d)
    return din(twin.dnode(rule_name, params, tuple(_moved(twin, w) for w in witnesses)))


def test_derive_runs_the_checks_of_din_in_their_order(instances):
    for sig in SIGS:
        log, failing = [], [None]
        twin = _logged(sig, log, failing)
        for name, ds in instances[sig].items():
            r = sig.rules[name]
            rule_name, params, witnesses = _parts(ds[0])
            witnesses = tuple(_moved(twin, w) for w in witnesses)
            for fail in (None, *((name, i) for i in range(len(r.side_conditions)))):
                failing[0] = fail
                calls = []
                for make in (
                    lambda: twin.derive(rule_name, params, witnesses),
                    lambda: din(twin.dnode(rule_name, params, witnesses)),
                ):
                    log.clear()
                    calls.append((_outcome(make), list(log)))
                failing[0] = None
                (outcome, order), (by_din, din_order) = calls
                assert outcome == by_din, (sig.name, name, fail)
                upto = len(r.side_conditions) if fail is None else fail[1] + 1
                expected = [("premise", i) for i in range(len(r.premises))] + [("conclusion", 0)]
                sides = [("side", i) for i in range(upto)]
                assert order == expected + sides
                # ``din`` recomputes every index of the node ``dnode`` built, after its side conditions
                assert din_order == expected + sides + (expected if fail is None else [])
                if fail is not None:
                    label = r.side_conditions[fail[1]][0]
                    assert issubclass(outcome[0], InvalidDerivationError)
                    assert outcome[1] == f"rule {name}: side condition {label!r} failed"
                else:
                    assert outcome[0].root.conclusion == ds[0].root.conclusion and outcome[1]


def test_seed_42_step_and_subject_reduction_derivations_are_pinned():
    digest, steps = hashlib.sha256(), 0
    for c in testkit.gen_well_typed_config(testkit.GenConfig(seed=42, count=1000)):
        step = step_dec if c.sort == "dec" else step_exp
        term, typd = c.term, c.typd
        for _ in range(50):
            sub = step(c.rho, term)
            if sub is None:
                break
            term, stepd = sub
            typd = subject_reduction(c.rho, stepd, c.gamma, c.envd, typd)
            pair = [step_derivation_json(stepd), typing_derivation_json(typd)]
            digest.update(json.dumps(pair, sort_keys=True).encode())
            steps += 1
    assert steps == 1622
    assert digest.hexdigest() == "fbd23737fcd4837dc4bdfa26901497a2a6f1d153119c6e27e8381b02c6b2c158"
