"""One indexed Mendler fold, one generated entry per rule, and labels that are names.

``ifold`` is the family-1 ``hfold`` of the one-step algebra: both run the
one fold generated from a ``cases`` table and kept under the table's steps,
and they agree on both arith preservation routes.  ``ifold`` of a
derivation of another family is rejected.  ``dnode`` interprets its rule,
as the checker does, so it generates no code.  Every side condition of the
library's signatures is labelled by a string, which the checker's reason
names and ``derive_given`` accepts.
"""

import dataclasses

import pytest

from alacarte import arith, kernel
from alacarte.arith import add, lit
from alacarte.indexed import Derivation, WrongComponentError, hfold, hstep_once, ifold, validate
from alacarte.kernel import SortedAlgebra
from alacarte.lang_l import EMPTY_ENV, STEP_SIG, PCon, PVar, Ty, apply_, closure, cn, match_, step_dec, step_exp, vr
from alacarte.lang_l.step import DEC_STEP, EXP_STEP

from test_derive import SIGS, instances  # noqa: F401 (``instances`` is a fixture)
from test_indexed_cases_fold import _calls

TY = Ty("a")
TERMS = [lit(4), add(lit(1), lit(2)), add(add(lit(1), lit(-4)), add(lit(0), add(lit(5), lit(6))))]


# ---------------------------------------------------------------------------
# ``ifold`` is the family-1 ``hfold``


@pytest.mark.parametrize("route", ["Eval", "IsTrm"])
def test_ifold_and_the_family_1_hfold_run_one_kept_fold_and_agree(route):
    step = arith._preservation_step if route == "Eval" else arith._istrm_preservation_step
    build = arith.build_eval_derivation if route == "Eval" else arith.build_istrm
    for t in TERMS:
        d, td = build(t), arith.build_typof_derivation(t)
        w = d.root.conclusion
        by_ifold = ifold(step, w, d)(td)
        folds = dict(step._cases[3])
        by_hfold = hfold(1, SortedAlgebra((step,)), w, d)(td)
        assert by_ifold == by_hfold and by_ifold.root.conclusion == (lit(arith.eval_(t).vv), arith.N)
        assert list(folds) == [(step,)] and step._cases[3] == folds  # one fold, kept for both
        targets = {"kept fold": folds[(step,)], "hstep_once": hstep_once}
        via_ifold = _calls(targets, lambda: ifold(step, w, d)(td))
        assert via_ifold == _calls(targets, lambda: hfold(1, SortedAlgebra((step,)), w, d)(td))
        assert set(via_ifold) == {"kept fold"}  # and no generic step


def test_ifold_of_a_derivation_of_another_family_is_rejected():
    _, d = step_exp(EMPTY_ENV, apply_(closure(EMPTY_ENV, PVar("x", TY), vr("x")), cn("c", TY)))
    assert d.family == EXP_STEP != 1
    with pytest.raises(WrongComponentError) as exc:
        ifold(lambda rec, w, node: 0, d.root.conclusion, d)
    assert str(exc.value) == f"hfold_1 applied to a family-{EXP_STEP} derivation"


# ---------------------------------------------------------------------------
# ``dnode`` generates nothing


def test_dnode_on_every_library_rule_generates_no_code(instances):  # noqa: F811 (the imported fixture)
    compiled = dict(kernel._COMPILED)
    nodes = 0
    for sig in SIGS:
        fresh = type(sig)(sig.name, [dataclasses.replace(r) for r in sig.rules.values()], sig.layout)
        for name, ds in instances[sig].items():
            for d in ds:
                n = d.root
                built = fresh.dnode(name, n.params_dict(), [w for _, _, w in n.premises])
                assert (built.rule, built.params, built.premises, built.conclusion) == (n.rule, n.params, n.premises, n.conclusion)
                nodes += 1
        assert not any("compiled" in vars(r) for r in fresh.rules.values()), sig.name
    assert kernel._COMPILED == compiled
    assert nodes >= sum(len(sig.rules) for sig in SIGS)


# ---------------------------------------------------------------------------
# side-condition labels


def test_every_side_condition_label_of_the_library_is_a_string():
    labels = [(sig.name, r.name, label) for sig in SIGS for r in sig.rules.values() for label, _ in r.side_conditions]
    assert labels and [x for x in labels if not isinstance(x[2], str)] == []


def _instance(rule):
    if rule == "D-MATCH":
        return step_dec(EMPTY_ENV, match_(PCon("c", TY), cn("c", TY)))
    return step_exp(EMPTY_ENV, apply_(closure(EMPTY_ENV, PVar("x", TY), vr("x")), cn("c", TY)))


def test_a_failing_match_is_named_by_its_label():
    good = _instance("D-MATCH")[1].root
    params = (("rho", EMPTY_ENV), ("p", PCon("c", TY)), ("v", cn("d", TY)))
    bad = dataclasses.replace(good, params=params)
    assert validate(Derivation(STEP_SIG, bad)).reason == "rule D-MATCH: side condition 'match' failed"


@pytest.mark.parametrize("rule", ["D-MATCH", "E-BETA"])
def test_derive_given_accepts_the_match_label(rule):
    d = _instance(rule)[1]
    assert (d.root.rule, d.family) == (rule, DEC_STEP if rule == "D-MATCH" else EXP_STEP)
    given = STEP_SIG.derive_given(rule, ("match",), d.root.params_dict(), (), d.root.conclusion[1])
    assert given == d and given._certified
