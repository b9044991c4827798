"""``ifold`` and ``hfold`` of ``cases`` steps run the fold generated from their tables.

The generated fold must give what the generic step gives: here each result
is compared with the knot-tied ``istep_once``/``hstep_once`` recursion on
the same derivations, and each error (a foreign handle, a handle of the
wrong family, a child at another index, a rule without a case, a node of
the wrong premise count) with the same type and message.  A
``sys.setprofile`` hook then shows that the library's folds of ``cases``
steps call neither generic step nor ``cases``' dispatching step, and that
the arith builders call neither ``DNode._positional`` nor
``Derivation._positional``: ``derive`` fills both in its own body.
"""

import importlib.util
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from alacarte import arith, indexed, testkit
from alacarte.arith import EVAL_SIG, ISTRM_SIG, Val, add, lit
from alacarte.indexed import Derivation, DNode, cases, hstep_once, ifold, istep_once
from alacarte.kernel import ForeignHandleError
from alacarte.lang_l import STEP_SIG, TP_ALG, step_dec, step_exp
from alacarte.mutual import IndexedBiMendlerAlgebra, IndexedBiSignature, birule, hfold

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _random_terms(count):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rng = random.Random(7)
    return [module.random_term(rng, 1 + i % 12, -9, 9) for i in range(count)]


def _outcome(run):
    """``("ok", value)``, or the type and message of what ``run()`` raised."""
    try:
        return "ok", run()
    except Exception as exc:  # noqa: BLE001 (the outcome is compared, whatever it is)
        return type(exc), str(exc)


def _generic_ifold(step, w, d):
    recurse = lambda wi, di: istep_once(step, wi, di.root, recurse)
    return recurse(w, d)


def _generic_hfold(malg, w, d):
    recurse = lambda wi, di: hstep_once(malg, wi, di.root, *recurses)
    recurses = (recurse,) * len(malg.steps)
    return recurse(w, d)


def _both_ifold(step, w, d, then=lambda out: out):
    """The outcomes of ``then`` on the generated and on the generic ``ifold``; asserts they agree."""
    generated = _outcome(lambda: then(ifold(step, w, d)))
    generic = _outcome(lambda: then(_generic_ifold(step, w, d)))
    assert generated == generic
    return generated


def _both_hfold(malg, w, d, then=lambda out: out):
    generated = _outcome(lambda: then(hfold(d.family, malg, w, d)))
    generic = _outcome(lambda: then(_generic_hfold(malg, w, d)))
    assert generated == generic
    return generated


def _subderivations(d):
    stack = [d]
    while stack:
        d = stack.pop()
        yield d
        stack.extend(w for _, _, w in d.root.premises)


def _step_derivations(count, fuel=20):
    """Each step derivation of ``count`` seed-1 configurations, in order, with its configuration."""
    for c in testkit.gen_well_typed_config(testkit.GenConfig(seed=1, count=count)):
        step = step_dec if c.sort == "dec" else step_exp
        term = c.term
        for _ in range(fuel):
            sub = step(c.rho, term)
            if sub is None:
                break
            term, stepd = sub
            yield c, stepd


def test_importing_generates_no_fold_and_the_first_fold_is_kept():
    probe = (
        "from alacarte import arith, cli, lang_l; from alacarte.lang_l import preservation;"
        "print([len(s._cases[3]) for s in (arith._preservation_step, arith._istrm_preservation_step, preservation._step)])"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "[0, 0, 0]\n"), out.stderr
    d = arith.build_eval_derivation(add(lit(1), lit(2)))
    ifold(arith._preservation_step, d.root.conclusion, d)
    folds = dict(arith._preservation_step._cases[3])
    ifold(arith._preservation_step, d.root.conclusion, d)
    assert list(folds) == [(arith._preservation_step,)] and arith._preservation_step._cases[3] == folds


# ---------------------------------------------------------------------------
# the same results


def test_both_arith_routes_fold_every_derivation_as_the_generic_step_does():
    folded = 0
    for t in _random_terms(60):
        for route, d in (
            (arith._preservation_step, arith.build_eval_derivation(t)),
            (arith._istrm_preservation_step, arith.build_istrm(t)),
        ):
            for sub in _subderivations(d):
                w = sub.root.conclusion
                td = arith.build_typof_derivation(w[0] if sub.sig is EVAL_SIG else w)
                status, out = _both_ifold(route, w, sub, lambda transform: transform(td))
                assert status == "ok" and out.root.conclusion[1] == arith.N
                folded += 1
    assert folded > 500


def test_tp_alg_folds_every_step_derivation_as_hstep_once_does():
    checked = 0
    typings = {}
    for c, stepd in _step_derivations(200):
        typd = typings.get(id(c), c.typd)
        w = stepd.root.conclusion
        status, out = _both_hfold(TP_ALG, w, stepd, lambda transform: transform(c.gamma, c.envd, typd))
        assert status == "ok"
        typings[id(c)] = out
        checked += 1
    assert checked > 200


# ---------------------------------------------------------------------------
# the same errors


def test_a_handle_opened_under_another_step_is_foreign_on_both_paths():
    stash = []

    def leaky(rec, w, node):
        for _, ix, h in node.premises:
            rec(ix, h)
        if stash:
            rec(*stash[-1])  # a handle issued to the step of a child
        stash.extend((ix, h) for _, ix, h in node.premises)

    step = cases(EVAL_SIG, {"ev1": leaky, "ev2": leaky})
    t = add(add(lit(1), lit(2)), lit(3))
    d = arith.build_eval_derivation(t)
    generated = _outcome(lambda: ifold(step, d.root.conclusion, d))
    stash.clear()
    generic = _outcome(lambda: _generic_ifold(step, d.root.conclusion, d))
    assert generated == generic == (ForeignHandleError, "handle consumed outside the fold that issued it")


def test_a_handle_passed_to_the_rec_of_another_family_is_foreign_on_both_paths():
    swapped = lambda rec1, rec2, w, node: [(rec2 if fam == 1 else rec1)(ix, h) for fam, ix, h in node.premises]
    step = cases(STEP_SIG, dict.fromkeys(STEP_SIG.rules, swapped))
    malg = IndexedBiMendlerAlgebra(step, step)
    foreign = 0
    for _, stepd in _step_derivations(40):
        outcome = _both_hfold(malg, stepd.root.conclusion, stepd)
        foreign += outcome == (ForeignHandleError, "handle consumed outside the fold that issued it")
    assert foreign > 10


@pytest.mark.parametrize("route", ["ifold", "hfold"])
def test_a_child_at_another_index_is_rejected_with_the_same_message(route):
    if route == "ifold":
        d = arith.build_eval_derivation(add(lit(1), lit(2)))
        off = lambda rec, w, node: [rec((ix[0], Val(99)), h) for _, ix, h in node.premises]
        outcome = _both_ifold(cases(EVAL_SIG, {"ev1": off, "ev2": off}), d.root.conclusion, d)
        assert outcome[0] is indexed.WrongIndexError and "concluding" in outcome[1]
        return
    off = lambda rec1, rec2, w, node: [(rec1, rec2)[fam - 1]((ix, "elsewhere"), h) for fam, ix, h in node.premises]
    step = cases(STEP_SIG, dict.fromkeys(STEP_SIG.rules, off))
    rejected = 0
    for _, stepd in _step_derivations(20):
        outcome = _both_hfold(IndexedBiMendlerAlgebra(step, step), stepd.root.conclusion, stepd)
        rejected += outcome[0] is indexed.WrongIndexError
    assert rejected > 10


@pytest.mark.parametrize("name", ["bogus", ["ev2"]], ids=["unknown", "unhashable"])
@pytest.mark.parametrize("sig", [EVAL_SIG, ISTRM_SIG], ids=["Eval", "IsTrm"])
def test_a_rule_without_a_case_is_named_on_both_paths(sig, name):
    e = add(lit(1), lit(2))
    good = arith.build_eval_derivation(e) if sig is EVAL_SIG else arith.build_istrm(e)
    step = arith._preservation_step if sig is EVAL_SIG else arith._istrm_preservation_step
    w = good.root.conclusion
    child = Derivation(sig, DNode(sig, 1, name, good.root.params, good.root.premises, w))
    parent = Derivation(sig, DNode(sig, 1, good.root.rule, good.root.params, ((1, w, child), (1, w, child)), w))
    td = arith.build_typof_derivation(e)
    for d in (child, parent):  # at the root, and below it
        outcome = _both_ifold(step, w, d, lambda transform: transform(td))
        assert outcome == (indexed.InvalidDerivationError, f"{sig.name} has no case for rule {name!r}")


def test_a_step_node_whose_rule_has_no_case_is_named_on_both_paths():
    stepd = next(stepd for _, stepd in _step_derivations(5))
    node = stepd.root
    bogus = Derivation(STEP_SIG, DNode(STEP_SIG, node.family, "E-NEW", node.params, node.premises, node.conclusion))
    assert _both_hfold(TP_ALG, node.conclusion, bogus) == (
        indexed.InvalidDerivationError,
        "Step has no case for rule 'E-NEW'",
    )


def test_a_node_of_the_wrong_premise_count_reaches_its_case_as_the_generic_step_passes_it():
    e = add(lit(1), lit(2))
    td = arith.build_typof_derivation(e)
    for d in (arith.build_eval_derivation(e), arith.build_istrm(e)):
        step = arith._preservation_step if d.sig is EVAL_SIG else arith._istrm_preservation_step
        n = d.root
        for premises in (n.premises[:1], n.premises + n.premises[:1]):
            short = Derivation(d.sig, DNode(d.sig, 1, n.rule, n.params, premises, n.conclusion))
            status, message = _both_ifold(step, n.conclusion, short, lambda transform: transform(td))
            assert status is ValueError and "unpack" in message
        lit_node = n.premises[0][2].root  # a rule without premises, given one
        grown = Derivation(d.sig, DNode(d.sig, 1, lit_node.rule, lit_node.params, n.premises[:1], lit_node.conclusion))
        seen = lambda rec, w, node: len(node.premises)
        table = cases(d.sig, dict.fromkeys(d.sig.rules, seen))
        assert _both_ifold(table, lit_node.conclusion, grown) == ("ok", 1)


def test_a_premise_of_a_family_without_a_step_takes_the_generic_step():
    sig = IndexedBiSignature(
        "Three",
        [
            birule(3, "leaf", params=("n",), conclusion=lambda P: P["n"]),
            birule(1, "up", params=("n",), premises=[(3, lambda P: P["n"])], conclusion=lambda P: P["n"]),
        ],
    )
    d = sig.derive("up", {"n": 1}, (sig.derive("leaf", {"n": 1}),))
    step = cases(sig, dict.fromkeys(sig.rules, lambda rec1, rec2, w, node: w))
    assert _both_hfold(IndexedBiMendlerAlgebra(step, step), 1, d) == (IndexError, "tuple index out of range")


# ---------------------------------------------------------------------------
# the traffic the generated code removes


def _calls(targets: dict, run) -> Counter:
    """Calls of each target's code object while ``run()`` runs, by target name."""
    codes = {target.__code__: name for name, target in targets.items()}
    seen = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


FOLD_TARGETS = {
    "istep_once": istep_once,
    "hstep_once": hstep_once,
    "cases' step": arith._preservation_step,  # every ``cases`` step runs this code
}
NODE_TARGETS = {"DNode._positional": DNode._positional, "Derivation._positional": Derivation._positional}


def test_the_hook_sees_each_target_called():
    e = add(lit(1), lit(2))
    d, td = arith.build_eval_derivation(e), arith.build_typof_derivation(e)
    seen = _calls(FOLD_TARGETS, lambda: _generic_ifold(arith._preservation_step, d.root.conclusion, d)(td))
    assert seen == {"istep_once": 3, "hstep_once": 3, "cases' step": 3}  # ``istep_once`` is the one-family ``hstep_once``
    stepd = next(stepd for _, stepd in _step_derivations(5))
    assert _calls(FOLD_TARGETS, lambda: _generic_hfold(TP_ALG, stepd.root.conclusion, stepd))["hstep_once"] > 0
    n = d.root
    seen = _calls(NODE_TARGETS, lambda: DNode._positional(n.sig, n.family, n.rule, n.params, n.premises, n.conclusion))
    assert seen == {"DNode._positional": 1}
    seen = _calls(NODE_TARGETS, lambda: Derivation._positional(d.sig, n))
    assert seen == {"Derivation._positional": 1}


def test_the_library_folds_cases_steps_without_a_generic_step():
    terms = _random_terms(40)
    configs = testkit.gen_well_typed_config(testkit.GenConfig(seed=1, count=50))
    inputs = [(arith.build_eval_derivation(t), arith.build_typof_derivation(t), arith.build_istrm(t)) for t in terms]
    steps = []

    def run():
        for d, td, w in inputs:
            arith.preservation(d, td)
            arith.preservation_via_istrm(w, td)
        for c in configs:
            taken, counterexample = testkit.check_configuration(c, 50)
            assert counterexample is None
            steps.append(taken)

    assert _calls(FOLD_TARGETS, run) == {}
    assert sum(steps) > 50


def test_the_arith_builders_fill_each_node_and_derivation_in_derive():
    terms = _random_terms(40)

    def run():
        for t in terms:
            arith.build_eval_derivation(t)
            arith.build_typof_derivation(t)
            arith.build_istrm(t)

    assert _calls(NODE_TARGETS, run) == {}
