"""Derivation trees over the evaluation relation of the arithmetic language."""

import copy
import dataclasses
import json
import linecache
import os
import subprocess
import sys
import textwrap
import traceback
from pathlib import Path

import pytest

from alacarte import arith, indexed, testkit
from alacarte.arith import EVAL_SIG, Val, add, lit
from alacarte.indexed import (
    DNode,
    Derivation,
    IndexedSignature,
    InvalidDerivationError,
    WrongIndexError,
    derivation_to_json,
    din,
    dout,
    ifmap,
    ifold,
    istep_once,
    rule,
    validate,
)


def eval_derivs(depth=3):
    terms = testkit.enumerate_terms(testkit.arith_enum(depth))
    return [arith.build_eval_derivation(t) for t in terms]


def ev1_node(x):
    return EVAL_SIG.dnode("ev1", {"x": x})


def ev2_node(e1, e2, forged_sum=None):
    d1, d2 = arith.build_eval_derivation(e1), arith.build_eval_derivation(e2)
    x1, x2 = d1.root.conclusion[1], d2.root.conclusion[1]
    v = Val(forged_sum) if forged_sum is not None else Val(x1.vv + x2.vv)
    return EVAL_SIG.dnode(
        "ev2", {"e1": e1, "e2": e2, "x1": x1, "x2": x2, "v": v}, (d1, d2)
    )


# ---------------------------------------------------------------------------
# ifmap


def test_ifmap_identity():
    for d in eval_derivs(2):
        n = d.root
        assert ifmap(lambda w, a: a, n) == n


def test_ifmap_maps_both_ev2_witnesses():
    n = ev2_node(lit(1), lit(2))
    mapped = ifmap(lambda w, a: ("tagged", w), n)
    assert [a for _, _, a in mapped.premises] == [
        ("tagged", (lit(1), Val(1))),
        ("tagged", (lit(2), Val(2))),
    ]
    assert mapped.conclusion == n.conclusion


def test_ifmap_composition():
    f = lambda w, a: (w, a)
    g = lambda w, a: a[1]
    for d in eval_derivs(3):
        n = d.root
        assert ifmap(g, ifmap(f, n)) == ifmap(lambda w, a: g(w, f(w, a)), n)


# ---------------------------------------------------------------------------
# din / dout


def test_din_ev1():
    d = din(ev1_node(3))
    assert d.root.conclusion == (lit(3), Val(3))


def test_din_rejects_wrong_sum():
    with pytest.raises(InvalidDerivationError, match="sum"):
        din(ev2_node(lit(1), lit(2), forged_sum=99))


def test_din_dout_roundtrip_enumerated():
    for d in eval_derivs(3):
        assert din(dout(d)) == d
        assert dout(din(dout(d))) == dout(d)


def test_din_rejects_child_conclusion_mismatch():
    good = ev2_node(lit(1), lit(2))
    bad = DNode(
        good.sig,
        good.family,
        good.rule,
        good.params,
        ((*good.premises[0][:2], arith.build_eval_derivation(lit(9))),) + good.premises[1:],
        good.conclusion,
    )
    with pytest.raises(InvalidDerivationError, match="premise 0"):
        din(bad)


# ---------------------------------------------------------------------------
# ifold


def test_ifold_depth_algebra_on_ev1():
    depth_alg = lambda rec, w, node: 1 + max(
        (rec(wi, h) for _, wi, h in node.premises), default=0
    )
    assert ifold(depth_alg, (lit(3), Val(3)), din(ev1_node(3))) == 1


def test_ifold_conclusion_extractor_preserves_index():
    extract = lambda rec, w, node: w
    for d in eval_derivs(3):
        w = d.root.conclusion
        assert ifold(extract, w, d) == w


def test_ifold_wrong_index():
    d = din(ev1_node(3))
    with pytest.raises(WrongIndexError):
        ifold(lambda rec, w, node: w, (lit(4), Val(4)), d)


def test_ifold_computation_rule():
    depth_alg = lambda rec, w, node: 1 + max(
        (rec(wi, h) for _, wi, h in node.premises), default=0
    )
    for d in eval_derivs(3):
        w = d.root.conclusion
        lhs = ifold(depth_alg, w, din(d.root))
        rhs = istep_once(
            depth_alg, w, d.root, lambda wi, di: ifold(depth_alg, wi, di)
        )
        assert lhs == rhs


# ---------------------------------------------------------------------------
# validate


def test_validate_ok_on_ev1():
    assert validate(din(ev1_node(5)))


def test_validate_fails_at_root_on_forged_sum():
    forged = Derivation(EVAL_SIG, ev2_node(lit(1), lit(2), forged_sum=99))
    verdict = validate(forged)
    assert not verdict
    assert verdict.path == ()
    assert "sum" in verdict.reason


def test_validate_reports_deep_path():
    inner = ev2_node(lit(1), lit(2), forged_sum=99)
    outer = EVAL_SIG.dnode(
        "ev2",
        {
            "e1": add(lit(1), lit(2)),
            "e2": lit(0),
            "x1": Val(99),
            "x2": Val(0),
            "v": Val(99),
        },
        (Derivation(EVAL_SIG, inner), arith.build_eval_derivation(lit(0))),
    )
    verdict = validate(Derivation(EVAL_SIG, outer))
    assert not verdict
    assert verdict.path == (0,)


def test_builder_soundness_sweep():
    terms = testkit.enumerate_terms(testkit.arith_enum(4))
    assert all(validate(arith.build_eval_derivation(t)) for t in terms)


# ---------------------------------------------------------------------------
# JSON


def test_derivation_json_shape():
    d = arith.build_eval_derivation(add(lit(1), lit(2)))
    js = derivation_to_json(d, arith.encode_index)
    assert js["rule"] == "ev2"
    assert js["index"] == ["(add (lit 1) (lit 2))", "(val 3)"]
    assert [p["rule"] for p in js["premises"]] == ["ev1", "ev1"]
    assert js["params"]["v"] == "(val 3)"


# ---------------------------------------------------------------------------
# certificates: din certifies, validate stops at certified derivations


class CountingNat:
    """A throwaway relation ``n`` over naturals whose expressions count calls."""

    def __init__(self):
        self.calls = {"index": 0, "side": 0}
        self.sig = IndexedSignature(
            "CountingNat",
            [
                rule("z", conclusion=self._index(lambda P: 0)),
                rule(
                    "s",
                    params=("n",),
                    premises=(self._index(lambda P: P["n"]),),
                    side=(("small", self._side(lambda P: P["n"] < 10)),),
                    conclusion=self._index(lambda P: P["n"] + 1),
                ),
            ],
        )

    def _index(self, f):
        def counted(P):
            self.calls["index"] += 1
            return f(P)

        return counted

    def _side(self, f):
        def counted(P):
            self.calls["side"] += 1
            return f(P)

        return counted

    def build(self, n):
        d = din(self.sig.dnode("z", {}))
        for k in range(n):
            d = din(self.sig.dnode("s", {"n": k}, (d,)))
        return d

    def reset(self):
        self.calls.update(index=0, side=0)


def test_validate_on_din_built_derivation_calls_no_rule_expression():
    nat = CountingNat()
    d = nat.build(5)
    nat.reset()
    assert validate(d)
    assert nat.calls == {"index": 0, "side": 0}


def test_hand_built_root_over_certified_children_is_checked_in_full():
    nat = CountingNat()
    good = nat.build(3)
    nat.reset()
    n = good.root
    hand = DNode(n.sig, n.family, n.rule, n.params, n.premises, n.conclusion)
    assert validate(Derivation(nat.sig, hand))
    assert nat.calls == {"index": 2, "side": 1}  # the root only: children are certified


def test_forged_root_over_certified_children_rejected_with_seed_reason():
    forged = Derivation(EVAL_SIG, ev2_node(lit(1), lit(2), forged_sum=99))
    assert all(validate(w) for _, _, w in forged.root.premises)
    verdict = validate(forged)
    assert (verdict.ok, verdict.path, verdict.reason) == (
        False,
        (),
        "rule ev2: side condition 'sum' failed",
    )
    good = ev2_node(lit(1), lit(2))
    wrong = DNode(good.sig, good.family, good.rule, good.params, good.premises, (lit(3), Val(4)))
    verdict = validate(Derivation(EVAL_SIG, wrong))
    assert (verdict.ok, verdict.path, verdict.reason) == (
        False,
        (),
        "rule ev2: conclusion index mismatch",
    )


def test_din_rejects_replaced_conclusion():
    node = ev2_node(lit(1), lit(2))
    with pytest.raises(InvalidDerivationError, match="conclusion index mismatch"):
        din(dataclasses.replace(node, conclusion=(lit(3), Val(3))))


def test_din_equals_and_hashes_as_hand_built():
    for d in eval_derivs(2):
        n = d.root
        assert din(n) == Derivation(n.sig, n)
        assert hash(din(n)) == hash(Derivation(n.sig, n))
        assert repr(din(n)) == repr(Derivation(n.sig, n))


# ---------------------------------------------------------------------------
# characterization: every rejection's exact message, path and reason


def test_dnode_rejections_exact_messages():
    leaf = din(ev1_node(1))
    cases = [
        (("ev9", {}), "Eval has no rule 'ev9'"),
        (("ev1", {"x": 1, "y": 2}), "Eval.ev1: params ['x', 'y'] do not match schema ['x']"),
        (("ev1", {"x": 1}, (leaf,)), "Eval.ev1: expected 0 premise witnesses, got 1"),
    ]
    for args, message in cases:
        with pytest.raises(InvalidDerivationError) as exc:
            EVAL_SIG.dnode(*args)
        assert str(exc.value) == message


def _eval_rejections():
    """(label, node, reason) for every reason the checker gives on EVAL_SIG."""
    good = ev2_node(lit(1), lit(2))
    (_, i0, w0), (_, i1, w1) = good.premises
    nine = arith.build_eval_derivation(lit(9))
    typd = arith.build_typof_derivation(lit(2))

    def hand(rule="ev2", params=good.params, premises=good.premises, conclusion=good.conclusion):
        return DNode(EVAL_SIG, 1, rule, params, premises, conclusion)

    child = f"rule ev2: premise 0 expects conclusion {i0!r}, child concludes {nine.root.conclusion!r}"
    return [
        ("unknown rule", hand(rule="ev9"), "unknown rule 'ev9'"),
        ("params", hand(params=7), "rule ev2: params are not a tuple"),
        ("param pair", hand(params=(1, 2, 3)), "rule ev2: parameter 0 is not a (name, value) pair"),
        ("schema", hand(params=good.params[::-1]), "rule ev2: parameter schema mismatch"),
        ("side", ev2_node(lit(1), lit(2), forged_sum=99), "rule ev2: side condition 'sum' failed"),
        ("premises", hand(premises=7), "rule ev2: premises are not a tuple"),
        ("premise triple", hand(premises=((i0, w0), (i1, w1))), "rule ev2: premise 0 is not a (family, index, witness) triple"),
        ("count", hand(premises=good.premises[:1]), "rule ev2: wrong number of premises"),
        ("index", hand(premises=((1, i0, w0), (1, (lit(9), Val(9)), w1))), "rule ev2: premise 1 index mismatch"),
        ("conclusion", hand(conclusion=(lit(3), Val(4))), "rule ev2: conclusion index mismatch"),
        ("witness node", hand(premises=((1, i0, w0), (1, i1, w1.root))), "rule ev2: premise 1 witness is not a derivation"),
        ("witness sig", hand(premises=((1, i0, w0), (1, i1, typd))), "rule ev2: premise 1 witness is not a derivation"),
        ("dnode-built witness", EVAL_SIG.dnode("ev2", good.params_dict(), (w0, typd)), "rule ev2: premise 1 witness is not a derivation"),
        ("child", hand(premises=((1, i0, nine), (1, i1, w1))), child),
        ("dnode-built child", EVAL_SIG.dnode("ev2", good.params_dict(), (nine, w1)), child),
    ]


def test_checker_rejections_exact_reasons_at_root_and_nested():
    for label, bad, reason in _eval_rejections():
        with pytest.raises(InvalidDerivationError) as exc:
            din(bad)
        assert str(exc.value) == reason, label
        verdict = validate(Derivation(EVAL_SIG, bad))
        assert (verdict.ok, verdict.path, verdict.reason) == (False, (), reason), label
        e, x = bad.conclusion
        parent = EVAL_SIG.dnode(
            "ev2",
            {"e1": lit(0), "e2": e, "x1": Val(0), "x2": x, "v": x},
            (arith.build_eval_derivation(lit(0)), Derivation(EVAL_SIG, bad)),
        )
        verdict = validate(Derivation(EVAL_SIG, parent))
        assert (verdict.ok, verdict.path, verdict.reason) == (False, (1,), reason), label


def test_din_and_din_bi_reject_a_value_that_is_not_a_rule_instance():
    from alacarte.mutual import din_bi

    d = arith.build_eval_derivation(lit(1))
    for value in (3, d, (1, 2), None):
        for check in (din, din_bi):
            with pytest.raises(InvalidDerivationError) as exc:
                check(value)
            assert str(exc.value) == f"not a rule instance: a value of type {type(value).__name__}"
        verdict = validate(Derivation(EVAL_SIG, value))
        assert (verdict.ok, verdict.reason) == (False, "derivation of Eval has no rule instance at its root")


def test_checker_rejects_a_node_of_no_indexed_signature_or_an_unhashable_rule():
    good = ev2_node(lit(1), lit(2))
    cases = [
        (
            "sig",
            dataclasses.replace(good, sig=None),
            "rule 'ev2': signature is a NoneType, not an indexed signature",
            "derivation of Eval has a root of a NoneType, not an indexed signature",
        ),
        ("rule", dataclasses.replace(good, rule=["ev2"]), "unknown rule ['ev2']", "unknown rule ['ev2']"),
    ]
    for label, bad, reason, root_reason in cases:
        with pytest.raises(InvalidDerivationError) as exc:
            din(bad)
        assert str(exc.value) == reason, label
        verdict = validate(Derivation(EVAL_SIG, bad))
        assert (verdict.ok, verdict.path, verdict.reason) == (False, (), root_reason), label
        e, x = bad.conclusion
        parent = EVAL_SIG.dnode(
            "ev2",
            {"e1": lit(0), "e2": e, "x1": Val(0), "x2": x, "v": x},
            (arith.build_eval_derivation(lit(0)), Derivation(EVAL_SIG, bad)),
        )
        verdict = validate(Derivation(EVAL_SIG, parent))
        if label == "sig":  # the parent reads the witness's signature from its root
            expected = (False, (), "rule ev2: premise 1 witness is not a derivation")
        else:
            expected = (False, (1,), reason)
        assert (verdict.ok, verdict.path, verdict.reason) == expected, label
    verdict = validate(Derivation(None, good))
    assert (verdict.ok, verdict.path, verdict.reason) == (
        False,
        (),
        "derivation signature is a NoneType, not an indexed signature",
    )


def test_fold_index_errors_exact_messages():
    d = arith.build_eval_derivation(add(lit(1), lit(2)))
    with pytest.raises(WrongIndexError) as exc:
        ifold(lambda rec, w, node: w, (lit(4), Val(4)), d)
    assert str(exc.value) == f"derivation concludes {d.root.conclusion!r}, not {(lit(4), Val(4))!r}"
    wrong = lambda rec, w, node: [rec((lit(5), Val(5)), h) for _, _, h in node.premises]
    with pytest.raises(WrongIndexError) as exc:
        ifold(wrong, d.root.conclusion, d)
    assert str(exc.value) == (
        f"recursive call at {(lit(5), Val(5))!r} on a derivation concluding {(lit(1), Val(1))!r}"
    )


def test_ifold_checks_the_index_at_the_root_only(monkeypatch):
    d = arith.build_eval_derivation(add(add(lit(1), lit(2)), lit(3)))
    calls = []
    public = indexed.ifold
    monkeypatch.setattr(indexed, "ifold", lambda *a: calls.append(a) or public(*a))
    depth = lambda rec, w, node: 1 + max((rec(ix, h) for _, ix, h in node.premises), default=0)
    assert indexed.ifold(depth, d.root.conclusion, d) == 3
    assert len(calls) == 1  # the recursion does not re-enter the public, root-checking ifold


def test_derivation_json_full_nested_output():
    d = arith.build_eval_derivation(add(lit(1), lit(2)))
    leaf = lambda x: {
        "rule": "ev1",
        "index": [f"(lit {x})", f"(val {x})"],
        "params": {"x": x},
        "premises": [],
    }
    expected = {
        "rule": "ev2",
        "index": ["(add (lit 1) (lit 2))", "(val 3)"],
        "params": {
            "e1": "(lit 1)",
            "e2": "(lit 2)",
            "x1": "(val 1)",
            "x2": "(val 2)",
            "v": "(val 3)",
        },
        "premises": [leaf(1), leaf(2)],
    }
    js = derivation_to_json(d, arith.encode_index)
    assert json.dumps(js) == json.dumps(expected)


# ---------------------------------------------------------------------------
# compiled rules: each rule's dnode and derive are its own code,
# generated on its first dnode or derive


def test_importing_the_languages_compiles_no_rule():
    script = textwrap.dedent(
        """
        import sys
        import alacarte.arith, alacarte.lang_l
        from alacarte.indexed import IndexedSignature

        sigs = {
            id(v): v
            for name, m in list(sys.modules.items()) if name.startswith("alacarte")
            for v in vars(m).values() if isinstance(v, IndexedSignature)
        }
        rules = [r for sig in sigs.values() for r in sig.rules.values()]
        compiled = lambda: sorted(r.name for r in rules if "compiled" in vars(r))
        print(len(sigs), len(rules), compiled())
        alacarte.arith.EVAL_SIG.dnode("ev1", {"x": 1})
        print(compiled())
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    sigs, rules, before = out[0].split(" ", 2)
    assert int(sigs) >= 7 and int(rules) >= 30
    assert before == "[]"
    assert out[1] == "['ev1']"


def test_importing_the_languages_and_the_cli_generates_no_case_fold():
    script = textwrap.dedent(
        """
        import sys
        import alacarte.arith, alacarte.cli
        from alacarte import arith, kernel

        tables = {
            id(v._case): v._case
            for name, m in list(sys.modules.items()) if name.startswith("alacarte")
            for v in vars(m).values() if isinstance(getattr(v, "_case", None), kernel._CaseTable)
        }
        generated = lambda: sorted(k for t in tables.values() for k in vars(t).keys() & {"fold", "lifted"})
        print(len(tables), generated())
        arith.eval_(arith.lit(1))
        print(generated())
        kernel.lift(arith.eval_g)
        print(generated())
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == ["1 []", "['fold']", "['fold', 'lifted']"]


def test_generated_sources_of_one_shape_are_compiled_once():
    from alacarte.lang_l import PCon, PVar

    ev1, is_lit = arith.EVAL_SIG.rules["ev1"], arith.ISTRM_SIG.rules["isLit"]
    tof2, is_add = arith.TYPOF_SIG.rules["tof2"], arith.ISTRM_SIG.rules["isAdd"]
    for a, b in ((ev1, is_lit), (tof2, is_add)):
        for fa, fb in zip(a.compiled, b.compiled, strict=True):
            assert fa.__code__ is fb.__code__
            assert fa is not fb  # each calls its own rule's expressions
    assert [f.__qualname__ for f in is_lit.compiled] == ["Rule('isLit').build", "Rule('isLit').derive"]
    assert din(arith.ISTRM_SIG.dnode("isLit", {"x": 3}))._certified
    # two value classes with the same fields share their __init__'s code
    assert PVar.__init__.__code__ is PCon.__init__.__code__
    assert PVar.__init__ is not PCon.__init__


def _traceback_of(call) -> str:
    try:
        call()
    except Exception:  # noqa: BLE001 (any exception: only its traceback is read)
        return traceback.format_exc()
    raise AssertionError("the call did not raise")


@pytest.mark.parametrize(
    "call, name, line",
    [
        (
            lambda: EVAL_SIG.derive("ev2", {"e1": lit(1), "e2": lit(2), "x1": Val(1), "x2": Val(2), "v": Val(3)}),
            "build, derive",
            "raise _count_mismatch(sig, rule_name, _rule, witnesses)",
        ),
        (lambda: EVAL_SIG.derive("ev1", {"x": 1}, (), lit(2)), "build, derive", "raise _unfit(sig, rule_name, _rule)"),
        (lambda: arith._add(lit(1), 2), "constructor", "raise _bad_slot(_sig, _ctor, s1, 1)"),
    ],
)
def test_a_traceback_through_generated_code_shows_its_source_line(call, name, line):
    text = _traceback_of(call)
    assert f'File "<generated {name} #' in text and f"\n    {line}\n" in text


def test_a_traceback_through_a_generated_search_shows_its_source_line():
    from alacarte.lang_l import EMPTY_ENV, Ty, apply_, cn, vr
    from alacarte.lang_l.step import EXP_STEP, STEP_SIG
    from alacarte.mutual import IndexedBiSignature

    app1 = STEP_SIG.rules["E-APP1"]
    bad = dataclasses.replace(app1, premises=((EXP_STEP, lambda P: (P["rho"], P["e1p"], P["e1"])),))
    sig = IndexedBiSignature("Step", [bad if r is app1 else r for r in STEP_SIG.rules.values()])
    text = _traceback_of(lambda: indexed.search(sig, EXP_STEP, EMPTY_ENV, apply_(vr("x"), cn("c", Ty("a")))))
    assert 'File "<generated search #' in text and "\n    raise _ill_moded(sig, _rule0, 'e1p')\n" in text


def test_each_generated_source_is_registered_under_the_functions_it_defines():
    code = Val.__eq__.__code__
    assert code.co_filename.startswith("<generated __init__, __eq__ #")
    assert linecache.getline(code.co_filename, code.co_firstlineno) == "def __eq__(self, other):\n"
    # one source, one name: two value classes of the same fields share it
    from alacarte.lang_l import PCon, PVar

    assert PVar.__init__.__code__.co_filename == PCon.__init__.__code__.co_filename


def test_a_rule_copied_with_another_pattern_concludes_where_its_checker_does():
    is_add = dataclasses.replace(arith.ISTRM_SIG.rules["isAdd"], subject=(arith._add, "e2", "e1"))
    sig = IndexedSignature("Swapped", [arith.ISTRM_SIG.rules["isLit"], is_add])
    a, b = lit(1), lit(2)
    witnesses = (sig.derive("isLit", {"x": 1}, (), a), sig.derive("isLit", {"x": 2}, (), b))
    # the swapped term fits the copy's pattern, but its conclusion still builds the original's
    d = sig.derive("isAdd", {"e1": a, "e2": b}, witnesses, arith._add(b, a))
    assert d.root.conclusion == add(a, b) and din(d.root) == d


def test_a_rule_replaced_after_first_use_is_the_one_dnode_instantiates():
    sig = IndexedSignature("Replaced", [rule("r", params=("x",), conclusion=lambda P: P["x"])])
    old = sig.dnode("r", {"x": 1})
    assert old.conclusion == 1 and din(old)._certified
    sig.rules["r"] = rule("r", params=("x",), conclusion=lambda P: P["x"] * 10)
    new = sig.dnode("r", {"x": 1})
    assert new.conclusion == 10
    assert din(new)._certified
    # every node is checked against the signature's current rule
    with pytest.raises(InvalidDerivationError) as exc:
        din(old)
    assert str(exc.value) == "rule r: conclusion index mismatch"


_STEP, _BOUND = 1, 10


def test_rule_expressions_read_module_globals_at_call_time(monkeypatch):
    sig = IndexedSignature(
        "Globals",
        [
            rule("z", conclusion=lambda P: 0),
            rule(
                "s",
                params=("n",),
                premises=(lambda P: P["n"],),
                side=(("bounded", lambda P: P["n"] < _BOUND),),
                conclusion=lambda P: P["n"] + _STEP,
            ),
        ],
    )
    z = din(sig.dnode("z", {}))
    assert din(sig.dnode("s", {"n": 0}, (z,))).root.conclusion == 1
    monkeypatch.setattr(sys.modules[__name__], "_STEP", 5)
    node = sig.dnode("s", {"n": 0}, (z,))
    assert node.conclusion == 5 and din(node)._certified
    monkeypatch.setattr(sys.modules[__name__], "_BOUND", 0)
    with pytest.raises(InvalidDerivationError) as exc:
        din(node)
    assert str(exc.value) == "rule s: side condition 'bounded' failed"


def test_a_copied_signature_builds_equal_derivations_and_certifies_them():
    sig = IndexedSignature("Copied", [rule("r", params=("x",), conclusion=lambda P: P["x"])])
    sig.derive("r", {"x": 1})
    for twin in (copy.deepcopy(sig), IndexedSignature("Copied", [copy.copy(sig.rules["r"])])):
        hand = Derivation(twin, DNode(twin, 1, "r", (("x", 1),), (), 1))
        for d in (twin.derive("r", {"x": 1}), din(twin.dnode("r", {"x": 1}))):
            assert d == hand and d._certified


def test_witnesses_may_be_any_iterable():
    nat = CountingNat()
    z = nat.build(0)
    for witnesses in ((w for w in [z]), [z], iter((z,))):
        d = din(nat.sig.dnode("s", {"n": 0}, witnesses))
        assert d._certified and d == nat.build(1)
    with pytest.raises(InvalidDerivationError) as exc:
        nat.sig.dnode("s", {"n": 0}, (w for w in [z, z]))
    assert str(exc.value) == "CountingNat.s: expected 1 premise witnesses, got 2"


# ---------------------------------------------------------------------------
# cases: one proof case per rule, checked total when built


def test_cases_rejects_a_table_with_a_missing_or_an_extra_row_naming_them():
    case = lambda rec, w, node: node.rule
    with pytest.raises(ValueError) as exc:
        indexed.cases(EVAL_SIG, {"ev1": case})
    assert str(exc.value) == "cases over Eval: missing rules ['ev2'], extra rules []"
    with pytest.raises(ValueError) as exc:
        indexed.cases(EVAL_SIG, {"ev1": case, "ev2": case, "ev3": case, "isLit": case})
    assert str(exc.value) == "cases over Eval: missing rules [], extra rules ['ev3', 'isLit']"
    step = indexed.cases(EVAL_SIG, {"ev1": case, "ev2": case})
    assert ifold(step, (add(lit(1), lit(2)), Val(3)), arith.build_eval_derivation(add(lit(1), lit(2)))) == "ev2"


@pytest.mark.parametrize("name", ["bogus", ["ev1"]], ids=["unknown", "unhashable"])
def test_folding_a_node_whose_rule_has_no_case_names_the_signature_and_the_rule(name):
    step = indexed.cases(EVAL_SIG, {"ev1": lambda rec, w, node: 1, "ev2": lambda rec, w, node: 2})
    node = DNode(EVAL_SIG, 1, name, (), (), (lit(1), Val(1)))
    with pytest.raises(InvalidDerivationError) as exc:
        ifold(step, node.conclusion, Derivation(EVAL_SIG, node))
    assert str(exc.value) == f"Eval has no case for rule {name!r}"


def test_birule_rejects_a_subject_pattern_head_that_names_no_constructor():
    conclusion = lambda P, s: s
    top = ("lit", "x")
    nested = (arith._add, ("lit", "x"), "e2")
    for name, pattern in (("top", top), ("nested", nested)):
        with pytest.raises(ValueError, match=f"rule {name!r}: subject pattern head 'lit'"):
            indexed.birule(1, name, params=("x", "e2"), conclusion=conclusion, subject=pattern)
        with pytest.raises(ValueError, match=f"rule {name!r}"):
            rule(name, params=("x", "e2"), conclusion=conclusion, subject=pattern)
    ok = rule("ok", params=("x", "e2"), conclusion=conclusion, subject=(arith._add, (arith._lit, "x"), "e2"))
    assert ok.subject[1][0] is arith._lit


def test_a_rule_checks_its_subject_heads_however_it_is_built():
    is_lit = arith.ISTRM_SIG.rules["isLit"]
    with pytest.raises(ValueError, match="rule 'isLit': subject pattern head 'lit'"):
        dataclasses.replace(is_lit, subject=("lit", "x"))
    with pytest.raises(ValueError, match="rule 'isLit': subject pattern head 'lit'"):
        indexed.Rule(1, "isLit", ("x",), (), (), is_lit.conclusion, (arith._add, ("lit", "x"), "x"))
    assert dataclasses.replace(is_lit).subject == is_lit.subject
