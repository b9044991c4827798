"""Bi-functor laws on the Dec/Exp signature and a tiny standalone instance."""

import dataclasses
import json

import pytest

from alacarte import testkit
from alacarte.lang_l import LANG, EMPTY_ENV, Env, Ty, cn, env_, join_, scope, vr
from alacarte.mutual import (
    BiMendlerAlgebra,
    BiDNode,
    BiDerivation,
    IndexedBiMendlerAlgebra,
    IndexedBiSignature,
    MalformedNodeError,
    WrongComponentError,
    bifmap,
    bifold_1,
    bifold_2,
    bi_derivation_to_json,
    birule,
    bistep_once,
    biterm_to_json,
    din_bi,
    dout_bi,
    hfold_1,
    hfold_2,
    hstep_once,
    in_bi,
    out_bi,
    validate_bi,
)
from alacarte.indexed import InvalidDerivationError, WrongIndexError, din


def lang_layers(depth=3):
    spec = testkit.BiEnumSpec(LANG, depth, testkit._lang_pools())
    return testkit.biterm_layers(spec)


def all_biterms(depth=3):
    out = []
    for decs, exps in lang_layers(depth):
        out.extend(decs)
        out.extend(exps)
    return out


SIZE = BiMendlerAlgebra(
    step1=lambda r1, r2, n: 1 + sum(r1(h) for h in n.rec1) + sum(r2(h) for h in n.rec2),
    step2=lambda r1, r2, n: 1 + sum(r1(h) for h in n.rec1) + sum(r2(h) for h in n.rec2),
)

REBUILD = BiMendlerAlgebra(
    step1=lambda r1, r2, n: in_bi(bifmap(r1, r2, n)),
    step2=lambda r1, r2, n: in_bi(bifmap(r1, r2, n)),
)


# ---------------------------------------------------------------------------
# bifmap


def test_bifmap_identity_scope_node():
    t = scope(env_(EMPTY_ENV), vr("x"))
    n = out_bi(t)
    ident = lambda x: x
    assert bifmap(ident, ident, n) == n


def test_bifmap_composition_sampled():
    tag = lambda x: ("t", x)
    untag = lambda x: x[1]
    for t in all_biterms(2):
        n = out_bi(t)
        lhs = bifmap(untag, untag, bifmap(tag, tag, n))
        rhs = bifmap(lambda x: untag(tag(x)), lambda x: untag(tag(x)), n)
        assert lhs == rhs == n


def test_bifmap_join_maps_both_rec1_slots():
    d = env_(EMPTY_ENV)
    dp = env_(Env([("x", cn("c", Ty("a")))]))
    n = out_bi(join_(d, dp))
    mapped = bifmap(lambda x: ("seen", x), lambda x: x, n)
    assert mapped.rec1 == (("seen", d), ("seen", dp))


# ---------------------------------------------------------------------------
# in/out per component


def test_in_out_roundtrip_per_component():
    for t in all_biterms(3):
        assert in_bi(out_bi(t)) == t
        assert out_bi(in_bi(out_bi(t))) == out_bi(t)


def test_in_bi_rejects_component_mixups():
    d = env_(EMPTY_ENV)
    with pytest.raises(MalformedNodeError):
        in_bi(LANG.node(1, "join", (d, vr("x"))))


# ---------------------------------------------------------------------------
# bifolds


def test_bifold2_size_of_variable():
    assert bifold_2(SIZE, vr("x")) == 1


def test_bifold1_computation_rule_on_join():
    t = join_(env_(EMPTY_ENV), env_(EMPTY_ENV))
    lhs = bifold_1(SIZE, t)
    rhs = bistep_once(
        SIZE,
        out_bi(t),
        lambda s: bifold_1(SIZE, s),
        lambda s: bifold_2(SIZE, s),
    )
    assert lhs == rhs == 3


def test_bifold_component_mismatch():
    with pytest.raises(WrongComponentError):
        bifold_1(SIZE, vr("x"))
    with pytest.raises(WrongComponentError):
        bifold_2(SIZE, env_(EMPTY_ENV))


def test_rebuild_identity_sweep():
    for t in all_biterms(3):
        fold = bifold_1 if t.component == 1 else bifold_2
        assert fold(REBUILD, t) == t


def test_mutual_computation_rules_sweep():
    for t in all_biterms(3):
        fold = bifold_1 if t.component == 1 else bifold_2
        lhs = fold(SIZE, t)
        rhs = bistep_once(
            SIZE,
            out_bi(t),
            lambda s: bifold_1(SIZE, s),
            lambda s: bifold_2(SIZE, s),
        )
        assert lhs == rhs


# ---------------------------------------------------------------------------
# indexed bi-derivations (via the step relation)


def _step_derivation(e):
    from alacarte.lang_l import step_exp

    sub = step_exp(EMPTY_ENV, e)
    assert sub is not None
    return sub[1]


def _axiom_step():
    from alacarte.lang_l import PVar, apply_, closure

    ty = Ty("a")
    redex = apply_(closure(EMPTY_ENV, PVar("x", ty), vr("x")), cn("c", ty))
    return _step_derivation(redex)


HDEPTH = IndexedBiMendlerAlgebra(
    step1=lambda r1, r2, w, n: 1
    + max((r1(wi, h) if f == 1 else r2(wi, h) for f, wi, h in n.premises), default=0),
    step2=lambda r1, r2, w, n: 1
    + max((r1(wi, h) if f == 1 else r2(wi, h) for f, wi, h in n.premises), default=0),
)


def test_hfold_depth_on_axiom_step():
    d = _axiom_step()
    assert d.root.rule == "E-BETA"
    assert hfold_2(HDEPTH, d.root.conclusion, d) == 1


def test_hfold_preserves_conclusion_index():
    extract = IndexedBiMendlerAlgebra(
        step1=lambda r1, r2, w, n: w, step2=lambda r1, r2, w, n: w
    )
    d = _axiom_step()
    w = d.root.conclusion
    assert hfold_2(extract, w, d) == w


def test_hfold_computation_rule_nested():
    from alacarte.lang_l import apply_, closure, PVar, step_exp

    ty = Ty("a")
    inner = apply_(closure(EMPTY_ENV, PVar("x", ty), vr("x")), cn("c", ty))
    outer = apply_(closure(EMPTY_ENV, PVar("y", ty), vr("y")), inner)
    sub = step_exp(EMPTY_ENV, outer)
    d = sub[1]
    assert d.root.rule == "E-APP2"
    w = d.root.conclusion
    lhs = hfold_2(HDEPTH, w, d)
    rhs = hstep_once(
        HDEPTH,
        w,
        d.root,
        lambda wi, di: hfold_2(HDEPTH, wi, di) if di.family == 2 else None,
        lambda wi, di: hfold_2(HDEPTH, wi, di),
    )
    assert lhs == rhs == 2


def test_din_bi_validates():
    d = _axiom_step()
    assert din_bi(dout_bi(d)) == d
    assert validate_bi(d)


def test_din_bi_rejects_forged_family():
    node = dout_bi(_axiom_step())
    bad = BiDNode(node.sig, 1, node.rule, node.params, node.premises, node.conclusion)
    with pytest.raises(InvalidDerivationError, match="family"):
        din_bi(bad)


def test_biterm_json_has_component_discriminator():
    js = biterm_to_json(scope(env_(EMPTY_ENV), vr("x")))
    assert js["component"] == 2
    assert js["rec1"][0]["component"] == 1


# ---------------------------------------------------------------------------
# certificates: din_bi certifies, validate_bi stops at certified derivations


class CountingParity:
    """Throwaway mutual relations even (family 1) and odd (family 2) over
    naturals, whose rule expressions count their calls."""

    def __init__(self):
        self.calls = {"index": 0, "side": 0}
        index, side = self._counted("index"), self._counted("side")
        self.sig = IndexedBiSignature(
            "CountingParity",
            [
                birule(1, "even-z", conclusion=index(lambda P: 0)),
                birule(
                    1,
                    "even-s",
                    params=("n",),
                    premises=((2, index(lambda P: P["n"])),),
                    side=(("small", side(lambda P: P["n"] < 10)),),
                    conclusion=index(lambda P: P["n"] + 1),
                ),
                birule(
                    2,
                    "odd-s",
                    params=("n",),
                    premises=((1, index(lambda P: P["n"])),),
                    side=(("small", side(lambda P: P["n"] < 10)),),
                    conclusion=index(lambda P: P["n"] + 1),
                ),
            ],
        )

    def _counted(self, key):
        def wrap(f):
            def counted(P):
                self.calls[key] += 1
                return f(P)

            return counted

        return wrap

    def build(self, n):
        d = din_bi(self.sig.dnode("even-z", {}))
        for k in range(n):
            d = din_bi(self.sig.dnode("odd-s" if k % 2 == 0 else "even-s", {"n": k}, (d,)))
        return d

    def reset(self):
        self.calls.update(index=0, side=0)


def test_validate_bi_on_din_built_derivation_calls_no_rule_expression():
    par = CountingParity()
    d = par.build(5)
    par.reset()
    assert validate_bi(d)
    assert par.calls == {"index": 0, "side": 0}


def test_din_and_din_bi_of_a_dnode_built_node_rerun_every_index_and_side_condition():
    par = CountingParity()
    child = par.build(2)
    node = par.sig.dnode("odd-s", {"n": 2}, (child,))
    for check in (din, din_bi):
        par.reset()
        assert check(node)._certified
        assert par.calls == {"index": 2, "side": 1}


def test_forged_bi_root_over_certified_children_rejected_with_seed_reason():
    par = CountingParity()
    child = par.build(10)  # even, concluding 10
    forged = BiDerivation(par.sig, par.sig.dnode("odd-s", {"n": 10}, (child,)))
    assert validate_bi(child)
    verdict = validate_bi(forged)
    assert (verdict.ok, verdict.path, verdict.reason) == (
        False,
        (),
        "rule odd-s: side condition 'small' failed",
    )
    n = par.build(3).root
    wrong = BiDNode(n.sig, n.family, n.rule, n.params, n.premises, 7)
    verdict = validate_bi(BiDerivation(n.sig, wrong))
    assert (verdict.ok, verdict.path, verdict.reason) == (
        False,
        (),
        "rule odd-s: conclusion index mismatch",
    )


def test_din_bi_rejects_replaced_conclusion():
    par = CountingParity()
    node = dataclasses.replace(par.sig.dnode("odd-s", {"n": 0}, (par.build(0),)), conclusion=5)
    with pytest.raises(InvalidDerivationError, match="conclusion index mismatch"):
        din_bi(node)


def test_din_bi_equals_and_hashes_as_hand_built():
    for d in (_axiom_step(), CountingParity().build(4)):
        n = dout_bi(d)
        assert din_bi(n) == BiDerivation(n.sig, n)
        assert hash(din_bi(n)) == hash(BiDerivation(n.sig, n))
        assert repr(din_bi(n)) == repr(BiDerivation(n.sig, n))


# ---------------------------------------------------------------------------
# characterization: every rejection's exact message, path and reason


def test_bi_dnode_rejections_exact_messages():
    par = CountingParity()
    cases = [
        (("odd-z", {}), "CountingParity has no rule 'odd-z'"),
        (("odd-s", {}), "CountingParity.odd-s: params [] do not match schema ['n']"),
        (("odd-s", {"n": 0}), "CountingParity.odd-s: expected 1 premise witnesses, got 0"),
    ]
    for args, message in cases:
        with pytest.raises(InvalidDerivationError) as exc:
            par.sig.dnode(*args)
        assert str(exc.value) == message


def _parity_rejections(par):
    """(label, node, reason) for every reason the checker gives on a 2-family signature."""
    sig = par.sig
    zero, two = par.build(0), par.build(2)
    good = sig.dnode("odd-s", {"n": 0}, (zero,))

    def hand(family=2, rule="odd-s", params=good.params, premises=good.premises, conclusion=1):
        return BiDNode(sig, family, rule, params, premises, conclusion)

    other = CountingParity().build(0)
    not_fam1 = "rule odd-s: premise 0 witness is not a family-1 derivation"
    child = "rule odd-s: premise 0 expects conclusion 0, child concludes 2"
    return [
        ("unknown rule", hand(rule="odd-z"), "unknown rule 'odd-z'"),
        ("family", hand(family=1), "rule odd-s: family mismatch"),
        ("schema", hand(params=(("m", 0),)), "rule odd-s: parameter schema mismatch"),
        ("side", sig.dnode("odd-s", {"n": 10}, (par.build(10),)), "rule odd-s: side condition 'small' failed"),
        ("premise triple", hand(premises=((0, zero),)), "rule odd-s: premise 0 is not a (family, index, witness) triple"),
        ("count", hand(premises=()), "rule odd-s: wrong number of premises"),
        ("premise family", hand(premises=((2, 0, zero),)), "rule odd-s: premise 0 family mismatch"),
        ("premise index", hand(premises=((1, 5, zero),)), "rule odd-s: premise 0 index mismatch"),
        ("conclusion", hand(conclusion=7), "rule odd-s: conclusion index mismatch"),
        ("witness node", hand(premises=((1, 0, zero.root),)), not_fam1),
        ("witness family", hand(premises=((1, 0, par.build(1)),)), not_fam1),
        ("witness sig", hand(premises=((1, 0, other),)), not_fam1),
        ("dnode-built witness", sig.dnode("odd-s", {"n": 0}, (other,)), not_fam1),
        ("child", hand(premises=((1, 0, two),)), child),
        ("dnode-built child", sig.dnode("odd-s", {"n": 0}, (two,)), child),
    ]


def test_bi_checker_rejections_exact_reasons_at_root_and_nested():
    par = CountingParity()
    for label, bad, reason in _parity_rejections(par):
        with pytest.raises(InvalidDerivationError) as exc:
            din_bi(bad)
        assert str(exc.value) == reason, label
        verdict = validate_bi(BiDerivation(par.sig, bad))
        assert (verdict.ok, verdict.path, verdict.reason) == (False, (), reason), label
        if bad.conclusion < 10:
            parent = par.sig.dnode("even-s", {"n": bad.conclusion}, (BiDerivation(par.sig, bad),))
            verdict = validate_bi(BiDerivation(par.sig, parent))
            if bad.family != 2:  # the parent reads the child's family from its root
                path, reason = (), "rule even-s: premise 0 witness is not a family-2 derivation"
            else:
                path = (0,)
            assert (verdict.ok, verdict.path, verdict.reason) == (False, path, reason), label


def test_bi_checker_rejects_a_node_of_no_indexed_signature_or_an_unhashable_rule():
    par = CountingParity()
    sig = par.sig
    good = sig.dnode("odd-s", {"n": 0}, (par.build(0),))
    cases = [
        ("sig", dataclasses.replace(good, sig=None), "rule 'odd-s': signature is a NoneType, not an indexed signature"),
        ("rule", dataclasses.replace(good, rule=["odd-s"]), "unknown rule ['odd-s']"),
    ]
    for label, bad, reason in cases:
        with pytest.raises(InvalidDerivationError) as exc:
            din_bi(bad)
        assert str(exc.value) == reason, label
        verdict = validate_bi(BiDerivation(sig, bad))
        if label == "sig":
            reason = "derivation of CountingParity has a root of a NoneType, not an indexed signature"
        assert (verdict.ok, verdict.path, verdict.reason) == (False, (), reason), label
        parent = sig.dnode("even-s", {"n": 1}, (BiDerivation(sig, bad),))
        verdict = validate_bi(BiDerivation(sig, parent))
        if label == "sig":  # the parent reads the witness's signature from its root
            expected = (False, (), "rule even-s: premise 0 witness is not a family-2 derivation")
        else:
            expected = (False, (0,), reason)
        assert (verdict.ok, verdict.path, verdict.reason) == expected, label
    verdict = validate_bi(BiDerivation(None, good))
    assert (verdict.ok, verdict.path, verdict.reason) == (
        False,
        (),
        "derivation signature is a NoneType, not an indexed signature",
    )


def test_bi_fold_entry_errors_exact_messages():
    par = CountingParity()
    odd, even = par.build(3), par.build(2)
    cases = [
        (lambda: hfold_1(HDEPTH, 3, odd), WrongComponentError, "hfold_1 applied to a family-2 derivation"),
        (lambda: hfold_2(HDEPTH, 2, even), WrongComponentError, "hfold_2 applied to a family-1 derivation"),
        (lambda: hfold_2(HDEPTH, 4, odd), WrongIndexError, "derivation concludes 3, not 4"),
        (lambda: hfold_1(HDEPTH, 5, even), WrongIndexError, "derivation concludes 2, not 5"),
        (lambda: bifold_1(SIZE, vr("x")), WrongComponentError, "bifold_1 applied to a second-component term"),
        (lambda: bifold_2(SIZE, env_(EMPTY_ENV)), WrongComponentError, "bifold_2 applied to a first-component term"),
    ]
    for run, error, message in cases:
        with pytest.raises(error) as exc:
            run()
        assert str(exc.value) == message
    wrong = IndexedBiMendlerAlgebra(
        step1=lambda r1, r2, w, n: [r2(9, h) for _, _, h in n.premises],
        step2=lambda r1, r2, w, n: [r1(9, h) for _, _, h in n.premises],
    )
    with pytest.raises(WrongIndexError) as exc:
        hfold_2(wrong, 3, odd)
    assert str(exc.value) == "recursive call at 9 on a derivation concluding 2"


def test_bi_derivation_json_full_nested_output():
    d = CountingParity().build(3)

    def expected(family):
        js = {"family": family(1), "rule": "even-z", "index": "#0", "params": {}, "premises": []}
        for n, fam, name in ((0, 2, "odd-s"), (1, 1, "even-s"), (2, 2, "odd-s")):
            js = {
                "family": family(fam),
                "rule": name,
                "index": f"#{n + 1}",
                "params": {"n": f"#{n}"},
                "premises": [js],
            }
        return js

    encode = lambda v: f"#{v}"
    js = bi_derivation_to_json(d, encode)
    assert json.dumps(js) == json.dumps(expected(lambda f: f))
    js = bi_derivation_to_json(d, encode, ("Even", "Odd"))
    assert json.dumps(js) == json.dumps(expected(lambda f: ("Even", "Odd")[f - 1]))
    assert bi_derivation_to_json(d)["premises"][0]["family"] == 1


# ---------------------------------------------------------------------------
# compiled rules on two families


def _pairing():
    """Family 1 ``pair`` recurses into both families; ``one``/``two`` are axioms."""
    return IndexedBiSignature(
        "Pairing",
        [
            birule(1, "one", params=("n",), conclusion=lambda P: P["n"]),
            birule(2, "two", params=("n",), conclusion=lambda P: P["n"]),
            birule(
                1,
                "pair",
                params=("a", "b"),
                premises=((1, lambda P: P["a"]), (2, lambda P: P["b"])),
                conclusion=lambda P: (P["a"], P["b"]),
            ),
        ],
    )


def test_bi_rules_build_bi_nodes_through_the_one_dnode():
    from alacarte.indexed import IndexedSignature

    assert vars(IndexedBiSignature)["dnode"] is IndexedSignature.dnode
    sig = _pairing()
    a, b = din_bi(sig.dnode("one", {"n": 1})), din_bi(sig.dnode("two", {"n": 2}))
    node = sig.dnode("pair", {"a": 1, "b": 2}, (a, b))
    assert type(node) is BiDNode
    assert node == BiDNode(sig, 1, "pair", (("a", 1), ("b", 2)), ((1, 1, a), (2, 2, b)), (1, 2))
    assert din_bi(node)._certified and (a.family, b.family) == (1, 2)


def test_dnode_built_two_family_child_links_keep_their_exact_reasons():
    sig = _pairing()
    one, two = din_bi(sig.dnode("one", {"n": 1})), din_bi(sig.dnode("two", {"n": 2}))
    three = din_bi(sig.dnode("two", {"n": 3}))
    cases = [
        ((one, three), "rule pair: premise 1 expects conclusion 2, child concludes 3"),
        ((one, din_bi(sig.dnode("one", {"n": 2}))), "rule pair: premise 1 witness is not a family-2 derivation"),
        ((two, two), "rule pair: premise 0 witness is not a family-1 derivation"),
        ((one, two.root), "rule pair: premise 1 witness is not a family-2 derivation"),
    ]
    for witnesses, reason in cases:
        node = sig.dnode("pair", {"a": 1, "b": 2}, witnesses)
        with pytest.raises(InvalidDerivationError) as exc:
            din_bi(node)
        assert str(exc.value) == reason
        hand = BiDNode(sig, node.family, node.rule, node.params, node.premises, node.conclusion)
        verdict = validate_bi(BiDerivation(sig, hand))
        assert (verdict.ok, verdict.path, verdict.reason) == (False, (), reason)


def test_a_bi_rule_replaced_after_first_use_is_the_one_dnode_instantiates():
    sig = _pairing()
    old = sig.dnode("two", {"n": 4})
    sig.rules["two"] = birule(2, "two", params=("n",), conclusion=lambda P: -P["n"])
    new = sig.dnode("two", {"n": 4})
    assert (old.conclusion, new.conclusion) == (4, -4) and din_bi(new)._certified
    with pytest.raises(InvalidDerivationError) as exc:
        din_bi(old)
    assert str(exc.value) == "rule two: conclusion index mismatch"


# ---------------------------------------------------------------------------
# one rule class and one rule-instance layout for every family


def test_one_rule_class_and_one_node_class_for_every_family():
    from alacarte.arith import EVAL_SIG
    from alacarte.indexed import DNode, Rule, rule
    from alacarte.lang_l.step import STEP_SIG, step_exp
    from alacarte.mutual import BiRule

    assert DNode is BiDNode and Rule is BiRule
    params, ix, side, concl = ("n",), lambda P: P["n"], (("small", lambda P: P["n"] < 9),), lambda P: P["n"] + 1
    one, bi = rule("s", params, (ix,), side, concl), birule(1, "s", params, ((1, ix),), side, concl)
    assert type(one) is type(bi) is Rule
    for f in dataclasses.fields(Rule):
        assert getattr(one, f.name) == getattr(bi, f.name), f.name
    assert (one.family, one.premises) == (1, ((1, ix),))
    evaluation = EVAL_SIG.dnode("ev1", {"x": 1})
    rho = Env([("x", cn("c", Ty("a")))])
    step = step_exp(rho, vr("x"))[1].root
    assert step.sig is STEP_SIG and evaluation.sig is EVAL_SIG
    assert type(evaluation) is type(step) is DNode
    assert (evaluation.family, step.family) == (1, 2)
