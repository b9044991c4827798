"""A block of three mutually recursive sorts on the one kernel term core.

Sort 1 holds even numerals, sort 2 odd numerals and sort 3 tests over
them.  The same ``Signature``, ``node``, generated constructors, ``in_``,
Mendler fold, enumerator, term JSON and relation machinery that serve one
and two sorts serve this block; nothing here is specific to three.
"""

import json

import pytest

from alacarte import indexed
from alacarte.kernel import (
    ForeignHandleError,
    Handle,
    MalformedNodeError,
    Node,
    Signature,
    SortedAlgebra,
    Term,
    fmap_by_sort,
    in_,
    mfold,
    mfold_by_sort,
    out_,
    signature_to_json,
    step_once,
    step_once_by_sort,
    term_from_json,
    term_to_json,
)
from alacarte.mutual import (
    BiDNode,
    IndexedBiSignature,
    WrongComponentError,
    bi_derivation_to_json,
    birule,
    din_bi,
    hfold,
    hstep_once,
    validate_bi,
)
from alacarte.testkit import EnumSpec, term_layers

PARITY = Signature(
    "parity",
    {"zero": (), "succ_e": ("rec2",)},
    {"succ_o": ("rec1",)},
    {"is_zero": ("rec1",), "odd_test": ("int", "rec2", "id"), "both": ("rec3", "rec1", "rec3")},
)

zero = PARITY.constructor("zero")
succ_e = PARITY.constructor("succ_e")
succ_o = PARITY.constructor("succ_o")
is_zero = PARITY.constructor("is_zero")
odd_test = PARITY.constructor("odd_test")
both = PARITY.constructor("both")


def numeral(n: int) -> Term:
    """The numeral ``n``: a sort-1 term when ``n`` is even, a sort-2 term when odd."""
    t = zero()
    for k in range(1, n + 1):
        t = succ_o(t) if k % 2 else succ_e(t)
    return t


def value(t: Term) -> int:
    """Direct structural recursion, independent of the fold."""
    return 0 if t.root.ctor == "zero" else 1 + value(t.root.rec[0])


# ---------------------------------------------------------------------------
# declaration


def test_the_declaration_records_each_sort_and_each_slot_sort():
    assert PARITY.rec_kinds == ("rec1", "rec2", "rec3")
    assert [list(table) for table in PARITY.sorts] == [["zero", "succ_e"], ["succ_o"], ["is_zero", "odd_test", "both"]]
    assert PARITY.ctors["both"] == ("rec3", "rec1", "rec3")
    plan = PARITY._plans["both"]
    assert (plan.sort, plan.rec_sorts) == (3, (3, 1, 3))
    assert plan.checks == ((1, 1), (0, 3), (2, 3))  # by sort, then position


def test_a_constructor_name_may_be_used_in_one_sort_only():
    with pytest.raises(ValueError) as info:
        Signature("clash", {"a": ()}, {"b": ("rec1",)}, {"a": ("rec2",)})
    assert str(info.value) == "duplicate constructor 'a' in clash"


@pytest.mark.parametrize(
    "kind, sorts",
    [("rec4", 3), ("rec3", 2), ("rec", 3), ("rec1", 1)],
)
def test_an_undeclared_recursive_kind_is_rejected(kind, sorts):
    tables = [{f"c{k}": ()} for k in range(sorts)]
    tables[0]["bad"] = ("int", kind)
    with pytest.raises(ValueError) as info:
        Signature("undeclared", *tables)
    assert str(info.value) == f"unknown slot kind {kind!r} in undeclared.bad"


# ---------------------------------------------------------------------------
# nodes, constructors, views


def test_node_and_in_agree_with_the_generated_constructors():
    two, three = numeral(2), numeral(3)
    cases = [
        (zero, "zero", ()),
        (succ_e, "succ_e", (three,)),
        (succ_o, "succ_o", (two,)),
        (is_zero, "is_zero", (two,)),
        (odd_test, "odd_test", (7, three, "x")),
        (both, "both", (is_zero(two), two, is_zero(zero()))),
    ]
    for make, ctor, slots in cases:
        built = make(*slots)
        assert built == in_(PARITY.node(ctor, slots))
        assert repr(built) == repr(in_(PARITY.node(ctor, slots)))


def test_rec_holds_every_recursive_slot_in_declaration_order():
    a, two, b = is_zero(zero()), numeral(2), is_zero(numeral(2))
    t = both(a, two, b)
    assert t.root.rec == (a, two, b)
    assert t.root.rec_of(1) == (two,)
    assert t.root.rec_of(3) == (a, b)
    assert t.root.rec1 == (two,) and t.root.rec2 == ()
    assert odd_test(1, numeral(1), "x").root.payload == (1, "x")
    assert [numeral(n).component for n in range(4)] == [1, 2, 1, 2]
    assert (t.component, t.root.component) == (3, 3)


def rejects(build, message):
    with pytest.raises(MalformedNodeError) as info:
        build()
    assert str(info.value) == message


def test_a_child_of_the_wrong_sort_is_rejected_with_the_component_message():
    two, three = numeral(2), numeral(3)
    for build in (lambda: in_(PARITY.node("succ_o", (three,))), lambda: succ_o(three)):
        rejects(build, f"parity.succ_o: slot {three!r} is not a component-1 term")
    for build in (lambda: in_(PARITY.node("succ_e", (two,))), lambda: succ_e(two)):
        rejects(build, f"parity.succ_e: slot {two!r} is not a component-2 term")
    for build in (lambda: in_(PARITY.node("is_zero", (5,))), lambda: is_zero(5)):
        rejects(build, "parity.is_zero: slot 5 is not a component-1 term")
    # the sort-1 slot (position 1) is checked before the sort-3 slots around it
    for build in (lambda: in_(PARITY.node("both", (None, three, None))), lambda: both(None, three, None)):
        rejects(build, f"parity.both: slot {three!r} is not a component-1 term")
    for build in (lambda: in_(PARITY.node("both", (two, two, None))), lambda: both(two, two, None)):
        rejects(build, f"parity.both: slot {two!r} is not a component-3 term")
    # payloads come first, in declaration order
    for build in (lambda: PARITY.node("odd_test", (True, two, "")), lambda: odd_test(True, two, "")):
        rejects(build, "parity.odd_test: True is not a valid 'int' payload")
    rejects(lambda: PARITY.node("nope"), "parity has no constructor 'nope'")
    rejects(lambda: PARITY.constructor("nope"), "parity has no constructor 'nope'")


def test_fmap_by_sort_maps_each_slot_with_its_sorts_function():
    t = both(is_zero(zero()), numeral(2), is_zero(zero()))
    mapped = fmap_by_sort((lambda x: ("one", x), lambda x: ("two", x), lambda x: ("three", x)), out_(t))
    assert mapped.rec == tuple((name, x) for name, x in zip(("three", "one", "three"), t.root.rec))


# ---------------------------------------------------------------------------
# Mendler fold over the block


def _steps():
    """Sort 1 and 2 fold to the numeral's value; sort 3 to the test's truth."""

    def numeral_step(r1, r2, r3, n):
        if n.ctor == "zero":
            return 0
        (h,) = n.rec
        return 1 + (r2(h) if n.ctor == "succ_e" else r1(h))

    def test_step(r1, r2, r3, n):
        if n.ctor == "is_zero":
            return r1(n.rec[0]) == 0
        if n.ctor == "odd_test":
            return r2(n.rec[0]) % 2 == 1
        a, num, b = n.rec
        return r3(a) and r3(b) and r1(num) % 2 == 0

    return SortedAlgebra((numeral_step, numeral_step, test_step))


def test_a_mendler_fold_runs_over_the_block():
    alg = _steps()
    for n in range(8):
        assert mfold_by_sort(alg, numeral(n)) == n == value(numeral(n))
    assert mfold_by_sort(alg, is_zero(zero())) is True
    assert mfold_by_sort(alg, is_zero(numeral(4))) is False
    assert mfold_by_sort(alg, odd_test(0, numeral(5), "x")) is True
    assert mfold_by_sort(alg, both(is_zero(zero()), numeral(6), is_zero(zero()))) is True
    assert mfold_by_sort(alg, both(is_zero(zero()), numeral(6), is_zero(numeral(2)))) is False


def test_the_mendler_computation_rule_holds_per_sort():
    alg = _steps()
    fold = lambda s: mfold_by_sort(alg, s)
    for t in (numeral(3), numeral(4), both(is_zero(zero()), numeral(2), odd_test(1, numeral(1), "y"))):
        assert mfold_by_sort(alg, in_(out_(t))) == step_once_by_sort(alg, out_(t), (fold, fold, fold))


@pytest.mark.parametrize(
    "misuse",
    [
        lambda r1, r2, r3, h: r1(h),  # a sort-3 handle given to sort 1's rec
        lambda r1, r2, r3, h: r2(h),  # ... to sort 2's rec
    ],
)
def test_a_handle_passed_to_another_sorts_rec_is_foreign(misuse):
    def step(r1, r2, r3, n):
        if n.ctor == "both":
            return misuse(r1, r2, r3, n.rec[0])
        return 0

    alg = SortedAlgebra((step, step, step))
    with pytest.raises(ForeignHandleError):
        mfold_by_sort(alg, both(is_zero(zero()), zero(), is_zero(zero())))


def test_a_handle_from_another_fold_is_foreign():
    kept = []

    def keep(r1, r2, r3, n):
        kept.extend(n.rec)
        return 0

    mfold_by_sort(SortedAlgebra((keep, keep, keep)), succ_o(zero()))
    use = lambda r1, r2, r3, n: r1(kept[0])
    with pytest.raises(ForeignHandleError):
        mfold_by_sort(SortedAlgebra((use, use, use)), succ_o(zero()))


def _tree(t: Term) -> tuple:
    """Each node as its constructor, its children's trees in slot order and its payload."""
    return (t.root.ctor, tuple(_tree(c) for c in t.root.rec), t.root.payload)


def test_the_one_sort_mendler_fold_equals_a_fold_built_from_step_once():
    # ``mfold`` takes every slot alike, whatever its sort: arities 0, 1 and 3, and payloads between slots
    seen = []

    def tree(rec, n):
        seen.append(n)
        return (n.ctor, tuple(rec(h) for h in n.rec), n.payload)

    spec = lambda t: step_once(tree, t.root, spec)
    terms = [t for layer in term_layers(EnumSpec(PARITY, 3, POOLS)) for t in layer]
    assert {t.root.ctor for t in terms} == {"zero", "succ_e", "succ_o", "is_zero", "odd_test", "both"}
    for t in terms:
        seen.clear()
        assert mfold(tree, t) == _tree(t)
        by_mfold = list(seen)
        seen.clear()
        assert spec(t) == _tree(t)
        assert [(n.ctor, len(n.rec), n.payload) for n in by_mfold] == [(n.ctor, len(n.rec), n.payload) for n in seen]
        assert all(type(n) is Node and all(type(h) is Handle for h in n.rec) for n in by_mfold)
        if not t.root.rec:
            assert by_mfold == [t.root] and by_mfold[0] is t.root  # a leaf is passed as it is


# ---------------------------------------------------------------------------
# enumeration


POOLS = {"int": (0, 1), "id": ("x",)}


def independent_counts(max_depth: int) -> list[tuple[int, int, int]]:
    """Terms of each sort at each exact depth, by counting, not by building."""
    pool = {kind: len(values) for kind, values in POOLS.items()}
    sort_of = {"rec1": 0, "rec2": 1, "rec3": 2}
    upto = [[0, 0, 0]]  # terms of depth <= d, per sort
    for d in range(1, max_depth + 1):
        row = []
        for table in PARITY.sorts:
            total = 0
            for kinds in table.values():
                product = 1
                for k in kinds:
                    product *= upto[d - 1][sort_of[k]] if k in sort_of else pool[k]
                total += product
            row.append(total)
        upto.append(row)
    return [(0, 0, 0)] + [tuple(upto[d][s] - upto[d - 1][s] for s in range(3)) for d in range(1, max_depth + 1)]


def test_the_enumerator_counts_match_an_independent_count_per_depth():
    layers = term_layers(EnumSpec(PARITY, 5, POOLS))
    got = [tuple(sum(1 for t in layer if t.component == s) for s in (1, 2, 3)) for layer in layers]
    assert got == independent_counts(5)
    assert got[1] == (1, 0, 0) and got[2] == (0, 1, 1)
    flat = [t for layer in layers for t in layer]
    assert len(set(flat)) == len(flat)
    for d, layer in enumerate(layers):
        assert [t.component for t in layer] == sorted(t.component for t in layer)  # sort 1 first
        for t in layer:
            assert _depth(t) == d


def _depth(t: Term) -> int:
    return 1 + max((_depth(c) for c in t.root.rec), default=0)


# ---------------------------------------------------------------------------
# term JSON


def test_term_json_names_the_component_and_each_recursive_kind():
    t = both(is_zero(zero()), numeral(2), odd_test(1, numeral(1), "y"))
    js = term_to_json(t)
    zero_js = {"component": 1, "ctor": "zero", "rec1": [], "rec2": [], "rec3": [], "payload": []}
    one_js = {"component": 2, "ctor": "succ_o", "rec1": [zero_js], "rec2": [], "rec3": [], "payload": []}
    two_js = {"component": 1, "ctor": "succ_e", "rec1": [], "rec2": [one_js], "rec3": [], "payload": []}
    expected = {
        "component": 3,
        "ctor": "both",
        "rec1": [two_js],
        "rec2": [],
        "rec3": [
            {"component": 3, "ctor": "is_zero", "rec1": [zero_js], "rec2": [], "rec3": [], "payload": []},
            {"component": 3, "ctor": "odd_test", "rec1": [], "rec2": [one_js], "rec3": [], "payload": [1, "y"]},
        ],
        "payload": [],
    }
    assert json.dumps(js) == json.dumps(expected)
    assert term_from_json(PARITY, js) == t
    for layer in term_layers(EnumSpec(PARITY, 3, POOLS)):
        for u in layer:
            assert term_from_json(PARITY, term_to_json(u)) == u


def test_term_json_of_the_wrong_component_is_rejected():
    js = term_to_json(numeral(1))
    js["component"] = 1
    with pytest.raises(MalformedNodeError, match=r"^parity.succ_o builds component 2, not 1$"):
        term_from_json(PARITY, js)


def test_term_json_with_a_child_too_many_under_one_sort_is_malformed():
    js = term_to_json(numeral(1))
    js["rec1"].append(js["rec1"][0])
    with pytest.raises(MalformedNodeError, match=r"^parity.succ_o expects 1 rec1 slots, got 2$"):
        term_from_json(PARITY, js)
    js["rec1"][1:] = []
    js["rec2"].append(js["rec1"][0])
    with pytest.raises(MalformedNodeError, match=r"^parity.succ_o expects 0 rec2 slots, got 1$"):
        term_from_json(PARITY, js)


def test_signature_json_lists_each_component():
    assert signature_to_json(PARITY) == {
        "signature": "parity",
        "components": [
            [{"name": "zero", "slots": []}, {"name": "succ_e", "slots": ["rec2"]}],
            [{"name": "succ_o", "slots": ["rec1"]}],
            [
                {"name": "is_zero", "slots": ["rec1"]},
                {"name": "odd_test", "slots": ["int", "rec2", "id"]},
                {"name": "both", "slots": ["rec3", "rec1", "rec3"]},
            ],
        ],
    }


# ---------------------------------------------------------------------------
# a three-family relation over the block: the value of a numeral (families 1
# and 2) and the truth of a test (family 3); an index is ``(term, result)``


def _evaluation():
    num = lambda P: P["t"].root.rec[0]
    return IndexedBiSignature(
        "Evaluation",
        [
            birule(
                1,
                "v-zero",
                params=("t",),
                side=(("zero", lambda P: P["t"].root.ctor == "zero"),),
                conclusion=lambda P: (P["t"], 0),
            ),
            birule(
                1,
                "v-succ-e",
                params=("t", "n"),
                premises=((2, lambda P: (num(P), P["n"])),),
                side=(("succ_e", lambda P: P["t"].root.ctor == "succ_e"),),
                conclusion=lambda P: (P["t"], P["n"] + 1),
            ),
            birule(
                2,
                "v-succ-o",
                params=("t", "n"),
                premises=((1, lambda P: (num(P), P["n"])),),
                side=(("succ_o", lambda P: P["t"].root.ctor == "succ_o"),),
                conclusion=lambda P: (P["t"], P["n"] + 1),
            ),
            birule(
                3,
                "t-is-zero",
                params=("t", "n"),
                premises=((1, lambda P: (num(P), P["n"])),),
                side=(("is_zero", lambda P: P["t"].root.ctor == "is_zero"),),
                conclusion=lambda P: (P["t"], P["n"] == 0),
            ),
        ],
    )


EVALUATION = _evaluation()


def derive(t: Term):
    """The evaluation derivation of a numeral or an ``is_zero`` test."""
    ctor = t.root.ctor
    if ctor == "zero":
        return din_bi(EVALUATION.dnode("v-zero", {"t": t}))
    child = derive(t.root.rec[0])
    rule = {"succ_e": "v-succ-e", "succ_o": "v-succ-o", "is_zero": "t-is-zero"}[ctor]
    return din_bi(EVALUATION.dnode(rule, {"t": t, "n": child.root.conclusion[1]}, (child,)))


def test_a_three_family_relation_passes_dnode_din_and_validate():
    for t in (numeral(0), numeral(3), numeral(4), is_zero(numeral(2)), is_zero(zero())):
        d = derive(t)
        assert d.family == t.component
        assert d.root.conclusion == (t, value(t) if t.component < 3 else value(t.root.rec[0]) == 0)
        assert d._certified and validate_bi(d)
        assert type(d.root) is BiDNode
    # a hand-built node is checked in full: a family-1 premise under a family-3 rule
    d = derive(is_zero(numeral(2)))
    forged = BiDNode(EVALUATION, 3, "t-is-zero", d.root.params, ((2,) + d.root.premises[0][1:],), d.root.conclusion)
    with pytest.raises(indexed.InvalidDerivationError, match="premise 0 family mismatch"):
        din_bi(forged)


def test_the_three_family_relation_json():
    d = derive(is_zero(numeral(2)))
    encode = lambda v: repr(v[1]) if isinstance(v, tuple) else v.root.ctor if isinstance(v, Term) else v
    js = bi_derivation_to_json(d, encode, ("Even", "Odd", "Test"))
    node = lambda family, rule, index, params, *premises: dict(
        family=family, rule=rule, index=index, params=params, premises=list(premises)
    )
    zero_js = node("Even", "v-zero", "0", {"t": "zero"})
    one_js = node("Odd", "v-succ-o", "1", {"t": "succ_o", "n": 0}, zero_js)
    two_js = node("Even", "v-succ-e", "2", {"t": "succ_e", "n": 1}, one_js)
    expected = node("Test", "t-is-zero", "False", {"t": "is_zero", "n": 2}, two_js)
    assert json.dumps(js) == json.dumps(expected)
    assert bi_derivation_to_json(d, encode)["premises"][0]["family"] == 1


def _height_algebra():
    def step(*args):
        *recs, w, node = args
        return 1 + max((recs[fam - 1](ix, h) for fam, ix, h in node.premises), default=0)

    return SortedAlgebra((step, step, step))


def test_an_indexed_fold_runs_over_the_three_families():
    alg = _height_algebra()
    for t, family in ((numeral(4), 1), (numeral(5), 2), (is_zero(numeral(4)), 3)):
        d = derive(t)
        assert hfold(family, alg, d.root.conclusion, d) == _depth(t)
    d = derive(is_zero(numeral(2)))
    with pytest.raises(WrongComponentError, match="hfold_1 applied to a family-3 derivation"):
        hfold(1, alg, d.root.conclusion, d)


def test_an_indexed_handle_passed_to_another_familys_rec_is_foreign():
    def step(r1, r2, r3, w, node):
        if node.family == 3:
            (fam, ix, h), = node.premises
            return r2(ix, h)  # a family-1 premise given to family 2's rec
        return 0

    d = derive(is_zero(numeral(2)))
    with pytest.raises(ForeignHandleError):
        hstep_once(SortedAlgebra((step, step, step)), d.root.conclusion, d.root, *(lambda wi, di: 0,) * 3)
