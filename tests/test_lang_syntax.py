"""Values, pattern matching, bindings, and the s-expression surface."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from alacarte.sexpr import SexprError

from alacarte.lang_l import (
    Arrow,
    DuplicateBindingError,
    EMPTY_ENV,
    Env,
    NonValueError,
    PApp,
    PCon,
    PVar,
    Ty,
    TypeEnv,
    apply_,
    bindings,
    closure,
    cn,
    env_,
    env_union,
    is_data_value,
    is_value,
    join_,
    match_,
    parse_dec,
    parse_env,
    parse_exp,
    parse_pat,
    parse_typ,
    patmatch,
    print_dec,
    print_exp,
    print_pat,
    print_typ,
    scope,
    vr,
)

TY_A = Ty("a")
TY_B = Ty("b")
AB = Arrow(TY_A, TY_B)


# ---------------------------------------------------------------------------
# env


def test_env_deterministic_order():
    e1 = Env([("y", 1), ("x", 2)])
    e2 = Env([("x", 2), ("y", 1)])
    assert e1 == e2
    assert e1.domain() == ("x", "y")


def test_env_union_right_biased():
    a = Env([("x", 1), ("y", 2)])
    b = Env([("y", 3), ("z", 4)])
    assert env_union(a, b) == Env([("x", 1), ("y", 3), ("z", 4)])


def test_env_union_with_an_empty_side_is_the_other_side():
    a = Env([("x", 1), ("y", 2)])
    assert env_union(a, EMPTY_ENV) is a
    assert env_union(EMPTY_ENV, a) is a
    assert env_union(a, Env()) is a and env_union(Env(), a) is a
    assert env_union(EMPTY_ENV, Env()) == EMPTY_ENV


def reference_env_entries(entries):
    """The spec: the last binding of each key, sorted by key."""
    items = {}
    for k, v in entries:
        items[k] = v
    return tuple(sorted(items.items()))


env_keys = st.sampled_from(["a", "b", "c", "x", "y", "z", "xs", ""])
env_entries = st.lists(st.tuples(env_keys, st.integers(0, 3)), max_size=6)


@given(env_entries, st.sampled_from([list, tuple]))
def test_env_entries_equal_the_dict_and_sort_reference(entries, container):
    assert Env(container(entries)).items() == reference_env_entries(entries)
    assert Env(iter(entries)).items() == reference_env_entries(entries)


def test_a_one_binding_env_keeps_the_errors_of_a_bad_binding():
    for bad, error in [([("x",)], ValueError), ([("x", 1, 2)], ValueError), ((3,), TypeError), ([([], 1)], TypeError)]:
        with pytest.raises(error):
            Env(bad)
    assert Env([["x", 1]]).items() == (("x", 1),)
    assert Env(((1, "v"),)).items() == ((1, "v"),)


def test_an_env_rejects_assignment_and_deletion():
    env = Env([("y", Ty("b")), ("x", Ty("a"))])
    before = hash(env)
    for target in (env, EMPTY_ENV):
        for name in ("_entries", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, name, (("y", 2),))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(target, name)
    assert EMPTY_ENV.items() == () and Env() == EMPTY_ENV
    assert env.items() == (("x", Ty("a")), ("y", Ty("b"))) and hash(env) == before
    for twin in (copy.copy(env), copy.deepcopy(env), pickle.loads(pickle.dumps(env))):
        assert type(twin) is Env and twin == env and hash(twin) == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin._entries = ()


@given(env_entries, env_entries)
def test_env_union_equals_the_dict_and_sort_reference(left, right):
    union = env_union(Env(left), Env(right)).items()
    assert union == reference_env_entries(reference_env_entries(left) + reference_env_entries(right))


@pytest.mark.parametrize(
    "left, right",
    [
        ([("a", 1), ("b", 2)], [("x", 3), ("y", 4)]),  # disjoint and in order: concatenated
        ([("x", 3), ("y", 4)], [("a", 1), ("b", 2)]),  # disjoint, out of order
        ([("a", 1), ("x", 2)], [("b", 3), ("y", 4)]),  # interleaved
        ([("a", 1), ("b", 2)], [("b", 3), ("c", 4)]),  # overlapping at the seam
        ([("a", 1)], [("a", 2)]),
    ],
)
def test_env_union_cases(left, right):
    union = env_union(Env(left), Env(right))
    assert union.items() == reference_env_entries(left + right)
    assert union == Env(left + right) and hash(union) == hash(Env(left + right))


def test_env_union_right_bias_on_every_overlapping_key():
    a = Env([("x", 1), ("y", 2), ("w", 0)])
    b = Env([("y", 3), ("x", 4), ("z", 5)])
    assert env_union(a, b).items() == (("w", 0), ("x", 4), ("y", 3), ("z", 5))
    assert env_union(b, a).items() == (("w", 0), ("x", 1), ("y", 2), ("z", 5))
    assert env_union(a, a) == a


def test_env_union_associative():
    a, b, c = Env([("x", 1)]), Env([("x", 2), ("y", 1)]), Env([("y", 9)])
    assert env_union(env_union(a, b), c) == env_union(a, env_union(b, c))


# ---------------------------------------------------------------------------
# values


def test_value_classification():
    assert is_value(cn("c", TY_A))
    assert is_data_value(apply_(cn("c", AB), cn("d", TY_A)))
    assert is_value(closure(EMPTY_ENV, PVar("x", TY_A), vr("x")))
    assert not is_data_value(closure(EMPTY_ENV, PVar("x", TY_A), vr("x")))
    assert not is_value(vr("x"))
    assert not is_value(apply_(vr("f"), cn("c", TY_A)))
    # an application of a closure is a redex, not a value
    assert not is_value(apply_(closure(EMPTY_ENV, PVar("x", TY_A), vr("x")), cn("c", TY_A)))


def test_data_value_closed_under_value_arguments_only():
    h = cn("c", AB)
    assert not is_value(apply_(h, vr("x")))


# ---------------------------------------------------------------------------
# patmatch


def test_patmatch_variable_binds():
    v = cn("c", TY_A)
    assert patmatch(PVar("x", TY_A), v) == Env([("x", v)])


def test_patmatch_constructor_empty_env():
    assert patmatch(PCon("c", TY_A), cn("c", TY_A)) == EMPTY_ENV


def test_patmatch_constructor_name_mismatch():
    assert patmatch(PCon("c", TY_A), cn("d", TY_A)) is None


def test_patmatch_constructor_annotation_mismatch():
    assert patmatch(PCon("c", TY_A), cn("c", TY_B)) is None


def test_patmatch_application_componentwise():
    p = PApp(PCon("c", AB), PVar("x", TY_A))
    v = apply_(cn("c", AB), cn("d", TY_A))
    assert patmatch(p, v) == Env([("x", cn("d", TY_A))])


def test_patmatch_variable_in_function_position_fails():
    p = PApp(PVar("f", AB), PVar("x", TY_A))
    v = apply_(cn("c", AB), cn("d", TY_A))
    assert patmatch(p, v) is None


def test_patmatch_requires_value():
    with pytest.raises(NonValueError):
        patmatch(PVar("x", TY_A), vr("y"))


def test_patmatch_closure_only_matches_variables():
    clo = closure(EMPTY_ENV, PVar("x", TY_A), vr("x"))
    assert patmatch(PVar("f", Arrow(TY_A, TY_A)), clo) == Env([("f", clo)])
    assert patmatch(PCon("c", Arrow(TY_A, TY_A)), clo) is None
    assert patmatch(PApp(PCon("c", AB), PVar("x", TY_A)), clo) is None


# ---------------------------------------------------------------------------
# bindings


def test_bindings_variable():
    assert bindings(PVar("x", TY_A)) == Env([("x", TY_A)])


def test_bindings_constructor_empty():
    assert bindings(PCon("c", TY_A)) == EMPTY_ENV


def test_bindings_application_union():
    p = PApp(PVar("x", Arrow(TY_A, TY_B)), PVar("y", TY_A))
    assert bindings(p) == Env([("x", Arrow(TY_A, TY_B)), ("y", TY_A)])


def test_bindings_rejects_nonlinear():
    p = PApp(PVar("x", AB), PVar("x", TY_A))
    with pytest.raises(DuplicateBindingError):
        bindings(p)
    with pytest.raises(DuplicateBindingError):
        match_(p, cn("c", TY_B))
    with pytest.raises(DuplicateBindingError):
        closure(EMPTY_ENV, p, vr("x"))


def reference_bindings(p):
    """``bindings`` as a dict of every binding handed to ``Env``."""
    out = {}

    def go(q):
        if isinstance(q, PVar):
            if q.x in out:
                raise DuplicateBindingError(f"pattern binds {q.x!r} twice")
            out[q.x] = q.typ
        elif isinstance(q, PApp):
            go(q.fn)
            go(q.arg)

    go(p)
    return Env(out.items())


def pattern_shapes(depth):
    """Every pattern of at most ``depth`` nested applications over three variables and a constructor."""
    leaves = [PVar(x, t) for x, t in (("y", TY_A), ("x", AB), ("z", TY_B))] + [PCon("c", TY_A)]
    if depth == 0:
        return leaves
    smaller = pattern_shapes(depth - 1)
    return leaves + [PApp(fn, arg) for fn in smaller for arg in smaller]


def test_bindings_equal_the_reference_for_every_pattern_shape():
    sizes = set()
    for p in pattern_shapes(2):
        try:
            want = reference_bindings(p)
        except DuplicateBindingError as exc:
            with pytest.raises(DuplicateBindingError) as got:
                bindings(p)
            assert str(got.value) == str(exc)
            continue
        got = bindings(p)
        assert got == want and got.items() == want.items() and hash(got) == hash(want)
        sizes.add(len(got))
        if not got:
            assert got is EMPTY_ENV
    assert sizes == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# surface syntax round-trips


types = st.recursive(
    st.sampled_from([TY_A, TY_B]),
    lambda inner: st.builds(Arrow, inner, inner),
    max_leaves=4,
)
idents = st.sampled_from(["x", "y", "z", "c", "d"])
pats = st.recursive(
    st.one_of(st.builds(PVar, idents, types), st.builds(PCon, idents, types)),
    lambda inner: st.builds(PApp, inner, inner),
    max_leaves=4,
)


@st.composite
def exps(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(["vr", "cn"]))
        if kind == "vr":
            return vr(draw(idents))
        return cn(draw(idents), draw(types))
    kind = draw(st.sampled_from(["apply", "scope", "closure"]))
    if kind == "apply":
        return apply_(draw(exps(depth - 1)), draw(exps(depth - 1)))
    if kind == "scope":
        return scope(draw(decs(depth - 1)), draw(exps(depth - 1)))
    rho = Env([(draw(idents), cn("c", TY_A))]) if draw(st.booleans()) else EMPTY_ENV
    return closure(rho, draw(pats.filter(_linear)), draw(exps(depth - 1)))


@st.composite
def decs(draw, depth=2):
    if depth == 0:
        return env_(EMPTY_ENV)
    kind = draw(st.sampled_from(["env", "match", "join"]))
    if kind == "env":
        return env_(Env([(draw(idents), cn("c", TY_A))]))
    if kind == "match":
        return match_(draw(pats.filter(_linear)), draw(exps(depth - 1)))
    return join_(draw(decs(depth - 1)), draw(decs(depth - 1)))


def _linear(p):
    try:
        bindings(p)
        return True
    except DuplicateBindingError:
        return False


@given(types)
def test_typ_roundtrip(t):
    assert parse_typ(print_typ(t)) == t


def test_tenv_roundtrip():
    t = TypeEnv(Env([("x", TY_A), ("y", AB)]))
    assert parse_typ(print_typ(t)) == t


@given(pats.filter(_linear))
def test_pat_roundtrip(p):
    assert parse_pat(print_pat(p)) == p


@settings(max_examples=60)
@given(exps())
def test_exp_roundtrip(e):
    assert parse_exp(print_exp(e)) == e


@settings(max_examples=60)
@given(decs())
def test_dec_roundtrip(d):
    assert parse_dec(print_dec(d)) == d


# ---------------------------------------------------------------------------
# environment literals bind each key once


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_dec, "(env ((x (con c (ty a))) (x (con d (ty a)))))"),
        (parse_exp, "(clos ((y (con c (ty a))) (y (con c (ty a)))) (pvar x (ty a)) (var x))"),
        (parse_exp, "(scope (env ((x (var a)) (z (var b)) (x (var c)))) (var x))"),
        (parse_env, "((x (con c (ty a))) (x (con d (ty a))))"),
        (parse_typ, "(tenv ((x (ty a)) (x (ty b))))"),
        (parse_pat, "(pvar f (arrow (tenv ((x (ty a)) (x (ty a)))) (ty a)))"),
    ],
)
def test_an_environment_literal_binding_a_key_twice_is_rejected(parse, text):
    key = "y" if "(y (con" in text else "x"
    with pytest.raises(SexprError) as info:
        parse(text)
    assert str(info.value) == f"environment binds {key!r} twice"


def test_environment_literals_with_distinct_keys_round_trip():
    text = "(env ((x (con c (ty a))) (y (con d (ty a)))))"
    assert print_dec(parse_dec(text)) == text
    assert parse_typ("(tenv ((x (ty a)) (y (ty b))))") == TypeEnv(Env([("x", TY_A), ("y", TY_B)]))
