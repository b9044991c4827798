"""Typing rules, determinism, and the transport lemmas."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from alacarte import testkit
from alacarte.lang_l import (
    Arrow,
    EMPTY_ENV,
    Env,
    NonValueError,
    PApp,
    PCon,
    PVar,
    Ty,
    TypeEnv,
    apply_,
    build_typopat,
    closure,
    cn,
    env_,
    env_union,
    join_,
    match_,
    pat_type,
    scope,
    typecheck_dec,
    typecheck_env,
    typecheck_exp,
    untypable_reason,
    vr,
    weaken,
)
from alacarte.lang_l import typing as ltyping
from alacarte.lang_l.typing import env_typing, retype_value
from alacarte.indexed import InvalidDerivationError, _check_total, validate
from alacarte.lang_l import step_exp
from alacarte.mutual import validate_bi

TY_A, TY_B = Ty("a"), Ty("b")
AB = Arrow(TY_A, TY_B)


# ---------------------------------------------------------------------------
# pattern typing


def test_pat_type_and_derivations():
    assert pat_type(PVar("x", TY_A)) == TY_A
    assert pat_type(PCon("c", AB)) == AB
    p = PApp(PCon("c", AB), PVar("x", TY_A))
    assert pat_type(p) == TY_B
    d = build_typopat(p)
    assert validate(d)
    assert d.root.conclusion == (p, TY_B)


def test_pat_type_domain_mismatch():
    assert pat_type(PApp(PCon("c", AB), PVar("x", TY_B))) is None
    assert build_typopat(PApp(PCon("c", AB), PVar("x", TY_B))) is None


def _reference_typopat(p):
    """``build_typopat`` as it read before it took each child's type from the child's derivation."""
    match p:
        case PVar(x, t):
            return ltyping.din(ltyping.TYPOPAT_SIG.dnode("tp_var", {"x": x, "tau": t}))
        case PCon(x, t):
            return ltyping.din(ltyping.TYPOPAT_SIG.dnode("tp_con", {"x": x, "tau": t}))
        case PApp(fn, arg):
            d1, d2, tf = _reference_typopat(fn), _reference_typopat(arg), pat_type(fn)
            if d1 is None or d2 is None or not isinstance(tf, Arrow) or pat_type(arg) != tf.dom:
                return None
            params = {"p1": fn, "p2": arg, "t1": tf.dom, "t2": tf.cod}
            return ltyping.din(ltyping.TYPOPAT_SIG.dnode("tp_app", params, (d1, d2)))


def _curried_chain(depth):
    """``c`` of a curried ``depth``-argument type applied to ``depth`` constructors."""
    tys = [Ty(f"t{i}") for i in range(depth + 1)]
    t = tys[-1]
    for dom in reversed(tys[:-1]):
        t = Arrow(dom, t)
    p = PCon("c", t)
    for i in range(depth):
        p = PApp(p, PCon(f"k{i}", tys[i]))
    return p


PATTERNS = [
    PVar("x", TY_A),
    PCon("c", AB),
    PApp(PCon("c", AB), PVar("x", TY_A)),
    PApp(PCon("c", AB), PVar("x", TY_B)),
    PApp(PVar("f", TY_A), PVar("x", TY_A)),
    PApp(PApp(PCon("c", AB), PVar("x", TY_A)), PVar("y", TY_A)),
    PApp(PCon("c", Arrow(AB, TY_A)), PApp(PCon("d", AB), PVar("x", TY_A))),
    PApp(PCon("c", Arrow(TY_B, TY_A)), PApp(PCon("d", AB), PVar("x", TY_B))),
    PApp(PApp(PCon("c", AB), PVar("x", TY_B)), PVar("y", TY_A)),
    _curried_chain(3),
    PApp(_curried_chain(3), PVar("x", TY_A)),
]


@pytest.mark.parametrize("p", PATTERNS)
def test_build_typopat_equals_the_reference(p):
    d, expected = build_typopat(p), _reference_typopat(p)
    assert d == expected
    if d is not None:
        assert d.root.conclusion == (p, pat_type(p)) and validate(d)


def test_build_typopat_computes_no_pattern_type(monkeypatch):
    calls, real = [], pat_type
    monkeypatch.setattr(ltyping, "pat_type", lambda p: calls.append(p) or real(p))
    p = _curried_chain(40)
    d = build_typopat(p)
    assert calls == [] and d.root.conclusion == (p, Ty("t40"))


# ---------------------------------------------------------------------------
# typecheck_exp


def test_t_var():
    res = typecheck_exp(Env([("x", TY_A)]), vr("x"))
    assert res[0] == TY_A
    assert res[1].root.rule == "T-VAR"
    assert validate_bi(res[1])


def test_t_con_reads_annotation():
    res = typecheck_exp(EMPTY_ENV, cn("c", Arrow(TY_A, TY_B)))
    assert res[0] == Arrow(TY_A, TY_B)


def test_unbound_is_untypable():
    assert typecheck_exp(EMPTY_ENV, vr("x")) is None
    assert "unbound" in untypable_reason(EMPTY_ENV, vr("x"))


def test_t_clos_and_t_app():
    f = closure(EMPTY_ENV, PVar("x", TY_A), vr("x"))
    res = typecheck_exp(EMPTY_ENV, f)
    assert res[0] == Arrow(TY_A, TY_A)
    app = apply_(f, cn("c", TY_A))
    res2 = typecheck_exp(EMPTY_ENV, app)
    assert res2[0] == TY_A
    assert validate_bi(res2[1])


def test_t_app_argument_mismatch():
    f = closure(EMPTY_ENV, PVar("x", TY_A), vr("x"))
    assert typecheck_exp(EMPTY_ENV, apply_(f, cn("c", TY_B))) is None
    reason = untypable_reason(EMPTY_ENV, apply_(f, cn("c", TY_B)))
    assert "app.arg" in reason


def test_t_scope():
    e = scope(match_(PVar("x", TY_A), cn("c", TY_A)), vr("x"))
    res = typecheck_exp(EMPTY_ENV, e)
    assert res[0] == TY_A
    assert validate_bi(res[1])


def test_closure_env_must_hold_values():
    f = closure(Env([("y", vr("z"))]), PVar("x", TY_A), vr("x"))
    assert typecheck_exp(EMPTY_ENV, f) is None


# ---------------------------------------------------------------------------
# typecheck_dec


def test_td_env():
    rho = Env([("x", cn("c", TY_A))])
    res = typecheck_dec(EMPTY_ENV, env_(rho))
    assert res[0] == TypeEnv(Env([("x", TY_A)]))


def test_td_match():
    d = match_(PVar("x", TY_A), cn("c", TY_A))
    res = typecheck_dec(EMPTY_ENV, d)
    assert res[0] == TypeEnv(Env([("x", TY_A)]))


def test_td_join_sequential():
    d1 = match_(PVar("x", TY_A), cn("c", TY_A))
    d2 = match_(PVar("y", TY_A), vr("x"))  # sees x from d1
    res = typecheck_dec(EMPTY_ENV, join_(d1, d2))
    assert res[0] == TypeEnv(Env([("x", TY_A), ("y", TY_A)]))
    assert typecheck_dec(EMPTY_ENV, join_(d2, d1)) is None


# ---------------------------------------------------------------------------
# typecheck_env


def test_typecheck_env_empty():
    gamma, d = typecheck_env(EMPTY_ENV)
    assert gamma == EMPTY_ENV
    assert validate(d)


def test_typecheck_env_pointwise():
    gamma, d = typecheck_env(Env([("x", cn("c", TY_A))]))
    assert gamma == Env([("x", TY_A)])
    assert d.root.conclusion == (Env([("x", cn("c", TY_A))]), gamma)


def test_typecheck_env_rejects_nonvalue():
    with pytest.raises(NonValueError):
        typecheck_env(Env([("x", vr("y"))]))


# ---------------------------------------------------------------------------
# determinism and lemmas


def test_typing_deterministic_on_corpus():
    corpus = testkit.gen_well_typed_config(testkit.GenConfig(seed=9, count=50))
    for config in corpus:
        tc = typecheck_dec if config.sort == "dec" else typecheck_exp
        r1 = tc(config.gamma, config.term)
        r2 = tc(config.gamma, config.term)
        assert r1[0] == r2[0] and r1[1] == r2[1]
        assert validate_bi(r1[1])


def test_weaken_transport():
    gamma = Env([("x", TY_A)])
    prefix = Env([("x", TY_B), ("w", TY_B)])  # x is shadowed by gamma, w is new
    e = scope(match_(PVar("y", TY_A), vr("x")), vr("y"))
    t, td = typecheck_exp(gamma, e)
    moved = weaken(prefix, td)
    assert validate_bi(moved)
    assert moved.root.conclusion == (env_union(prefix, gamma), e, t)


def test_retype_value_context_free():
    v = apply_(cn("c", AB), cn("d", TY_A))
    t, td = typecheck_exp(Env([("q", TY_A)]), v)
    moved = retype_value(Env([("z", TY_B)]), td)
    assert validate_bi(moved)
    assert moved.root.conclusion == (Env([("z", TY_B)]), v, t)


def test_the_transports_reject_what_they_cannot_move_and_their_table_is_total():
    gamma = Env([("x", TY_A)])
    _, var_typing = typecheck_exp(gamma, vr("x"))
    with pytest.raises(InvalidDerivationError, match="^not a value typing: T-VAR$"):
        retype_value(EMPTY_ENV, var_typing)
    _, app_of_var = typecheck_exp(gamma, apply_(cn("c", AB), vr("x")))
    with pytest.raises(InvalidDerivationError, match="^not a value typing: T-VAR$"):
        retype_value(EMPTY_ENV, app_of_var)
    _, stepd = step_exp(Env([("x", cn("c", TY_A))]), vr("x"))
    with pytest.raises(InvalidDerivationError, match="^not a typing rule: E-VAR$"):
        weaken(gamma, stepd)
    assert ltyping._UNDER_GAMMA.keys() == ltyping.TYPING_SIG.rules.keys()
    partial = {k: v for k, v in ltyping._UNDER_GAMMA.items() if k != "T-APP"}
    with pytest.raises(ValueError, match=r"missing rules \['T-APP'\], extra rules \[\]"):
        _check_total(ltyping.TYPING_SIG, partial, "the typing transport")


def test_value_typing_is_context_free_on_corpus():
    corpus = testkit.gen_well_typed_config(testkit.GenConfig(seed=10, count=40))
    for config in corpus:
        for _, v in config.rho.items():
            r0 = typecheck_exp(EMPTY_ENV, v)
            r1 = typecheck_exp(config.gamma, v)
            assert r0[0] == r1[0]


# ---------------------------------------------------------------------------
# environment typing: types only, no derivations


def test_env_typing_of_nested_closures_builds_no_derivation(monkeypatch):
    calls = []
    for entry in ("derive", "derive_given"):
        built = getattr(ltyping.TYPING_SIG, entry)
        spy = lambda name, *args, built=built: calls.append(name) or built(name, *args)
        monkeypatch.setitem(vars(ltyping.TYPING_SIG), entry, spy)  # undone without leaving an instance attribute
    inner = Env([("y", cn("c", TY_A))])
    f = closure(inner, PVar("x", TY_A), vr("y"))  # a -> a
    g = closure(Env([("f", f)]), PVar("z", TY_A), vr("f"))  # a -> (a -> a)
    rho = Env([("g", g), ("h", closure(Env([("g", g)]), PVar("z", TY_B), vr("g")))])
    tg = Arrow(TY_A, Arrow(TY_A, TY_A))
    assert env_typing(rho) == Env([("g", tg), ("h", Arrow(TY_B, tg))])
    assert calls == []
    # the typechecker proper still builds, handing over the side conditions it computed
    t, td = typecheck_exp(EMPTY_ENV, rho.get("h"))
    assert t == env_typing(rho).get("h") and validate_bi(td)
    assert calls.count("T-CLOS") == 1


_UNTYPABLE = (
    apply_(cn("c", AB), cn("d", TY_B)),  # argument of the wrong type
    closure(Env([("x", apply_(cn("c", AB), cn("d", TY_B)))]), PVar("y", TY_A), vr("y")),
    closure(EMPTY_ENV, PVar("y", TY_A), vr("unbound")),
)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 3),
    depth=st.integers(0, 3),
    nest=st.booleans(),
    bad=st.sampled_from((None,) + _UNTYPABLE),
)
def test_env_typing_agrees_with_typecheck_exp(seed, size, depth, nest, bad):
    gen = testkit._Gen(random.Random(seed))
    rho = gen.value_env(size, depth)
    if nest:  # the environment again, one closure deeper
        rho = Env([*rho.items(), ("w", closure(rho, PVar("q", TY_A), vr("q")))])
    if bad is not None:
        rho = Env([*rho.items(), ("bad", bad)])
    typed = [typecheck_exp(EMPTY_ENV, v) for _, v in rho.items()]
    gamma = env_typing(rho)
    if any(res is None for res in typed):
        assert gamma is None
    else:
        assert gamma is not None
        assert gamma.items() == tuple((k, res[0]) for (k, _), res in zip(rho.items(), typed))
    assert (gamma is None) == (bad is not None)
