"""Small-step semantics: per-rule instances plus determinism sweeps."""

import pytest

from alacarte import testkit
from alacarte.lang_l import (
    Arrow,
    EMPTY_ENV,
    Env,
    PCon,
    PVar,
    Ty,
    apply_,
    closure,
    cn,
    env_,
    env_union,
    is_value,
    join_,
    match_,
    patmatch,
    scope,
    step_dec,
    step_exp,
    vr,
)
from alacarte.mutual import validate_bi

TY_A = Ty("a")


def rho1():
    return Env([("x", cn("c", TY_A))])


# ---------------------------------------------------------------------------
# expression steps


def test_e_var_looks_up():
    succ, d = step_exp(rho1(), vr("x"))
    assert succ == cn("c", TY_A)
    assert d.root.rule == "E-VAR"
    assert validate_bi(d)


def test_e_var_unbound_is_stuck():
    assert step_exp(EMPTY_ENV, vr("x")) is None


def test_e_beta():
    rho = rho1()
    redex = apply_(closure(EMPTY_ENV, PVar("x", TY_A), vr("x")), cn("c", TY_A))
    succ, d = step_exp(rho, redex)
    assert d.root.rule == "E-BETA"
    assert succ == scope(env_(Env([("x", cn("c", TY_A))])), vr("x"))
    assert validate_bi(d)


def test_values_do_not_step():
    assert step_exp(rho1(), cn("c", TY_A)) is None
    assert step_exp(rho1(), closure(EMPTY_ENV, PVar("x", TY_A), vr("x"))) is None
    assert step_exp(rho1(), apply_(cn("c", Arrow(TY_A, TY_A)), cn("d", TY_A))) is None


def test_e_app1_then_app2():
    boxed = scope(env_(EMPTY_ENV), cn("f", Arrow(TY_A, TY_A)))
    e = apply_(boxed, scope(env_(EMPTY_ENV), cn("c", TY_A)))
    succ, d = step_exp(EMPTY_ENV, e)
    assert d.root.rule == "E-APP1"
    succ2, d2 = step_exp(EMPTY_ENV, succ)
    assert d2.root.rule == "E-APP2"
    assert succ2 == apply_(cn("f", Arrow(TY_A, TY_A)), cn("c", TY_A))
    assert is_value(succ2)


def test_e_scope_rules():
    # declaration first, then body under the extended env, then unwrap
    e = scope(match_(PVar("y", TY_A), cn("c", TY_A)), vr("y"))
    succ, d = step_exp(EMPTY_ENV, e)
    assert d.root.rule == "E-SCOPE1"
    succ, d = step_exp(EMPTY_ENV, succ)
    assert d.root.rule == "E-SCOPE2"
    assert d.root.premises[0][2].root.rule == "E-VAR"
    succ, d = step_exp(EMPTY_ENV, succ)
    assert d.root.rule == "E-SCOPE3"
    assert succ == cn("c", TY_A)


def test_scope_shadows_outer_env():
    rho = Env([("x", cn("outer", TY_A))])
    e = scope(env_(Env([("x", cn("inner", TY_A))])), vr("x"))
    succ, d = step_exp(rho, e)
    assert d.root.rule == "E-SCOPE2"
    assert succ == scope(env_(Env([("x", cn("inner", TY_A))])), cn("inner", TY_A))


def test_beta_match_failure_is_stuck():
    redex = apply_(closure(EMPTY_ENV, PCon("c", TY_A), vr("x")), cn("d", TY_A))
    assert step_exp(EMPTY_ENV, redex) is None


# ---------------------------------------------------------------------------
# declaration steps


def test_d_match_success():
    d0 = match_(PCon("c", TY_A), cn("c", TY_A))
    succ, d = step_dec(rho1(), d0)
    assert d.root.rule == "D-MATCH"
    assert succ == env_(EMPTY_ENV)


def test_d_match_failure_is_stuck():
    d0 = match_(PCon("c", TY_A), cn("d", TY_A))
    assert step_dec(rho1(), d0) is None


def test_d_match1_steps_subject():
    d0 = match_(PVar("y", TY_A), vr("x"))
    succ, d = step_dec(rho1(), d0)
    assert d.root.rule == "D-MATCH1"
    assert succ == match_(PVar("y", TY_A), cn("c", TY_A))


def test_d_join3_right_biased():
    ra = Env([("x", cn("c1", TY_A)), ("y", cn("c2", TY_A))])
    rb = Env([("y", cn("c3", TY_A))])
    succ, d = step_dec(EMPTY_ENV, join_(env_(ra), env_(rb)))
    assert d.root.rule == "D-JOIN3"
    assert succ == env_(env_union(ra, rb))
    assert succ == env_(Env([("x", cn("c1", TY_A)), ("y", cn("c3", TY_A))]))


def test_d_join1_and_join2_sequential_scoping():
    left = match_(PVar("x", TY_A), cn("c", TY_A))
    right = match_(PVar("y", TY_A), vr("x"))
    d0 = join_(left, right)
    succ, d = step_dec(EMPTY_ENV, d0)
    assert d.root.rule == "D-JOIN1"
    # left has now evaluated to an env; the right side sees x through it
    succ, d = step_dec(EMPTY_ENV, succ)
    assert d.root.rule == "D-JOIN2"
    inner = d.root.premises[0][2]
    assert inner.root.rule == "D-MATCH1"
    succ, d = step_dec(EMPTY_ENV, succ)
    assert d.root.rule == "D-JOIN2"
    succ, d = step_dec(EMPTY_ENV, succ)
    assert d.root.rule == "D-JOIN3"
    assert succ == env_(Env([("x", cn("c", TY_A)), ("y", cn("c", TY_A))]))


def test_env_is_terminal():
    assert step_dec(rho1(), env_(rho1())) is None


# ---------------------------------------------------------------------------
# properties


def test_step_derivations_validate_on_corpus():
    corpus = testkit.gen_well_typed_config(testkit.GenConfig(seed=5, count=60))
    for config in corpus:
        step = step_dec if config.sort == "dec" else step_exp
        term = config.term
        for _ in range(30):
            sub = step(config.rho, term)
            if sub is None:
                break
            term, deriv = sub
            assert validate_bi(deriv)


def test_value_preservation():
    corpus = testkit.gen_well_typed_config(testkit.GenConfig(seed=6, count=40))
    for config in corpus:
        if config.sort == "exp" and is_value(config.term):
            assert step_exp(config.rho, config.term) is None


def test_determinism_repeated_runs():
    corpus1 = testkit.gen_well_typed_config(testkit.GenConfig(seed=7, count=30))
    corpus2 = testkit.gen_well_typed_config(testkit.GenConfig(seed=7, count=30))
    for c1, c2 in zip(corpus1, corpus2):
        assert c1.term == c2.term and c1.rho == c2.rho
        step = step_dec if c1.sort == "dec" else step_exp
        s1, s2 = step(c1.rho, c1.term), step(c2.rho, c2.term)
        assert (s1 is None) == (s2 is None)
        if s1 is not None:
            assert s1[0] == s2[0] and s1[1] == s2[1]


# ---------------------------------------------------------------------------
# the successor is the one the rule's conclusion built


def old_union(left, right):
    return Env(left.items() + right.items())


def rebuilt_successor(d):
    """The successor as ``step_*`` built it apart from the rule, from the rule's parameters."""
    P = d.root.params_dict()
    match d.root.rule:
        case "E-VAR":
            return P["rho"].get(P["x"])
        case "E-APP1":
            return apply_(P["e1p"], P["e2"])
        case "E-APP2":
            return apply_(P["v1"], P["e2p"])
        case "E-BETA":
            return scope(env_(old_union(P["rho0"], patmatch(P["p"], P["v"]))), P["eb"])
        case "E-SCOPE1":
            return scope(P["dp"], P["e"])
        case "E-SCOPE2":
            return scope(env_(P["rho1"]), P["ep"])
        case "E-SCOPE3":
            return P["v"]
        case "D-MATCH1":
            return match_(P["p"], P["ep"])
        case "D-MATCH":
            return env_(patmatch(P["p"], P["v"]))
        case "D-JOIN1":
            return join_(P["d1p"], P["d2"])
        case "D-JOIN2":
            return join_(env_(P["rho1"]), P["d2p"])
        case "D-JOIN3":
            return env_(old_union(P["rho1"], P["rho2"]))
    raise AssertionError(d.root.rule)


C, Y = cn("c", TY_A), PVar("y", TY_A)
ID_Y = closure(EMPTY_ENV, Y, vr("y"))
RHO_Y = Env([("y", C)])
EVERY_RULE = [
    ("E-VAR", "exp", vr("x")),
    ("E-APP1", "exp", apply_(vr("x"), C)),
    ("E-APP2", "exp", apply_(ID_Y, vr("x"))),
    ("E-BETA", "exp", apply_(ID_Y, C)),
    ("E-SCOPE1", "exp", scope(match_(Y, vr("x")), vr("y"))),
    ("E-SCOPE2", "exp", scope(env_(RHO_Y), vr("y"))),
    ("E-SCOPE3", "exp", scope(env_(EMPTY_ENV), C)),
    ("D-MATCH1", "dec", match_(Y, vr("x"))),
    ("D-MATCH", "dec", match_(Y, C)),
    ("D-JOIN1", "dec", join_(match_(Y, C), env_(EMPTY_ENV))),
    ("D-JOIN2", "dec", join_(env_(RHO_Y), match_(PVar("z", TY_A), vr("y")))),
    ("D-JOIN3", "dec", join_(env_(RHO_Y), env_(Env([("z", C)])))),
]


@pytest.mark.parametrize("rule, sort, term", EVERY_RULE, ids=[r for r, _, _ in EVERY_RULE])
def test_each_rule_returns_the_successor_its_conclusion_built(rule, sort, term):
    step = step_dec if sort == "dec" else step_exp
    succ, d = step(rho1(), term)
    assert d.root.rule == rule
    assert succ is d.root.conclusion[2]
    assert d.root.conclusion[:2] == (rho1(), term)
    assert succ == rebuilt_successor(d)
    assert validate_bi(d)


def test_successors_equal_the_rebuilt_ones_over_a_seeded_corpus():
    corpus = testkit.gen_well_typed_config(testkit.GenConfig(seed=11, count=200))
    rules = set()
    for config in corpus:
        step = step_dec if config.sort == "dec" else step_exp
        term = config.term
        for _ in range(50):
            sub = step(config.rho, term)
            if sub is None:
                break
            succ, d = sub
            assert succ is d.root.conclusion[2]
            assert succ == rebuilt_successor(d)
            assert d.root.conclusion[:2] == (config.rho, term)
            rules.add(d.root.rule)
            term = succ
    assert len(rules) == 12  # every step rule fires in this corpus
