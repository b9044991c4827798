"""Small-step semantics: per-rule instances plus determinism sweeps."""

import random
from dataclasses import replace

import pytest

from alacarte import arith, testkit
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
    step_derivation_json,
    step_exp,
    vr,
)
from alacarte.indexed import InvalidDerivationError, OverlappingRulesError, search
from alacarte.lang_l.step import DEC_STEP, EXP_STEP, STEP_SIG
from alacarte.mutual import IndexedBiSignature, din_bi, out_bi, validate_bi

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


@pytest.mark.parametrize(
    "rule, v, message",
    [
        ("E-BETA", vr("x"), "beta: argument is not a value"),
        ("E-BETA", cn("d", TY_A), "beta: pattern does not match"),
        ("D-MATCH", vr("x"), "match: subject is not a value"),
        ("D-MATCH", cn("d", TY_A), "match: pattern does not match"),
    ],
)
def test_a_conclusion_that_cannot_match_names_its_rule(rule, v, message):
    params = {"rho": EMPTY_ENV, "p": PCon("c", TY_A), "v": v}
    if rule == "E-BETA":
        params.update(rho0=EMPTY_ENV, eb=vr("y"))
    with pytest.raises(InvalidDerivationError) as exc:
        STEP_SIG.dnode(rule, params)
    assert str(exc.value) == message


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


# ---------------------------------------------------------------------------
# characterization: the stepper against a hand-written reference
#
# ``ref_step_exp``/``ref_step_dec`` choose each rule by matching on the
# subject's constructor and re-testing the rule's guards before ``dnode``:
# an independent restatement of the twelve rules of ``STEP_SIG``.


def _ref_dstep(rule_name, params, witnesses=()):
    d = din_bi(STEP_SIG.dnode(rule_name, params, witnesses))
    return d.root.conclusion[2], d


def ref_step_exp(rho, e):
    node = out_bi(e)
    match node.ctor:
        case "vr":
            x = node.payload[0]
            if rho.get(x) is None:
                return None
            return _ref_dstep("E-VAR", {"rho": rho, "x": x})
        case "apply":
            e1, e2 = node.rec
            sub = ref_step_exp(rho, e1)
            if sub is not None:
                e1p, d1 = sub
                return _ref_dstep("E-APP1", {"rho": rho, "e1": e1, "e1p": e1p, "e2": e2}, (d1,))
            if not is_value(e1):
                return None
            sub = ref_step_exp(rho, e2)
            if sub is not None:
                e2p, d2 = sub
                return _ref_dstep("E-APP2", {"rho": rho, "v1": e1, "e2": e2, "e2p": e2p}, (d2,))
            if not is_value(e2):
                return None
            n1 = out_bi(e1)
            if n1.ctor != "closure":
                return None
            rho0, p = n1.payload
            if patmatch(p, e2) is None:
                return None
            return _ref_dstep("E-BETA", {"rho": rho, "rho0": rho0, "p": p, "eb": n1.rec[0], "v": e2})
        case "scope":
            dd, body = node.rec
            sub = ref_step_dec(rho, dd)
            if sub is not None:
                dp, d1 = sub
                return _ref_dstep("E-SCOPE1", {"rho": rho, "d": dd, "dp": dp, "e": body}, (d1,))
            dn = out_bi(dd)
            if dn.ctor != "env":
                return None
            rho1 = dn.payload[0]
            if is_value(body):
                return _ref_dstep("E-SCOPE3", {"rho": rho, "rho1": rho1, "v": body})
            sub = ref_step_exp(env_union(rho, rho1), body)
            if sub is None:
                return None
            ep, d2 = sub
            return _ref_dstep("E-SCOPE2", {"rho": rho, "rho1": rho1, "e": body, "ep": ep}, (d2,))
    return None


def ref_step_dec(rho, d):
    node = out_bi(d)
    match node.ctor:
        case "match":
            p = node.payload[0]
            e = node.rec[0]
            sub = ref_step_exp(rho, e)
            if sub is not None:
                ep, de = sub
                return _ref_dstep("D-MATCH1", {"rho": rho, "p": p, "e": e, "ep": ep}, (de,))
            if not is_value(e) or patmatch(p, e) is None:
                return None
            return _ref_dstep("D-MATCH", {"rho": rho, "p": p, "v": e})
        case "join":
            d1, d2 = node.rec
            sub = ref_step_dec(rho, d1)
            if sub is not None:
                d1p, dd1 = sub
                return _ref_dstep("D-JOIN1", {"rho": rho, "d1": d1, "d1p": d1p, "d2": d2}, (dd1,))
            n1 = out_bi(d1)
            if n1.ctor != "env":
                return None
            rho1 = n1.payload[0]
            n2 = out_bi(d2)
            if n2.ctor == "env":
                return _ref_dstep("D-JOIN3", {"rho": rho, "rho1": rho1, "rho2": n2.payload[0]})
            sub = ref_step_dec(env_union(rho, rho1), d2)
            if sub is None:
                return None
            d2p, dd2 = sub
            return _ref_dstep("D-JOIN2", {"rho": rho, "rho1": rho1, "d2": d2, "d2p": d2p}, (dd2,))
    return None


def _outcome(step, rho, term):
    """``step(rho, term)``, or the type and text of what it raised."""
    try:
        return step(rho, term)
    except Exception as exc:  # noqa: BLE001 (compared, not handled)
        return type(exc), str(exc)


def _same_step(got, want):
    """Equal outcomes: both None, both the same exception, or equal successors and derivations."""
    if got is None or want is None or isinstance(got[0], type):
        return got == want
    (succ, d), (ref_succ, ref_d) = got, want
    return succ == ref_succ and step_derivation_json(d) == step_derivation_json(ref_d)


def test_the_stepper_walks_a_seeded_corpus_as_the_reference_does():
    corpus = testkit.gen_well_typed_config(testkit.GenConfig(seed=7, count=3000))
    steps = 0
    for config in corpus:
        step, ref = (step_dec, ref_step_dec) if config.sort == "dec" else (step_exp, ref_step_exp)
        term = config.term
        for _ in range(200):  # the longest trace of this corpus is far shorter
            got, want = step(config.rho, term), ref(config.rho, term)
            assert _same_step(got, want), (config, term)
            if got is None:
                break
            term = got[0]
            steps += 1
        else:
            raise AssertionError(f"no end in 200 steps: {config}")
    assert steps > 4000


def test_the_stepper_agrees_with_the_reference_on_wild_terms():
    rng = random.Random(3)
    gen = testkit._Gen(rng)
    stepped = 0
    for _ in range(20_000):
        rho = gen.value_env(rng.randrange(0, 3), 2)
        term = gen.wild_term(4)
        got, want = _outcome(step_exp, rho, term), _outcome(ref_step_exp, rho, term)
        assert _same_step(got, want), term
        stepped += got is not None and not isinstance(got[0], type)
    assert stepped > 2000


# ---------------------------------------------------------------------------
# the rule table decides: overlap and ill-moded rules are errors


def with_rules(*rules):
    """A fresh step signature: ``STEP_SIG``'s rules, each of ``rules`` in place of its namesake."""
    table = dict(STEP_SIG.rules)
    table.update((r.name, r) for r in rules)
    return IndexedBiSignature("Step", table.values())


def walk(sig, config):
    """Search ``sig`` from the configuration until no rule applies, for at most 50 steps."""
    family = DEC_STEP if config.sort == "dec" else EXP_STEP
    term = config.term
    for _ in range(50):
        sub = search(sig, family, config.rho, term)
        if sub is None:
            return
        term = sub[0]


def test_dropping_the_beta_and_match_side_conditions_makes_rules_overlap():
    unguarded = [replace(STEP_SIG.rules[name], side_conditions=()) for name in ("E-BETA", "D-MATCH")]
    mutant = with_rules(*unguarded)
    corpus = testkit.gen_well_typed_config(testkit.GenConfig(seed=42, count=1000))
    with pytest.raises(OverlappingRulesError) as exc:
        for config in corpus:
            walk(mutant, config)
    assert str(exc.value) == "Step: D-MATCH1 and D-MATCH both apply"


@pytest.mark.parametrize("twin_first", [False, True])
def test_a_duplicated_rule_overlaps_with_its_original(twin_first):
    original = STEP_SIG.rules["E-SCOPE3"]
    twin = replace(original, name="E-SCOPE3-TWIN")
    rules = [twin, *STEP_SIG.rules.values()] if twin_first else [*STEP_SIG.rules.values(), twin]
    sig = IndexedBiSignature("Step", rules)
    with pytest.raises(OverlappingRulesError) as exc:
        search(sig, EXP_STEP, EMPTY_ENV, scope(env_(EMPTY_ENV), C))
    first, second = ("E-SCOPE3-TWIN", "E-SCOPE3") if twin_first else ("E-SCOPE3", "E-SCOPE3-TWIN")
    assert str(exc.value) == f"Step: {first} and {second} both apply"


def test_the_order_of_the_rule_table_does_not_change_a_step():
    reversed_sig = IndexedBiSignature("Step", reversed(STEP_SIG.rules.values()))
    for config in testkit.gen_well_typed_config(testkit.GenConfig(seed=5, count=200)):
        family = DEC_STEP if config.sort == "dec" else EXP_STEP
        term = config.term
        while (sub := search(STEP_SIG, family, config.rho, term)) is not None:
            other = search(reversed_sig, family, config.rho, term)
            assert other[0] == sub[0]
            assert step_derivation_json(other[1]) == step_derivation_json(sub[1])
            term = sub[0]
        assert search(reversed_sig, family, config.rho, term) is None


APP1 = STEP_SIG.rules["E-APP1"]


@pytest.mark.parametrize(
    "bad, message",
    [
        (
            replace(APP1, params=APP1.params + ("e3",)),
            "Step.E-APP1: unbound parameters ['e1p', 'e3'] do not match its premises",
        ),
        (
            replace(STEP_SIG.rules["E-SCOPE3"], params=("rho", "rho1", "v", "w")),
            "Step.E-SCOPE3: unbound parameters ['w'] do not match its premises",
        ),
        (
            replace(APP1, subject=(apply_, "e1", "e1")),
            "Step.E-APP1: unbound parameters ['e1p', 'e2'] do not match its premises",
        ),
        (
            replace(APP1, subject=(apply_, "rho", "e2")),
            "Step.E-APP1: unbound parameters ['e1', 'e1p'] do not match its premises",
        ),
        (
            replace(APP1, subject=(apply_, "e1", "e9")),
            "Step.E-APP1: unbound parameters ['e1p', 'e2'] do not match its premises",
        ),
    ],
)
def test_a_rule_whose_modes_do_not_fit_is_rejected_when_the_table_is_built(bad, message):
    sig = with_rules(bad)
    for _ in range(2):  # a rejected table is not kept
        with pytest.raises(ValueError) as exc:
            search(sig, EXP_STEP, EMPTY_ENV, C)  # no rule of ``cn``: only the table is read
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "bad, output",
    [
        (replace(APP1, premises=((EXP_STEP, lambda P: (P["rho"], P["e1p"], P["e1"])),)), "e1p"),
        (replace(APP1, subject=(apply_, "e1", "e1p")), "e2"),  # the pattern binds the output
    ],
)
def test_a_premise_index_must_put_the_bare_output_third(bad, output):
    with pytest.raises(ValueError) as exc:
        search(with_rules(bad), EXP_STEP, rho1(), apply_(vr("x"), C))
    assert str(exc.value) == f"Step.E-APP1: a premise index does not put {output!r} third"


def test_a_pattern_nested_two_deep_tests_each_level_before_binding_it():
    from alacarte.indexed import birule

    head = birule(
        EXP_STEP,
        "E-HEAD",
        subject=(apply_, (apply_, (vr, "x"), "e1"), "e2"),
        params=("rho", "x", "e1", "e2"),
        conclusion=lambda P, s: (P["rho"], s, P["e2"]),
    )
    sig = IndexedBiSignature("Head", [head])
    e1, e2 = vr("y"), C
    out, d = search(sig, EXP_STEP, EMPTY_ENV, apply_(apply_(vr("x"), e1), e2))
    assert out is e2 and validate_bi(d)
    assert dict(d.root.params) == {"rho": EMPTY_ENV, "x": "x", "e1": e1, "e2": e2}
    for miss in (apply_(apply_(C, e1), e2), apply_(C, e2), apply_(apply_(apply_(vr("x"), e1), e1), e2)):
        assert search(sig, EXP_STEP, EMPTY_ENV, miss) is None


@pytest.mark.parametrize(
    "stepper, subject, what",
    [
        (step_exp, arith.lit(1), "'inl:lit' of (trm_g1+trm_g2)"),
        (step_dec, arith.lit(1), "'inl:lit' of (trm_g1+trm_g2)"),
        (step_exp, 3, "a value of type int"),
        (step_exp, vr("x").root, "a value of type Node"),
        (step_dec, None, "a value of type NoneType"),
    ],
)
def test_search_rejects_a_subject_no_rule_is_over_and_keeps_no_table(stepper, subject, what):
    tables = dict(STEP_SIG._search_tables)
    for _ in range(2):
        with pytest.raises(TypeError) as exc:
            stepper(EMPTY_ENV, subject)
        assert str(exc.value) == f"Step has no rule for {what}"
    assert STEP_SIG._search_tables == tables
