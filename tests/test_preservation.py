"""Subject reduction: per-rule instances, trace chaining, error contracts."""

import pytest

from alacarte import testkit
from alacarte.lang_l import (
    EMPTY_ENV,
    Env,
    PVar,
    Ty,
    TypeEnv,
    apply_,
    closure,
    cn,
    env_,
    env_union,
    join_,
    match_,
    scope,
    step_dec,
    step_exp,
    subject_reduction,
    typecheck_dec,
    typecheck_env,
    typecheck_exp,
    vr,
)
from alacarte.indexed import InvalidDerivationError, WrongIndexError
from alacarte.mutual import validate_bi

TY_A, TY_B = Ty("a"), Ty("b")


def setting(rho):
    gamma, envd = typecheck_env(rho)
    return gamma, envd


def run_one(rho, term, sort="exp"):
    gamma, envd = setting(rho)
    tc = typecheck_dec if sort == "dec" else typecheck_exp
    t, typd = tc(gamma, term)
    step = step_dec if sort == "dec" else step_exp
    succ, stepd = step(rho, term)
    out = subject_reduction(rho, stepd, gamma, envd, typd)
    assert validate_bi(out)
    assert out.root.conclusion == (gamma, succ, t)
    return succ, out


def test_e_var_step_preserves():
    rho = Env([("x", cn("c", TY_A))])
    succ, out = run_one(rho, vr("x"))
    assert succ == cn("c", TY_A)
    assert out.root.conclusion[2] == TY_A


def test_d_join3_step_preserves():
    ra = Env([("x", cn("c1", TY_A))])
    rb = Env([("x", cn("c2", TY_B))])  # shadowing with a different type
    succ, out = run_one(EMPTY_ENV, join_(env_(ra), env_(rb)), sort="dec")
    assert succ == env_(env_union(ra, rb))
    assert out.root.conclusion[2] == TypeEnv(Env([("x", TY_B)]))


def test_beta_and_scope_chain_preserves():
    rho = Env([("y", cn("k", TY_B))])
    redex = apply_(closure(EMPTY_ENV, PVar("x", TY_A), vr("x")), cn("c", TY_A))
    gamma, envd = setting(rho)
    t, typd = typecheck_exp(gamma, redex)
    term = redex
    seen = []
    for _ in range(10):
        sub = step_exp(rho, term)
        if sub is None:
            break
        succ, stepd = sub
        seen.append(stepd.root.rule)
        typd = subject_reduction(rho, stepd, gamma, envd, typd)
        assert typd.root.conclusion == (gamma, succ, t)
        term = succ
    assert seen == ["E-BETA", "E-SCOPE2", "E-SCOPE3"]
    assert term == cn("c", TY_A)


def test_match_step_preserves():
    d = match_(PVar("x", TY_A), cn("c", TY_A))
    succ, out = run_one(EMPTY_ENV, d, sort="dec")
    assert succ == env_(Env([("x", cn("c", TY_A))]))


def test_scope_shadowing_preserves():
    rho = Env([("x", cn("outer", TY_B))])
    e = scope(env_(Env([("x", cn("inner", TY_A))])), vr("x"))
    gamma, envd = setting(rho)
    t, typd = typecheck_exp(gamma, e)
    assert t == TY_A  # the inner binding wins
    term, seen = e, []
    for _ in range(10):
        sub = step_exp(rho, term)
        if sub is None:
            break
        succ, stepd = sub
        seen.append(stepd.root.rule)
        typd = subject_reduction(rho, stepd, gamma, envd, typd)
        term = succ
    assert term == cn("inner", TY_A)


def test_index_coherence_errors():
    rho = Env([("x", cn("c", TY_A))])
    gamma, envd = setting(rho)
    _, typd = typecheck_exp(gamma, vr("x"))
    _, stepd = step_exp(rho, vr("x"))
    other_gamma, other_envd = setting(EMPTY_ENV)
    with pytest.raises(WrongIndexError):
        subject_reduction(EMPTY_ENV, stepd, gamma, envd, typd)
    with pytest.raises(WrongIndexError):
        subject_reduction(rho, stepd, EMPTY_ENV, other_envd, typd)
    _, typd_other = typecheck_exp(gamma, cn("c", TY_A))
    with pytest.raises(WrongIndexError):
        subject_reduction(rho, stepd, gamma, envd, typd_other)


def test_rejects_invalid_inputs():
    from alacarte.mutual import BiDerivation

    rho = Env([("x", cn("c", TY_A))])
    gamma, envd = setting(rho)
    _, typd = typecheck_exp(gamma, vr("x"))
    _, stepd = step_exp(rho, vr("x"))
    forged = BiDerivation(
        stepd.sig,
        stepd.root.__class__(
            stepd.root.sig,
            stepd.root.family,
            stepd.root.rule,
            (("rho", EMPTY_ENV),) + stepd.root.params[1:],
            stepd.root.premises,
            stepd.root.conclusion,
        ),
    )
    with pytest.raises(InvalidDerivationError):
        subject_reduction(rho, forged, gamma, envd, typd)


def test_fuzz_sweep_no_counterexamples():
    report = testkit.run_preservation_fuzz(seed=3, count=200, fuel=50)
    assert report.ok
    assert report.steps_checked > 100


def test_counterexample_reported_under_broken_union(monkeypatch):
    from alacarte.lang_l import syntax, typing as ltyping

    monkeypatch.setattr(
        ltyping, "env_union", lambda a, b: syntax.Env(b.items() + a.items())
    )
    report = testkit.run_preservation_fuzz(seed=42, count=150, fuel=50)
    assert not report.ok
    cx = report.counterexamples[0]
    assert {"sort", "rho", "term", "rule", "reason"} <= set(cx)


def test_congruence_cases_report_a_mistyped_child_as_a_counterexample():
    from alacarte.lang_l import TP_ALG, CounterexampleError, print_dec, print_exp
    from alacarte.mutual import hfold_1, hfold_2

    ty = TY_A
    redex = apply_(closure(EMPTY_ENV, PVar("x", ty), vr("x")), cn("c", ty))
    ident = closure(EMPTY_ENV, PVar("y", ty), vr("y"))
    cases = {
        "E-APP1": ("exp", apply_(scope(env_(EMPTY_ENV), ident), cn("c", ty)), "T-APP"),
        "E-APP2": ("exp", apply_(ident, redex), "T-APP"),
        "E-SCOPE1": ("exp", scope(match_(PVar("z", ty), redex), vr("z")), "T-SCOPE"),
        "D-MATCH1": ("dec", match_(PVar("z", ty), redex), "TD-MATCH"),
        "D-JOIN1": ("dec", join_(match_(PVar("z", ty), redex), env_(EMPTY_ENV)), "TD-JOIN"),
    }
    gamma, envd = setting(EMPTY_ENV)
    _, wrong = typecheck_exp(gamma, cn("c", ty))
    for rule, (sort, term, typing_rule) in cases.items():
        succ, stepd = (step_dec if sort == "dec" else step_exp)(EMPTY_ENV, term)
        assert stepd.root.rule == rule
        fold = hfold_1 if sort == "dec" else hfold_2
        with pytest.raises(CounterexampleError) as exc:
            fold(TP_ALG, stepd.root.conclusion, stepd)(gamma, envd, wrong)
        show = print_dec if sort == "dec" else print_exp
        assert exc.value.report == {
            "rule": rule,
            "rho": "()",
            "term": show(term),
            "successor": show(succ),
            "reason": f"expected a {typing_rule} typing, got T-CON",
        }
        run_one(EMPTY_ENV, term, sort)


def _report(rule, term, successor, reason, rho="()"):
    return {"rule": rule, "rho": rho, "term": term, "successor": successor, "reason": reason}


_XA = "(env ((x (con c (ty a)))))"
# step rule -> (sort, rho, stepped term, the term whose typing is handed over,
# the report); each report was pinned from the if-chain cases the table replaced
_MISTYPED = {
    "E-VAR": (
        "exp",
        Env([("x", cn("c", TY_A))]),
        vr("x"),
        cn("c", TY_B),
        _report(
            "E-VAR",
            "(var x)",
            "(con c (ty a))",
            "looked-up value does not have the variable's type",
            rho="((x (con c (ty a))))",
        ),
    ),
    "E-BETA": (
        "exp",
        EMPTY_ENV,
        apply_(closure(EMPTY_ENV, PVar("x", TY_A), vr("x")), cn("c", TY_A)),
        cn("c", TY_B),
        _report(
            "E-BETA",
            "(app (clos () (pvar x (ty a)) (var x)) (con c (ty a)))",
            "(scope (env ((x (con c (ty a))))) (var x))",
            "expected a T-APP typing, got T-CON",
        ),
    ),
    "E-BETA, mistyped argument": (
        "exp",
        EMPTY_ENV,
        apply_(closure(EMPTY_ENV, PVar("x", TY_A), vr("x")), cn("c", TY_B)),
        apply_(closure(EMPTY_ENV, PVar("x", TY_A), vr("x")), cn("c", TY_A)),
        _report(
            "E-BETA",
            "(app (clos () (pvar x (ty a)) (var x)) (con c (ty b)))",
            "(scope (env ((x (con c (ty b))))) (var x))",
            "matched bindings do not have the pattern's types",
        ),
    ),
    "E-SCOPE2": (
        "exp",
        EMPTY_ENV,
        scope(env_(Env([("x", cn("c", TY_A))])), apply_(closure(EMPTY_ENV, PVar("y", TY_A), vr("y")), vr("x"))),
        cn("c", TY_B),
        _report(
            "E-SCOPE2",
            f"(scope {_XA} (app (clos () (pvar y (ty a)) (var y)) (var x)))",
            f"(scope {_XA} (app (clos () (pvar y (ty a)) (var y)) (con c (ty a))))",
            "expected a T-SCOPE typing, got T-CON",
        ),
    ),
    "E-SCOPE2, mistyped scope": (
        "exp",
        EMPTY_ENV,
        scope(env_(Env([("x", cn("c", TY_A))])), vr("x")),
        scope(env_(Env([("x", cn("c", TY_B))])), vr("x")),
        _report(
            "E-SCOPE2",
            f"(scope {_XA} (var x))",
            f"(scope {_XA} (con c (ty a)))",
            "extended environment lost its pointwise typing",
        ),
    ),
    "E-SCOPE3": (
        "exp",
        EMPTY_ENV,
        scope(env_(Env([("x", cn("c", TY_A))])), cn("d", TY_A)),
        cn("c", TY_B),
        _report(
            "E-SCOPE3",
            f"(scope {_XA} (con d (ty a)))",
            "(con d (ty a))",
            "expected a T-SCOPE typing, got T-CON",
        ),
    ),
    "E-SCOPE3, a body that is no value": (
        "exp",
        EMPTY_ENV,
        scope(env_(Env([("x", cn("c", TY_A))])), cn("d", TY_A)),
        scope(env_(Env([("x", cn("c", TY_A))])), vr("x")),
        _report(
            "E-SCOPE3",
            f"(scope {_XA} (con d (ty a)))",
            "(con d (ty a))",
            "scope body is not a context-free value typing",
        ),
    ),
    "D-MATCH": (
        "dec",
        EMPTY_ENV,
        match_(PVar("z", TY_A), cn("c", TY_A)),
        env_(EMPTY_ENV),
        _report(
            "D-MATCH",
            "(match (pvar z (ty a)) (con c (ty a)))",
            "(env ((z (con c (ty a)))))",
            "expected a TD-MATCH typing, got TD-ENV",
        ),
    ),
    "D-MATCH, mistyped value": (
        "dec",
        EMPTY_ENV,
        match_(PVar("z", TY_A), cn("c", TY_B)),
        match_(PVar("z", TY_A), cn("c", TY_A)),
        _report(
            "D-MATCH",
            "(match (pvar z (ty a)) (con c (ty b)))",
            "(env ((z (con c (ty b)))))",
            "matched bindings do not have the pattern's types",
        ),
    ),
    "D-JOIN2": (
        "dec",
        EMPTY_ENV,
        join_(env_(Env([("x", cn("c", TY_A))])), match_(PVar("z", TY_A), vr("x"))),
        env_(EMPTY_ENV),
        _report(
            "D-JOIN2",
            f"(join {_XA} (match (pvar z (ty a)) (var x)))",
            f"(join {_XA} (match (pvar z (ty a)) (con c (ty a))))",
            "expected a TD-JOIN typing, got TD-ENV",
        ),
    ),
    "D-JOIN2, mistyped join": (
        "dec",
        EMPTY_ENV,
        join_(env_(Env([("x", cn("c", TY_A))])), match_(PVar("z", TY_A), vr("x"))),
        join_(env_(Env([("x", cn("c", TY_B))])), match_(PVar("z", TY_B), vr("x"))),
        _report(
            "D-JOIN2",
            f"(join {_XA} (match (pvar z (ty a)) (var x)))",
            f"(join {_XA} (match (pvar z (ty a)) (con c (ty a))))",
            "extended environment lost its pointwise typing",
        ),
    ),
    "D-JOIN3": (
        "dec",
        EMPTY_ENV,
        join_(env_(Env([("x", cn("c", TY_A))])), env_(Env([("y", cn("d", TY_B))]))),
        env_(EMPTY_ENV),
        _report(
            "D-JOIN3",
            f"(join {_XA} (env ((y (con d (ty b))))))",
            "(env ((x (con c (ty a))) (y (con d (ty b)))))",
            "expected a TD-JOIN typing, got TD-ENV",
        ),
    ),
    "D-JOIN3, mistyped join": (
        "dec",
        EMPTY_ENV,
        join_(env_(Env([("x", cn("c", TY_A))])), env_(Env([("y", cn("d", TY_B))]))),
        join_(env_(Env([("x", cn("c", TY_A))])), env_(Env([("y", cn("d", TY_A))]))),
        _report(
            "D-JOIN3",
            f"(join {_XA} (env ((y (con d (ty b))))))",
            "(env ((x (con c (ty a))) (y (con d (ty b)))))",
            "joined environments lost their pointwise typing",
        ),
    ),
}


@pytest.mark.parametrize("case", list(_MISTYPED))
def test_every_other_step_rule_reports_a_mistyped_typing_as_a_counterexample(case):
    from alacarte.lang_l import TP_ALG, CounterexampleError
    from alacarte.mutual import hfold_1, hfold_2

    sort, rho, term, other, report = _MISTYPED[case]
    gamma, envd = setting(rho)
    _, typd = (typecheck_dec if sort == "dec" else typecheck_exp)(gamma, other)
    _, stepd = (step_dec if sort == "dec" else step_exp)(rho, term)
    assert stepd.root.rule == report["rule"]
    fold = hfold_1 if sort == "dec" else hfold_2
    with pytest.raises(CounterexampleError) as exc:
        fold(TP_ALG, stepd.root.conclusion, stepd)(gamma, envd, typd)
    assert exc.value.report == report


def test_the_proof_cases_cover_every_step_rule_and_no_other():
    from alacarte.indexed import birule, cases
    from alacarte.lang_l import STEP_SIG, preservation
    from alacarte.mutual import IndexedBiSignature

    assert preservation._CASES.keys() == STEP_SIG.rules.keys()
    new = birule(2, "E-NEW", params=("rho",), conclusion=lambda P: (P["rho"], vr("x"), vr("x")))
    grown = IndexedBiSignature("Step+", [*STEP_SIG.rules.values(), new])
    with pytest.raises(ValueError) as exc:
        cases(grown, preservation._CASES)
    assert str(exc.value) == "cases over Step+: missing rules ['E-NEW'], extra rules []"


def test_folding_a_step_node_whose_rule_has_no_case_names_the_signature_and_the_rule():
    from alacarte.indexed import DNode
    from alacarte.lang_l import STEP_SIG, TP_ALG
    from alacarte.mutual import BiDerivation, hfold_2

    gamma, envd = setting(EMPTY_ENV)
    _, typd = typecheck_exp(gamma, cn("c", TY_A))
    w = (EMPTY_ENV, vr("x"), cn("c", TY_A))
    node = DNode(STEP_SIG, 2, "E-NEW", (), (), w)
    with pytest.raises(InvalidDerivationError) as exc:
        hfold_2(TP_ALG, w, BiDerivation(STEP_SIG, node))(gamma, envd, typd)
    assert str(exc.value) == "Step has no case for rule 'E-NEW'"
