"""Subject reduction as the fold of one indexed Mendler bi-algebra.

The carrier at a declaration step index (rho, d1, d2) is a transformer:
given a context gamma, a validating environment typing for (rho, gamma) and
a typing of d1 at t under gamma, produce a typing of d2 at t under gamma.
Likewise for expression steps.  ``TP_ALG`` packs both step procedures; its
cases consume the step derivation's recursive premises only through the
``rec`` handles and use the typing lemmas (weakening, value retyping,
pointwise environment typing) for everything context-shaped.

A case that cannot produce the required typing raises
:class:`CounterexampleError` carrying a replayable report.  That is the
property under test: on well-typed configurations it never fires.
"""

from __future__ import annotations

from ..indexed import InvalidDerivationError, WrongIndexError, din, validate
from ..mutual import (
    BiDerivation,
    IndexedBiMendlerAlgebra,
    din_bi,
    hfold_1,
    hfold_2,
    validate_bi,
)
from .syntax import (
    Env,
    encode_index,
    env_,
    env_union,
    patmatch,
    print_dec,
    print_exp,
)
from .typing import (
    TYPING_SIG,
    TYPOENV_SIG,
    bindings,
    env_typing,
    retype_value,
    typecheck_exp,
    weaken,
)


class CounterexampleError(Exception):
    """A step on a well-typed configuration lost its typing."""

    def __init__(self, reason: str, report: dict | None = None):
        super().__init__(reason)
        self.reason = reason
        self.report = dict(report or {})


def _fail(w, rule, reason):
    rho, x1, x2 = w
    pr = print_dec if x1.component == 1 else print_exp
    raise CounterexampleError(
        reason,
        {
            "rule": rule,
            "rho": encode_index(rho),
            "term": pr(x1),
            "successor": pr(x2),
            "reason": reason,
        },
    )


def _expect(td: BiDerivation, rule_name: str, w, step_rule):
    if td.root.rule != rule_name:
        _fail(w, step_rule, f"expected a {rule_name} typing, got {td.root.rule}")
    return td.root


def _children(node):
    return tuple(wit for _, _, wit in node.premises)


def _typoenv(rho: Env, gamma: Env, w, step_rule):
    try:
        return din(TYPOENV_SIG.dnode("te_env", {"rho": rho, "gamma": gamma}))
    except InvalidDerivationError:
        _fail(w, step_rule, "extended environment lost its pointwise typing")


def _rebuild(rule_name, params, witnesses, w, step_rule):
    try:
        return din_bi(TYPING_SIG.dnode(rule_name, params, witnesses))
    except InvalidDerivationError as exc:
        _fail(w, step_rule, f"could not rebuild {rule_name}: {exc}")


# The one-premise congruence steps: step rule -> (typing rule, child
# position, rewritten parameter).  The step's premise steps that child of the
# typing, and the rebuilt typing takes the step's primed parameter (``e1``
# becomes the step's ``e1p``).
_CONGRUENCE = {
    "E-APP1": ("T-APP", 0, "e1"),
    "E-APP2": ("T-APP", 1, "e2"),
    "E-SCOPE1": ("T-SCOPE", 0, "d"),
    "D-MATCH1": ("TD-MATCH", 0, "e"),
    "D-JOIN1": ("TD-JOIN", 0, "d1"),
}


def _congruence_case(rec1, rec2, w, node, P):
    typing_rule, pos, param = _CONGRUENCE[node.rule]

    def transform(gamma, envd, typd):
        an = _expect(typd, typing_rule, w, node.rule)
        children = list(_children(an))
        fam, wi, h = node.premises[0]
        rec = rec1 if fam == 1 else rec2
        children[pos] = rec(wi, h)(gamma, envd, children[pos])
        params = {**an.params_dict(), param: P[param + "p"]}
        return _rebuild(typing_rule, params, tuple(children), w, node.rule)

    return transform


def _step_exp_case(rec1, rec2, w, node):
    rho, e1, e2 = w
    P = node.params_dict()
    if node.rule in _CONGRUENCE:
        return _congruence_case(rec1, rec2, w, node, P)

    def transform(gamma, envd, typd):
        tnode = typd.root
        t = tnode.conclusion[2]

        if node.rule == "E-VAR":
            v = rho.get(P["x"])
            res = typecheck_exp(gamma, v)
            if res is None or res[0] != t:
                _fail(w, node.rule, "looked-up value does not have the variable's type")
            return res[1]

        if node.rule == "E-BETA":
            an = _expect(typd, "T-APP", w, node.rule)
            cf, cv = _children(an)
            fn = _expect(cf, "T-CLOS", w, node.rule)
            FP = fn.params_dict()
            body_td = _children(fn)[0]
            m = patmatch(P["p"], P["v"])
            if m is None:
                _fail(w, node.rule, "beta step without a matching pattern")
            merged = env_union(P["rho0"], m)
            gammap = env_typing(merged)
            if gammap is None or gammap != env_union(FP["gamma0"], bindings(P["p"])):
                _fail(w, node.rule, "matched bindings do not have the pattern's types")
            dd = _rebuild(
                "TD-ENV",
                {"gamma": gamma, "rhop": merged, "gammap": gammap},
                (),
                w,
                node.rule,
            )
            body_moved = weaken(gamma, body_td)
            return _rebuild(
                "T-SCOPE",
                {
                    "gamma": gamma,
                    "d": env_(merged),
                    "gammap": gammap,
                    "e": P["eb"],
                    "t": FP["t2"],
                },
                (dd, body_moved),
                w,
                node.rule,
            )

        if node.rule == "E-SCOPE2":
            an = _expect(typd, "T-SCOPE", w, node.rule)
            dd, de = _children(an)
            gammap = an.params_dict()["gammap"]
            inner_env = env_union(rho, P["rho1"])
            inner_gamma = env_union(gamma, gammap)
            envd_inner = _typoenv(inner_env, inner_gamma, w, node.rule)
            _, wi, h = node.premises[0]
            dep = rec2(wi, h)(inner_gamma, envd_inner, de)
            return _rebuild(
                "T-SCOPE",
                {**an.params_dict(), "e": P["ep"]},
                (dd, dep),
                w,
                node.rule,
            )

        if node.rule == "E-SCOPE3":
            an = _expect(typd, "T-SCOPE", w, node.rule)
            _, de = _children(an)
            try:
                return retype_value(gamma, de)
            except InvalidDerivationError:
                _fail(w, node.rule, "scope body is not a context-free value typing")

        _fail(w, node.rule, f"unhandled expression step rule {node.rule}")

    return transform


def _step_dec_case(rec1, rec2, w, node):
    rho, d1, d2 = w
    P = node.params_dict()
    if node.rule in _CONGRUENCE:
        return _congruence_case(rec1, rec2, w, node, P)

    def transform(gamma, envd, typd):
        if node.rule == "D-MATCH":
            an = _expect(typd, "TD-MATCH", w, node.rule)
            m = patmatch(P["p"], P["v"])
            if m is None:
                _fail(w, node.rule, "match step without a matching pattern")
            gammam = env_typing(m)
            if gammam is None or gammam != bindings(P["p"]):
                _fail(w, node.rule, "matched bindings do not have the pattern's types")
            return _rebuild(
                "TD-ENV",
                {"gamma": gamma, "rhop": m, "gammap": gammam},
                (),
                w,
                node.rule,
            )

        if node.rule == "D-JOIN2":
            an = _expect(typd, "TD-JOIN", w, node.rule)
            c1, c2 = _children(an)
            gamma1 = an.params_dict()["gamma1"]
            inner_gamma = env_union(gamma, gamma1)
            envd_inner = _typoenv(env_union(rho, P["rho1"]), inner_gamma, w, node.rule)
            _, wi, h = node.premises[0]
            c2p = rec1(wi, h)(inner_gamma, envd_inner, c2)
            return _rebuild(
                "TD-JOIN",
                {**an.params_dict(), "d2": P["d2p"]},
                (c1, c2p),
                w,
                node.rule,
            )

        if node.rule == "D-JOIN3":
            an = _expect(typd, "TD-JOIN", w, node.rule)
            AP = an.params_dict()
            merged = env_union(P["rho1"], P["rho2"])
            gammap = env_union(AP["gamma1"], AP["gamma2"])
            if env_typing(merged) != gammap:
                _fail(w, node.rule, "joined environments lost their pointwise typing")
            return _rebuild(
                "TD-ENV",
                {"gamma": gamma, "rhop": merged, "gammap": gammap},
                (),
                w,
                node.rule,
            )

        _fail(w, node.rule, f"unhandled declaration step rule {node.rule}")

    return transform


TP_ALG = IndexedBiMendlerAlgebra(step1=_step_dec_case, step2=_step_exp_case)


def subject_reduction(rho, stepd: BiDerivation, gamma, envd, typd) -> BiDerivation:
    """Transform a typing of a configuration across one step.

    All input derivations must validate and share coherent indices; the
    output validates and concludes at (gamma, successor, same type).
    """
    for v in (validate_bi(stepd), validate(envd), validate_bi(typd)):
        if not v:
            raise InvalidDerivationError(v.reason)
    srho, x1, x2 = stepd.root.conclusion
    if srho != rho:
        raise WrongIndexError("step derivation is under a different environment")
    if envd.root.conclusion != (rho, gamma):
        raise WrongIndexError("environment typing does not cover (rho, gamma)")
    tg, tx, t = typd.root.conclusion
    if tg != gamma or tx != x1 or typd.family != stepd.family:
        raise WrongIndexError("typing derivation does not type the stepped term")
    fold = hfold_1 if stepd.family == 1 else hfold_2
    out = fold(TP_ALG, stepd.root.conclusion, stepd)(gamma, envd, typd)
    verdict = validate_bi(out)
    if not verdict or out.root.conclusion != (gamma, x2, t):
        raise CounterexampleError(
            "subject reduction produced an invalid or mistyped derivation",
            {
                "rule": stepd.root.rule,
                "rho": encode_index(rho),
                "term": encode_index(x1),
                "successor": encode_index(x2),
                "reason": getattr(verdict, "reason", None) or "wrong conclusion",
            },
        )
    return out
