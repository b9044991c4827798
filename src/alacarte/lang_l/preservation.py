"""Subject reduction as the fold of one indexed Mendler bi-algebra.

The carrier at a declaration step index (rho, d1, d2) is a transformer:
given a context gamma, a validating environment typing for (rho, gamma) and
a typing of d1 at t under gamma, produce a typing of d2 at t under gamma.
Likewise for expression steps.  ``TP_ALG`` is one table of proof cases, one
per step rule of ``STEP_SIG``, checked total when it is built (see
``indexed.cases``); the seven congruence rules share one case, and the
rules that end in a ``TD-ENV`` typing share its check.  The cases consume
the step derivation's recursive premises only through the ``rec`` handles
and use the typing lemmas (weakening, value retyping, pointwise environment
typing) for everything context-shaped.

A case that cannot produce the required typing raises
:class:`CounterexampleError` carrying a replayable report.  That is the
property under test: on well-typed configurations it never fires.
"""

from __future__ import annotations

from ..indexed import InvalidDerivationError, WrongIndexError, _Rejected, cases, validate
from ..mutual import (
    BiDerivation,
    IndexedBiMendlerAlgebra,
    hfold_1,
    hfold_2,
    validate_bi,
)
from .syntax import (
    encode_index,
    env_union,
    print_dec,
    print_exp,
)
from .step import STEP_SIG
from .typing import (
    TYPING_SIG,
    TYPOENV_SIG,
    _vouched,
    bindings,
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
    return [wit for _, _, wit in node.premises]


def _rebuild(rule_name, params, witnesses, w, step_rule, given=()):
    """The typing of the step's successor ``w[2]``, concluding at that term; ``given`` as ``derive_given`` takes it."""
    try:
        return TYPING_SIG.derive_given(rule_name, given, params, witnesses, w[2])
    except InvalidDerivationError as exc:
        _fail(w, step_rule, f"could not rebuild {rule_name}: {exc}")


def _td_env(gamma, d, gammap, w, step_rule, reason, given=()):
    """The ``TD-ENV`` typing of the ``env`` declaration ``d`` at ``gammap``, which must type its environment.

    The rule's own ``envtyping`` side condition is that test, unless the
    caller has established it (``given``).  ``TD-ENV`` has no premises and
    that one side condition, so once its parameters match and ``d`` fits,
    the only rule instance the checker can reject is the one that fails it:
    that rejection fails with ``reason``.
    """
    try:
        return TYPING_SIG.derive_given("TD-ENV", given, {"gamma": gamma, "rhop": d.root.payload[0], "gammap": gammap}, (), d)
    except _Rejected:
        _fail(w, step_rule, reason)
    except InvalidDerivationError as exc:
        _fail(w, step_rule, f"could not rebuild TD-ENV: {exc}")


def _types_env(td, rho, gammap) -> bool:
    """Whether ``td``, a node of a vouched typing, is a ``TD-ENV`` of ``rho`` at ``gammap``: then ``env_typing(rho) == gammap``."""
    n = td.root
    if n.rule != "TD-ENV":
        return False
    _, (_, rhop), (_, g) = n.params
    return (rhop is rho or rhop == rho) and (g is gammap or g == gammap)


def _extend(w, rho1, gamma, envd, typd, scoped, step_rule):
    """``gamma ⊕ scoped`` and the ``te_env`` typing of ``w[0] ⊕ rho1`` at it, where a scoped child steps and is typed.

    By the pointwise lemma, ``env_typing(ρ ⊕ ρ1) = env_typing(ρ) ⊕
    env_typing(ρ1)``, that typing's ``pointwise`` side condition holds, and
    is not run again, when ``envd`` is a certified environment typing at
    ``(w[0], gamma)`` and the vouched ``typd``'s first child is a ``TD-ENV``
    of ``rho1`` at ``scoped``.  Otherwise it is checked.
    """
    extended, c = env_union(gamma, scoped), envd.root.conclusion
    held = (
        envd._certified and envd.sig is TYPOENV_SIG
        and (c[0] is w[0] or c[0] == w[0]) and (c[1] is gamma or c[1] == gamma)
        and _vouched(typd) and _types_env(typd.root.premises[0][2], rho1, scoped)
    )
    try:
        params = {"rho": env_union(w[0], rho1), "gamma": extended}
        return extended, TYPOENV_SIG.derive_given("te_env", ("pointwise",) if held else (), params)
    except InvalidDerivationError:
        _fail(w, step_rule, "extended environment lost its pointwise typing")


# The one-premise congruence steps: step rule -> (typing rule, child
# position, rewritten parameter, scope, held).  The step's premise steps that
# child of the typing, and the rebuilt typing takes the step's primed
# parameter (``e1`` becomes the step's ``e1p``).  A ``scope`` names the
# typing's parameter whose bindings the child is typed under: that child
# steps under ``rho ⊕ rho1`` and is typed under ``gamma ⊕`` that parameter.
# ``held`` labels the typing rule's side conditions: none reads the rewritten
# parameter, so they hold on the rebuilt typing as on a vouched one.
_CONGRUENCE = {
    "E-APP1": ("T-APP", 0, "e1", None, ()),
    "E-APP2": ("T-APP", 1, "e2", None, ()),
    "E-SCOPE1": ("T-SCOPE", 0, "d", None, ()),
    "E-SCOPE2": ("T-SCOPE", 1, "e", "gammap", ()),
    "D-MATCH1": ("TD-MATCH", 0, "e", None, ("pattype",)),
    "D-JOIN1": ("TD-JOIN", 0, "d1", None, ()),
    "D-JOIN2": ("TD-JOIN", 1, "d2", "gamma1", ()),
}


def _congruence(typing_rule, pos, param, scope, held):
    """The case of a ``_CONGRUENCE`` row: the typing rebuilt around its stepped child."""

    def case(rec1, rec2, w, node):
        P = node.params_dict()
        fam, wi, h = node.premises[0]
        rec = rec1 if fam == 1 else rec2

        def transform(gamma, envd, typd):
            an = _expect(typd, typing_rule, w, node.rule)
            AP = an.params_dict()
            children = _children(an)
            if scope is not None:
                gamma, envd = _extend(w, P["rho1"], gamma, envd, typd, AP[scope], node.rule)
            children[pos] = rec(wi, h)(gamma, envd, children[pos])
            AP[param] = P[param + "p"]
            return _rebuild(typing_rule, AP, tuple(children), w, node.rule, held if held and _vouched(typd) else ())

        return transform

    return case


def _e_var(rec1, rec2, w, node):
    def transform(gamma, envd, typd):
        res = typecheck_exp(gamma, w[0].get(node.params_dict()["x"]))
        if res is None or res[0] != typd.root.conclusion[2]:
            _fail(w, node.rule, "looked-up value does not have the variable's type")
        return res[1]

    return transform


def _e_beta(rec1, rec2, w, node):
    P = node.params_dict()

    def transform(gamma, envd, typd):
        an = _expect(typd, "T-APP", w, node.rule)
        fn = _expect(_children(an)[0], "T-CLOS", w, node.rule)
        FP = fn.params_dict()
        d = w[2].root.rec[0]  # the successor's declaration: the closure's environment and the match
        gammap = env_union(FP["gamma0"], bindings(P["p"]))
        dd = _td_env(gamma, d, gammap, w, node.rule, "matched bindings do not have the pattern's types")
        body_moved = weaken(gamma, _children(fn)[0])
        params = {"gamma": gamma, "d": d, "gammap": gammap, "e": P["eb"], "t": FP["t2"]}
        return _rebuild("T-SCOPE", params, (dd, body_moved), w, node.rule)

    return transform


def _e_scope3(rec1, rec2, w, node):
    def transform(gamma, envd, typd):
        _, de = _children(_expect(typd, "T-SCOPE", w, node.rule))
        try:
            return retype_value(gamma, de)
        except InvalidDerivationError:
            _fail(w, node.rule, "scope body is not a context-free value typing")

    return transform


def _d_match(rec1, rec2, w, node):
    P = node.params_dict()

    def transform(gamma, envd, typd):
        _expect(typd, "TD-MATCH", w, node.rule)
        return _td_env(gamma, w[2], bindings(P["p"]), w, node.rule, "matched bindings do not have the pattern's types")

    return transform


def _d_join3(rec1, rec2, w, node):
    P = node.params_dict()

    def transform(gamma, envd, typd):
        an = _expect(typd, "TD-JOIN", w, node.rule)
        AP = an.params_dict()
        gammap = env_union(AP["gamma1"], AP["gamma2"])
        # the pointwise lemma over the vouched typing's two ``TD-ENV`` children, at the successor's ``rho1 ⊕ rho2``
        held = _vouched(typd) and (
            _types_env(an.premises[0][2], P["rho1"], AP["gamma1"]) and _types_env(an.premises[1][2], P["rho2"], AP["gamma2"])
            and w[2].root.payload[0] == env_union(P["rho1"], P["rho2"])
        )
        reason = "joined environments lost their pointwise typing"
        return _td_env(gamma, w[2], gammap, w, node.rule, reason, ("envtyping",) if held else ())

    return transform


# One proof case per step rule; ``cases`` checks it total over ``STEP_SIG``.
_CASES = {
    **{rule: _congruence(*row) for rule, row in _CONGRUENCE.items()},
    "E-VAR": _e_var,
    "E-BETA": _e_beta,
    "E-SCOPE3": _e_scope3,
    "D-MATCH": _d_match,
    "D-JOIN3": _d_join3,
}
_step = cases(STEP_SIG, _CASES)
TP_ALG = IndexedBiMendlerAlgebra(step1=_step, step2=_step)


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
