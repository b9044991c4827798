"""Deterministic small-step semantics for declarations and expressions.

The two transition relations are one indexed bi-signature over the index
types (env, dec, dec) and (env, exp, exp).  ``step_dec``/``step_exp``
return the unique successor under the left-to-right call-by-value strategy
together with a validating derivation, or None when the configuration is a
value or stuck.  The successor is the third index of the step
derivation's conclusion, the term the rule built, not a second copy; the
second index is the stepped term itself, which ``search`` hands the rule.
Stuck configurations (unbound variables, failed pattern
matches, applications of non-closures) are a legal outcome: nothing here
promises progress.

The stepper is :func:`alacarte.indexed.search` over ``STEP_SIG``, whose
rules declare the terms they step: the rule table alone decides which rule
fires, and two rules that apply to one configuration are an error.
"""

from __future__ import annotations

from ..indexed import InvalidDerivationError, search
from ..mutual import BiDerivation, IndexedBiSignature, bi_derivation_to_json, birule
from .syntax import (
    Dec,
    Env,
    Exp,
    apply_,
    closure,
    encode_index,
    env_,
    env_union,
    is_value,
    join_,
    match_,
    patmatch,
    scope,
    vr,
)

DEC_STEP = 1
EXP_STEP = 2


def _matched_env(P, rule: str, subject: str) -> Env:
    """What pattern ``P["p"]`` binds in the value ``P["v"]``, the ``rule``'s ``subject``."""
    v = P["v"]
    if not is_value(v):
        raise InvalidDerivationError(f"{rule}: {subject} is not a value")
    m = patmatch(P["p"], v)
    if m is None:
        raise InvalidDerivationError(f"{rule}: pattern does not match")
    return m


STEP_SIG = IndexedBiSignature(
    "Step",
    [
        # --- declarations ---
        birule(
            DEC_STEP,
            "D-MATCH1",
            subject=(match_, "p", "e"),
            params=("rho", "p", "e", "ep"),
            premises=((EXP_STEP, lambda P: (P["rho"], P["e"], P["ep"])),),
            conclusion=lambda P, s: (P["rho"], s, match_(P["p"], P["ep"])),
        ),
        birule(
            DEC_STEP,
            "D-MATCH",
            subject=(match_, "p", "v"),
            params=("rho", "p", "v"),
            side=(
                ("value", lambda P: is_value(P["v"])),
                (match_, lambda P: patmatch(P["p"], P["v"]) is not None),
            ),
            conclusion=lambda P, s: (P["rho"], s, env_(_matched_env(P, "match", "subject"))),
        ),
        birule(
            DEC_STEP,
            "D-JOIN1",
            subject=(join_, "d1", "d2"),
            params=("rho", "d1", "d1p", "d2"),
            premises=((DEC_STEP, lambda P: (P["rho"], P["d1"], P["d1p"])),),
            conclusion=lambda P, s: (P["rho"], s, join_(P["d1p"], P["d2"])),
        ),
        birule(
            DEC_STEP,
            "D-JOIN2",
            subject=(join_, (env_, "rho1"), "d2"),
            params=("rho", "rho1", "d2", "d2p"),
            premises=(
                (DEC_STEP, lambda P: (env_union(P["rho"], P["rho1"]), P["d2"], P["d2p"])),
            ),
            # the successor keeps the subject's own ``env`` declaration
            conclusion=lambda P, s: (P["rho"], s, join_(s.root.rec[0], P["d2p"])),
        ),
        birule(
            DEC_STEP,
            "D-JOIN3",
            subject=(join_, (env_, "rho1"), (env_, "rho2")),
            params=("rho", "rho1", "rho2"),
            conclusion=lambda P, s: (P["rho"], s, env_(env_union(P["rho1"], P["rho2"]))),
        ),
        # --- expressions ---
        birule(
            EXP_STEP,
            "E-VAR",
            subject=(vr, "x"),
            params=("rho", "x"),
            side=(("bound", lambda P: P["x"] in P["rho"]),),
            conclusion=lambda P, s: (P["rho"], s, P["rho"].get(P["x"])),
        ),
        birule(
            EXP_STEP,
            "E-APP1",
            subject=(apply_, "e1", "e2"),
            params=("rho", "e1", "e1p", "e2"),
            premises=((EXP_STEP, lambda P: (P["rho"], P["e1"], P["e1p"])),),
            conclusion=lambda P, s: (P["rho"], s, apply_(P["e1p"], P["e2"])),
        ),
        birule(
            EXP_STEP,
            "E-APP2",
            subject=(apply_, "v1", "e2"),
            params=("rho", "v1", "e2", "e2p"),
            side=(("value", lambda P: is_value(P["v1"])),),
            premises=((EXP_STEP, lambda P: (P["rho"], P["e2"], P["e2p"])),),
            conclusion=lambda P, s: (P["rho"], s, apply_(P["v1"], P["e2p"])),
        ),
        birule(
            EXP_STEP,
            "E-BETA",
            subject=(apply_, (closure, "rho0", "p", "eb"), "v"),
            params=("rho", "rho0", "p", "eb", "v"),
            side=(
                ("value", lambda P: is_value(P["v"])),
                (match_, lambda P: patmatch(P["p"], P["v"]) is not None),
            ),
            conclusion=lambda P, s: (
                P["rho"],
                s,
                scope(env_(env_union(P["rho0"], _matched_env(P, "beta", "argument"))), P["eb"]),
            ),
        ),
        birule(
            EXP_STEP,
            "E-SCOPE1",
            subject=(scope, "d", "e"),
            params=("rho", "d", "dp", "e"),
            premises=((DEC_STEP, lambda P: (P["rho"], P["d"], P["dp"])),),
            conclusion=lambda P, s: (P["rho"], s, scope(P["dp"], P["e"])),
        ),
        birule(
            EXP_STEP,
            "E-SCOPE2",
            subject=(scope, (env_, "rho1"), "e"),
            params=("rho", "rho1", "e", "ep"),
            premises=(
                (EXP_STEP, lambda P: (env_union(P["rho"], P["rho1"]), P["e"], P["ep"])),
            ),
            # the successor keeps the subject's own ``env`` declaration
            conclusion=lambda P, s: (P["rho"], s, scope(s.root.rec[0], P["ep"])),
        ),
        birule(
            EXP_STEP,
            "E-SCOPE3",
            subject=(scope, (env_, "rho1"), "v"),
            params=("rho", "rho1", "v"),
            side=(("value", lambda P: is_value(P["v"])),),
            conclusion=lambda P, s: (P["rho"], s, P["v"]),
        ),
    ],
)


def step_exp(rho: Env, e: Exp) -> tuple[Exp, BiDerivation] | None:
    """The unique successor of ``e`` under ``rho``, or None (value or stuck)."""
    return search(STEP_SIG, EXP_STEP, rho, e)


def step_dec(rho: Env, d: Dec) -> tuple[Dec, BiDerivation] | None:
    """As :func:`step_exp`, over the declaration rules."""
    return search(STEP_SIG, DEC_STEP, rho, d)


def step_derivation_json(d: BiDerivation) -> dict:
    return bi_derivation_to_json(d, encode_index, ("DecStep", "ExpStep"))
