"""Deterministic small-step semantics for declarations and expressions.

The two transition relations are one indexed bi-signature over the index
types (env, dec, dec) and (env, exp, exp).  ``step_dec``/``step_exp``
return the unique successor under the left-to-right call-by-value strategy
together with a validating derivation, or None when the configuration is a
value or stuck.  The successor is the third index of the step
derivation's conclusion, the term the rule built, not a second copy.
Stuck configurations (unbound variables, failed pattern
matches, applications of non-closures) are a legal outcome: nothing here
promises progress.
"""

from __future__ import annotations

from typing import Optional

from ..indexed import InvalidDerivationError
from ..mutual import (
    BiDerivation,
    IndexedBiSignature,
    bi_derivation_to_json,
    birule,
    din_bi,
    out_bi,
)
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
            params=("rho", "p", "e", "ep"),
            premises=((EXP_STEP, lambda P: (P["rho"], P["e"], P["ep"])),),
            conclusion=lambda P: (
                P["rho"],
                match_(P["p"], P["e"]),
                match_(P["p"], P["ep"]),
            ),
        ),
        birule(
            DEC_STEP,
            "D-MATCH",
            params=("rho", "p", "v"),
            side=(
                ("value", lambda P: is_value(P["v"])),
                ("match", lambda P: patmatch(P["p"], P["v"]) is not None),
            ),
            conclusion=lambda P: (
                P["rho"],
                match_(P["p"], P["v"]),
                env_(_matched_env(P, "match", "subject")),
            ),
        ),
        birule(
            DEC_STEP,
            "D-JOIN1",
            params=("rho", "d1", "d1p", "d2"),
            premises=((DEC_STEP, lambda P: (P["rho"], P["d1"], P["d1p"])),),
            conclusion=lambda P: (
                P["rho"],
                join_(P["d1"], P["d2"]),
                join_(P["d1p"], P["d2"]),
            ),
        ),
        birule(
            DEC_STEP,
            "D-JOIN2",
            params=("rho", "rho1", "d2", "d2p"),
            premises=(
                (DEC_STEP, lambda P: (env_union(P["rho"], P["rho1"]), P["d2"], P["d2p"])),
            ),
            conclusion=lambda P: (
                P["rho"],
                join_(env_(P["rho1"]), P["d2"]),
                join_(env_(P["rho1"]), P["d2p"]),
            ),
        ),
        birule(
            DEC_STEP,
            "D-JOIN3",
            params=("rho", "rho1", "rho2"),
            conclusion=lambda P: (
                P["rho"],
                join_(env_(P["rho1"]), env_(P["rho2"])),
                env_(env_union(P["rho1"], P["rho2"])),
            ),
        ),
        # --- expressions ---
        birule(
            EXP_STEP,
            "E-VAR",
            params=("rho", "x"),
            side=(("bound", lambda P: P["x"] in P["rho"]),),
            conclusion=lambda P: (P["rho"], vr(P["x"]), P["rho"].get(P["x"])),
        ),
        birule(
            EXP_STEP,
            "E-APP1",
            params=("rho", "e1", "e1p", "e2"),
            premises=((EXP_STEP, lambda P: (P["rho"], P["e1"], P["e1p"])),),
            conclusion=lambda P: (
                P["rho"],
                apply_(P["e1"], P["e2"]),
                apply_(P["e1p"], P["e2"]),
            ),
        ),
        birule(
            EXP_STEP,
            "E-APP2",
            params=("rho", "v1", "e2", "e2p"),
            side=(("value", lambda P: is_value(P["v1"])),),
            premises=((EXP_STEP, lambda P: (P["rho"], P["e2"], P["e2p"])),),
            conclusion=lambda P: (
                P["rho"],
                apply_(P["v1"], P["e2"]),
                apply_(P["v1"], P["e2p"]),
            ),
        ),
        birule(
            EXP_STEP,
            "E-BETA",
            params=("rho", "rho0", "p", "eb", "v"),
            side=(
                ("value", lambda P: is_value(P["v"])),
                ("match", lambda P: patmatch(P["p"], P["v"]) is not None),
            ),
            conclusion=lambda P: (
                P["rho"],
                apply_(closure(P["rho0"], P["p"], P["eb"]), P["v"]),
                scope(env_(env_union(P["rho0"], _matched_env(P, "beta", "argument"))), P["eb"]),
            ),
        ),
        birule(
            EXP_STEP,
            "E-SCOPE1",
            params=("rho", "d", "dp", "e"),
            premises=((DEC_STEP, lambda P: (P["rho"], P["d"], P["dp"])),),
            conclusion=lambda P: (
                P["rho"],
                scope(P["d"], P["e"]),
                scope(P["dp"], P["e"]),
            ),
        ),
        birule(
            EXP_STEP,
            "E-SCOPE2",
            params=("rho", "rho1", "e", "ep"),
            premises=(
                (EXP_STEP, lambda P: (env_union(P["rho"], P["rho1"]), P["e"], P["ep"])),
            ),
            conclusion=lambda P: (
                P["rho"],
                scope(env_(P["rho1"]), P["e"]),
                scope(env_(P["rho1"]), P["ep"]),
            ),
        ),
        birule(
            EXP_STEP,
            "E-SCOPE3",
            params=("rho", "rho1", "v"),
            side=(("value", lambda P: is_value(P["v"])),),
            conclusion=lambda P: (P["rho"], scope(env_(P["rho1"]), P["v"]), P["v"]),
        ),
    ],
)


def _dstep(rule_name, params, witnesses=()) -> tuple[Dec | Exp, BiDerivation]:
    """The successor the rule's conclusion built, and the step derivation."""
    d = din_bi(STEP_SIG.dnode(rule_name, params, witnesses))
    return d.root.conclusion[2], d


def step_exp(rho: Env, e: Exp) -> Optional[tuple[Exp, BiDerivation]]:
    """The unique successor of ``e`` under ``rho``, or None (value or stuck)."""
    node = out_bi(e)
    match node.ctor:
        case "vr":
            x = node.payload[0]
            if rho.get(x) is None:
                return None  # stuck: unbound variable
            return _dstep("E-VAR", {"rho": rho, "x": x})
        case "cn" | "closure":
            return None  # values do not step
        case "apply":
            e1, e2 = node.rec
            sub = step_exp(rho, e1)
            if sub is not None:
                e1p, d1 = sub
                return _dstep("E-APP1", {"rho": rho, "e1": e1, "e1p": e1p, "e2": e2}, (d1,))
            if not is_value(e1):
                return None  # stuck function position
            sub = step_exp(rho, e2)
            if sub is not None:
                e2p, d2 = sub
                return _dstep("E-APP2", {"rho": rho, "v1": e1, "e2": e2, "e2p": e2p}, (d2,))
            if not is_value(e2):
                return None
            n1 = out_bi(e1)
            if n1.ctor != "closure":
                return None  # a data-value application is itself a value
            rho0, p = n1.payload
            if patmatch(p, e2) is None:
                return None  # stuck: pattern matching failure
            return _dstep("E-BETA", {"rho": rho, "rho0": rho0, "p": p, "eb": n1.rec[0], "v": e2})
        case "scope":
            dd, body = node.rec
            sub = step_dec(rho, dd)
            if sub is not None:
                dp, d1 = sub
                return _dstep("E-SCOPE1", {"rho": rho, "d": dd, "dp": dp, "e": body}, (d1,))
            dn = out_bi(dd)
            if dn.ctor != "env":
                return None  # stuck declaration
            rho1 = dn.payload[0]
            if is_value(body):
                return _dstep("E-SCOPE3", {"rho": rho, "rho1": rho1, "v": body})
            sub = step_exp(env_union(rho, rho1), body)
            if sub is None:
                return None
            ep, d2 = sub
            return _dstep("E-SCOPE2", {"rho": rho, "rho1": rho1, "e": body, "ep": ep}, (d2,))
    return None


def step_dec(rho: Env, d: Dec) -> Optional[tuple[Dec, BiDerivation]]:
    """As :func:`step_exp`, over the declaration rules."""
    node = out_bi(d)
    match node.ctor:
        case "env":
            return None  # terminal
        case "match":
            p = node.payload[0]
            e = node.rec[0]
            sub = step_exp(rho, e)
            if sub is not None:
                ep, de = sub
                return _dstep("D-MATCH1", {"rho": rho, "p": p, "e": e, "ep": ep}, (de,))
            if not is_value(e):
                return None
            if patmatch(p, e) is None:
                return None  # stuck: pattern matching failure
            return _dstep("D-MATCH", {"rho": rho, "p": p, "v": e})
        case "join":
            d1, d2 = node.rec
            sub = step_dec(rho, d1)
            if sub is not None:
                d1p, dd1 = sub
                return _dstep("D-JOIN1", {"rho": rho, "d1": d1, "d1p": d1p, "d2": d2}, (dd1,))
            n1 = out_bi(d1)
            if n1.ctor != "env":
                return None
            rho1 = n1.payload[0]
            n2 = out_bi(d2)
            if n2.ctor == "env":
                return _dstep("D-JOIN3", {"rho": rho, "rho1": rho1, "rho2": n2.payload[0]})
            sub = step_dec(env_union(rho, rho1), d2)
            if sub is None:
                return None
            d2p, dd2 = sub
            return _dstep("D-JOIN2", {"rho": rho, "rho1": rho1, "d2": d2, "d2p": d2p}, (dd2,))
    return None


def step_derivation_json(d: BiDerivation) -> dict:
    return bi_derivation_to_json(d, encode_index, ("DecStep", "ExpStep"))
