"""Syntax-directed typing for patterns, environments, declarations, expressions.

Pattern typing and environment typing are context-free standalone relations;
declaration and expression typing are one mutually defined indexed
bi-signature over (tenv, dec, typ) and (tenv, exp, typ).  Non-recursive
propositional premises (environment and pattern typings inside rules) are
decidable side conditions, so derivations remain self-validating data.

``typecheck_exp``/``typecheck_dec`` are deterministic: each constructor has
exactly one applicable rule, and inference either returns the unique type
with a validating derivation or None.  ``weaken`` transports a typing
derivation under an extended context; value typings are context-free and
``retype_value`` moves them to any context.
"""

from __future__ import annotations

from typing import Optional

from ..indexed import (
    Derivation,
    IndexedSignature,
    InvalidDerivationError,
    _check_total,
    derivation_to_json,
    din,  # noqa: F401 (still importable from here)
    rule,
)
from ..mutual import (
    BiDerivation,
    IndexedBiSignature,
    bi_derivation_to_json,
    birule,
    out_bi,
)
from .syntax import (
    Arrow,
    Dec,
    Env,
    EMPTY_ENV,
    Exp,
    NonValueError,
    PApp,
    PCon,
    PVar,
    Pat,
    TypeEnv,
    Typ,
    apply_,
    bindings,
    closure,
    cn,
    encode_index,
    env_,
    env_union,
    is_value,
    join_,
    match_,
    scope,
    sorted_env,
    vr,
)

TYP_O_DEC = 1
TYP_O_EXP = 2


# ---------------------------------------------------------------------------
# pattern typing: context-free, deterministic


def pat_type(p: Pat) -> Optional[Typ]:
    match p:
        case PVar(_, t) | PCon(_, t):
            return t
        case PApp(fn, arg):
            tf = pat_type(fn)
            ta = pat_type(arg)
            if isinstance(tf, Arrow) and ta == tf.dom:
                return tf.cod
            return None


TYPOPAT_SIG = IndexedSignature(
    "TypOPat",
    [
        rule(
            "tp_var",
            params=("x", "tau"),
            conclusion=lambda P: (PVar(P["x"], P["tau"]), P["tau"]),
        ),
        rule(
            "tp_con",
            params=("x", "tau"),
            conclusion=lambda P: (PCon(P["x"], P["tau"]), P["tau"]),
        ),
        rule(
            "tp_app",
            params=("p1", "p2", "t1", "t2"),
            premises=(
                lambda P: (P["p1"], Arrow(P["t1"], P["t2"])),
                lambda P: (P["p2"], P["t1"]),
            ),
            conclusion=lambda P: (PApp(P["p1"], P["p2"]), P["t2"]),
        ),
    ],
)


def build_typopat(p: Pat) -> Optional[Derivation]:
    match p:
        case PVar(x, t):
            return TYPOPAT_SIG.derive("tp_var", {"x": x, "tau": t})
        case PCon(x, t):
            return TYPOPAT_SIG.derive("tp_con", {"x": x, "tau": t})
        case PApp(fn, arg):
            d1 = build_typopat(fn)
            d2 = build_typopat(arg)
            if d1 is None or d2 is None:
                return None
            tf = d1.root.conclusion[1]  # pat_type(fn), which d1 concludes
            if not isinstance(tf, Arrow) or d2.root.conclusion[1] != tf.dom:
                return None
            return TYPOPAT_SIG.derive(
                "tp_app",
                {"p1": fn, "p2": arg, "t1": tf.dom, "t2": tf.cod},
                (d1, d2),
            )


# ---------------------------------------------------------------------------
# environment typing: pointwise under the empty context, values only


def env_typing(rho: Env) -> Optional[Env]:
    """The typing environment of a value environment, or None.

    Total: returns None when some entry is not a value or not typable.
    Each entry is typed by the typechecker with a node maker that builds
    nothing, so the type is ``typecheck_exp(EMPTY_ENV, v)[0]`` without
    its derivation.  The keys of an ``Env`` are sorted and distinct
    already, so its typing keeps them as they are.
    """
    out = []
    for k, v in rho.items():
        if not isinstance(v, Exp) or not is_value(v):
            return None
        try:
            t, _ = _tc_exp(EMPTY_ENV, v, (), _no_node)
        except _Untypable:
            return None
        out.append((k, t))
    return sorted_env(tuple(out)) if rho.__class__ is Env else Env(out)


TYPOENV_SIG = IndexedSignature(
    "TypOEnv",
    [
        rule(
            "te_env",
            params=("rho", "gamma"),
            side=(("pointwise", lambda P: env_typing(P["rho"]) == P["gamma"]),),
            conclusion=lambda P: (P["rho"], P["gamma"]),
        ),
    ],
)


def typecheck_env(rho: Env) -> Optional[tuple[Env, Derivation]]:
    """Type an environment pointwise; every entry must be a value."""
    for k, v in rho.items():
        if not is_value(v):
            raise NonValueError(f"environment entry {k!r} is not a value")
    gamma = env_typing(rho)
    if gamma is None:
        return None
    return gamma, TYPOENV_SIG.derive_given("te_env", ("pointwise",), {"rho": rho, "gamma": gamma})


# ---------------------------------------------------------------------------
# declaration/expression typing rules

TYPING_SIG = IndexedBiSignature(
    "Typing",
    [
        # --- declarations ---
        birule(
            TYP_O_DEC,
            "TD-ENV",
            subject=(env_, "rhop"),
            params=("gamma", "rhop", "gammap"),
            side=(("envtyping", lambda P: env_typing(P["rhop"]) == P["gammap"]),),
            conclusion=lambda P, s: (P["gamma"], s, TypeEnv(P["gammap"])),
        ),
        birule(
            TYP_O_DEC,
            "TD-MATCH",
            subject=(match_, "p", "e"),
            params=("gamma", "p", "e", "t1"),
            side=(("pattype", lambda P: pat_type(P["p"]) == P["t1"]),),
            premises=((TYP_O_EXP, lambda P: (P["gamma"], P["e"], P["t1"])),),
            conclusion=lambda P, s: (P["gamma"], s, TypeEnv(bindings(P["p"]))),
        ),
        birule(
            TYP_O_DEC,
            "TD-JOIN",
            subject=(join_, "d1", "d2"),
            params=("gamma", "d1", "gamma1", "d2", "gamma2"),
            premises=(
                (TYP_O_DEC, lambda P: (P["gamma"], P["d1"], TypeEnv(P["gamma1"]))),
                (
                    TYP_O_DEC,
                    lambda P: (
                        env_union(P["gamma"], P["gamma1"]),
                        P["d2"],
                        TypeEnv(P["gamma2"]),
                    ),
                ),
            ),
            conclusion=lambda P, s: (P["gamma"], s, TypeEnv(env_union(P["gamma1"], P["gamma2"]))),
        ),
        # --- expressions ---
        birule(
            TYP_O_EXP,
            "T-VAR",
            subject=(vr, "x"),
            params=("gamma", "x"),
            side=(("bound", lambda P: P["x"] in P["gamma"]),),
            conclusion=lambda P, s: (P["gamma"], s, P["gamma"].get(P["x"])),
        ),
        birule(
            TYP_O_EXP,
            "T-CON",
            subject=(cn, "x", "tau"),
            params=("gamma", "x", "tau"),
            conclusion=lambda P, s: (P["gamma"], s, P["tau"]),
        ),
        birule(
            TYP_O_EXP,
            "T-CLOS",
            subject=(closure, "rho0", "p", "eb"),
            params=("gamma", "rho0", "gamma0", "p", "t1", "eb", "t2"),
            side=(
                ("envtyping", lambda P: env_typing(P["rho0"]) == P["gamma0"]),
                ("pattype", lambda P: pat_type(P["p"]) == P["t1"]),
            ),
            premises=(
                (
                    TYP_O_EXP,
                    lambda P: (
                        env_union(P["gamma0"], bindings(P["p"])),
                        P["eb"],
                        P["t2"],
                    ),
                ),
            ),
            conclusion=lambda P, s: (P["gamma"], s, Arrow(P["t1"], P["t2"])),
        ),
        birule(
            TYP_O_EXP,
            "T-APP",
            subject=(apply_, "e1", "e2"),
            params=("gamma", "e1", "e2", "t1", "t2"),
            premises=(
                (TYP_O_EXP, lambda P: (P["gamma"], P["e1"], Arrow(P["t1"], P["t2"]))),
                (TYP_O_EXP, lambda P: (P["gamma"], P["e2"], P["t1"])),
            ),
            conclusion=lambda P, s: (P["gamma"], s, P["t2"]),
        ),
        birule(
            TYP_O_EXP,
            "T-SCOPE",
            subject=(scope, "d", "e"),
            params=("gamma", "d", "gammap", "e", "t"),
            premises=(
                (TYP_O_DEC, lambda P: (P["gamma"], P["d"], TypeEnv(P["gammap"]))),
                (TYP_O_EXP, lambda P: (env_union(P["gamma"], P["gammap"]), P["e"], P["t"])),
            ),
            conclusion=lambda P, s: (P["gamma"], s, P["t"]),
        ),
    ],
)


class _Untypable(Exception):
    def __init__(self, path: tuple[str, ...], reason: str):
        super().__init__(reason)
        self.path = path
        self.reason = reason


# ``_tc_exp``/``_tc_dec`` make each typing node of the term they type with
# ``mk``: ``_tnode`` builds and checks it, concluding at that term, and
# ``_no_node`` (for ``env_typing``) builds nothing.  ``given`` labels the
# side conditions the caller has established, by computing them: those are
# not run again.


def _tnode(rule_name, params, witnesses, subject, given=()) -> BiDerivation:
    return TYPING_SIG.derive_given(rule_name, given, params, witnesses, subject)


def _no_node(rule_name, params, witnesses, subject, given=()) -> None:
    return None


def _tc_exp(gamma: Env, e: Exp, path, mk=_tnode) -> tuple[Typ, Optional[BiDerivation]]:
    node = out_bi(e)
    match node.ctor:
        case "vr":
            x = node.payload[0]
            t = gamma.get(x)
            if t is None:
                raise _Untypable(path, f"unbound variable {x!r}")
            return t, mk("T-VAR", {"gamma": gamma, "x": x}, (), e)
        case "cn":
            x, tau = node.payload
            return tau, mk("T-CON", {"gamma": gamma, "x": x, "tau": tau}, (), e)
        case "closure":
            rho0, p = node.payload
            eb = node.rec[0]
            gamma0 = env_typing(rho0)
            if gamma0 is None:
                raise _Untypable(path + ("clos.env",), "environment is not typable")
            t1 = pat_type(p)
            if t1 is None:
                raise _Untypable(path + ("clos.pat",), "pattern is not typable")
            t2, db = _tc_exp(env_union(gamma0, bindings(p)), eb, path + ("clos.body",), mk)
            d = mk(
                "T-CLOS",
                {
                    "gamma": gamma,
                    "rho0": rho0,
                    "gamma0": gamma0,
                    "p": p,
                    "t1": t1,
                    "eb": eb,
                    "t2": t2,
                },
                (db,),
                e,
                ("envtyping", "pattype"),
            )
            return Arrow(t1, t2), d
        case "apply":
            e1, e2 = node.rec
            tf, d1 = _tc_exp(gamma, e1, path + ("app.fn",), mk)
            if not isinstance(tf, Arrow):
                raise _Untypable(path + ("app.fn",), f"not a function type: {tf!r}")
            ta, d2 = _tc_exp(gamma, e2, path + ("app.arg",), mk)
            if ta != tf.dom:
                raise _Untypable(
                    path + ("app.arg",), f"expected {tf.dom!r}, got {ta!r}"
                )
            d = mk(
                "T-APP",
                {"gamma": gamma, "e1": e1, "e2": e2, "t1": tf.dom, "t2": tf.cod},
                (d1, d2),
                e,
            )
            return tf.cod, d
        case "scope":
            dd, body = node.rec
            td, d1 = _tc_dec(gamma, dd, path + ("scope.dec",), mk)
            gammap = td.env
            t, d2 = _tc_exp(env_union(gamma, gammap), body, path + ("scope.body",), mk)
            d = mk(
                "T-SCOPE",
                {"gamma": gamma, "d": dd, "gammap": gammap, "e": body, "t": t},
                (d1, d2),
                e,
            )
            return t, d
    raise _Untypable(path, f"unknown expression form {node.ctor!r}")


def _tc_dec(gamma: Env, d: Dec, path, mk=_tnode) -> tuple[TypeEnv, Optional[BiDerivation]]:
    node = out_bi(d)
    match node.ctor:
        case "env":
            rhop = node.payload[0]
            gammap = env_typing(rhop)
            if gammap is None:
                raise _Untypable(path + ("env",), "environment is not typable")
            return TypeEnv(gammap), mk("TD-ENV", {"gamma": gamma, "rhop": rhop, "gammap": gammap}, (), d, ("envtyping",))
        case "match":
            p = node.payload[0]
            e = node.rec[0]
            t1 = pat_type(p)
            if t1 is None:
                raise _Untypable(path + ("match.pat",), "pattern is not typable")
            te, de = _tc_exp(gamma, e, path + ("match.exp",), mk)
            if te != t1:
                raise _Untypable(
                    path + ("match.exp",), f"expected {t1!r}, got {te!r}"
                )
            dd = mk("TD-MATCH", {"gamma": gamma, "p": p, "e": e, "t1": t1}, (de,), d, ("pattype",))
            return TypeEnv(bindings(p)), dd
        case "join":
            d1, d2 = node.rec
            te1, dd1 = _tc_dec(gamma, d1, path + ("join.left",), mk)
            gamma1 = te1.env
            te2, dd2 = _tc_dec(env_union(gamma, gamma1), d2, path + ("join.right",), mk)
            gamma2 = te2.env
            dd = mk(
                "TD-JOIN",
                {"gamma": gamma, "d1": d1, "gamma1": gamma1, "d2": d2, "gamma2": gamma2},
                (dd1, dd2),
                d,
            )
            return TypeEnv(env_union(gamma1, gamma2)), dd
    raise _Untypable(path, f"unknown declaration form {node.ctor!r}")


def typecheck_exp(gamma: Env, e: Exp) -> Optional[tuple[Typ, BiDerivation]]:
    try:
        return _tc_exp(gamma, e, ())
    except _Untypable:
        return None


def typecheck_dec(gamma: Env, d: Dec) -> Optional[tuple[TypeEnv, BiDerivation]]:
    try:
        return _tc_dec(gamma, d, ())
    except _Untypable:
        return None


def untypable_reason(gamma: Env, term) -> Optional[str]:
    """Diagnostic path for an untypable term, None if it typechecks."""
    try:
        if term.component == 1:
            _tc_dec(gamma, term, ())
        else:
            _tc_exp(gamma, term, ())
        return None
    except _Untypable as u:
        where = ".".join(u.path) or "root"
        return f"{where}: {u.reason}"


# ---------------------------------------------------------------------------
# typing lemmas as derivation transports


# each typing rule: whether its premises are typed under the node's own
# ``gamma`` (so moving the node moves them), or under a context of their own
_UNDER_GAMMA = {
    "TD-ENV": False, "TD-MATCH": True, "TD-JOIN": True,
    "T-VAR": False, "T-CON": False, "T-CLOS": False, "T-APP": True, "T-SCOPE": True,
}
_check_total(TYPING_SIG, _UNDER_GAMMA, "the typing transport")
_VALUE_RULES = ("T-CON", "T-CLOS", "T-APP")
# the side conditions that read no ``gamma``, so hold on a moved node as on
# the certified one it moves; only ``T-VAR``'s ``bound`` reads it
_HELD_ON_MOVE = {"TD-ENV": ("envtyping",), "TD-MATCH": ("pattype",), "T-CLOS": ("envtyping", "pattype")}


def _vouched(td) -> bool:
    """Whether ``td`` is a certified typing derivation: every side condition of its nodes held when it was built."""
    return td._certified and td.sig is TYPING_SIG


def _transport(td: BiDerivation, regamma, rules, what: str) -> BiDerivation:
    """``td`` with each node's ``gamma`` made ``regamma(gamma)``, down through the premises typed under it.

    A node whose rule is not one of ``rules`` raises ``InvalidDerivationError``: ``what: rule``.
    A moved node keeps every other parameter, so when ``td`` is :func:`_vouched`
    its ``_HELD_ON_MOVE`` side conditions are not run again.
    """
    node = td.root
    if node.rule not in rules:
        raise InvalidDerivationError(f"{what}: {node.rule}")
    P = node.params_dict()
    if _UNDER_GAMMA[node.rule]:
        premises = tuple([_transport(w, regamma, rules, what) for _, _, w in node.premises])
    else:
        premises = tuple([w for _, _, w in node.premises])
    P["gamma"] = regamma(P["gamma"])
    given = _HELD_ON_MOVE.get(node.rule, ()) if _vouched(td) else ()
    return TYPING_SIG.derive_given(node.rule, given, P, premises, node.conclusion[1])


def weaken(prefix: Env, td: BiDerivation) -> BiDerivation:
    """Transport a typing derivation under ``prefix (+) gamma``.

    The derivation's own bindings win over the prefix, so every lookup and
    conclusion type is unchanged; only contexts grow.
    """
    return _transport(td, lambda gamma: env_union(prefix, gamma), tuple(_UNDER_GAMMA), "not a typing rule")


def retype_value(gamma: Env, td: BiDerivation) -> BiDerivation:
    """Move a value's typing derivation to an arbitrary context.

    Value typings never consult the context: constants and closures are
    context-free and data-value applications recurse into values.
    """
    return _transport(td, lambda _: gamma, _VALUE_RULES, "not a value typing")


def typing_derivation_json(d: BiDerivation) -> dict:
    return bi_derivation_to_json(d, encode_index, ("TypODec", "TypOExp"))


def _named_derivation_json(family: str, d: Derivation) -> dict:
    return {"family": family, **derivation_to_json(d, encode_index)}


def typopat_derivation_json(d: Derivation) -> dict:
    return _named_derivation_json("TypOPat", d)


def typoenv_derivation_json(d: Derivation) -> dict:
    return _named_derivation_json("TypOEnv", d)
