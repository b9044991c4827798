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
    derivation_to_json,
    din,
    rule,
)
from ..mutual import (
    BiDerivation,
    IndexedBiSignature,
    bi_derivation_to_json,
    birule,
    din_bi,
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
            return din(TYPOPAT_SIG.dnode("tp_var", {"x": x, "tau": t}))
        case PCon(x, t):
            return din(TYPOPAT_SIG.dnode("tp_con", {"x": x, "tau": t}))
        case PApp(fn, arg):
            d1 = build_typopat(fn)
            d2 = build_typopat(arg)
            if d1 is None or d2 is None:
                return None
            tf = d1.root.conclusion[1]  # pat_type(fn), which d1 concludes
            if not isinstance(tf, Arrow) or d2.root.conclusion[1] != tf.dom:
                return None
            return din(
                TYPOPAT_SIG.dnode(
                    "tp_app",
                    {"p1": fn, "p2": arg, "t1": tf.dom, "t2": tf.cod},
                    (d1, d2),
                )
            )


# ---------------------------------------------------------------------------
# environment typing: pointwise under the empty context, values only


def env_typing(rho: Env) -> Optional[Env]:
    """The typing environment of a value environment, or None.

    Total: returns None when some entry is not a value or not typable.
    Each entry is typed by the typechecker with a node maker that builds
    nothing, so the type is ``typecheck_exp(EMPTY_ENV, v)[0]`` without
    its derivation.
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
    return Env(out)


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
    return gamma, din(TYPOENV_SIG.dnode("te_env", {"rho": rho, "gamma": gamma}))


# ---------------------------------------------------------------------------
# declaration/expression typing rules

TYPING_SIG = IndexedBiSignature(
    "Typing",
    [
        # --- declarations ---
        birule(
            TYP_O_DEC,
            "TD-ENV",
            params=("gamma", "rhop", "gammap"),
            side=(("envtyping", lambda P: env_typing(P["rhop"]) == P["gammap"]),),
            conclusion=lambda P: (P["gamma"], env_(P["rhop"]), TypeEnv(P["gammap"])),
        ),
        birule(
            TYP_O_DEC,
            "TD-MATCH",
            params=("gamma", "p", "e", "t1"),
            side=(("pattype", lambda P: pat_type(P["p"]) == P["t1"]),),
            premises=((TYP_O_EXP, lambda P: (P["gamma"], P["e"], P["t1"])),),
            conclusion=lambda P: (
                P["gamma"],
                match_(P["p"], P["e"]),
                TypeEnv(bindings(P["p"])),
            ),
        ),
        birule(
            TYP_O_DEC,
            "TD-JOIN",
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
            conclusion=lambda P: (
                P["gamma"],
                join_(P["d1"], P["d2"]),
                TypeEnv(env_union(P["gamma1"], P["gamma2"])),
            ),
        ),
        # --- expressions ---
        birule(
            TYP_O_EXP,
            "T-VAR",
            params=("gamma", "x"),
            side=(("bound", lambda P: P["x"] in P["gamma"]),),
            conclusion=lambda P: (P["gamma"], vr(P["x"]), P["gamma"].get(P["x"])),
        ),
        birule(
            TYP_O_EXP,
            "T-CON",
            params=("gamma", "x", "tau"),
            conclusion=lambda P: (P["gamma"], cn(P["x"], P["tau"]), P["tau"]),
        ),
        birule(
            TYP_O_EXP,
            "T-CLOS",
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
            conclusion=lambda P: (
                P["gamma"],
                closure(P["rho0"], P["p"], P["eb"]),
                Arrow(P["t1"], P["t2"]),
            ),
        ),
        birule(
            TYP_O_EXP,
            "T-APP",
            params=("gamma", "e1", "e2", "t1", "t2"),
            premises=(
                (TYP_O_EXP, lambda P: (P["gamma"], P["e1"], Arrow(P["t1"], P["t2"]))),
                (TYP_O_EXP, lambda P: (P["gamma"], P["e2"], P["t1"])),
            ),
            conclusion=lambda P: (P["gamma"], apply_(P["e1"], P["e2"]), P["t2"]),
        ),
        birule(
            TYP_O_EXP,
            "T-SCOPE",
            params=("gamma", "d", "gammap", "e", "t"),
            premises=(
                (TYP_O_DEC, lambda P: (P["gamma"], P["d"], TypeEnv(P["gammap"]))),
                (TYP_O_EXP, lambda P: (env_union(P["gamma"], P["gammap"]), P["e"], P["t"])),
            ),
            conclusion=lambda P: (P["gamma"], scope(P["d"], P["e"]), P["t"]),
        ),
    ],
)


class _Untypable(Exception):
    def __init__(self, path: tuple[str, ...], reason: str):
        super().__init__(reason)
        self.path = path
        self.reason = reason


# ``_tc_exp``/``_tc_dec`` make each typing node with ``mk``: ``_tnode``
# builds and checks it, ``_no_node`` (for ``env_typing``) builds nothing.


def _tnode(rule_name, params, witnesses=()) -> BiDerivation:
    return din_bi(TYPING_SIG.dnode(rule_name, params, witnesses))


def _no_node(rule_name, params, witnesses=()) -> None:
    return None


def _tc_exp(gamma: Env, e: Exp, path, mk=_tnode) -> tuple[Typ, Optional[BiDerivation]]:
    node = out_bi(e)
    match node.ctor:
        case "vr":
            x = node.payload[0]
            t = gamma.get(x)
            if t is None:
                raise _Untypable(path, f"unbound variable {x!r}")
            return t, mk("T-VAR", {"gamma": gamma, "x": x})
        case "cn":
            x, tau = node.payload
            return tau, mk("T-CON", {"gamma": gamma, "x": x, "tau": tau})
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
            return TypeEnv(gammap), mk(
                "TD-ENV", {"gamma": gamma, "rhop": rhop, "gammap": gammap}
            )
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
            dd = mk(
                "TD-MATCH", {"gamma": gamma, "p": p, "e": e, "t1": t1}, (de,)
            )
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


def weaken(prefix: Env, td: BiDerivation) -> BiDerivation:
    """Transport a typing derivation under ``prefix (+) gamma``.

    The derivation's own bindings win over the prefix, so every lookup and
    conclusion type is unchanged; only contexts grow.
    """
    node = td.root
    P = node.params_dict()
    g2 = env_union(prefix, P["gamma"])
    children = tuple(w for _, _, w in node.premises)
    match node.rule:
        case "T-VAR" | "T-CON" | "TD-ENV" | "T-CLOS":
            # leaf-like: premise contexts (if any) do not mention gamma
            return _tnode(node.rule, {**P, "gamma": g2}, children)
        case "T-APP" | "TD-MATCH" | "TD-JOIN" | "T-SCOPE":
            moved = tuple(weaken(prefix, c) for c in children)
            return _tnode(node.rule, {**P, "gamma": g2}, moved)
    raise InvalidDerivationError(f"not a typing rule: {node.rule}")


def retype_value(gamma: Env, td: BiDerivation) -> BiDerivation:
    """Move a value's typing derivation to an arbitrary context.

    Value typings never consult the context: constants and closures are
    context-free and data-value applications recurse into values.
    """
    node = td.root
    P = node.params_dict()
    match node.rule:
        case "T-CON" | "T-CLOS":
            children = tuple(w for _, _, w in node.premises)
            return _tnode(node.rule, {**P, "gamma": gamma}, children)
        case "T-APP":
            moved = tuple(retype_value(gamma, w) for _, _, w in node.premises)
            return _tnode(node.rule, {**P, "gamma": gamma}, moved)
    raise InvalidDerivationError(f"not a value typing: {node.rule}")


def typing_derivation_json(d: BiDerivation) -> dict:
    return bi_derivation_to_json(d, encode_index, ("TypODec", "TypOExp"))


def _named_derivation_json(family: str, d: Derivation) -> dict:
    return {"family": family, **derivation_to_json(d, encode_index)}


def typopat_derivation_json(d: Derivation) -> dict:
    return _named_derivation_json("TypOPat", d)


def typoenv_derivation_json(d: Derivation) -> dict:
    return _named_derivation_json("TypOEnv", d)
