"""Syntax of the language: types, patterns, environments, Dec/Exp terms.

Declarations and expressions are the two components of one bi-signature:

    Dec ::= env(rho) | match(p, e) | join(d, d)
    Exp ::= vr(x) | cn(x, t) | closure(rho, p, e) | apply(e, e) | scope(d, e)

Environment payloads hold expression terms as atoms; structure-preserving
maps range over the declared rec slots only.  Types and patterns are plain
closed datatypes with decidable structural equality.

Values are classified as

    data values  h ::= cn(x, t) | apply(h, v)
    values       v ::= closure(rho, p, e) | h

and ``patmatch`` matches patterns against values: a variable pattern binds
any value (annotations are not re-checked at runtime), a constructor
pattern requires equal name and equal annotation, and an application
pattern matches data-value applications componentwise.  In function
position only constructor-headed sub-patterns can match; a variable there
is a match failure.  This keeps the types of everything a variable captures
pinned by the pattern's annotations, which is what makes preservation hold
without runtime type checks.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Iterable, Optional, Union

from .. import sexpr
from ..kernel import register_payload_kind, term_from_json, value_class
from ..mutual import BiSignature, BiTerm, biterm_to_json, out_bi


class DuplicateBindingError(Exception):
    pass


class NonValueError(Exception):
    pass


# ---------------------------------------------------------------------------
# types


@value_class
class Ty:
    name: str


@value_class
class Arrow:
    dom: "Typ"
    cod: "Typ"


@value_class
class TypeEnv:
    env: "Env"


Typ = Union[Ty, Arrow, TypeEnv]


# ---------------------------------------------------------------------------
# environments: immutable finite maps with deterministic key order


class Env:
    """An immutable finite map; its entries are stored once, through ``object.__setattr__``."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[tuple[str, Any]] = ()):
        if entries.__class__ in (list, tuple) and len(entries) == 1:  # one binding: nothing to sort
            ((k, v),) = entries
            if k.__class__ is str:
                object.__setattr__(self, "_entries", ((k, v),))
                return
        items = {}
        for k, v in entries:
            items[k] = v
        object.__setattr__(self, "_entries", tuple(sorted(items.items())))

    def get(self, key: str, default=None):
        for k, v in self._entries:
            if k == key:
                return v
        return default

    def __contains__(self, key: str) -> bool:
        return any(k == key for k, _ in self._entries)

    def items(self) -> tuple[tuple[str, Any], ...]:
        return self._entries

    def domain(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self._entries)

    def __len__(self):
        return len(self._entries)

    def __eq__(self, other):
        return isinstance(other, Env) and self._entries == other._entries

    def __hash__(self):
        return hash(self._entries)

    def __repr__(self):
        inner = ", ".join(f"{k}: {v!r}" for k, v in self._entries)
        return "{" + inner + "}"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to {name!r} of an Env")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete {name!r} of an Env")

    def __reduce__(self):  # copying and pickling store no attribute
        return sorted_env, (self._entries,)


EMPTY_ENV = Env()


def env_union(left: Env, right: Env) -> Env:
    """Right-biased union; the one bias used by both stepping and typing.

    An empty side leaves the other side as it is, which is that union. Two
    sides whose string keys are already in order, every key of ``left``
    below every key of ``right``, are concatenated with no sort.
    """
    if not right._entries:
        return left
    if not left._entries:
        return right
    last, first = left._entries[-1][0], right._entries[0][0]
    if last.__class__ is str and first.__class__ is str and last < first:
        return sorted_env(left._entries + right._entries)
    return Env(left._entries + right._entries)


def sorted_env(entries: tuple) -> Env:
    """The ``Env`` of ``entries``, whose keys are already sorted and distinct: no dict, no sort."""
    env = Env.__new__(Env)
    object.__setattr__(env, "_entries", entries)
    return env


# ---------------------------------------------------------------------------
# patterns


@value_class
class PVar:
    x: str
    typ: Typ


@value_class
class PCon:
    x: str
    typ: Typ


@value_class
class PApp:
    fn: "Pat"
    arg: "Pat"


Pat = Union[PVar, PCon, PApp]


def bindings(p: Pat) -> Env:
    """The typing environment a pattern induces on its variables, read left to right on an explicit stack."""
    out: dict[str, Typ] = {}
    stack = [p]
    while stack:
        match stack.pop():
            case PVar(x, t):
                if x in out:
                    raise DuplicateBindingError(f"pattern binds {x!r} twice")
                out[x] = t
            case PApp(fn, arg):
                stack += (arg, fn)
    return Env(tuple(out.items())) if out else EMPTY_ENV


# ---------------------------------------------------------------------------
# the Dec/Exp bi-signature
#
# Payload JSON reuses the s-expression data of types and patterns (their
# printers and readers are defined under "surface syntax" below); environment
# entries are expression terms, encoded as term JSON.


def _read(of_data, data):
    """``of_data(data)``, or ``data`` as it is, for ``node`` to reject, unless it is a list ``of_data`` reads."""
    try:
        return of_data(data) if isinstance(data, list) else data
    except sexpr.SexprError:
        return data


register_payload_kind(
    "typ", lambda v: isinstance(v, (Ty, Arrow, TypeEnv)), lambda t: typ_to_sexpr(t), lambda d: _read(typ_of_sexpr, d)
)
register_payload_kind(
    "pat", lambda v: isinstance(v, (PVar, PCon, PApp)), lambda p: pat_to_sexpr(p), lambda d: _read(pat_of_sexpr, d)
)
register_payload_kind(
    "envE",
    lambda v: isinstance(v, Env)
    and all(isinstance(e, BiTerm) and e.sig is LANG and e.root.ctor in _EXPS for _, e in v.items()),
    encode=lambda rho: [[k, biterm_to_json(e)] for k, e in rho.items()],
    decode=lambda data: _read(lambda d: Env((k, term_from_json(LANG, e)) for k, e in _assoc(d)), data),
)

LANG = BiSignature(
    "lang_l",
    first={
        "env": ("envE",),
        "match": ("pat", "rec2"),
        "join": ("rec1", "rec1"),
    },
    second={
        "vr": ("id",),
        "cn": ("id", "typ"),
        "closure": ("envE", "pat", "rec2"),
        "apply": ("rec2", "rec2"),
        "scope": ("rec1", "rec2"),
    },
)

Dec = BiTerm
Exp = BiTerm
_EXPS = LANG.sorts[1]  # the expression constructors: a term's constructor tells its sort


# each is in_bi(LANG.node(component, ctor, slots)) in one call
env_ = LANG.constructor(1, "env", "env_")
join_ = LANG.constructor(1, "join", "join_")
vr = LANG.constructor(2, "vr")
cn = LANG.constructor(2, "cn")
apply_ = LANG.constructor(2, "apply", "apply_")
scope = LANG.constructor(2, "scope")
_match_term = LANG.constructor(1, "match")
_closure_term = LANG.constructor(2, "closure")


def match_(p: Pat, e: Exp) -> Dec:
    bindings(p)  # patterns entering match rules must be linear
    return _match_term(p, e)


def closure(rho: Env, p: Pat, body: Exp) -> Exp:
    bindings(p)
    return _closure_term(rho, p, body)


# they build what their generated constructors build, so rule patterns may name them
match_.sig = closure.sig = LANG
match_.ctor, closure.ctor = _match_term.ctor, _closure_term.ctor


# ---------------------------------------------------------------------------
# value classification


def is_data_value(e: Exp) -> bool:
    node = out_bi(e)
    if node.ctor == "cn":
        return True
    if node.ctor == "apply":
        h, v = node.rec
        return is_data_value(h) and is_value(v)
    return False


def is_value(e: Exp) -> bool:
    if e.root.ctor not in _EXPS:
        return False
    return out_bi(e).ctor == "closure" or is_data_value(e)


# ---------------------------------------------------------------------------
# pattern matching


def patmatch(p: Pat, v: Exp) -> Optional[Env]:
    """Match a pattern against a value, yielding the bound environment.

    Returns None on failure; there is no failure behaviour beyond that.
    """
    if not is_value(v):
        raise NonValueError(f"pattern match against a non-value: {print_exp(v)}")
    return _match(p, v)


def _match(p: Pat, v: Exp) -> Optional[Env]:
    node = out_bi(v)
    match p:
        case PVar(x, _):
            return Env([(x, v)])
        case PCon(x, t):
            if node.ctor == "cn" and node.payload == (x, t):
                return EMPTY_ENV
            return None
        case PApp(pf, pa):
            if node.ctor != "apply" or not is_data_value(v):
                return None
            h, va = node.rec
            m1 = _match_head(pf, h)
            if m1 is None:
                return None
            m2 = _match(pa, va)
            if m2 is None:
                return None
            return env_union(m1, m2)  # disjoint by pattern linearity


def _match_head(p: Pat, h: Exp) -> Optional[Env]:
    # Function position: only constructor-headed patterns can match here.
    if isinstance(p, PVar):
        return None
    return _match(p, h)


# ---------------------------------------------------------------------------
# surface syntax


def typ_to_sexpr(t: Typ):
    match t:
        case Ty(a):
            return ["ty", a]
        case Arrow(dom, cod):
            return ["arrow", typ_to_sexpr(dom), typ_to_sexpr(cod)]
        case TypeEnv(env):
            return ["tenv", [[k, typ_to_sexpr(v)] for k, v in env.items()]]
    raise sexpr.SexprError(f"not a type: {t!r}")


def typ_of_sexpr(expr) -> Typ:
    match expr:
        case ["ty", str(a)]:
            return Ty(a)
        case ["arrow", dom, cod]:
            return Arrow(typ_of_sexpr(dom), typ_of_sexpr(cod))
        case ["tenv", [*entries]]:
            return TypeEnv(
                Env((k, typ_of_sexpr(v)) for k, v in _assoc(entries))
            )
    raise sexpr.SexprError(f"not a type: {sexpr.write(expr)}")


def pat_to_sexpr(p: Pat):
    match p:
        case PVar(x, t):
            return ["pvar", x, typ_to_sexpr(t)]
        case PCon(x, t):
            return ["pcon", x, typ_to_sexpr(t)]
        case PApp(fn, arg):
            return ["papp", pat_to_sexpr(fn), pat_to_sexpr(arg)]
    raise sexpr.SexprError(f"not a pattern: {p!r}")


def pat_of_sexpr(expr) -> Pat:
    match expr:
        case ["pvar", str(x), t]:
            return PVar(x, typ_of_sexpr(t))
        case ["pcon", str(x), t]:
            return PCon(x, typ_of_sexpr(t))
        case ["papp", fn, arg]:
            return PApp(pat_of_sexpr(fn), pat_of_sexpr(arg))
    raise sexpr.SexprError(f"not a pattern: {sexpr.write(expr)}")


def exp_to_sexpr(e: Exp):
    node = out_bi(e)
    match node.ctor:
        case "vr":
            return ["var", node.payload[0]]
        case "cn":
            return ["con", node.payload[0], typ_to_sexpr(node.payload[1])]
        case "closure":
            rho, p = node.payload
            return [
                "clos",
                [[k, exp_to_sexpr(v)] for k, v in rho.items()],
                pat_to_sexpr(p),
                exp_to_sexpr(node.rec[0]),
            ]
        case "apply":
            return ["app", exp_to_sexpr(node.rec[0]), exp_to_sexpr(node.rec[1])]
        case "scope":
            return ["scope", dec_to_sexpr(node.rec[0]), exp_to_sexpr(node.rec[1])]
    raise sexpr.SexprError(f"not an expression: {node.ctor}")


def exp_of_sexpr(expr) -> Exp:
    match expr:
        case ["var", str(x)]:
            return vr(x)
        case ["con", str(x), t]:
            return cn(x, typ_of_sexpr(t))
        case ["clos", [*entries], p, body]:
            rho = Env((k, exp_of_sexpr(v)) for k, v in _assoc(entries))
            return closure(rho, pat_of_sexpr(p), exp_of_sexpr(body))
        case ["app", e1, e2]:
            return apply_(exp_of_sexpr(e1), exp_of_sexpr(e2))
        case ["scope", d, e]:
            return scope(dec_of_sexpr(d), exp_of_sexpr(e))
    raise sexpr.SexprError(f"not an expression: {sexpr.write(expr)}")


def dec_to_sexpr(d: Dec):
    node = out_bi(d)
    match node.ctor:
        case "env":
            return ["env", [[k, exp_to_sexpr(v)] for k, v in node.payload[0].items()]]
        case "match":
            return ["match", pat_to_sexpr(node.payload[0]), exp_to_sexpr(node.rec[0])]
        case "join":
            return ["join", dec_to_sexpr(node.rec[0]), dec_to_sexpr(node.rec[1])]
    raise sexpr.SexprError(f"not a declaration: {node.ctor}")


def dec_of_sexpr(expr) -> Dec:
    match expr:
        case ["env", [*entries]]:
            return env_(Env((k, exp_of_sexpr(v)) for k, v in _assoc(entries)))
        case ["match", p, e]:
            return match_(pat_of_sexpr(p), exp_of_sexpr(e))
        case ["join", d1, d2]:
            return join_(dec_of_sexpr(d1), dec_of_sexpr(d2))
    raise sexpr.SexprError(f"not a declaration: {sexpr.write(expr)}")


def _assoc(entries):
    """The ``(key value)`` bindings of an environment literal, each key once."""
    seen = set()
    for entry in entries:
        match entry:
            case [str(k), v]:
                if k in seen:
                    raise sexpr.SexprError(f"environment binds {k!r} twice")
                seen.add(k)
                yield k, v
            case _:
                raise sexpr.SexprError(f"not a binding: {sexpr.write(entry)}")


def env_to_sexpr(rho: Env):
    return [[k, exp_to_sexpr(v)] for k, v in rho.items()]


def env_of_sexpr(expr) -> Env:
    if not isinstance(expr, list):
        raise sexpr.SexprError(f"not an environment: {sexpr.write(expr)}")
    return Env((k, exp_of_sexpr(v)) for k, v in _assoc(expr))


def tenv_to_sexpr(gamma: Env):
    return ["tenv", [[k, typ_to_sexpr(v)] for k, v in gamma.items()]]


def tenv_of_sexpr(expr) -> Env:
    match expr:
        case ["tenv", [*entries]]:
            return Env((k, typ_of_sexpr(v)) for k, v in _assoc(entries))
    raise sexpr.SexprError(f"not a typing environment: {sexpr.write(expr)}")


def parse_typ(text: str) -> Typ:
    return typ_of_sexpr(sexpr.read(text))


def parse_pat(text: str) -> Pat:
    return pat_of_sexpr(sexpr.read(text))


def parse_exp(text: str) -> Exp:
    return exp_of_sexpr(sexpr.read(text))


def parse_dec(text: str) -> Dec:
    return dec_of_sexpr(sexpr.read(text))


def parse_env(text: str) -> Env:
    return env_of_sexpr(sexpr.read(text))


def print_typ(t: Typ) -> str:
    return sexpr.write(typ_to_sexpr(t))


def print_pat(p: Pat) -> str:
    return sexpr.write(pat_to_sexpr(p))


def print_exp(e: Exp) -> str:
    return sexpr.write(exp_to_sexpr(e))


def print_dec(d: Dec) -> str:
    return sexpr.write(dec_to_sexpr(d))


def print_env(rho: Env) -> str:
    return sexpr.write(env_to_sexpr(rho))


def encode_index(v):
    """JSON encoding for values in step/typing judgment indices."""
    if isinstance(v, BiTerm):
        return print_dec(v) if v.component == 1 else print_exp(v)
    if isinstance(v, (Ty, Arrow, TypeEnv)):
        return print_typ(v)
    if isinstance(v, (PVar, PCon, PApp)):
        return print_pat(v)
    if isinstance(v, Env):
        if all(isinstance(x, BiTerm) for _, x in v.items()):
            return print_env(v)
        return sexpr.write(tenv_to_sexpr(v))
    if isinstance(v, tuple):
        return [encode_index(x) for x in v]
    return v
