"""Signature functors, coproducts, fixpoints, and folds: one term core for any number of sorts.

A :class:`Signature` is one layer of a grammar of one or more mutually
recursive sorts: named constructors whose slots are either recursive
positions of a given sort or payloads drawn from a closed registry of
payload kinds.  :class:`Term` is the recursive closure of a signature, a
materialized immutable tree with an ``in_``/``out_`` bijection.  Every node
is ``Node(sig, ctor, rec, payload)`` whatever the sort count; the sort of a
node and of each of its slots lives in its constructor's plan.

Two algebra styles interpret terms:

- a conventional algebra is any callable ``Node[C] -> C``, run by ``fold_c``;
- a Mendler algebra is a callable ``(rec, Node[Handle]) -> C`` that receives
  recursive positions as opaque handles usable only through ``rec``, run by
  ``mfold``.  ``lift`` turns a conventional algebra into the canonical
  Mendler one, and ``mfold(lift(alg), t) == fold_c(alg, t)``.  A
  :class:`SortedAlgebra` has a step per sort, each given a ``rec`` per sort.

``Signature.constructor(ctor)`` generates a constructor's straight-line
function of its slots, equal to ``in_(sig.node(ctor, slots))``: it checks
what ``node`` and then ``in_`` check, in their order and with their
messages, and fills the node and the term in its own body.  On a
coproduct a tagged constructor equals
``in_(inject_*(csig, summand.node(untagged, slots)))``.
``lang_l``'s term constructors (``vr``, ``scope``, ...), the terms of
``arith``'s rule patterns and the enumerators' terms are built by such
functions; folds, JSON decoding, the laws and the public
``arith.lit``/``add`` build through ``node`` and ``in_``.  Generated code (these constructors,
the value classes' ``__init__``, ``__eq__`` and factory, each rule's ``dnode`` and
``derive``, each search and the folds of ``case`` and ``indexed.cases`` tables) goes through ``run_generated``,
which compiles each distinct source once and registers it in ``linecache``; it may build values in its own body.

Handles are branded with a nonce issued per Mendler step (and per sort);
consuming a handle under a different step or sort (or inspecting it at
all) is a contract violation and fails fast.  A step on a node without
recursive slots issues none: its ``rec`` is the shared :func:`_leaf_rec`,
for which every handle is foreign.  A second, fold-carrying term
representation (:class:`FoldTerm`, a term is whatever can run any Mendler
algebra) lives behind the same in/out/fold interface with
``reflect``/``reify`` conversions.

A :class:`CoproductSignature` joins two one-sort signatures, and
``case(csig, f, g)`` is the copairing ``[f, g]`` of an algebra per summand:
one table lookup per node hands the node, as its summand's node, to that
summand's algebra.  ``fold_c`` and ``lift`` run a fold and a Mendler step
generated from that table once, on first use, with one branch per tagged
constructor that builds the summand node from a tuple display of the
folded children.  So a case fold builds one node per level, not ``fmap``'s
image and then the summand's, and no level runs a comprehension; nor does
``fold_c`` of any other algebra, which folds two children in a tuple
display (any other number with ``map``), nor ``lift`` of any other
algebra, which maps with ``map``, nor ``mfold``, which does
``step_once``'s work in its own ``recurse``.
``project_left``/``project_right``/``project`` stay as the specification
``case`` is tested against, and for the laws.

All values are immutable after construction and all operations are pure, so
everything here is safe for concurrent use without synchronization.
"""

from __future__ import annotations

import linecache
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from functools import cached_property
from itertools import repeat
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional


class MalformedNodeError(Exception):
    pass


class ForeignHandleError(Exception):
    pass


class UnsupportedCarrierError(Exception):
    pass


# ---------------------------------------------------------------------------
# generated code

_COMPILED: dict[str, Any] = {}  # generated source -> its code object
_TWINS: dict[type, type] = {}  # value class -> its unfrozen twin (see ``value_class``)


def run_generated(src: str, env: dict) -> dict:
    """Execute generated source in ``env`` and return ``env``.

    Each distinct source is compiled once per process, so generators whose
    outputs coincide (two rules of the same shape, say) share one code
    object; every run still binds its own functions in its own ``env``.
    The source is registered in ``linecache`` under a name listing the
    functions it defines, such as ``<generated build, derive #12>``, so a
    traceback through generated code shows its lines.
    """
    code = _COMPILED.get(src)
    if code is None:
        defs = [line[4 : line.index("(")] for line in src.splitlines() if line.startswith("def ")]
        name = f"<generated {', '.join(defs)} #{len(_COMPILED)}>"
        linecache.cache[name] = (len(src), None, src.splitlines(True), name)
        code = _COMPILED[src] = compile(src, name, "exec")
    exec(code, env)
    return env


def _tuple_src(names) -> str:
    """A tuple display of the given expressions: ``()``, ``(a, )``, ``(a, b, )``."""
    return "(" + "".join(f"{n}, " for n in names) + ")"


# ---------------------------------------------------------------------------
# immutable value classes


def value_class(cls):
    """``dataclass(frozen=True, slots=True)`` with a straight-line ``__init__``, ``__eq__`` and factory.

    The dataclass ``__init__`` of a frozen class stores each field through
    ``object.__setattr__``; this one is generated once per class, as the
    dataclass's own is, and stores each field through its slot descriptor.
    It takes the same parameters and stores each ``init=False`` field's
    default, so construction behaves exactly as the dataclass's does.
    The dataclass ``__eq__`` compares two tuples of the compared fields,
    built on each call; this one, generated in the same source, compares
    field by field in declaration order, each as ``a is b or a == b``,
    after ``True`` for ``self is other`` and ``NotImplemented`` for another
    class.  Tuple comparison tests each element's identity first too, so
    both give the same ``bool`` for every pair.  Hashing, ``repr``,
    ``replace``, copying, pickling and ``match`` are the dataclass's own.
    ``__setattr__``/``__delattr__`` are the dataclass's frozen ones, but
    refer to the class ``slots=True`` returns: Python 3.11's refer to the
    class it replaced, so assigning or deleting a name that is not a field
    raised ``TypeError`` instead of
    :class:`~dataclasses.FrozenInstanceError`.  Nothing is cached across
    constructions.  A field is either a parameter without a default or an
    ``init=False`` field with a plain default, and the class defines no
    ``__eq__`` of its own (the dataclass would keep it).

    The factory ``cls._positional(*fields)``, generated from the same
    fields, builds the value that ``cls(*fields)`` builds, more cheaply;
    the library's hot paths build through it, or through the same code
    in their own generated bodies (see :func:`fill_src`).  The frozen
    ``__setattr__`` rules out a plain slot store in ``__init__``: each store
    must go around it, through a call.  So the factory fills an unfrozen
    twin: a class with the same ``__slots__`` and no ``__setattr__``, whose
    stores are plain slot stores.  It stores each parameter, then each
    ``init=False`` default, and re-types the value (``__class__ = cls``);
    the twin is never seen outside that code.  Re-typing needs the two
    layouts to match, so a class whose twin cannot take its layout (one
    with a slotted base, say) is refused here, when it is created.  The
    factory always builds ``cls`` itself, never a subclass; everything
    else (keyword calls, ``replace``, copying, pickling, subclasses) goes
    through ``cls(...)``.
    """
    if "__eq__" in vars(cls):
        raise TypeError(f"{cls.__name__}: a value class generates its own __eq__")
    cls = dataclass(frozen=True, slots=True)(cls)
    generated = cls.__init__
    twin = type(cls.__name__, (), {"__slots__": cls.__slots__, "__module__": cls.__module__})
    try:
        twin().__class__ = cls
    except TypeError as exc:
        raise TypeError(f"{cls.__name__}: a value class's unfrozen twin cannot take its layout ({exc})") from None
    names, stores, values, env = [], [], [], {}
    for f in fields(cls):
        if f.default_factory is not MISSING or f.init != (f.default is MISSING):
            raise TypeError(f"{cls.__name__}.{f.name}: not a field a value class can take")
        if f.init:
            names.append(f.name)
            value = f.name
        else:
            value = f"_default_{f.name}"
            env[value] = f.default
        env[f"_set_{f.name}"] = vars(cls)[f.name].__set__
        stores.append(f"    _set_{f.name}(self, {value})\n")
        values.append(value)
    code = generated.__code__
    if hasattr(cls, "__post_init__") or code.co_varnames[1 : code.co_argcount] != tuple(names):
        raise TypeError(f"{cls.__name__}: a value class takes its fields as plain parameters")
    compared = [f.name for f in fields(cls) if f.compare]
    same = " and ".join(f"(self.{n} is other.{n} or self.{n} == other.{n})" for n in compared)
    params = "".join(", " + n for n in names)
    run_generated(
        f"def __init__(self{params}):\n{''.join(stores) or '    pass'}\n"
        "def __eq__(self, other):\n"
        "    if self is other:\n        return True\n"
        "    if other.__class__ is not self.__class__:\n        return NotImplemented\n"
        + (f"    if {same}:\n        return True\n    return False\n" if same else "    return True\n"),
        env,
    )
    _TWINS[cls] = twin
    run_generated("\n".join([f"def _positional({params[2:]}):", *fill_src(cls, "self", values, env), "    return self\n"]), env)
    env["__init__"].__annotations__ = generated.__annotations__
    for method in (env["__init__"], env["__eq__"], env["_positional"]):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        method.__module__ = cls.__module__
    cls.__init__, cls.__eq__, cls._positional = env["__init__"], env["__eq__"], staticmethod(env["_positional"])
    frozen = frozenset(f.name for f in fields(cls))

    def __setattr__(self, name, value):
        if type(self) is cls or name in frozen:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in frozen:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for method in (__setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


def fill_src(cls, var: str, values, env: dict, at: str = "    ") -> list[str]:
    """Lines, indented by ``at``, binding ``var`` to the ``cls`` whose fields (``init=False`` ones too) hold ``values``.

    Each source expression is stored in turn in a slot of ``cls``'s unfrozen twin, then re-typed (see
    :func:`value_class`, whose factory is built so); ``env`` gets the twin and the class.
    """
    twin, name = _TWINS[cls], cls.__name__
    env[f"_{name}_twin"], env[f"_{name}_class"] = twin, cls
    stores = [f"{at}{var}.{f.name} = {value}" for f, value in zip(fields(cls), values, strict=True)]
    return [f"{at}{var} = _{name}_twin()", *stores, f"{at}{var}.__class__ = _{name}_class"]


# ---------------------------------------------------------------------------
# payload registry
#
# Payload slot kinds form a closed registry so signatures stay serializable
# and enumerable.  Other modules register their own kinds at import time.

REC = "rec"


@dataclass(frozen=True)
class PayloadKind:
    name: str
    check: Callable[[Any], bool]
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


_PAYLOAD_KINDS: dict[str, PayloadKind] = {}


def register_payload_kind(name, check, encode=None, decode=None):
    if name == REC:
        raise ValueError("'rec' is reserved for recursive slots")
    ident = lambda v: v
    _PAYLOAD_KINDS[name] = PayloadKind(name, check, encode or ident, decode or ident)


def payload_kind(name: str) -> PayloadKind:
    return _PAYLOAD_KINDS[name]


register_payload_kind("int", lambda v: isinstance(v, int) and not isinstance(v, bool))
register_payload_kind("id", lambda v: isinstance(v, str) and v != "")
register_payload_kind("tid", lambda v: isinstance(v, str) and v != "")


# ---------------------------------------------------------------------------
# signatures, nodes, terms


def _ctor_table(name, ctors: Mapping[str, Iterable[str]], rec_kinds, seen: dict) -> dict[str, tuple[str, ...]]:
    """Constructor -> slot kinds, each a ``rec_kinds`` or payload kind; each name must be new to ``seen``."""
    table: dict[str, tuple[str, ...]] = {}
    for ctor, kinds in ctors.items():
        kinds = tuple(kinds)
        for k in kinds:
            if k not in rec_kinds and k not in _PAYLOAD_KINDS:
                raise ValueError(f"unknown slot kind {k!r} in {name}.{ctor}")
        if ctor in seen:
            raise ValueError(f"duplicate constructor {ctor!r} in {name}")
        table[ctor] = seen[ctor] = kinds
    return table


class _Plan(NamedTuple):
    """What a signature precomputes for a constructor besides ``node``'s split; sorts count from 1."""

    kinds: tuple[str, ...]  # the slot kinds, in declaration order
    sort: int  # the sort the constructor builds
    rec_sorts: tuple[int, ...]  # each recursive slot's sort, in ``rec`` order
    checks: tuple[tuple[int, int], ...]  # (``rec`` index, sort) in ``in_``'s order: by sort, then position
    head: tuple[tuple[str, int], ...]  # the term JSON's leading entries: a many-sorted term's component


def _split(kinds: tuple[str, ...], rec_kinds: tuple[str, ...]):
    """How ``node`` splits a constructor's slots, computed once per constructor.

    The slot count; the recursive positions, or None when every slot is
    recursive; and the payload ``(position, kind)`` pairs, in declaration
    order.
    """
    rec_at = tuple(i for i, k in enumerate(kinds) if k in rec_kinds)
    payload = tuple((i, k) for i, k in enumerate(kinds) if k not in rec_kinds)
    return len(kinds), None if len(rec_at) == len(kinds) else rec_at, payload


def _bad_payload(sig_name, ctor, value, kind):
    return MalformedNodeError(f"{sig_name}.{ctor}: {value!r} is not a valid {kind!r} payload")


# how ``in_`` rejects a slot, in a one-sort and in a many-sorted signature
_SLOT_MESSAGES = (
    "{}.{}: recursive slot {!r} is not a term of this signature",
    "{}.{}: slot {!r} is not a component-{} term",
)


def _bad_slot(sig, ctor, child, sort):
    message = _SLOT_MESSAGES[0] if sort is None else sig._slot_message  # None: a node its constructor does not fit
    return MalformedNodeError(message.format(sig.name, ctor, child, sort))


def _check_payloads(sig_name, ctor, slots, payload_at):
    """Reject the first ill-kinded payload; kinds are looked up at call time."""
    for i, kind in payload_at:
        if not _PAYLOAD_KINDS[kind].check(slots[i]):
            raise _bad_payload(sig_name, ctor, slots[i], kind)


class ByIdentity:
    """A value that compares by identity, so that its copies, deep ones too, are itself."""

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class Signature(ByIdentity):
    """Per sort, a grammar shape: constructor name -> tuple of slot kinds.

    Slot kinds are ``"rec"`` (``"rec1"`` ... ``"recN"`` with N sorts, naming
    the sort of the slot) or a registered payload kind.  A constructor name
    belongs to one sort only.  Signatures compare by identity, and a copy of
    one is itself; all nodes of a term share one signature object.
    """

    def __init__(self, name: str, *sorts: Mapping[str, Iterable[str]]):
        many = len(sorts) > 1
        self.name = name
        self.rec_kinds = tuple(f"{REC}{k}" for k in range(1, len(sorts) + 1)) if many else (REC,)
        self.ctors: dict[str, tuple[str, ...]] = {}
        self.sorts = tuple(_ctor_table(name, decls, self.rec_kinds, self.ctors) for decls in sorts)
        self._plans: dict[str, _Plan] = {}
        for sort, table in enumerate(self.sorts, 1):
            for ctor, kinds in table.items():
                rec_sorts = tuple(self.rec_kinds.index(k) + 1 for k in kinds if k in self.rec_kinds)
                checks = tuple(sorted(enumerate(rec_sorts), key=lambda check: check[::-1]))
                self._plans[ctor] = _Plan(kinds, sort, rec_sorts, checks, (("component", sort),) if many else ())
        self._splits = {ctor: _split(kinds, self.rec_kinds) for ctor, kinds in self.ctors.items()}
        # the constructors whose recursive slots could hold a term of another sort
        self._sort_checked = frozenset(c for c, plan in self._plans.items() if many and plan.rec_sorts)
        self._slot_message = _SLOT_MESSAGES[many]

    def node(self, ctor: str, slots: Iterable[Any] = ()) -> "Node":
        """Build a node, validating slot counts and payload kinds.

        ``slots`` are given in declaration order; recursive and payload
        slots are split out according to the constructor's arity.
        """
        split = self._splits.get(ctor)
        if split is None:
            raise MalformedNodeError(f"{self.name} has no constructor {ctor!r}")
        if slots.__class__ is not tuple:
            slots = tuple(slots)
        arity, rec_at, payload_at = split
        if len(slots) != arity:
            raise MalformedNodeError(f"{self.name}.{ctor} expects {arity} slots, got {len(slots)}")
        if not payload_at:
            return Node(self, ctor, slots, ())
        _check_payloads(self.name, ctor, slots, payload_at)
        if not rec_at:
            return Node(self, ctor, (), slots)
        return Node(self, ctor, tuple([slots[i] for i in rec_at]), tuple([slots[i] for i, _ in payload_at]))

    def constructor(self, ctor: str, name: str | None = None) -> Callable[..., "Term"]:
        """A function of the constructor's slots equal to ``in_(self.node(ctor, slots))``.

        Generated once, straight-line, from one source: the payload kinds
        are checked in declaration order (looked up at call time), then the
        recursive slots in ``in_``'s order, with the messages ``node`` and
        ``in_`` raise, and the node and the term are filled in its own body
        (see :func:`fill_src`), with no call.  On a coproduct a
        tagged constructor equals ``in_(inject_*(self, summand.node(untagged,
        slots)))``, so a payload rejection names the summand.  The function
        is called ``name``, by default the (untagged) constructor name;
        called with the wrong number of slots it raises Python's
        ``TypeError``, as a hand-written function would.  Its ``sig`` and
        ``ctor`` attributes name what it builds, so that it can head a
        rule's ``subject`` pattern.
        """
        plan = self._plans.get(ctor)
        if plan is None:
            raise MalformedNodeError(f"{self.name} has no constructor {ctor!r}")
        site, site_ctor = self._payload_site(ctor)
        slots = [f"s{i}" for i in range(len(plan.kinds))]
        rec = [s for s, kind in zip(slots, plan.kinds) if kind in self.rec_kinds]
        payload = [s for s, kind in zip(slots, plan.kinds) if kind not in self.rec_kinds]
        src = [f"def constructor({', '.join(slots)}):"]
        for s, kind in zip(slots, plan.kinds):
            if kind not in self.rec_kinds:
                src += [
                    f"    if not _kinds[{kind!r}].check({s}):",
                    f"        raise _bad_payload(_site.name, _site_ctor, {s}, {kind!r})",
                ]
        wrong_sort = " or {}.root.ctor not in _sort{}" if ctor in self._sort_checked else ""
        for i, sort in plan.checks:
            s = rec[i]
            src += [
                f"    if not isinstance({s}, _Term) or {s}.sig is not _sig{wrong_sort.format(s, sort)}:",
                f"        raise _bad_slot(_sig, _ctor, {s}, {sort})",
            ]
        env = dict(__name__=__name__, _kinds=_PAYLOAD_KINDS, _bad_payload=_bad_payload, _bad_slot=_bad_slot)
        env.update(_site=site, _site_ctor=site_ctor, _sig=self, _ctor=ctor, _Term=Term)
        env.update((f"_sort{k}", table) for k, table in enumerate(self.sorts, 1))
        src += fill_src(Node, "n", ["_sig", "_ctor", _tuple_src(rec), _tuple_src(payload)], env)
        src += [*fill_src(Term, "t", ["_sig", "n"], env), "    return t"]
        fn = run_generated("\n".join(src) + "\n", env)["constructor"]
        fn.__name__ = fn.__qualname__ = name or site_ctor
        fn.sig, fn.ctor = self, ctor
        return fn

    def _payload_site(self, ctor):
        """The signature and constructor that a payload rejection of ``ctor`` names."""
        return self, ctor

    def __repr__(self):
        return f"<Signature {self.name}>"


@value_class
class Node:
    """One constructor application over an arbitrary carrier.

    ``rec`` holds the values sitting in recursive slots, of every sort, and
    ``payload`` the payload values, each in declaration order.  The sort is
    no field: ``component``, ``rec1`` and ``rec2`` are read-only views.
    """

    sig: Signature
    ctor: str
    rec: tuple
    payload: tuple

    component = property(lambda self: self.sig._plans[self.ctor].sort, doc="The constructor's sort.")
    rec1 = property(lambda self: self.rec_of(1), doc="The recursive slots of sort 1.")
    rec2 = property(lambda self: self.rec_of(2), doc="The recursive slots of sort 2.")

    def rec_of(self, sort: int) -> tuple:
        """The recursive slots of the given sort, in declaration order."""
        return tuple([x for x, s in zip(self.rec, self.sig._plans[self.ctor].rec_sorts) if s == sort])


@value_class
class Term:
    """The recursive closure of a signature: a finite immutable tree."""

    sig: Signature
    root: Node

    component = property(lambda self: self.root.component, doc="The term's sort.")


# the factories the hot paths build through (see ``value_class``)
_new_node, _new_term = Node._positional, Term._positional


def fmap(f: Callable[[Any], Any], n: Node) -> Node:
    """Apply ``f`` to every recursive slot; constructor and payloads unchanged.

    A node without recursive slots is its own image and is returned as it is.
    """
    if not n.rec:
        return n
    return Node(n.sig, n.ctor, tuple(map(f, n.rec)), n.payload)


def fmap_by_sort(fs, n: Node) -> Node:
    """``fmap`` with one function per sort: ``fs[k - 1]`` maps the slots of sort k."""
    sorts = n.sig._plans[n.ctor].rec_sorts
    return Node(n.sig, n.ctor, tuple([fs[s - 1](x) for x, s in zip(n.rec, sorts)]), n.payload)


def in_(n: Node) -> Term:
    """Wrap a node whose recursive slots hold terms of their sorts; inverse of ``out_``.

    The first bad slot in check order (by sort, then position) is reported.
    """
    sig = n.sig
    for child in n.rec:
        if not isinstance(child, Term) or child.sig is not sig:
            break
    else:
        if not sig._sort_checked or n.ctor not in sig._sort_checked:
            return _new_term(sig, n)
    plan = sig._plans.get(n.ctor)
    fits = plan is not None and len(plan.rec_sorts) == len(n.rec)  # False for some hand-built nodes
    for i, sort in plan.checks if fits else enumerate([None] * len(n.rec)):
        child = n.rec[i]
        if (
            not isinstance(child, Term)
            or child.sig is not sig
            or sort is not None and child.root.ctor not in sig.sorts[sort - 1]
        ):
            raise _bad_slot(sig, n.ctor, child, sort)
    return Term(sig, n)


def out_(t: Term) -> Node:
    return t.root


def fold_c(alg: Callable[[Node], Any], t: Term):
    """Conventional fold: ``fold_c(alg, in_(n)) == alg(fmap(fold_c(alg, .), n))``.

    A node without recursive slots is its own ``fmap`` image and is passed
    to ``alg`` as it is.  An algebra that ``case`` returned is folded by
    the fold generated once from its table (see :func:`_case_fold`); any
    other recurses here, as ``step_once`` does: the children of two
    recursive slots are folded in a tuple display, any other number with
    ``map``, so that no level runs a comprehension.
    """
    entry = getattr(alg, "_case", None)
    if entry is not None and entry.copair is alg:
        return entry.fold(t)
    n = t.root
    rec = n.rec
    if not rec:
        return alg(n)
    if len(rec) == 2:
        folded = (fold_c(alg, rec[0]), fold_c(alg, rec[1]))
    else:
        folded = tuple(map(fold_c, repeat(alg), rec))
    return alg(_new_node(n.sig, n.ctor, folded, n.payload))


# ---------------------------------------------------------------------------
# Mendler algebras


class Handle:
    """An opaque recursive position.

    Exposes no observers; the only legal consumption is passing it to the
    ``rec`` procedure supplied to the same fold invocation.  ``mfold`` and
    the folds ``indexed`` generates build one without ``__init__``, by
    ``object.__new__`` and a store to each slot.
    """

    __slots__ = ("_value", "_brand")

    def __init__(self, value, brand):
        self._value = value
        self._brand = brand


_FOREIGN_HANDLE = "handle consumed outside the fold that issued it"
_new_object, _node_twin = object.__new__, _TWINS[Node]  # what ``mfold`` builds handles and nodes from


def open_handle(h, brand):
    """The value of a handle issued under ``brand``; every Mendler step opens handles as this does."""
    if not isinstance(h, Handle) or h._brand is not brand:
        raise ForeignHandleError(_FOREIGN_HANDLE)
    return h._value


def _leaf_rec(h):
    """The ``rec`` of a step on a node without recursive slots: it issued no handle, so each one is foreign."""
    raise ForeignHandleError(_FOREIGN_HANDLE)


def step_once(malg, node: Node, recurse):
    """Run one Mendler step on ``node`` with freshly branded handles.

    ``recurse`` is invoked on the value a handle wraps; ``mfold`` is the
    knot-tied instance, with this work inline.  Exposed so the Mendler
    computation rule is directly checkable:
    ``mfold(m, in_(n)) == step_once(m, n, lambda s: mfold(m, s))``.
    Each step with recursive slots issues a fresh brand.  The handles of two
    slots are built in a tuple display, any other number with ``map``, and
    ``rec`` runs ``open_handle``'s test inline, with its message: no
    comprehension and no extra call per level.  A node without recursive
    slots needs no handles: it is passed as it is, with the shared
    :func:`_leaf_rec`.
    """
    rec = node.rec
    if not rec:
        return malg(_leaf_rec, node)
    brand = object()
    if len(rec) == 2:
        handles = (Handle(rec[0], brand), Handle(rec[1], brand))
    else:
        handles = tuple(map(Handle, rec, repeat(brand)))
    node = _new_node(node.sig, node.ctor, handles, node.payload)

    def open_and_recurse(h):
        if not isinstance(h, Handle) or h._brand is not brand:
            raise ForeignHandleError(_FOREIGN_HANDLE)
        return recurse(h._value)

    return malg(open_and_recurse, node)


def mfold(malg, t: Term):
    """Mendler fold: the step sees subterms only as handles; one ``recurse`` serves every level.

    ``recurse`` does ``step_once``'s work itself, so a level costs it one
    frame.  A node without recursive slots is passed as it is, with the
    shared :func:`_leaf_rec`: no brand and no closure.  Any other level
    issues a fresh brand, builds its handles by ``object.__new__`` and two
    slot stores (no ``Handle.__init__`` frame), fills the handle node in
    place as :func:`fill_src` fills one, and makes a ``rec`` with
    ``step_once``'s test and message.
    """

    def recurse(s):
        node = s.root
        rec = node.rec
        if not rec:
            return malg(_leaf_rec, node)
        brand = object()
        if len(rec) == 2:
            h0 = _new_object(Handle)
            h0._value = rec[0]
            h0._brand = brand
            h1 = _new_object(Handle)
            h1._value = rec[1]
            h1._brand = brand
            handles = (h0, h1)
        else:
            handles = []
            for value in rec:
                h = _new_object(Handle)
                h._value = value
                h._brand = brand
                handles.append(h)
            handles = tuple(handles)
        n = node
        node = _node_twin()
        node.sig = n.sig
        node.ctor = n.ctor
        node.rec = handles
        node.payload = n.payload
        node.__class__ = Node

        def open_and_recurse(h):
            if not isinstance(h, Handle) or h._brand is not brand:
                raise ForeignHandleError(_FOREIGN_HANDLE)
            return recurse(h._value)

        return malg(open_and_recurse, node)

    return recurse(t)


class SortedAlgebra(NamedTuple):
    """A many-sorted Mendler algebra: ``steps[k - 1]`` is ``(rec_1, ..., rec_N, node) -> C_k``.

    ``indexed.hfold`` folds a many-family derivation by one: there family k's
    step is ``(rec_1, ..., rec_N, w, node) -> D_k(w)``.
    """

    steps: tuple


def step_once_by_sort(malg, node: Node, recurses):
    """One Mendler step with a fresh brand per sort: ``rec_j`` opens sort-j handles for ``recurses[j - 1]``."""
    plan = node.sig._plans[node.ctor]
    brands = [object() for _ in recurses]
    if node.rec:
        handles = tuple([Handle(v, brands[s - 1]) for v, s in zip(node.rec, plan.rec_sorts)])
        node = Node(node.sig, node.ctor, handles, node.payload)
    recs = [lambda h, b=b, r=r: r(open_handle(h, b)) for b, r in zip(brands, recurses)]
    return malg.steps[plan.sort - 1](*recs, node)


def mfold_by_sort(malg, t: Term):
    def recurse(s):
        return step_once_by_sort(malg, s.root, recurses)

    recurses = (recurse,) * len(malg.steps)
    return recurse(t)


def lift(alg):
    """The canonical Mendler algebra of a conventional one.

    ``mfold(lift(alg), t) == fold_c(alg, t)`` for every term.  Of an
    algebra that ``case`` returned, it is the Mendler step generated once
    from the table (see :func:`_case_fold`), which builds the summand's
    node from ``rec`` over the handles.
    """
    entry = getattr(alg, "_case", None)
    if entry is not None and entry.copair is alg:
        return entry.lifted

    def step(rec, node):
        """``alg(fmap(rec, node))``, with ``fmap`` inline: a level costs it no frame."""
        if node.rec:
            node = _new_node(node.sig, node.ctor, tuple(map(rec, node.rec)), node.payload)
        return alg(node)

    return step


def pre_in(m: Callable[[Any], Term], n: Node) -> Term:
    """``in_`` precomposed with mapping carrier values to terms."""
    return in_(fmap(m, n))


@dataclass(frozen=True)
class UniquenessVerdict:
    ok: bool
    kind: str  # "ok" | "hypothesis-violation" | "uniqueness-violation"
    witness: Any = None

    def __bool__(self):
        return self.ok


def check_uniqueness(malg, h, samples) -> UniquenessVerdict:
    """Sample-level rendering of fold uniqueness.

    First verifies the hypothesis ``h(in_(n)) == step(h, n)`` at each
    sample's root; a failure there is a hypothesis violation, not a
    uniqueness violation.  Then checks ``h == mfold(malg, .)`` on the
    samples.  Carriers must support structural equality.
    """
    samples = list(samples)
    values = []  # h of each sample, computed once for both passes
    for t in samples:
        got = h(t)
        if not values and type(got).__eq__ is object.__eq__:
            raise UnsupportedCarrierError(f"carrier {type(got).__name__} has no structural equality")
        values.append(got)
        node = out_(t)
        lhs = h(in_(node))
        rhs = step_once(malg, node, h)
        if lhs != rhs:
            return UniquenessVerdict(False, "hypothesis-violation", (t, lhs, rhs))
    for t, got in zip(samples, values):
        if got != mfold(malg, t):
            return UniquenessVerdict(False, "uniqueness-violation", t)
    return UniquenessVerdict(True, "ok")


# ---------------------------------------------------------------------------
# coproducts

_LEFT = "inl:"
_RIGHT = "inr:"


class CoproductSignature(Signature):
    """Tagged union of two one-sort signatures' constructor sets.

    Constructors keep their slot structure and are tagged with the summand
    they came from, so injections are injective and disjoint even when the
    summands share constructor names.  The tags are computed once, into a
    table per summand and one from a tagged name back to its side (0 for
    left, 1 for right) and untagged name.
    """

    def __init__(self, left: Signature, right: Signature):
        for summand in (left, right):
            if len(summand.sorts) != 1:
                raise ValueError(
                    f"coproduct summand {summand.name} has {len(summand.sorts)} sorts; "
                    "only one-sort signatures can be summands"
                )
        ctors, tags, self._untag = {}, ({}, {}), {}
        for side, prefix, summand in ((0, _LEFT, left), (1, _RIGHT, right)):
            for name, kinds in summand.ctors.items():
                ctors[prefix + name] = kinds
                tags[side][name] = prefix + name
                self._untag[prefix + name] = (side, name)
        super().__init__(f"({left.name}+{right.name})", ctors)
        self._left_tags, self._right_tags = tags
        self.left = left
        self.right = right

    def _payload_site(self, ctor):
        side, name = self._untag[ctor]
        return (self.left, self.right)[side], name


def coproduct(left: Signature, right: Signature) -> CoproductSignature:
    return CoproductSignature(left, right)


_UNTAGGED = (None, None)


def inject_left(csig: CoproductSignature, n: Node) -> Node:
    ctor = csig._left_tags.get(n.ctor) if n.sig is csig.left else None
    if ctor is None:
        raise MalformedNodeError(f"{n.ctor!r} does not belong to the left summand")
    return Node(csig, ctor, n.rec, n.payload)


def inject_right(csig: CoproductSignature, n: Node) -> Node:
    ctor = csig._right_tags.get(n.ctor) if n.sig is csig.right else None
    if ctor is None:
        raise MalformedNodeError(f"{n.ctor!r} does not belong to the right summand")
    return Node(csig, ctor, n.rec, n.payload)


def project_left(csig: CoproductSignature, n: Node) -> Optional[Node]:
    if n.sig is csig:
        side, ctor = csig._untag.get(n.ctor, _UNTAGGED)
        if side == 0:
            return Node(csig.left, ctor, n.rec, n.payload)
    return None


def project_right(csig: CoproductSignature, n: Node) -> Optional[Node]:
    if n.sig is csig:
        side, ctor = csig._untag.get(n.ctor, _UNTAGGED)
        if side == 1:
            return Node(csig.right, ctor, n.rec, n.payload)
    return None


def _not_a_coproduct_node(csig: CoproductSignature, n: Node) -> MalformedNodeError:
    return MalformedNodeError(f"{n.ctor!r} is not a coproduct node of {csig.name}")


def project(csig: CoproductSignature, n: Node) -> tuple[str, Node]:
    """Total projection: every coproduct node is a left or a right node."""
    inner = project_left(csig, n)
    if inner is not None:
        return ("left", inner)
    inner = project_right(csig, n)
    if inner is not None:
        return ("right", inner)
    raise _not_a_coproduct_node(csig, n)


def case(csig: CoproductSignature, left_alg: Callable[[Node], Any], right_alg: Callable[[Node], Any]):
    """The copairing ``[left_alg, right_alg]``: an algebra over ``csig`` from one per summand.

    A node of ``csig`` is handed, as its summand's node, to that summand's
    algebra; it equals ``left_alg(project_left(csig, n))`` on a left node
    and ``right_alg(project_right(csig, n))`` on a right one.  The table
    from tagged constructor to summand, untagged name and algebra is built
    here, once, so each node costs one lookup and one summand node.  A
    node that is not of ``csig`` raises ``project``'s error; a ``csig``
    that is no coproduct raises ``TypeError``.

    The copair carries a :class:`_CaseTable` as ``_case``, for ``fold_c``
    and ``lift`` to read: the table, and the fold and Mendler step
    generated from it on first use.  It names the copair, so a wrapper
    that copied the copair's ``__dict__`` (as ``functools.wraps`` does) is
    not taken for it: like any other algebra, it is called on every node.
    """
    if not isinstance(csig, CoproductSignature):
        raise TypeError(f"case needs a coproduct signature, not {csig!r}")
    table = {
        tagged: ((csig.left, csig.right)[side], ctor, (left_alg, right_alg)[side])
        for tagged, (side, ctor) in csig._untag.items()
    }

    def copair(n: Node):
        entry = table.get(n.ctor) if n.sig is csig else None
        if entry is None:
            raise _not_a_coproduct_node(csig, n)
        sig, ctor, alg = entry
        return alg(_new_node(sig, ctor, n.rec, n.payload))

    copair._case = _CaseTable(copair, csig, table)
    return copair


class _CaseTable:
    """What ``case`` attaches to its copair: ``fold`` is ``fold_c(copair, .)``, ``lifted`` is ``lift(copair)``.

    Each is generated from the table on first use and kept, as a rule's
    ``build`` is: importing a ``case`` algebra generates nothing, and every
    later fold reuses what the first one generated.
    """

    def __init__(self, copair, csig: CoproductSignature, table: dict):
        self.copair, self.csig, self.table = copair, csig, table

    @cached_property
    def fold(self):
        return _case_fold(self, mendler=False)

    @cached_property
    def lifted(self):
        return _case_fold(self, mendler=True)


def _case_fold(entry: _CaseTable, mendler: bool):
    """Generate ``fold_c(copair, .)``, or with ``mendler`` the Mendler step ``lift(copair)``.

    One branch per tagged constructor of the table hands a node of
    ``csig`` whose ``rec`` has the constructor's arity to that summand's
    algebra, as the summand's node filled inline (see :func:`fill_src`)
    with a tuple display of the folded children (of ``rec`` over the
    handles, under ``mendler``): one node per level, no frame to build
    it and no comprehension.  Any other node (a foreign one,
    an unknown tag, a hand-built node with too few or too many children)
    is folded as any algebra's is: its children first, then ``copair`` on
    the ``fmap`` image, which raises ``case``'s error or the summand
    algebra's own.
    """
    child = "rec" if mendler else "fold"
    src = ["def lifted(rec, n):" if mendler else "def fold(t):\n    n = t.root"]
    src += ["    slots = n.rec", "    if n.sig is _csig:", "        ctor = n.ctor"]
    env = dict(__name__=__name__, _csig=entry.csig, _copair=entry.copair, _fmap=fmap)
    for k, (tagged, (sig, ctor, alg)) in enumerate(entry.table.items()):
        arity = len(entry.csig._plans[tagged].rec_sorts)
        children = _tuple_src(f"{child}(slots[{i}])" for i in range(arity))
        src += [
            f"        {'elif' if k else 'if'} ctor == {tagged!r}:",
            f"            if {f'len(slots) == {arity}' if arity else 'not slots'}:",
            *fill_src(Node, "m", [f"_sig{k}", f"_ctor{k}", children, "n.payload"], env, "                "),
            f"                return _alg{k}(m)",
        ]
        env.update({f"_alg{k}": alg, f"_sig{k}": sig, f"_ctor{k}": ctor})
    src.append(f"    return _copair(_fmap({child}, n))")
    return run_generated("\n".join(src) + "\n", env)["lifted" if mendler else "fold"]


# ---------------------------------------------------------------------------
# fold-carrying representation
#
# A term as "whatever can run any Mendler algebra".  Isomorphic to the tree
# representation via reflect/reify; the in/out/fold interface is replayed on
# top of `run`.


class FoldTerm:
    __slots__ = ("_run",)

    def __init__(self, run):
        self._run = run

    def run(self, malg):
        return self._run(malg)


def reflect(t: Term) -> FoldTerm:
    return FoldTerm(lambda malg: mfold(malg, t))


def reify(ft: FoldTerm) -> Term:
    return ft.run(lambda rec, node: in_(fmap(rec, node)))


def ft_fold(malg, ft: FoldTerm):
    return ft.run(malg)


def ft_in(n: Node) -> FoldTerm:
    """Wrap a node whose recursive slots are fold-carrying terms."""
    for child in n.rec:
        if not isinstance(child, FoldTerm):
            raise MalformedNodeError(f"{n.ctor}: recursive slot is not a FoldTerm")
    return FoldTerm(lambda malg: step_once(malg, n, lambda ft: ft.run(malg)))


def ft_out(ft: FoldTerm) -> Node:
    """One-layer unfolding; children are re-wrapped fold-carrying terms."""
    return ft.run(lambda rec, node: fmap(lambda h: ft_in(rec(h)), node))


# ---------------------------------------------------------------------------
# canonical JSON


def term_to_json(t: Term) -> dict:
    return _node_to_json(t.root)


def _node_to_json(n: Node) -> dict:
    """A many-sorted term's ``component``, ``ctor``, the children under each recursive kind, ``payload``."""
    sig, plan = n.sig, n.sig._plans[n.ctor]
    js = dict(plan.head, ctor=n.ctor)
    for k, kind in enumerate(sig.rec_kinds, 1):
        js[kind] = [_node_to_json(c.root) for c, s in zip(n.rec, plan.rec_sorts) if s == k]
    js["payload"] = [payload_kind(k).encode(v) for (_, k), v in zip(sig._splits[n.ctor][2], n.payload)]
    return js


def term_from_json(sig: Signature, obj: dict) -> Term:
    """The inverse of ``term_to_json``.

    A node that is not a JSON object naming a constructor, or whose
    children or payloads are not lists of the constructor's counts, is
    malformed.
    """
    if not isinstance(obj, dict):
        raise MalformedNodeError(f"{sig.name}: a node is a JSON object, not {obj!r}")
    ctor = obj.get("ctor")
    plan = sig._plans.get(ctor) if isinstance(ctor, str) else None
    if plan is None:
        raise MalformedNodeError(f"{sig.name} has no constructor {ctor!r}")
    for key, value in plan.head:
        if obj.get(key) != value:
            raise MalformedNodeError(f"{sig.name}.{ctor} builds {key} {value}, not {obj.get(key)!r}")
    counts = [(kind, plan.rec_sorts.count(k)) for k, kind in enumerate(sig.rec_kinds, 1)]
    for key, n in counts + [("payload", len(sig._splits[ctor][2]))]:
        value = obj.get(key)
        if not isinstance(value, list):
            raise MalformedNodeError(f"{sig.name}.{ctor} expects a list of {n} {key} slots, not {value!r}")
        if len(value) != n:
            raise MalformedNodeError(f"{sig.name}.{ctor} expects {n} {key} slots, got {len(value)}")
    rec = {kind: iter(term_from_json(sig, c) for c in obj[kind]) for kind in sig.rec_kinds}
    payload = iter(obj["payload"])
    slots = [next(rec[k]) if k in rec else payload_kind(k).decode(next(payload)) for k in plan.kinds]
    return in_(Signature.node(sig, ctor, slots))


def signature_to_json(sig: Signature) -> dict:
    """A one-sort signature lists its constructors; a many-sorted one lists them per component."""
    tables = [[{"name": name, "slots": list(kinds)} for name, kinds in table.items()] for table in sig.sorts]
    if len(tables) == 1:
        return {"signature": sig.name, "constructors": tables[0]}
    return {"signature": sig.name, "components": tables}
