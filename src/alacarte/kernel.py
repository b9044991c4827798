"""Signature functors, coproducts, fixpoints, and folds.

A :class:`Signature` is one layer of a recursive grammar: named constructors
whose slots are either recursive positions or payloads drawn from a closed
registry of payload kinds.  :class:`Term` is the recursive closure of a
signature, a materialized immutable tree with an ``in_``/``out_`` bijection.

Two algebra styles interpret terms:

- a conventional algebra is any callable ``Node[C] -> C``, run by ``fold_c``;
- a Mendler algebra is a callable ``(rec, Node[Handle]) -> C`` that receives
  recursive positions as opaque handles usable only through ``rec``, run by
  ``mfold``.  ``lift`` turns a conventional algebra into the canonical
  Mendler one, and ``mfold(lift(alg), t) == fold_c(alg, t)``.

``Signature.constructor(ctor)`` generates a constructor's straight-line
function of its slots, equal to ``in_(sig.node(ctor, slots))``: it checks
what ``node`` and then ``in_`` check, in their order and with their
messages, and builds the term in one call.  On a coproduct a tagged
constructor equals ``in_(inject_*(csig, summand.node(untagged, slots)))``.
``lang_l``'s term constructors (``vr``, ``scope``, ...) are such functions;
folds, enumerators, JSON decoding, the laws and ``arith.lit``/``add`` build
through ``node`` and ``in_``.  Generated code (these constructors, the
value classes' ``__init__`` and the compiled rules) goes through
``run_generated``, which compiles each distinct source once.

Handles are branded with a per-fold nonce; consuming a handle under a
different fold (or inspecting it at all) is a contract violation and fails
fast.  A second, fold-carrying term representation (:class:`FoldTerm`, a term
is whatever can run any Mendler algebra) lives behind the same in/out/fold
interface with ``reflect``/``reify`` conversions.

All values are immutable after construction and all operations are pure, so
everything here is safe for concurrent use without synchronization.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from typing import Any, Callable, Iterable, Mapping, Optional


class MalformedNodeError(Exception):
    pass


class ForeignHandleError(Exception):
    pass


class UnsupportedCarrierError(Exception):
    pass


# ---------------------------------------------------------------------------
# generated code

_COMPILED: dict[str, Any] = {}  # generated source -> its code object


def run_generated(src: str, env: dict) -> dict:
    """Execute generated source in ``env`` and return ``env``.

    Each distinct source is compiled once per process, so generators whose
    outputs coincide (two rules of the same shape, say) share one code
    object; every run still binds its own functions in its own ``env``.
    """
    code = _COMPILED.get(src)
    if code is None:
        code = _COMPILED[src] = compile(src, "<generated>", "exec")
    exec(code, env)
    return env


def _tuple_src(names) -> str:
    """A tuple display of the given expressions: ``()``, ``(a, )``, ``(a, b, )``."""
    return "(" + "".join(f"{n}, " for n in names) + ")"


# ---------------------------------------------------------------------------
# immutable value classes


def value_class(cls):
    """``dataclass(frozen=True, slots=True)`` with a straight-line ``__init__``.

    The dataclass ``__init__`` of a frozen class stores each field through
    ``object.__setattr__``; this one is generated once per class, as the
    dataclass's own is, and stores each field through its slot descriptor.
    It takes the same parameters and stores each ``init=False`` field's
    default, so construction behaves exactly as the dataclass's does;
    equality, hashing, ``repr``, ``replace``, copying, pickling and
    ``match`` are the dataclass's own.  ``__setattr__``/``__delattr__``
    are the dataclass's frozen ones, but refer to the class ``slots=True``
    returns: Python 3.11's refer to the class it replaced, so assigning or
    deleting a name that is not a field raised ``TypeError`` instead of
    :class:`~dataclasses.FrozenInstanceError`.  Nothing is cached across
    constructions.  A field is either a parameter without a default or an
    ``init=False`` field with a plain default.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    generated = cls.__init__
    names, stores, env = [], [], {}
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
    code = generated.__code__
    if hasattr(cls, "__post_init__") or code.co_varnames[1 : code.co_argcount] != tuple(names):
        raise TypeError(f"{cls.__name__}: a value class takes its fields as plain parameters")
    run_generated(f"def __init__(self{''.join(', ' + n for n in names)}):\n{''.join(stores) or '    pass'}\n", env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = generated.__annotations__
    cls.__init__ = init
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


def _ctor_table(name, ctors: Mapping[str, Iterable[str]], rec_kinds) -> dict[str, tuple[str, ...]]:
    """Constructor -> slot kinds, each one of ``rec_kinds`` or a registered payload kind."""
    table: dict[str, tuple[str, ...]] = {}
    for ctor, kinds in ctors.items():
        kinds = tuple(kinds)
        for k in kinds:
            if k not in rec_kinds and k not in _PAYLOAD_KINDS:
                raise ValueError(f"unknown slot kind {k!r} in {name}.{ctor}")
        if ctor in table:
            raise ValueError(f"duplicate constructor {ctor!r} in {name}")
        table[ctor] = kinds
    return table


def _node_plan(kinds: tuple[str, ...], groups: tuple[str, ...]):
    """How ``node`` splits a constructor's slots, computed once per constructor.

    The slot count; for each recursive kind in ``groups``, its positions, or
    None when it takes every slot; and the payload ``(position, kind)``
    pairs, in declaration order.
    """
    split = []
    for group in groups:
        at = tuple(i for i, k in enumerate(kinds) if k == group)
        split.append(None if len(at) == len(kinds) else at)
    payload = tuple((i, k) for i, k in enumerate(kinds) if k not in groups)
    return (len(kinds), *split, payload)


def _bad_payload(sig_name, ctor, value, kind):
    return MalformedNodeError(f"{sig_name}.{ctor}: {value!r} is not a valid {kind!r} payload")


def _not_a_term(sig_name, ctor, child):
    return MalformedNodeError(
        f"{sig_name}.{ctor}: recursive slot {child!r} is not a term of this signature"
    )


def _check_payloads(sig_name, ctor, slots, payload_at):
    """Reject the first ill-kinded payload; kinds are looked up at call time."""
    for i, kind in payload_at:
        if not _PAYLOAD_KINDS[kind].check(slots[i]):
            raise _bad_payload(sig_name, ctor, slots[i], kind)


def _generate_constructor(name, kinds, groups, site, checks, result, env):
    """A straight-line constructor over the slots ``s0, s1, ...`` from one generated source.

    Each payload slot (a kind not in ``groups``) is checked first, in
    declaration order, against its kind as registered at call time; a
    rejection names ``site``, a ``(signature, constructor)`` pair.  Then
    come the lines of ``checks``, and the function returns ``result``.
    ``env`` binds the names ``checks`` and ``result`` use.  The function
    is called ``name``; called with the wrong number of slots it raises
    Python's ``TypeError``, as a hand-written function would.
    """
    slots = [f"s{i}" for i in range(len(kinds))]
    src = [f"def constructor({', '.join(slots)}):"]
    for s, kind in zip(slots, kinds):
        if kind not in groups:
            src += [
                f"    if not _kinds[{kind!r}].check({s}):",
                f"        raise _bad_payload(_site.name, _site_ctor, {s}, {kind!r})",
            ]
    src += [*checks, f"    return {result}"]
    env.update(
        __name__=__name__, _kinds=_PAYLOAD_KINDS, _bad_payload=_bad_payload, _site=site[0], _site_ctor=site[1]
    )
    fn = run_generated("\n".join(src) + "\n", env)["constructor"]
    fn.__name__ = fn.__qualname__ = name
    return fn


class Signature:
    """A one-layer grammar shape: constructor name -> tuple of slot kinds.

    Slot kinds are ``"rec"`` or a registered payload kind.  Signatures
    compare by identity; all nodes of a term share one signature object.
    """

    def __init__(self, name: str, ctors: Mapping[str, Iterable[str]]):
        self.name = name
        self.ctors = _ctor_table(name, ctors, (REC,))
        self._plans = {ctor: _node_plan(kinds, (REC,)) for ctor, kinds in self.ctors.items()}

    def node(self, ctor: str, slots: Iterable[Any] = ()) -> "Node":
        """Build a node, validating slot counts and payload kinds.

        ``slots`` are given in declaration order; recursive and payload
        slots are split out according to the constructor's arity.
        """
        plan = self._plans.get(ctor)
        if plan is None:
            raise MalformedNodeError(f"{self.name} has no constructor {ctor!r}")
        if slots.__class__ is not tuple:
            slots = tuple(slots)
        arity, rec_at, payload_at = plan
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

        Generated once, straight-line: the payload kinds are checked in
        declaration order (looked up at call time), then each recursive
        slot, with the messages ``node`` and ``in_`` raise, and the term is
        built in one call.  On a coproduct a tagged constructor equals
        ``in_(inject_*(self, summand.node(untagged, slots)))``, so a payload
        rejection names the summand.  The function is called ``name``, by
        default the (untagged) constructor name.
        """
        kinds = self.ctors.get(ctor)
        if kinds is None:
            raise MalformedNodeError(f"{self.name} has no constructor {ctor!r}")
        site = self._payload_site(ctor)
        rec = [f"s{i}" for i, k in enumerate(kinds) if k == REC]
        payload = [f"s{i}" for i, k in enumerate(kinds) if k != REC]
        checks = []
        for s in rec:
            checks += [
                f"    if not isinstance({s}, _Term) or {s}.sig is not _sig:",
                f"        raise _not_a_term(_sig.name, _ctor, {s})",
            ]
        env = {"_sig": self, "_ctor": ctor, "_Term": Term, "_Node": Node, "_not_a_term": _not_a_term}
        result = f"_Term(_sig, _Node(_sig, _ctor, {_tuple_src(rec)}, {_tuple_src(payload)}))"
        return _generate_constructor(name or site[1], kinds, (REC,), site, checks, result, env)

    def _payload_site(self, ctor):
        """The signature and constructor that a payload rejection of ``ctor`` names."""
        return self, ctor

    def __repr__(self):
        return f"<Signature {self.name}>"


@value_class
class Node:
    """One constructor application over an arbitrary carrier.

    ``rec`` holds the values sitting in recursive slots, ``payload`` the
    payload values, each in declaration order.
    """

    sig: Signature
    ctor: str
    rec: tuple
    payload: tuple


@value_class
class Term:
    """The recursive closure of a signature: a finite immutable tree."""

    sig: Signature
    root: Node


def fmap(f: Callable[[Any], Any], n: Node) -> Node:
    """Apply ``f`` to every recursive slot; constructor and payloads unchanged."""
    return Node(n.sig, n.ctor, tuple([f(x) for x in n.rec]), n.payload)


def in_(n: Node) -> Term:
    """Wrap a node whose recursive slots are terms; inverse of ``out_``."""
    for child in n.rec:
        if not isinstance(child, Term) or child.sig is not n.sig:
            raise _not_a_term(n.sig.name, n.ctor, child)
    return Term(n.sig, n)


def out_(t: Term) -> Node:
    return t.root


def fold_c(alg: Callable[[Node], Any], t: Term):
    """Conventional fold: ``fold_c(alg, in_(n)) == alg(fmap(fold_c(alg, .), n))``.

    A node without recursive slots is its own ``fmap`` image and is passed
    to ``alg`` as it is.
    """
    n = t.root
    if not n.rec:
        return alg(n)
    return alg(Node(n.sig, n.ctor, tuple([fold_c(alg, c) for c in n.rec]), n.payload))


# ---------------------------------------------------------------------------
# Mendler algebras


class Handle:
    """An opaque recursive position.

    Exposes no observers; the only legal consumption is passing it to the
    ``rec`` procedure supplied to the same fold invocation.
    """

    __slots__ = ("_value", "_brand")

    def __init__(self, value, brand):
        self._value = value
        self._brand = brand


def open_handle(h, brand):
    """The value of a handle issued under ``brand``; every Mendler step opens handles here."""
    if not isinstance(h, Handle) or h._brand is not brand:
        raise ForeignHandleError("handle consumed outside the fold that issued it")
    return h._value


def step_once(malg, node: Node, recurse):
    """Run one Mendler step on ``node`` with freshly branded handles.

    ``recurse`` is invoked on the value a handle wraps; ``mfold`` is the
    knot-tied instance.  Exposed so the Mendler computation rule is directly
    checkable: ``mfold(m, in_(n)) == step_once(m, n, lambda s: mfold(m, s))``.
    """
    brand = object()
    if node.rec:  # a node without recursive slots needs no handles
        node = Node(node.sig, node.ctor, tuple([Handle(v, brand) for v in node.rec]), node.payload)
    return malg(lambda h: recurse(open_handle(h, brand)), node)


def mfold(malg, t: Term):
    """Mendler fold: the step sees subterms only as handles."""
    return step_once(malg, t.root, lambda s: mfold(malg, s))


def lift(alg):
    """The canonical Mendler algebra of a conventional one.

    ``mfold(lift(alg), t) == fold_c(alg, t)`` for every term.
    """
    return lambda rec, node: alg(fmap(rec, node))


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
    first = True
    for t in samples:
        got = h(t)
        if first:
            if type(got).__eq__ is object.__eq__:
                raise UnsupportedCarrierError(
                    f"carrier {type(got).__name__} has no structural equality"
                )
            first = False
        node = out_(t)
        lhs = h(in_(node))
        rhs = step_once(malg, node, h)
        if lhs != rhs:
            return UniquenessVerdict(False, "hypothesis-violation", (t, lhs, rhs))
    for t in samples:
        if h(t) != mfold(malg, t):
            return UniquenessVerdict(False, "uniqueness-violation", t)
    return UniquenessVerdict(True, "ok")


# ---------------------------------------------------------------------------
# coproducts

_LEFT = "inl:"
_RIGHT = "inr:"


class CoproductSignature(Signature):
    """Tagged union of two signatures' constructor sets.

    Constructors keep their slot structure and are tagged with the summand
    they came from, so injections are injective and disjoint even when the
    summands share constructor names.  The tags are computed once, into a
    table per summand and one from a tagged name back to its side (0 for
    left, 1 for right) and untagged name.
    """

    def __init__(self, left: Signature, right: Signature):
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


def project(csig: CoproductSignature, n: Node) -> tuple[str, Node]:
    """Total projection: every coproduct node is a left or a right node."""
    inner = project_left(csig, n)
    if inner is not None:
        return ("left", inner)
    inner = project_right(csig, n)
    if inner is not None:
        return ("right", inner)
    raise MalformedNodeError(f"{n.ctor!r} is not a coproduct node of {csig.name}")


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
    kinds = [k for k in n.sig.ctors[n.ctor] if k != REC]
    return {
        "ctor": n.ctor,
        "rec": [_node_to_json(c.root) for c in n.rec],
        "payload": [payload_kind(k).encode(v) for k, v in zip(kinds, n.payload)],
    }


def term_from_json(sig: Signature, obj: dict) -> Term:
    kinds = sig.ctors.get(obj["ctor"])
    if kinds is None:
        raise MalformedNodeError(f"{sig.name} has no constructor {obj['ctor']!r}")
    rec = iter(term_from_json(sig, c) for c in obj["rec"])
    payload = iter(obj["payload"])
    slots = [
        next(rec) if k == REC else payload_kind(k).decode(next(payload)) for k in kinds
    ]
    return in_(sig.node(obj["ctor"], slots))


def signature_to_json(sig: Signature) -> dict:
    return {
        "signature": sig.name,
        "constructors": [
            {"name": name, "slots": list(kinds)} for name, kinds in sig.ctors.items()
        ],
    }
