"""Bi-functor machinery for mutually recursive datatypes and relations.

A :class:`BiSignature` declares two constructor families over slot kinds
``rec1`` (first component), ``rec2`` (second component) and payload kinds
from the kernel registry.  :class:`BiTerm` is the paired fixpoint; each term
knows which component it inhabits.  One shared :class:`BiMendlerAlgebra`
carries both step procedures and the two folds differ only in their entry
component.

The indexed analogue (:class:`IndexedBiSignature`, :class:`BiDerivation`,
``hfold_1``/``hfold_2``) represents two mutually defined relations over
index types K1 and K2; rule premises name the family they recurse into.
It is the two-family case of :mod:`alacarte.indexed` and shares all of its
machinery; only the layouts of :class:`BiRule` and :class:`BiDNode` differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping

from .kernel import (  # noqa: F401 (ForeignHandleError: raised by ``rec``)
    ForeignHandleError,
    Handle,
    MalformedNodeError,
    _check_payloads,
    _ctor_table,
    _node_plan,
    open_handle,
    payload_kind,
    value_class,
)
from . import indexed
from .indexed import IndexedSignature, Validity, WrongIndexError, dout
from .indexed import InvalidDerivationError  # noqa: F401 (raised by ``din_bi``)

REC1 = "rec1"
REC2 = "rec2"


class WrongComponentError(Exception):
    pass


def _gather(slots: tuple, at) -> tuple:
    """The slots at positions ``at`` of a node plan; None stands for every slot."""
    if at is None:
        return slots
    return tuple([slots[i] for i in at]) if at else ()


class BiSignature:
    """Two constructor families over shared slot kinds; compares by identity."""

    def __init__(self, name, first: Mapping[str, Iterable[str]], second: Mapping[str, Iterable[str]]):
        self.name = name
        self.ctors = tuple(_ctor_table(name, decls, (REC1, REC2)) for decls in (first, second))
        self._plans = tuple(
            {ctor: _node_plan(kinds, (REC1, REC2)) for ctor, kinds in table.items()}
            for table in self.ctors
        )

    def node(self, component: int, ctor: str, slots: Iterable[Any] = ()) -> "BiNode":
        plan = self._plans[component - 1].get(ctor)
        if plan is None:
            raise MalformedNodeError(
                f"{self.name} component {component} has no constructor {ctor!r}"
            )
        if slots.__class__ is not tuple:
            slots = tuple(slots)
        arity, rec1_at, rec2_at, payload_at = plan
        if len(slots) != arity:
            raise MalformedNodeError(f"{self.name}.{ctor} expects {arity} slots, got {len(slots)}")
        if payload_at:
            _check_payloads(self.name, ctor, slots, payload_at)
            payload = slots if len(payload_at) == arity else tuple([slots[i] for i, _ in payload_at])
        else:
            payload = ()
        return BiNode(self, component, ctor, _gather(slots, rec1_at), _gather(slots, rec2_at), payload)

    def __repr__(self):
        return f"<BiSignature {self.name}>"


@value_class
class BiNode:
    sig: BiSignature
    component: int
    ctor: str
    rec1: tuple
    rec2: tuple
    payload: tuple


@value_class
class BiTerm:
    sig: BiSignature
    component: int
    root: BiNode


def bifmap(f1: Callable, f2: Callable, n: BiNode) -> BiNode:
    """Slot-kind-respecting map: ``f1`` over rec1 slots, ``f2`` over rec2."""
    return BiNode(
        n.sig,
        n.component,
        n.ctor,
        tuple([f1(x) for x in n.rec1]),
        tuple([f2(x) for x in n.rec2]),
        n.payload,
    )


def in_bi(n: BiNode) -> BiTerm:
    for comp, children in ((1, n.rec1), (2, n.rec2)):
        for child in children:
            if not isinstance(child, BiTerm) or child.sig is not n.sig or child.component != comp:
                raise MalformedNodeError(
                    f"{n.sig.name}.{n.ctor}: slot {child!r} is not a component-{comp} term"
                )
    return BiTerm(n.sig, n.component, n)


def out_bi(t: BiTerm) -> BiNode:
    return t.root


@dataclass(frozen=True)
class BiMendlerAlgebra:
    """One value carrying both steps; each step sees both rec procedures."""

    step1: Callable  # (rec1, rec2, BiNode) -> C1, or (rec1, rec2, w, BiDNode) -> D1(w)
    step2: Callable  # (rec1, rec2, BiNode) -> C2, or (rec1, rec2, w, BiDNode) -> D2(w)


IndexedBiMendlerAlgebra = BiMendlerAlgebra


def bistep_once(malg: BiMendlerAlgebra, node: BiNode, recurse1, recurse2):
    b1, b2 = object(), object()
    wrapped = BiNode(
        node.sig,
        node.component,
        node.ctor,
        tuple([Handle(v, b1) for v in node.rec1]),
        tuple([Handle(v, b2) for v in node.rec2]),
        node.payload,
    )
    rec1 = lambda h: recurse1(open_handle(h, b1))
    rec2 = lambda h: recurse2(open_handle(h, b2))
    step = malg.step1 if node.component == 1 else malg.step2
    return step(rec1, rec2, wrapped)


def _bifold(component: int, malg: BiMendlerAlgebra, t: BiTerm):
    if t.component != component:
        other = "second" if component == 1 else "first"
        raise WrongComponentError(f"bifold_{component} applied to a {other}-component term")
    return bistep_once(malg, t.root, lambda s: _bifold(1, malg, s), lambda s: _bifold(2, malg, s))


def bifold_1(malg: BiMendlerAlgebra, t: BiTerm):
    return _bifold(1, malg, t)


def bifold_2(malg: BiMendlerAlgebra, t: BiTerm):
    return _bifold(2, malg, t)


# ---------------------------------------------------------------------------
# indexed bi-signatures: mutually defined relations


@dataclass(frozen=True)
class BiRule(indexed._Schema):
    """As :class:`indexed.Rule`, but premises carry the family they live in."""

    family: int
    name: str
    params: tuple[str, ...]
    premises: tuple[tuple[int, Callable[[Mapping], Any]], ...]
    side_conditions: tuple[tuple[str, Callable[[Mapping], bool]], ...]
    conclusion: Callable[[Mapping], Any]

    @cached_property
    def shape(self) -> tuple[tuple[int, Callable[[Mapping], Any]], ...]:
        return self.premises

    def _compile(self):
        return indexed._compile_rule(self, BiDNode, bi=True)


def birule(family, name, params=(), premises=(), side=(), conclusion=None):
    if conclusion is None:
        raise ValueError(f"rule {name!r} needs a conclusion expression")
    return BiRule(family, name, tuple(params), tuple(premises), tuple(side), conclusion)


@value_class
class BiDNode(indexed._RuleInstance):
    sig: IndexedBiSignature
    family: int
    rule: str
    params: tuple[tuple[str, Any], ...]
    premises: tuple[tuple[int, Any, Any], ...]  # (family, index, witness)
    conclusion: Any
    # the BiRule whose expressions computed the indices; set by ``dnode`` only
    _rule: BiRule | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def shape(self) -> tuple[tuple[int, Any, Any], ...]:
        return self.premises


@value_class
class BiDerivation:
    sig: IndexedBiSignature
    family: int
    root: BiDNode
    # every rule instance in the tree passed ``din_bi``; set by ``din_bi`` only
    _certified: bool = field(default=False, init=False, compare=False, repr=False)


class IndexedBiSignature(IndexedSignature):
    """Two mutually defined relations, families 1 and 2, in one rule table."""

    _derivation = BiDerivation
    _witness = "a family-{} derivation"

    # the one ``dnode``, bound here too so that it can be traced apart
    # (``perfbench/tracer.py`` counts it as ``mutual.dnode``)
    dnode = IndexedSignature.dnode


_certify = vars(BiDerivation)["_certified"].__set__


def din_bi(n: BiDNode) -> BiDerivation:
    """Validating constructor; certified when every premise witness is."""
    d = BiDerivation(n.sig, n.family, n)
    if indexed._check_node(n):
        _certify(d, True)
    return d


dout_bi = dout


def validate_bi(d: BiDerivation) -> Validity:
    return indexed._check_tree(d)


def hstep_once(malg: IndexedBiMendlerAlgebra, w, node: BiDNode, recurse1, recurse2):
    b1, b2 = object(), object()
    handles = tuple(
        [(fam, ix, Handle(wit, b1 if fam == 1 else b2)) for fam, ix, wit in node.premises]
    )
    wrapped = BiDNode(node.sig, node.family, node.rule, node.params, handles, node.conclusion)
    step = malg.step1 if node.family == 1 else malg.step2
    rec = indexed._index_checking_rec
    return step(rec(b1, recurse1), rec(b2, recurse2), w, wrapped)


def _hfold_from(family: int, malg, w, d: BiDerivation):
    if d.family != family:
        raise WrongComponentError(f"hfold_{family} applied to a family-{3 - family} derivation")
    if d.root.conclusion != w:
        raise WrongIndexError(f"derivation concludes {d.root.conclusion!r}, not {w!r}")
    recurse = lambda wi, di: hstep_once(malg, wi, di.root, recurse, recurse)
    return recurse(w, d)


def hfold_1(malg: IndexedBiMendlerAlgebra, w, d: BiDerivation):
    return _hfold_from(1, malg, w, d)


def hfold_2(malg: IndexedBiMendlerAlgebra, w, d: BiDerivation):
    return _hfold_from(2, malg, w, d)


# ---------------------------------------------------------------------------
# JSON


def biterm_to_json(t: BiTerm) -> dict:
    return _binode_to_json(t.root)


def _binode_to_json(n: BiNode) -> dict:
    kinds = [
        k for k in n.sig.ctors[n.component - 1][n.ctor] if k not in (REC1, REC2)
    ]
    return {
        "component": n.component,
        "ctor": n.ctor,
        "rec1": [_binode_to_json(c.root) for c in n.rec1],
        "rec2": [_binode_to_json(c.root) for c in n.rec2],
        "payload": [payload_kind(k).encode(v) for k, v in zip(kinds, n.payload)],
    }


def bisignature_to_json(sig: BiSignature) -> dict:
    return {
        "signature": sig.name,
        "components": [
            [{"name": name, "slots": list(kinds)} for name, kinds in table.items()]
            for table in sig.ctors
        ],
    }


def bi_derivation_to_json(d: BiDerivation, encode=lambda v: v, family_names=None) -> dict:
    if family_names is None:
        return indexed._walk_json(d, encode, lambda fam: fam)
    return indexed._walk_json(d, encode, lambda fam: family_names[fam - 1])
