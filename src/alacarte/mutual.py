"""Bi-functor machinery for mutually recursive datatypes and relations.

A :class:`BiSignature` declares two constructor families over slot kinds
``rec1`` (first component), ``rec2`` (second component) and payload kinds
from the kernel registry.  :class:`BiTerm` is the paired fixpoint; each term
knows which component it inhabits.  One shared :class:`BiMendlerAlgebra`
carries both step procedures and the two folds differ only in their entry
component.

The indexed analogue (:class:`IndexedBiSignature`, :class:`BiDerivation`,
:class:`IndexedBiMendlerAlgebra` with ``hfold_1``/``hfold_2``) represents
two mutually defined relations over index types K1 and K2; rule premises
name the family they recurse into.

As in :mod:`alacarte.indexed`, each rule instance is checked once:
``IndexedBiSignature.dnode`` stamps the node with the :class:`BiRule` it
instantiated, ``din_bi`` recomputes no index of a stamped node, and
certifies the derivation it returns when every premise witness is
certified; ``validate_bi`` stops at certified derivations.  A hand-built
:class:`BiDNode` or :class:`BiDerivation` is always checked in full.  Rule
expressions must be pure: a rule monkeypatched after a derivation was built
is not re-observed on that derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from .kernel import (
    ForeignHandleError,
    Handle,
    MalformedNodeError,
    payload_kind,
    _PAYLOAD_KINDS,
)
from .indexed import InvalidDerivationError, Validity, WrongIndexError

REC1 = "rec1"
REC2 = "rec2"


class WrongComponentError(Exception):
    pass


class BiSignature:
    """Two constructor families over shared slot kinds; compares by identity."""

    def __init__(self, name, first: Mapping[str, Iterable[str]], second: Mapping[str, Iterable[str]]):
        self.name = name
        self.ctors: tuple[dict[str, tuple[str, ...]], ...] = ({}, {})
        for component, decls in ((1, first), (2, second)):
            table = self.ctors[component - 1]
            for ctor, kinds in decls.items():
                kinds = tuple(kinds)
                for k in kinds:
                    if k not in (REC1, REC2) and k not in _PAYLOAD_KINDS:
                        raise ValueError(f"unknown slot kind {k!r} in {name}.{ctor}")
                if ctor in table:
                    raise ValueError(f"duplicate constructor {ctor!r} in {name}")
                table[ctor] = kinds

    def arity(self, component: int, ctor: str) -> tuple[str, ...]:
        return self.ctors[component - 1][ctor]

    def node(self, component: int, ctor: str, slots: Iterable[Any] = ()) -> "BiNode":
        kinds = self.ctors[component - 1].get(ctor)
        if kinds is None:
            raise MalformedNodeError(
                f"{self.name} component {component} has no constructor {ctor!r}"
            )
        slots = tuple(slots)
        if len(slots) != len(kinds):
            raise MalformedNodeError(
                f"{self.name}.{ctor} expects {len(kinds)} slots, got {len(slots)}"
            )
        rec1, rec2, payload = [], [], []
        for kind, value in zip(kinds, slots):
            if kind == REC1:
                rec1.append(value)
            elif kind == REC2:
                rec2.append(value)
            else:
                if not _PAYLOAD_KINDS[kind].check(value):
                    raise MalformedNodeError(
                        f"{self.name}.{ctor}: {value!r} is not a valid {kind!r} payload"
                    )
                payload.append(value)
        return BiNode(self, component, ctor, tuple(rec1), tuple(rec2), tuple(payload))

    def slots_of(self, node: "BiNode") -> tuple[Any, ...]:
        r1, r2, pl = iter(node.rec1), iter(node.rec2), iter(node.payload)
        out = []
        for k in self.ctors[node.component - 1][node.ctor]:
            out.append(next(r1) if k == REC1 else next(r2) if k == REC2 else next(pl))
        return tuple(out)

    def __repr__(self):
        return f"<BiSignature {self.name}>"


@dataclass(frozen=True, slots=True)
class BiNode:
    sig: BiSignature
    component: int
    ctor: str
    rec1: tuple
    rec2: tuple
    payload: tuple


@dataclass(frozen=True, slots=True)
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
        tuple(f1(x) for x in n.rec1),
        tuple(f2(x) for x in n.rec2),
        n.payload,
    )


def in_bi(n: BiNode) -> BiTerm:
    for child, comp in [(c, 1) for c in n.rec1] + [(c, 2) for c in n.rec2]:
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

    step1: Callable  # (rec1, rec2, BiNode) -> C1
    step2: Callable  # (rec1, rec2, BiNode) -> C2


def bistep_once(malg: BiMendlerAlgebra, node: BiNode, recurse1, recurse2):
    b1, b2 = object(), object()
    wrapped = BiNode(
        node.sig,
        node.component,
        node.ctor,
        tuple(Handle(v, b1) for v in node.rec1),
        tuple(Handle(v, b2) for v in node.rec2),
        node.payload,
    )

    def make_rec(brand, recurse):
        def rec(h):
            if not isinstance(h, Handle) or h._brand is not brand:
                raise ForeignHandleError(
                    "handle consumed outside the fold/component that issued it"
                )
            return recurse(h._value)

        return rec

    step = malg.step1 if node.component == 1 else malg.step2
    return step(make_rec(b1, recurse1), make_rec(b2, recurse2), wrapped)


def _bifold(malg: BiMendlerAlgebra, t: BiTerm):
    return bistep_once(
        malg, t.root, lambda s: _bifold(malg, s), lambda s: _bifold(malg, s)
    )


def bifold_1(malg: BiMendlerAlgebra, t: BiTerm):
    if t.component != 1:
        raise WrongComponentError("bifold_1 applied to a second-component term")
    return _bifold(malg, t)


def bifold_2(malg: BiMendlerAlgebra, t: BiTerm):
    if t.component != 2:
        raise WrongComponentError("bifold_2 applied to a first-component term")
    return _bifold(malg, t)


# ---------------------------------------------------------------------------
# indexed bi-signatures: mutually defined relations


@dataclass(frozen=True)
class BiRule:
    """As :class:`indexed.Rule`, but premises carry the family they live in."""

    family: int
    name: str
    params: tuple[str, ...]
    premises: tuple[tuple[int, Callable[[Mapping], Any]], ...]
    side_conditions: tuple[tuple[str, Callable[[Mapping], bool]], ...]
    conclusion: Callable[[Mapping], Any]


def birule(family, name, params=(), premises=(), side=(), conclusion=None):
    if conclusion is None:
        raise ValueError(f"rule {name!r} needs a conclusion expression")
    return BiRule(family, name, tuple(params), tuple(premises), tuple(side), conclusion)


class IndexedBiSignature:
    def __init__(self, name, rules: Iterable[BiRule]):
        self.name = name
        self.rules: dict[str, BiRule] = {}
        for r in rules:
            if r.name in self.rules:
                raise ValueError(f"duplicate rule {r.name!r} in {name}")
            self.rules[r.name] = r

    def dnode(self, rule_name, params: Mapping[str, Any], witnesses=()) -> "BiDNode":
        r = self.rules.get(rule_name)
        if r is None:
            raise InvalidDerivationError(f"{self.name} has no rule {rule_name!r}")
        if set(params) != set(r.params):
            raise InvalidDerivationError(
                f"{self.name}.{rule_name}: params {sorted(params)} do not match "
                f"schema {sorted(r.params)}"
            )
        witnesses = tuple(witnesses)
        if len(witnesses) != len(r.premises):
            raise InvalidDerivationError(
                f"{self.name}.{rule_name}: expected {len(r.premises)} premise "
                f"witnesses, got {len(witnesses)}"
            )
        env = dict(params)
        prem = tuple(
            (fam, ix(env), w) for (fam, ix), w in zip(r.premises, witnesses)
        )
        node = BiDNode(
            self,
            r.family,
            rule_name,
            tuple((p, params[p]) for p in r.params),
            prem,
            r.conclusion(env),
        )
        object.__setattr__(node, "_rule", r)
        return node

    def __repr__(self):
        return f"<IndexedBiSignature {self.name}>"


@dataclass(frozen=True, slots=True)
class BiDNode:
    sig: IndexedBiSignature
    family: int
    rule: str
    params: tuple[tuple[str, Any], ...]
    premises: tuple[tuple[int, Any, Any], ...]  # (family, index, witness)
    conclusion: Any
    # the BiRule whose expressions computed the indices; set by ``dnode`` only
    _rule: BiRule | None = field(default=None, init=False, compare=False, repr=False)

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def param(self, name: str):
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)


@dataclass(frozen=True, slots=True)
class BiDerivation:
    sig: IndexedBiSignature
    family: int
    root: BiDNode
    # every rule instance in the tree passed ``din_bi``; set by ``din_bi`` only
    _certified: bool = field(default=False, init=False, compare=False, repr=False)


def _check_binode(n: BiDNode, path):
    """As ``indexed._check_node``: a stamped node skips schema and indices."""
    r = n.sig.rules.get(n.rule)
    if r is None:
        return path, f"unknown rule {n.rule!r}"
    stamped = n._rule is r
    if not stamped:
        if n.family != r.family:
            return path, f"rule {n.rule}: family mismatch"
        if tuple(k for k, _ in n.params) != r.params:
            return path, f"rule {n.rule}: parameter schema mismatch"
    env = n.params_dict()
    for label, pred in r.side_conditions:
        if not pred(env):
            return path, f"rule {n.rule}: side condition {label!r} failed"
    if not stamped:
        if len(n.premises) != len(r.premises):
            return path, f"rule {n.rule}: wrong number of premises"
        for i, ((fam, ix), (sfam, stored, _)) in enumerate(zip(r.premises, n.premises)):
            if fam != sfam:
                return path, f"rule {n.rule}: premise {i} family mismatch"
            if ix(env) != stored:
                return path, f"rule {n.rule}: premise {i} index mismatch"
        if r.conclusion(env) != n.conclusion:
            return path, f"rule {n.rule}: conclusion index mismatch"
    for i, (fam, stored, w) in enumerate(n.premises):
        if not isinstance(w, BiDerivation) or w.sig is not n.sig or w.family != fam:
            return path, f"rule {n.rule}: premise {i} witness is not a family-{fam} derivation"
        if w.root.conclusion != stored:
            return (
                path,
                f"rule {n.rule}: premise {i} expects conclusion {stored!r}, "
                f"child concludes {w.root.conclusion!r}",
            )
    return None


def din_bi(n: BiDNode) -> BiDerivation:
    """Validating constructor; certified when every premise witness is."""
    failure = _check_binode(n, ())
    if failure is not None:
        raise InvalidDerivationError(failure[1])
    d = BiDerivation(n.sig, n.family, n)
    if all(w._certified for _, _, w in n.premises):
        object.__setattr__(d, "_certified", True)
    return d


def dout_bi(d: BiDerivation) -> BiDNode:
    return d.root


def validate_bi(d: BiDerivation) -> Validity:
    if d._certified:
        return Validity(True)
    stack = [(d.root, ())]
    while stack:
        node, path = stack.pop()
        failure = _check_binode(node, path)
        if failure is not None:
            return Validity(False, failure[0], failure[1])
        for i, (_, _, w) in reversed(list(enumerate(node.premises))):
            if not w._certified:
                stack.append((w.root, path + (i,)))
    return Validity(True)


@dataclass(frozen=True)
class IndexedBiMendlerAlgebra:
    step1: Callable  # (rec1, rec2, w, BiDNode) -> D1(w)
    step2: Callable  # (rec1, rec2, w, BiDNode) -> D2(w)


def hstep_once(malg: IndexedBiMendlerAlgebra, w, node: BiDNode, recurse1, recurse2):
    b1, b2 = object(), object()
    wrapped = BiDNode(
        node.sig,
        node.family,
        node.rule,
        node.params,
        tuple(
            (fam, ix, Handle(wit, b1 if fam == 1 else b2))
            for fam, ix, wit in node.premises
        ),
        node.conclusion,
    )

    def make_rec(brand, recurse):
        def rec(wi, h):
            if not isinstance(h, Handle) or h._brand is not brand:
                raise ForeignHandleError(
                    "handle consumed outside the fold/family that issued it"
                )
            child = h._value
            if child.root.conclusion != wi:
                raise WrongIndexError(
                    f"recursive call at {wi!r} on a derivation concluding "
                    f"{child.root.conclusion!r}"
                )
            return recurse(wi, child)

        return rec

    step = malg.step1 if node.family == 1 else malg.step2
    return step(make_rec(b1, recurse1), make_rec(b2, recurse2), w, wrapped)


def _hfold(malg, w, d: BiDerivation):
    return hstep_once(
        malg,
        w,
        d.root,
        lambda wi, di: _hfold(malg, wi, di),
        lambda wi, di: _hfold(malg, wi, di),
    )


def hfold_1(malg: IndexedBiMendlerAlgebra, w, d: BiDerivation):
    if d.family != 1:
        raise WrongComponentError("hfold_1 applied to a family-2 derivation")
    if d.root.conclusion != w:
        raise WrongIndexError(f"derivation concludes {d.root.conclusion!r}, not {w!r}")
    return _hfold(malg, w, d)


def hfold_2(malg: IndexedBiMendlerAlgebra, w, d: BiDerivation):
    if d.family != 2:
        raise WrongComponentError("hfold_2 applied to a family-1 derivation")
    if d.root.conclusion != w:
        raise WrongIndexError(f"derivation concludes {d.root.conclusion!r}, not {w!r}")
    return _hfold(malg, w, d)


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
    n = d.root
    family = n.family if family_names is None else family_names[n.family - 1]
    return {
        "family": family,
        "rule": n.rule,
        "index": encode(n.conclusion),
        "params": {k: encode(v) for k, v in n.params},
        "premises": [
            bi_derivation_to_json(w, encode, family_names) for _, _, w in n.premises
        ],
    }
