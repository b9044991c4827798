"""The two-sort case of the kernel, for mutually recursive datatypes and relations.

A :class:`BiSignature` is a two-sort ``kernel.Signature`` over slot kinds
``rec1`` (first component), ``rec2`` (second component) and payload kinds
from the kernel registry; its nodes and terms are kernel ``Node``s and
``Term``s (``BiNode``, ``BiTerm``).  This module keeps the 2-sort call
shapes: ``BiSignature.node``/``constructor`` take the component, and
``bifmap``, ``in_bi``, ``bistep_once``, ``bifold_1``/``bifold_2`` and
``biterm_to_json`` wrap the kernel's sorted functions.

The indexed analogue (:class:`IndexedBiSignature`, ``hfold``) represents
mutually defined relations, one family each; rule premises name the family
they recurse into.  It is the many-family case of :mod:`alacarte.indexed`
and shares all of its machinery: ``BiRule``, ``BiDNode`` and
``BiDerivation`` are other names of the one ``indexed.Rule``, ``DNode``
and ``Derivation``, whose premises are ``(family, index, witness)``
triples, and ``birule`` is ``indexed.birule``.  ``din_bi``,
``validate_bi`` and ``IndexedBiSignature.dnode`` stay bound apart from
``din``, ``validate`` and ``IndexedSignature.dnode`` only so that
``perfbench/tracer.py`` counts the two-family calls apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping

from .kernel import (  # noqa: F401 (ForeignHandleError: raised by ``rec``)
    ForeignHandleError,
    Handle,
    MalformedNodeError,
    Node,
    Signature,
    Term,
    fmap_by_sort,
    in_,
    mfold_by_sort,
    out_,
    signature_to_json,
    step_once_by_sort,
    term_to_json,
)
from . import indexed
from .indexed import DNode, Derivation, IndexedSignature, Rule, Validity, WrongIndexError, _new_dnode, dout
from .indexed import InvalidDerivationError, birule  # noqa: F401 (raised by ``din_bi``; re-exported)


class WrongComponentError(Exception):
    pass


class BiSignature(Signature):
    """Two constructor families over shared slot kinds; ``ctors[c - 1]`` is component c's."""

    def __init__(self, name, first: Mapping[str, Iterable[str]], second: Mapping[str, Iterable[str]]):
        super().__init__(name, first, second)
        self.ctors = self.sorts

    def _check_component(self, component: int, ctor: str):
        if not 0 < component <= len(self.sorts) or ctor not in self.sorts[component - 1]:
            raise MalformedNodeError(f"{self.name} component {component} has no constructor {ctor!r}")

    def node(self, component: int, ctor: str, slots: Iterable[Any] = ()) -> Node:
        """``Signature.node`` for a constructor of the given component."""
        self._check_component(component, ctor)
        return Signature.node(self, ctor, slots)

    def constructor(self, component: int, ctor: str, name: str | None = None) -> Callable[..., Term]:
        """``Signature.constructor``: payloads, then rec1 slots, then rec2 slots are checked."""
        self._check_component(component, ctor)
        return Signature.constructor(self, ctor, name)

    def __repr__(self):
        return f"<BiSignature {self.name}>"


BiNode = Node
BiTerm = Term


def bifmap(f1: Callable, f2: Callable, n: Node) -> Node:
    """Slot-kind-respecting map: ``f1`` over rec1 slots, ``f2`` over rec2."""
    return fmap_by_sort((f1, f2), n)


# ``in_bi`` and ``biterm_to_json`` are functions of their own, not aliases, so
# that ``perfbench/tracer.py`` can count them apart from the kernel's
def in_bi(n: Node) -> Term:
    return in_(n)


out_bi = out_


@dataclass(frozen=True)
class BiMendlerAlgebra:
    """One value carrying both steps; each step sees both rec procedures."""

    step1: Callable  # (rec1, rec2, BiNode) -> C1, or (rec1, rec2, w, BiDNode) -> D1(w)
    step2: Callable  # (rec1, rec2, BiNode) -> C2, or (rec1, rec2, w, BiDNode) -> D2(w)

    @cached_property
    def steps(self) -> tuple[Callable, Callable]:
        return self.step1, self.step2


IndexedBiMendlerAlgebra = BiMendlerAlgebra


def bistep_once(malg: BiMendlerAlgebra, node: Node, recurse1, recurse2):
    return step_once_by_sort(malg, node, (recurse1, recurse2))


def _bifold(component: int, malg: BiMendlerAlgebra, t: Term):
    if t.component != component:
        other = "second" if component == 1 else "first"
        raise WrongComponentError(f"bifold_{component} applied to a {other}-component term")
    return mfold_by_sort(malg, t)


def bifold_1(malg: BiMendlerAlgebra, t: Term):
    return _bifold(1, malg, t)


def bifold_2(malg: BiMendlerAlgebra, t: Term):
    return _bifold(2, malg, t)


# ---------------------------------------------------------------------------
# indexed bi-signatures: mutually defined relations


BiRule = Rule
BiDNode = DNode
BiDerivation = Derivation


class IndexedBiSignature(IndexedSignature):
    """Mutually defined relations, families 1, 2, ..., in one rule table."""

    _witness = "a family-{} derivation"

    # the one ``dnode``, bound here too so that it can be traced apart
    # (``perfbench/tracer.py`` counts it as ``mutual.dnode``)
    dnode = IndexedSignature.dnode


def din_bi(n: BiDNode) -> Derivation:
    """``din``, as a function of its own so that ``perfbench/tracer.py`` counts it apart."""
    certified = indexed._check_node(n)
    d = Derivation(n.sig, n)
    if certified:
        indexed._certify(d, True)
    return d


dout_bi = dout


def validate_bi(d: BiDerivation) -> Validity:
    return indexed._check_tree(d)


def hstep_once(malg, w, node: BiDNode, *recurses):
    """One indexed Mendler step with a fresh brand and an index-checking ``rec`` per family.

    Family f's step is ``malg.steps[f - 1](rec_1, ..., rec_N, w, node)``.
    A node without premises is passed as it is; one with premises as a copy
    holding their handles, built in a tuple display for one premise.
    """
    brands = (object(), object()) if len(recurses) == 2 else [object() for _ in recurses]
    premises = node.premises
    if premises:
        if len(premises) == 1:
            ((fam, ix, wit),) = premises
            handles = ((fam, ix, Handle(wit, brands[fam - 1])),)
        else:
            handles = tuple([(fam, ix, Handle(wit, brands[fam - 1])) for fam, ix, wit in premises])
        node = _new_dnode(node.sig, node.family, node.rule, node.params, handles, node.conclusion)
    recs = map(indexed._index_checking_rec, brands, recurses)
    return malg.steps[node.family - 1](*recs, w, node)


def hfold(family: int, malg, w, d: BiDerivation):
    """Indexed Mendler fold of a family-``family`` derivation that concludes at ``w``."""
    if d.family != family:
        raise WrongComponentError(f"hfold_{family} applied to a family-{d.family} derivation")
    if d.root.conclusion != w:
        raise WrongIndexError(f"derivation concludes {d.root.conclusion!r}, not {w!r}")
    recurse = lambda wi, di: hstep_once(malg, wi, di.root, *recurses)
    recurses = (recurse,) * len(malg.steps)
    return recurse(w, d)


def hfold_1(malg: IndexedBiMendlerAlgebra, w, d: BiDerivation):
    return hfold(1, malg, w, d)


def hfold_2(malg: IndexedBiMendlerAlgebra, w, d: BiDerivation):
    return hfold(2, malg, w, d)


# ---------------------------------------------------------------------------
# JSON


def biterm_to_json(t: Term) -> dict:
    return term_to_json(t)


bisignature_to_json = signature_to_json


def bi_derivation_to_json(d: BiDerivation, encode=lambda v: v, family_names=None) -> dict:
    if family_names is None:
        return indexed._walk_json(d, encode, lambda fam: fam)
    return indexed._walk_json(d, encode, lambda fam: family_names[fam - 1])
