"""The two-sort names of the kernel and of the relation core: no fold, step or checker of its own.

A family of mutually recursive datatypes is one many-sorted
``kernel.Signature``, and a family of mutually defined relations is one
:class:`alacarte.indexed.IndexedSignature` whose rule premises name the
family they recurse into.  This module keeps the 2-sort call shapes:
:class:`BiSignature`'s ``node`` and ``constructor`` take the component;
``bifmap``, ``bistep_once`` and ``bifold_1``/``bifold_2`` (names of one
``bifold``) call the kernel's sorted functions; ``BiMendlerAlgebra`` builds
a two-step ``kernel.SortedAlgebra``; ``hfold_1``/``hfold_2`` are
``indexed.hfold`` of family 1 and 2, as ``indexed.ifold`` is of a one-step
algebra; and the ``Bi*`` classes, ``birule``,
``hstep_once``, ``hfold`` and ``WrongComponentError`` are the kernel's and
``indexed``'s own.

``perfbench/tracer.py`` reads each function it traces from its holder's own
``__dict__`` and counts every call to that object under each binding.  So
that it counts the two-sort calls apart, these are objects of their own,
bound here, each a one-line delegation or a partial: ``in_bi`` (to
``kernel.in_``), ``biterm_to_json`` (``kernel.term_to_json``), ``din_bi``
and ``validate_bi`` (the bodies of ``indexed.din`` and
``indexed.validate``), ``bi_derivation_to_json``
(``indexed.derivation_to_json``'s walker), ``hfold_1`` and ``hfold_2``.
``IndexedBiSignature.dnode`` rebinds ``IndexedSignature.dnode`` into the
class's own ``__dict__`` for the same reason.  ``hstep_once`` is
``indexed``'s own, and a generic-path ``indexed.ifold`` steps through it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable, Mapping

from . import indexed
from .indexed import DNode, Derivation, IndexedSignature, Rule, Validity, dout
from .indexed import WrongComponentError, birule, hfold, hstep_once  # noqa: F401 (re-exported)
from .kernel import (
    MalformedNodeError,
    Node,
    Signature,
    SortedAlgebra,
    Term,
    fmap_by_sort,
    in_,
    mfold_by_sort,
    out_,
    signature_to_json,
    step_once_by_sort,
    term_to_json,
)


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


BiNode, BiTerm = Node, Term
out_bi, dout_bi, bisignature_to_json = out_, dout, signature_to_json
BiRule, BiDNode, BiDerivation = Rule, DNode, Derivation


def BiMendlerAlgebra(step1: Callable, step2: Callable) -> SortedAlgebra:
    """The two-step ``SortedAlgebra``; each step sees both ``rec`` procedures."""
    return SortedAlgebra((step1, step2))


IndexedBiMendlerAlgebra = BiMendlerAlgebra


def bifmap(f1: Callable, f2: Callable, n: Node) -> Node:
    """Slot-kind-respecting map: ``f1`` over rec1 slots, ``f2`` over rec2."""
    return fmap_by_sort((f1, f2), n)


def bistep_once(malg: SortedAlgebra, node: Node, recurse1, recurse2):
    return step_once_by_sort(malg, node, (recurse1, recurse2))


def bifold(component: int, malg: SortedAlgebra, t: Term):
    """``mfold_by_sort`` of a component-``component`` term."""
    if t.component != component:
        other = "second" if component == 1 else "first"
        raise WrongComponentError(f"bifold_{component} applied to a {other}-component term")
    return mfold_by_sort(malg, t)


bifold_1, bifold_2 = partial(bifold, 1), partial(bifold, 2)
hfold_1, hfold_2 = partial(hfold, 1), partial(hfold, 2)


class IndexedBiSignature(IndexedSignature):
    """Mutually defined relations, families 1, 2, ..., in one rule table."""

    _witness = "a family-{} derivation"
    dnode = IndexedSignature.dnode


def in_bi(n: Node) -> Term:
    return in_(n)


def biterm_to_json(t: Term) -> dict:
    return term_to_json(t)


def din_bi(n: DNode) -> Derivation:
    return indexed._din(n)


def validate_bi(d: Derivation) -> Validity:
    return indexed._check_tree(d)


def bi_derivation_to_json(d: Derivation, encode=lambda v: v, family_names=None) -> dict:
    """Derivation JSON that names each node's family, by its number if no ``family_names``."""
    return indexed._walk_json(d, encode, family_names or ())
