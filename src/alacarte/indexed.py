"""Inductively defined relations as first-class derivation trees.

An :class:`IndexedSignature` lists inference rules over a judgment index
type K.  Each rule declares parameters, recursive premises (index
expressions over the parameters), decidable side conditions, and a
conclusion index expression.  A :class:`Derivation` is the fixpoint: a
finite tree of rule instances, self-validating in the sense that ``din``
rejects any node whose side conditions fail or whose indices disagree.

This is the one relation core: a single relation is family 1 of 1, and
:class:`alacarte.mutual.IndexedBiSignature` is the two-family case of the
same rule table, ``dnode`` preamble, checker, validator and JSON walker.

Each rule instance is checked once.  ``IndexedSignature.dnode`` stamps the
node with the :class:`Rule` whose expressions computed its indices, so
``din`` recomputes no index of a stamped node: it runs the side conditions
and the child links only.  ``din`` certifies the derivation it returns when
every premise witness is certified too, and ``validate`` stops at certified
derivations.  Stamp and certificate are invisible to equality, hashing,
``repr`` and the constructors, so a hand-built :class:`DNode` or
:class:`Derivation` is always checked in full.  This relies on rule
expressions being pure: a rule monkeypatched after a derivation was built
is not re-observed on that derivation.

``ifold`` is the indexed Mendler fold: the step procedure receives premise
witnesses as opaque handles and may consume them only through the supplied
``rec`` procedure, which also enforces index coherence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping

from .kernel import ForeignHandleError, Handle, open_handle, value_class  # noqa: F401 (raised by ``rec``)


class InvalidDerivationError(Exception):
    pass


class WrongIndexError(Exception):
    pass


class _Schema:
    """What :class:`Rule` and ``mutual.BiRule`` derive from their fields, once per rule."""

    __slots__ = ()

    @cached_property
    def param_set(self) -> frozenset[str]:
        return frozenset(self.params)


@dataclass(frozen=True)
class Rule(_Schema):
    """One inference rule.

    ``premises`` and ``conclusion`` are index expressions closing over the
    declared parameters (callables on a params mapping); ``side_conditions``
    are named decidable predicates over the same mapping.
    """

    name: str
    params: tuple[str, ...]
    premises: tuple[Callable[[Mapping], Any], ...]
    side_conditions: tuple[tuple[str, Callable[[Mapping], bool]], ...]
    conclusion: Callable[[Mapping], Any]
    family = 1  # a single relation is family 1 of 1

    @cached_property
    def shape(self) -> tuple[tuple[int, Callable[[Mapping], Any]], ...]:
        """Each premise as ``(family, index expression)``, as in a ``BiRule``."""
        return tuple((1, ix) for ix in self.premises)


def rule(name, params=(), premises=(), side=(), conclusion=None):
    if conclusion is None:
        raise ValueError(f"rule {name!r} needs a conclusion expression")
    return Rule(name, tuple(params), tuple(premises), tuple(side), conclusion)


class _RuleInstance:
    """Parameter access shared by :class:`DNode` and ``mutual.BiDNode``."""

    __slots__ = ()

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def param(self, name: str):
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)


@value_class
class DNode(_RuleInstance):
    """A rule instance: premises pair a judgment index with a witness."""

    sig: IndexedSignature
    rule: str
    params: tuple[tuple[str, Any], ...]
    premises: tuple[tuple[Any, Any], ...]
    conclusion: Any
    # the Rule whose expressions computed the indices; set by ``dnode`` only
    _rule: Rule | None = field(default=None, init=False, compare=False, repr=False)
    family = 1

    @property
    def shape(self) -> tuple[tuple[int, Any, Any], ...]:
        """Each premise as ``(family, index, witness)``, as in a ``BiDNode``."""
        return tuple((1, ix, w) for ix, w in self.premises)


@value_class
class Derivation:
    sig: IndexedSignature
    root: DNode
    # every rule instance in the tree passed ``din``; set by ``din`` only
    _certified: bool = field(default=False, init=False, compare=False, repr=False)
    family = 1


class IndexedSignature:
    """Rule names must be unique; compares by identity."""

    _derivation = Derivation  # the type of a premise witness
    _witness = "a derivation"  # how the checker names a witness of family {}

    def __init__(self, name: str, rules: Iterable[Rule]):
        self.name = name
        self.rules: dict[str, Rule] = {}
        for r in rules:
            if r.name in self.rules:
                raise ValueError(f"duplicate rule {r.name!r} in {name}")
            self.rules[r.name] = r

    def dnode(self, rule_name: str, params: Mapping[str, Any], witnesses=()) -> DNode:
        """Instantiate a rule; premise and conclusion indices are computed."""
        r, env, params, witnesses = self._instantiate(rule_name, params, witnesses)
        prem = tuple([(ix(env), w) for ix, w in zip(r.premises, witnesses)])
        node = DNode(self, rule_name, params, prem, r.conclusion(env))
        object.__setattr__(node, "_rule", r)
        return node

    def _instantiate(self, rule_name, params, witnesses):
        """Rule, parameter mapping and tuple, and witnesses of a checked ``dnode`` call."""
        r = self.rules.get(rule_name)
        if r is None:
            raise InvalidDerivationError(f"{self.name} has no rule {rule_name!r}")
        if params.keys() != r.param_set:
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
        return r, env, tuple([(p, env[p]) for p in r.params]), witnesses

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


def ifmap(f: Callable[[Any, Any], Any], n: DNode) -> DNode:
    """Map witnesses index-correctly; rule, parameters and indices unchanged."""
    return DNode(
        n.sig,
        n.rule,
        n.params,
        tuple((w, f(w, a)) for w, a in n.premises),
        n.conclusion,
    )


class _Rejected(InvalidDerivationError):
    """A rule instance the checker rejects (not an error raised inside a rule)."""


def _check_node(n) -> bool:
    """Local validity: schema, side conditions, recomputed indices, child links.

    Raises :class:`InvalidDerivationError` with the reason, or returns
    whether every premise witness is certified.  A node stamped by ``dnode``
    with the signature's current rule has its family, schema and indices
    right by construction; only its side conditions and child links are
    checked.  Premises end in ``(index, witness)`` in both node layouts.
    """
    sig = n.sig
    r = sig.rules.get(n.rule)
    if r is None:
        raise _Rejected(f"unknown rule {n.rule!r}")
    stamped = n._rule is r
    if not stamped:
        if n.family != r.family:
            raise _Rejected(f"rule {n.rule}: family mismatch")
        if tuple(k for k, _ in n.params) != r.params:
            raise _Rejected(f"rule {n.rule}: parameter schema mismatch")
    env = dict(n.params)
    for label, pred in r.side_conditions:
        if not pred(env):
            raise _Rejected(f"rule {n.rule}: side condition {label!r} failed")
    if not stamped:
        if len(n.premises) != len(r.premises):
            raise _Rejected(f"rule {n.rule}: wrong number of premises")
        for i, ((fam, ix), (stored_fam, stored, _)) in enumerate(zip(r.shape, n.shape)):
            if fam != stored_fam:
                raise _Rejected(f"rule {n.rule}: premise {i} family mismatch")
            if ix(env) != stored:
                raise _Rejected(f"rule {n.rule}: premise {i} index mismatch")
        if r.conclusion(env) != n.conclusion:
            raise _Rejected(f"rule {n.rule}: conclusion index mismatch")
    certified = True
    derivation, shape = sig._derivation, r.shape
    for i, premise in enumerate(n.premises):
        stored, w, fam = premise[-2], premise[-1], shape[i][0]
        if not isinstance(w, derivation) or w.sig is not sig or w.family != fam:
            raise _Rejected(f"rule {n.rule}: premise {i} witness is not {sig._witness.format(fam)}")
        if w.root.conclusion != stored:
            raise _Rejected(
                f"rule {n.rule}: premise {i} expects conclusion {stored!r}, "
                f"child concludes {w.root.conclusion!r}"
            )
        if not w._certified:
            certified = False
    return certified


def din(n: DNode) -> Derivation:
    """Validating constructor: ``dout(din(n)) == n``.

    Raises :class:`InvalidDerivationError` naming the failing rule and
    indices if the node's invariants do not hold.  The result is certified
    when every premise witness is.
    """
    d = Derivation(n.sig, n)
    if _check_node(n):
        object.__setattr__(d, "_certified", True)
    return d


def dout(d: Derivation) -> DNode:
    return d.root


@dataclass(frozen=True)
class Validity:
    ok: bool
    path: tuple[int, ...] = ()
    reason: str | None = None

    def __bool__(self):
        return self.ok


def validate(d: Derivation) -> Validity:
    """Check every node not under a certificate; reports the first failing path."""
    return _check_tree(d)


def _check_tree(d) -> Validity:
    """The tree validator of ``validate`` and ``mutual.validate_bi``."""
    if d._certified:
        return Validity(True)
    stack = [(d.root, ())]
    while stack:
        node, path = stack.pop()
        try:
            _check_node(node)
        except _Rejected as exc:
            return Validity(False, path, str(exc))
        for i, premise in reversed(list(enumerate(node.premises))):
            w = premise[-1]
            if not w._certified:
                stack.append((w.root, path + (i,)))
    return Validity(True)


def _index_checking_rec(brand, recurse):
    """The ``rec`` of ``istep_once`` and ``hstep_once``: open, check the index, recurse."""

    def rec(wi, h):
        child = open_handle(h, brand)
        if child.root.conclusion != wi:
            raise WrongIndexError(
                f"recursive call at {wi!r} on a derivation concluding "
                f"{child.root.conclusion!r}"
            )
        return recurse(wi, child)

    return rec


def istep_once(malg, w, node: DNode, recurse):
    """One indexed Mendler step with freshly branded premise handles."""
    brand = object()
    handles = tuple([(ix, Handle(wit, brand)) for ix, wit in node.premises])
    wrapped = DNode(node.sig, node.rule, node.params, handles, node.conclusion)
    return malg(_index_checking_rec(brand, recurse), w, wrapped)


def ifold(malg, w, d: Derivation):
    """Indexed Mendler fold of ``d``, which must conclude at ``w``.

    Only the root's index is checked here; ``rec`` checks each child's.
    """
    if d.root.conclusion != w:
        raise WrongIndexError(f"derivation concludes {d.root.conclusion!r}, not {w!r}")
    recurse = lambda wi, di: istep_once(malg, wi, di.root, recurse)
    return recurse(w, d)


def derivation_to_json(d: Derivation, encode=lambda v: v) -> dict:
    return _walk_json(d, encode, None)


def _walk_json(d, encode, family) -> dict:
    """Derivation JSON; ``family`` names a node's family, or is None to omit it."""
    n = d.root
    js = {} if family is None else {"family": family(n.family)}
    js["rule"] = n.rule
    js["index"] = encode(n.conclusion)
    js["params"] = {k: encode(v) for k, v in n.params}
    js["premises"] = [_walk_json(premise[-1], encode, family) for premise in n.premises]
    return js
