"""Inductively defined relations as first-class derivation trees.

An :class:`IndexedSignature` lists inference rules over a judgment index
type K.  Each rule declares parameters, recursive premises (index
expressions over the parameters), decidable side conditions, and a
conclusion index expression.  A :class:`Derivation` is the fixpoint: a
finite tree of rule instances, self-validating in the sense that ``din``
rejects any node whose side conditions fail or whose indices disagree.

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
from typing import Any, Callable, Iterable, Mapping

from .kernel import ForeignHandleError, Handle


class InvalidDerivationError(Exception):
    pass


class WrongIndexError(Exception):
    pass


@dataclass(frozen=True)
class Rule:
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


def rule(name, params=(), premises=(), side=(), conclusion=None):
    if conclusion is None:
        raise ValueError(f"rule {name!r} needs a conclusion expression")
    return Rule(name, tuple(params), tuple(premises), tuple(side), conclusion)


class IndexedSignature:
    """Rule names must be unique; compares by identity."""

    def __init__(self, name: str, rules: Iterable[Rule]):
        self.name = name
        self.rules: dict[str, Rule] = {}
        for r in rules:
            if r.name in self.rules:
                raise ValueError(f"duplicate rule {r.name!r} in {name}")
            self.rules[r.name] = r

    def dnode(self, rule_name: str, params: Mapping[str, Any], witnesses=()) -> "DNode":
        """Instantiate a rule; premise and conclusion indices are computed."""
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
        prem = tuple((ix(env), w) for ix, w in zip(r.premises, witnesses))
        node = DNode(
            self,
            rule_name,
            tuple((p, params[p]) for p in r.params),
            prem,
            r.conclusion(env),
        )
        object.__setattr__(node, "_rule", r)
        return node

    def __repr__(self):
        return f"<IndexedSignature {self.name}>"


@dataclass(frozen=True, slots=True)
class DNode:
    """A rule instance: premises pair a judgment index with a witness."""

    sig: IndexedSignature
    rule: str
    params: tuple[tuple[str, Any], ...]
    premises: tuple[tuple[Any, Any], ...]
    conclusion: Any
    # the Rule whose expressions computed the indices; set by ``dnode`` only
    _rule: Rule | None = field(default=None, init=False, compare=False, repr=False)

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def param(self, name: str):
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)


@dataclass(frozen=True, slots=True)
class Derivation:
    sig: IndexedSignature
    root: DNode
    # every rule instance in the tree passed ``din``; set by ``din`` only
    _certified: bool = field(default=False, init=False, compare=False, repr=False)


def ifmap(f: Callable[[Any, Any], Any], n: DNode) -> DNode:
    """Map witnesses index-correctly; rule, parameters and indices unchanged."""
    return DNode(
        n.sig,
        n.rule,
        n.params,
        tuple((w, f(w, a)) for w, a in n.premises),
        n.conclusion,
    )


def _check_node(n: DNode, path: tuple[int, ...]):
    """Local validity: schema, side conditions, recomputed indices, child links.

    A node stamped by ``dnode`` with the signature's current rule has its
    schema and indices right by construction; only its side conditions and
    child links are checked.
    """
    r = n.sig.rules.get(n.rule)
    if r is None:
        return path, f"unknown rule {n.rule!r}"
    stamped = n._rule is r
    if not stamped and tuple(k for k, _ in n.params) != r.params:
        return path, f"rule {n.rule}: parameter schema mismatch"
    env = n.params_dict()
    for label, pred in r.side_conditions:
        if not pred(env):
            return path, f"rule {n.rule}: side condition {label!r} failed"
    if not stamped:
        if len(n.premises) != len(r.premises):
            return path, f"rule {n.rule}: wrong number of premises"
        for i, (ix, (stored, _)) in enumerate(zip(r.premises, n.premises)):
            if ix(env) != stored:
                return path, f"rule {n.rule}: premise {i} index mismatch"
        if r.conclusion(env) != n.conclusion:
            return path, f"rule {n.rule}: conclusion index mismatch"
    for i, (stored, w) in enumerate(n.premises):
        if not isinstance(w, Derivation) or w.sig is not n.sig:
            return path, f"rule {n.rule}: premise {i} witness is not a derivation"
        if w.root.conclusion != stored:
            return (
                path,
                f"rule {n.rule}: premise {i} expects conclusion {stored!r}, "
                f"child concludes {w.root.conclusion!r}",
            )
    return None


def din(n: DNode) -> Derivation:
    """Validating constructor: ``dout(din(n)) == n``.

    Raises :class:`InvalidDerivationError` naming the failing rule and
    indices if the node's invariants do not hold.  The result is certified
    when every premise witness is.
    """
    failure = _check_node(n, ())
    if failure is not None:
        raise InvalidDerivationError(failure[1])
    d = Derivation(n.sig, n)
    if all(w._certified for _, w in n.premises):
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
    if d._certified:
        return Validity(True)
    stack = [(d.root, ())]
    while stack:
        node, path = stack.pop()
        failure = _check_node(node, path)
        if failure is not None:
            return Validity(False, failure[0], failure[1])
        for i, (_, w) in reversed(list(enumerate(node.premises))):
            if not w._certified:
                stack.append((w.root, path + (i,)))
    return Validity(True)


def istep_once(malg, w, node: DNode, recurse):
    """One indexed Mendler step with freshly branded premise handles."""
    brand = object()
    wrapped = DNode(
        node.sig,
        node.rule,
        node.params,
        tuple((ix, Handle(wit, brand)) for ix, wit in node.premises),
        node.conclusion,
    )

    def rec(wi, h):
        if not isinstance(h, Handle) or h._brand is not brand:
            raise ForeignHandleError("handle consumed outside the fold that issued it")
        child = h._value
        if child.root.conclusion != wi:
            raise WrongIndexError(
                f"recursive call at {wi!r} on a derivation concluding "
                f"{child.root.conclusion!r}"
            )
        return recurse(wi, child)

    return malg(rec, w, wrapped)


def ifold(malg, w, d: Derivation):
    """Indexed Mendler fold of ``d``, which must conclude at ``w``."""
    if d.root.conclusion != w:
        raise WrongIndexError(f"derivation concludes {d.root.conclusion!r}, not {w!r}")
    return istep_once(malg, w, d.root, lambda wi, di: ifold(malg, wi, di))


def derivation_to_json(d: Derivation, encode=lambda v: v) -> dict:
    n = d.root
    return {
        "rule": n.rule,
        "index": encode(n.conclusion),
        "params": {k: encode(v) for k, v in n.params},
        "premises": [derivation_to_json(w, encode) for _, w in n.premises],
    }
