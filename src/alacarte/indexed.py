"""Inductively defined relations as first-class derivation trees.

An :class:`IndexedSignature` lists inference rules over a judgment index
type K.  Each rule declares parameters, recursive premises (index
expressions over the parameters), decidable side conditions, and a
conclusion index expression.  A :class:`Derivation` is the fixpoint: a
finite tree of rule instances, self-validating in the sense that ``din``
rejects any node whose side conditions fail or whose indices disagree.

This is the one relation core: a single relation is family 1 of 1, and
:class:`alacarte.mutual.IndexedBiSignature` is the many-family case of the
same rule table, ``dnode``, checker, validator and JSON walker.  There is
one :class:`Rule` class and one rule-instance layout for every family: a
rule's premises are ``(family, index expression)`` pairs, and a
:class:`DNode`'s premises are ``(family, index, witness)`` triples.
:func:`rule` is the family-1 case, whose premises all recurse into family
1.  :class:`Derivation` is the one derivation class of every family, and a
derivation's relation and family are its root node's: a premise witness and
its root are of the parent's signature, the root of the premise's family,
and ``validate`` rejects a derivation whose ``sig`` is not its root's.

Each rule instance is checked once.  ``IndexedSignature.dnode`` stamps the
node with the :class:`Rule` whose expressions computed its indices, so
``din`` recomputes no index of a stamped node: it runs the side conditions
and the child links only.  ``din`` certifies the derivation it returns when
every premise witness is certified too, and ``validate`` stops at certified
derivations.  Stamp and certificate are invisible to equality, hashing,
``repr`` and the constructors, so a hand-built :class:`DNode` or
:class:`Derivation` is always checked in full.

Each rule is compiled once, lazily, on its first ``dnode``: one generated
source gives the rule's own ``dnode`` body and its own check of the nodes it
stamped (see :func:`_compile_rule`).  Importing a signature compiles
nothing.  The compiled code calls the rule's index expressions and side
conditions; it never inlines them, so what they read is read when they run.
All of this relies on rule expressions being pure: a rule monkeypatched
after a derivation was built is not re-observed on that derivation.

``ifold`` is the indexed Mendler fold: the step procedure receives premise
witnesses as opaque handles and may consume them only through the supplied
``rec`` procedure, which also enforces index coherence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping

from .kernel import ForeignHandleError, Handle, open_handle, run_generated, value_class  # noqa: F401 (raised by ``rec``)


class InvalidDerivationError(Exception):
    pass


class WrongIndexError(Exception):
    pass


@dataclass(frozen=True)
class Rule:
    """One inference rule of the family ``family``.

    ``premises`` are ``(family, index expression)`` pairs: the family the
    premise recurses into, and its index as a callable on a params mapping
    that closes over the declared parameters.  ``side_conditions`` are
    named decidable predicates over the same mapping, and ``conclusion``
    is the conclusion's index expression.
    """

    family: int
    name: str
    params: tuple[str, ...]
    premises: tuple[tuple[int, Callable[[Mapping], Any]], ...]
    side_conditions: tuple[tuple[str, Callable[[Mapping], bool]], ...]
    conclusion: Callable[[Mapping], Any]

    @cached_property
    def build(self) -> Callable:
        """``dnode`` after the rule lookup: ``build(sig, rule_name, params, witnesses)``.

        Compiled on first use, so importing a signature compiles nothing,
        together with ``check``, the ``_check_node`` of the nodes ``build``
        stamps (see :func:`_compile_rule`).
        """
        build, vars(self)["check"] = _compile_rule(self)
        return build

    def __getstate__(self):
        """A copy leaves the compiled code behind: that code stamps this rule."""
        return {k: v for k, v in vars(self).items() if k not in ("build", "check")}


def birule(family, name, params=(), premises=(), side=(), conclusion=None):
    """A rule of ``family`` whose ``premises`` are ``(family, index expression)`` pairs."""
    if conclusion is None:
        raise ValueError(f"rule {name!r} needs a conclusion expression")
    return Rule(family, name, tuple(params), tuple(premises), tuple(side), conclusion)


def rule(name, params=(), premises=(), side=(), conclusion=None):
    """A family-1 rule whose premise index expressions all recurse into family 1."""
    return birule(1, name, params, [(1, ix) for ix in premises], side, conclusion)


@value_class
class DNode:
    """A rule instance of ``family``: each premise is ``(family, index, witness)``."""

    sig: IndexedSignature
    family: int
    rule: str
    params: tuple[tuple[str, Any], ...]
    premises: tuple[tuple[int, Any, Any], ...]
    conclusion: Any
    # the Rule whose expressions computed the indices; set by ``dnode`` only
    _rule: Rule | None = field(default=None, init=False, compare=False, repr=False)

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)


_stamp = vars(DNode)["_rule"].__set__


@value_class
class Derivation:
    """A derivation tree of any family; ``sig`` must be its root's signature."""

    sig: IndexedSignature
    root: DNode
    # every rule instance in the tree passed ``din``; set by ``din`` only
    _certified: bool = field(default=False, init=False, compare=False, repr=False)

    @property
    def family(self) -> int:
        return self.root.family


class IndexedSignature:
    """Rule names must be unique; compares by identity."""

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
        r = self.rules.get(rule_name)
        if r is None:
            raise InvalidDerivationError(f"{self.name} has no rule {rule_name!r}")
        return r.build(self, rule_name, params, witnesses)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


def ifmap(f: Callable[[Any, Any], Any], n: DNode) -> DNode:
    """Map witnesses index-correctly; rule, parameters and indices unchanged."""
    return DNode(
        n.sig,
        n.family,
        n.rule,
        n.params,
        tuple((fam, w, f(w, a)) for fam, w, a in n.premises),
        n.conclusion,
    )


class _Rejected(InvalidDerivationError):
    """A rule instance the checker rejects (not an error raised inside a rule)."""


def _params_mismatch(sig, rule_name, params, r):
    return InvalidDerivationError(
        f"{sig.name}.{rule_name}: params {sorted(params)} do not match schema {sorted(r.params)}"
    )


def _count_mismatch(sig, rule_name, r, witnesses):
    return InvalidDerivationError(
        f"{sig.name}.{rule_name}: expected {len(r.premises)} premise witnesses, got {len(witnesses)}"
    )


def _side_failed(n, label):
    return _Rejected(f"rule {n.rule}: side condition {label!r} failed")


def _not_a_witness(n, i, fam):
    return _Rejected(f"rule {n.rule}: premise {i} witness is not {n.sig._witness.format(fam)}")


def _child_mismatch(n, i, stored, w):
    return _Rejected(
        f"rule {n.rule}: premise {i} expects conclusion {stored!r}, "
        f"child concludes {w.root.conclusion!r}"
    )


def _compile_rule(r):
    """``(build, check)`` for the rule ``r``: straight-line code from one generated source.

    ``build`` is ``dnode`` after the rule lookup: the parameter-set check,
    the witness count, a :class:`DNode` with the parameter, premise and
    conclusion tuples unrolled, and the stamp, stored through the ``_rule``
    slot descriptor.  ``check`` is ``_check_node`` of a node that ``r``
    stamped: the side conditions and child links, unrolled.  Index
    expressions and side conditions are called, never inlined, so each
    runs exactly where and when the generic path runs it; rejections are
    raised in the generic path's order, with its messages.  Rules of the
    same shape generate the same source, which ``run_generated`` compiles
    once.
    """
    k = len(r.premises)
    env = {
        "_DNode": DNode,
        "_stamp": _stamp,
        "_rule": r,
        "_family": r.family,
        "_param_set": frozenset(r.params),
        "_conclusion": r.conclusion,
        "_params_mismatch": _params_mismatch,
        "_count_mismatch": _count_mismatch,
        "_side_failed": _side_failed,
        "_not_a_witness": _not_a_witness,
        "_child_mismatch": _child_mismatch,
        "_Derivation": Derivation,
    }
    for i, (family, ix) in enumerate(r.premises):
        env[f"_fam{i}"], env[f"_ix{i}"] = family, ix
    params = "".join(f"({p!r}, P[{p!r}]), " for p in r.params)
    premises = "".join(f"(_fam{i}, _ix{i}(P), w{i}), " for i in range(k))
    src = [
        "def build(sig, rule_name, P, witnesses):",
        "    if P.keys() != _param_set:",
        "        raise _params_mismatch(sig, rule_name, P, _rule)",
        "    if witnesses.__class__ is not tuple:",
        "        witnesses = tuple(witnesses)",
        f"    if len(witnesses) != {k}:",
        "        raise _count_mismatch(sig, rule_name, _rule, witnesses)",
        *([f"    {''.join(f'w{i}, ' for i in range(k))}= witnesses"] if k else []),
        f"    n = _DNode(sig, _family, rule_name, ({params}), ({premises}), _conclusion(P))",
        "    _stamp(n, _rule)",
        "    return n",
        "def check(n):",
    ]
    if r.side_conditions:
        src.append("    P = dict(n.params)")
    for i, (label, pred) in enumerate(r.side_conditions):
        env[f"_side{i}"], env[f"_label{i}"] = pred, label
        src += [f"    if not _side{i}(P):", f"        raise _side_failed(n, _label{i})"]
    if k:
        links = "".join(f"(_, ix{i}, w{i}), " for i in range(k))
        src += ["    sig = n.sig", f"    {links}= n.premises"]
    for i in range(k):
        src += [
            f"    if (not isinstance(w{i}, _Derivation) or w{i}.sig is not sig"
            f" or not isinstance(r{i} := w{i}.root, _DNode)"
            f" or r{i}.sig is not sig or r{i}.family != _fam{i}):",
            f"        raise _not_a_witness(n, {i}, _fam{i})",
            f"    if r{i}.conclusion != ix{i}:",
            f"        raise _child_mismatch(n, {i}, ix{i}, w{i})",
        ]
    src.append("    return " + (" and ".join(f"w{i}._certified" for i in range(k)) or "True"))
    run_generated("\n".join(src) + "\n", env)
    for fn in (env["build"], env["check"]):
        fn.__qualname__ = f"Rule({r.name!r}).{fn.__name__}"
    return env["build"], env["check"]


def _check_node(n) -> bool:
    """Local validity: layout, schema, side conditions, recomputed indices, child links.

    Raises :class:`InvalidDerivationError` with the reason, or returns
    whether every premise witness is certified.  A node stamped by ``dnode``
    with the signature's current rule has its layout, family, schema and
    indices right by construction; the rule's compiled ``check`` runs its
    side conditions and child links only.  Any other node is checked in
    full, its layout first where it is read: ``params`` a tuple of
    ``(name, value)`` pairs and ``premises`` a tuple of
    ``(family, index, witness)`` triples.
    """
    sig = n.sig
    r = sig.rules.get(n.rule)
    if r is None:
        raise _Rejected(f"unknown rule {n.rule!r}")
    if n._rule is r:
        return r.check(n)
    if n.family != r.family:
        raise _Rejected(f"rule {n.rule}: family mismatch")
    _check_layout(n, "params", "parameter", 2, "(name, value) pair")
    if tuple(k for k, _ in n.params) != r.params:
        raise _Rejected(f"rule {n.rule}: parameter schema mismatch")
    env = dict(n.params)
    for label, pred in r.side_conditions:
        if not pred(env):
            raise _side_failed(n, label)
    _check_layout(n, "premises", "premise", 3, "(family, index, witness) triple")
    if len(n.premises) != len(r.premises):
        raise _Rejected(f"rule {n.rule}: wrong number of premises")
    for i, ((fam, ix), (stored_fam, stored, _)) in enumerate(zip(r.premises, n.premises)):
        if fam != stored_fam:
            raise _Rejected(f"rule {n.rule}: premise {i} family mismatch")
        if ix(env) != stored:
            raise _Rejected(f"rule {n.rule}: premise {i} index mismatch")
    if r.conclusion(env) != n.conclusion:
        raise _Rejected(f"rule {n.rule}: conclusion index mismatch")
    certified = True
    for i, ((fam, _), (_, stored, w)) in enumerate(zip(r.premises, n.premises)):
        if (
            not isinstance(w, Derivation)
            or w.sig is not sig
            or not isinstance(w.root, DNode)
            or w.root.sig is not sig
            or w.root.family != fam
        ):
            raise _not_a_witness(n, i, fam)
        if w.root.conclusion != stored:
            raise _child_mismatch(n, i, stored, w)
        if not w._certified:
            certified = False
    return certified


def _check_layout(n, attr, item, width, what):
    """Reject ``n`` unless its field ``attr`` is a tuple of ``width``-tuples."""
    items = getattr(n, attr)
    if not isinstance(items, tuple):
        raise _Rejected(f"rule {n.rule}: {attr} are not a tuple")
    for i, x in enumerate(items):
        if not isinstance(x, tuple) or len(x) != width:
            raise _Rejected(f"rule {n.rule}: {item} {i} is not a {what}")


_certify = vars(Derivation)["_certified"].__set__


def din(n: DNode) -> Derivation:
    """Validating constructor: ``dout(din(n)) == n``.

    Raises :class:`InvalidDerivationError` naming the failing rule and
    indices if the node's invariants do not hold.  The result is certified
    when every premise witness is.
    """
    d = Derivation(n.sig, n)
    if _check_node(n):
        _certify(d, True)
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
    if not isinstance(d.root, DNode):
        return Validity(False, (), f"derivation of {d.sig.name} has no rule instance at its root")
    if d.root.sig is not d.sig:
        return Validity(False, (), f"derivation of {d.sig.name} has a root of {d.root.sig.name}")
    stack = [(d.root, ())]
    while stack:
        node, path = stack.pop()
        try:
            _check_node(node)
        except _Rejected as exc:
            return Validity(False, path, str(exc))
        for i, (_, _, w) in reversed(tuple(enumerate(node.premises))):
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
    """One indexed Mendler step with freshly branded premise handles, one brand for every family."""
    brand = object()
    handles = tuple([(fam, ix, Handle(wit, brand)) for fam, ix, wit in node.premises])
    wrapped = DNode(node.sig, node.family, node.rule, node.params, handles, node.conclusion)
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
    js["premises"] = [_walk_json(w, encode, family) for _, _, w in n.premises]
    return js
