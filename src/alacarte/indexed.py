"""Inductively defined relations as first-class derivation trees.

An :class:`IndexedSignature` lists inference rules over a judgment index
type K.  Each rule declares parameters, recursive premises (index
expressions over the parameters), decidable side conditions, and a
conclusion index expression.  A :class:`Derivation` is the fixpoint: a
finite tree of rule instances, self-validating in the sense that ``din``
rejects any node whose side conditions fail or whose indices disagree.

This is the one relation core: a single relation is family 1 of 1, and
:class:`alacarte.mutual.IndexedBiSignature` is the many-family case of the
same rule table, ``dnode``, checker, validator, fold and JSON walker.  There
is one :class:`Rule` class and one rule-instance layout for every family: a
rule's premises are ``(family, index expression)`` pairs, and a
:class:`DNode`'s premises are ``(family, index, witness)`` triples.
:func:`rule` is the family-1 case, whose premises all recurse into family
1.  :class:`Derivation` is the one derivation class of every family, and a
derivation's relation and family are its root node's: a premise witness and
its root are of the parent's signature, the root of the premise's family,
and ``validate`` rejects a derivation whose ``sig`` is not its root's.

Each rule instance is built and checked in one call.
``IndexedSignature.derive(rule_name, params, witnesses)`` is
``din(sig.dnode(rule_name, params, witnesses))``: it computes the indices,
runs the side conditions on ``params``, links each witness to the index it
just computed, and returns the derivation, certified when every premise
witness is certified too.  Every node the library builds is built so, or
by :func:`search`, which fills it as ``derive`` does (:func:`_instance_src`)
without checking again what its matching checked, or by
``IndexedSignature.derive_given``, ``derive`` without the side conditions
its caller names as established.  Its callers are
the typechecker, which has just computed them, and the typing lemmas of
subject reduction: a typing moved to another context by ``weaken`` or
``retype_value`` and a typing rebuilt around a stepped child both keep every
parameter those side conditions read from a certified typing, and the
pointwise lemma ``env_typing(a ⊕ b) = env_typing(a) ⊕ env_typing(b)``
types a union from two certified typings.  Given the term a rule's
``subject`` pattern describes, each concludes at that object, not a copy.
``dnode`` and ``din`` stay for hand-built nodes, and ``din`` and
``validate`` check every node they are handed in full, whoever built it,
building each subject from its pattern.  ``validate`` stops at certified
derivations.  The certificate is invisible to equality, hashing, ``repr``
and the constructors, so a hand-built :class:`Derivation` is never
certified.

Each rule is compiled once, lazily, on its first ``dnode`` or ``derive``:
one generated source gives the rule's own ``dnode`` body and its own
``derive`` (see :func:`_compile_rule`); the same lines, less the skipped
side conditions, give a ``derive_given`` entry, compiled on its first call
for that rule and set of labels only.
Importing a signature compiles nothing.  The compiled code calls the rule's
index expressions and side conditions; it never inlines them, so what they
read is read when they run.  All of this relies on rule expressions being
pure: a rule monkeypatched after a derivation was built is not re-observed
on that derivation.

:func:`search` runs the rules that declare a ``subject`` pattern, in the
modes they fix (see :func:`_search_table`): the table picks the rule.  Each
family and root constructor gets its own search, generated from its rules'
patterns on first use (see :func:`_compile_search`).

``ifold`` is the indexed Mendler fold: the step procedure receives premise
witnesses as opaque handles and may consume them only through the supplied
``rec`` procedure, which also enforces index coherence; at a node without
premises that ``rec`` is the shared :func:`_leaf_rec`.  ``hfold`` is its
many-family case: a ``kernel.SortedAlgebra`` with a step per family, each
given a ``rec`` per family.  :func:`cases` builds such a step from one proof
case per rule, and rejects a table that is not total over the signature's
rules when it is built.  Its tables fold through generated code with a branch per rule, as ``kernel.case``
tables do (see :func:`_compile_fold`), and each rule's ``derive`` fills its node and derivation in its body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping

from .kernel import _FOREIGN_HANDLE, ByIdentity, ForeignHandleError, Handle, Term, fill_src, open_handle, run_generated, value_class


class InvalidDerivationError(Exception):
    pass


class WrongIndexError(Exception):
    pass


class OverlappingRulesError(Exception):
    """Two rules apply to one subject: the relation :func:`search` runs is not a function."""


@dataclass(frozen=True)
class Rule:
    """One inference rule of the family ``family``.

    ``premises`` are ``(family, index expression)`` pairs: the family the
    premise recurses into, and its index as a callable on a params mapping
    that closes over the declared parameters.  ``side_conditions`` are
    named decidable predicates over the same mapping, and ``conclusion`` is
    the conclusion's index expression.  ``subject`` is the pattern of the
    term the rule is about, which :func:`search` matches and ``derive``
    checks a supplied subject against: a constructor function (see
    ``kernel.Signature.constructor``) and its slots in declaration order, a
    string binding a parameter (``"v.vv"``: attribute ``vv`` of ``v``) and a
    tuple matching a nested constructor; with one, :func:`birule` gives an
    :class:`_AtSubject` conclusion.  ``defines`` are ``(parameter, (P,
    subject) -> value)`` pairs that only :func:`search` runs, so a side
    condition or the pattern must check what they bind.
    """

    family: int
    name: str
    params: tuple[str, ...]
    premises: tuple[tuple[int, Callable[[Mapping], Any]], ...]
    side_conditions: tuple[tuple[str, Callable[[Mapping], bool]], ...]
    conclusion: Callable[[Mapping], Any]
    subject: Any = None
    defines: tuple[tuple[str, Callable[[Mapping, Any], Any]], ...] = ()

    def __post_init__(self):
        if self.subject is not None:
            _check_heads(self.name, self.subject)

    @cached_property
    def compiled(self) -> tuple[Callable, Callable]:
        """``(build, derive)``: ``dnode`` and ``IndexedSignature.derive`` after the rule lookup.

        Compiled on first use, so importing a signature compiles nothing
        (see :func:`_compile_rule`).
        """
        return _compile_rule(self)

    @cached_property
    def _given(self) -> dict:
        """``IndexedSignature.derive_given``'s entries after the rule lookup, by their labels, each compiled on first use."""
        return {}


def birule(family, name, params=(), premises=(), side=(), conclusion=None, subject=None, define=()):
    """A rule of ``family`` whose ``premises`` are ``(family, index expression)`` pairs.

    With a ``subject`` pattern, ``conclusion`` takes ``(P, s)``: ``s`` is
    the subject term, which it places in the index.
    """
    if conclusion is None:
        raise ValueError(f"rule {name!r} needs a conclusion expression")
    if subject is not None:
        conclusion = _AtSubject(subject, conclusion)
    return Rule(family, name, tuple(params), tuple(premises), tuple(side), conclusion, subject, tuple(define))


def _check_heads(name, pattern):
    """Reject a ``subject`` pattern any of whose heads, nested ones too, names no constructor."""
    patterns = [pattern]
    while patterns:
        head, *slots = patterns.pop()
        if not (hasattr(head, "sig") and hasattr(head, "ctor")):
            raise ValueError(f"rule {name!r}: subject pattern head {head!r} is not a constructor function")
        patterns += [slot for slot in slots if slot.__class__ is tuple]


def rule(name, params=(), premises=(), side=(), conclusion=None, subject=None, define=()):
    """A family-1 rule whose premise index expressions all recurse into family 1."""
    return birule(1, name, params, [(1, ix) for ix in premises], side, conclusion, subject, define)


class _AtSubject:
    """A conclusion index expression ``P -> at(P, s)``, ``s`` being the term ``pattern`` builds under ``P``.

    ``derive`` given a subject that fits calls ``at`` on that subject itself.
    """

    def __init__(self, pattern, at: Callable[[Mapping, Any], Any]):
        self.pattern, self.at = pattern, at

    def __call__(self, P):
        return self.at(P, _build(self.pattern, P))


def _build(pattern, P):
    """The term ``pattern`` describes, its parameters read from ``P``."""
    return pattern[0](*[_build(x, P) if x.__class__ is tuple else _read(x, P) for x in pattern[1:]])


def _read(slot: str, P):
    """The value of a pattern slot: parameter ``slot``, or for ``"v.vv"`` attribute ``vv`` of ``v``."""
    name, dot, attr = slot.partition(".")
    return getattr(P[name], attr) if dot else P[name]


def _fits_src(slot: str, x: str, P: str = "P") -> str:
    """Source testing that the slot expression ``x`` ``is`` or ``==`` what ``slot`` reads in the mapping ``P`` (see :func:`_read`)."""
    name, dot, attr = slot.partition(".")
    read = f"{P}[{name!r}]{dot}{attr}"
    return f"({x} is {read} or {x} == {read})"


@value_class
class DNode:
    """A rule instance of ``family``: each premise is ``(family, index, witness)``."""

    sig: IndexedSignature
    family: int
    rule: str
    params: tuple[tuple[str, Any], ...]
    premises: tuple[tuple[int, Any, Any], ...]
    conclusion: Any

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)


@value_class
class Derivation:
    """A derivation tree of any family; ``sig`` must be its root's signature."""

    sig: IndexedSignature
    root: DNode
    # every rule instance in the tree passed ``din``; set by ``din`` and ``derive`` only
    _certified: bool = field(default=False, init=False, compare=False, repr=False)

    @property
    def family(self) -> int:
        return self.root.family


_certify = vars(Derivation)["_certified"].__set__
_new_dnode = DNode._positional


# the roles of an index's positions that :func:`search` runs; an index of one role is that value itself
_LAYOUTS = (("context", "subject", "output"), ("subject", "output"), ("subject",))


class IndexedSignature(ByIdentity):
    """Rule names must be unique; compares by identity, and a copy of one is itself."""

    _witness = "a derivation"  # how the checker names a witness of family {}

    def __init__(self, name: str, rules: Iterable[Rule], layout=_LAYOUTS[0]):
        if layout not in _LAYOUTS:
            raise ValueError(f"{name}: index layout {layout!r} is not one of {', '.join(map(repr, _LAYOUTS))}")
        self.name = name
        self.layout = layout
        self.rules: dict[str, Rule] = {}
        for r in rules:
            if r.name in self.rules:
                raise ValueError(f"duplicate rule {r.name!r} in {name}")
            self.rules[r.name] = r
        self._search_tables: dict = {}  # subject signature -> ``search``'s rule index

    def dnode(self, rule_name: str, params: Mapping[str, Any], witnesses=()) -> DNode:
        """Instantiate a rule; premise and conclusion indices are computed."""
        r = self.rules.get(rule_name)
        if r is None:
            raise InvalidDerivationError(f"{self.name} has no rule {rule_name!r}")
        return r.compiled[0](self, rule_name, params, witnesses)

    def derive(self, rule_name: str, params: Mapping[str, Any], witnesses=(), subject=None) -> Derivation:
        """``din(self.dnode(rule_name, params, witnesses))`` in one call.

        It runs the same checks in the same order, with the same messages:
        the parameter set and witness count, the indices, then the side
        conditions on ``params`` itself and each child link against the
        index just computed.  The result is certified when every witness is.
        A ``subject`` must fit the rule's pattern under ``params``: its
        signature and constructors, then each slot ``is`` or ``==`` its
        parameter.  The conclusion is then at ``subject`` itself.  A subject
        that does not fit, or any subject given to a rule without a pattern,
        raises :class:`InvalidDerivationError` naming the rule.  :func:`search` fills its own nodes.
        """
        r = self.rules.get(rule_name)
        if r is None:
            raise InvalidDerivationError(f"{self.name} has no rule {rule_name!r}")
        return r.compiled[1](self, rule_name, params, witnesses, subject)

    def derive_given(self, rule_name: str, given: tuple, params: Mapping[str, Any], witnesses=(), subject=None) -> Derivation:
        """:meth:`derive`, skipping the side conditions labelled in ``given``, which the caller vouches for.

        The trusted entry of a producer that has established those side
        conditions itself, by computing them or from a lemma over a
        certified derivation.  Everything else runs as in ``derive``, with
        its messages: the parameter set, the witness count, the subject
        fit, the index expressions, each child link and the certificate
        from the witnesses.  The entry is ``derive``'s source less those
        checks, compiled on its first call for the rule and ``given``, so a
        rule no caller vouches for compiles nothing more; no labels is
        ``derive`` itself.  A label the rule does not have raises
        ``ValueError`` naming the rule and the label.
        """
        r = self.rules.get(rule_name)
        if r is None:
            raise InvalidDerivationError(f"{self.name} has no rule {rule_name!r}")
        if not given:
            entry = r.compiled[1]
        elif (entry := r._given.get(given)) is None:
            entry = r._given[given] = _compile_rule(r, given)
        return entry(self, rule_name, params, witnesses, subject)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


_OUT = object()  # the output parameter's value while its premise's index is read


def search(sig: IndexedSignature, family: int, context, subject):
    """The ``(output, derivation)`` of ``context |- subject => output`` in ``family``, or None.

    A rule applies when its ``subject`` pattern matches, with ``context``
    bound to its first parameter if ``sig.layout`` has one; its side
    conditions hold, run once in order; and each premise in turn has a
    result, which binds the next parameter left unbound or equals the output
    the premise fixes; premise subjects are terms of the subject's signature.
    Every candidate is tried, and two that apply raise :class:`OverlappingRulesError`.
    The one that applies is filled here, as its rule's ``derive`` fills it at
    ``subject``, running no side condition or premise index a second time.
    The output is None in a layout without one.  A subject that is not a
    term of a signature some pattern of ``sig`` is over raises ``TypeError``.
    """
    if subject.__class__ is not Term or (table := sig._search_tables.get(subject.sig)) is None:
        table = _search_table(sig, subject)
    return table[family, subject.root.ctor](sig, context, subject)


class _SearchTable(dict):
    """``search``'s function per ``(family, root constructor)``, generated on first lookup.

    ``candidates`` holds each key's rules in declaration order, with their
    patterns already translated; a key without candidates finds nothing.
    """

    def __init__(self, candidates: dict, layout: tuple):
        super().__init__()
        self.candidates, self.layout = candidates, layout

    def __missing__(self, key):
        found = self[key] = _compile_search(self, self.candidates[key]) if key in self.candidates else _no_rule
        return found


def _no_rule(sig, context, subject):
    return None


def _search_table(sig, subject) -> _SearchTable:
    """``search``'s table for subjects of ``subject``'s signature; nothing is generated yet.

    Each definition must bind a parameter that nothing before it binds.  The
    parameters still unbound are the premises' bare outputs, one per premise;
    with none, each premise fixes its output, or the layout has none.  A rule
    that breaks these is rejected here, naming it.  A subject that no pattern
    of ``sig`` is over is rejected with ``TypeError``, and no table is kept for it.
    """
    term_sig = subject.sig if subject.__class__ is Term else None
    candidates: dict = {}
    for r in sig.rules.values():
        if r.subject is not None and r.subject[0].sig is term_sig:
            binds = [(r.params[0], "context")] if "context" in sig.layout else []
            bound, tests = {p for p, _ in binds}, []
            _pattern(r.subject, ("rec", "payload"), bound, tests, binds)
            for p, _ in r.defines:
                if p not in r.params or p in bound:
                    raise ValueError(f"{sig.name}.{r.name}: defines {p!r}, which is bound already or no parameter")
                bound.add(p)
            outputs = [p for p in r.params if p not in bound]
            if outputs and (len(outputs) != len(r.premises) or "output" not in sig.layout):
                raise ValueError(f"{sig.name}.{r.name}: unbound parameters {outputs} do not match its premises")
            premises = tuple((fam, ix, out) for (fam, ix), out in zip(r.premises, outputs or [None] * len(r.premises)))
            candidates.setdefault((r.family, r.subject[0].ctor), []).append((r, tests, binds, premises))
    if not candidates:
        what = f"{subject.root.ctor!r} of {term_sig.name}" if term_sig else f"a value of type {type(subject).__name__}"
        raise TypeError(f"{sig.name} has no rule for {what}")
    table = sig._search_tables[term_sig] = _SearchTable(candidates, sig.layout)
    return table


def _pattern(pattern, slots, bound: set, tests: list, binds: list):
    """Translate ``pattern``, matched at the node whose rec and payload tuples are ``slots``.

    Appends to ``tests`` the test of each nested constructor, outer ones
    first, which also names that nested node; and to ``binds`` each
    ``(slot, slot expression)``: the node's rec slots, its payload slots,
    then its nested patterns' binds, in order; to ``bound``, their parameters.
    """
    rec, payload = [], []
    nested = []
    counts = [0, 0]
    term_sig = pattern[0].sig
    for kind, slot in zip(term_sig._plans[pattern[0].ctor].kinds, pattern[1:]):
        in_payload = kind not in term_sig.rec_kinds
        at, counts[in_payload] = counts[in_payload], counts[in_payload] + 1
        if isinstance(slot, tuple) and not in_payload:
            node = f"m{len(tests)}"
            tests.append(f"({node} := {slots[0]}[{at}].root).ctor == {slot[0].ctor!r}")
            nested.append((slot, (f"{node}.rec", f"{node}.payload")))
        else:
            if "." not in slot:
                bound.add(slot)
            (payload if in_payload else rec).append((slot, f"{slots[in_payload]}[{at}]"))
    binds += rec + payload
    for slot, inner in nested:
        _pattern(slot, inner, bound, tests, binds)


def _ill_moded(sig, r, out):
    where = ("first", "second", "third")[sig.layout.index("output")]  # the layout's output position
    return ValueError(f"{sig.name}.{r.name}: a premise index does not put {out!r} {where}")


def _overlapping(sig, first, second):
    return OverlappingRulesError(f"{sig.name}: {first} and {second} both apply")


def _compile_search(table: _SearchTable, candidates) -> Callable:
    """The search of one ``(family, root constructor)``: ``search(sig, context, subject)``.

    Each candidate ``j``, in order, tests every nested constructor, then
    builds ``P{j}`` in one dict display, runs the side conditions in order,
    and for each premise reads its index once and searches it through
    ``table``; a rule with definitions runs them after its premises, and
    then its side conditions.  Every candidate is tried, and a second that
    applies raises :class:`OverlappingRulesError`.  The one that applies is
    filled here by :func:`_instance_src`, running nothing again.  Only a
    dotted slot, which binds nothing, and each child link are checked, as
    ``derive`` checks them and before the fill: a child must conclude at the
    index its premise read, with the output bound, which is built only to be
    compared.  The premise then holds the child's own conclusion as its
    index, not a new equal tuple; ``derive``, which trusts no witness it is
    handed, stores the index it computed.
    """
    layout = table.layout
    env = {"_OUT": _OUT, "_table": table, "_ill_moded": _ill_moded, "_overlapping": _overlapping, "_unfit": _unfit, "_child_mismatch": _child_mismatch}
    src = ["def search(sig, context, subject):", "    rec, payload = subject.root.rec, subject.root.payload", "    found = None"]
    fills, output = [], f"n.conclusion[{layout.index('output')}]" if "output" in layout else "None"
    for j, (r, tests, binds, premises) in enumerate(candidates):
        env[f"_rule{j}"], env[f"_name{j}"], P = r, r.name, f"P{j}"
        at = "    "
        if tests:
            src.append(f"{at}if {' and '.join(tests)}:")
            at += "    "
        src.append(f"{at}{P} = {{{''.join(f'{k!r}: {v}, ' for k, v in binds if '.' not in k)}}}")
        for i, (_, pred) in enumerate(r.side_conditions):
            env[f"_side{j}_{i}"] = pred
        sides = f"if {' and '.join(f'_side{j}_{i}({P})' for i in range(len(r.side_conditions)))}:"
        if r.side_conditions and not r.defines:
            src.append(f"{at}{sides}")
            at += "    "
        links = []  # each child concludes at the index its premise asked for, checked before the fill
        for i, (family, ix, out) in enumerate(premises):
            env[f"_ix{j}_{i}"] = ix
            names = {role: f"{role}{j}_{i}" for role in layout}
            context = names.get("context", "None")
            if out is None:  # the premise fixes its output, or the layout has none
                fits = f" and (sub[0] is {names['output']} or sub[0] == {names['output']})" if "output" in layout else ""
                unbind, check, bind = [], [], [f"w{j}_{i} = sub[1]"]
                asked, differs = f"ix{j}_{i}", f"is not ix{j}_{i} and c{i} != ix{j}_{i}"
            else:  # its index is the one read, with the output bound
                names["output"] = "bare"
                asked = f"({', '.join(f'{P}[{out!r}]' if role == 'output' else names[role] for role in layout)}, )"
                unbind, fits, bind = [f"{P}[{out!r}] = _OUT"], "", [f"{P}[{out!r}], w{j}_{i} = sub"]
                check = ["if bare is not _OUT:", f"    raise _ill_moded(sig, _rule{j}, {out!r})"]
                differs = f"!= {asked}"
            index = f"{', '.join(names[role] for role in layout)} = {'' if out else f'ix{j}_{i} = '}_ix{j}_{i}({P})"
            call = f"sub = _table[{family!r}, {names['subject']}.root.ctor](sig, {context}, {names['subject']})"
            src += [at + line for line in (*unbind, index, *check, call, f"if sub{fits}:", *("    " + b for b in bind))]
            at += "    "
            links += [f"if (c{i} := w{j}_{i}.root.conclusion) {differs}:", f"    raise _child_mismatch(_name{j}, {i}, {asked}, w{j}_{i})"]
        for i, (p, define) in enumerate(r.defines):
            env[f"_def{j}_{i}"] = define
            src.append(f"{at}{P}[{p!r}] = _def{j}_{i}({P}, subject)")
        if r.side_conditions and r.defines:  # after the definitions, which they may check
            src.append(f"{at}{sides}")
            at += "    "
        if j:
            src += [f"{at}if found is not None:", f"{at}    raise _overlapping(sig, found, _name{j})"]
        src.append(f"{at}found = _name{j}")
        last = j == len(candidates) - 1
        fills += [] if last else [f"    if found is _name{j}:"]
        at = "    " if last else "        "
        if dotted := [_fits_src(p, x, P) for p, x in binds if "." in p]:  # the nested tests name their nodes again
            fills += [f"{at}if not ({' and '.join(tests + dotted)}):", f"{at}    raise _unfit(sig, _name{j}, _rule{j})"]
        env[f"_conclusion{j}"] = r.conclusion
        conclusion = _at_src(r, env, j, P, "subject") or f"_conclusion{j}({P})"
        indices = [f"c{i}" for i in range(len(premises))]  # a premise holds its child's own conclusion
        fills += [*(at + line for line in links), *_instance_src(r, env, f"_name{j}", P, indices, f"w{j}_", conclusion, "True", (), at)]
        fills.append(f"{at}return {output}, d")
    src += ["    if found is None:", "        return None", *fills]
    return run_generated("\n".join(src) + "\n", env)["search"]


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


def _unfit(sig, rule_name, r):
    why = "the rule has no subject pattern to fit" if r.subject is None else "the subject does not fit the rule's pattern"
    return InvalidDerivationError(f"{sig.name}.{rule_name}: {why}")


def _fit_src(pattern) -> str:
    """Source testing that ``s`` fits ``pattern`` under ``P``: its signature and constructors, then each slot."""
    tests, binds = [], []
    _pattern(pattern, ("t.rec", "t.payload"), set(), tests, binds)
    return " and ".join([
        "s.__class__ is _Term and s.sig is _tsig",
        f"(t := s.root).ctor == {pattern[0].ctor!r}",
        *tests,
        *(_fits_src(p, x) for p, x in binds),
    ])


def _child_mismatch(rule_name, i, stored, w):
    return _Rejected(
        f"rule {rule_name}: premise {i} expects conclusion {stored!r}, "
        f"child concludes {w.root.conclusion!r}"
    )


def _at_src(r, env, tag, P: str, s: str) -> str | None:
    """``r``'s conclusion at the subject ``s`` if its own pattern gives it: a copy given another keeps the one its checker builds."""
    if r.subject is not None and isinstance(r.conclusion, _AtSubject) and r.conclusion.pattern is r.subject:
        env[f"_at{tag}"] = r.conclusion.at
        return f"_at{tag}({P}, {s})"


def _instance_src(r, env, rule_name: str, P: str, indices, w: str, conclusion: str, certified=None, checks=(), at="    "):
    """Lines filling ``n``, ``r``'s :class:`DNode` at the mapping ``P``, then ``checks`` and ``d``, its :class:`Derivation`.

    The one place that knows both layouts.  Arguments are source, premise ``i``'s witness is ``{w}{i}``,
    and with no ``certified`` the lines stop at ``n``.
    """
    params = "".join(f"({p!r}, {P}[{p!r}]), " for p in r.params)
    premises = "".join(f"({fam!r}, {ix}, {w}{i}), " for i, ((fam, _), ix) in enumerate(zip(r.premises, indices, strict=True)))
    node = fill_src(DNode, "n", ["sig", repr(r.family), rule_name, f"({params})", f"({premises})", conclusion], env, at)
    if certified is None:
        return node
    return [*node, *checks, *fill_src(Derivation, "d", ["sig", "n", certified], env, at)]


def _compile_rule(r, given=None):
    """``(build, derive)`` for the rule ``r``: straight-line code from one generated source.

    ``build`` is ``dnode`` after the rule lookup: the parameter-set check,
    the witness count, and a :class:`DNode` with the parameter, premise and
    conclusion tuples unrolled.  ``derive`` is ``build`` followed, in the
    same body, by ``_check_node``'s side conditions and child links,
    unrolled: it keeps each premise index it computed for that premise's
    child link and runs the side conditions on the caller's ``P``, then
    returns the :class:`Derivation`, certified when every witness is.  Given
    a subject, ``derive`` first tests that it fits the rule's pattern (see
    :func:`_fit_src`) and concludes with the conclusion's ``at`` on it.
    Both fill through :func:`_instance_src`.  Index expressions and side
    conditions are called, never inlined; rejections are raised in
    ``din(dnode(...))``'s order, with its messages.  Rules of the same shape
    and families generate the same source, which ``run_generated`` compiles once.

    Given the labels ``given``, it returns ``derive_given`` alone: ``derive``'s
    lines without the checks of the side conditions so labelled (see
    :meth:`IndexedSignature.derive_given`).
    """
    labels = [label for label, _ in r.side_conditions]
    for label in given or ():
        if label not in labels:
            raise ValueError(f"rule {r.name!r} has no side condition {label!r}")
    k = len(r.premises)
    env = {
        "_DNode": DNode,
        "_rule": r,
        "_param_set": frozenset(r.params),
        "_conclusion": r.conclusion,
        "_params_mismatch": _params_mismatch,
        "_count_mismatch": _count_mismatch,
        "_side_failed": _side_failed,
        "_not_a_witness": _not_a_witness,
        "_child_mismatch": _child_mismatch,
        "_Derivation": Derivation,
        "_Term": Term,
        "_unfit": _unfit,
    }
    env.update((f"_ix{i}", ix) for i, (_, ix) in enumerate(r.premises))
    instantiate = [
        "    if P.keys() != _param_set:",
        "        raise _params_mismatch(sig, rule_name, P, _rule)",
        "    if witnesses.__class__ is not tuple:",
        "        witnesses = tuple(witnesses)",
        f"    if len(witnesses) != {k}:",
        "        raise _count_mismatch(sig, rule_name, _rule, witnesses)",
        *([f"    {''.join(f'w{i}, ' for i in range(k))}= witnesses"] if k else []),
    ]
    indices = [f"(ix{i} := _ix{i}(P))" for i in range(k)]
    fit, conclusion = "s is not None", "_conclusion(P)"
    if r.subject is not None:
        env["_tsig"] = r.subject[0].sig
        fit = f"s is not None and not ({_fit_src(r.subject)})"
        if at := _at_src(r, env, "", "P", "s"):
            conclusion = f"_conclusion(P) if s is None else {at}"
    checks = []  # on ``P``, and on ``sig`` and each ``ix{i}`` and ``w{i}``
    for i, (label, pred) in enumerate(r.side_conditions):
        if given is None or label not in given:
            env[f"_side{i}"], env[f"_label{i}"] = pred, label
            checks += [f"    if not _side{i}(P):", f"        raise _side_failed(n, _label{i})"]
    for i, (family, _) in enumerate(r.premises):
        checks += [
            f"    if (not isinstance(w{i}, _Derivation) or w{i}.sig is not sig"
            f" or not isinstance(r{i} := w{i}.root, _DNode)"
            f" or r{i}.sig is not sig or r{i}.family != {family!r}):",
            f"        raise _not_a_witness(n, {i}, {family!r})",
            f"    if r{i}.conclusion != ix{i}:",
            f"        raise _child_mismatch(rule_name, {i}, ix{i}, w{i})",
        ]
    certified = " and ".join(f"w{i}._certified" for i in range(k)) or "True"
    derive = [
        f"def {'derive' if given is None else 'derive_given'}(sig, rule_name, P, witnesses, s):",
        *instantiate,
        f"    if {fit}:",
        "        raise _unfit(sig, rule_name, _rule)",
        *_instance_src(r, env, "rule_name", "P", indices, "w", conclusion, certified, checks),
        "    return d",
    ]
    if given is not None:
        run_generated("\n".join(derive) + "\n", env)
        env["derive_given"].__qualname__ = f"Rule({r.name!r}).derive_given"
        return env["derive_given"]
    src = [
        "def build(sig, rule_name, P, witnesses):",
        *instantiate,
        *_instance_src(r, env, "rule_name", "P", indices, "w", "_conclusion(P)"),
        "    return n",
        *derive,
    ]
    run_generated("\n".join(src) + "\n", env)
    for fn in (env["build"], env["derive"]):
        fn.__qualname__ = f"Rule({r.name!r}).{fn.__name__}"
    return env["build"], env["derive"]


def _check_node(n) -> bool:
    """Local validity: layout, schema, side conditions, recomputed indices, child links.

    Raises :class:`InvalidDerivationError` with the reason, or returns
    whether every premise witness is certified.  Every node is checked in
    full, whoever built it: first that it is a :class:`DNode` at all, then
    its layout where it is read: ``params`` a tuple of ``(name, value)``
    pairs and ``premises`` a tuple of ``(family, index, witness)`` triples.
    """
    if not isinstance(n, DNode):
        raise _Rejected(f"not a rule instance: a value of type {type(n).__name__}")
    sig = n.sig
    try:
        r = sig.rules.get(n.rule)
    except AttributeError:  # ``sig`` is no rule table
        raise _Rejected(f"rule {n.rule!r}: signature is {_sig_name(sig)}") from None
    except TypeError:  # an unhashable rule name names no rule
        r = None
    if r is None:
        raise _Rejected(f"unknown rule {n.rule!r}")
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
            raise _child_mismatch(n.rule, i, stored, w)
        if not w._certified:
            certified = False
    return certified


def _sig_name(sig) -> str:
    """How a rejection names a signature that may not be an indexed one."""
    if isinstance(sig, IndexedSignature):
        return sig.name
    return f"a {type(sig).__name__}, not an indexed signature"


def _check_layout(n, attr, item, width, what):
    """Reject ``n`` unless its field ``attr`` is a tuple of ``width``-tuples."""
    items = getattr(n, attr)
    if not isinstance(items, tuple):
        raise _Rejected(f"rule {n.rule}: {attr} are not a tuple")
    for i, x in enumerate(items):
        if not isinstance(x, tuple) or len(x) != width:
            raise _Rejected(f"rule {n.rule}: {item} {i} is not a {what}")



def din(n: DNode) -> Derivation:
    """Validating constructor: ``dout(din(n)) == n``.

    Raises :class:`InvalidDerivationError` naming the failing rule and
    indices if the node's invariants do not hold.  The result is certified
    when every premise witness is.
    """
    return _din(n)


def _din(n) -> Derivation:
    """The validating constructor of ``din`` and ``mutual.din_bi``."""
    certified = _check_node(n)
    d = Derivation(n.sig, n)
    if certified:
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


_VALID = Validity(True)


def validate(d: Derivation) -> Validity:
    """Check every node not under a certificate; reports the first failing path."""
    return _check_tree(d)


def _check_tree(d) -> Validity:
    """The tree validator of ``validate`` and ``mutual.validate_bi``; every valid tree shares one verdict."""
    if d._certified:
        return _VALID
    if not isinstance(d.sig, IndexedSignature):
        return Validity(False, (), f"derivation signature is {_sig_name(d.sig)}")
    if not isinstance(d.root, DNode):
        return Validity(False, (), f"derivation of {d.sig.name} has no rule instance at its root")
    if d.root.sig is not d.sig:
        return Validity(False, (), f"derivation of {d.sig.name} has a root of {_sig_name(d.root.sig)}")
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
    return _VALID


def _wrong_index(wi, child):
    return WrongIndexError(f"recursive call at {wi!r} on a derivation concluding {child.root.conclusion!r}")


def _index_checking_rec(brand, recurse):
    """The ``rec`` of ``istep_once`` and ``hstep_once``: open, check the index (its identity first), recurse."""

    def rec(wi, h):
        child = open_handle(h, brand)
        if (c := child.root.conclusion) is not wi and c != wi:
            raise _wrong_index(wi, child)
        return recurse(wi, child)

    return rec


def _leaf_rec(wi, h):
    """The ``rec`` of every family at a level without premises: it issued no handle, so each one is foreign."""
    raise ForeignHandleError(_FOREIGN_HANDLE)


def istep_once(malg, w, node: DNode, recurse):
    """One indexed Mendler step with freshly branded premise handles, one brand for every family.

    A node without premises is passed as it is, with :func:`_leaf_rec`; one
    with premises is passed as a copy holding their handles, built in a
    tuple display for two.
    """
    premises = node.premises
    if not premises:
        return malg(_leaf_rec, w, node)
    brand = object()
    if len(premises) == 2:
        (f0, ix0, w0), (f1, ix1, w1) = premises
        handles = ((f0, ix0, Handle(w0, brand)), (f1, ix1, Handle(w1, brand)))
    else:
        handles = tuple([(fam, ix, Handle(wit, brand)) for fam, ix, wit in premises])
    node = _new_dnode(node.sig, node.family, node.rule, node.params, handles, node.conclusion)
    return malg(_index_checking_rec(brand, recurse), w, node)


def ifold(malg, w, d: Derivation):
    """Indexed Mendler fold of ``d``, which must conclude at ``w``.

    Only the root's index is checked here, and ``rec`` checks each child's.  A :func:`cases` step runs its table's fold.
    """
    if (c := d.root.conclusion) is not w and c != w:
        raise WrongIndexError(f"derivation concludes {c!r}, not {w!r}")
    if fold := _table_fold(malg, None):
        return fold(w, d)
    recurse = lambda wi, di: istep_once(malg, wi, di.root, recurse)
    return recurse(w, d)


class WrongComponentError(Exception):
    """A fold of one family (or sort) applied to a value of another."""


def hstep_once(malg, w, node: DNode, *recurses):
    """One indexed Mendler step with a fresh brand and an index-checking ``rec`` per family.

    Family f's step is ``malg.steps[f - 1](rec_1, ..., rec_N, w, node)``.
    A node without premises is passed as it is, with :func:`_leaf_rec` for
    every family; one with premises as a copy holding their handles, built
    in a tuple display for one premise.
    """
    premises = node.premises
    if not premises:
        return malg.steps[node.family - 1](*[_leaf_rec] * len(recurses), w, node)
    brands = (object(), object()) if len(recurses) == 2 else [object() for _ in recurses]
    if len(premises) == 1:
        ((fam, ix, wit),) = premises
        handles = ((fam, ix, Handle(wit, brands[fam - 1])),)
    else:
        handles = tuple([(fam, ix, Handle(wit, brands[fam - 1])) for fam, ix, wit in premises])
    node = _new_dnode(node.sig, node.family, node.rule, node.params, handles, node.conclusion)
    recs = map(_index_checking_rec, brands, recurses)
    return malg.steps[node.family - 1](*recs, w, node)


def hfold(family: int, malg, w, d: Derivation):
    """Indexed Mendler fold of a family-``family`` derivation that concludes at ``w``.

    ``malg`` is a ``kernel.SortedAlgebra`` with a step per family.  If
    :func:`cases` returned each step, it runs the fold generated from their tables.
    """
    if d.family != family:
        raise WrongComponentError(f"hfold_{family} applied to a family-{d.family} derivation")
    if (c := d.root.conclusion) is not w and c != w:
        raise WrongIndexError(f"derivation concludes {c!r}, not {w!r}")
    if fold := _table_fold(malg, tuple(malg.steps)):
        return fold(w, d)
    recurse = lambda wi, di: hstep_once(malg, wi, di.root, *recurses)
    recurses = (recurse,) * len(malg.steps)
    return recurse(w, d)


def cases(sig: IndexedSignature, table: Mapping[str, Callable]) -> Callable:
    """The Mendler step that runs ``table[node.rule]``, ``node`` being its last argument.

    So it serves ``ifold``'s ``(rec, w, node)`` and ``hfold``'s ``(rec1, ..., w, node)``.
    Building it raises ``ValueError``, naming each missing and each extra rule,
    unless the table's keys are ``sig``'s rules.  Running it on a node whose
    rule has no case raises :class:`InvalidDerivationError` naming ``sig`` and the rule.
    It carries ``_cases = (step, sig, table, folds)``, naming the step, so a wrapper that copied its
    ``__dict__`` (as ``functools.wraps`` does) is not taken for it; ``folds`` is :func:`_table_fold`'s.
    """
    _check_total(sig, table, "cases")
    table = dict(table)

    def step(*args):
        try:
            case = table[args[-1].rule]
        except (KeyError, TypeError):  # an unhashable rule name names no rule
            raise InvalidDerivationError(f"{sig.name} has no case for rule {args[-1].rule!r}") from None
        return case(*args)

    step._cases = (step, sig, table, {})
    return step


def _table_fold(malg, steps: tuple | None):
    """The fold generated from the tables of ``malg``'s steps (``steps``, else ``malg``); None unless :func:`cases` made each."""
    key, steps = steps, (malg,) if steps is None else steps
    first = getattr(steps[0], "_cases", None) if steps else None
    if first is None or first[0] is not steps[0]:
        return None
    if (fold := first[3].get(key)) is None:  # a kept fold's key holds the very steps it was generated for
        entries = [getattr(step, "_cases", (None,)) for step in steps]
        if any(entry[0] is not step for entry, step in zip(entries, steps)):
            return None
        fold = first[3][key] = _compile_fold(malg, [(sig, table) for _, sig, table, _ in entries], key is None)
    return fold


def _compile_fold(malg, tables, one_brand: bool):
    """``fold(w, d)``: ``ifold(malg, w, d)``, or unless ``one_brand`` ``hfold(f, malg, w, d)``, past the root checks.

    A branch per rule of each ``(sig, table)`` hands a node of the rule's shape to its case; any other takes the
    generic step.  A rule without premises gets :func:`_leaf_rec` for every family and issues nothing.  One with
    premises issues a fresh brand (one for every family if ``one_brand``, else one per family its premises are of)
    and a ``rec`` per brand, which inlines ``_index_checking_rec``'s tests, and hands its case a copy of the node
    holding the premise handles, built as ``mfold`` builds handles; a family it has no premise of gets ``_leaf_rec``.
    """
    families = [""] if one_brand else [str(f) for f in range(1, len(tables) + 1)]
    env = dict(_object=object, _new_object=object.__new__, _Handle=Handle, _ForeignHandleError=ForeignHandleError,
               _FOREIGN_HANDLE=_FOREIGN_HANDLE, _wrong_index=_wrong_index, _leaf_rec=_leaf_rec, _malg=malg,
               _generic=istep_once if one_brand else hstep_once)
    src = ["def fold(w, d):", "    n = d.root", "    premises = n.premises"]
    for f, (sig, table) in enumerate(tables, 1):
        env[f"_sig{f}"] = sig
        family = "" if one_brand else f" and n.family == {f}"
        src += [f"    {'elif' if f > 1 else 'if'} n.sig is _sig{f}{family}:", "        rule = n.rule"]
        fits = lambda r: one_brand or r.family == f and all(0 < fam <= len(tables) for fam, _ in r.premises)
        for j, r in enumerate(filter(fits, sig.rules.values())):
            env[f"_case{f}_{j}"], env[f"_rule{f}_{j}"], k = table[r.name], r.name, len(r.premises)
            shape = f"len(premises) == {k}" if k else "not premises"
            src += [f"        {'elif' if j else 'if'} rule == _rule{f}_{j}:", f"            if {shape}:"]
            at = "                "
            if not k:
                src.append(f"{at}return _case{f}_{j}({'_leaf_rec, ' * len(families)}w, n)")
                continue
            src.append(f"{at}{''.join(f'(f{i}, ix{i}, w{i}), ' for i in range(k))}= premises")
            if not one_brand:
                src.append(f"{at}if {' and '.join(f'f{i} == {fam}' for i, (fam, _) in enumerate(r.premises))}:")
                at += "    "
            tags = [""] * k if one_brand else [str(fam) for fam, _ in r.premises]
            used = sorted(set(tags))
            src.append(f"{at}{', '.join(f'b{t}' for t in used)} = {', '.join(['_object()'] * len(used))}")
            for t in used:
                src += [
                    f"{at}def rec{t}(wi, h):",
                    f"{at}    if not isinstance(h, _Handle) or h._brand is not b{t}:",
                    f"{at}        raise _ForeignHandleError(_FOREIGN_HANDLE)",
                    f"{at}    if (c := (child := h._value).root.conclusion) is not wi and c != wi:",
                    f"{at}        raise _wrong_index(wi, child)",
                    f"{at}    return fold(wi, child)",
                ]
            for i, t in enumerate(tags):
                src += [f"{at}h{i} = _new_object(_Handle)", f"{at}h{i}._value = w{i}", f"{at}h{i}._brand = b{t}"]
            held = "".join(f"(f{i}, ix{i}, h{i}), " for i in range(k))
            src += fill_src(DNode, "c", ["n.sig", "n.family", "rule", "n.params", f"({held})", "n.conclusion"], env, at)
            recs = "".join(f"rec{t}, " if t in used else "_leaf_rec, " for t in families)
            src.append(f"{at}return _case{f}_{j}({recs}w, c)")
    src.append(f"    return _generic(_malg, w, n, {'fold, ' * len(families)})")
    return run_generated("\n".join(src) + "\n", env)["fold"]


def _check_total(sig: IndexedSignature, table: Mapping, what: str):
    """Raise ``ValueError``, naming each missing and each extra rule, unless ``table``'s keys are ``sig``'s rules."""
    missing = [name for name in sig.rules if name not in table]
    extra = [name for name in table if name not in sig.rules]
    if missing or extra:
        raise ValueError(f"{what} over {sig.name}: missing rules {missing}, extra rules {extra}")


def derivation_to_json(d: Derivation, encode=lambda v: v) -> dict:
    return _walk_json(d, encode, None)


def _walk_json(d, encode, names) -> dict:
    """Derivation JSON; a node's family is omitted if ``names`` is None.

    Otherwise it is written as ``names[family - 1]``, or as its number if
    ``names`` is empty.
    """
    n = d.root
    js = {} if names is None else {"family": names[n.family - 1] if names else n.family}
    js["rule"] = n.rule
    js["index"] = encode(n.conclusion)
    js["params"] = {k: encode(v) for k, v in n.params}
    js["premises"] = [_walk_json(w, encode, names) for _, _, w in n.premises]
    return js
