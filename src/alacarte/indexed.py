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

Each rule's ``derive`` is compiled once, lazily, on its first call (see
:func:`_compile_rule`); the same lines, less the skipped side conditions,
give a ``derive_given`` entry, compiled on its first call for that rule
and set of labels only.  ``dnode``, like the checker, interprets the rule
and compiles nothing.  Importing a signature compiles nothing.  The
compiled code, ``search``'s
too, writes each rule expression (premise index, side condition,
definition, conclusion or the ``at`` of an :class:`_AtSubject`) in as its
body when :func:`_inline` can verify that body: the text its code
positions span in its source, compiled as a lambda with its parameters,
must give its very bytecode, constants, names and local names.  Any other
expression (a closure, one with defaults or varargs, a nested scope, an
assignment expression, a generator, code with no source, any callable not
a lambda, and every expression on Python 3.10, which has no code
positions) is called, from the same line.  ``search`` keeps parameters in
locals (see :func:`_compile_search`).  Either way what an expression reads is read
when it runs: a written-in body reads its module's globals through the
module object.  ``din`` and ``validate`` call the rule's own expression
objects, so the checker stays independent of this compiler.  All of this
relies on rule expressions being pure: a rule monkeypatched after a
derivation was built is not re-observed on that derivation.

:func:`search` runs the rules that declare a ``subject`` pattern, in the
modes they fix (see :func:`_search_table`): the table picks the rule.  Each
family and root constructor gets its own search, generated from its rules'
patterns on first use (see :func:`_compile_search`).

``hfold`` is the indexed Mendler fold: a ``kernel.SortedAlgebra``'s step
per family receives premise witnesses as opaque handles and may consume them
only through the supplied ``rec`` of their family, which also enforces index
coherence; at a node without premises every ``rec`` is the shared
:func:`_leaf_rec`.  ``ifold`` is its family-1 case, of the one-step algebra.
:func:`cases` builds a step from one proof case per rule, and rejects a table
that is not total over the signature's rules when it is built.  Its tables
fold through generated code with a branch per rule, as ``kernel.case``
tables do (see :func:`_compile_fold`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from inspect import CO_GENERATOR as _CO_GENERATOR
from types import CodeType as _CodeType, FunctionType as _FunctionType
from typing import Any, Callable, Iterable, Mapping
from weakref import WeakKeyDictionary

from .kernel import _FOREIGN_HANDLE, ByIdentity, ForeignHandleError, Handle, SortedAlgebra, Term, fill_src, open_handle, run_generated, value_class


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
    def compiled(self) -> Callable:
        """``IndexedSignature.derive`` after the rule lookup.

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


def _read_P(name: str) -> str:
    """Source reading parameter ``name`` from the mapping ``P``."""
    return f"P[{name!r}]"


def _fits_src(slot: str, x: str, read=_read_P) -> str:
    """Source testing that the slot expression ``x`` ``is`` or ``==`` what ``slot`` reads (see :func:`_read`), parameter ``p`` being ``read(p)``."""
    name, dot, attr = slot.partition(".")
    value = f"{read(name)}{dot}{attr}"
    return f"({x} is {value} or {x} == {value})"


# ---------------------------------------------------------------------------
# rule expressions written into the generated code


class _Body:
    """A rule expression's body, verified to be the lambda's own code (see :func:`_inline`).

    ``text`` is its source with a hole (``\\0...\\0``) at each parameter and
    module name it reads (see :func:`_render`).
    """

    __slots__ = ("text", "module")

    def __init__(self, text, module):
        self.text, self.module = text, module


_BODIES: WeakKeyDictionary = WeakKeyDictionary()  # rule expression -> its _Body, or None
_POSITIONS = hasattr(_CodeType, "co_positions")  # new in Python 3.11; without them every expression is called


def _inline(fn, arity: int) -> _Body | None:
    """The body of the rule expression ``fn``, a lambda of ``arity`` parameters, or None if it must be called.

    The body's text is the span of ``fn``'s code positions in its source,
    read through ``linecache``.  It is taken only if that text, compiled as
    a lambda with ``fn``'s parameters, gives ``fn``'s very bytecode,
    constants, names and local names.  A closure, a default, varargs, a
    nested scope (a lambda, a comprehension), an assignment expression, a
    generator, an f-string or code with no source is refused, and so is
    every expression on an interpreter without code positions.  Each free
    name must be a global of ``fn``'s module, which the inlined code reads
    through the module object when it runs, or a builtin, which stays a builtin.
    """
    if fn.__class__ is not _FunctionType or fn.__code__.co_argcount != arity:
        return None
    if fn not in _BODIES:
        _BODIES[fn] = _verified(fn)
    return _BODIES[fn]


def _verified(fn) -> _Body | None:
    """:func:`_inline`'s verification, run once per rule expression."""
    code = fn.__code__
    arity = code.co_argcount
    if (
        not _POSITIONS or code.co_name != "<lambda>" or fn.__closure__ or fn.__defaults__ or fn.__kwdefaults__
        or code.co_flags & _CO_GENERATOR or code.co_freevars or code.co_cellvars
        or code.co_nlocals != arity  # an assignment expression, or a comprehension inlined into the lambda (3.12+)
        or any(c.__class__ is _CodeType for c in code.co_consts)  # a nested scope
    ):
        return None
    import ast
    import linecache
    import sys

    lines = linecache.getlines(code.co_filename, fn.__globals__)
    spans = [(p[0], p[2], p[1], p[3]) for p in set(code.co_positions()) if None not in p and (p[0], p[2]) != (p[1], p[3])]
    if not spans:  # none of zero width
        return None
    l0, c0, _, _ = min(spans)
    l1, c1 = max((p[2], p[3]) for p in spans)
    if l1 > len(lines):
        return None
    params = code.co_varnames[:arity]
    head = f"lambda {', '.join(params)}: (".encode()
    chunk = "".join(lines[l0 - 1 : l1]).encode()  # positions are byte offsets
    src = head + chunk[c0 : len(chunk) - len(lines[l1 - 1].encode()) + c1] + b")"
    try:
        tree = ast.parse(src, mode="eval")
        outer = compile(tree, code.co_filename, "eval", dont_inherit=True)
    except (SyntaxError, ValueError):
        return None
    copy = next(c for c in outer.co_consts if c.__class__ is _CodeType)
    if (copy.co_code, copy.co_consts, copy.co_names, copy.co_varnames) != (code.co_code, code.co_consts, code.co_names, code.co_varnames):
        return None
    module = sys.modules.get(fn.__module__)
    own = module is not None and vars(module) is fn.__globals__
    starts = [0]  # where each line of ``src`` starts
    for line in src.split(b"\n")[:-1]:
        starts.append(starts[-1] + len(line) + 1)
    holes = []
    for node in ast.walk(tree.body.body):
        if isinstance(node, ast.JoinedStr):  # an f-string, whose quotes a parameter's ``P['name']`` could close
            return None
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == params[0]:
            key = node.slice.value if isinstance(node.slice, ast.Constant) else None
            if key.__class__ is not str or "\0" in key:
                continue
            hole = f"[{key}"
        elif isinstance(node, ast.Name):
            if node.id in params:
                hole = "P" if node.id == params[0] else "s"
            elif node.id in fn.__globals__ and own:
                hole = f".{node.id}"
            elif node.id not in fn.__globals__ and node.id in fn.__builtins__:
                continue  # a builtin stays a builtin
            else:  # a global of another namespace than its module's, or a name nothing binds
                return None
        else:
            continue
        holes.append((starts[node.lineno - 1] + node.col_offset, starts[node.end_lineno - 1] + node.end_col_offset, hole))
    pieces, at = [], len(head)
    for start, end, hole in sorted(holes, key=lambda h: (h[0], -h[1])):  # a subscript's ``P`` is within the subscript
        if start >= at:
            pieces += [src[at:start].decode(), f"\0{hole}\0"]
            at = end
    text, top = "".join(pieces) + src[at:-1].decode(), tree.body.body
    if isinstance(top, (ast.BoolOp, ast.IfExp)) or "\n" in text and not isinstance(top, (ast.Tuple, ast.List, ast.Dict, ast.Set)):
        text = f"({text})"  # a display's brackets, which a lambda's tuple has too, already hold its line breaks
    return _Body(text, module)


def _render(body: _Body, env: dict, P: str, s: str | None = None, local=None) -> str:
    """``body``'s source at the mapping ``P`` and subject ``s``; each ``P["key"]`` is ``local(key)`` if given.

    Each name of its module is read through the module object, bound in ``env``.
    """
    parts = body.text.split("\0")  # holes at the odd positions
    if "\0." in body.text:
        mods = [k for k, v in env.items() if k.startswith("_mod") and v is body.module]
        env[mod := mods[0] if mods else f"_mod{sum(k.startswith('_mod') for k in env)}"] = body.module
    for i in range(1, len(parts), 2):
        kind, name = parts[i][0], parts[i][1:]
        if kind == "[":
            parts[i] = local(name) if local else f"{P}[{name!r}]"
        else:
            parts[i] = f"{mod}.{name}" if kind == "." else P if kind == "P" else s
    return "".join(parts)


def _expr_src(fn, env: dict, key: str, P: str, s: str | None = None, local=None) -> str:
    """Source of the rule expression ``fn`` at ``P`` (and ``s``): its body if :func:`_inline` gives it, else a call of ``env[key] = fn``."""
    body = _inline(fn, 1 if s is None else 2)
    if body is not None:
        return _render(body, env, P, s, local)
    env[key] = fn
    return f"{key}({P})" if s is None else f"{key}({P}, {s})"


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
        """Instantiate a rule, computing the indices; interpreted, as the checker is, so it compiles nothing.

        It raises what :meth:`derive` raises before the side conditions, in its order: the parameter set, the
        witness count, each premise index, the subject the rule's pattern builds, then the conclusion.
        """
        r = self.rules.get(rule_name)
        if r is None:
            raise InvalidDerivationError(f"{self.name} has no rule {rule_name!r}")
        if params.keys() != set(r.params):
            raise _params_mismatch(self, rule_name, params, r)
        witnesses = tuple(witnesses)
        if len(witnesses) != len(r.premises):
            raise _count_mismatch(self, rule_name, r, witnesses)
        premises = tuple([(fam, ix(params), w) for (fam, ix), w in zip(r.premises, witnesses)])
        conclusion = r.conclusion(params)
        return _new_dnode(self, r.family, rule_name, tuple([(p, params[p]) for p in r.params]), premises, conclusion)

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
        return r.compiled(self, rule_name, params, witnesses, subject)

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
            entry = r.compiled
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
    binds its parameters, runs the side conditions in order, and for each
    premise reads its index once and searches it through ``table``; a rule
    with definitions runs them after its premises, and then its side
    conditions.  Parameter ``p`` is kept in the local ``P{j}_p`` from where
    it is bound (see :func:`_local`).  Every rule expression is written in
    as its body where :func:`_inline` verifies it, each ``P["p"]`` reading
    that local, and called otherwise (:func:`_expr_src`).  A candidate with
    an expression that is called also keeps ``P{j}``, one dict of the
    parameters bound so far, made with the locals and updated with them,
    and each called expression gets that dict, as the checker hands one
    mapping to every expression of a rule instance.  Otherwise a body that
    reads ``P`` other than as ``P["p"]`` gets a dict display of the
    parameters bound where it runs, and no dict is built.  Every candidate is
    tried, and a second that applies raises :class:`OverlappingRulesError`.
    The one that applies is filled here by :func:`_instance_src`, running
    nothing again.  Only a dotted slot, which binds nothing, and each child
    link are checked, as ``derive`` checks them and before the fill: a
    child must conclude at the index its premise read, with the output
    bound, which is built only to be compared.  The premise then holds the
    child's own conclusion as its index, not a new equal tuple; ``derive``,
    which trusts no witness it is handed, stores the index it computed.
    """
    layout = table.layout
    env = {"_OUT": _OUT, "_table": table, "_ill_moded": _ill_moded, "_overlapping": _overlapping, "_unfit": _unfit, "_child_mismatch": _child_mismatch}
    src = ["def search(sig, context, subject):", "    rec, payload = subject.root.rec, subject.root.payload", "    found = None"]
    fills, output = [], f"n.conclusion[{layout.index('output')}]" if "output" in layout else "None"
    for j, (r, tests, binds, premises) in enumerate(candidates):
        env[f"_rule{j}"], env[f"_name{j}"] = r, r.name
        bound: dict = {}  # each parameter bound so far -> its local, in the order they are bound
        display = lambda: f"{{{''.join(f'{k!r}: {v}, ' for k, v in bound.items())}}}"
        own_at = _own_at(r)
        exprs = [*((fn, 1) for _, fn in (*r.side_conditions, *r.premises)), *((fn, 2) for _, fn in r.defines)]
        shared = any(_inline(fn, arity) is None for fn, arity in [*exprs, (own_at, 2) if own_at else (r.conclusion, 1)])
        P = lambda: f"P{j}" if shared else display()  # what a called expression, or a bare ``P``, gets
        mirror = lambda p: [f"P{j}[{p!r}] = {bound[p]}"] if shared else []
        read = lambda p: bound.get(p) or f"{display()}[{p!r}]"
        expr = lambda fn, key, s=None: _expr_src(fn, env, key, P(), s, read)
        sides = lambda: f"if {' and '.join(expr(pred, f'_side{j}_{i}') for i, (_, pred) in enumerate(r.side_conditions))}:"
        at = "    "
        if tests:
            src.append(f"{at}if {' and '.join(tests)}:")
            at += "    "
        src += [f"{at}{_local(bound, j, k)} = {v}" for k, v in binds if "." not in k]
        if shared:  # the one mapping each called expression of the candidate gets, kept up to date
            src.append(f"{at}P{j} = {display()}")
        if r.side_conditions and not r.defines:
            src.append(f"{at}{sides()}")
            at += "    "
        links = []  # each child concludes at the index its premise asked for, checked before the fill
        for i, (family, ix, out) in enumerate(premises):
            names = {role: f"{role}{j}_{i}" for role in layout}
            context = names.get("context", "None")
            if out is None:  # the premise fixes its output, or the layout has none
                fits = f" and (sub[0] is {names['output']} or sub[0] == {names['output']})" if "output" in layout else ""
                unbind, check, bind = [], [], [f"w{j}_{i} = sub[1]"]
                asked, differs = f"ix{j}_{i}", f"is not ix{j}_{i} and c{i} != ix{j}_{i}"
            else:  # its index is the one read, with the output bound
                o = _local(bound, j, out)
                names["output"] = "bare"
                asked = f"({', '.join(o if role == 'output' else names[role] for role in layout)}, )"
                unbind, fits, bind = [f"{o} = _OUT", *mirror(out)], "", [f"{o}, w{j}_{i} = sub", *mirror(out)]
                check = ["if bare is not _OUT:", f"    raise _ill_moded(sig, _rule{j}, {out!r})"]
                differs = f"!= {asked}"
            index = f"{', '.join(names[role] for role in layout)} = {'' if out else f'ix{j}_{i} = '}{expr(ix, f'_ix{j}_{i}')}"
            call = f"sub = _table[{family!r}, {names['subject']}.root.ctor](sig, {context}, {names['subject']})"
            src += [at + line for line in (*unbind, index, *check, call, f"if sub{fits}:", *("    " + b for b in bind))]
            at += "    "
            links += [f"if (c{i} := w{j}_{i}.root.conclusion) {differs}:", f"    raise _child_mismatch(_name{j}, {i}, {asked}, w{j}_{i})"]
        for i, (p, define) in enumerate(r.defines):
            value = expr(define, f"_def{j}_{i}", "subject")  # run before ``p`` is bound
            src += [f"{at}{_local(bound, j, p)} = {value}", *(at + m for m in mirror(p))]
        if r.side_conditions and r.defines:  # after the definitions, which they may check
            src.append(f"{at}{sides()}")
            at += "    "
        if j:
            src += [f"{at}if found is not None:", f"{at}    raise _overlapping(sig, found, _name{j})"]
        src.append(f"{at}found = _name{j}")
        last = j == len(candidates) - 1
        fills += [] if last else [f"    if found is _name{j}:"]
        at = "    " if last else "        "
        if dotted := [_fits_src(p, x, read) for p, x in binds if "." in p]:  # the nested tests name their nodes again
            fills += [f"{at}if not ({' and '.join(tests + dotted)}):", f"{at}    raise _unfit(sig, _name{j}, _rule{j})"]
        conclusion = _at_src(r, env, j, P(), "subject", read) or expr(r.conclusion, f"_conclusion{j}")
        indices = [f"c{i}" for i in range(len(premises))]  # a premise holds its child's own conclusion
        fills += [*(at + line for line in links), *_instance_src(r, env, f"_name{j}", read, indices, f"w{j}_", conclusion, "True", (), at)]
        fills.append(f"{at}return {output}, d")
    src += ["    if found is None:", "        return None", *fills]
    return run_generated("\n".join(src) + "\n", env)["search"]


def _local(names: dict, j: int, p: str) -> str:
    """The local of search candidate ``j``'s parameter ``p``, which is bound from here on: ``P{j}_p``, or ``P{j}_{n}`` for a name no identifier can hold."""
    if p not in names:
        names[p] = f"P{j}_{p}" if p.isidentifier() else f"P{j}_{len(names)}"
    return names[p]


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


def _own_at(r):
    """The ``at`` of ``r``'s conclusion if its own pattern gives the subject, else None: a copy given another keeps the one its checker builds."""
    if r.subject is not None and isinstance(r.conclusion, _AtSubject) and r.conclusion.pattern is r.subject:
        return r.conclusion.at


def _at_src(r, env, tag, P: str, s: str, local=None) -> str | None:
    """``r``'s conclusion at the subject ``s`` if :func:`_own_at` gives it."""
    if (at := _own_at(r)) is not None:
        return _expr_src(at, env, f"_at{tag}", P, s, local)


def _instance_src(r, env, rule_name: str, read, indices, w: str, conclusion: str, certified: str, checks=(), at="    "):
    """Lines filling ``n``, ``r``'s :class:`DNode`, parameter ``p`` being ``read(p)``, then ``checks`` and ``d``, its :class:`Derivation`.

    The one place that knows both layouts.  Arguments are source, and premise ``i``'s witness is ``{w}{i}``.
    """
    params = "".join(f"({p!r}, {read(p)}), " for p in r.params)
    premises = "".join(f"({fam!r}, {ix}, {w}{i}), " for i, ((fam, _), ix) in enumerate(zip(r.premises, indices, strict=True)))
    node = fill_src(DNode, "n", ["sig", repr(r.family), rule_name, f"({params})", f"({premises})", conclusion], env, at)
    return [*node, *checks, *fill_src(Derivation, "d", ["sig", "n", certified], env, at)]


def _compile_rule(r, given=()):
    """``derive`` for the rule ``r``: straight-line code, generated.

    ``derive`` is ``IndexedSignature.derive`` after the rule lookup: the
    parameter-set check, the witness count, then the premise indices and a
    :class:`DNode` with the parameter, premise and conclusion tuples
    unrolled, followed in the same body by ``_check_node``'s side
    conditions and child links, unrolled: it keeps each premise index it
    computed for that premise's child link and runs the side conditions on
    the caller's ``P``, then returns the :class:`Derivation`, certified when
    every witness is.  Given a subject, ``derive`` first tests that it fits
    the rule's pattern (see :func:`_fit_src`) and concludes with the
    conclusion's ``at`` on it; without one, ``at`` gets the subject its
    pattern builds.  It fills through :func:`_instance_src`.  Each rule
    expression is written in as its body reading the caller's ``P`` where
    :func:`_inline` verifies it, and called on ``P`` otherwise (see
    :func:`_expr_src`); rejections are raised in ``din(dnode(...))``'s
    order, with its messages.  Rules whose expressions are written in as
    the same text, with the same shape and families, generate the same
    source, which ``run_generated`` compiles once.

    Given the labels ``given``, it returns ``derive_given``: ``derive``'s
    lines without the checks of the side conditions so labelled (see
    :meth:`IndexedSignature.derive_given`).
    """
    labels = [label for label, _ in r.side_conditions]
    for label in given:
        if label not in labels:
            raise ValueError(f"rule {r.name!r} has no side condition {label!r}")
    k = len(r.premises)
    env = {
        "_DNode": DNode,
        "_rule": r,
        "_param_set": frozenset(r.params),
        "_params_mismatch": _params_mismatch,
        "_count_mismatch": _count_mismatch,
        "_side_failed": _side_failed,
        "_not_a_witness": _not_a_witness,
        "_child_mismatch": _child_mismatch,
        "_Derivation": Derivation,
        "_Term": Term,
        "_unfit": _unfit,
    }
    indices = [f"    ix{i} = {_expr_src(ix, env, f'_ix{i}', 'P')}" for i, (_, ix) in enumerate(r.premises)]
    fit, subject = "s is not None", None
    if r.subject is not None:
        env["_tsig"] = r.subject[0].sig
        fit = f"s is not None and not ({_fit_src(r.subject)})"
    if conclusion := _at_src(r, env, "", "P", "s"):  # at the subject given, else at the one its pattern builds
        env["_build"], env["_pattern"] = _build, r.subject
        subject = "s = _build(_pattern, P)"
    else:
        conclusion = _expr_src(r.conclusion, env, "_conclusion", "P")
    checks = []  # on ``P``, and on ``sig`` and each ``ix{i}`` and ``w{i}``
    for i, (label, pred) in enumerate(r.side_conditions):
        if label not in given:
            env[f"_label{i}"] = label
            checks += [f"    if not {_expr_src(pred, env, f'_side{i}', 'P')}:", f"        raise _side_failed(n, _label{i})"]
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
    name = "derive_given" if given else "derive"
    src = [
        f"def {name}(sig, rule_name, P, witnesses, s):",
        "    if P.keys() != _param_set:",
        "        raise _params_mismatch(sig, rule_name, P, _rule)",
        "    if witnesses.__class__ is not tuple:",
        "        witnesses = tuple(witnesses)",
        f"    if len(witnesses) != {k}:",
        "        raise _count_mismatch(sig, rule_name, _rule, witnesses)",
        *([f"    {''.join(f'w{i}, ' for i in range(k))}= witnesses"] if k else []),
        f"    if {fit}:",
        "        raise _unfit(sig, rule_name, _rule)",
        *indices,
        *(["    if s is None:", f"        {subject}"] if subject else []),
        *_instance_src(r, env, "rule_name", _read_P, [f"ix{i}" for i in range(k)], "w", conclusion, certified, checks),
        "    return d",
    ]
    fn = run_generated("\n".join(src) + "\n", env)[name]
    fn.__qualname__ = f"Rule({r.name!r}).{name}"
    return fn


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
    """The ``rec`` of ``hstep_once``: open, check the index (its identity first), recurse."""

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
    """One indexed Mendler step of the one-step algebra: ``hstep_once(SortedAlgebra((malg,)), w, node, recurse)``."""
    return hstep_once(SortedAlgebra((malg,)), w, node, recurse)


def ifold(malg, w, d: Derivation):
    """Indexed Mendler fold of the family-1 derivation ``d``, which must conclude at ``w``.

    It is ``hfold(1, SortedAlgebra((malg,)), w, d)``, so another family raises :class:`WrongComponentError`.
    """
    return hfold(1, SortedAlgebra((malg,)), w, d)


class WrongComponentError(Exception):
    """A fold of one family (or sort) applied to a value of another."""


def hstep_once(malg, w, node: DNode, *recurses):
    """One indexed Mendler step with a fresh brand and an index-checking ``rec`` per family.

    Family f's step is ``malg.steps[f - 1](rec_1, ..., rec_N, w, node)``.
    A node without premises is passed as it is, with :func:`_leaf_rec` for
    every family; one with premises as a copy holding their handles.
    """
    premises = node.premises
    if not premises:
        return malg.steps[node.family - 1](*[_leaf_rec] * len(recurses), w, node)
    brands = tuple([object() for _ in recurses])
    handles = tuple([(fam, ix, Handle(wit, brands[fam - 1])) for fam, ix, wit in premises])
    node = _new_dnode(node.sig, node.family, node.rule, node.params, handles, node.conclusion)
    recs = map(_index_checking_rec, brands, recurses)
    return malg.steps[node.family - 1](*recs, w, node)


def hfold(family: int, malg, w, d: Derivation):
    """Indexed Mendler fold of a family-``family`` derivation that concludes at ``w``.

    ``malg`` is a ``kernel.SortedAlgebra`` with a step per family.  Only the
    root's family and index are checked here, and each ``rec`` checks its
    child's index.  If :func:`cases` returned each step, it runs the fold
    generated from their tables.
    """
    if d.family != family:
        raise WrongComponentError(f"hfold_{family} applied to a family-{d.family} derivation")
    if (c := d.root.conclusion) is not w and c != w:
        raise WrongIndexError(f"derivation concludes {c!r}, not {w!r}")
    if fold := _table_fold(malg):
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


def _table_fold(malg):
    """The fold generated from the tables of ``malg``'s steps; None unless :func:`cases` made each."""
    steps = tuple(malg.steps)
    first = getattr(steps[0], "_cases", None) if steps else None
    if first is None or first[0] is not steps[0]:
        return None
    if (fold := first[3].get(steps)) is None:  # a kept fold's key holds the very steps it was generated for
        entries = [getattr(step, "_cases", (None,)) for step in steps]
        if any(entry[0] is not step for entry, step in zip(entries, steps)):
            return None
        fold = first[3][steps] = _compile_fold(malg, [(sig, table) for _, sig, table, _ in entries])
    return fold


def _compile_fold(malg, tables):
    """``fold(w, d)``: ``hfold(f, malg, w, d)`` past the root checks, ``tables`` being its steps' ``(sig, table)``.

    A branch per family-``f`` rule of each ``f``-th table hands a node of the rule's shape and premise families
    to its case; any other node takes the generic step.  A rule without premises gets :func:`_leaf_rec` for every
    family and issues nothing.  One with premises issues a fresh brand per family its premises are of, and a
    ``rec`` per brand, which inlines ``_index_checking_rec``'s tests, and hands its case a copy of the node
    holding the premise handles, built as ``mfold`` builds handles; a family it has no premise of gets ``_leaf_rec``.
    """
    families = range(1, len(tables) + 1)
    env = dict(_object=object, _new_object=object.__new__, _Handle=Handle, _ForeignHandleError=ForeignHandleError,
               _FOREIGN_HANDLE=_FOREIGN_HANDLE, _wrong_index=_wrong_index, _leaf_rec=_leaf_rec, _malg=malg,
               _generic=hstep_once)
    src = ["def fold(w, d):", "    n = d.root", "    premises = n.premises"]
    for f, (sig, table) in enumerate(tables, 1):
        env[f"_sig{f}"] = sig
        src += [f"    {'elif' if f > 1 else 'if'} n.sig is _sig{f} and n.family == {f}:", "        rule = n.rule"]
        fits = lambda r: r.family == f and all(0 < fam <= len(tables) for fam, _ in r.premises)
        for j, r in enumerate(filter(fits, sig.rules.values())):
            env[f"_case{f}_{j}"], env[f"_rule{f}_{j}"], k = table[r.name], r.name, len(r.premises)
            shape = f"len(premises) == {k}" if k else "not premises"
            src += [f"        {'elif' if j else 'if'} rule == _rule{f}_{j}:", f"            if {shape}:"]
            at = "                "
            if not k:
                src.append(f"{at}return _case{f}_{j}({'_leaf_rec, ' * len(families)}w, n)")
                continue
            src.append(f"{at}{''.join(f'(f{i}, ix{i}, w{i}), ' for i in range(k))}= premises")
            src.append(f"{at}if {' and '.join(f'f{i} == {fam}' for i, (fam, _) in enumerate(r.premises))}:")
            at += "    "
            used = sorted({fam for fam, _ in r.premises})
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
            for i, (fam, _) in enumerate(r.premises):
                src += [f"{at}h{i} = _new_object(_Handle)", f"{at}h{i}._value = w{i}", f"{at}h{i}._brand = b{fam}"]
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
