"""The construction contract of every immutable value class.

Each class is a frozen, slotted dataclass: positional and keyword
construction with the declared parameters, value equality (field by
field, in declaration order, each field identity first) and hashing,
the dataclass ``repr``, ``dataclasses.replace``, copying, pickling and
``match`` all behave as the dataclass defines them, and no name, field or
not, can be assigned or deleted.  ``init=False`` fields (the ``dnode``
stamp and the ``din`` certificate) are stored with their defaults on
hand-built values.
"""

import copy
import dataclasses
import inspect
import io
import pickle

import pytest

from alacarte.arith import TRM_G1, TRM_G2, N, TypN, Val
from alacarte.indexed import DNode, Derivation, IndexedSignature, din, rule
from alacarte.kernel import Node, Signature, Term, value_class
from alacarte.lang_l import LANG
from alacarte.lang_l.syntax import Arrow, Env, PApp, PCon, PVar, Ty, TypeEnv
from alacarte.mutual import BiDerivation, BiDNode, BiSignature, IndexedBiSignature, birule

REL = IndexedSignature("rel", [rule("r", params=("x",), conclusion=lambda P: P["x"])])
BIREL = IndexedBiSignature("birel", [birule(1, "b", params=("x",), conclusion=lambda P: P["x"])])


def _node():
    return Node(TRM_G1, "lit", (), (3,))


def _dnode():
    return DNode(REL, 1, "r", (("x", 1),), (), 1)


def _binode():
    """A node of the two-sort ``LANG``: the same class as a one-sort node."""
    return Node(LANG, "vr", (), ("x",))


def _bidnode():
    return BiDNode(BIREL, 1, "b", (("x", 1),), (), 1)


# case -> (class, parameter names, factory of a fresh sample, the sample's repr)
SAMPLES = {
    "Node": (
        Node,
        ("sig", "ctor", "rec", "payload"),
        _node,
        "Node(sig=<Signature trm_g1>, ctor='lit', rec=(), payload=(3,))",
    ),
    "Term": (
        Term,
        ("sig", "root"),
        lambda: Term(TRM_G1, _node()),
        "Term(sig=<Signature trm_g1>, root=Node(sig=<Signature trm_g1>, ctor='lit', rec=(), payload=(3,)))",
    ),
    "DNode": (
        DNode,
        ("sig", "family", "rule", "params", "premises", "conclusion"),
        _dnode,
        "DNode(sig=<IndexedSignature rel>, family=1, rule='r', params=(('x', 1),), premises=(), conclusion=1)",
    ),
    "Derivation": (
        Derivation,
        ("sig", "root"),
        lambda: Derivation(REL, _dnode()),
        "Derivation(sig=<IndexedSignature rel>, root=DNode(sig=<IndexedSignature rel>, family=1, "
        "rule='r', params=(('x', 1),), premises=(), conclusion=1))",
    ),
    "BiNode": (
        Node,
        ("sig", "ctor", "rec", "payload"),
        _binode,
        "Node(sig=<BiSignature lang_l>, ctor='vr', rec=(), payload=('x',))",
    ),
    "BiTerm": (
        Term,
        ("sig", "root"),
        lambda: Term(LANG, _binode()),
        "Term(sig=<BiSignature lang_l>, root=Node(sig=<BiSignature lang_l>, ctor='vr', rec=(), payload=('x',)))",
    ),
    "BiDNode": (
        BiDNode,
        ("sig", "family", "rule", "params", "premises", "conclusion"),
        _bidnode,
        "DNode(sig=<IndexedBiSignature birel>, family=1, rule='b', params=(('x', 1),), "
        "premises=(), conclusion=1)",
    ),
    "BiDerivation": (
        BiDerivation,
        ("sig", "root"),
        lambda: BiDerivation(BIREL, _bidnode()),
        "Derivation(sig=<IndexedBiSignature birel>, root=DNode(sig=<IndexedBiSignature "
        "birel>, family=1, rule='b', params=(('x', 1),), premises=(), conclusion=1))",
    ),
    "Val": (Val, ("vv",), lambda: Val(3), "Val(vv=3)"),
    "TypN": (TypN, (), TypN, "TypN()"),
    "Ty": (Ty, ("name",), lambda: Ty("a"), "Ty(name='a')"),
    "Arrow": (
        Arrow,
        ("dom", "cod"),
        lambda: Arrow(Ty("a"), Ty("b")),
        "Arrow(dom=Ty(name='a'), cod=Ty(name='b'))",
    ),
    "TypeEnv": (TypeEnv, ("env",), lambda: TypeEnv(Env([("x", Ty("a"))])), "TypeEnv(env={x: Ty(name='a')})"),
    "PVar": (PVar, ("x", "typ"), lambda: PVar("x", Ty("a")), "PVar(x='x', typ=Ty(name='a'))"),
    "PCon": (PCon, ("x", "typ"), lambda: PCon("c", Ty("a")), "PCon(x='c', typ=Ty(name='a'))"),
    "PApp": (
        PApp,
        ("fn", "arg"),
        lambda: PApp(PCon("c", Ty("a")), PVar("x", Ty("b"))),
        "PApp(fn=PCon(x='c', typ=Ty(name='a')), arg=PVar(x='x', typ=Ty(name='b')))",
    ),
}
CASES = list(SAMPLES)
CLASSES = list(dict.fromkeys(cls for cls, *_ in SAMPLES.values()))


def fields_of(value):
    return tuple(getattr(value, name) for name in SAMPLES[type(value).__name__][1])


def pickle_roundtrip(value):
    """Pickle and unpickle ``value``, keeping signatures (which compare by identity) shared."""
    shared = {}

    class Keep(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, (Signature, BiSignature, IndexedSignature)):
                shared[id(obj)] = obj
                return id(obj)
            return None

    class Load(pickle.Unpickler):
        def persistent_load(self, pid):
            return shared[pid]

    buf = io.BytesIO()
    Keep(buf).dump(value)
    return Load(io.BytesIO(buf.getvalue())).load()


def test_every_value_class_is_a_frozen_slotted_dataclass():
    for cls in CLASSES:
        assert dataclasses.is_dataclass(cls)
        assert cls.__dataclass_params__.frozen
        assert "__slots__" in vars(cls)


@pytest.mark.parametrize("case", CASES)
def test_parameters_and_match_args(case):
    cls, names, _, _ = SAMPLES[case]
    assert tuple(inspect.signature(cls).parameters) == names
    assert cls.__match_args__ == names
    assert tuple(f.name for f in dataclasses.fields(cls) if f.init) == names


@pytest.mark.parametrize("case", CASES)
def test_positional_and_keyword_construction_agree(case):
    cls, names, make, _ = SAMPLES[case]
    args = fields_of(make())
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert by_position == by_keyword
    assert fields_of(by_position) == fields_of(by_keyword) == args
    with pytest.raises(TypeError):
        cls(*args, None)
    if names:
        with pytest.raises(TypeError):
            cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(*args, **{names[0]: args[0]})


@pytest.mark.parametrize("case", CASES)
def test_eq_hash_repr_match_an_independent_instance(case):
    cls, _, make, expected_repr = SAMPLES[case]
    a, b = make(), make()
    assert a is not b
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert repr(a) == repr(b) == expected_repr


@pytest.mark.parametrize("case", CASES)
def test_fields_can_be_neither_assigned_nor_deleted(case):
    cls, names, make, _ = SAMPLES[case]
    value = make()
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    for name in ("not_a_field", "__dict__"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert value == make()


@pytest.mark.parametrize("case", CASES)
def test_replace_copy_and_pickle_round_trips(case):
    cls, names, make, expected_repr = SAMPLES[case]
    value = make()
    for twin in (
        dataclasses.replace(value),
        dataclasses.replace(value, **{n: getattr(value, n) for n in names}),
        copy.copy(value),
        pickle_roundtrip(value),
    ):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == expected_repr
    if names:
        changed = dataclasses.replace(value, **{names[-1]: None})
        assert getattr(changed, names[-1]) is None
        assert fields_of(changed)[:-1] == fields_of(value)[:-1]


def _match(value):
    """The positional captures of ``value``'s class pattern."""
    match value:
        case Node(sig, ctor, rec, payload):
            return sig, ctor, rec, payload
        case Term(sig, root):
            return sig, root
        case DNode(sig, family, name, params, premises, conclusion):
            return sig, family, name, params, premises, conclusion
        case Derivation(sig, root):
            return sig, root
        case Val(vv):
            return (vv,)
        case TypN():
            return ()
        case Ty(name):
            return (name,)
        case Arrow(dom, cod):
            return dom, cod
        case TypeEnv(env):
            return (env,)
        case PVar(x, typ):
            return "PVar", x, typ
        case PCon(x, typ):
            return "PCon", x, typ
        case PApp(fn, arg):
            return fn, arg
    return None


@pytest.mark.parametrize("case", CASES)
def test_match_binds_the_fields_in_order(case):
    cls, _, make, _ = SAMPLES[case]
    value = make()
    captured = _match(value)
    if cls in (PVar, PCon):
        assert captured == (cls.__name__, *fields_of(value))
    else:
        assert captured == fields_of(value)


def test_hand_built_relation_values_carry_no_stamp_or_certificate():
    for make in (_dnode, _bidnode):
        assert make()._rule is None
    for d in (SAMPLES["Derivation"][2](), SAMPLES["BiDerivation"][2]()):
        assert d._certified is False
    with pytest.raises(TypeError):
        DNode(REL, 1, "r", (("x", 1),), (), 1, _rule=None)
    with pytest.raises(TypeError):
        BiDerivation(BIREL, _bidnode(), _certified=True)


def test_stamp_and_certificate_are_invisible_and_replace_drops_them():
    stamped = REL.dnode("r", {"x": 1})
    assert stamped._rule is REL.rules["r"]
    assert stamped == _dnode() and hash(stamped) == hash(_dnode()) and repr(stamped) == repr(_dnode())
    assert copy.copy(stamped)._rule is stamped._rule
    assert dataclasses.replace(stamped)._rule is None
    certified = din(stamped)
    assert certified._certified is True
    assert certified == Derivation(REL, _dnode())
    assert copy.copy(certified)._certified is True
    assert dataclasses.replace(certified)._certified is False


def test_the_numeric_type_is_a_value():
    assert N == TypN() and hash(N) == hash(TypN())


# ---------------------------------------------------------------------------
# the decorator itself, beside the dataclass it stands for


def _twins():
    """The same class body under ``value_class`` and under the dataclass."""

    def body():
        class Probe:
            a: int
            b: int
            stamp: object = dataclasses.field(default=None, init=False, compare=False)

        return Probe

    return value_class(body()), dataclasses.dataclass(frozen=True, slots=True)(body())


def test_value_class_takes_the_dataclass_parameters():
    ours, theirs = _twins()
    assert inspect.signature(ours) == inspect.signature(theirs)
    assert ours.__init__.__qualname__ == "_twins.<locals>.body.<locals>.Probe.__init__"
    for args, kwargs in (((1, 2), {}), ((), {"a": 1, "b": 2}), ((1,), {"b": 2})):
        x, y = ours(*args, **kwargs), theirs(*args, **kwargs)
        assert (x.a, x.b, x.stamp) == (y.a, y.b, y.stamp) == (1, 2, None)
        assert repr(x) == repr(y) == "_twins.<locals>.body.<locals>.Probe(a=1, b=2, stamp=None)"
    for bad in ((1,), (1, 2, 3)):
        with pytest.raises(TypeError):
            ours(*bad)
        with pytest.raises(TypeError):
            theirs(*bad)


def test_value_class_refuses_what_its_init_does_not_reproduce():
    class Defaulted:
        a: int = 1

    class Factory:
        a: list = dataclasses.field(default_factory=list, init=False)

    class Unset:
        a: int = dataclasses.field(init=False)

    class PostInit:
        a: int

        def __post_init__(self):
            pass

    class KeywordOnly:
        a: int = dataclasses.field(kw_only=True)

    class WithInitVar:
        a: int
        b: dataclasses.InitVar[int]

    for cls in (Defaulted, Factory, Unset, PostInit, KeywordOnly, WithInitVar):
        with pytest.raises(TypeError, match="value class"):
            value_class(cls)


# ---------------------------------------------------------------------------
# equality field by field

OTHER_REL = IndexedSignature("other", [rule("s", params=("y",), conclusion=lambda P: P["y"])])
OTHER_BIREL = IndexedBiSignature("otherbi", [birule(1, "c", params=("y",), conclusion=lambda P: P["y"])])
OTHER_BISIG = BiSignature("otherbisig", {"a": ()}, {"b": ()})

# case -> per parameter, a value that differs from the sample's
OTHER = {
    "Node": (TRM_G2, "add", (1,), (4,)),
    "Term": (TRM_G2, Node(TRM_G1, "lit", (), (4,))),
    "DNode": (OTHER_REL, 2, "s", (("x", 2),), ((1, 1, None),), 2),
    "Derivation": (OTHER_REL, DNode(REL, 1, "r", (("x", 2),), (), 2)),
    "BiNode": (OTHER_BISIG, "cn", (1,), ("y",)),
    "BiTerm": (OTHER_BISIG, Node(LANG, "vr", (), ("y",))),
    "BiDNode": (OTHER_BIREL, 2, "c", (("x", 2),), ((1, 1, None),), 2),
    "BiDerivation": (OTHER_BIREL, BiDNode(BIREL, 1, "b", (("x", 2),), (), 2)),
    "Val": (4,),
    "TypN": (),
    "Ty": ("b",),
    "Arrow": (Ty("b"), Ty("a")),
    "TypeEnv": (Env([("x", Ty("b"))]),),
    "PVar": ("y", Ty("b")),
    "PCon": ("d", Ty("b")),
    "PApp": (PCon("d", Ty("a")), PVar("y", Ty("b"))),
}


def test_every_case_has_an_other_value_per_parameter():
    assert list(OTHER) == CASES
    for case, (_, names, make, _) in SAMPLES.items():
        assert len(OTHER[case]) == len(names)
        assert all(other != value for other, value in zip(OTHER[case], fields_of(make())))


@pytest.mark.parametrize("case", CASES)
def test_changing_any_one_compared_field_makes_the_values_unequal(case):
    cls, names, make, _ = SAMPLES[case]
    value = make()
    for name, other in zip(names, OTHER[case]):
        changed = dataclasses.replace(value, **{name: other})
        for a, b in ((value, changed), (changed, value)):
            assert a.__eq__(b) is False
            assert (a == b) is False and (a != b) is True


@pytest.mark.parametrize("case", CASES)
def test_equality_is_reflexive_and_returns_a_bool_or_not_implemented(case):
    cls, _, make, _ = SAMPLES[case]
    a, b = make(), make()
    assert a.__eq__(a) is True and (a == a) is True
    assert a.__eq__(b) is True and b.__eq__(a) is True
    assert a.__eq__(object()) is NotImplemented
    assert a.__eq__(None) is NotImplemented
    assert (a == object()) is False and (a != object()) is True


def test_a_subclass_instance_is_not_equal_to_its_base():
    class Sub(Val):
        __slots__ = ()

    assert Val(3).__eq__(Sub(3)) is NotImplemented and Sub(3).__eq__(Val(3)) is NotImplemented
    assert Val(3) != Sub(3)


@pytest.mark.parametrize("case", ["DNode", "BiDNode", "Derivation", "BiDerivation"])
def test_the_stamp_and_the_certificate_take_no_part_in_equality(case):
    cls, _, make, _ = SAMPLES[case]
    hidden = "_rule" if case.endswith("DNode") else "_certified"
    a, b = make(), make()
    vars(cls)[hidden].__set__(a, object())
    assert getattr(a, hidden) is not getattr(b, hidden)
    assert a.__eq__(b) is True and b.__eq__(a) is True and hash(a) == hash(b)


def test_fields_compare_in_declaration_order_each_identity_first():
    """A field equal to itself by identity is equal even when its ``==`` says not."""
    calls = []

    class Probe:
        def __init__(self, name, equal):
            self.name, self.equal = name, equal

        def __eq__(self, other):
            calls.append(self.name)
            return self.equal

        __hash__ = object.__hash__

    nan = float("nan")
    assert Arrow(nan, Ty("a")) == Arrow(nan, Ty("a"))
    first, second = Probe("dom", []), Probe("cod", 1)
    assert Arrow(first, second).__eq__(Arrow(Probe("x", 0), second)) is False
    assert calls == ["dom"]
    calls.clear()
    assert Arrow(Probe("dom", "yes"), Probe("cod", 1)).__eq__(Arrow(Ty("a"), Ty("b"))) is True
    assert calls == ["dom", "cod"]


def test_value_class_refuses_a_class_with_its_own_eq():
    class OwnEq:
        a: int

        def __eq__(self, other):
            return True

    with pytest.raises(TypeError, match="value class generates its own __eq__"):
        value_class(OwnEq)


def test_generated_eq_matches_the_dataclass_eq_on_mixed_pairs():
    ours, theirs = _twins()
    values = [(1, 2), (1, 3), (2, 2), (1.0, 2), (float("nan"), 2), (True, 2)]
    for x in values:
        for y in values:
            a, b = ours(*x), ours(*y)
            c, d = theirs(*x), theirs(*y)
            assert a.__eq__(b) is c.__eq__(d)
            assert (a == b) is (c == d) and (a != b) is (c != d)
    shared = float("nan")
    assert ours(shared, 1) == ours(shared, 1) and theirs(shared, 1) == theirs(shared, 1)
    assert ours(1, 2).__eq__(theirs(1, 2)) is NotImplemented
