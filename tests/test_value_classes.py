"""The construction contract of every immutable value class.

Each class is a frozen, slotted dataclass: positional and keyword
construction with the declared parameters, value equality and hashing,
the dataclass ``repr``, ``dataclasses.replace``, copying, pickling and
``match`` all behave as the dataclass defines them, and no field can be
assigned or deleted.  ``init=False`` fields (the ``dnode`` stamp and the
``din`` certificate) are stored with their defaults on hand-built values.
"""

import copy
import dataclasses
import inspect
import io
import pickle

import pytest

from alacarte.arith import TRM_G1, N, TypN, Val
from alacarte.indexed import DNode, Derivation, IndexedSignature, din, rule
from alacarte.kernel import Node, Signature, Term, value_class
from alacarte.lang_l import LANG
from alacarte.lang_l.syntax import Arrow, Env, PApp, PCon, PVar, Ty, TypeEnv
from alacarte.mutual import BiDerivation, BiDNode, BiNode, BiSignature, BiTerm, IndexedBiSignature, birule

REL = IndexedSignature("rel", [rule("r", params=("x",), conclusion=lambda P: P["x"])])
BIREL = IndexedBiSignature("birel", [birule(1, "b", params=("x",), conclusion=lambda P: P["x"])])


def _node():
    return Node(TRM_G1, "lit", (), (3,))


def _dnode():
    return DNode(REL, "r", (("x", 1),), (), 1)


def _binode():
    return BiNode(LANG, 2, "vr", (), (), ("x",))


def _bidnode():
    return BiDNode(BIREL, 1, "b", (("x", 1),), (), 1)


# class -> (parameter names, factory of a fresh sample, the sample's repr)
SAMPLES = {
    Node: (
        ("sig", "ctor", "rec", "payload"),
        _node,
        "Node(sig=<Signature trm_g1>, ctor='lit', rec=(), payload=(3,))",
    ),
    Term: (
        ("sig", "root"),
        lambda: Term(TRM_G1, _node()),
        "Term(sig=<Signature trm_g1>, root=Node(sig=<Signature trm_g1>, ctor='lit', rec=(), payload=(3,)))",
    ),
    DNode: (
        ("sig", "rule", "params", "premises", "conclusion"),
        _dnode,
        "DNode(sig=<IndexedSignature rel>, rule='r', params=(('x', 1),), premises=(), conclusion=1)",
    ),
    Derivation: (
        ("sig", "root"),
        lambda: Derivation(REL, _dnode()),
        "Derivation(sig=<IndexedSignature rel>, root=DNode(sig=<IndexedSignature rel>, rule='r', "
        "params=(('x', 1),), premises=(), conclusion=1))",
    ),
    BiNode: (
        ("sig", "component", "ctor", "rec1", "rec2", "payload"),
        _binode,
        "BiNode(sig=<BiSignature lang_l>, component=2, ctor='vr', rec1=(), rec2=(), payload=('x',))",
    ),
    BiTerm: (
        ("sig", "component", "root"),
        lambda: BiTerm(LANG, 2, _binode()),
        "BiTerm(sig=<BiSignature lang_l>, component=2, root=BiNode(sig=<BiSignature lang_l>, "
        "component=2, ctor='vr', rec1=(), rec2=(), payload=('x',)))",
    ),
    BiDNode: (
        ("sig", "family", "rule", "params", "premises", "conclusion"),
        _bidnode,
        "BiDNode(sig=<IndexedBiSignature birel>, family=1, rule='b', params=(('x', 1),), "
        "premises=(), conclusion=1)",
    ),
    BiDerivation: (
        ("sig", "family", "root"),
        lambda: BiDerivation(BIREL, 1, _bidnode()),
        "BiDerivation(sig=<IndexedBiSignature birel>, family=1, root=BiDNode(sig=<IndexedBiSignature "
        "birel>, family=1, rule='b', params=(('x', 1),), premises=(), conclusion=1))",
    ),
    Val: (("vv",), lambda: Val(3), "Val(vv=3)"),
    TypN: ((), TypN, "TypN()"),
    Ty: (("name",), lambda: Ty("a"), "Ty(name='a')"),
    Arrow: (
        ("dom", "cod"),
        lambda: Arrow(Ty("a"), Ty("b")),
        "Arrow(dom=Ty(name='a'), cod=Ty(name='b'))",
    ),
    TypeEnv: (("env",), lambda: TypeEnv(Env([("x", Ty("a"))])), "TypeEnv(env={x: Ty(name='a')})"),
    PVar: (("x", "typ"), lambda: PVar("x", Ty("a")), "PVar(x='x', typ=Ty(name='a'))"),
    PCon: (("x", "typ"), lambda: PCon("c", Ty("a")), "PCon(x='c', typ=Ty(name='a'))"),
    PApp: (
        ("fn", "arg"),
        lambda: PApp(PCon("c", Ty("a")), PVar("x", Ty("b"))),
        "PApp(fn=PCon(x='c', typ=Ty(name='a')), arg=PVar(x='x', typ=Ty(name='b')))",
    ),
}
CLASSES = list(SAMPLES)
ids = [cls.__name__ for cls in CLASSES]


def fields_of(value):
    return tuple(getattr(value, name) for name in SAMPLES[type(value)][0])


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


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_parameters_and_match_args(cls):
    names, _, _ = SAMPLES[cls]
    assert tuple(inspect.signature(cls).parameters) == names
    assert cls.__match_args__ == names
    assert tuple(f.name for f in dataclasses.fields(cls) if f.init) == names


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_positional_and_keyword_construction_agree(cls):
    names, make, _ = SAMPLES[cls]
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


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_eq_hash_repr_match_an_independent_instance(cls):
    _, make, expected_repr = SAMPLES[cls]
    a, b = make(), make()
    assert a is not b
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert repr(a) == repr(b) == expected_repr


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    names, make, _ = SAMPLES[cls]
    value = make()
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    # FrozenInstanceError is an AttributeError; Python 3.11 raises TypeError here
    with pytest.raises((AttributeError, TypeError)):
        value.not_a_field = None
    assert value == make()


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_replace_copy_and_pickle_round_trips(cls):
    names, make, expected_repr = SAMPLES[cls]
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
        case DNode(sig, name, params, premises, conclusion):
            return sig, name, params, premises, conclusion
        case Derivation(sig, root):
            return sig, root
        case BiNode(sig, component, ctor, rec1, rec2, payload):
            return sig, component, ctor, rec1, rec2, payload
        case BiTerm(sig, component, root):
            return sig, component, root
        case BiDNode(sig, family, name, params, premises, conclusion):
            return sig, family, name, params, premises, conclusion
        case BiDerivation(sig, family, root):
            return sig, family, root
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


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_match_binds_the_fields_in_order(cls):
    value = SAMPLES[cls][1]()
    captured = _match(value)
    if cls in (PVar, PCon):
        assert captured == (cls.__name__, *fields_of(value))
    else:
        assert captured == fields_of(value)


def test_hand_built_relation_values_carry_no_stamp_or_certificate():
    for make in (_dnode, _bidnode):
        assert make()._rule is None
    for d in (SAMPLES[Derivation][1](), SAMPLES[BiDerivation][1]()):
        assert d._certified is False
    with pytest.raises(TypeError):
        DNode(REL, "r", (("x", 1),), (), 1, _rule=None)
    with pytest.raises(TypeError):
        BiDerivation(BIREL, 1, _bidnode(), _certified=True)


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
