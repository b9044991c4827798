"""Generated constructors equal the node-plus-``in_`` composition they stand for.

``Signature.constructor(ctor)`` is ``in_(sig.node(ctor, slots))`` in one
call, and on a coproduct tag ``in_(inject_*(csig, summand.node(...)))``;
``BiSignature.constructor(component, ctor)`` is
``in_bi(sig.node(component, ctor, slots))``.  Every slot tuple drawn from a
pool of good and bad values must give the same term, or the same exception
type with the same text, both ways.
"""

import itertools

import pytest

from alacarte import arith, kernel
from alacarte.arith import ADD, LIT, TRM, TRM_G1, TRM_G2
from alacarte.kernel import (
    MalformedNodeError,
    Signature,
    in_,
    inject_left,
    inject_right,
    register_payload_kind,
)
from alacarte.lang_l import LANG, EMPTY_ENV, Env, PApp, PCon, PVar, Ty, syntax
from alacarte.mutual import BiSignature, in_bi

from test_node_rejection import BIMIXED, MIXED


def node_in(sig, ctor):
    return lambda *slots: in_(sig.node(ctor, slots))


def inject_in(csig, tag):
    side, name = csig._untag[tag]
    summand, inject = ((csig.left, inject_left), (csig.right, inject_right))[side]
    return lambda *slots: in_(inject(csig, summand.node(name, slots)))


def node_in_bi(sig, component, ctor):
    return lambda *slots: in_bi(sig.node(component, ctor, slots))


def outcome(build, slots):
    try:
        return "term", build(*slots)
    except Exception as exc:  # the exception type and text are what is compared
        return type(exc), str(exc)


# terms of every signature and component in play, plus values no slot takes
A, B = Ty("a"), Ty("b")
EXP = syntax.cn("c", A)
DEC = syntax.env_(EMPTY_ENV)
MIXED_Q = in_(MIXED.node("q"))
BI_Z = in_bi(BIMIXED.node(1, "z"))
BI_E = in_bi(BIMIXED.node(2, "e", (BI_Z,)))
POOL = [
    5,
    None,
    True,
    1.0,
    "",
    "x",
    A,
    {},
    EMPTY_ENV,
    Env([("x", EXP)]),
    PVar("y", A),
    arith.lit(1),
    in_(TRM_G1.node("lit", (2,))),
    MIXED_Q,
    EXP,
    DEC,
    BI_Z,
    BI_E,
]

# (name, generated constructor, the composition it stands for)
CONSTRUCTORS = [
    ("TRM.lit", TRM.constructor(LIT), inject_in(TRM, LIT)),
    ("TRM.add", TRM.constructor(ADD), inject_in(TRM, ADD)),
    ("TRM_G1.lit", TRM_G1.constructor("lit"), node_in(TRM_G1, "lit")),
    ("TRM_G2.add", TRM_G2.constructor("add"), node_in(TRM_G2, "add")),
    ("MIXED.p", MIXED.constructor("p"), node_in(MIXED, "p")),
    ("MIXED.q", MIXED.constructor("q"), node_in(MIXED, "q")),
    ("BIMIXED.d", BIMIXED.constructor(1, "d"), node_in_bi(BIMIXED, 1, "d")),
    ("BIMIXED.z", BIMIXED.constructor(1, "z"), node_in_bi(BIMIXED, 1, "z")),
    ("BIMIXED.e", BIMIXED.constructor(2, "e"), node_in_bi(BIMIXED, 2, "e")),
    ("env_", syntax.env_, node_in_bi(LANG, 1, "env")),
    ("match", LANG.constructor(1, "match"), node_in_bi(LANG, 1, "match")),
    ("join_", syntax.join_, node_in_bi(LANG, 1, "join")),
    ("vr", syntax.vr, node_in_bi(LANG, 2, "vr")),
    ("cn", syntax.cn, node_in_bi(LANG, 2, "cn")),
    ("closure", LANG.constructor(2, "closure"), node_in_bi(LANG, 2, "closure")),
    ("apply_", syntax.apply_, node_in_bi(LANG, 2, "apply")),
    ("scope", syntax.scope, node_in_bi(LANG, 2, "scope")),
]

# one valid slot tuple per constructor, so every pool value is tried beside
# good ones; ``trm_g2`` alone has no leaf, so no slot tuple of its ``add`` is valid
VALID = {
    "TRM.lit": (-4,),
    "TRM.add": (arith.lit(1), arith.add(arith.lit(2), arith.lit(3))),
    "TRM_G1.lit": (0,),
    "TRM_G2.add": None,
    "MIXED.p": (1, MIXED_Q, "x"),
    "MIXED.q": (),
    "BIMIXED.d": (1, BI_E, "x"),
    "BIMIXED.z": (),
    "BIMIXED.e": (BI_Z,),
    "env_": (Env([("x", EXP), ("y", syntax.vr("z"))]),),
    "match": (PApp(PCon("k", A), PVar("x", B)), EXP),
    "join_": (DEC, syntax.join_(DEC, DEC)),
    "vr": ("x",),
    "cn": ("c", A),
    "closure": (Env([("x", EXP)]), PVar("y", A), syntax.vr("y")),
    "apply_": (syntax.vr("f"), EXP),
    "scope": (DEC, EXP),
}

IDS = [name for name, _, _ in CONSTRUCTORS]
BUILDABLE = [case for case in CONSTRUCTORS if VALID[case[0]] is not None]


@pytest.mark.parametrize("name, make, composition", BUILDABLE, ids=[c[0] for c in BUILDABLE])
def test_valid_slots_give_the_composed_term(name, make, composition):
    slots = VALID[name]
    got = make(*slots)
    assert got == composition(*slots)
    assert repr(got) == repr(composition(*slots))
    assert type(got.root) is type(composition(*slots).root)


@pytest.mark.parametrize("name, make, composition", CONSTRUCTORS, ids=IDS)
def test_every_slot_tuple_from_the_pool_agrees(name, make, composition):
    """Each position takes its valid value or any pool value; every tuple agrees."""
    valid = VALID[name]
    choices = [POOL, POOL] if valid is None else [[good, *POOL] for good in valid]
    outcomes = {"term": 0, MalformedNodeError: 0}
    for slots in itertools.product(*choices):
        mine, theirs = outcome(make, slots), outcome(composition, slots)
        assert mine == theirs, slots
        outcomes[mine[0]] += 1
    assert outcomes[MalformedNodeError] or not valid
    assert outcomes["term"] or valid is None


def test_rejections_name_the_summand_for_payloads_and_the_coproduct_for_slots():
    def rejects(build, message):
        with pytest.raises(MalformedNodeError) as info:
            build()
        assert str(info.value) == message

    rejects(lambda: TRM.constructor(LIT)(True), "trm_g1.lit: True is not a valid 'int' payload")
    rejects(
        lambda: TRM.constructor(ADD)(arith.lit(1), 5),
        "(trm_g1+trm_g2).inr:add: recursive slot 5 is not a term of this signature",
    )
    rejects(lambda: syntax.scope(1, 2), "lang_l.scope: slot 1 is not a component-1 term")
    rejects(lambda: syntax.cn("", "t"), "lang_l.cn: '' is not a valid 'id' payload")
    rejects(lambda: TRM.constructor("lit"), "(trm_g1+trm_g2) has no constructor 'lit'")
    rejects(lambda: LANG.constructor(1, "vr"), "lang_l component 1 has no constructor 'vr'")


def test_constructors_keep_their_names():
    names = {
        syntax.env_: "env_",
        syntax.join_: "join_",
        syntax.vr: "vr",
        syntax.cn: "cn",
        syntax.apply_: "apply_",
        syntax.scope: "scope",
    }
    for fn, name in names.items():
        assert (fn.__name__, fn.__qualname__) == (name, name)
    assert MIXED.constructor("p").__name__ == "p"
    assert MIXED.constructor("p", "make_p").__name__ == "make_p"


def test_match_and_closure_check_linearity_before_building():
    from alacarte.lang_l import DuplicateBindingError

    nonlinear = PApp(PVar("x", A), PVar("x", A))
    with pytest.raises(DuplicateBindingError):
        syntax.match_(nonlinear, 5)  # the pattern is rejected before the bad slot
    with pytest.raises(DuplicateBindingError):
        syntax.closure({}, nonlinear, EXP)
    p = PVar("x", A)
    assert syntax.match_(p, EXP) == in_bi(LANG.node(1, "match", (p, EXP)))
    assert syntax.closure(EMPTY_ENV, p, EXP) == in_bi(LANG.node(2, "closure", (EMPTY_ENV, p, EXP)))


def test_a_payload_kind_re_registered_after_its_constructor_is_honoured():
    register_payload_kind("probe", lambda v: v == 1)
    try:
        sig = Signature("probed", {"p": ("probe",)})
        bisig = BiSignature("biprobed", {"p": ("probe",)}, {})
        make, bimake = sig.constructor("p"), bisig.constructor(1, "p")
        assert make(1).root.payload == bimake(1).root.payload == (1,)
        register_payload_kind("probe", lambda v: v == 2)
        for build, name in ((make, "probed"), (bimake, "biprobed")):
            with pytest.raises(MalformedNodeError) as info:
                build(1)
            assert str(info.value) == f"{name}.p: 1 is not a valid 'probe' payload"
        assert make(2) == in_(sig.node("p", (2,)))
        assert bimake(2) == in_bi(bisig.node(1, "p", (2,)))
    finally:
        kernel._PAYLOAD_KINDS.pop("probe", None)


def test_a_wrong_slot_count_is_a_type_error_naming_the_constructor():
    for name, make, _ in CONSTRUCTORS:
        arity = 2 if VALID[name] is None else len(VALID[name])
        with pytest.raises(TypeError, match=rf"^{make.__name__}\(\) takes {arity} positional"):
            make(*(EXP,) * (arity + 1))


def test_constructors_of_one_shape_share_one_compiled_code():
    assert MIXED.constructor("p").__code__ is MIXED.constructor("p", "other").__code__
    twin = Signature("twin", {"p": ("int", "rec", "id"), "q": ()})
    assert twin.constructor("p").__code__ is MIXED.constructor("p").__code__
    leaf = in_(twin.node("q"))
    assert twin.constructor("p")(1, leaf, "x") == in_(twin.node("p", (1, leaf, "x")))
