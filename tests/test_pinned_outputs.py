"""Pinned outputs of the term core: term JSON and signature JSON.

Each value below is the exact output the library gives; any change to the
term representation must leave them byte-for-byte as they are.
"""

import json

import pytest

from alacarte.arith import TRM
from alacarte.kernel import signature_to_json
from alacarte.lang_l import EMPTY_ENV, LANG, Env, PApp, PCon, PVar, Ty, syntax
from alacarte.lang_l.syntax import Arrow
from alacarte.mutual import bisignature_to_json, biterm_to_json

A, B = Ty("a"), Ty("b")


def lang_terms():
    """One term per ``LANG`` constructor, with every payload kind in play."""
    c = syntax.cn("c", Arrow(A, B))
    return {
        "env": syntax.env_(Env([("x", syntax.cn("k", A)), ("y", syntax.vr("z"))])),
        "match": syntax.match_(PApp(PCon("k", Arrow(A, B)), PVar("x", A)), syntax.vr("x")),
        "join": syntax.join_(syntax.env_(EMPTY_ENV), syntax.match_(PVar("y", B), syntax.cn("d", B))),
        "vr": syntax.vr("x"),
        "cn": c,
        "closure": syntax.closure(Env([("x", syntax.cn("k", A))]), PVar("y", A), syntax.apply_(syntax.vr("f"), syntax.vr("y"))),
        "apply": syntax.apply_(c, syntax.cn("k", A)),
        "scope": syntax.scope(syntax.env_(EMPTY_ENV), syntax.vr("x")),
    }


BITERM_JSON = {
    'env': {"component": 1, "ctor": "env", "rec1": [], "rec2": [], "payload": [[["x", {"component": 2, "ctor": "cn", "rec1": [], "rec2": [], "payload": ["k", ["ty", "a"]]}], ["y", {"component": 2, "ctor": "vr", "rec1": [], "rec2": [], "payload": ["z"]}]]]},
    'match': {"component": 1, "ctor": "match", "rec1": [], "rec2": [{"component": 2, "ctor": "vr", "rec1": [], "rec2": [], "payload": ["x"]}], "payload": [["papp", ["pcon", "k", ["arrow", ["ty", "a"], ["ty", "b"]]], ["pvar", "x", ["ty", "a"]]]]},
    'join': {"component": 1, "ctor": "join", "rec1": [{"component": 1, "ctor": "env", "rec1": [], "rec2": [], "payload": [[]]}, {"component": 1, "ctor": "match", "rec1": [], "rec2": [{"component": 2, "ctor": "cn", "rec1": [], "rec2": [], "payload": ["d", ["ty", "b"]]}], "payload": [["pvar", "y", ["ty", "b"]]]}], "rec2": [], "payload": []},
    'vr': {"component": 2, "ctor": "vr", "rec1": [], "rec2": [], "payload": ["x"]},
    'cn': {"component": 2, "ctor": "cn", "rec1": [], "rec2": [], "payload": ["c", ["arrow", ["ty", "a"], ["ty", "b"]]]},
    'closure': {"component": 2, "ctor": "closure", "rec1": [], "rec2": [{"component": 2, "ctor": "apply", "rec1": [], "rec2": [{"component": 2, "ctor": "vr", "rec1": [], "rec2": [], "payload": ["f"]}, {"component": 2, "ctor": "vr", "rec1": [], "rec2": [], "payload": ["y"]}], "payload": []}], "payload": [[["x", {"component": 2, "ctor": "cn", "rec1": [], "rec2": [], "payload": ["k", ["ty", "a"]]}]], ["pvar", "y", ["ty", "a"]]]},
    'apply': {"component": 2, "ctor": "apply", "rec1": [], "rec2": [{"component": 2, "ctor": "cn", "rec1": [], "rec2": [], "payload": ["c", ["arrow", ["ty", "a"], ["ty", "b"]]]}, {"component": 2, "ctor": "cn", "rec1": [], "rec2": [], "payload": ["k", ["ty", "a"]]}], "payload": []},
    'scope': {"component": 2, "ctor": "scope", "rec1": [{"component": 1, "ctor": "env", "rec1": [], "rec2": [], "payload": [[]]}], "rec2": [{"component": 2, "ctor": "vr", "rec1": [], "rec2": [], "payload": ["x"]}], "payload": []},
}


SIGNATURE_JSON = {
    "lang_l": {"signature": "lang_l", "components": [[{"name": "env", "slots": ["envE"]}, {"name": "match", "slots": ["pat", "rec2"]}, {"name": "join", "slots": ["rec1", "rec1"]}], [{"name": "vr", "slots": ["id"]}, {"name": "cn", "slots": ["id", "typ"]}, {"name": "closure", "slots": ["envE", "pat", "rec2"]}, {"name": "apply", "slots": ["rec2", "rec2"]}, {"name": "scope", "slots": ["rec1", "rec2"]}]]},
    "trm": {"signature": "(trm_g1+trm_g2)", "constructors": [{"name": "inl:lit", "slots": ["int"]}, {"name": "inr:add", "slots": ["rec", "rec"]}]},
}


def same_text(got, want):
    """Equal as JSON text: keys in the same order, values byte for byte."""
    return json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("ctor", list(BITERM_JSON))
def test_biterm_json_of_each_constructor_is_pinned(ctor):
    terms = lang_terms()
    assert set(terms) == {c for table in LANG.ctors for c in table}
    t = terms[ctor]
    assert t.root.ctor == ctor
    assert same_text(biterm_to_json(t), BITERM_JSON[ctor])


def test_signature_json_is_pinned():
    assert same_text(bisignature_to_json(LANG), SIGNATURE_JSON["lang_l"])
    assert same_text(signature_to_json(TRM), SIGNATURE_JSON["trm"])

