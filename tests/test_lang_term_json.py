"""``lang_l`` term JSON round-trips through ``kernel.term_from_json``.

The ``typ``, ``pat`` and ``envE`` payload kinds decode what they encode, so
every term of a seeded corpus, each of its subterms and each environment
entry, and what ``dump --sort exp|dec`` prints, decode to the term itself.
A payload that decodes to no value of its kind is a malformed node.
"""

import json

import pytest

from alacarte import cli, testkit
from alacarte.kernel import MalformedNodeError, term_from_json
from alacarte.lang_l import LANG, parse_exp, print_dec, print_exp
from alacarte.mutual import biterm_to_json


def _subterms(t):
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(t.root.rec)
        for payload in t.root.payload:
            if hasattr(payload, "items"):  # an environment of expression terms
                stack.extend(e for _, e in payload.items())


def test_every_term_of_300_configurations_round_trips():
    checked = 0
    for c in testkit.gen_well_typed_config(testkit.GenConfig(seed=1, count=300)):
        terms = [c.term, *(e for _, e in c.rho.items())]
        for t in (s for term in terms for s in _subterms(term)):
            assert term_from_json(LANG, json.loads(json.dumps(biterm_to_json(t)))) == t
            checked += 1
    assert checked > 1000


def test_what_dump_prints_round_trips(capsys):
    for c in testkit.gen_well_typed_config(testkit.GenConfig(seed=1, count=300)):
        text = (print_dec if c.sort == "dec" else print_exp)(c.term)
        assert cli.main(["dump", "--sort", c.sort, text]) == 0
        assert term_from_json(LANG, json.loads(capsys.readouterr().out)) == c.term


def _cn_json(typ):
    js = biterm_to_json(parse_exp("(con c (ty a))"))
    js["payload"][1] = typ
    return js


def _closure_json(env=None, pat=None):
    js = biterm_to_json(parse_exp("(clos ((y (con c (ty a)))) (pvar x (ty a)) (var x))"))
    if env is not None:
        js["payload"][0] = env
    if pat is not None:
        js["payload"][1] = pat
    return js


@pytest.mark.parametrize(
    "js, message",
    [
        (_cn_json(["ty", 1]), "lang_l.cn: ['ty', 1] is not a valid 'typ' payload"),
        (_cn_json({"ty": "a"}), "lang_l.cn: {'ty': 'a'} is not a valid 'typ' payload"),
        (_cn_json("a"), "lang_l.cn: 'a' is not a valid 'typ' payload"),
        (_closure_json(pat=["pvar", "x"]), "lang_l.closure: ['pvar', 'x'] is not a valid 'pat' payload"),
        (_closure_json(env=5), "lang_l.closure: 5 is not a valid 'envE' payload"),
        (_closure_json(env=[["y"]]), "lang_l.closure: [['y']] is not a valid 'envE' payload"),
        (_closure_json(env=[[1, {"ctor": "vr"}]]), "lang_l.closure: [[1, {'ctor': 'vr'}]] is not a valid 'envE' payload"),
        (_closure_json(env=[["y", 3]]), "lang_l: a node is a JSON object, not 3"),
    ],
)
def test_a_payload_that_decodes_to_no_value_of_its_kind_is_malformed(js, message):
    with pytest.raises(MalformedNodeError) as exc:
        term_from_json(LANG, js)
    assert str(exc.value) == message
