"""Enumeration counts, the evaluation oracle, generators, and law suites."""

import gc
import json

import pytest

from alacarte import arith, kernel, testkit
from alacarte.arith import Val, add, lit
from alacarte.indexed import validate
from alacarte.kernel import MalformedNodeError, Signature, in_
from alacarte.lang_l import LANG
from alacarte.mutual import validate_bi
from test_three_sorts import PARITY, POOLS


# ---------------------------------------------------------------------------
# enumeration


def test_depth1_is_literal_pool():
    spec = testkit.arith_enum(1, testkit.ARITH_POOL_FULL)
    assert list(testkit.enumerate_terms(spec)) == [lit(x) for x in (-2, -1, 0, 1, 2)]


def test_depth2_count():
    spec = testkit.arith_enum(2, testkit.ARITH_POOL_FULL)
    terms = list(testkit.enumerate_terms(spec))
    assert len(terms) == 5 + 25
    assert len(set(map(arith.print_term, terms))) == len(terms)  # no duplicates


def test_depth4_count_small_pool():
    # |T1| = 3, |T<=2| = 3 + 9, |T<=3| = 3 + 144, |T<=4| = 3 + 147^2
    layers = testkit.term_layers(testkit.arith_enum(4))
    sizes = [len(layer) for layer in layers]
    assert sizes == [0, 3, 9, 135, 21465]
    assert sum(sizes) == 3 + 147 * 147


def test_lang_depth2_count_matches_hand_count():
    spec = testkit.BiEnumSpec(LANG, 2, testkit._lang_pools())
    layers = testkit.biterm_layers(spec)
    decs = [t for l in layers for t in l[0]]
    exps = [t for l in layers for t in l[1]]
    # depth 1: env x2 | vr x2 + cn x4
    # depth 2: match 2*6 + join 2*2 | closure 2*2*6 + apply 6*6 + scope 2*6
    assert len(decs) == 2 + (12 + 4)
    assert len(exps) == 6 + (24 + 36 + 12)


def test_enumeration_deterministic():
    spec = testkit.arith_enum(3)
    a = [arith.print_term(t) for t in testkit.enumerate_terms(spec)]
    b = [arith.print_term(t) for t in testkit.enumerate_terms(spec)]
    assert a == b


def reference_layers(spec):
    """The filtering enumerator: every slot tuple over all shallower terms, kept when it reaches depth d - 1."""
    sig = spec.signature
    layers = [[] for _ in range(spec.max_depth + 1)]
    below = {kind: [] for kind in sig.rec_kinds}
    depth_of = {}
    for d in range(1, spec.max_depth + 1):
        new = []
        for table in sig.sorts:
            made = []
            for ctor, kinds in table.items():
                rec_positions = [i for i, k in enumerate(kinds) if k in below]
                if (d == 1) != (not rec_positions):
                    continue
                candidates = [below[k] if k in below else list(spec.pools[k]) for k in kinds]
                for slots in testkit._product(candidates):
                    if rec_positions and max(depth_of[id(slots[i])] for i in rec_positions) != d - 1:
                        continue
                    made.append(in_(Signature.node(sig, ctor, slots)))
            new.append(made)
        for kind, made in zip(sig.rec_kinds, new):
            for t in made:
                depth_of[id(t)] = d
            below[kind].extend(made)
        layers[d] = [t for made in new for t in made]
    return layers


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(testkit.arith_enum(3, testkit.ARITH_POOL_FULL), id="arith-3-full-pool"),
        pytest.param(testkit.arith_enum(4), id="arith-4-small-pool"),
        pytest.param(testkit.EnumSpec(LANG, 3, testkit._lang_pools()), id="lang-3"),
        pytest.param(testkit.EnumSpec(PARITY, 4, POOLS), id="parity-4"),
    ],
)
def test_term_layers_equal_the_filtering_reference_in_order(spec):
    assert testkit.term_layers(spec) == reference_layers(spec)


@pytest.mark.parametrize("enabled", [True, False])
def test_term_layers_pause_the_collector_and_restore_its_state(enabled):
    seen = []
    kernel.register_payload_kind("probe", lambda v: seen.append(gc.isenabled()) or v != "bad")
    was = gc.isenabled()
    set_collector = lambda on: gc.enable() if on else gc.disable()
    try:
        set_collector(enabled)
        probed = Signature("probed", {"leaf": ("int",), "pair": ("rec", "probe", "rec")})
        layers = testkit.term_layers(testkit.EnumSpec(probed, 3, {"int": (0, 1), "probe": ("a", "b")}))
        assert [len(layer) for layer in layers] == [0, 2, 2 * 2 * 2, 10 * 2 * 10 - 2 * 2 * 2]
        assert seen and not any(seen)
        assert gc.isenabled() is enabled
        # a pool value that fails its payload check part-way through layer 2
        with pytest.raises(MalformedNodeError, match="'bad' is not a valid 'probe' payload"):
            testkit.term_layers(testkit.EnumSpec(probed, 3, {"int": (0, 1), "probe": ("a", "bad")}))
        assert gc.isenabled() is enabled
    finally:
        set_collector(was)
        kernel._PAYLOAD_KINDS.pop("probe", None)


# ---------------------------------------------------------------------------
# oracle


def test_oracle_lit():
    assert testkit.oracle_eval(lit(3)) == Val(3)


def test_oracle_add():
    assert testkit.oracle_eval(add(lit(2), lit(3))) == Val(5)


def test_oracle_matches_eval_on_sweep():
    for t in testkit.enumerate_terms(testkit.arith_enum(4)):
        assert testkit.oracle_eval(t) == arith.eval_(t)


# ---------------------------------------------------------------------------
# generation


def test_gen_single_config_validates():
    (config,) = testkit.gen_well_typed_config(testkit.GenConfig(seed=1, count=1))
    assert validate(config.envd)
    assert validate_bi(config.typd)
    assert config.typd.root.conclusion[0] == config.gamma
    assert config.typd.root.conclusion[1] == config.term
    assert config.envd.root.conclusion == (config.rho, config.gamma)


def test_gen_mode_off_skips_typing():
    corpus = testkit.gen_well_typed_config(
        testkit.GenConfig(seed=1, count=10, well_typed=False)
    )
    assert all(c.typd is None and c.gamma is None for c in corpus)


def test_gen_different_seeds_differ():
    c1 = testkit.gen_well_typed_config(testkit.GenConfig(seed=1, count=20))
    c2 = testkit.gen_well_typed_config(testkit.GenConfig(seed=2, count=20))
    assert [c.term for c in c1] != [c.term for c in c2]
    for c in c1 + c2:
        assert validate(c.envd) and validate_bi(c.typd)


def test_gen_same_seed_identical():
    c1 = testkit.gen_well_typed_config(testkit.GenConfig(seed=3, count=20))
    c2 = testkit.gen_well_typed_config(testkit.GenConfig(seed=3, count=20))
    assert [(c.sort, c.rho, c.term) for c in c1] == [
        (c.sort, c.rho, c.term) for c in c2
    ]


# ---------------------------------------------------------------------------
# law suites


LAWS = {
    "kernel": (
        152315,
        {
            "fmap-identity": [30, 0],
            "fmap-composition": [1000, 0],
            "in-out": [21612, 0],
            "out-in": [21612, 0],
            "fold-computation": [21612, 0],
            "mfold-computation": [21612, 0],
            "lift-coherence": [21612, 0],
            "uniqueness-oracle": [1, 0],
            "coproduct-surjective": [21612, 0],
            "coproduct-disjoint": [21612, 0],
        },
    ),
    "indexed": (
        882,
        {
            "ifmap-identity": [147, 0],
            "ifmap-composition": [147, 0],
            "din-dout": [147, 0],
            "validate-sound-for-din": [147, 0],
            "ifold-computation": [147, 0],
            "ifold-index-coherence": [147, 0],
        },
    ),
    "mutual": (
        26064,
        {
            "bifmap-identity": [600, 0],
            "bifmap-composition": [600, 0],
            "bi-in-out": [8288, 0],
            "bifold-computation": [8288, 0],
            "bifold-rebuild-identity": [8288, 0],
        },
    ),
}


def assert_pinned(report, suite):
    """The report's JSON and per-law counts are exactly the pinned ones."""
    checked, laws = LAWS[suite]
    js = report.to_json()
    assert json.dumps(js) == json.dumps({"suite": suite, "checked": checked, "failed": 0, "witnesses": []})
    assert json.dumps(report.laws) == json.dumps(laws)


def test_law_suite_kernel_passes():
    report = testkit.law_suite("kernel")
    assert report.ok
    assert report.checked > 1000
    js = report.to_json()
    assert set(js) == {"suite", "checked", "failed", "witnesses"}
    json.dumps(js)  # machine-readable
    assert_pinned(report, "kernel")


def test_law_suite_catches_swapped_fmap():
    def swapped_fmap(f, n):
        return kernel.Node(n.sig, n.ctor, tuple(f(x) for x in reversed(n.rec)), n.payload)

    report = testkit.law_suite("kernel", fmap_fn=swapped_fmap)
    assert not report.ok
    assert any(w["law"] == "fmap-composition" for w in report.witnesses)


def test_law_suite_indexed_passes():
    report = testkit.law_suite("indexed")
    assert report.ok
    assert_pinned(report, "indexed")


def test_law_suite_mutual_passes():
    report = testkit.law_suite("mutual")
    assert report.ok
    assert_pinned(report, "mutual")


def test_law_report_lines():
    report = testkit.law_suite("indexed")
    assert report.lines()[0].startswith("suite indexed: PASS")


# ---------------------------------------------------------------------------
# fuzz harness plumbing


def test_fuzz_report_roundtrip_and_replay():
    report = testkit.run_preservation_fuzz(seed=11, count=30, fuel=50)
    assert report.ok
    js = report.to_json()
    assert js["configs"] == 30


def test_replay_reproduces_verdict(monkeypatch):
    from alacarte.lang_l import syntax, typing as ltyping

    broken = lambda a, b: syntax.Env(b.items() + a.items())
    monkeypatch.setattr(ltyping, "env_union", broken)
    report = testkit.run_preservation_fuzz(seed=42, count=150, fuel=50)
    assert report.counterexamples
    case = report.counterexamples[0]
    steps, cx = testkit.replay_case(case)
    assert cx is not None  # still a counterexample under the same mutation
    monkeypatch.undo()
    steps, cx = testkit.replay_case(case)
    assert cx is None  # and it vanishes once the union is fixed
