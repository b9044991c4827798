"""Self-test of the benchmark's correctness gate, tracer and declared metrics.

    python3 -m pytest -q perfbench

A deliberately wrong result, made by the test and never by patching the
program, must count as a failed op for every workload.
"""

import json
from pathlib import Path

import pytest

import run
import tracer as tracing
import worker
import workloads
from alacarte import arith, kernel

ROOT = Path(__file__).resolve().parent.parent


class SmallArithDeep(workloads.ArithDeep):
    per_size = 2


class SmallLangFuzz(workloads.LangFuzz):
    corpus_size = 40
    pass_size = 20


class SmallCli(workloads.Cli):
    per_kind = 2
    pass_size = 14


def _wrong_deep(out):
    ok, agreement, concl, alt, js = out
    wrong = (arith.lit(arith.lit_value(alt[0]) + 1), arith.N)
    return ok, agreement, concl, wrong, js


SMALL = {
    "arith-enum": (workloads.ArithEnum, lambda out: (arith.Val(out[0].vv + 1), out[1])),
    "arith-deep": (SmallArithDeep, _wrong_deep),
    "lang-fuzz": (SmallLangFuzz, lambda out: (out[0] + 1, out[1])),
    "cli": (SmallCli, lambda out: (out[0], out[1] + "x")),
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def case(request):
    cls, wrong = SMALL[request.param]
    return cls(seed=3), wrong


def test_workload_names_match_launcher():
    assert sorted(SMALL) == sorted(workloads.WORKLOADS) == sorted(run.WORKLOADS)


def test_wrong_result_counts_as_failed(case):
    wl, wrong = case
    tally = worker.Tally()
    out, error, _ = worker.attempt(wl, 0)
    assert error is None
    assert tally.judge(wl, 0, out)
    assert not tally.judge(wl, 0, wrong(out))
    assert not tally.judge(wl, 0, None, RuntimeError("injected"))
    assert not tally.judge(wl, 0, None)  # a missing output is not a pass
    assert (tally.attempted, tally.failed) == (4, 3)


def test_fingerprint_repeats_for_a_seed(case):
    wl, _ = case
    again = type(wl)(seed=3)
    outputs = [worker.attempt(wl, i)[0] for i in range(wl.pass_size)]
    outputs_again = [worker.attempt(again, i)[0] for i in range(again.pass_size)]
    assert worker.fingerprint(wl, 3, outputs) == worker.fingerprint(again, 3, outputs_again)


def test_tail_has_ten_samples_beyond():
    assert worker.TAIL_BLOCK == 250
    assert worker.tail(list(range(1, 201))) == (190 / 1e6, 95.0, 10, 1)
    # under two blocks' worth of ops: one block of all of them
    assert worker.tail(list(range(1, 500))) == (489 / 1e6, 100.0 * 489 / 499, 10, 1)
    # three blocks of 250 ops: the median block's 11th-slowest
    latencies = list(range(1, 251)) + [x * 3 for x in range(1, 251)] + [x * 2 for x in range(1, 251)]
    assert worker.tail(latencies) == (2 * 240 / 1e6, 96.0, 10, 3)
    # no op is dropped: the extra one lands in the last block
    assert worker.tail(latencies + [10**9]) == (2 * 241 / 1e6, 96.0, 10, 3)


def test_tracer_counts_nested_calls_and_restores_the_program():
    t = arith.add(arith.lit(1), arith.add(arith.lit(2), arith.lit(3)))
    fold_c, node = kernel.fold_c, kernel.Signature.node
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.enabled = True
        assert arith.eval_(t).vv == 6
        arith.add(arith.lit(4), arith.lit(5))
        tr.enabled = False
    finally:
        tr.uninstall()
    assert kernel.fold_c is fold_c and kernel.Signature.node is node
    calls = dict(zip(tr.layers, tr.calls))
    assert calls["kernel.fold"] == 5  # one fold_c per node, the recursive ones included
    assert calls["kernel.node"] == 3 and calls["kernel.in_"] == 3
    assert calls["arith.eval"] == 1 + 5  # eval_ and one eval_g per node
    assert all(ns >= 0 for ns in tr.self_ns)


def test_benchmark_json_declares_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.metric_unit(m["name"])
