"""Tests of the benchmark itself: argv generation, self time, unwrapping."""

import inspect
import sys

import pytest

import layers
import run
from tracer import TRACED, Tracer, layer_self_time, outermost_time, self_times
from workloads import TMP, WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_argv_lists_repeat_per_seed_and_differ_across_seeds(name):
    workload = WORKLOADS[name]
    first = [workload.round(7, r) for r in range(3)]
    assert first == [workload.round(7, r) for r in range(3)]
    assert first != [workload.round(8, r) for r in range(3)]
    assert first[0] != first[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_round_holds_the_same_kinds_in_the_same_counts(name):
    workload = WORKLOADS[name]
    want = {kind.name: kind.count for kind in workload.kinds}
    for seed, r in ((0, 0), (0, 5), (3, 1)):
        plan = workload.round(seed, r)
        assert len(plan) == sum(want.values())
        got = {}
        for kind, argv in plan:
            assert argv in kind.space
            got[kind.name] = got.get(kind.name, 0) + 1
        assert got == want


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_argv_has_a_recorded_digest(name):
    oracle = run.json.loads(run.ORACLE.read_text())
    for kind in WORKLOADS[name].kinds:
        for argv in kind.space:
            assert " ".join(argv) in oracle


def _span(name, start, end, parent):
    return (name, float(start), float(end), parent, 0)


def test_self_time_on_a_hand_built_tree():
    #  a.root [0, 10]
    #    b.mid [1, 4]
    #      a.leaf [2, 3]
    #    b.mid [5, 9]
    #      b.mid [6, 8]     (recursive call)
    spans = [
        _span("a.root", 0, 10, -1),
        _span("b.mid", 1, 4, 0),
        _span("a.leaf", 2, 3, 1),
        _span("b.mid", 5, 9, 0),
        _span("b.mid", 6, 8, 3),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 2.0, 2.0]
    assert layer_self_time(spans) == {"a": 4.0, "b": 6.0}
    assert outermost_time(spans, ["b.mid"]) == 7.0  # the nested call counts once
    assert outermost_time(spans, ["a.root", "a.leaf"]) == 10.0
    assert outermost_time(spans, ["a.leaf"]) == 1.0


def test_wrap_records_nesting_and_report_ids():
    tracer = Tracer()
    inner = tracer.wrap("x.inner", lambda: 1)
    outer = tracer.wrap("x.outer", lambda: inner() + 1)
    tracer.report = 4
    assert outer() == 2
    (n1, s1, e1, p1, r1), (n2, s2, e2, p2, r2) = tracer.spans
    assert (n1, p1, r1) == ("x.outer", -1, 4)
    assert (n2, p2, r2) == ("x.inner", 0, 4)
    assert s1 <= s2 <= e2 <= e1


def _bindings():
    """Every attribute of every shiftlab module and class, by identity."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "shiftlab" or modname.startswith("shiftlab."):
            for attr, obj in vars(module).items():
                out[modname, attr] = obj
                if inspect.isclass(obj):
                    out.update({(modname, attr, k): v for k, v in vars(obj).items()})
    return out


def _run_two_reports(cli, tmp_path):
    plan = [(None, ("detan", "--max-n", "2", "--max-k", "2")), (None, ("kerim", "--n", "1"))]
    return lambda tracer: run.run_pass(cli.main, plan, str(tmp_path), tracer)


def test_every_wrapper_is_removed_after_the_traced_run(tmp_path):
    cli = run.load_cli()
    before = _bindings()
    seen = {}

    def probe(tracer):
        dyn = sys.modules["shiftlab.dynamics"]
        seen["rebound"] = hasattr(dyn.unimodular_approach, TRACED)
        seen["method"] = hasattr(sys.modules["shiftlab.rational"].RationalMatrix.__matmul__, TRACED)
        return _run_two_reports(cli, tmp_path)(tracer)

    outcomes, tracer, _ = layers.traced_pass(probe)
    assert seen == {"rebound": True, "method": True}
    assert [o.rc for o in outcomes] == [0, 0]
    assert {span[0] for span in tracer.spans} >= {"cli.main", "cli.cmd_detan", "nilpotent.det_mnk"}
    assert layers.leftover_stand_ins() == []
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_wrappers_are_removed_when_the_run_raises(tmp_path):
    cli = run.load_cli()
    before = _bindings()

    def boom(tracer):
        raise KeyError("stop")

    with pytest.raises(KeyError):
        layers.traced_pass(boom)
    assert layers.leftover_stand_ins() == []
    assert all(before[k] is v for k, v in _bindings().items())


def test_tmp_marker_is_replaced_in_argv(tmp_path):
    cli = run.load_cli()
    outcome = run.run_report(cli.main, ("emit-goldens", "--suite", "nilpotent", "--out-dir", TMP), str(tmp_path))
    assert outcome.rc == 0 and outcome.verdict == "written"
    assert list(tmp_path.iterdir()) == []  # digested, then removed
