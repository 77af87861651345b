"""Tests of the benchmark itself (not of qdissect).

    python3 -m pytest perfbench/tests
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402


def _expected(workload: str) -> dict:
    return json.loads((BENCH / "verdicts" / f"{workload}.json").read_text())["rows"]


def _mismatch(exponent):
    return None if exponent is None else {"exponent": exponent, "lhs": 7, "rhs": 15}


def _report(rows: dict) -> dict:
    """A CLI report whose rows carry exactly the given verdicts."""
    cases = []
    for key, v in rows.items():
        kind, rid = key.split(":", 1)
        row = {"id": rid, "kind": kind, "status": v["status"]}
        if kind == "identity":
            row["first_mismatch"] = _mismatch(v["first_mismatch"])
        elif kind == "chain":
            row["stages"] = [{"stage": s, "status": st, "first_mismatch": _mismatch(e)}
                             for s, st, e in v["stages"]]
        else:
            row["n_violations"] = v["n_violations"]
            first = v["first_violation"]
            row["violations"] = [] if first is None else [{"index": first}]
        cases.append(row)
    return {"cases": cases}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_committed_verdicts_round_trip(workload):
    expected = _expected(workload)
    assert run.failed_rows(expected, _report(expected)) == 0


def test_injected_wrong_status_or_exponent_is_counted():
    expected = _expected("all-warm")

    wrong_status = copy.deepcopy(expected)
    wrong_status["identity:kp"]["status"] = "fail"
    assert run.failed_rows(expected, _report(wrong_status)) == 1

    wrong_stage = copy.deepcopy(expected)
    wrong_stage["chain:s7cor.odd"]["stages"][0][2] = 3
    assert run.failed_rows(expected, _report(wrong_stage)) == 1

    wrong_family = copy.deepcopy(expected)
    wrong_family["family:s13-m0-probe"]["n_violations"] = 10
    wrong_family["family:s13-m0-probe"]["first_violation"] = 51
    wrong_family["family:w.11"]["status"] = "fail"
    assert run.failed_rows(expected, _report(wrong_family)) == 2

    missing = copy.deepcopy(expected)
    del missing["family:thm13"]
    assert run.failed_rows(expected, _report(missing)) == 1

    assert run.failed_rows(expected, None) == len(expected)


def test_self_times_on_a_hand_built_tree():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["a1", 20, 30, 1],
        ["b", 50, 90, 0],
        ["b1", 50, 60, 3],   # starts with its parent
        ["b2", 80, 90, 3],   # ends with its parent
    ]
    got = [round(s * 1e9, 6) for s in layers.self_times(spans)]
    assert got == [30, 20, 10, 20, 10, 10]


def test_self_times_split_between_pool_threads():
    # two workers caused by the main thread's span overlap on [20, 50]
    spans = [["main", 0, 100, -1], ["w1", 10, 50, 0], ["w2", 20, 60, 0]]
    got = [round(s * 1e9, 6) for s in layers.self_times(spans)]
    assert got == [50, 25, 25]
    assert sum(got) == 100


def test_layer_self_times_and_unattributed_add_up_to_wall():
    ms = 1_000_000
    spans = [
        ["cli.import", 0, 200 * ms, -1],
        ["cli.main", 210 * ms, 900 * ms, -1],
        ["registry.registry", 220 * ms, 260 * ms, 1],
        ["identities.verify", 300 * ms, 800 * ms, 1],
        ["qexpr.eval:Mul", 310 * ms, 700 * ms, 3],
        ["qexpr.eval:EtaF", 320 * ms, 400 * ms, 4],
        ["series.mul", 400 * ms, 690 * ms, 4],
        ["trace", 690 * ms, 695 * ms, 4],
    ]
    counters = {"qexpr.memo_size": 2, "trace.span_cost_ns": 1 * ms, "trace.dump_ns": 10 * ms}
    m = layers.layer_metrics(spans, counters, traced_wall_s=1.0)
    assert m["series.mul.self_s"] == pytest.approx(0.29)
    assert m["qexpr.eval.atom_self_s"] == pytest.approx(0.08)
    assert m["qexpr.eval.composite_self_s"] == pytest.approx(0.39 - 0.08 - 0.29 - 0.005)
    assert m["qexpr.memo_hit_ratio"] == 0.0
    assert m["identities.verify.max_case_s"] == pytest.approx(0.5)
    assert m["registry.build_s"] == pytest.approx(0.04)
    assert m["cli.self_s"] == pytest.approx(0.69 - 0.04 - 0.5)
    layer_total = sum(m[f"{mod}.self_s"] for mod in layers.MODULES)
    total = layer_total + m["cli.import_s"] + m["cli.self_s"] + m["trace.unattributed_s"]
    assert total == pytest.approx(1.0)
    # the tracer's own 5 ms and the 110 ms outside any span are unattributed
    assert m["trace.unattributed_s"] == pytest.approx(0.115)
    # overhead: the 5 ms trace span, 1 ms for each of 7 traced calls, 10 ms dump
    assert m["trace.overhead_ratio"] == pytest.approx(0.022 / 0.978)


@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_printed_with_its_unit(trace):
    declared = run.declared_metrics(trace)
    if trace:
        values = layers.layer_metrics([["cli.main", 0, 10, -1]], {}, 1.0)
        values.update({"process.cpu_s": 1.0, "process.cpu_util": 1.0, "check_fail_ratio": 0.0})
    else:
        values = {"verdict_wall_s": 1.0, "peak_rss_mb": 50.0, "setup_s": 0.5}
    line = json.loads(json.dumps(run.result_line(declared, values, attempted=20, failed=0)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"].keys() == declared.keys()
    for name, metric in line["metrics"].items():
        assert metric == {"value": values[name], "unit": declared[name]}


def test_result_line_refuses_undeclared_metrics():
    declared = run.declared_metrics(False)
    with pytest.raises(ValueError):
        run.result_line(declared, {"verdict_wall_s": 1.0}, 1, 0)


def test_seed_permutes_ids_within_each_kind():
    catalog = {"cases": ["a", "b", "c", "d"], "chains": ["s1", "s2"], "families": ["f1", "f2"]}
    w = run.WORKLOADS["all-warm"]
    first = run.workload_ids(w, catalog, 1)
    assert first == run.workload_ids(w, catalog, 1)
    flags = first[0::2]
    assert flags == ["--case"] * 4 + ["--chain"] * 2 + ["--family"] * 2
    assert sorted(first[1:8:2]) == catalog["cases"]
    orders = {tuple(run.workload_ids(w, catalog, seed)) for seed in range(20)}
    assert len(orders) > 1
