"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import copy
import json
import sys

import pytest

from perfbench import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

from perfbench import instances  # noqa: E402
from perfbench.tracer import summarize  # noqa: E402

# layers that a traced op of each workload must pass through
LAYERS = {
    "certify": {"cli", "model", "solver", "regularizers", "linalg", "cones",
                "certificates", "empirics", "reporting", "numpy"},
    "sweep": {"cli", "model", "solver", "regularizers", "empirics",
              "reporting"},
}
# a few cheap ops per workload keep the traced test short
SHORT = {
    "certify": {"l160_1", "nuclear6x8", "box8", "lasso_segment", "tv4_scaled",
                "tv_grad1d", "lab_nuclear6x8"},
    "sweep": {"tv6x6_1"},
}


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = json.dumps(instances.build(workload, 5), sort_keys=True)
    assert first == json.dumps(instances.build(workload, 5), sort_keys=True)
    assert first != json.dumps(instances.build(workload, 6), sort_keys=True)


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_cycle_count_depends_only_on_the_arguments(workload):
    ops = len(instances.build(workload, 0))
    for trace in (0, 1):
        counts = [run.cycle_count(workload, ops, s, trace) for s in (1, 30, 60)]
        assert counts == sorted(counts) and counts[0] >= 1
    assert run.cycle_count(workload, ops, 1, 0) * ops >= run.MIN_SAMPLES


def _short_traced(workload, tmp_path):
    bench = run.Bench(workload, 0, tmp_path)
    bench.setup()
    bench.ops = [op for op in bench.ops if op["name"] in SHORT[workload]]
    assert bench.ops
    bench.cycle(True, [], {})
    return bench


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_short_traced_run_spans_every_layer(workload, tmp_path):
    bench = _short_traced(workload, tmp_path)
    t = bench.tracer
    seen = {layer for _, layer, *_ in t.spans}
    assert LAYERS[workload] <= seen
    values = summarize(t.spans, t.counts, t.samples)
    assert values["op.count"] == len(bench.ops)
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(values["op.wall_s"])


def test_benchmark_json_lists_the_printed_metrics(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["ops_per_s", "latency_p50_s", "latency_tail_s", "setup_s"]
    bench = _short_traced("sweep", tmp_path)
    sides = {False: ([1.0], {}), True: ([1.1], {})}
    printed = run.layer_metrics(bench, sides)
    assert [m["name"] for m in spec["per_layer"]] == list(printed)
    assert all(m["unit"] == printed[m["name"]][1] for m in spec["per_layer"])


def _certify_dup(tmp_path):
    bench = run.Bench("certify", 0, tmp_path)
    bench.setup()
    index, op = next((i, op) for i, op in enumerate(bench.ops)
                     if op["name"] == "l160_1" and op["verb"] == "certify-pd")
    _, code, out, error = bench.run_op(index, op, traced=False)
    assert error is None
    return bench, op, code, out


def test_checker_flags_tampered_verdict_and_residual(tmp_path):
    bench, op, code, out = _certify_dup(tmp_path)
    instance = bench.loaded[op["name"]]
    kinds, got = bench.checker.check(op, instance, code, out)
    assert kinds == [] and got["solution_map"] == "not_isolated_calm"
    doc = json.loads(out.read_text())

    verdict = copy.deepcopy(doc)
    verdict["payload"]["conclusion_solution_map"]["status"] = "isolated_calm"
    out.write_text(json.dumps(verdict))
    assert "verdict" in bench.checker.check(op, instance, code, out)[0]

    residual = copy.deepcopy(doc)
    residual["payload"]["y_used"][0] += 1e-3
    out.write_text(json.dumps(residual))
    assert "kkt" in bench.checker.check(op, instance, code, out)[0]


def test_checker_flags_tampered_solution(tmp_path):
    bench = run.Bench("certify", 0, tmp_path)
    bench.setup()
    index, op = next((i, op) for i, op in enumerate(bench.ops)
                     if op["verb"] == "solve")
    _, code, out, _ = bench.run_op(index, op, traced=False)
    instance = bench.loaded[op["name"]]
    assert bench.checker.check(op, instance, code, out)[0] == []
    doc = json.loads(out.read_text())
    doc["payload"]["x_bar"][0] += 1e-4
    out.write_text(json.dumps(doc))
    assert bench.checker.check(op, instance, code, out)[0] == ["kkt"]


class _RaisingCli:
    @staticmethod
    def run(argv):
        raise AssertionError("internal inconsistency")


@pytest.mark.parametrize("traced", (False, True))
def test_an_op_that_raises_is_a_failed_op(tmp_path, traced):
    bench = run.Bench("sweep", 0, tmp_path)
    bench.setup()
    bench.ops = bench.ops[:1]
    bench.cli = _RaisingCli
    latencies = []
    bench.cycle(traced, latencies, {})
    assert len(latencies) == 1
    (name, _, _, kinds, known, error), = bench.failures
    assert kinds == ["raised"] and not known and "AssertionError" in error
    assert not bench.tracer._patches and not bench.tracer._stack
