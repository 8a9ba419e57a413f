"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def tiny_run(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_unit_and_count(trace, kind):
    table, result = tiny_run(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    rows = {}
    for line in table:
        m = re.fullmatch(r"(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)", line)
        if m:
            rows[(m[1], m[2])] = (float(m[3]), m[4], int(m[5]))
    for w in WORKLOADS:
        assert rows[(w, "error_rate")][0] == 0.0
        for metric in BENCH[kind]:
            value = result["metrics"][f"{w}/{metric['name']}"]
            assert value["unit"] == metric["unit"]
            assert rows[(w, metric["name"])][1] == metric["unit"]
            assert rows[(w, metric["name"])][2] >= 1
            if kind == "end_to_end":
                assert value["value"] > 0


def test_spec_names_match_benchmark():
    assert set(SPEC["workloads"]) == set(WORKLOADS)
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    assert set(SPEC["end_to_end"]) == e2e | {"error_rate"}
    for row in SPEC["layer_table"]:
        assert set(row["moves"]) <= e2e and set(row["on"]) <= set(WORKLOADS)


def test_benchmark_json_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])


def test_self_times_sum_to_root():
    from tracing import summarize
    # root [0, 10] with children [1, 4] (child [2, 3]) and [5, 9]
    spans = [["r", 0.0, 10.0, -1, 1, 0], ["a", 1.0, 4.0, 0, 1, 5],
             ["b", 2.0, 3.0, 1, 1, 5], ["a", 5.0, 9.0, 0, 1, 7]]
    roots, table = summarize(spans)
    assert roots == 1
    assert table["r"]["self_ms"] == pytest.approx(3e3)
    assert table["a"] == pytest.approx({"ms": 7e3, "self_ms": 6e3, "calls": 2, "points": 12})
    assert sum(t["self_ms"] for t in table.values()) == pytest.approx(table["r"]["ms"])


def test_tracer_puts_library_names_back():
    from tuttedeform import mesh2d, optim, tutte
    from tracing import Tracer
    before = (optim.adam_step, tutte.assemble_laplacian, mesh2d.PLMap2D.__dict__["image_locator"])
    with Tracer(layers=True).installed():
        assert optim.adam_step is not before[0]
        assert tutte.assemble_laplacian is not before[1]
    assert (optim.adam_step, tutte.assemble_laplacian,
            mesh2d.PLMap2D.__dict__["image_locator"]) == before
