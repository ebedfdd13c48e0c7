"""The benchmark's span contract, checked on two short `bands` commands.

`bench/layers.py` wraps named functions of the package and requires some of
them to record calls on every run, and its metrics read the results the
program returns.  A change that deletes or renames a wrapped function or a
result field the metrics read, or stops calling a required function, fails
here first.
Nothing under `bench/` is modified.
"""
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from layers import LayerTrace  # noqa: E402
from workloads import Workload, check_bands  # noqa: E402

SHORT_WORKLOADS = [
    Workload("short-8band-exact", "8band", ("L", "G"), 1, tol_ev=0.1),
    Workload("short-2band-shots", "2band", ("X", "G"), 1, shots=8192,
             noise={"w01": 0.05, "w10": 0.08}, restart_tol_ev=0.5),
]


@pytest.mark.parametrize("workload", SHORT_WORKLOADS, ids=lambda w: w.name)
def test_spans_recorded_and_levels_pass(workload, tmp_path):
    trace = LayerTrace()
    trace.run_main(workload.cli_args(1, tmp_path))
    assert trace.self_test(workload) == []
    check = check_bands(workload, tmp_path, 0)
    assert check.failed == 0, check.problems


@pytest.mark.parametrize("workload", SHORT_WORKLOADS, ids=lambda w: w.name)
def test_metrics_match_benchmark_per_layer_names(workload, tmp_path):
    trace = LayerTrace()
    trace.run_main(workload.cli_args(1, tmp_path))
    check = check_bands(workload, tmp_path, 0)
    metrics = trace.metrics(workload, 0.0, 0.0, check.max_abs_err_ev)
    declared = json.loads((Path(__file__).resolve().parent.parent
                           / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert all(math.isfinite(v) for v in metrics.values())
