"""`scripts/restart_sweep.py`, the sweep behind the BFGS restart defaults:
its table, its verdict lines, and its tally of the `bands` runs it makes."""
import importlib.util
import json
import os
import re
from pathlib import Path
from unittest import mock

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "restart_sweep.py"
ROW = re.compile(r"^\| (?P<set>[^|]+) \| (?P<r>\d+) \| (?P<solves>\d+) \| (?P<levels>\d+) "
                 r"\| [^|]+ \| (?P<misses>\d+) \| (?P<unconverged>\d+) \| (?P<capped>\d+) \|")
VERDICT = re.compile(r"^(\w+): smallest restart count with no miss, no unconverged level "
                     r"and, at 1, no max_iter stop: (\d+|none)$")


@pytest.fixture(scope="module")
def sweep():
    # The script sets the BLAS thread variables on import; keep them out of
    # the environment of the tests that follow.
    with mock.patch.dict(os.environ):
        spec = importlib.util.spec_from_file_location("restart_sweep", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def table(out: str) -> tuple[list[dict], dict]:
    rows = [m.groupdict() for m in map(ROW.match, out.splitlines()) if m]
    verdicts = dict(m.groups() for m in map(VERDICT.match, out.splitlines()) if m)
    return rows, verdicts


@pytest.mark.parametrize("argv, sets, restarts, backends", [
    (["--circuit", "three-qubit", "--restarts", "1", "--path-seeds", "1",
      "--lg-seeds", "1000", "--matrices", "1"],
     {"path X,G,L:20": (41, 8, "exact"), "L,G:1": (2, 8, "exact"),
      "random 8x8": (1, 8, "exact")}, [1], ["exact"]),
    (["--circuit", "mean-field", "--restarts", "2,1", "--path-seeds", "1",
      "--short-seeds", "1000", "--shots-seeds", "1", "--x-seeds", "1"],
     {"path X,G,L:20": (41, 2, "exact"), "X,G,L:5": (11, 2, "exact"),
      "shots": (11, 2, "shots"), "shots X": (2, 2, "shots")}, [1, 2], ["exact", "shots"]),
], ids=["three-qubit", "mean-field"])
def test_one_row_per_set_and_restart_count_then_the_verdicts(sweep, capsys, argv, sets,
                                                             restarts, backends):
    assert sweep.main(argv) == 0
    rows, verdicts = table(capsys.readouterr().out)
    # In order: every set at the smallest count, then at the next.
    assert [(row["set"], int(row["r"])) for row in rows] == \
        [(name, r) for r in restarts for name in sets]
    for row in rows:
        solves, bands, _ = sets[row["set"]]
        assert (int(row["solves"]), int(row["levels"])) == (solves, solves * bands)
    # Per backend, the smallest count whose rows have no miss, no unconverged
    # level and, at one restart, no restart stopped at the cap.
    assert list(verdicts) == backends
    for backend in backends:
        clean = [r for r in restarts
                 if not any(int(row["misses"]) or int(row["unconverged"])
                            or (r == 1 and int(row["capped"]))
                            for row in rows
                            if int(row["r"]) == r and sets[row["set"]][2] == backend)]
        assert verdicts[backend] == str(clean[0] if clean else "none")


def test_a_row_is_printed_before_the_next_set_starts(sweep, capsys, monkeypatch):
    calls = []

    def second_raises(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("second set")
        return real(*args)

    real = sweep.bands_set
    monkeypatch.setattr(sweep, "bands_set", second_raises)
    with pytest.raises(RuntimeError, match="second set"):
        sweep.main(["--circuit", "mean-field", "--restarts", "1", "--path-seeds", "1",
                    "--short-seeds", "1000"])
    rows, _ = table(capsys.readouterr().out)
    assert [(row["set"], row["r"]) for row in rows] == [("path X,G,L:20", "1")]


def test_failed_kpoint_is_one_miss_and_its_run_is_not_judged(sweep, tmp_path):
    # At 8 mitigated shots, noise 0.1/0.15, seed 39 captures the deflated
    # zero at level 2 of k-point 10 of X,G,L:5, on the retry too (see
    # tests/test_cli.py), so the run exits 1.
    noise_file = tmp_path / "noise.json"
    noise_file.write_text(json.dumps({"w01": 0.1, "w10": 0.15}))

    def judge(out, err):
        raise AssertionError("a run with a failed k-point was judged")

    t = sweep.bands_set(["--backend", "shots", "--shots", "8", "--mitigate",
                         "--noise", str(noise_file), "--kpath", "X,G,L:5"], [39], 3, judge)
    assert (t.solves, t.levels, t.misses) == (11, 22, 1)
    # The NaN level is written unconverged, and the failed level ran twice.
    assert (t.unconverged, t.retried) == (1, 1)
    assert 0 < t.worst < float("inf")


def test_refused_bands_arguments_end_the_sweep_with_the_message(sweep):
    with pytest.raises(SystemExit, match="--kpath"):
        sweep.bands_set(["--kpath", "Q"], [1], 1, None)
