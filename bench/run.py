#!/usr/bin/env python3
"""Benchmark of `qbands bands`, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  `--trace 0` spawns `python -m qbands.cli
bands` repeatedly (tracing off) for about S seconds.  Before each of those
runs it times the CLI's start-up (`--version`) and a reference interpreter
that imports numpy and scipy but not qbands.  It reports wall_rel and
cpu_rel (each run's wall and CPU time over the reference time around it),
setup_s and peak_rss_mb.  `--trace 1` runs `qbands.cli.main` in this
process twice, untraced and then with spans around every layer, and reports
the per-layer metrics.  Every run's
`bands.csv` is checked against eigvalsh (see workloads.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed (levels) and metrics.  A run record (versions, thread
settings, load average, every sample) goes to .bench_work/records/.
"""
import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread here and in every child, so that a run never has
# more runnable threads than the machine has cores.  Set before numpy loads.
THREAD_ENV = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_ENV)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "qbands" / "cli.py").is_file():
    sys.exit(f"error: {SRC / 'qbands'} not found; run from a full checkout")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from layers import LayerTrace, unit  # noqa: E402
from qbands import cli  # noqa: E402
from workloads import WORKLOADS, check_bands  # noqa: E402

WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 12  # at least; SETUP_PER_RUN before each `bands` run, topped up
SETUP_PER_RUN = 2
# A fresh interpreter importing what qbands imports, but not qbands: its time
# follows the host's speed and nothing in the program can change it.
REFERENCE_ARGS = ["-c", "import numpy, scipy.optimize"]
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s allowed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], log_path: Path, timeout: float) -> dict:
    """Run `python ARGS`; wall from spawn to exit, rusage of the child
    alone."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args],
                                stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(timeout, 0.1), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def cli_seed(seed: int, i: int) -> int:
    """The `--seed` of the i-th `bands` run of a benchmark run."""
    return seed * 1000 + i


def distribution(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (none below 11 samples), and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n >= 11:
        tail = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "tail": tail, "samples": n}


def git_state() -> dict:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if Path(top).resolve() != ROOT:
            raise ValueError(top)
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError, ValueError):
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    return {"sha": sha, "dirty": bool(status.strip())}


def run_end_to_end(workload, seed: int, seconds: float, work: Path, record: dict) -> dict:
    started = time.perf_counter()
    deadline = started + seconds
    hard_deadline = started + RUN_LIMIT_S
    setup_runs = []

    def time_setup() -> None:
        setup_runs.append(spawn(["-m", "qbands.cli", "--version"], work / "setup.log",
                                min(60.0, hard_deadline - time.perf_counter())))

    def time_reference() -> float:
        run = spawn(REFERENCE_ARGS, work / "reference.log",
                    min(60.0, hard_deadline - time.perf_counter()))
        if run["exit_code"] != 0:
            raise RuntimeError(f"reference run exited with {run['exit_code']}")
        return run["wall_s"]

    samples = []
    references = []  # before each `bands` run and after the last
    iterations = []
    attempted = failed = 0
    while True:
        # Set-up samples are interleaved with the `bands` runs, so that both
        # see the same drift in the host's speed.
        i = len(samples)
        iteration_start = time.perf_counter()
        for _ in range(SETUP_PER_RUN):
            time_setup()
        references.append(time_reference())
        out = work / f"bands-{i}"
        argv = ["-m", "qbands.cli", *workload.cli_args(cli_seed(seed, i), out)]
        sample = spawn(argv, out / "cli.log", hard_deadline - time.perf_counter())
        check = check_bands(workload, out, sample["exit_code"])
        attempted += check.attempted
        failed += check.failed
        samples.append({"cli_seed": cli_seed(seed, i), **sample,
                        "failed": check.failed, "problems": check.problems[:20]})
        shutil.rmtree(out)
        # Stop at the run count whose end lies nearest the deadline.
        now = time.perf_counter()
        iterations.append(now - iteration_start)
        typical = statistics.median(iterations)
        if now + typical / 2 > deadline or now + typical > hard_deadline:
            break
    references.append(time_reference())
    for i, sample in enumerate(samples):
        reference = (references[i] + references[i + 1]) / 2
        sample.update(reference_s=reference, wall_rel=sample["wall_s"] / reference,
                      cpu_rel=sample["cpu_s"] / reference)
    while len(setup_runs) < SETUP_SAMPLES:
        time_setup()
    setup = [run["wall_s"] for run in setup_runs]
    setup_ok = all(run["exit_code"] == 0 for run in setup_runs)
    record["setup_s"] = setup
    record["runs"] = samples
    dists = {key: distribution([s[key] for s in samples])
             for key in ("wall_s", "cpu_s", "reference_s", "wall_rel", "cpu_rel",
                         "peak_rss_mb")}
    dists["setup_s"] = distribution(setup)
    record["distributions"] = dists
    units = {"wall_rel": "ref", "cpu_rel": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": dists[k]["median"], "unit": unit} for k, unit in units.items()}
    return {"correct": setup_ok and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_traced(workload, seed: int, work: Path, record: dict) -> dict:
    problems = []

    def in_process(out: Path, main) -> tuple[float, int]:
        """Wall time and exit code of `main(argv)` in this process."""
        argv = workload.cli_args(cli_seed(seed, 0), out)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                main(argv)
        except Exception:  # a failed run fails its levels, not the benchmark
            problems.append(traceback.format_exc(limit=3))
            return time.perf_counter() - start, 1
        return time.perf_counter() - start, 0

    plain, traced = work / "untraced", work / "traced"
    untraced_wall, plain_exit = in_process(plain, cli.main)
    layers = LayerTrace()
    traced_wall, traced_exit = in_process(traced, layers.run_main)

    checks = [check_bands(workload, plain, plain_exit),
              check_bands(workload, traced, traced_exit)]
    for check in checks:
        problems += check.problems
    csvs = [out / "bands.csv" for out in (plain, traced)]
    if not all(p.exists() for p in csvs) or csvs[0].read_bytes() != csvs[1].read_bytes():
        problems.append("traced bands.csv differs from the untraced one")
    self_test = layers.self_test(workload)
    problems += self_test
    metrics = layers.metrics(workload, untraced_wall, traced_wall, checks[1].max_abs_err_ev)
    record.update(cli_seed=cli_seed(seed, 0), untraced_wall_s=untraced_wall,
                  traced_wall_s=traced_wall, binding_sites=layers.sites,
                  calls=layers.call_counts(), self_test=self_test,
                  problems=problems[:50])
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit(name)} for name, value in metrics.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git": git_state(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": THREAD_ENV,
        "loadavg_before": os.getloadavg(),
    }
    try:
        if args.trace:
            result = run_traced(workload, args.seed, work, record)
        else:
            result = run_end_to_end(workload, args.seed, args.seconds, work, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()
    record["levels_failed_frac"] = result["failed"] / result["attempted"]
    record["result"] = result
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
