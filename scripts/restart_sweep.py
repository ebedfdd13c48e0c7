#!/usr/bin/env python3
"""Sweep of the BFGS restart count of each circuit.

    python3 scripts/restart_sweep.py [--circuit three-qubit] [--restarts 1,2,4,8,20]
        [--path-seeds 1-10] [--lg-seeds 1000-1099,7000-7099,803000-803999]
        [--matrices 100]
    python3 scripts/restart_sweep.py --circuit mean-field [--restarts 1,2,3]
        [--path-seeds 1-100] [--short-seeds 1000-1999] [--shots-seeds 1-4000]
        [--x-seeds 1-10000]

Run from the repository root.  For each restart count, every set below is
solved with BFGS and every other optimiser setting at its default.  A set
of k-points runs the `bands` command as a user does, in this process, once
per master seed S: `bands ARGS --optimizer FILE --seed S`, with FILE holding
{"restarts": r}.  It is tallied from the `bands.csv` and `summary.json`
that run writes and from its exit code.

Three-qubit circuit, exact backend (`bands --mode 8band`):

* path:   `--kpath X,G,L:20`, the 41-point path;
* L,G:    `--kpath L,G:1`, the two k-points L and Γ;
* random: random 8x8 Hermitian matrices drawn as the deflation acceptance
          test draws them, but from generator seed 2025 and with optimiser
          seeds 1000, 1001, ..., which that test does not use.

Mean-field circuit (`bands --mode 2band`):

* path:   `--backend exact --kpath X,G,L:20`;
* X,G,L:5: `--backend exact --kpath X,G,L:5`: about 1 restart in 15,000
          stalls at the X point's pole until the cap (seed 1000 holds one),
          so this set is the large one;
* shots:  the benchmark's `bands-2band-shots` command, judged level by
          level by `bench/workloads.check_bands` (a failure in about 1 run
          in 1,000 needs thousands of seeds);
* shots X: that command on `--kpath X,X:1`, whose two rows (k-indices 0
          and 1) are both the X point, so a run solves X twice from two
          seed streams.  X's two levels are degenerate, so its deflated
          level is the flattest; only a k-point written as failed (the
          deflated zero captured on the retry too) is a miss here, as about
          1 in 5,000 was when 2 restarts had no retry.

Per set and restart count the table gives the solves (k-points or
matrices), their levels, the worst |error| (eV) of a level against the
oracle (`e_oracle_*`, or `numpy.linalg.eigvalsh` of a matrix), the misses,
the levels not converged (`converged_* = 0`), the restarts stopped at the
iteration cap, the levels solved twice (the retry of `vqe.full_spectrum`),
the energy evaluations and the wall time.  A miss is an exact level more
than 1e-3 eV off the oracle, or a shots level that fails the benchmark's
check.  One rule holds for every set: a k-point written as failed (NaN from
its failed level on; the run exits 1) or a matrix whose deflation failed is
one miss, and the rest of that run or matrix is not judged; its levels,
evaluations and restarts are counted as written.  The last lines name, per
backend, the smallest restart count with no miss and no unconverged level,
and at one restart also no restart stopped at the cap (a lone restart that
stalls leaves its level unconverged, so a set must be large enough to show
the stall): the rule the BFGS defaults of `vqe._with_defaults` follow.
"""
import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

# One BLAS thread, so that the wall times compare across restart counts.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from qbands import cli  # noqa: E402
from qbands.pauli import decompose  # noqa: E402
from qbands.qsim import THREE_QUBIT  # noqa: E402
from qbands.vqe import ExactBackend, OptimizerConfig, full_spectrum  # noqa: E402
from workloads import WORKLOADS, check_bands  # noqa: E402

MISS_EV = 1e-3
MATRIX_SEED = 2025
MATRIX_OPT_SEED = 1000
SHOTS_WORKLOAD = WORKLOADS["bands-2band-shots"]


def int_list(text: str) -> list[int]:
    """'1,2,4' or ranges such as '1000-1099,7000-7099'."""
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out += range(int(low), int(high or low) + 1)
    return out


class Tally:
    def __init__(self):
        self.solves = self.levels = self.misses = self.unconverged = self.evaluations = 0
        self.capped = self.retried = 0
        self.worst = 0.0
        self.wall = 0.0

    def add(self, err: np.ndarray, converged, evaluations, stops, restarts: int,
            misses: int) -> None:
        """One run: ``err`` the (solves, levels) |level - oracle| in eV, NaN
        where none was written; ``converged`` the flags and ``evaluations``
        the counts of its levels (a level not written is unconverged);
        ``stops`` counts its restarts per stop, ``restarts`` per attempt."""
        self.solves += len(err)
        self.levels += err.size
        self.worst = max(self.worst, float(np.max(err[~np.isnan(err)], initial=0.0)))
        self.misses += misses
        self.unconverged += err.size - int(np.sum(converged))
        self.evaluations += int(np.sum(evaluations))
        self.capped += stops["max_iter"]
        # Every attempt at a level ran ``restarts`` restarts; a level with
        # evaluations was attempted once, or twice if it was retried.
        self.retried += sum(stops.values()) // restarts - int(np.count_nonzero(evaluations))

    def merge(self, other: "Tally") -> None:
        for name in ("solves", "levels", "misses", "unconverged", "capped", "retried",
                     "evaluations", "wall"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.worst = max(self.worst, other.worst)

    def clean(self, restarts: int) -> bool:
        return not (self.misses or self.unconverged or (restarts == 1 and self.capped))


def near_oracle(out: Path, err: np.ndarray) -> int:
    """The levels more than ``MISS_EV`` off the oracle."""
    return int(np.sum(err > MISS_EV))


def passes_check(out: Path, err: np.ndarray) -> int:
    """The levels of the `bands-2band-shots` run in ``out`` that fail the
    benchmark's check (a judged run exited 0)."""
    return check_bands(SHOTS_WORKLOAD, out, 0).failed


def bands_set(argv: list[str], seeds: list[int], restarts: int, judge) -> Tally:
    """`bands ARGV` with ``restarts`` restarts at each master seed, run in
    this process with its output captured, into one reused directory.  A
    run that exits 0 has ``judge(out, err)`` misses (``err`` as in
    `Tally.add`; None: none); one that exits 1 has one per failed k-point."""
    tally = Tally()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        optimizer = out / "optimizer.json"
        optimizer.write_text(json.dumps({"restarts": restarts}))
        for seed in seeds:
            command = ["bands", *argv, "--optimizer", str(optimizer), "--seed", str(seed),
                       "--out", tmp]
            log = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(log):
                try:
                    code = cli.main(command)
                except SystemExit as exc:  # refused: the sweep's own arguments are at fault
                    raise SystemExit(f"{' '.join(command)}\n{log.getvalue()}") from exc
            lines = (out / "bands.csv").read_text().splitlines()
            columns = np.array(lines[1].split(","))
            rows = np.array([line.split(",") for line in lines[2:]], dtype=float)
            summary = json.loads((out / "summary.json").read_text())

            def column(prefix):
                return rows[:, np.char.startswith(columns, prefix)]

            err = np.abs(column("e_vqe_") - column("e_oracle_"))
            misses = len(summary["failed_kpoints"])
            if code == 0 and judge:
                misses = judge(out, err)
            tally.add(err, column("converged_"), column("evaluations_"), summary["stops"],
                      restarts, misses)
    tally.wall = time.perf_counter() - start
    return tally


def matrix_set(count: int, restarts: int) -> Tally:
    """``count`` random 8x8 spectra, each with its own optimiser seed."""
    tally = Tally()
    rng = np.random.default_rng(MATRIX_SEED)
    backend = ExactBackend()
    start = time.perf_counter()
    for trial in range(count):
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        H = 1.5 * (A + A.conj().T) / 2
        spec = full_spectrum(decompose(H), 8, THREE_QUBIT, backend,
                             OptimizerConfig(restarts=restarts), seed=MATRIX_OPT_SEED + trial)
        err = np.full((1, 8), np.nan)  # NaN from a failed level, as `bands` writes it
        found = len(spec.levels)
        err[0, :found] = np.abs(spec.energies - np.linalg.eigvalsh(H)[:found])
        levels = spec.levels + spec.rejected
        tally.add(err, [lv.converged for lv in spec.levels], [lv.evaluations for lv in levels],
                  Counter(res.stop for lv in levels for res in lv.restarts), restarts,
                  1 if spec.failure else near_oracle(None, err))
    tally.wall = time.perf_counter() - start
    return tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--circuit", choices=["three-qubit", "mean-field"],
                        default="three-qubit")
    parser.add_argument("--restarts", type=int_list)
    parser.add_argument("--path-seeds", type=int_list,
                        help="default 1-10 (three-qubit), 1-100 (mean-field)")
    parser.add_argument("--lg-seeds", type=int_list,
                        default=int_list("1000-1099,7000-7099,803000-803999"))
    parser.add_argument("--matrices", type=int, default=100)
    parser.add_argument("--short-seeds", type=int_list, default=int_list("1000-1999"))
    parser.add_argument("--shots-seeds", type=int_list, default=int_list("1-4000"))
    parser.add_argument("--x-seeds", type=int_list, default=int_list("1-10000"))
    args = parser.parse_args(argv)
    three = args.circuit == "three-qubit"
    path_seeds = args.path_seeds or int_list("1-10" if three else "1-100")
    restarts = args.restarts or ([1, 2, 4, 8, 20] if three else [1, 2, 3])

    print(f"{args.circuit} circuit")
    print("| set | restarts | solves | levels | worst err (eV) | misses | unconverged "
          "| max_iter stops | retried | evaluations | wall (s) |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    totals = {}
    with tempfile.TemporaryDirectory() as tmp:
        noise = Path(tmp) / "noise.json"
        noise.write_text(json.dumps(SHOTS_WORKLOAD.noise))
        shots = [*SHOTS_WORKLOAD.args, "--noise", str(noise), "--kpath"]
        # The sets in order: (circuit, name, backend, `bands` arguments, seeds,
        # judge); the random matrices have no `bands` arguments.
        table = [
            ("three-qubit", "path X,G,L:20", "exact", ["--mode", "8band", "--kpath", "X,G,L:20"],
             path_seeds, near_oracle),
            ("three-qubit", "L,G:1", "exact", ["--mode", "8band", "--kpath", "L,G:1"],
             args.lg_seeds, near_oracle),
            ("three-qubit", "random 8x8", "exact", None, None, None),
            ("mean-field", "path X,G,L:20", "exact", ["--mode", "2band", "--kpath", "X,G,L:20"],
             path_seeds, near_oracle),
            ("mean-field", "X,G,L:5", "exact", ["--mode", "2band", "--kpath", "X,G,L:5"],
             args.short_seeds, near_oracle),
            ("mean-field", "shots", "shots", [*shots, "X,G,L:5"], args.shots_seeds,
             passes_check),
            ("mean-field", "shots X", "shots", [*shots, "X,X:1"], args.x_seeds, None),
        ]
        for r in sorted(restarts):
            for circuit, name, backend, bands_args, seeds, judge in table:
                if circuit != args.circuit:
                    continue
                t = (bands_set(bands_args, seeds, r, judge) if bands_args
                     else matrix_set(args.matrices, r))
                totals.setdefault(backend, {}).setdefault(r, Tally()).merge(t)
                print(f"| {name} | {r} | {t.solves} | {t.levels} | {t.worst:.1e} | {t.misses} "
                      f"| {t.unconverged} | {t.capped} | {t.retried} | {t.evaluations} "
                      f"| {t.wall:.1f} |",
                      flush=True)
    for backend, by_count in totals.items():
        smallest = next((r for r, t in by_count.items() if t.clean(r)), "none")
        print(f"{backend}: smallest restart count with no miss, no unconverged level "
              f"and, at 1, no max_iter stop: {smallest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
