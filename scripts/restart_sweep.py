#!/usr/bin/env python3
"""Sweep of the BFGS restart count of each circuit.

    python3 scripts/restart_sweep.py [--circuit three-qubit] [--restarts 1,2,4,8,20]
        [--path-seeds 1-10] [--lg-seeds 1000-1099,7000-7099,803000-803999]
        [--matrices 100]
    python3 scripts/restart_sweep.py --circuit mean-field [--restarts 1,2,3]
        [--path-seeds 1-100] [--short-seeds 1000-1999] [--shots-seeds 1-4000]
        [--x-seeds 1-20000]

Run from the repository root.  For each restart count, every set below is
solved with BFGS and every other optimiser setting at its default.

Three-qubit circuit, exact backend (`bands --mode 8band`):

* path:   the 41-point `X,G,L:20` path, once per master seed, each k-point
          solved as the CLI solves it (same optimiser-seed fan-out);
* L,G:    the two k-points of `--kpath L,G:1`, once per master seed;
* random: random 8x8 Hermitian matrices drawn as the deflation acceptance
          test draws them, but from generator seed 2025 and with optimiser
          seeds 1000, 1001, ..., which that test does not use.

Mean-field circuit (`bands --mode 2band`):

* path:   `--backend exact --kpath X,G,L:20`, once per master seed;
* X,G,L:5: `--backend exact --kpath X,G,L:5`, once per master seed: about
          1 restart in 15,000 stalls at the X point's pole until the cap
          (seed 1000 holds one), so this set is the large one;
* shots:  the benchmark's `bands-2band-shots` command, once per master
          seed, judged level by level by `bench/workloads.check_bands`
          (a failure in about 1 run in 1,000 needs thousands of seeds);
* shots X: the X point alone (k-index 0) of that command, once per master
          seed.  Its two levels are degenerate, so its deflated level is
          the flattest; a miss is a k-point written as failed (the deflated
          zero captured on the retry too), as about 1 in 5,000 was when
          2 restarts had no retry.

An exact level is compared with `numpy.linalg.eigvalsh`.  Per set and
restart count the table gives the worst |error| (eV), the misses (an exact
level more than 1e-3 eV off, a shots level that fails the benchmark's check,
or a k-point written as failed), the levels that did not converge, the
restarts stopped at the iteration cap, the levels solved twice (the retry of
`vqe.full_spectrum`), the energy evaluations and the wall time.  The last
lines name, per backend, the smallest restart count with no miss and no
unconverged level, and at one restart also no restart stopped at the cap (a
lone restart that stalls leaves its level unconverged, so a set must be
large enough to show the stall): the rule the BFGS defaults of
`vqe._with_defaults` follow.
"""
import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile
import time
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
from qbands.tightbinding import TBParameters, make_kpath  # noqa: E402
from qbands.vqe import ExactBackend, OptimizerConfig, ZeroCaptureError, full_spectrum  # noqa: E402
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

    def add(self, energies, oracle, converged, evaluations, capped=0, retried=0,
            miss_ev=MISS_EV) -> None:
        err = np.abs(np.asarray(energies) - oracle)
        self.solves += 1
        self.levels += len(err)
        self.worst = max(self.worst, float(err.max()))
        self.misses += int(np.sum(err > miss_ev))
        self.unconverged += int(np.sum(~np.asarray(converged)))
        self.evaluations += int(np.sum(evaluations))
        self.capped += capped
        self.retried += retried

    def capture(self, retried: int) -> None:
        self.solves += 1
        self.misses += 1
        self.retried += retried

    def merge(self, other: "Tally") -> None:
        for name in ("solves", "levels", "misses", "unconverged", "capped", "retried",
                     "evaluations", "wall"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.worst = max(self.worst, other.worst)

    def clean(self, restarts: int) -> bool:
        return not (self.misses or self.unconverged or (restarts == 1 and self.capped))


def retried(restart_total: int, levels: int, restarts: int) -> int:
    """Levels solved twice among ``levels`` solved levels that ran
    ``restart_total`` restarts in all, ``restarts`` per attempt."""
    return restart_total // restarts - levels


def cli_set(argv: list[str], seeds: list[int], restarts: int, points: int | None = None,
            miss_ev: float = MISS_EV) -> Tally:
    """The first ``points`` (default: all) k-points of `bands ARGV --seed S`,
    each solved as the CLI solves it, for each seed S; a level more than
    ``miss_ev`` off the oracle is a miss."""
    tally = Tally()
    start = time.perf_counter()
    for seed in seeds:
        parser = cli.build_parser()
        args = parser.parse_args(["bands", *argv, "--seed", str(seed)])
        noise = cli._check_across_flags(parser, args)
        args.params = TBParameters.default_silicon()
        args.optimizer = OptimizerConfig(restarts=restarts)
        path = make_kpath(*args.kpath.value)
        for i, kp in enumerate(path.points[:points]):
            with contextlib.redirect_stderr(io.StringIO()):
                r = cli._solve_kpoint((args, noise, i, kp.components, float(path.coords[i])))
            twice = retried(sum(r["stops"].values()), sum(e > 0 for e in r["evaluations"]),
                            restarts)
            if r["failed"]:  # written as NaN
                tally.capture(twice)
                continue
            tally.add(r["energies"], np.array(r["oracle"]), r["converged"], r["evaluations"],
                      r["stops"]["max_iter"], twice, miss_ev)
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
        config = OptimizerConfig(seed=MATRIX_OPT_SEED + trial, restarts=restarts)
        try:
            spec = full_spectrum(decompose(H), 8, THREE_QUBIT, backend, config)
        except ZeroCaptureError as exc:
            levels = exc.found.levels + (exc.result,)
            tally.capture(retried(sum(len(lv.restarts) for lv in levels), len(levels),
                                  restarts))
            continue
        levels = spec.levels
        tally.add(spec.energies, np.linalg.eigvalsh(H), [lv.converged for lv in levels],
                  [lv.evaluations for lv in levels],
                  sum(res.stop == "max_iter" for lv in levels for res in lv.restarts),
                  retried(sum(len(lv.restarts) for lv in levels), len(levels), restarts))
    tally.wall = time.perf_counter() - start
    return tally


def shots_set(seeds: list[int], restarts: int) -> Tally:
    """The `bands-2band-shots` command at each seed, run in this process
    and judged by the benchmark's own check of its `bands.csv`."""
    tally = Tally()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        optimizer = Path(tmp) / "optimizer.json"
        optimizer.write_text(json.dumps({"restarts": restarts}))
        for seed in seeds:
            out = Path(tmp) / str(seed)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*SHOTS_WORKLOAD.cli_args(seed, out),
                                 "--optimizer", str(optimizer)])
            check = check_bands(SHOTS_WORKLOAD, out, code)
            lines = (out / "bands.csv").read_text().splitlines()[1:]
            rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
            summary = json.loads((out / "summary.json").read_text())
            tally.solves += len(rows)
            tally.levels += check.attempted
            tally.misses += check.failed
            tally.worst = max(tally.worst, check.max_abs_err_ev)
            tally.unconverged += sum(v == "0" for row in rows for c, v in row.items()
                                     if c.startswith("converged_"))
            tally.capped += summary["stops"]["max_iter"]
            evaluations = [int(v) for row in rows for c, v in row.items()
                           if c.startswith("evaluations_")]
            tally.evaluations += sum(evaluations)
            tally.retried += retried(sum(summary["stops"].values()),
                                     sum(e > 0 for e in evaluations), restarts)
    tally.wall = time.perf_counter() - start
    return tally


def shots_x_set(seeds: list[int], restarts: int) -> Tally:
    """The X point alone (k-index 0) of the `bands-2band-shots` command at
    each seed; a miss is a k-point written as failed."""
    with tempfile.TemporaryDirectory() as tmp:
        noise = Path(tmp) / "noise.json"
        noise.write_text(json.dumps(SHOTS_WORKLOAD.noise))
        return cli_set([*SHOTS_WORKLOAD.args, "--noise", str(noise), "--kpath", "X,G:1"],
                       seeds, restarts, points=1, miss_ev=math.inf)


def main() -> int:
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
    parser.add_argument("--x-seeds", type=int_list, default=int_list("1-20000"))
    args = parser.parse_args()

    if args.circuit == "three-qubit":
        args.path_seeds = args.path_seeds or int_list("1-10")
        restarts = args.restarts or [1, 2, 4, 8, 20]
        backends = {"path X,G,L:20": "exact", "L,G:1": "exact", "random 8x8": "exact"}

        def sets(r):
            return {"path X,G,L:20": cli_set(["--mode", "8band", "--kpath", "X,G,L:20"],
                                             args.path_seeds, r),
                    "L,G:1": cli_set(["--mode", "8band", "--kpath", "L,G:1"], args.lg_seeds, r),
                    "random 8x8": matrix_set(args.matrices, r)}
    else:
        args.path_seeds = args.path_seeds or int_list("1-100")
        restarts = args.restarts or [1, 2, 3]
        backends = {"path X,G,L:20": "exact", "X,G,L:5": "exact", "shots": "shots",
                    "shots X": "shots"}

        def sets(r):
            return {"path X,G,L:20": cli_set(["--mode", "2band", "--kpath", "X,G,L:20"],
                                             args.path_seeds, r),
                    "X,G,L:5": cli_set(["--mode", "2band", "--kpath", "X,G,L:5"],
                                       args.short_seeds, r),
                    "shots": shots_set(args.shots_seeds, r),
                    "shots X": shots_x_set(args.x_seeds, r)}

    print(f"{args.circuit} circuit")
    print("| set | restarts | solves | levels | worst err (eV) | misses | unconverged "
          "| max_iter stops | retried | evaluations | wall (s) |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    totals = {backend: {} for backend in backends.values()}
    for r in sorted(restarts):
        for name, t in sets(r).items():
            totals[backends[name]].setdefault(r, Tally()).merge(t)
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
