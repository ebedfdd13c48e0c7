#!/usr/bin/env python3
"""Sweep of the restart count of the three-qubit circuit on the exact backend.

    python3 scripts/restart_sweep.py [--restarts 1,2,4,8,20] [--path-seeds 1-10]
        [--lg-seeds 1000-1099,7000-7099,803000-803999] [--matrices 100]

Run from the repository root.  For each restart count, `full_spectrum` solves
three sets with BFGS and every other optimiser setting at its default:

* path:   the 41-point `X,G,L:20` path of `bands --mode 8band`, once per
          master seed, each k-point solved as the CLI solves it (same
          optimiser-seed fan-out);
* L,G:    the two k-points of `bands --mode 8band --kpath L,G:1`, once per
          master seed;
* random: random 8x8 Hermitian matrices drawn as the deflation acceptance
          test draws them, but from generator seed 2025 and with optimiser
          seeds 1000, 1001, ..., which that test does not use.

Every level is compared with `numpy.linalg.eigvalsh`.  Per set and restart
count the table gives the worst |error| (eV), the misses (a level more than
1e-3 eV off, or a solve that ends in ZeroCaptureError), the levels that did
not converge, the energy evaluations and the wall time.  The last line names
the smallest restart count with no miss and no unconverged level over all
sets: the rule the exact three-qubit BFGS default follows.
"""
import argparse
import os
import sys
import time
from pathlib import Path

# One BLAS thread, so that the wall times compare across restart counts.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qbands import cli  # noqa: E402
from qbands.pauli import decompose  # noqa: E402
from qbands.qsim import THREE_QUBIT  # noqa: E402
from qbands.tightbinding import TBParameters, make_kpath  # noqa: E402
from qbands.vqe import ExactBackend, OptimizerConfig, ZeroCaptureError, full_spectrum  # noqa: E402

MISS_EV = 1e-3
MATRIX_SEED = 2025
MATRIX_OPT_SEED = 1000


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
        self.worst = 0.0
        self.wall = 0.0

    def add(self, energies, oracle, converged, evaluations) -> None:
        err = np.abs(np.asarray(energies) - oracle)
        self.solves += 1
        self.levels += len(err)
        self.worst = max(self.worst, float(err.max()))
        self.misses += int(np.sum(err > MISS_EV))
        self.unconverged += int(np.sum(~np.asarray(converged)))
        self.evaluations += int(np.sum(evaluations))

    def capture(self) -> None:
        self.solves += 1
        self.misses += 1

    def merge(self, other: "Tally") -> None:
        for name in ("solves", "levels", "misses", "unconverged", "evaluations", "wall"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.worst = max(self.worst, other.worst)


def cli_set(kpath: str, seeds: list[int], restarts: int) -> Tally:
    """Every k-point of `bands --mode 8band --kpath KPATH --seed S`, as the
    CLI solves it, for each seed S."""
    tally = Tally()
    start = time.perf_counter()
    for seed in seeds:
        args = cli.build_parser().parse_args(
            ["bands", "--mode", "8band", "--kpath", kpath, "--seed", str(seed)])
        args.params = TBParameters.default_silicon()
        args.optimizer = OptimizerConfig(restarts=restarts)
        path = make_kpath(*cli.parse_kpath(kpath))
        for i, kp in enumerate(path.points):
            r = cli._solve_kpoint((args, i, kp.components, float(path.coords[i])))
            if r["failed"]:  # a ZeroCaptureError, written as NaN
                tally.capture()
                continue
            tally.add(r["energies"], np.array(r["oracle"]), r["converged"], r["evaluations"])
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
        except ZeroCaptureError:
            tally.capture()
            continue
        levels = [lv for _, lv, _ in spec.sorted_levels()]
        tally.add(spec.energies, np.linalg.eigvalsh(H), [lv.converged for lv in levels],
                  [lv.evaluations for lv in levels])
    tally.wall = time.perf_counter() - start
    return tally


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--restarts", type=int_list, default=[1, 2, 4, 8, 20])
    parser.add_argument("--path-seeds", type=int_list, default=int_list("1-10"))
    parser.add_argument("--lg-seeds", type=int_list,
                        default=int_list("1000-1099,7000-7099,803000-803999"))
    parser.add_argument("--matrices", type=int, default=100)
    args = parser.parse_args()

    print("| set | restarts | solves | levels | worst err (eV) | misses | unconverged "
          "| evaluations | wall (s) |")
    print("|---|---|---|---|---|---|---|---|---|")
    totals = {}
    for restarts in sorted(args.restarts):
        sets = {
            "path X,G,L:20": cli_set("X,G,L:20", args.path_seeds, restarts),
            "L,G:1": cli_set("L,G:1", args.lg_seeds, restarts),
            "random 8x8": matrix_set(args.matrices, restarts),
        }
        total = totals[restarts] = Tally()
        for tally in sets.values():
            total.merge(tally)
        for name, t in [*sets.items(), ("all", total)]:
            print(f"| {name} | {restarts} | {t.solves} | {t.levels} | {t.worst:.1e} "
                  f"| {t.misses} | {t.unconverged} | {t.evaluations} | {t.wall:.1f} |",
                  flush=True)

    smallest = next((r for r, t in totals.items()
                     if t.misses == 0 and t.unconverged == 0), "none")
    print("smallest restart count with no miss and no unconverged level:", smallest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
