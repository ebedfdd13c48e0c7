"""The benchmark's workloads and its independent check of `bands.csv`.

Each workload is one fixed `qbands bands` command line.  The check rebuilds
every k-point's matrix with the public tight-binding builders, diagonalises
it with `numpy.linalg.eigvalsh` and judges each level against that oracle
(see `level_tolerances`), so a wrong `e_oracle_*` column cannot hide a wrong
`e_vqe_*` one.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qbands import pauli
from qbands.tightbinding import (
    KPoint,
    TBParameters,
    build_full_hamiltonian,
    build_s_block,
    make_kpath,
)

# The CLI writes e_oracle_* with repr(), so only LAPACK round-off separates
# it from a fresh eigvalsh of the same matrix.
ORACLE_TOL_EV = 1e-9

# 2-band shots levels may lie this many shot-noise sigmas from their centre.
SHOTS_SIGMAS = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "2band" or "8band"
    anchors: tuple[str, ...]
    points_per_segment: int
    shots: int | None = None  # None: exact backend
    noise: dict | None = None  # readout noise, mitigated on the shots backend
    tol_ev: float | None = None  # fixed level tolerance; None: see level_tolerances
    restart_tol_ev: float = 0.1  # a restart within this of the kept best was useful

    @property
    def exact(self) -> bool:
        return self.shots is None

    @property
    def n_bands(self) -> int:
        return 2 if self.mode == "2band" else 8

    @property
    def args(self) -> tuple[str, ...]:
        """`bands` arguments, without --kpath/--noise/--seed/--out."""
        if self.exact:
            return ("--mode", self.mode, "--backend", "exact")
        return ("--mode", self.mode, "--backend", "shots", "--shots", str(self.shots),
                "--mitigate")

    @property
    def sigma_word(self) -> float:
        """Shot noise of one mitigated Pauli word: mitigation divides it by
        1 - w01 - w10."""
        return 1.0 / (1.0 - self.noise["w01"] - self.noise["w10"]) / math.sqrt(self.shots)

    def kpoints(self) -> list[KPoint]:
        anchors = [KPoint.high_symmetry(a) for a in self.anchors]
        return list(make_kpath(anchors, self.points_per_segment).points)

    def cli_args(self, seed: int, out_dir: Path) -> list[str]:
        """Full `bands` argument list; writes the noise file."""
        out_dir.mkdir(parents=True, exist_ok=True)
        args = ["bands", *self.args,
                "--kpath", f"{','.join(self.anchors)}:{self.points_per_segment}"]
        if self.noise is not None:
            path = out_dir / "noise.json"
            path.write_text(json.dumps(self.noise))
            args += ["--noise", str(path)]
        return args + ["--seed", str(seed), "--out", str(out_dir)]


WORKLOADS = {
    w.name: w
    for w in (
        # Today's wall: the scalar objective through the gate-list simulator
        # and the batched gradient.  No sampler, so shots work must not move it.
        Workload("bands-8band-exact", "8band", ("L", "G"), 1, tol_ev=0.1),
        # The README's shots command: sampling and RNG streams dominate.
        # One-qubit words never share a setting, so grouping must not move it.
        Workload("bands-2band-shots", "2band", ("X", "G", "L"), 5, shots=8192,
                 noise={"w01": 0.05, "w10": 0.08}, restart_tol_ev=0.5),
    )
}


def hamiltonian(workload: Workload, k: KPoint) -> np.ndarray:
    params = TBParameters.default_silicon()
    if workload.mode == "2band":
        return build_s_block(params, k)
    return build_full_hamiltonian(params, k)


def level_tolerances(workload: Workload, H: np.ndarray, oracle: np.ndarray,
                     row: dict) -> list[tuple[float, float]]:
    """(centre, tolerance) in eV for each level of one k-point's row.

    Exact workloads: the oracle level and the workload's fixed tolerance.

    2-band shots: SHOTS_SIGMAS times the shot-noise sigmas of
    tests/test_cli.py::test_shots_bands_within_statistical_tolerance, around
    the level the program's own deflation leads to.  The ground state comes
    with a small angle error, and `full_spectrum` deflates with its sampled
    energy e0, so the deflated operator keeps a residual that moves the
    second level off the oracle by about |e0/e1| times the ground level's
    variational error (17 at Gamma).  That move is exact arithmetic, not
    noise: on the shifted axis (levels a < b < 0), the ground state's weight
    s^2 on the upper eigenvector follows from its row's residual
    r = ||(H - e0) psi||, since r^2 = (a - e0)^2 (1 - s^2) + (b - e0)^2 s^2,
    and the centre of the deflated level is the lower eigenvalue of
    H - e0 |psi><psi| in the oracle eigenbasis.  Where the two levels lie
    within the tolerances of each other the ascending sort may swap them,
    so both get the wider tolerance, widened by the gap, around the oracle.
    """
    if workload.exact:
        return [(float(level), workload.tol_ev) for level in oracle]
    sigma_word = workload.sigma_word
    dec = pauli.decompose(H)
    # Ground level: direct estimator noise over the sampled words.
    sigma1 = math.sqrt(sum(c**2 for w, c in dec.coeffs.items()
                           if w != dec.identity_word)) * sigma_word
    # Deflated level: the sampled deflation expectations, and the deflated
    # operator's own estimator noise.
    shift = pauli.gershgorin_upper_bound(H) + 1.0
    a, b = oracle[0] - shift, oracle[1] - shift
    sigma2 = abs(a) * sigma_word / math.sqrt(2) + math.sqrt(0.5) * sigma_word
    tol1, tol2 = SHOTS_SIGMAS * sigma1, SHOTS_SIGMAS * sigma2
    gap = b - a
    if gap <= tol1 + tol2:
        tol = max(tol1, tol2) + abs(a / b) * gap
        return [(float(oracle[0]), tol), (float(oracle[1]), tol)]
    e0 = float(row["e_vqe_1"]) - shift
    r = float(row["residual_1"])
    s2 = (r**2 - (a - e0) ** 2) / ((b - e0) ** 2 - (a - e0) ** 2)
    s2 = min(max(s2, 0.0), 1.0)
    cs = math.sqrt(s2 * (1.0 - s2))
    deflated = np.array([[a - e0 * (1.0 - s2), -e0 * cs], [-e0 * cs, b - e0 * s2]])
    centre2 = float(np.linalg.eigvalsh(deflated)[0]) + shift
    return [(float(oracle[0]), tol1), (centre2, tol2)]


@dataclass
class CheckResult:
    attempted: int
    failed: int
    problems: list[str]
    max_abs_err_ev: float  # over the finite levels present; 0 if none


def check_bands(workload: Workload, out_dir: Path, exit_code: int) -> CheckResult:
    """Judge every level of one run's `bands.csv` against eigvalsh.

    A run that exited non-zero or wrote no `bands.csv` fails all its levels.
    """
    kpoints = workload.kpoints()
    nb = workload.n_bands
    attempted = len(kpoints) * nb
    path = out_dir / "bands.csv"
    if exit_code != 0 or not path.exists():
        return CheckResult(attempted, attempted,
                           [f"exit code {exit_code}, bands.csv present: {path.exists()}"],
                           0.0)
    try:
        return _check_rows(workload, kpoints, path.read_text().splitlines())
    except (ValueError, KeyError, IndexError) as exc:
        return CheckResult(attempted, attempted, [f"unreadable bands.csv: {exc!r}"], 0.0)


def _check_rows(workload: Workload, kpoints: list[KPoint], lines: list[str]) -> CheckResult:
    nb = workload.n_bands
    columns = lines[1].split(",")
    rows = {}
    for line in lines[2:]:
        record = dict(zip(columns, line.split(",")))
        rows[int(record["k_index"])] = record
    failed = 0
    problems = []
    max_err = 0.0
    for i, k in enumerate(kpoints):
        row = rows.get(i)
        if row is None:
            failed += nb
            problems.append(f"k {i}: missing row")
            continue
        written = np.array([float(row[c]) for c in ("kx", "ky", "kz")])
        if not np.allclose(written, k.as_array(), rtol=0.0, atol=1e-12):
            failed += nb
            problems.append(f"k {i}: written at {written.tolist()}")
            continue
        H = hamiltonian(workload, k)
        oracle = np.linalg.eigvalsh(H)
        tolerances = level_tolerances(workload, H, oracle, row)
        for b in range(nb):
            vqe = float(row[f"e_vqe_{b + 1}"])
            err = abs(vqe - oracle[b])
            centre, tol = tolerances[b]
            reason = None
            if not math.isfinite(vqe):
                reason = f"e_vqe = {vqe}"
            elif abs(float(row[f"e_oracle_{b + 1}"]) - oracle[b]) > ORACLE_TOL_EV:
                reason = f"e_oracle {row[f'e_oracle_{b + 1}']} != eigvalsh {oracle[b]!r}"
            elif row[f"converged_{b + 1}"] != "1":
                reason = "not converged"
            elif not abs(vqe - centre) <= tol:  # a NaN centre fails too
                reason = (f"|e_vqe - {centre:.6g}| = {abs(vqe - centre):.3g} eV"
                          f" > {tol:.3g} eV")
            if math.isfinite(vqe):
                max_err = max(max_err, err)
            if reason:
                failed += 1
                problems.append(f"k {i} band {b + 1}: {reason}")
    return CheckResult(len(kpoints) * nb, failed, problems, max_err)
