"""Acceptance suite: one test per release criterion, each printing a
PASS line with its headline numbers (run with ``pytest -s`` to see them).
"""
import itertools
import json
import time

import numpy as np
import pytest

from qbands.cli import main
from qbands.pauli import decompose, reconstruct
from qbands.qsim import THREE_QUBIT
from qbands.sampler import (
    ReadoutNoiseModel,
    basis_change,
    confusion,
    expectation_from_counts,
    mitigate_counts,
    parity_table,
    sample,
    sampled_expectation,
)
from qbands.tightbinding import KPoint, TBParameters, build_s_block, diagonalize_classical
from qbands.vqe import ExactBackend, full_spectrum, grid_scan

from conftest import kron_word, rand_hermitian, rand_state, seeded

SI = TBParameters.default_silicon()


def _report(num: int, message: str) -> None:
    print(f"\nACCEPTANCE {num} PASS — {message}")


def _read_bands(path):
    lines = path.read_text().splitlines()
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]

    def grab(name, cast=float):
        idx = columns.index(name)
        return np.array([cast(r[idx]) for r in rows])

    return rows, grab


class TestAcceptance:
    def test_01_two_band_oracle_equivalence(self, tmp_path):
        start = time.perf_counter()
        main(["bands", "--mode", "2band", "--backend", "exact",
              "--kpath", "X,G,L:20", "--out", str(tmp_path), "--seed", "1"])
        elapsed = time.perf_counter() - start
        rows, grab = _read_bands(tmp_path / "bands.csv")
        assert len(rows) == 41
        worst = 0.0
        for band in (1, 2):
            err = np.abs(grab(f"e_vqe_{band}") - grab(f"e_oracle_{band}"))
            worst = max(worst, float(err.max()))
        assert worst <= 1e-6
        assert elapsed < 10.0
        _report(1, f"41 k-points, max|Δ| = {worst:.2e} eV, {elapsed:.1f} s")

    @pytest.mark.slow
    def test_02_eight_band_oracle_equivalence(self, tmp_path):
        start = time.perf_counter()
        main(["bands", "--mode", "8band", "--backend", "exact",
              "--kpath", "X,G,L:20", "--out", str(tmp_path), "--seed", "1"])
        elapsed = time.perf_counter() - start
        rows, grab = _read_bands(tmp_path / "bands.csv")
        assert len(rows) == 41
        errors = []
        excluded = 0
        for band in range(1, 9):
            err = np.abs(grab(f"e_vqe_{band}") - grab(f"e_oracle_{band}"))
            conv = grab(f"converged_{band}", cast=lambda v: bool(int(v)))
            excluded += int(np.sum(~conv))
            errors.extend(err[conv])
        errors = np.array(errors)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["non_converged_entries"] == excluded
        frac_within = float(np.mean(errors <= 0.1))
        assert frac_within >= 0.95
        assert errors.max() <= 0.5
        assert elapsed < 600.0
        _report(
            2,
            f"{frac_within:.1%} of entries within 0.1 eV, max {errors.max():.2e} eV, "
            f"{excluded} non-converged excluded, {elapsed:.0f} s",
        )

    @pytest.mark.slow
    def test_03_deflation_spectral_completeness(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        backend = ExactBackend()
        for trial in range(50):
            H = rand_hermitian(rng, 8, scale=1.5)
            oracle = np.linalg.eigvalsh(H)
            spec = full_spectrum(
                decompose(H), 8, THREE_QUBIT, backend,
                restarts=8, seed=trial,
            )
            worst = max(worst, float(np.max(np.abs(spec.energies - oracle))))
        assert worst <= 1e-2
        _report(3, f"50 random 8x8 spectra, worst eigenvalue error {worst:.2e} eV")

    def test_04_shot_noise_scaling_law(self):
        rng = np.random.default_rng(11)
        H = rand_hermitian(rng, 4, scale=1.0)
        dec = decompose(H)
        state = rand_state(rng, 4)
        max_e = float(np.max(np.abs(np.linalg.eigvalsh(H))))
        sampled = [(w, c) for w, c in dec.coeffs.items() if set(w) != {"I"}]
        c_ident = dec.coefficient("II")
        ms = [2**k for k in range(7, 14)]
        stds = []
        for mi, M in enumerate(ms):
            vals = []
            for rep in range(100):
                total = c_ident
                for wi, (w, c) in enumerate(sampled):
                    total += c * sampled_expectation(
                        state[None], (w,), M, None, seeded(100_000 * mi + 100 * rep + wi)
                    )[0, 0]
                vals.append(total)
            variance = float(np.var(vals))
            assert variance <= max_e**2 / M, f"variance bound violated at M={M}"
            stds.append(np.sqrt(variance))
        slope = float(np.polyfit(np.log(ms), np.log(stds), 1)[0])
        assert abs(slope - (-0.5)) <= 0.1
        _report(4, f"log-log std slope {slope:.3f}, bound held for M=128..8192")

    def test_05_mitigation_recovery(self):
        rng = np.random.default_rng(5)
        M = 100_000
        p_plus = 0.1
        law1 = ReadoutNoiseModel.uniform(1, 0.05, 0.05).laws([0])
        for trial in range(5):
            state = rand_state(rng, 2)
            z = float(np.real(state.conj() @ np.diag([1.0, -1.0]) @ state))
            counts = sample(state[None, None], M, confusion(law1), seeded(700 + trial))[0]
            raw = expectation_from_counts(counts, ("Z",))[0]
            sigma = np.sqrt(max(1 - (0.9 * z) ** 2, 1e-12) / M)
            assert abs(raw - (1 - p_plus) * z) <= 3 * sigma
            corrected = mitigate_counts(counts, parity_table(law1), ("Z",))[0]
            assert abs(corrected - z) <= 3 * sigma / (1 - p_plus)
        law2 = ReadoutNoiseModel.uniform(2, 0.05, 0.05).laws([0])
        zz_op = kron_word("ZZ")
        for trial in range(5):
            state = rand_state(rng, 4)
            zz = float(np.real(state.conj() @ zz_op @ state))
            counts = sample(state[None, None], M, confusion(law2), seeded(800 + trial))[0]
            raw = expectation_from_counts(counts, ("ZZ",))[0]
            sigma = np.sqrt(max(1 - (0.81 * zz) ** 2, 1e-12) / M)
            assert abs(raw - (1 - p_plus) ** 2 * zz) <= 3 * sigma
            corrected = mitigate_counts(counts, parity_table(law2), ("ZZ",))[0]
            assert abs(corrected - zz) <= 3 * sigma / (1 - p_plus) ** 2
        _report(5, "single-qubit and ZZ mitigation within 3σ; bias (1-p+) confirmed")

    def test_06_parity_rule_worked_example(self):
        counts = np.zeros((1, 2**5), dtype=np.int64)
        counts[0, 0b00101] = 8192
        value = expectation_from_counts(counts, ("IZZIZ",))[0]
        assert value == 1.0
        _report(6, "I5 Z4 Z3 I2 Z1 on |00101> evaluates to exactly +1")

    def test_07_basis_change_identity(self):
        worst = 0.0
        for n in (1, 2):
            words = tuple("".join(letters) for letters in itertools.product("IXYZ", repeat=n))
            change = basis_change(words)
            for word, diagonal, U in zip(words, change.diagonal, change.unitary):
                recovered = U.conj().T @ kron_word(diagonal) @ U
                worst = max(worst, float(np.max(np.abs(recovered - kron_word(word)))))
        assert worst <= 1e-12
        _report(7, f"U†AU reproduces all 1- and 2-qubit words, max dev {worst:.1e}")

    def test_08_pauli_round_trip(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for trial in range(1000):
            n = 1 + trial % 3
            H = rand_hermitian(rng, 2**n, scale=rng.uniform(0.2, 8.0))
            worst = max(worst, float(np.max(np.abs(reconstruct(decompose(H)) - H))))
        assert worst <= 1e-12
        _report(8, f"1000 decompose->reconstruct round trips, max dev {worst:.1e}")

    def test_09_grid_scan_consistency(self):
        k = KPoint((0.125, 0.125, 0.125))
        H = build_s_block(SI, k)
        dec = decompose(H)
        scan = grid_scan(dec, 32, 64, ExactBackend())
        TH, PH = np.meshgrid(scan.thetas, scan.phis, indexing="ij")
        closed_form = (
            dec.coefficient("I")
            + dec.coefficient("X") * np.sin(TH) * np.cos(PH)
            + dec.coefficient("Y") * np.sin(TH) * np.sin(PH)
            + dec.coefficient("Z") * np.cos(TH)
        )
        dev = float(np.max(np.abs(scan.energies - closed_form)))
        assert dev <= 1e-12
        oracle_ground = diagonalize_classical(H)[0]
        grid_step = max(
            float(np.max(np.abs(np.diff(scan.energies, axis=0)))),
            float(np.max(np.abs(np.diff(scan.energies, axis=1)))),
        )
        gap = scan.argmin[2] - oracle_ground
        assert -1e-12 <= gap <= grid_step
        _report(
            9,
            f"surface matches closed form to {dev:.1e}; argmin within "
            f"{gap:.2e} eV of oracle (grid step {grid_step:.2e} eV)",
        )

    def test_10_determinism(self, tmp_path):
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps(
            {"w01": 0.04, "w10": 0.05, "drift_amplitude": 0.01,
             "drift_period": 18}
        ))
        bands_args = ["bands", "--mode", "2band", "--kpath", "X,G:2",
                      "--backend", "shots", "--shots", "2048", "--noise",
                      str(noise_file), "--mitigate", "--seed", "3"]
        scan_args = ["scan", "--kpoint", "0.125/0.125/0.125", "--theta-steps",
                     "8", "--phi-steps", "8", "--seed", "3"]
        rates_args = ["rates", "--samples", "6", "--trials", "5000",
                      "--noise", str(noise_file), "--seed", "3"]
        for name, args in (("bands.csv", bands_args), ("scan.csv", scan_args),
                           ("rates.csv", rates_args)):
            main(args + ["--out", str(tmp_path / "a")])
            main(args + ["--out", str(tmp_path / "b")])
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
        _report(10, "bands, scan and rates outputs are byte-identical on rerun")
