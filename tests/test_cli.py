import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbands
import qbands.cli
from qbands.cli import main, parse_kpath, parse_kpoint
from qbands.pauli import decompose
from qbands.pauli import gershgorin_upper_bound
from qbands.tightbinding import (
    KPoint,
    TBParameters,
    build_s_block,
    diagonalize_classical,
)

from conftest import rand_hermitian

SI = TBParameters.default_silicon()


def read_csv(path):
    """(header dict, column names, rows of strings)."""
    lines = path.read_text().splitlines()
    header = json.loads(lines[0][2:])
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, columns, rows


def col(columns, rows, name, cast=float):
    idx = columns.index(name)
    return [cast(r[idx]) for r in rows]


class TestParsing:
    def test_kpath_labels_and_count(self):
        anchors, pps = parse_kpath("X,G,L:7")
        assert pps == 7
        assert [a.components for a in anchors] == [
            (1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.5, 0.5, 0.5)
        ]

    def test_kpath_default_points(self):
        _, pps = parse_kpath("X,G")
        assert pps == 20

    def test_kpath_fractional_anchor(self):
        anchors, _ = parse_kpath("0.25/0.0/-0.5,G:3")
        assert anchors[0].components == (0.25, 0.0, -0.5)

    def test_kpath_needs_two_anchors(self):
        with pytest.raises(ValueError):
            parse_kpath("G:5")

    def test_kpath_needs_a_point_per_segment(self):
        with pytest.raises(ValueError):
            parse_kpath("X,G:0")

    def test_kpoint_bad_fraction(self):
        with pytest.raises(ValueError):
            parse_kpoint("0.1/0.2")


class File:
    """An input file argument, written to the test's tmp directory as
    ``name`` with ``content`` (left missing when None)."""

    def __init__(self, content: str | None, name: str = "input.json"):
        self.content = content
        self.name = name

    def path(self, tmp_path) -> str:
        path = tmp_path / self.name
        if self.content is not None:
            path.write_text(self.content)
        return str(path)


class TestBadInput:
    @pytest.mark.parametrize("argv, flag", [
        (["bands", "--shots", "0"], "--shots"),
        (["scan", "--shots", "-3"], "--shots"),
        (["bands", "--workers", "0"], "--workers"),
        (["bands", "--kpath", "X,G:0"], "--kpath"),
        (["bands", "--kpath", "X,G:-2"], "--kpath"),
        (["bands", "--kpath", "G:5"], "--kpath"),
        (["rates", "--trials", "0"], "--trials"),
        (["rates", "--qubits", "0"], "--qubits"),
        (["scan", "--theta-steps", "1"], "--theta-steps"),
        (["scan", "--phi-steps", "1"], "--phi-steps"),
        (["bands", "--backend", "shots", "--noise", File(None)], "--noise"),
        (["bands", "--backend", "shots", "--noise", File("{w01: 0.1")], "--noise"),
        (["bands", "--backend", "shots", "--noise", File("[0.1]")], "--noise"),
        (["bands", "--optimizer", File(None)], "--optimizer"),
        (["bands", "--optimizer", File("not json")], "--optimizer"),
        (["bands", "--optimizer", File("[1]")], "--optimizer"),
        (["bands", "--optimizer", File('{"method": "newton"}')], "--optimizer"),
        (["scan", "--params", File(None)], "--params"),
        (["bands", "--params", File("{")], "--params"),
        (["bands", "--params", File('{"E_s": 0.0}')], "--params"),
        (["scan", "--kpoint", "Q"], "--kpoint"),
        (["rates", "--samples", "0"], "--samples"),
        (["bands", "--optimizer", File('{"max_iter": "x"}')], "--optimizer"),
        (["bands", "--optimizer", File('{"restarts": 2.5}')], "--optimizer"),
        (["bands", "--optimizer", File('{"max_iter": true}')], "--optimizer"),
        (["bands", "--optimizer", File('{"tol_ev": "1e-6"}')], "--optimizer"),
        (["bands", "--optimizer", File('{"seed": "1"}')], "--optimizer"),
        (["bands", "--optimizer", File('{"fd_step": 1e-4}')], "--optimizer"),
        (["bands", "--optimizer", File('{"max_iters": 50}')], "--optimizer"),
        (["decompose", "--matrix", File(None)], "--matrix"),
        (["decompose", "--matrix", File("{")], "--matrix"),
        (["decompose", "--matrix", File('{"rows": [[1.0]]}')], "--matrix"),
        (["decompose", "--matrix", File('{"matrix": [[1, 0, 0], [0, 1, 0]]}')],
         "--matrix"),
        (["decompose", "--matrix", File('{"matrix": [[[1, 0, 0], 0], [0, 1]]}')],
         "--matrix"),
        (["decompose", "--matrix",
          File('{"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}')], "--matrix"),
        (["decompose", "--matrix", File("1.0,0.0,0.0,0.0\n", "m.csv")], "--matrix"),
        (["decompose", "--matrix", File("1.0,x\n", "m.csv")], "--matrix"),
        (["bands", "--kpath", "X,G:1", "--seed", "-1"], "--seed"),
        (["decompose", "--matrix", File('{"matrix": [[0, 1], [0, 0]]}')], "--matrix"),
        (["bands", "--optimizer", File('{"method": "quasi-newton"}')], "--optimizer"),
    ])
    def test_rejected_before_any_work(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [a.path(tmp_path) if isinstance(a, File) else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, noise, flag", [
        (["bands", "--backend", "shots"], {"w01": [0.1, 0.1]}, "--noise"),
        (["bands", "--mode", "8band", "--backend", "shots"],
         {"w01": 0.1, "w10": [0.1, 0.1]}, "--noise"),
        (["scan", "--backend", "shots"], {"w10": [0.1, 0.1, 0.1]}, "--noise"),
        (["rates", "--qubits", "2"], {"w01": [0.1, 0.1, 0.1]}, "--noise"),
        (["bands", "--backend", "shots", "--mitigate"],
         {"w01": 0.5, "w10": 0.5}, "--mitigate"),
        (["bands", "--mode", "8band", "--backend", "shots", "--mitigate"],
         {"w01": [0.0, 0.0, 0.6], "w10": [0.1, 0.1, 0.4]}, "--mitigate"),
        (["bands", "--backend", "shots", "--mitigate", "--kpath", "X,G:1",
          "--shots", "64"],
         {"w01": 0.45, "w10": 0.5, "drift_amplitude": 0.1, "drift_period": 4},
         "--mitigate"),
        (["bands", "--backend", "shots"], {"w01": None}, "--noise"),
        (["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
         {"w01": 0.05, "w10": 0.08, "drift_amplitude": 0.01, "drift_period": "18"},
         "--noise"),
        (["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
         {"w01": 0.05, "w10": 0.08, "drift_amplitude": 0.01, "drift_period": float("nan")},
         "--noise"),
        (["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
         {"w01": 0.05, "w10": 0.08, "drift_amplitude": float("nan"), "drift_period": 18},
         "--noise"),
        (["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
         {"w10": 0.08, "drift_amplitude": 0.01, "drift_period": True}, "--noise"),
        (["scan", "--backend", "shots", "--shots", "64"],
         {"w10": 0.08, "drift_amplitude": 0.01, "drift_period": float("nan")}, "--noise"),
        (["rates", "--trials", "10", "--samples", "2"],
         {"w10": 0.08, "drift_amplitude": 0.01, "drift_period": "18"}, "--noise"),
        (["rates", "--trials", "10", "--samples", "2"],
         {"w10": 0.08, "drift_amplitude": 0.01, "drift_period": -18}, "--noise"),
        (["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
         {"w01": "0.05"}, "--noise"),
        (["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
         {"w10": True}, "--noise"),
        (["rates", "--trials", "10", "--samples", "2"], {"w01": ["0.1"]}, "--noise"),
    ])
    def test_noise_rejected_before_any_work(self, argv, noise, flag, tmp_path, capsys):
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps(noise))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--noise", str(noise_file), "--out", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


_COMMON_KEYS = {"command", "params", "kpath", "mode", "backend", "shots", "noise",
                "mitigate", "optimizer", "seed", "workers"}


class TestHeader:
    @pytest.mark.parametrize("argv, out_file, expected", [
        (["bands", "--kpath", "X,G:1", "--seed", "3"], "bands.csv",
         {"kpath": "X,G:1", "mode": "2band", "workers": 1, "seed": 3}),
        (["scan", "--kpoint", "X", "--theta-steps", "2", "--phi-steps", "3"], "scan.csv",
         {"kpath": None, "mode": "2band", "kpoint": "X", "theta_steps": 2,
          "phi_steps": 3}),
        (["rates", "--samples", "1", "--trials", "10"], "rates.csv",
         {"params": None, "kpath": None, "mode": None, "qubits": 1, "trials": 10,
          "samples": 1}),
        (["decompose", "--matrix", File('{"matrix": [[1, 0], [0, -1]]}')], "decompose.csv",
         {"params": None, "kpath": None, "mode": None, "backend": "exact"}),
    ], ids=["bands", "scan", "rates", "decompose"])
    def test_config_keys_and_digest(self, argv, out_file, expected, tmp_path):
        argv = [a.path(tmp_path) if isinstance(a, File) else a for a in argv]
        main(argv + ["--out", str(tmp_path)])
        header, _, _ = read_csv(tmp_path / out_file)
        config = header["config"]
        extra = {k for k in expected if k not in _COMMON_KEYS}
        if argv[0] == "decompose":
            extra.add("matrix")
            assert config["matrix"] == argv[2]
        assert set(config) == _COMMON_KEYS | extra
        assert {k: config[k] for k in expected} == expected
        assert config["command"] == argv[0]
        assert config["optimizer"]["method"] == "bfgs"
        blob = json.dumps(config, sort_keys=True).encode()
        assert header["digest"] == hashlib.sha256(blob).hexdigest()[:12]
        assert header["seed"] == config["seed"]


class TestBands:
    def test_two_band_exact_small_path(self, tmp_path):
        main(["bands", "--mode", "2band", "--kpath", "X,G,L:3",
              "--out", str(tmp_path), "--seed", "4"])
        header, columns, rows = read_csv(tmp_path / "bands.csv")
        assert header["config"]["mode"] == "2band"
        assert len(rows) == 7
        for band in (1, 2):
            vqe = np.array(col(columns, rows, f"e_vqe_{band}"))
            oracle = np.array(col(columns, rows, f"e_oracle_{band}"))
            assert np.max(np.abs(vqe - oracle)) < 1e-6
        lower = np.array(col(columns, rows, "e_vqe_1"))
        upper = np.array(col(columns, rows, "e_vqe_2"))
        assert np.all(lower <= upper)
        coords = col(columns, rows, "path_coord")
        assert coords == sorted(coords)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["bands"][0]["max_abs_err"] < 1e-6
        assert summary["non_converged_entries"] == 0

    def test_worker_pool_rows_match_serial(self, tmp_path):
        main(["bands", "--mode", "2band", "--kpath", "X,G:2",
              "--out", str(tmp_path / "serial"), "--seed", "4"])
        main(["bands", "--mode", "2band", "--kpath", "X,G:2", "--workers", "2",
              "--out", str(tmp_path / "pool"), "--seed", "4"])
        serial = (tmp_path / "serial" / "bands.csv").read_text().splitlines()
        pool = (tmp_path / "pool" / "bands.csv").read_text().splitlines()
        assert serial[1:] == pool[1:]  # headers differ only in the workers field

    def test_worker_pool_no_larger_than_path(self, tmp_path, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(qbands.cli, "ProcessPoolExecutor", SerialPool)
        main(["bands", "--kpath", "X,G:1", "--workers", "8", "--out", str(tmp_path)])
        assert sizes == [2]  # two k-points
        header, _, rows = read_csv(tmp_path / "bands.csv")
        assert len(rows) == 2 and header["config"]["workers"] == 8

    def test_shots_bands_within_statistical_tolerance(self, tmp_path):
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps({"w01": 0.05, "w10": 0.05}))
        M = 8192
        main(["bands", "--mode", "2band", "--kpath", "X,G:1", "--backend",
              "shots", "--shots", str(M), "--noise", str(noise_file),
              "--mitigate", "--out", str(tmp_path), "--seed", "6"])
        header, columns, rows = read_csv(tmp_path / "bands.csv")
        sigma_word = (1 / 0.9) / np.sqrt(M)  # mitigation-amplified shot noise
        for row in rows:
            k = KPoint(tuple(
                col(columns, [row], c)[0] for c in ("kx", "ky", "kz")
            ))
            H = build_s_block(SI, k)
            dec = decompose(H)
            oracle = diagonalize_classical(H)
            # Ground level: direct estimator noise over the sampled words.
            sigma1 = np.sqrt(
                sum(c**2 for w, c in dec.coeffs.items() if w != "I")
            ) * sigma_word
            # Deflated level: the sampled deflation expectations imprint an
            # extra |ε0| * σ_word / sqrt(2^n) error on the updated operator,
            # and the deflated+shifted operator itself keeps one eigenvalue
            # at -1 (direct noise sqrt(1/2) * σ_word).
            shift = gershgorin_upper_bound(H) + 1.0
            eps0_shifted = oracle[0] - shift
            sigma2 = abs(eps0_shifted) * sigma_word / np.sqrt(2) \
                + np.sqrt(0.5) * sigma_word
            # Ascending sort can swap near-degenerate levels, so both bands
            # get the worst of the two level tolerances.
            tol = 3 * max(sigma1, sigma2)
            for band in (1, 2):
                vqe = col(columns, [row], f"e_vqe_{band}")[0]
                assert abs(vqe - oracle[band - 1]) <= tol

    def test_degenerate_x_point_second_level_not_stopped_early(self, tmp_path):
        # Both levels at X are 0 eV.  Restarts that stop after a few
        # iterations on a failed line search, flagged converged, leave level 2
        # well above that (0.106 eV at this seed with central-difference BFGS).
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps({"w01": 0.05, "w10": 0.08}))
        main(["bands", "--mode", "2band", "--backend", "shots", "--shots", "8192",
              "--mitigate", "--noise", str(noise_file), "--kpath", "X,G:1",
              "--seed", "5001", "--out", str(tmp_path)])
        _, columns, rows = read_csv(tmp_path / "bands.csv")
        assert abs(col(columns, rows[:1], "e_oracle_2")[0]) < 1e-12
        assert abs(col(columns, rows[:1], "e_vqe_2")[0]) <= 0.09

    def test_eight_band_sorted_energies(self, tmp_path):
        main(["bands", "--mode", "8band", "--kpath", "G,L:1",
              "--out", str(tmp_path), "--seed", "2"])
        header, columns, rows = read_csv(tmp_path / "bands.csv")
        for row in rows:
            energies = [col(columns, [row], f"e_vqe_{b}")[0] for b in range(1, 9)]
            assert energies == sorted(energies)


class TestScan:
    def test_phi_independence_where_off_diagonal_vanishes(self, tmp_path):
        # At X the phase sum is zero, so c_X = c_Y = 0 and the surface is
        # constant along every φ row; its minimum is the oracle ground state.
        main(["scan", "--kpoint", "X", "--theta-steps", "8", "--phi-steps", "6",
              "--out", str(tmp_path), "--seed", "3"])
        header, columns, rows = read_csv(tmp_path / "scan.csv")
        surface = {}
        for row in rows:
            th, ph, e = (float(v) for v in row)
            surface.setdefault(th, []).append(e)
        for values in surface.values():
            assert max(values) - min(values) < 1e-12
        oracle = diagonalize_classical(build_s_block(SI, KPoint((1, 0, 0))))[0]
        assert header["argmin"]["energy"] == pytest.approx(oracle, abs=1e-12)

    def test_off_centre_minimum_matches_oracle(self, tmp_path):
        main(["scan", "--kpoint", "0.125/0.125/0.125", "--out", str(tmp_path)])
        header, _, _ = read_csv(tmp_path / "scan.csv")
        oracle = diagonalize_classical(
            build_s_block(SI, KPoint((0.125, 0.125, 0.125)))
        )[0]
        # Grid argmin sits within one node of the true minimum.
        assert header["argmin"]["energy"] >= oracle - 1e-12
        assert header["argmin"]["energy"] - oracle < 0.05


class TestRates:
    def test_zero_noise_series_is_zero(self, tmp_path):
        main(["rates", "--samples", "4", "--trials", "2000",
              "--out", str(tmp_path)])
        _, columns, rows = read_csv(tmp_path / "rates.csv")
        assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)

    def test_constant_rate_series_mean(self, tmp_path):
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps({"w01": 0.02, "w10": 0.0}))
        main(["rates", "--samples", "20", "--trials", "50000", "--noise",
              str(noise_file), "--out", str(tmp_path), "--seed", "7"])
        _, columns, rows = read_csv(tmp_path / "rates.csv")
        series = np.array(col(columns, rows, "w01_q1"))
        sigma_mean = np.sqrt(0.02 * 0.98 / 50000 / len(series))
        assert abs(series.mean() - 0.02) <= 3 * sigma_mean

    def test_injected_drift_period_recovered(self, tmp_path):
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps(
            {"w01": 0.0, "w10": 0.05, "drift_amplitude": 0.01,
             "drift_period": 18}
        ))
        main(["rates", "--samples", "50", "--trials", "100000", "--noise",
              str(noise_file), "--out", str(tmp_path), "--seed", "8"])
        _, columns, rows = read_csv(tmp_path / "rates.csv")
        series = np.array(col(columns, rows, "w10_q1"))
        t = np.arange(len(series))
        # Least-squares sinusoid fit over a period grid.
        best = None
        for period in np.linspace(8, 30, 441):
            design = np.column_stack(
                [np.sin(2 * np.pi * t / period), np.cos(2 * np.pi * t / period),
                 np.ones_like(t)]
            )
            _, sse, *_ = np.linalg.lstsq(design, series, rcond=None)
            sse = float(sse[0]) if len(sse) else 0.0
            if best is None or sse < best[1]:
                best = (period, sse)
        assert abs(best[0] - 18.0) / 18.0 < 0.10


class TestStartup:
    def test_scipy_stays_off_the_import_path(self):
        # scipy serves COBYLA only and is imported on its first use.
        script = (
            "import sys\n"
            "import qbands\n"
            "from qbands.cli import main\n"
            "try:\n"
            "    main(['--version'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "assert 'scipy' not in sys.modules, 'scipy imported at start-up'\n"
            "import numpy as np\n"
            "res = qbands.optimize_direct(lambda x: float((x[0] - 1) ** 2), np.zeros(1),\n"
            "                             qbands.OptimizerConfig(method='cobyla'))\n"
            "assert abs(res.x[0] - 1) < 1e-3 and 'scipy' in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(qbands.__file__).resolve().parent.parent)}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestDecompose:
    def test_json_matrix_roundtrip(self, tmp_path, rng):
        H = rand_hermitian(rng, 4)
        mat_file = tmp_path / "m.json"
        mat_file.write_text(json.dumps(
            {"matrix": [[[v.real, v.imag] for v in row] for row in H]}
        ))
        main(["decompose", "--matrix", str(mat_file), "--out", str(tmp_path)])
        _, columns, rows = read_csv(tmp_path / "decompose.csv")
        table = {r[0]: float(r[1]) for r in rows}
        expected = decompose(H)
        assert table == pytest.approx(dict(expected.coeffs))

    def test_csv_matrix_input(self, tmp_path):
        mat_file = tmp_path / "m.csv"
        mat_file.write_text("1.0,0.0,0.0,-0.5\n0.0,0.5,-1.0,0.0\n")
        main(["decompose", "--matrix", str(mat_file), "--out", str(tmp_path)])
        _, _, rows = read_csv(tmp_path / "decompose.csv")
        table = {r[0]: float(r[1]) for r in rows}
        assert table == {"Y": 0.5, "Z": 1.0}


class TestDeterminism:
    def test_identical_seed_reproduces_bands_bytes(self, tmp_path):
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps({"w01": 0.03, "w10": 0.06}))
        args = ["bands", "--mode", "2band", "--kpath", "X,G:1", "--backend",
                "shots", "--shots", "1024", "--noise", str(noise_file),
                "--mitigate", "--seed", "9"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "bands.csv").read_bytes() == \
            (tmp_path / "b" / "bands.csv").read_bytes()

    def test_identical_seed_reproduces_rates_bytes(self, tmp_path):
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps({"w01": 0.02, "w10": 0.04}))
        args = ["rates", "--samples", "5", "--trials", "3000", "--noise",
                str(noise_file), "--seed", "12"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "rates.csv").read_bytes() == \
            (tmp_path / "b" / "rates.csv").read_bytes()

    def test_explicit_optimizer_seed_zero_replaces_master(self, tmp_path):
        opt_file = tmp_path / "opt.json"
        opt_file.write_text(json.dumps({"seed": 0}))
        args = ["bands", "--mode", "2band", "--kpath", "X,G:2",
                "--optimizer", str(opt_file)]
        main(args + ["--seed", "1", "--out", str(tmp_path / "a")])
        main(args + ["--seed", "2", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "bands.csv").read_text().splitlines()[1:]
        b = (tmp_path / "b" / "bands.csv").read_text().splitlines()[1:]
        assert a == b

    def test_different_seed_changes_shots_output(self, tmp_path):
        args = ["bands", "--mode", "2band", "--kpath", "X,G:1", "--backend",
                "shots", "--shots", "512"]
        main(args + ["--seed", "1", "--out", str(tmp_path / "a")])
        main(args + ["--seed", "2", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "bands.csv").read_text().splitlines()[2:]
        b = (tmp_path / "b" / "bands.csv").read_text().splitlines()[2:]
        assert a != b
