import concurrent.futures
import functools
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from importlib import resources
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
    build_full_hamiltonian,
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

    @pytest.mark.parametrize("argv, calls", [
        (["bands", "--kpath", "X,G:1"], {"parse_kpath": 1, "parse_kpoint": 2}),
        (["bands"], {"parse_kpath": 1, "parse_kpoint": 3}),  # the default X,G,L:20
        (["scan", "--kpoint", "L", "--theta-steps", "2", "--phi-steps", "2"],
         {"parse_kpoint": 1}),
        (["decompose", "--matrix", "m.json"], {"_read_matrix": 1}),
    ], ids=["bands", "bands-default-kpath", "scan", "decompose"])
    def test_each_flag_is_parsed_once(self, argv, calls, tmp_path, monkeypatch):
        # A flag's text is parsed while arguments are parsed, and the run
        # reads the parsed value (one k-point parse per k-path anchor).
        (tmp_path / "m.json").write_text('{"matrix": [[1, 0], [0, -1]]}')
        counts = dict.fromkeys(("parse_kpath", "parse_kpoint", "_read_matrix"), 0)
        for name in counts:
            def counted(*args, _name=name, _f=getattr(qbands.cli, name)):
                counts[_name] += 1
                return _f(*args)

            monkeypatch.setattr(qbands.cli, name, counted)
        argv = [str(tmp_path / a) if a == "m.json" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert counts == {**dict.fromkeys(counts, 0), **calls}

    @pytest.mark.parametrize("argv", [
        ["bands", "--backend", "shots", "--mitigate", "--shots", "64", "--kpath", "X,G:1"],
        ["scan", "--backend", "shots", "--shots", "64", "--theta-steps", "2",
         "--phi-steps", "2"],
        ["rates", "--samples", "2", "--trials", "100"],
    ], ids=["bands", "scan", "rates"])
    def test_noise_model_is_built_once(self, argv, tmp_path, monkeypatch):
        # The model checked against the qubit count is the one the run uses.
        (tmp_path / "noise.json").write_text('{"w01": 0.02, "w10": 0.04}')
        built = []
        uniform = qbands.ReadoutNoiseModel.uniform

        @functools.wraps(uniform)  # the noise file's keys are read off its signature
        def counted(*args, **kwargs):
            built.append(args)
            return uniform(*args, **kwargs)

        monkeypatch.setattr(qbands.ReadoutNoiseModel, "uniform", staticmethod(counted))
        assert main(argv + ["--noise", str(tmp_path / "noise.json"),
                            "--out", str(tmp_path / "out")]) == 0
        assert len(built) == 1


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


def params_file(**changes) -> File:
    """A `--params` file: the bundled silicon values with ``changes``."""
    return File(json.dumps({**asdict(SI), **changes}))


class TestBadInput:
    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["bands", "--shots", "0"], "--shots", id="argv0---shots"),
        pytest.param(["scan", "--shots", "-3"], "--shots", id="argv1---shots"),
        pytest.param(["bands", "--workers", "0"], "--workers", id="argv2---workers"),
        pytest.param(["bands", "--kpath", "X,G:0"], "--kpath", id="argv3---kpath"),
        pytest.param(["bands", "--kpath", "X,G:-2"], "--kpath", id="argv4---kpath"),
        pytest.param(["bands", "--kpath", "G:5"], "--kpath", id="argv5---kpath"),
        pytest.param(["rates", "--trials", "0"], "--trials", id="argv6---trials"),
        pytest.param(["rates", "--qubits", "0"], "--qubits", id="argv7---qubits"),
        pytest.param(["scan", "--theta-steps", "1"], "--theta-steps", id="argv8---theta-steps"),
        pytest.param(["scan", "--phi-steps", "1"], "--phi-steps", id="argv9---phi-steps"),
        pytest.param(["bands", "--backend", "shots", "--noise", File(None)], "--noise",
                     id="argv10---noise"),
        pytest.param(["bands", "--backend", "shots", "--noise", File("{w01: 0.1")], "--noise",
                     id="argv11---noise"),
        pytest.param(["bands", "--backend", "shots", "--noise", File("[0.1]")], "--noise",
                     id="argv12---noise"),
        # The retired optimiser file, even one that was once valid.
        pytest.param(["bands", "--optimizer", File('{"restarts": 2}')], "--optimizer",
                     id="argv13---optimizer"),
        pytest.param(["bands", "--restarts", "0"], "--restarts", id="argv14---restarts"),
        pytest.param(["bands", "--restarts", "x"], "--restarts", id="argv15---restarts"),
        pytest.param(["bands", "--restarts", "1025"], "--restarts", id="argv16---restarts"),
        pytest.param(["scan", "--params", File(None)], "--params", id="argv17---params"),
        pytest.param(["bands", "--params", File("{")], "--params", id="argv18---params"),
        pytest.param(["bands", "--params", File('{"E_s": 0.0}')], "--params",
                     id="argv19---params"),
        pytest.param(["scan", "--kpoint", "Q"], "--kpoint", id="argv20---kpoint"),
        pytest.param(["rates", "--samples", "0"], "--samples", id="argv21---samples"),
        pytest.param(["bands", "--restarts", "2.5"], "--restarts", id="argv22---restarts"),
        pytest.param(["bands", "--restarts", "-1"], "--restarts", id="argv23---restarts"),
        # The exact backend reads no counts, so it takes no noise flags.
        pytest.param(["bands", "--noise", File('{"w01": 0.05, "w10": 0.08}')], "--noise",
                     id="argv24---noise"),
        pytest.param(["bands", "--mitigate"], "--mitigate", id="argv25---mitigate"),
        pytest.param(["scan", "--noise", File('{"w01": 0.05, "w10": 0.08}')], "--noise",
                     id="argv26---noise"),
        pytest.param(["scan", "--backend", "exact", "--mitigate"], "--mitigate",
                     id="argv27---mitigate"),
        pytest.param(["bands", "--mode", "8band", "--noise",
                      File('{"w01": 0.05, "w10": 0.08}'), "--mitigate"], "--noise",
                     id="argv28---noise"),
        pytest.param(["decompose", "--matrix", File(None)], "--matrix", id="argv29---matrix"),
        pytest.param(["decompose", "--matrix", File("{")], "--matrix", id="argv30---matrix"),
        pytest.param(["decompose", "--matrix", File('{"rows": [[1.0]]}')], "--matrix",
                     id="argv31---matrix"),
        pytest.param(
            ["decompose", "--matrix", File('{"matrix": [[1, 0, 0], [0, 1, 0]]}')],
            "--matrix", id="argv32---matrix"),
        pytest.param(
            ["decompose", "--matrix", File('{"matrix": [[[1, 0, 0], 0], [0, 1]]}')],
            "--matrix", id="argv33---matrix"),
        pytest.param(
            ["decompose", "--matrix", File('{"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}')],
            "--matrix", id="argv34---matrix"),
        pytest.param(["decompose", "--matrix", File("1.0,0.0,0.0,0.0\n", "m.csv")], "--matrix",
                     id="argv35---matrix"),
        pytest.param(["decompose", "--matrix", File("1.0,x\n", "m.csv")], "--matrix",
                     id="argv36---matrix"),
        pytest.param(["bands", "--kpath", "X,G:1", "--seed", "-1"], "--seed", id="argv37---seed"),
        pytest.param(["decompose", "--matrix", File('{"matrix": [[0, 1], [0, 0]]}')], "--matrix",
                     id="argv38---matrix"),
        pytest.param(["bands", "--restarts"], "--restarts", id="argv39---restarts"),
        pytest.param(["bands", "--params", params_file(E_s=True)], "--params",
                     id="argv40---params"),
        pytest.param(["bands", "--params", params_file(E_p="7.20")], "--params",
                     id="argv41---params"),
        pytest.param(["bands", "--params", params_file(V_zz=1.0)], "--params",
                     id="argv42---params"),
        pytest.param(
            ["decompose", "--matrix", File('{"matrix": [[true, 0], [0, 1]]}')],
            "--matrix", id="argv43---matrix"),
        pytest.param(
            ["decompose", "--matrix", File('{"matrix": [[1, 0], [0, "1+0j"]]}')],
            "--matrix", id="argv44---matrix"),
        pytest.param(["decompose", "--matrix", File("nan,0,0,0\n0,0,1,0\n", "m.csv")], "--matrix",
                     id="argv45---matrix"),
        pytest.param(
            ["decompose", "--matrix", File('{"matrix": [[Infinity, 0], [0, 1]]}')],
            "--matrix", id="argv46---matrix"),
        pytest.param(
            ["bands", "--kpath", "X,G:1", "--params", params_file(E_s=10**400)],
            "--params", id="argv47---params"),
        pytest.param(["bands", "--kpath", "X,G:1", "--restarts", str(10**400)], "--restarts",
                     id="argv48---restarts"),
        pytest.param(
            ["decompose", "--matrix", File(json.dumps({"matrix": [[10**400, 0], [0, 1]]}))],
            "--matrix", id="argv49---matrix"),
        pytest.param(
            ["decompose", "--matrix", File('{"matrix": [[1, 0], [0, -1]], "matrx_note": "typo"}')],
            "--matrix", id="argv50---matrix"),
        # Counts numpy cannot hold (above 2**63 - 1).
        pytest.param(
            ["bands", "--backend", "shots", "--shots", str(10**20), "--kpath", "X,G:1"],
            "--shots", id="argv51---shots"),
        pytest.param(
            ["bands", "--backend", "shots", "--shots", str(2**63), "--kpath", "X,G:1"],
            "--shots", id="argv52---shots"),
        pytest.param(["rates", "--samples", "1", "--trials", str(10**20)], "--trials",
                     id="argv53---trials"),
        pytest.param(["scan", "--theta-steps", str(10**20)], "--theta-steps",
                     id="argv54---theta-steps"),
        pytest.param(["bands", "--kpath", f"X,G:{10**20}"], "--kpath", id="argv55---kpath"),
        pytest.param(["bands", "--kpath", f"X,G:{2**63}"], "--kpath", id="argv56---kpath"),
        # One grid node and one k-point above the size caps (see TestSizeCaps).
        pytest.param(["scan", "--theta-steps", "9", "--phi-steps", "233017"], "--theta-steps",
                     id="argv57---theta-steps"),
        pytest.param(["bands", "--kpath", "X,G:262144"], "--kpath", id="argv58---kpath"),
        # One qubit and one sample above the `rates` caps (see TestSizeCaps).
        pytest.param(["rates", "--qubits", "14"], "--qubits", id="argv59---qubits"),
        pytest.param(["rates", "--samples", str(2**19 + 1)], "--samples", id="argv60---samples"),
        # One worker above the pool cap (see TestSizeCaps); no pool starts.
        pytest.param(["bands", "--workers", "33"], "--workers", id="argv61---workers"),
        # `scan` runs no optimiser, so it takes no `--restarts`.
        pytest.param(["scan", "--restarts", "2"], "--restarts", id="argv62---restarts"),
        # Finite entries whose coefficients overflow (decompose's trace sums),
        # and energies past the tight-binding cap of 1e150 eV.
        pytest.param(["decompose", "--matrix",
                      File(json.dumps({"matrix": [[1e308, 1e308], [1e308, 1e308]]}))],
                     "--matrix", id="argv63---matrix"),
        pytest.param(
            ["bands", "--kpath", "X,G:1", "--params", params_file(E_s=1e308, V_ss=1e308)],
            "--params", id="argv64---params"),
        pytest.param(
            ["bands", "--kpath", "X,G:1", "--params", params_file(V_xy=-1.01e150)],
            "--params", id="argv65---params"),
        # The exact backend draws no shots, and `decompose` draws nothing.
        pytest.param(["bands", "--shots", "100"], "--shots", id="bands-exact-shots"),
        pytest.param(["scan", "--shots", "100"], "--shots", id="scan-exact-shots"),
        pytest.param(["decompose", "--matrix", File('{"matrix": [[1, 0], [0, -1]]}'),
                      "--seed", "1"], "--seed", id="decompose-seed"),
    ])
    def test_rejected_before_any_work(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [a.path(tmp_path) if isinstance(a, File) else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, out", [
        (["bands", "--kpath", "X,G:1"], "a_file"),
        (["bands", "--kpath", "X,G:1"], "a_file/sub"),
        (["decompose", "--matrix", File('{"matrix": [[1, 0], [0, -1]]}')], "a_file"),
    ], ids=["bands-file", "bands-under-file", "decompose-file"])
    def test_out_that_cannot_be_a_directory(self, argv, out, tmp_path, capsys):
        (tmp_path / "a_file").write_text("kept")
        argv = [a.path(tmp_path) if isinstance(a, File) else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("qbands: error: --out: ")
        assert (tmp_path / "a_file").read_text() == "kept"

    def test_seed_takes_any_size(self, tmp_path):
        # A seed is no count: numpy's SeedSequence takes big integers.
        assert main(["bands", "--kpath", "X,G:1", "--seed", str(10**20),
                     "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["decompose", "--matrix", File('{"rows": [[1.0]]}')],
         'unknown key "rows"; missing key "matrix"; the accepted keys are "matrix"'),
        (["decompose", "--matrix",
          File('{"matrix": [[1, 0], [0, -1]], "matrx_note": "typo"}')],
         'unknown key "matrx_note"; the accepted keys are "matrix" '
         '(keys starting with "_" are comments)'),
        (["bands", "--params", File('{"E_s": 0.0}')],
         'missing keys "lattice_constant", "E_p", "V_ss", "V_sp", "V_xx", "V_xy"; '
         'the accepted keys are "lattice_constant", "E_s", "E_p",'),
        (["bands", "--params", params_file(V_zz=1.0)],
         'unknown key "V_zz"; the accepted keys are "lattice_constant", "E_s", "E_p", '
         '"V_ss", "V_sp", "V_xx", "V_xy"'),
        (["bands", "--backend", "shots", "--noise", File('{"w01": 0.05, "w_10": 0.08}')],
         'unknown key "w_10"; the accepted keys are "w01", "w10", "drift_amplitude", '
         '"drift_period" (keys starting with "_" are comments)'),
    ], ids=["matrix-wrong-key", "matrix-extra-key", "params-missing", "params-extra",
            "noise-extra"])
    def test_key_errors_name_the_keys(self, argv, message, tmp_path, capsys):
        # The message names the unknown and missing keys and the accepted
        # ones, not a Python call signature.
        argv = [a.path(tmp_path) if isinstance(a, File) else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "argument '" not in err and "__init__" not in err

    @pytest.mark.parametrize("argv, noise, message", [
        # The message names the flag; these two name the qubit count too.
        pytest.param(["bands", "--backend", "shots"], {"w01": [0.1, 0.1]},
                     "--noise: w01 and w10 need 1 per-qubit entry each (1 qubit)\n",
                     id="argv0-noise0---noise"),
        pytest.param(
            ["bands", "--mode", "8band", "--backend", "shots"],
            {"w01": 0.1, "w10": [0.1, 0.1]},
            "--noise: w01 and w10 need 3 per-qubit entries each (3 qubits)\n",
            id="argv1-noise1---noise"),
        pytest.param(["scan", "--backend", "shots"], {"w10": [0.1, 0.1, 0.1]}, "--noise",
                     id="argv2-noise2---noise"),
        pytest.param(["rates", "--qubits", "2"], {"w01": [0.1, 0.1, 0.1]}, "--noise",
                     id="argv3-noise3---noise"),
        pytest.param(
            ["bands", "--backend", "shots", "--mitigate"],
            {"w01": 0.5, "w10": 0.5}, "--mitigate", id="argv4-noise4---mitigate"),
        pytest.param(
            ["bands", "--mode", "8band", "--backend", "shots", "--mitigate"],
            {"w01": [0.0, 0.0, 0.6], "w10": [0.1, 0.1, 0.4]},
            "--mitigate",
            id="argv5-noise5---mitigate"),
        pytest.param(
            ["bands", "--backend", "shots", "--mitigate", "--kpath", "X,G:1", "--shots", "64"],
            {"w01": 0.45, "w10": 0.5, "drift_amplitude": 0.1, "drift_period": 4},
            "--mitigate",
            id="argv6-noise6---mitigate"),
        pytest.param(["bands", "--backend", "shots"], {"w01": None}, "--noise",
                     id="argv7-noise7---noise"),
        pytest.param(
            ["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
            {"w01": 0.05, "w10": 0.08, "drift_amplitude": 0.01, "drift_period": "18"},
            "--noise",
            id="argv8-noise8---noise"),
        pytest.param(
            ["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
            {"w01": 0.05, "w10": 0.08, "drift_amplitude": 0.01, "drift_period": float("nan")},
            "--noise",
            id="argv9-noise9---noise"),
        pytest.param(
            ["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
            {"w01": 0.05, "w10": 0.08, "drift_amplitude": float("nan"), "drift_period": 18},
            "--noise",
            id="argv10-noise10---noise"),
        pytest.param(
            ["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
            {"w10": 0.08, "drift_amplitude": 0.01, "drift_period": True},
            "--noise",
            id="argv11-noise11---noise"),
        pytest.param(
            ["scan", "--backend", "shots", "--shots", "64"],
            {"w10": 0.08, "drift_amplitude": 0.01, "drift_period": float("nan")},
            "--noise",
            id="argv12-noise12---noise"),
        pytest.param(
            ["rates", "--trials", "10", "--samples", "2"],
            {"w10": 0.08, "drift_amplitude": 0.01, "drift_period": "18"},
            "--noise",
            id="argv13-noise13---noise"),
        pytest.param(
            ["rates", "--trials", "10", "--samples", "2"],
            {"w10": 0.08, "drift_amplitude": 0.01, "drift_period": -18},
            "--noise",
            id="argv14-noise14---noise"),
        pytest.param(
            ["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
            {"w01": "0.05"}, "--noise", id="argv15-noise15---noise"),
        pytest.param(
            ["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
            {"w10": True}, "--noise", id="argv16-noise16---noise"),
        pytest.param(["rates", "--trials", "10", "--samples", "2"], {"w01": ["0.1"]}, "--noise",
                     id="argv17-noise17---noise"),
        pytest.param(
            ["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
            {"w_01": 0.05, "w10": 0.08}, "--noise", id="argv18-noise18---noise"),
        pytest.param(
            ["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
            {"w01": 0.05, "w10": 0.08, "drift_amplitude": None},
            "--noise",
            id="argv19-noise19---noise"),
        pytest.param(
            ["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
            {"w01": 0.05, "w10": 0.08, "drift_amplitude": 10**400, "drift_period": 5},
            "--noise",
            id="argv20-noise20---noise"),
        pytest.param(
            ["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
            {"w01": 0.05, "w10": 0.08, "drift_amplitude": 0.01, "drift_period": 10**400},
            "--noise",
            id="argv21-noise21---noise"),
        # A period under one trial: at 1e-320 the phase 2πt/P is inf from t = 1.
        pytest.param(
            ["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
            {"w01": 0.05, "w10": 0.08, "drift_amplitude": 0.01, "drift_period": 1e-320},
            "--noise",
            id="argv22-noise22---noise"),
        pytest.param(
            ["rates", "--samples", "3", "--trials", "100"],
            {"w01": 0.05, "w10": 0.08, "drift_amplitude": 0.01, "drift_period": 1e-320},
            "--noise",
            id="argv23-noise23---noise"),
        # A period without drift is checked too: the header records it.
        pytest.param(
            ["rates", "--samples", "2", "--trials", "100"],
            {"w01": 0.05, "w10": 0.08, "drift_period": "eighteen"},
            "--noise",
            id="argv24-noise24---noise"),
        pytest.param(
            ["bands", "--backend", "shots", "--shots", "64", "--kpath", "X,G:1"],
            {"w01": 0.05, "w10": 0.08, "drift_amplitude": 0, "drift_period": 0.5},
            "--noise",
            id="argv25-noise25---noise"),
    ])
    def test_noise_rejected_before_any_work(self, argv, noise, message, tmp_path, capsys):
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps(noise))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--noise", str(noise_file), "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


# Each command's header `config` holds its own flags but --out.
_CONFIG_KEYS = {
    "bands": {"command", "params", "kpath", "mode", "backend", "shots", "noise", "mitigate",
              "restarts", "seed", "workers"},
    "scan": {"command", "params", "backend", "shots", "noise", "mitigate", "kpoint",
             "theta_steps", "phi_steps", "mode", "seed"},
    "rates": {"command", "noise", "trials", "samples", "qubits", "seed"},
    "decompose": {"command", "matrix"},
}


class TestSizeCaps:
    """A scan grid holds at most 2**21 nodes and a k-path at most 2**18
    points (README); `TestBadInput` refuses one above each cap.  Requests at
    a cap are only parsed here, never run."""

    def test_refused_requests_are_one_above_the_caps(self):
        assert qbands.cli._MAX_SCAN_NODES == 2**21 == 9 * 233_017 - 1
        assert qbands.cli._MAX_KPATH_POINTS == 2**18 == 1 + 262_144 - 1

    def test_kpath_at_the_cap_parses(self):
        anchors, pps = parse_kpath(f"X,G:{2**18 - 1}")
        assert 1 + (len(anchors) - 1) * pps == 2**18

    def test_scan_grid_at_the_cap_passes_the_check(self):
        parser = qbands.cli.build_parser()
        args = parser.parse_args(["scan", "--theta-steps", "512", "--phi-steps", "4096"])
        qbands.cli._check_across_flags(parser, args)  # 2**21 nodes: no exit

    def test_rates_and_matrix_caps_fit_the_budget(self):
        # Peaks measured by tracemalloc (README): 1.25·4**n·8 B for the rates
        # confusion product, 2·16**n·16 B for decomposing an n-qubit matrix.
        n = qbands.cli._MAX_RATES_QUBITS
        assert n == 13 and 1.25 * 4**n * 8 <= 2**30 < 1.25 * 4 ** (n + 1) * 8
        assert qbands.cli._MAX_RATES_SAMPLES == 2**19
        assert qbands.cli._MAX_MATRIX_DIM == 2**6 and 2 * 16**6 * 16 <= 2**30 < 2 * 16**7 * 16

    def test_rates_at_the_caps_parse(self):
        args = qbands.cli.build_parser().parse_args(
            ["rates", "--qubits", "13", "--samples", str(2**19)])
        assert (args.qubits, args.samples) == (13, 2**19)

    def test_workers_cap_fits_the_budget_and_parses(self):
        # A worker peaks at about 32 MiB (README), so the pool stays within 1 GiB.
        assert qbands.cli._MAX_WORKERS == 32 and 32 * 2**25 <= 2**30
        assert qbands.cli.build_parser().parse_args(["bands", "--workers", "32"]).workers == 32

    def test_restarts_cap_fits_the_budget_and_parses(self):
        # A restart peaks at about 0.8 MiB (README), so 1024 stay within 1 GiB.
        assert qbands.cli._MAX_RESTARTS == 1024 and 1024 * 2**20 <= 2**30
        args = qbands.cli.build_parser().parse_args(["bands", "--restarts", "1024"])
        assert args.restarts == 1024

    def test_restarts_above_the_cap_are_refused_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["bands", "--restarts", "1025", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "qbands bands: error: argument --restarts: " \
            "'1025': must be <= 1024"
        assert not out.exists()

    def test_largest_legal_input_fits_the_file_cap(self):
        # A 64x64 matrix of [re, im] pairs, every value at full repr width.
        entry = [-1.2345678901234567e-100, -1.2345678901234567e-100]
        text = json.dumps({"matrix": [[entry] * 64] * 64}, indent=4)
        assert len(text) < qbands.cli._MAX_INPUT_BYTES == 2**20

    def test_json_file_above_the_cap_is_refused_unparsed(self, tmp_path, capsys,
                                                          monkeypatch):
        cap = qbands.cli._MAX_INPUT_BYTES
        at_cap, above = tmp_path / "at_cap.json", tmp_path / "above.json"
        at_cap.write_text('{"w01": 0.05}'.ljust(cap))
        above.write_text('{"w01": 0.05}'.ljust(cap + 1))
        args = qbands.cli.build_parser().parse_args(["bands", "--noise", str(at_cap)])
        assert args.noise == {"w01": 0.05}

        def refuse(*args, **kwargs):
            raise AssertionError("a file above the cap was parsed")

        monkeypatch.setattr(json, "load", refuse)
        monkeypatch.setattr(json, "loads", refuse)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["bands", "--backend", "shots", "--noise", str(above), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--noise" in err and f"exceeds the cap of {cap} bytes" in err
        assert not out.exists()

    @pytest.mark.parametrize("rows, message", [
        ([",".join(["1", "0"] * 64)] * 64 + ["x,y"] * 3, "more than 64 rows exceed the cap of 64"),
        ([",".join(["1", "0"] * 64), ",".join(["x"] * 130)],
         "a row of 130 values exceeds the cap of 128"),
    ], ids=["65th-row", "long-row"])
    def test_csv_rows_past_the_cap_are_not_parsed(self, rows, message, tmp_path, capsys):
        # The rows past a cap are malformed, so parsing one would fail otherwise.
        mat_file = tmp_path / "m.csv"
        mat_file.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--matrix", str(mat_file), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--matrix" in err and message in err and "could not convert" not in err
        assert not out.exists()

    def test_matrix_above_the_cap_is_refused_before_decomposing(self, tmp_path, capsys,
                                                               monkeypatch):
        def refuse(n_qubits):
            raise AssertionError(f"word_matrix_stack({n_qubits}) built for a capped matrix")

        monkeypatch.setattr(qbands.pauli, "word_matrix_stack", refuse)
        mat_file = tmp_path / "m.json"
        mat_file.write_text(json.dumps(np.eye(128).tolist()))  # 7 qubits, cap + 1
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--matrix", str(mat_file), "--out", str(out)])
        assert exc.value.code == 2
        assert "--matrix" in capsys.readouterr().err
        assert not out.exists()

class TestHeader:
    @pytest.mark.parametrize("argv, out_file, expected", [
        # An exact run draws no shots; a shots run without --shots draws 8192.
        (["bands", "--kpath", "X,G:1", "--seed", "3"], "bands.csv",
         {"kpath": "X,G:1", "mode": "2band", "workers": 1, "restarts": None, "shots": None,
          "seed": 3}),
        (["bands", "--kpath", "X,G:1", "--backend", "shots"], "bands.csv",
         {"backend": "shots", "shots": 8192}),
        (["scan", "--kpoint", "X", "--theta-steps", "2", "--phi-steps", "3"], "scan.csv",
         {"mode": "2band", "kpoint": "X", "theta_steps": 2, "phi_steps": 3, "shots": None,
          "seed": 0}),
        (["rates", "--samples", "1", "--trials", "10"], "rates.csv",
         {"qubits": 1, "trials": 10, "samples": 1, "seed": 0}),
        (["decompose", "--matrix", File('{"matrix": [[1, 0], [0, -1]]}')], "decompose.csv",
         {}),
    ], ids=["bands", "bands-shots", "scan", "rates", "decompose"])
    def test_config_keys_and_digest(self, argv, out_file, expected, tmp_path):
        argv = [a.path(tmp_path) if isinstance(a, File) else a for a in argv]
        main(argv + ["--out", str(tmp_path)])
        header, _, _ = read_csv(tmp_path / out_file)
        config = header["config"]
        assert set(config) == _CONFIG_KEYS[argv[0]]
        assert {k: config[k] for k in expected} == expected
        assert config["command"] == argv[0]
        if argv[0] == "decompose":
            assert config["matrix"] == argv[2]
        blob = json.dumps(config, sort_keys=True).encode()
        assert header["digest"] == hashlib.sha256(blob).hexdigest()[:12]
        # `decompose` draws nothing, so it records no seed.
        assert header["seed"] == (None if argv[0] == "decompose" else config["seed"])


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
        # The pool's workers get the noise model parsed once in the parent.
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps({"w01": 0.05, "w10": 0.08}))
        shots = ["--backend", "shots", "--shots", "512", "--mitigate", "--noise",
                 str(noise_file)]
        for name, backend in (("exact", []), ("shots", shots)):
            main(["bands", "--mode", "2band", "--kpath", "X,G:2", *backend,
                  "--out", str(tmp_path / name / "serial"), "--seed", "4"])
            main(["bands", "--mode", "2band", "--kpath", "X,G:2", "--workers", "2", *backend,
                  "--out", str(tmp_path / name / "pool"), "--seed", "4"])
            serial = (tmp_path / name / "serial" / "bands.csv").read_text().splitlines()
            pool = (tmp_path / name / "pool" / "bands.csv").read_text().splitlines()
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

        # run_bands imports the pool from concurrent.futures when it needs one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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

    def test_failed_kpoint_is_written_and_exits_one(self, tmp_path, capsys):
        # At 8 mitigated shots, noise 0.1/0.15, seed 39 captures the deflated
        # zero at level 2 of k-point 10 of X,G,L:5, on the retry too.  That
        # used to end the run in a traceback, with no bands.csv.
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps({"w01": 0.1, "w10": 0.15}))
        out = tmp_path / "out"
        code = main(["bands", "--backend", "shots", "--shots", "8", "--mitigate",
                     "--noise", str(noise_file), "--kpath", "X,G,L:5", "--seed", "39",
                     "--out", str(out)])
        assert code == 1
        assert "k-point 10: deflation level 2 converged" in capsys.readouterr().err
        _, columns, rows = read_csv(out / "bands.csv")
        assert col(columns, rows, "k_index", int) == list(range(11))
        failed = rows.pop(10)
        assert [failed[columns.index(c)] for c in ("e_vqe_2", "converged_2", "residual_2")] \
            == ["nan", "0", "nan"]
        assert failed[columns.index("converged_1")] == "1"
        assert np.isfinite(col(columns, [failed], "e_vqe_1")).all()
        assert int(failed[columns.index("evaluations_2")]) > 0  # the rejected level's
        for name in ("e_vqe_1", "e_vqe_2", "residual_1", "residual_2"):
            assert np.isfinite(col(columns, rows, name)).all()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_kpoints"] == [10]
        assert summary["non_converged_entries"] == 1
        # k-points x levels x restarts, and the failed level's retry.
        assert sum(summary["stops"].values()) == 11 * 2 * 3 + 3

    def test_captured_level_is_solved_again(self, tmp_path):
        # At seed 207019 and 2 restarts, both restarts of level 2 at X start
        # next to the deflated state, where the noise stop ends them at the
        # deflated zero; the retry's restarts find the level.
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps({"w01": 0.05, "w10": 0.08}))
        assert main(["bands", "--backend", "shots", "--shots", "8192", "--mitigate",
                     "--noise", str(noise_file), "--restarts", "2",
                     "--kpath", "X,G:1", "--seed", "207019", "--out", str(tmp_path)]) == 0
        _, columns, rows = read_csv(tmp_path / "bands.csv")
        assert col(columns, rows, "converged_2", int) == [1, 1]
        assert np.isfinite(col(columns, rows, "e_vqe_2")).all()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["failed_kpoints"] == []
        assert sum(summary["stops"].values()) == 2 * 2 * 2 + 2

    def test_ill_posed_rate_estimate_fails_only_its_kpoint(self, tmp_path, capsys):
        # w01 + w10 = 0.9995 passes the boundary check, but at seed 1 the
        # rates estimated for Γ reach w01 + w10 >= 1, so mitigation there is
        # ill-posed.  That used to end the run in a ValueError traceback,
        # with no bands.csv.
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps({"w01": 0.5, "w10": 0.4995}))
        out = tmp_path / "out"
        code = main(["bands", "--mode", "2band", "--backend", "shots", "--shots", "64",
                     "--mitigate", "--noise", str(noise_file), "--kpath", "G,X:1",
                     "--seed", "1", "--out", str(out)])
        assert code == 1
        assert ("k-point 0: mitigation ill-posed: w01 + w10 >= 1 on some qubit; "
                "written as NaN from band 1") in capsys.readouterr().err
        _, columns, rows = read_csv(out / "bands.csv")
        assert col(columns, rows, "k_index", int) == [0, 1]
        failed, kept = rows
        for band in ("1", "2"):
            assert [failed[columns.index(c + band)] for c in
                    ("e_vqe_", "converged_", "residual_", "evaluations_")] \
                == ["nan", "0", "nan", "0"]
            assert kept[columns.index("converged_" + band)] == "1"
        assert np.isfinite(col(columns, [kept], "e_vqe_1") + col(columns, [kept], "e_vqe_2")).all()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_kpoints"] == [0]
        assert summary["non_converged_entries"] == 2

    def test_summary_counts_why_restarts_stopped(self, tmp_path):
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps({"w01": 0.05, "w10": 0.08}))
        main(["bands", "--kpath", "X,G:1", "--out", str(tmp_path / "exact"), "--seed", "4"])
        assert main(["bands", "--kpath", "X,G:1", "--backend", "shots", "--mitigate",
                     "--noise", str(noise_file), "--seed", "4",
                     "--out", str(tmp_path / "shots")]) == 0
        exact, shots = (json.loads((tmp_path / d / "summary.json").read_text())
                        for d in ("exact", "shots"))
        for summary, restarts in ((exact, 2), (shots, 3)):
            assert set(summary["stops"]) == set(qbands.vqe.STOPS)
            assert sum(summary["stops"].values()) == 2 * 2 * restarts  # k-points, levels
            assert summary["failed_kpoints"] == []
        assert exact["stops"]["noise"] == 0 and shots["stops"]["noise"] > 0

    def test_level_above_residual_bound_is_solved_again(self, tmp_path):
        # At seed 803175 and 1 restart, the lone restart of Γ's last level
        # stops as converged 4.45e-2 eV above band 8, with residual 0.206;
        # the residual retry finds the level.
        assert main(["bands", "--mode", "8band", "--kpath", "L,G:1", "--seed", "803175",
                     "--restarts", "1", "--out", str(tmp_path)]) == 0
        _, columns, rows = read_csv(tmp_path / "bands.csv")
        gamma = rows[1]
        assert col(columns, [gamma], "kx") == [0.0]
        H = build_full_hamiltonian(SI, KPoint((0.0, 0.0, 0.0)))
        assert abs(col(columns, [gamma], "e_vqe_8")[0] - np.linalg.eigvalsh(H)[7]) <= 1e-5
        assert col(columns, [gamma], "converged_8", int) == [1]
        assert col(columns, [gamma], "residual_8")[0] <= qbands.vqe.RESIDUAL_TOL

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

    def test_ill_posed_rate_estimate_is_one_line_and_exit_one(self, tmp_path, capsys):
        # As in the `bands` case: the rates pass the boundary check, but at
        # seed 1 their estimate is ill-posed.  That used to end the command
        # in a traceback.
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps({"w01": 0.5, "w10": 0.4995}))
        out = tmp_path / "out"
        assert main(["scan", "--backend", "shots", "--shots", "64", "--mitigate",
                     "--noise", str(noise_file), "--seed", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("qbands: mitigation ill-posed: w01 + w10 >= 1 on some qubit; "
                                "no scan.csv written\n")
        assert list(out.iterdir()) == []


class TestRates:
    def test_zero_noise_series_is_zero(self, tmp_path):
        main(["rates", "--samples", "4", "--trials", "2000",
              "--out", str(tmp_path)])
        _, columns, rows = read_csv(tmp_path / "rates.csv")
        assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)

    def test_ill_posed_noise_file_is_taken(self, tmp_path):
        # `rates` mitigates nothing, so w01 + w10 >= 1 is no error there.
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps({"w01": 0.6, "w10": 0.5}))
        assert main(["rates", "--samples", "2", "--trials", "2000", "--noise",
                     str(noise_file), "--out", str(tmp_path)]) == 0
        _, columns, rows = read_csv(tmp_path / "rates.csv")
        # 2000 trials: sigma about 0.011 per estimate, so 0.06 is over 5 sigma.
        assert np.allclose(col(columns, rows, "w01_q1"), 0.6, atol=0.06)
        assert np.allclose(col(columns, rows, "w10_q1"), 0.5, atol=0.06)

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
    def test_no_command_imports_scipy(self, tmp_path):
        # Every command runs with scipy blocked: importing it would raise.
        (tmp_path / "noise.json").write_text('{"w01": 0.05, "w10": 0.08}')
        (tmp_path / "m.json").write_text('{"matrix": [[1, 0], [0, -1]]}')
        commands = [
            ["bands", "--kpath", "X,G:1"],
            ["bands", "--mode", "8band", "--kpath", "G,L:1"],
            ["bands", "--backend", "shots", "--shots", "64", "--mitigate",
             "--noise", "noise.json", "--kpath", "X,G:1"],
            ["scan", "--theta-steps", "4", "--phi-steps", "4"],
            ["rates", "--noise", "noise.json", "--samples", "2", "--trials", "100"],
            ["decompose", "--matrix", "m.json"],
        ]
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from qbands.cli import main\n"
            f"for i, argv in enumerate({commands!r}):\n"
            "    assert main(argv + ['--out', f'out{i}']) == 0, argv\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(qbands.__file__).resolve().parent.parent)}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert len(list(tmp_path.glob("out*/*.csv"))) == len(commands)

    def test_serial_start_up_leaves_out_multiprocessing(self):
        # The process pool is imported only for --workers > 1.
        script = (
            "import sys\n"
            "import qbands.cli\n"
            "loaded = {'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
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

    @pytest.mark.parametrize("content", [
        {"_comment": "diag(1, -1)", "matrix": [[1, 0], [0, -1]]},
        [[1, 0], [0, -1]],
    ], ids=["object-with-comment", "bare-list"])
    def test_json_matrix_forms(self, content, tmp_path):
        mat_file = tmp_path / "m.json"
        mat_file.write_text(json.dumps(content))
        main(["decompose", "--matrix", str(mat_file), "--out", str(tmp_path)])
        _, _, rows = read_csv(tmp_path / "decompose.csv")
        assert {r[0]: float(r[1]) for r in rows} == {"Z": 1.0}

    @pytest.mark.parametrize("content, name", [
        ('{"matrix": [[1.0]]}', "m.json"), ("[[[1.0, 0.0]]]", "m.json"), ("1.0,0.0\n", "m.csv"),
    ], ids=["object", "bare-list", "csv"])
    def test_matrix_on_no_qubit_is_refused(self, content, name, tmp_path, capsys):
        mat_file = tmp_path / name
        mat_file.write_text(content)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--matrix", str(mat_file), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--matrix" in err and "matrix dimension 1 acts on no qubit" in err
        assert not out.exists()

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

    def test_drifting_mitigated_bands_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        # With a drifting law every energy row is measured under its own law
        # at its trial t and corrected with rates estimated under that law:
        # one estimate per measured batch, of the stack of its rows' laws.
        noise_file = tmp_path / "noise.json"
        drift = {"w01": 0.03, "w10": 0.06, "drift_amplitude": 0.02, "drift_period": 7}
        noise_file.write_text(json.dumps(drift))
        args = ["bands", "--mode", "2band", "--kpath", "X,G:1", "--backend",
                "shots", "--shots", "256", "--noise", str(noise_file),
                "--mitigate", "--seed", "5"]
        model = qbands.ReadoutNoiseModel.uniform(1, **drift)
        batches, measuring = [], []  # (row trials, confusion stacks estimated under)
        estimate = qbands.sampler.estimate_transition_rates
        measure = qbands.vqe.ShotsBackend._measure_words

        def measure_rows(backend, words, states, n_qubits):
            measuring.append([])
            trials = range(backend.trial, backend.trial + len(states))
            try:
                return measure(backend, words, states, n_qubits)
            finally:
                batches.append((trials, measuring.pop()))

        def estimate_rows(confusion, *rest):
            if measuring:
                measuring[-1].append(confusion.tolist())
            return estimate(confusion, *rest)

        monkeypatch.setattr(qbands.sampler, "estimate_transition_rates", estimate_rows)
        monkeypatch.setattr(qbands.vqe.ShotsBackend, "_measure_words", measure_rows)
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("bands.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for trials, estimated in batches:
            assert estimated == [qbands.confusion(model.laws(trials)).tolist()]
        assert len({float(model.laws([t])[0, 1, 0]) for trials, _ in batches
                    for t in trials}) > 2

    def test_identical_seed_reproduces_rates_bytes(self, tmp_path):
        noise_file = tmp_path / "noise.json"
        noise_file.write_text(json.dumps({"w01": 0.02, "w10": 0.04}))
        args = ["rates", "--samples", "5", "--trials", "3000", "--noise",
                str(noise_file), "--seed", "12"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "rates.csv").read_bytes() == \
            (tmp_path / "b" / "rates.csv").read_bytes()

    def test_different_seed_changes_shots_output(self, tmp_path):
        args = ["bands", "--mode", "2band", "--kpath", "X,G:1", "--backend",
                "shots", "--shots", "512"]
        main(args + ["--seed", "1", "--out", str(tmp_path / "a")])
        main(args + ["--seed", "2", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "bands.csv").read_text().splitlines()[2:]
        b = (tmp_path / "b" / "bands.csv").read_text().splitlines()[2:]
        assert a != b

    def test_bundled_params_file_reproduces_default_run(self, tmp_path):
        # The bundled file carries a "_comment" key, which the reader skips.
        params = tmp_path / "silicon.json"
        params.write_text(
            resources.files("qbands.data").joinpath("silicon.json").read_text())
        args = ["bands", "--kpath", "X,G:1", "--seed", "3"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--params", str(params), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "bands.csv").read_bytes() == \
            (tmp_path / "b" / "bands.csv").read_bytes()
