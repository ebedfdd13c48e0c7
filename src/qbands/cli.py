"""Command-line pipeline: band-structure runs, parameter-surface scans,
transition-rate demos, and Pauli-coefficient tables.

Every output file starts with a single '#'-prefixed JSON header carrying the
resolved configuration, its digest, the master seed and the code version, so
a file is always traceable to the run that produced it.  Identical config
and seed reproduce output files byte for byte.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .pauli import decompose, pauli_words, require_hermitian
from .qsim import ansatz_for
from .sampler import ReadoutNoiseModel, estimate_transition_rates
from .seeding import spawn_rng, spawn_seed
from .tightbinding import (
    KPoint,
    TBParameters,
    build_full_hamiltonian,
    build_s_block,
    diagonalize_classical,
    make_kpath,
)
from .vqe import ExactBackend, OptimizerConfig, ShotsBackend, full_spectrum, grid_scan

# Seed fan-out roles under the master seed (see README).
_STREAM_OPT = 1
_STREAM_BACKEND = 2
_STREAM_RATES_DEMO = 3

_MODE_QUBITS = {"2band": 1, "8band": 3}


def _header(args: argparse.Namespace) -> dict:
    """The header payload: the run's configuration (every flag but --out),
    its digest, the master seed and the code version."""
    config = {key: value for key, value in vars(args).items() if key != "out"}
    config["params"] = asdict(args.params) if args.params else None
    config["optimizer"] = asdict(args.optimizer)
    blob = json.dumps(config, sort_keys=True).encode()
    return {
        "config": config,
        "digest": hashlib.sha256(blob).hexdigest()[:12],
        "seed": args.seed,
        "version": __version__,
    }


def parse_kpoint(text: str) -> KPoint:
    """A high-symmetry label (G, X, L, W, K, U) or 'x/y/z' fractions of 2π/a."""
    text = text.strip()
    if "/" in text:
        parts = text.split("/")
        if len(parts) != 3:
            raise ValueError(f"bad k-point {text!r}; expected three '/'-separated values")
        return KPoint(tuple(float(p) for p in parts))
    return KPoint.high_symmetry(text)


def parse_kpath(spec: str) -> tuple[list[KPoint], int]:
    """Path spec 'A,B,C[:N]' with N points per segment (default 20)."""
    points_per_segment = 20
    if ":" in spec:
        spec, _, tail = spec.rpartition(":")
        points_per_segment = int(tail)
    anchors = [parse_kpoint(p) for p in spec.split(",") if p.strip()]
    if len(anchors) < 2:
        raise ValueError("k-path needs at least two anchors")
    if points_per_segment < 1:
        raise ValueError(f"points per segment must be >= 1, got {points_per_segment}")
    return anchors, points_per_segment


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: dict, columns: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _make_backend(args: argparse.Namespace, n_qubits: int, k_index: int):
    if args.backend == "exact":
        return ExactBackend()
    noise = (
        ReadoutNoiseModel.from_dict(args.noise, n_qubits)
        if args.noise is not None
        else None
    )
    return ShotsBackend(
        shots=args.shots,
        noise=noise,
        mitigate=args.mitigate,
        seed=spawn_seed(args.seed, _STREAM_BACKEND, k_index),
    )


def _solve_kpoint(job: tuple) -> dict:
    """Worker: solve one k-point; returns the flat band record."""
    args, k_index, components, coord = job
    k = KPoint(components)
    if args.mode == "2band":
        H = build_s_block(args.params, k)
    else:
        H = build_full_hamiltonian(args.params, k)
    oracle = diagonalize_classical(H)
    dec = decompose(H)
    n_qubits = _MODE_QUBITS[args.mode]
    backend = _make_backend(args, n_qubits, k_index)
    opt_seed_root = args.optimizer.seed if args.optimizer.seed is not None else args.seed
    opt = replace(args.optimizer, seed=spawn_seed(opt_seed_root, _STREAM_OPT, k_index))
    spectrum = full_spectrum(dec, 2**n_qubits, ansatz_for(n_qubits), backend, opt)
    bands = spectrum.sorted_levels()
    return {
        "k_index": k_index,
        "k": components,
        "coord": coord,
        "energies": [b[0] for b in bands],
        "oracle": list(oracle),
        "evaluations": [b[1].evaluations for b in bands],
        "converged": [b[1].converged for b in bands],
        "residuals": [b[2] for b in bands],
    }


def run_bands(args: argparse.Namespace, out_dir: Path) -> Path:
    anchors, pps = parse_kpath(args.kpath)
    path = make_kpath(anchors, pps)
    jobs = [
        (args, i, kp.components, float(path.coords[i]))
        for i, kp in enumerate(path.points)
    ]
    # A pool forks all its workers up front, so it is no larger than the path.
    workers = min(args.workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_solve_kpoint, jobs))
    else:
        records = [_solve_kpoint(job) for job in jobs]
    records.sort(key=lambda r: r["k_index"])

    n_bands = len(records[0]["energies"])
    columns = ["k_index", "kx", "ky", "kz", "path_coord"]
    columns += [f"e_vqe_{b}" for b in range(1, n_bands + 1)]
    columns += [f"e_oracle_{b}" for b in range(1, n_bands + 1)]
    columns += [f"evaluations_{b}" for b in range(1, n_bands + 1)]
    columns += [f"converged_{b}" for b in range(1, n_bands + 1)]
    columns += [f"residual_{b}" for b in range(1, n_bands + 1)]
    rows = []
    for r in records:
        rows.append(
            [r["k_index"], *r["k"], r["coord"], *r["energies"], *r["oracle"],
             *r["evaluations"], *r["converged"], *r["residuals"]]
        )
    header = _header(args)
    out = out_dir / "bands.csv"
    _write_csv(out, header, columns, rows)

    summary = _band_summary(records, n_bands)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump({"digest": header["digest"], **summary}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for band in summary["bands"]:
        if band["entries"]:
            print(
                f"band {band['band']}: max|VQE-oracle| = {band['max_abs_err']:.3e} eV, "
                f"mean = {band['mean_abs_err']:.3e} eV"
            )
        else:
            print(f"band {band['band']}: no converged entries")
    if summary["non_converged_entries"]:
        print(f"non-converged entries excluded: {summary['non_converged_entries']}")
    print(f"wrote {out}")
    return out


def _band_summary(records: list[dict], n_bands: int) -> dict:
    per_band = []
    excluded = 0
    for b in range(n_bands):
        errs = []
        for r in records:
            if r["converged"][b]:
                errs.append(abs(r["energies"][b] - r["oracle"][b]))
            else:
                excluded += 1
        per_band.append(
            {
                "band": b + 1,
                "max_abs_err": max(errs) if errs else None,
                "mean_abs_err": float(np.mean(errs)) if errs else None,
                "entries": len(errs),
            }
        )
    return {"bands": per_band, "non_converged_entries": excluded}


def run_scan(args: argparse.Namespace, out_dir: Path) -> Path:
    H = build_s_block(args.params, parse_kpoint(args.kpoint))
    dec = decompose(H)
    backend = _make_backend(args, 1, 0)
    scan = grid_scan(
        dec,
        theta_steps=args.theta_steps,
        phi_steps=args.phi_steps,
        backend=backend,
    )
    header = _header(args)
    header["argmin"] = {
        "theta": scan.argmin[0],
        "phi": scan.argmin[1],
        "energy": scan.argmin[2],
    }
    rows = []
    for i, th in enumerate(scan.thetas):
        for j, ph in enumerate(scan.phis):
            rows.append([th, ph, scan.energies[i, j]])
    out = out_dir / "scan.csv"
    _write_csv(out, header, ["theta", "phi", "energy"], rows)
    print(
        f"surface minimum {scan.argmin[2]:.6f} eV at "
        f"theta={scan.argmin[0]:.4f}, phi={scan.argmin[1]:.4f}"
    )
    print(f"wrote {out}")
    return out


def run_rates(args: argparse.Namespace, out_dir: Path) -> Path:
    n_qubits = args.qubits
    noise = (
        ReadoutNoiseModel.from_dict(args.noise, n_qubits)
        if args.noise is not None
        else None
    )
    columns = ["sample_index"]
    columns += [f"w01_q{q}" for q in range(1, n_qubits + 1)]
    columns += [f"w10_q{q}" for q in range(1, n_qubits + 1)]
    rows = []
    for t in range(args.samples):
        est = estimate_transition_rates(
            None if noise is None else noise.at(t), n_qubits, args.trials,
            spawn_rng(args.seed, _STREAM_RATES_DEMO, t),
        )
        rows.append([t, *est.w01, *est.w10])
    out = out_dir / "rates.csv"
    _write_csv(out, _header(args), columns, rows)
    print(f"wrote {out}")
    return out


def _json_entry(e) -> complex:
    if isinstance(e, (list, tuple)):
        if len(e) != 2:
            raise ValueError(f"matrix entry {e!r} is not an [re, im] pair")
        return complex(float(e[0]), float(e[1]))
    return complex(e)


def _read_matrix(path: str) -> np.ndarray:
    """Square matrix of power-of-two dimension from JSON
    ({'matrix': [[[re, im], ...], ...]} or the bare nested list) or CSV rows
    of interleaved re,im values, Hermitian within ``pauli.HERM_TOL``."""
    if path.endswith(".json"):
        data = _load_json(path)
        raw = data.get("matrix") if isinstance(data, dict) else data
        if not isinstance(raw, list):
            raise ValueError("expected a 'matrix' list of rows")
        rows = [[_json_entry(e) for e in row] for row in raw]
    else:
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                vals = [float(v) for v in line.split(",")]
                if len(vals) % 2:
                    raise ValueError("CSV matrix rows must hold re,im pairs")
                rows.append([complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)])
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError(f"expected a square matrix, got {len(rows)} rows of "
                         f"lengths {sorted({len(row) for row in rows})}")
    dim = len(rows)
    if dim & (dim - 1):
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    matrix = np.array(rows, dtype=complex)
    require_hermitian(matrix)
    return matrix


def run_decompose(args: argparse.Namespace, out_dir: Path) -> Path:
    dec = decompose(args.matrix.matrix)
    rows = [
        [word, dec.coeffs[word]]
        for word in pauli_words(dec.n_qubits)
        if word in dec.coeffs
    ]
    out = out_dir / "decompose.csv"
    _write_csv(out, _header(args), ["word", "coefficient"], rows)
    print(f"wrote {out} ({len(rows)} nonzero of {4**dec.n_qubits} words)")
    return out


def _arg(parse):
    """An argparse ``type``: ``parse(text)``, with an input it cannot read or
    rejects reported as an error of the flag (exit 2, before any work)."""
    def convert(text: str):
        try:
            return parse(text)
        except (OSError, ValueError, TypeError) as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc

    return convert


def _at_least(least: int):
    """The ``type`` of an integer flag with a minimum."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise ValueError(f"must be >= {least}")
        return value

    return _arg(parse)


def _as_written(parse):
    """``parse`` as a check only: the flag keeps its text, which the header
    records."""
    def check(text: str) -> str:
        parse(text)
        return text

    return _arg(check)


class _MatrixFile(str):
    """A `--matrix` path as written (the header records it), carrying the
    matrix read from it."""

    matrix: np.ndarray


def _matrix_file(path: str) -> _MatrixFile:
    file = _MatrixFile(path)
    file.matrix = _read_matrix(path)
    return file


def _read_optimizer(path: str) -> OptimizerConfig:
    return OptimizerConfig.from_dict(_load_json(path))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_at_least(0), default=0, help="master seed")
    p.add_argument("--out", default=".", help="output directory")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--params", type=_arg(TBParameters.from_json),
                   help="TB parameter JSON (default: bundled silicon)")
    p.add_argument("--backend", choices=["exact", "shots"], default="exact")
    p.add_argument("--shots", type=_at_least(1), default=8192,
                   help="shots per Pauli word (default 8192)")
    p.add_argument("--noise", type=_arg(_load_json), help="readout-noise JSON file")
    p.add_argument("--mitigate", action="store_true",
                   help="apply readout-error mitigation")
    p.add_argument("--optimizer", type=_arg(_read_optimizer), default=OptimizerConfig(),
                   help="optimizer config JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbands",
        description="Silicon band structure via a simulated hybrid eigensolver.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # Every header carries every key; a subcommand's own flags override these.
    parser.set_defaults(params=None, kpath=None, mode=None, backend="exact", shots=8192,
                        noise=None, mitigate=False, optimizer=OptimizerConfig(), workers=1)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="band energies along a k-path")
    _add_model_args(p)
    p.add_argument("--kpath", type=_as_written(parse_kpath), default="X,G,L:20",
                   help="anchors and points per segment, e.g. 'X,G,L:20'")
    p.add_argument("--mode", choices=["2band", "8band"], default="2band")
    p.add_argument("--workers", type=_at_least(1), default=1,
                   help="k-point worker pool size")
    _add_common(p)

    p = sub.add_parser("scan", help="mean-field parameter surface at one k-point")
    _add_model_args(p)
    p.add_argument("--kpoint", type=_as_written(parse_kpoint), default="0.125/0.125/0.125",
                   help="k-point label or 'x/y/z' fractions of 2π/a")
    p.add_argument("--theta-steps", type=_at_least(2), default=32)
    p.add_argument("--phi-steps", type=_at_least(2), default=64)
    p.set_defaults(mode="2band")
    _add_common(p)

    p = sub.add_parser("rates", help="repeated transition-rate estimation series")
    p.add_argument("--noise", type=_arg(_load_json), help="readout-noise JSON file")
    p.add_argument("--trials", type=_at_least(1), default=100_000,
                   help="preparations per state per estimate")
    p.add_argument("--samples", type=_at_least(1), default=50, help="series length")
    p.add_argument("--qubits", type=_at_least(1), default=1)
    _add_common(p)

    p = sub.add_parser("decompose", help="Pauli coefficient table of a matrix")
    p.add_argument("--matrix", type=_arg(_matrix_file), required=True,
                   help="Hermitian matrix JSON or CSV")
    _add_common(p)
    return parser


def _check_noise(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """The one check across flags: the noise file against the qubit count and
    `--mitigate` (exit 2, before any work)."""
    if args.noise is None:
        return
    n_qubits = args.qubits if args.command == "rates" else _MODE_QUBITS[args.mode]
    try:
        noise = ReadoutNoiseModel.from_dict(args.noise, n_qubits)
    except (ValueError, TypeError) as exc:
        parser.error(f"--noise: {exc} ({n_qubits} qubits)")
    if args.mitigate and noise.ill_posed().any():
        parser.error("--mitigate is ill-posed: w01 + w10 >= 1 on some qubit "
                     "(w10 at its drift peak)")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_noise(parser, args)
    if args.command in ("bands", "scan") and args.params is None:
        args.params = TBParameters.default_silicon()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    runners = {
        "bands": run_bands,
        "scan": run_scan,
        "rates": run_rates,
        "decompose": run_decompose,
    }
    runners[args.command](args, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
