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
from dataclasses import asdict, dataclass
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


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings of one CLI invocation."""

    command: str
    params: TBParameters | None
    kpath_spec: str | None
    mode: str | None
    backend: str
    shots: int
    noise: dict | None
    mitigate: bool
    optimizer: OptimizerConfig
    seed: int
    workers: int
    extra: dict
    matrix: np.ndarray | None = None  # `decompose --matrix`, read at the boundary

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "params": asdict(self.params) if self.params else None,
            "kpath": self.kpath_spec,
            "mode": self.mode,
            "backend": self.backend,
            "shots": self.shots,
            "noise": self.noise,
            "mitigate": self.mitigate,
            "optimizer": asdict(self.optimizer),
            "seed": self.seed,
            "workers": self.workers,
            **self.extra,
        }

    def digest(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def header_line(self) -> str:
        payload = {
            "config": self.as_dict(),
            "digest": self.digest(),
            "seed": self.seed,
            "version": __version__,
        }
        return "# " + json.dumps(payload, sort_keys=True)


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


def _write_csv(path: Path, header_line: str, columns: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(header_line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _make_backend(config: RunConfig, n_qubits: int, k_index: int):
    if config.backend == "exact":
        return ExactBackend()
    noise = (
        ReadoutNoiseModel.from_dict(config.noise, n_qubits)
        if config.noise is not None
        else None
    )
    return ShotsBackend(
        shots=config.shots,
        noise=noise,
        mitigate=config.mitigate,
        seed=spawn_seed(config.seed, _STREAM_BACKEND, k_index),
    )


def _solve_kpoint(args: tuple) -> dict:
    """Worker: solve one k-point; returns the flat band record."""
    config, k_index, components, coord = args
    k = KPoint(components)
    if config.mode == "2band":
        H = build_s_block(config.params, k)
    else:
        H = build_full_hamiltonian(config.params, k)
    oracle = diagonalize_classical(H)
    dec = decompose(H)
    n_qubits = _MODE_QUBITS[config.mode]
    backend = _make_backend(config, n_qubits, k_index)
    opt_seed_root = (
        config.optimizer.seed if config.optimizer.seed is not None else config.seed
    )
    opt = OptimizerConfig(
        **{
            **asdict(config.optimizer),
            "seed": spawn_seed(opt_seed_root, _STREAM_OPT, k_index),
        }
    )
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


def run_bands(config: RunConfig, out_dir: Path) -> Path:
    anchors, pps = parse_kpath(config.kpath_spec)
    path = make_kpath(anchors, pps)
    jobs = [
        (config, i, kp.components, float(path.coords[i]))
        for i, kp in enumerate(path.points)
    ]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
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
    out = out_dir / "bands.csv"
    _write_csv(out, config.header_line(), columns, rows)

    summary = _band_summary(records, n_bands)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump({"digest": config.digest(), **summary}, fh, indent=2, sort_keys=True)
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


def run_scan(config: RunConfig, out_dir: Path) -> Path:
    k = parse_kpoint(config.extra["kpoint"])
    H = build_s_block(config.params, k)
    dec = decompose(H)
    backend = _make_backend(config, 1, 0)
    scan = grid_scan(
        dec,
        theta_steps=config.extra["theta_steps"],
        phi_steps=config.extra["phi_steps"],
        backend=backend,
    )
    payload = json.loads(config.header_line()[2:])
    payload["argmin"] = {
        "theta": scan.argmin[0],
        "phi": scan.argmin[1],
        "energy": scan.argmin[2],
    }
    header = "# " + json.dumps(payload, sort_keys=True)
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


def run_rates(config: RunConfig, out_dir: Path) -> Path:
    n_qubits = config.extra["qubits"]
    trials = config.extra["trials"]
    samples = config.extra["samples"]
    noise = (
        ReadoutNoiseModel.from_dict(config.noise, n_qubits)
        if config.noise is not None
        else None
    )
    columns = ["sample_index"]
    columns += [f"w01_q{q}" for q in range(1, n_qubits + 1)]
    columns += [f"w10_q{q}" for q in range(1, n_qubits + 1)]
    rows = []
    for t in range(samples):
        est = estimate_transition_rates(
            noise, n_qubits, trials, spawn_rng(config.seed, _STREAM_RATES_DEMO, t),
            trial=t,
        )
        rows.append([t, *est.w01, *est.w10])
    out = out_dir / "rates.csv"
    _write_csv(out, config.header_line(), columns, rows)
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


def run_decompose(config: RunConfig, out_dir: Path) -> Path:
    dec = decompose(config.matrix)
    rows = [
        [word, dec.coeffs[word]]
        for word in pauli_words(dec.n_qubits)
        if word in dec.coeffs
    ]
    out = out_dir / "decompose.csv"
    _write_csv(out, config.header_line(), ["word", "coefficient"], rows)
    print(f"wrote {out} ({len(rows)} nonzero of {4**dec.n_qubits} words)")
    return out


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default=".", help="output directory")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--params", help="TB parameter JSON (default: bundled silicon)")
    p.add_argument("--backend", choices=["exact", "shots"], default="exact")
    p.add_argument("--shots", type=int, default=8192,
                   help="shots per Pauli word (default 8192)")
    p.add_argument("--noise", help="readout-noise JSON file")
    p.add_argument("--mitigate", action="store_true",
                   help="apply readout-error mitigation")
    p.add_argument("--optimizer", help="optimizer config JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbands",
        description="Silicon band structure via a simulated hybrid eigensolver.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="band energies along a k-path")
    _add_model_args(p)
    p.add_argument("--kpath", default="X,G,L:20",
                   help="anchors and points per segment, e.g. 'X,G,L:20'")
    p.add_argument("--mode", choices=["2band", "8band"], default="2band")
    p.add_argument("--workers", type=int, default=1, help="k-point worker pool size")
    _add_common(p)

    p = sub.add_parser("scan", help="mean-field parameter surface at one k-point")
    _add_model_args(p)
    p.add_argument("--kpoint", default="0.125/0.125/0.125",
                   help="k-point label or 'x/y/z' fractions of 2π/a")
    p.add_argument("--theta-steps", type=int, default=32)
    p.add_argument("--phi-steps", type=int, default=64)
    _add_common(p)

    p = sub.add_parser("rates", help="repeated transition-rate estimation series")
    p.add_argument("--noise", help="readout-noise JSON file")
    p.add_argument("--trials", type=int, default=100_000,
                   help="preparations per state per estimate")
    p.add_argument("--samples", type=int, default=50, help="series length")
    p.add_argument("--qubits", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("decompose", help="Pauli coefficient table of a matrix")
    p.add_argument("--matrix", required=True, help="Hermitian matrix JSON or CSV")
    _add_common(p)
    return parser


def _parse_flag(parser: argparse.ArgumentParser, flag: str, parse, value: str | None):
    """``parse(value)``, None for an unset flag.  A value or file that ``parse``
    cannot read or rejects exits 2 naming the flag."""
    try:
        return parse(value) if value is not None else None
    except (OSError, ValueError, TypeError) as exc:
        parser.error(f"{flag} {value!r}: {exc}")


def _resolve_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    params = None
    if args.command in ("bands", "scan"):
        params = (_parse_flag(parser, "--params", TBParameters.from_json, args.params)
                  or TBParameters.default_silicon())
    noise = _parse_flag(parser, "--noise", _load_json, getattr(args, "noise", None))
    optimizer = _parse_flag(
        parser, "--optimizer",
        lambda path: OptimizerConfig.from_dict(_load_json(path)),
        getattr(args, "optimizer", None),
    ) or OptimizerConfig()
    extra = {}
    if args.command == "scan":
        extra = {
            "kpoint": args.kpoint,
            "theta_steps": args.theta_steps,
            "phi_steps": args.phi_steps,
        }
    elif args.command == "rates":
        extra = {"qubits": args.qubits, "trials": args.trials, "samples": args.samples}
    elif args.command == "decompose":
        extra = {"matrix": args.matrix}
    matrix = _parse_flag(parser, "--matrix", _read_matrix, getattr(args, "matrix", None))
    return RunConfig(
        command=args.command,
        params=params,
        kpath_spec=getattr(args, "kpath", None),
        mode=getattr(args, "mode", "2band" if args.command == "scan" else None),
        backend=getattr(args, "backend", "exact"),
        shots=getattr(args, "shots", 8192),
        noise=noise,
        mitigate=getattr(args, "mitigate", False),
        optimizer=optimizer,
        seed=args.seed,
        workers=getattr(args, "workers", 1),
        extra=extra,
        matrix=matrix,
    )


def _check_args(parser: argparse.ArgumentParser, config: RunConfig) -> None:
    """Reject out-of-range flags before any work starts (exit code 2)."""
    if config.seed < 0:
        parser.error(f"--seed must be >= 0, got {config.seed}")
    if config.shots < 1:
        parser.error(f"--shots must be >= 1, got {config.shots}")
    if config.workers < 1:
        parser.error(f"--workers must be >= 1, got {config.workers}")
    if config.command == "bands":
        _, points_per_segment = _parse_flag(parser, "--kpath", parse_kpath, config.kpath_spec)
        if points_per_segment < 1:
            parser.error(
                f"--kpath {config.kpath_spec!r}: points per segment must be >= 1, "
                f"got {points_per_segment}"
            )
    extra = config.extra
    if config.command == "scan":
        _parse_flag(parser, "--kpoint", parse_kpoint, extra["kpoint"])
    for flag, key, least in (("--theta-steps", "theta_steps", 2),
                             ("--phi-steps", "phi_steps", 2),
                             ("--qubits", "qubits", 1),
                             ("--trials", "trials", 1),
                             ("--samples", "samples", 1)):
        if key in extra and extra[key] < least:
            parser.error(f"{flag} must be >= {least}, got {extra[key]}")
    if config.noise is None:
        return
    n_qubits = extra["qubits"] if config.command == "rates" else _MODE_QUBITS[config.mode]
    try:
        noise = ReadoutNoiseModel.from_dict(config.noise, n_qubits)
    except (ValueError, TypeError) as exc:
        parser.error(f"--noise: {exc} ({n_qubits} qubits)")
    if config.mitigate:
        w01, w10 = noise.rates_at()
        w10_peak = np.minimum(w10 + abs(noise.drift_amplitude), 1.0)
        if np.any(w01 + w10_peak >= 1.0):
            parser.error("--mitigate is ill-posed: w01 + w10 >= 1 on some qubit "
                         "(w10 at its drift peak)")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _resolve_config(parser, args)
    _check_args(parser, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    runners = {
        "bands": run_bands,
        "scan": run_scan,
        "rates": run_rates,
        "decompose": run_decompose,
    }
    runners[args.command](config, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
