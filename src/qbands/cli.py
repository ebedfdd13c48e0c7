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
import math
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .pauli import decompose, from_json_object, is_real, pauli_words
from .qsim import ansatz_for
from .sampler import (IllPosedMitigationError, ReadoutNoiseModel, confusion,
                      estimate_transition_rates)
from .seeding import spawn_rng, spawn_seed
from .tightbinding import (
    KPoint,
    TBParameters,
    build_full_hamiltonian,
    build_s_block,
    diagonalize_classical,
    make_kpath,
)
from .vqe import STOPS, ExactBackend, ShotsBackend, full_spectrum, grid_scan

# Seed fan-out roles under the master seed (see README).
_STREAM_OPT = 1
_STREAM_BACKEND = 2
_STREAM_RATES_DEMO = 3

_MODE_QUBITS = {"2band": 1, "8band": 3}
_DEFAULT_SHOTS = 8192
# The largest count numpy holds (int64); counts above it fail deep in numpy.
_MAX_COUNT = 2**63 - 1
# Size caps: what a scan grid or a k-path holds per node stays within 1 GiB.
# A scan grid node peaks at 170-300 bytes (tracemalloc, exact and shots
# backends), budgeted at 512; a k-point keeps about 2.6 KB of path, job,
# record and CSV row on the 8-band model, budgeted at 4 KiB.
_MAX_SCAN_NODES = 2**30 // 512  # 2**21
_MAX_KPATH_POINTS = 2**30 // 4096  # 2**18
# Decomposing an n-qubit `--matrix` peaks at 2·16**n·16 B (tracemalloc at n = 3-5),
# 512 MiB at 6 qubits; `rates --noise` holds the 2**n x 2**n confusion product,
# 1.25·4**n·8 B (n = 8-10), 640 MiB at 13 qubits, and a sample about 1.2 KB of
# CSV row there, budgeted at 2 KiB.
_MAX_MATRIX_DIM = 2**6
_MAX_RATES_QUBITS = 13
_MAX_RATES_SAMPLES = 2**30 // 2048  # 2**19
# A pool forks every worker up front.  A worker of an 8-band run peaks at
# 32.0-32.5 MiB RSS (ru_maxrss and smaps, 2-worker pool), 7.6 MiB of it
# private and the rest shared with the parent, budgeted at 32 MiB.
_MAX_WORKERS = 2**30 // 2**25  # 32
# BFGS starts every restart of a level at once.  A mitigated 64-shot 8-band
# run peaks at 44, 86 and 136 MiB RSS at 8, 64 and 128 restarts (ru_maxrss),
# about 0.8 MiB per restart, budgeted at 1 MiB.
_MAX_RESTARTS = 2**30 // 2**20  # 1024
# The largest legal input, a 64x64 `--matrix` of [re, im] pairs, is 177 KB
# as json.dumps writes it and 416 KB at indent=4.
_MAX_INPUT_BYTES = 2**20


def _header(args: argparse.Namespace) -> dict:
    """The header payload: its command's flags but --out, their digest, the
    master seed (None for `decompose`, which draws nothing) and the code version."""
    config = {key: value for key, value in vars(args).items() if key != "out"}
    if args.command in ("bands", "scan"):
        config["params"] = asdict(args.params)
    blob = json.dumps(config, sort_keys=True).encode()
    return {
        "config": config,
        "digest": hashlib.sha256(blob).hexdigest()[:12],
        "seed": config.get("seed"),
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
    points = 1 + (len(anchors) - 1) * points_per_segment
    if points > _MAX_KPATH_POINTS:
        raise ValueError(f"{points} k-points exceed the cap of {_MAX_KPATH_POINTS}")
    return anchors, points_per_segment


def _read_input(path: str) -> bytes:
    """An input file's bytes; a file above ``_MAX_INPUT_BYTES`` is refused
    after reading one byte past the cap."""
    with open(path, "rb") as fh:
        data = fh.read(_MAX_INPUT_BYTES + 1)
    if len(data) > _MAX_INPUT_BYTES:
        raise ValueError(f"file exceeds the cap of {_MAX_INPUT_BYTES} bytes")
    return data


def _load_json(path: str):
    return json.loads(_read_input(path))


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


def _make_backend(args: argparse.Namespace, noise: ReadoutNoiseModel | None, k_index: int):
    if args.backend == "exact":
        return ExactBackend()
    return ShotsBackend(shots=args.shots, noise=noise, mitigate=args.mitigate,
                        seed=spawn_seed(args.seed, _STREAM_BACKEND, k_index))


def _solve_kpoint(job: tuple) -> dict:
    """Worker: solve one k-point; returns the flat band record.  ``noise``
    is the `--noise` file's model, parsed once per run.

    A failed level (`SpectrumResult.failure`) ends the k-point, named on
    stderr: the levels found before it are kept, and it and every later
    level are written with NaN energy and residual, unconverged, and 0
    evaluations after the failed level's own (its rejected attempt's, if
    any)."""
    args, noise, k_index, components, coord = job
    k = KPoint(components)
    build = build_s_block if args.mode == "2band" else build_full_hamiltonian
    H = build(args.params, k)
    oracle = diagonalize_classical(H)
    dec = decompose(H)
    n_qubits = _MODE_QUBITS[args.mode]
    backend = _make_backend(args, noise, k_index)
    levels = 2**n_qubits
    spectrum = full_spectrum(dec, levels, ansatz_for(n_qubits), backend, args.restarts,
                             seed=spawn_seed(args.seed, _STREAM_OPT, k_index))
    bands = spectrum.sorted_levels()
    if spectrum.failure:
        print(f"qbands: k-point {k_index}: {spectrum.failure}; written as NaN from band "
              f"{len(bands) + 1}", file=sys.stderr)
    results = [b[1] for b in bands] + list(spectrum.rejected)
    nan = [math.nan] * (levels - len(bands))
    return {
        "k_index": k_index,
        "k": components,
        "coord": coord,
        "energies": [b[0] for b in bands] + nan,
        "oracle": list(oracle),
        "evaluations": [r.evaluations for r in results] + [0] * (levels - len(results)),
        "converged": [b[1].converged for b in bands] + [False] * len(nan),
        "residuals": [b[2] for b in bands] + nan,
        "stops": Counter(res.stop for r in results for res in r.restarts),
        "failed": spectrum.failure is not None,
    }


def run_bands(args: argparse.Namespace, out_dir: Path, noise: ReadoutNoiseModel | None) -> int:
    path = make_kpath(*args.kpath.value)
    jobs = [
        (args, noise, i, kp.components, float(path.coords[i]))
        for i, kp in enumerate(path.points)
    ]
    # A pool forks all its workers up front, so it is no larger than the path.
    workers = min(args.workers, len(jobs))
    if workers > 1:
        # deferred: loads multiprocessing, socket and logging, which a serial
        # run (and every start-up) would otherwise pay for
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_solve_kpoint, jobs))
    else:
        records = [_solve_kpoint(job) for job in jobs]

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
    return 1 if summary["failed_kpoints"] else 0


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
    stops = sum((r["stops"] for r in records), Counter())
    return {"bands": per_band, "non_converged_entries": excluded,
            "failed_kpoints": [r["k_index"] for r in records if r["failed"]],
            "stops": {name: stops[name] for name in STOPS}}


def run_scan(args: argparse.Namespace, out_dir: Path, noise: ReadoutNoiseModel | None) -> int:
    H = build_s_block(args.params, args.kpoint.value)
    dec = decompose(H)
    backend = _make_backend(args, noise, 0)
    try:
        scan = grid_scan(dec, args.theta_steps, args.phi_steps, backend)
    except IllPosedMitigationError as exc:
        # the rates pass the boundary check, but their estimate need not
        print(f"qbands: {exc}; no scan.csv written", file=sys.stderr)
        return 1
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
    return 0


def run_rates(args: argparse.Namespace, out_dir: Path, noise: ReadoutNoiseModel | None) -> int:
    n_qubits = args.qubits
    columns = ["sample_index"]
    columns += [f"w01_q{q}" for q in range(1, n_qubits + 1)]
    columns += [f"w10_q{q}" for q in range(1, n_qubits + 1)]
    rows = []
    # One confusion product at a time (512 MiB at 13 qubits); a static one once.
    drifts = noise is not None and bool(noise.drift_amplitude)
    static = None if noise is None or drifts else confusion(noise.laws([0]))
    for t in range(args.samples):
        [(w01, w10)] = estimate_transition_rates(
            confusion(noise.laws([t])) if drifts else static, n_qubits, args.trials,
            lambda b: spawn_rng(args.seed, _STREAM_RATES_DEMO, t))
        rows.append([t, *w01, *w10])
    out = out_dir / "rates.csv"
    _write_csv(out, _header(args), columns, rows)
    print(f"wrote {out}")
    return 0


def _json_entry(e) -> float | complex:
    """A JSON matrix entry: a finite real number or an [re, im] pair of them."""
    if is_real(e):
        return e
    if isinstance(e, list) and len(e) == 2 and all(map(is_real, e)):
        return complex(*e)
    raise ValueError(f"matrix entry {e!r} is not a finite real number or an "
                     "[re, im] pair of finite reals")


def _json_rows(matrix) -> list[list]:
    """The rows of a JSON matrix: a list of rows of matrix entries."""
    if not isinstance(matrix, list):
        raise ValueError("expected a 'matrix' list of rows")
    return [[_json_entry(e) for e in row] for row in matrix]


def _read_matrix(path: str) -> np.ndarray:
    """Square matrix from JSON ({'matrix': [[[re, im], ...], ...]}, read as
    every config file is, or the bare nested list) or CSV rows of
    interleaved re,im values, of dimension at most ``_MAX_MATRIX_DIM``."""
    if path.endswith(".json"):
        data = _load_json(path)
        rows = (from_json_object(_json_rows, data) if isinstance(data, dict)
                else _json_rows(data))
    else:
        rows = []
        for line in _read_input(path).decode().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # Refused before a row past the cap is parsed.
            if len(rows) == _MAX_MATRIX_DIM:
                raise ValueError(f"more than {_MAX_MATRIX_DIM} rows exceed the cap of "
                                 f"{_MAX_MATRIX_DIM}")
            vals = line.split(",")
            if len(vals) > 2 * _MAX_MATRIX_DIM:
                raise ValueError(f"a row of {len(vals)} values exceeds the cap of "
                                 f"{2 * _MAX_MATRIX_DIM} ({_MAX_MATRIX_DIM} re,im pairs)")
            vals = [float(v) for v in vals]
            if len(vals) % 2:
                raise ValueError("CSV matrix rows must hold re,im pairs")
            rows.append([complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)])
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError(f"expected a square matrix, got {len(rows)} rows of "
                         f"lengths {sorted({len(row) for row in rows})}")
    if len(rows) > _MAX_MATRIX_DIM:
        raise ValueError(f"matrix dimension {len(rows)} exceeds the cap of {_MAX_MATRIX_DIM}")
    return np.array(rows, dtype=complex)


def run_decompose(args: argparse.Namespace, out_dir: Path) -> int:
    dec = args.matrix.value
    rows = [
        [word, dec.coeffs[word]]
        for word in pauli_words(dec.n_qubits)
        if word in dec.coeffs
    ]
    out = out_dir / "decompose.csv"
    _write_csv(out, _header(args), ["word", "coefficient"], rows)
    print(f"wrote {out} ({len(rows)} nonzero of {4**dec.n_qubits} words)")
    return 0


def _arg(parse):
    """An argparse ``type``: ``parse(text)``, with an input it cannot read or
    rejects reported as an error of the flag (exit 2, before any work)."""
    def convert(text: str):
        try:
            return parse(text)
        except (OSError, ValueError, TypeError) as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc

    return convert


def _at_least(least: int, most: int | None = _MAX_COUNT):
    """The ``type`` of an integer flag with a minimum and, unless ``most`` is
    None, a maximum (by default the largest count numpy holds)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise ValueError(f"must be >= {least}")
        if most is not None and value > most:
            raise ValueError(f"must be <= {most}")
        return value

    return _arg(parse)


class _Written(str):
    """A flag's text as written, which the header records, carrying
    ``value``, what the flag's parser made of it."""

    value: object


def _as_written(parse):
    """The ``type`` of a flag whose text the header records: a `_Written`
    with ``parse(text)`` as its value, so the text is parsed once."""
    def read(text: str) -> _Written:
        written = _Written(text)
        written.value = parse(text)
        return written

    return _arg(read)


def _config_file(make):
    """The ``type`` of a JSON config flag: ``make`` called on the file's object."""
    return _arg(lambda path: from_json_object(make, _load_json(path)))


def _add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    if seed:
        # Any size: a seed feeds numpy's SeedSequence, which takes big integers.
        p.add_argument("--seed", type=_at_least(0, most=None), default=0, help="master seed")
    p.add_argument("--out", default=".", help="output directory")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--params", type=_config_file(TBParameters),
                   help="TB parameter JSON (default: bundled silicon)")
    p.add_argument("--backend", choices=["exact", "shots"], default="exact")
    p.add_argument("--shots", type=_at_least(1),
                   help=f"shots per Pauli word (--backend shots; default {_DEFAULT_SHOTS})")
    p.add_argument("--noise", type=_arg(_load_json), help="readout-noise JSON file")
    p.add_argument("--mitigate", action="store_true",
                   help="apply readout-error mitigation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbands",
        description="Silicon band structure via a simulated hybrid eigensolver.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="band energies along a k-path")
    _add_model_args(p)
    p.add_argument("--restarts", type=_at_least(1, _MAX_RESTARTS),
                   help="BFGS restarts per level (default: per circuit and backend)")
    p.add_argument("--kpath", type=_as_written(parse_kpath), default="X,G,L:20",
                   help="anchors and points per segment, e.g. 'X,G,L:20'")
    p.add_argument("--mode", choices=["2band", "8band"], default="2band")
    p.add_argument("--workers", type=_at_least(1, _MAX_WORKERS), default=1,
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
    p.add_argument("--samples", type=_at_least(1, _MAX_RATES_SAMPLES), default=50,
                   help="series length")
    p.add_argument("--qubits", type=_at_least(1, _MAX_RATES_QUBITS), default=1)
    _add_common(p)

    p = sub.add_parser("decompose", help="Pauli coefficient table of a matrix")
    p.add_argument("--matrix", type=_as_written(lambda path: decompose(_read_matrix(path))),
                   required=True, help="Hermitian matrix JSON or CSV")
    _add_common(p, seed=False)
    return parser


def _check_across_flags(parser: argparse.ArgumentParser,
                        args: argparse.Namespace) -> ReadoutNoiseModel | None:
    """The checks across flags, before any work (exit 2): the scan grid size,
    `--shots`, `--noise` and `--mitigate` against the backend, and the noise
    file against the qubit count and `--mitigate` (which `rates` lacks: it
    mitigates nothing); returns the checked `--noise` model."""
    if args.command == "scan" and args.theta_steps * args.phi_steps > _MAX_SCAN_NODES:
        parser.error(f"--theta-steps x --phi-steps: {args.theta_steps * args.phi_steps} "
                     f"grid nodes exceed the cap of {_MAX_SCAN_NODES}")
    if args.command in ("bands", "scan") and args.backend != "shots":
        # The exact backend reads no counts: a header that recorded these
        # flags would claim a sampled, noisy or mitigated run that never happened.
        for flag, given in (("--shots", args.shots is not None),
                            ("--noise", args.noise is not None), ("--mitigate", args.mitigate)):
            if given:
                parser.error(f"{flag} needs --backend shots")
    if args.command == "decompose" or args.noise is None:
        return None
    n_qubits = args.qubits if args.command == "rates" else _MODE_QUBITS[args.mode]
    try:
        noise = from_json_object(ReadoutNoiseModel.uniform, args.noise, n_qubits)
    except ValueError as exc:
        parser.error(f"--noise: {exc} ({n_qubits} qubit{'s' * (n_qubits > 1)})")
    if args.command != "rates" and args.mitigate and noise.ill_posed.any():
        parser.error("--mitigate is ill-posed: w01 + w10 >= 1 on some qubit "
                     "(w10 at its drift peak)")
    return noise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Kept out of ``args``: every key there lands in the output header.
    noise = _check_across_flags(parser, args)
    if args.command in ("bands", "scan") and args.params is None:
        args.params = TBParameters.default_silicon()
    if args.command in ("bands", "scan") and args.backend == "shots" and args.shots is None:
        args.shots = _DEFAULT_SHOTS
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        parser.error(f"--out: cannot make directory {args.out!r}: {exc.strerror}")
    if args.command == "decompose":
        return run_decompose(args, out_dir)
    runners = {"bands": run_bands, "scan": run_scan, "rates": run_rates}
    return runners[args.command](args, out_dir, noise)


if __name__ == "__main__":
    sys.exit(main())
