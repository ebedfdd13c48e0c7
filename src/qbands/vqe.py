"""Variational driver: classical optimisers, ground-state search, parameter
surface scans, and full-spectrum extraction via identity shift plus
iterative deflation.

Two backends evaluate the energy objective sum_w c_w <σ_w>: an exact
statevector backend and a shot-sampling backend with optional readout noise
and mitigation.  The optimiser never sees which one it is driving.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np
from scipy import optimize as _sciopt

from . import qsim, sampler
from .pauli import (
    SpectralDecomposition,
    deflate,
    gershgorin_upper_bound,
    pauli_words,
    reconstruct,
    shift_identity,
)
from .qsim import MEAN_FIELD, Ansatz
from .seeding import spawn_rng, spawn_seed

# Sub-stream roles in the seed fan-out (master, role, ...).
_STREAM_RESTART = 0
_STREAM_WORDS = 1
_STREAM_RATES = 2
_STREAM_LEVEL = 3

# A converged level this close to zero (on the shifted axis, where genuine
# eigenvalues sit at or below -1) means the optimiser captured an already
# deflated state instead of a remaining eigenvalue.
ZERO_CAPTURE_TOL = 0.5

_DIRECT_METHODS = {"cobyla", "direct", "direct-search"}
_QUASINEWTON_METHODS = {"bfgs", "quasi-newton", "quasi-newton-gradient"}


class ZeroCaptureError(RuntimeError):
    """A deflation level converged onto the projected-out zero eigenvalue."""

    def __init__(self, level: int, energy: float, energies_found: list[float]):
        super().__init__(
            f"level {level} converged to {energy:.6g} on the shifted axis, "
            "closer to the deflated zero than to any remaining eigenvalue"
        )
        self.level = level
        self.energy = energy
        self.energies_found = energies_found


@dataclass(frozen=True)
class OptimizerConfig:
    """Classical optimiser settings.

    method: "bfgs" (quasi-Newton with central-difference gradients) or
    "cobyla" (direct search).  ``max_iter``, ``fd_step`` and ``restarts``
    default per method / ansatz / backend when None.  ``seed`` None means
    unset: the CLI then roots the optimiser streams at the master seed, and
    the library draws from seed 0.
    """

    method: str = "bfgs"
    max_iter: int | None = None
    tol_ev: float = 1e-6
    fd_step: float | None = None
    restarts: int | None = None
    seed: int | None = None

    def __post_init__(self):
        m = self.method.lower()
        if m in _QUASINEWTON_METHODS:
            object.__setattr__(self, "method", "bfgs")
        elif m in _DIRECT_METHODS:
            object.__setattr__(self, "method", "cobyla")
        else:
            raise ValueError(f"unknown optimiser method {self.method!r}")
        if not self.tol_ev > 0:
            raise ValueError("tol_ev must be positive")
        if self.restarts is not None and self.restarts < 1:
            raise ValueError("restarts must be >= 1")

    @classmethod
    def from_dict(cls, data: Mapping) -> "OptimizerConfig":
        if not isinstance(data, Mapping):
            raise ValueError(f"expected a mapping, got {type(data).__name__}")
        keys = ("method", "max_iter", "tol_ev", "fd_step", "restarts", "seed")
        return cls(**{k: data[k] for k in keys if k in data})


@dataclass(frozen=True)
class OptimizeResult:
    x: np.ndarray
    fun: float
    evaluations: int
    iterations: int
    converged: bool


def optimize_quasinewton(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    config: OptimizerConfig,
    objective_batch: Callable[[np.ndarray], np.ndarray],
) -> OptimizeResult:
    """BFGS with central-difference gradients of configurable step.

    ``objective_batch`` evaluates an (N, dim) stack of points in one call;
    each gradient is one call on its 2*dim shifted points.  Hitting the
    iteration cap returns the best-so-far flagged unconverged.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    step = config.fd_step if config.fd_step is not None else 1e-4
    max_iter = config.max_iter if config.max_iter is not None else 200
    shifts = np.zeros((2 * dim, dim))
    for j in range(dim):
        shifts[2 * j, j] = step
        shifts[2 * j + 1, j] = -step
    nfev = 0

    def f(xv):
        nonlocal nfev
        nfev += 1
        return float(objective(xv))

    def jac(xv):
        nonlocal nfev
        nfev += 2 * dim
        vals = np.asarray(objective_batch(xv[None, :] + shifts), dtype=float)
        return (vals[0::2] - vals[1::2]) / (2 * step)

    res = _sciopt.minimize(
        f, x0, jac=jac, method="BFGS",
        options={"maxiter": max_iter, "gtol": config.tol_ev},
    )
    # Status 2 (precision loss) means the line search bottomed out at the
    # finite-difference / shot-noise floor: a terminal state, not a cap hit.
    converged = bool(res.success) or res.status == 2
    return OptimizeResult(res.x, float(res.fun), nfev, int(res.nit), converged)


def optimize_direct(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    config: OptimizerConfig,
) -> OptimizeResult:
    """COBYLA direct search: linear-approximation trust region, no gradients."""
    x0 = np.asarray(x0, dtype=float)
    max_iter = config.max_iter if config.max_iter is not None else 4000
    nfev = 0

    def f(xv):
        nonlocal nfev
        nfev += 1
        return float(objective(xv))

    res = _sciopt.minimize(
        f, x0, method="COBYLA", tol=config.tol_ev,
        options={"maxiter": max_iter},
    )
    return OptimizeResult(res.x, float(res.fun), nfev, nfev, bool(res.success))


# ---------------------------------------------------------------------------
# Backends


# Readouts of each prepared basis state per mitigation-rate estimate.
RATE_TRIALS = 100_000


def _check_qubits(decomp: SpectralDecomposition, ansatz: Ansatz) -> None:
    if ansatz.n_qubits != decomp.n_qubits:
        raise ValueError(f"ansatz acts on {ansatz.n_qubits} qubits but the "
                         f"decomposition has {decomp.n_qubits}")


def _with_scalar(f_batch):
    """(f, f_batch) with f(θ) exactly f_batch(θ[None])[0]."""

    def f(theta):
        return float(f_batch(np.asarray(theta, dtype=float)[None])[0])

    return f, f_batch


class ExactBackend:
    """Analytic expectation values straight off the statevector."""

    stochastic = False

    def make_objective(self, decomp: SpectralDecomposition, ansatz: Ansatz):
        """(f, f_batch): Re<ψ|H|ψ> of every row of the ansatz's batched
        kernel, H the dense reconstruction of the decomposition."""
        _check_qubits(decomp, ansatz)
        dense_t = reconstruct(decomp).T

        def f_batch(thetas):
            psi = ansatz.prepare_batch(thetas)
            return np.real(np.einsum("bi,bi->b", psi.conj(), psi @ dense_t))

        return _with_scalar(f_batch)

    def pauli_expectations(self, ansatz: Ansatz, theta: np.ndarray) -> dict[str, float]:
        return qsim.exact_pauli_expectations(ansatz.prepare(theta))


class ShotsBackend:
    """Measurement-sampled expectation values with optional readout noise.

    Every Pauli word is measured in its own circuit execution with the full
    shot budget.  When mitigation is on, transition rates are estimated from
    ``RATE_TRIALS`` readouts of prepared basis states; with a drifting noise
    model they are re-estimated before every energy evaluation, otherwise
    once and cached.  Each energy evaluation, one row of an objective batch,
    advances the trial counter that drives the drift.
    """

    stochastic = True

    def __init__(
        self,
        shots: int = 8192,
        noise: sampler.ReadoutNoiseModel | None = None,
        mitigate: bool = False,
        seed: int = 0,
    ):
        if shots < 1:
            raise ValueError("shots must be >= 1")
        self.shots = shots
        self.noise = noise
        self.mitigate = mitigate
        self.seed = seed
        self.trial = 0
        self._rates: sampler.ReadoutNoiseModel | None = None

    def _drifting(self) -> bool:
        return self.noise is not None and bool(self.noise.drift_amplitude)

    def _mitigation_rates(self, n_qubits: int, trial: int) -> sampler.ReadoutNoiseModel | None:
        if not self.mitigate:
            return None
        if self._rates is None or self._drifting():
            rng = spawn_rng(self.seed, _STREAM_RATES, trial)
            self._rates = sampler.estimate_transition_rates(
                self.noise, n_qubits, RATE_TRIALS, rng, trial=trial
            )
        return self._rates

    def _measure_words(
        self,
        words: list[str],
        state: np.ndarray,
        n_qubits: int,
    ) -> dict[str, float]:
        trial = self.trial
        self.trial += 1
        rates = self._mitigation_rates(n_qubits, trial)
        out = {}
        for wi, word in enumerate(words):
            rng = spawn_rng(self.seed, _STREAM_WORDS, trial, wi)
            out[word] = sampler.sampled_expectation(
                state, word, self.shots, self.noise, rng,
                mitigation=rates, trial=trial,
            )
        return out

    def make_objective(self, decomp: SpectralDecomposition, ansatz: Ansatz):
        """(f, f_batch): sum_w c_w <σ_w> of every row of the ansatz's batched
        kernel, each row measured in turn as one energy evaluation."""
        _check_qubits(decomp, ansatz)
        words = list(decomp.coeffs)

        def f_batch(thetas):
            states = ansatz.prepare_batch(thetas)
            energies = np.empty(len(states))
            for b, state in enumerate(states):
                measured = self._measure_words(words, state, decomp.n_qubits)
                energies[b] = sum(c * measured[w] for w, c in decomp.coeffs.items())
            return energies

        return _with_scalar(f_batch)

    def pauli_expectations(self, ansatz: Ansatz, theta: np.ndarray) -> dict[str, float]:
        return self._measure_words(pauli_words(ansatz.n_qubits), ansatz.prepare(theta),
                                   ansatz.n_qubits)


Backend = ExactBackend | ShotsBackend


# ---------------------------------------------------------------------------
# Driver


@dataclass(frozen=True)
class RestartTrace:
    energy: float
    evaluations: int
    iterations: int
    converged: bool


@dataclass(frozen=True)
class VQEResult:
    """Best variational result over all restarts.

    ``energy`` is a fresh backend evaluation at ``theta`` (identical to the
    optimiser value on the exact backend, an independent estimate on the
    shot backend).  ``evaluations`` counts every objective call made.
    """

    energy: float
    theta: np.ndarray
    evaluations: int
    converged: bool
    restarts: tuple[RestartTrace, ...] = field(default_factory=tuple)


def _default_restarts(ansatz: Ansatz) -> int:
    return 3 if ansatz.n_params == 2 else 20


def minimize(
    decomp: SpectralDecomposition,
    ansatz: Ansatz,
    backend: Backend,
    config: OptimizerConfig = OptimizerConfig(),
) -> VQEResult:
    """Minimise the reconstructed <H> over the ansatz parameters.

    Runs ``restarts`` independent optimisations from uniform random angles
    and keeps the lowest energy (ties broken by fewest evaluations).
    """
    restarts = config.restarts if config.restarts is not None else _default_restarts(ansatz)
    fd_step = config.fd_step
    if fd_step is None and backend.stochastic:
        fd_step = np.pi / 32
    run_config = replace(config, fd_step=fd_step, restarts=restarts)
    seed = config.seed if config.seed is not None else 0

    f, f_batch = backend.make_objective(decomp, ansatz)
    best = None
    traces = []
    total_evals = 0
    for r in range(restarts):
        x0 = ansatz.random_parameters(spawn_rng(seed, _STREAM_RESTART, r))
        if run_config.method == "cobyla":
            res = optimize_direct(f, x0, run_config)
        else:
            res = optimize_quasinewton(f, x0, run_config, objective_batch=f_batch)
        traces.append(RestartTrace(res.fun, res.evaluations, res.iterations,
                                   res.converged))
        total_evals += res.evaluations
        if best is None or (res.fun, res.evaluations) < (best.fun, best.evaluations):
            best = res
    energy = f(best.x)
    total_evals += 1
    return VQEResult(
        energy=float(energy),
        theta=np.asarray(best.x, dtype=float),
        evaluations=total_evals,
        converged=best.converged,
        restarts=tuple(traces),
    )


@dataclass(frozen=True)
class GridScan:
    """Energy expectation over the mean-field parameter grid."""

    thetas: np.ndarray
    phis: np.ndarray
    energies: np.ndarray  # shape (len(thetas), len(phis))
    argmin: tuple[float, float, float]  # (theta, phi, energy)


def grid_scan(
    decomp: SpectralDecomposition,
    theta_steps: int = 32,
    phi_steps: int = 64,
    backend: Backend | None = None,
) -> GridScan:
    """Evaluate <H> on a dense (θ, φ) grid over [0, π] x [-π, π].

    The grid is one batch through the backend's mean-field objective, in
    row-major order (θ outer, φ inner), so only one-qubit decompositions fit.
    """
    if theta_steps < 2 or phi_steps < 2:
        raise ValueError("grid needs at least two steps per axis")
    backend = backend if backend is not None else ExactBackend()
    thetas = np.linspace(0.0, np.pi, theta_steps)
    phis = np.linspace(-np.pi, np.pi, phi_steps)
    TH, PH = np.meshgrid(thetas, phis, indexing="ij")
    _, f_batch = backend.make_objective(decomp, MEAN_FIELD)
    energies = f_batch(np.column_stack([TH.ravel(), PH.ravel()])).reshape(TH.shape)
    i, j = np.unravel_index(np.argmin(energies), energies.shape)
    return GridScan(thetas, phis, energies,
                    (float(thetas[i]), float(phis[j]), float(energies[i, j])))


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalue estimates from iterative deflation.

    ``energies`` is ascending with the identity shift removed; ``levels``
    and ``residuals`` are in the order found.  The residual of a level is
    the eigenpair defect ||(H_level - ε)ψ|| of its converged state against
    the (shifted, deflated) operator it minimised.
    """

    energies: np.ndarray
    levels: tuple[VQEResult, ...]
    residuals: tuple[float, ...]
    shift: float

    def sorted_levels(self):
        """(energy, VQEResult, residual) triples in ascending energy order."""
        unshifted = [lv.energy + self.shift for lv in self.levels]
        order = np.argsort(unshifted)
        return [(unshifted[i], self.levels[i], self.residuals[i]) for i in order]


def full_spectrum(
    decomp: SpectralDecomposition,
    levels: int,
    ansatz: Ansatz,
    backend: Backend,
    config: OptimizerConfig = OptimizerConfig(),
    shift: float | None = None,
) -> SpectrumResult:
    """Extract ``levels`` eigenvalues by repeated minimise-and-deflate.

    The identity coefficient is first shifted down by the Gershgorin upper
    bound plus 1 eV so that every eigenvalue is negative; each converged
    state is then projected to zero via the coefficient update and the next
    minimisation finds the following eigenvalue.  A level converging near
    zero on the shifted axis raises ZeroCaptureError.  ``shift`` overrides
    the automatic bound (diagnostics only).
    """
    dim = 2**decomp.n_qubits
    if not 1 <= levels <= dim:
        raise ValueError(f"levels must be in [1, {dim}]")
    if shift is None:
        shift = gershgorin_upper_bound(reconstruct(decomp)) + 1.0
    work = shift_identity(decomp, shift)
    results = []
    residuals = []
    seed = config.seed if config.seed is not None else 0
    for level in range(levels):
        level_config = replace(config, seed=spawn_seed(seed, _STREAM_LEVEL, level))
        res = minimize(work, ansatz, backend, level_config)
        if res.energy > -ZERO_CAPTURE_TOL:
            raise ZeroCaptureError(
                level, res.energy, [r.energy + shift for r in results]
            )
        psi = ansatz.prepare(res.theta)
        dense = reconstruct(work)
        residuals.append(float(np.linalg.norm(dense @ psi - res.energy * psi)))
        results.append(res)
        if level + 1 < levels:
            expectations = backend.pauli_expectations(ansatz, res.theta)
            work = deflate(work, res.energy, expectations)
    energies = np.sort([r.energy + shift for r in results])
    return SpectrumResult(energies, tuple(results), tuple(residuals), float(shift))
