"""Variational driver: classical optimisers, ground-state search, parameter
surface scans, and full-spectrum extraction via identity shift plus
iterative deflation.

Two backends evaluate the energy objective sum_w c_w <σ_w> and its
gradient: an exact statevector backend (adjoint-sweep gradients) and a
shot-sampling backend with optional readout noise and mitigation
(parameter-shift gradients).  The optimiser never sees which one it is
driving.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Mapping

import numpy as np

from . import qsim, sampler
from .pauli import (
    SpectralDecomposition,
    deflate,
    gershgorin_upper_bound,
    pauli_words,
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


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class OptimizerConfig:
    """Classical optimiser settings.

    method: "bfgs" (quasi-Newton on the backend's exact gradients, all
    restarts in lock step) or "cobyla" (direct search).  ``max_iter`` and
    ``restarts`` default per method / ansatz when None.  ``seed`` None means
    unset: the CLI then roots the optimiser streams at the master seed, and
    the library draws from seed 0.
    """

    method: str = "bfgs"
    max_iter: int | None = None
    tol_ev: float = 1e-6
    restarts: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.method not in ("bfgs", "cobyla"):
            raise ValueError(f"method must be 'bfgs' or 'cobyla', got {self.method!r}")
        tol = self.tol_ev
        if not (isinstance(tol, numbers.Real) and not isinstance(tol, bool)
                and 0 < tol < math.inf):
            raise ValueError(f"tol_ev must be a positive real, got {tol!r}")
        for name in ("max_iter", "restarts"):
            value = getattr(self, name)
            if value is not None and not (_is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.seed is not None and not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "OptimizerConfig":
        if not isinstance(data, Mapping):
            raise ValueError(f"expected a mapping, got {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown optimiser keys {unknown}")
        return cls(**data)


@dataclass(frozen=True)
class OptimizeResult:
    x: np.ndarray
    fun: float
    evaluations: int
    iterations: int
    converged: bool


# Armijo sufficient-decrease constant and the halvings a line search may
# take before it counts as failed.
_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 8
# Curvature pairs with y.s at or below this are not used for an update.
_MIN_CURVATURE = 1e-12


def optimize_quasinewton(
    objective_batch: Callable[[np.ndarray], np.ndarray],
    gradient_batch: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    config: OptimizerConfig,
    gradient_evaluations: int = 1,
) -> list[OptimizeResult]:
    """BFGS from every row of the (R, d) ``x0`` at once, in lock step.

    Each row keeps its own point, energy, gradient and (d, d) inverse
    Hessian; the rows only share the calls: each backtracking round is one
    ``objective_batch`` call on the rows still searching, and each
    iteration's new gradients are one ``gradient_batch`` call on the rows
    that moved.  A row's path is the one it would take alone.

    Line search: Armijo backtracking (Nocedal & Wright, Alg. 3.1) along
    -H g, halving up to 8 times; the first trial step is 1, or min(1, 1/|g|)
    while H is the identity.  The first accepted step from the identity
    scales H by y.s / y.y (N&W eq. 6.20) before its BFGS update; a pair
    with y.s <= 1e-12 leaves H unchanged.  A failed line search resets H to
    the identity and retries along -g.  A failure that starts from the
    identity is terminal "precision loss": the step fell below the
    resolution of the objective (round-off or shot noise), and the row
    counts as converged.  A row also converges when max|g| <= ``tol_ev``;
    hitting ``max_iter`` accepted steps returns it unconverged.

    ``evaluations`` counts energy rows: one per line-search trial and
    ``gradient_evaluations`` per gradient row.
    """
    X = np.array(x0, dtype=float, ndmin=2)
    R, d = X.shape
    max_iter = config.max_iter if config.max_iter is not None else 200
    F = np.asarray(objective_batch(X), dtype=float)
    G = np.asarray(gradient_batch(X), dtype=float)
    eye = np.eye(d)
    Hinv = np.tile(eye, (R, 1, 1))
    identity = np.ones(R, dtype=bool)  # Hinv is I (start, or after a reset)
    nfev = np.full(R, 1 + gradient_evaluations)
    nit = np.zeros(R, dtype=int)
    converged = np.max(np.abs(G), axis=1) <= config.tol_ev
    active = ~converged & (nit < max_iter)
    while active.any():
        a = np.flatnonzero(active)
        g = G[a]
        p = -np.einsum("rij,rj->ri", Hinv[a], g)
        slope = np.einsum("ri,ri->r", g, p)
        uphill = slope >= 0
        if uphill.any():  # H lost positive definiteness to round-off
            Hinv[a[uphill]] = eye
            identity[a[uphill]] = True
            p[uphill] = -g[uphill]
            slope[uphill] = -np.einsum("ri,ri->r", g[uphill], g[uphill])
        step = np.where(identity[a], np.minimum(1.0, 1.0 / np.linalg.norm(g, axis=1)), 1.0)
        accepted = np.zeros(len(a), dtype=bool)
        f_new = np.empty(len(a))
        for _ in range(_MAX_HALVINGS + 1):
            s = np.flatnonzero(~accepted)
            f_new[s] = objective_batch(X[a[s]] + step[s, None] * p[s])
            nfev[a[s]] += 1
            accepted[s] = f_new[s] <= F[a[s]] + _ARMIJO_C1 * step[s] * slope[s]
            if accepted.all():
                break
            step[s] = np.where(accepted[s], step[s], 0.5 * step[s])

        failed = a[~accepted]
        if len(failed):
            converged[failed[identity[failed]]] = True  # precision loss
            Hinv[failed] = eye
            identity[failed] = True

        moved = a[accepted]
        if len(moved):
            sk = step[accepted, None] * p[accepted]
            X[moved] += sk
            F[moved] = f_new[accepted]
            G_new = np.asarray(gradient_batch(X[moved]), dtype=float)
            nfev[moved] += gradient_evaluations
            yk = G_new - G[moved]
            G[moved] = G_new
            nit[moved] += 1
            ys = np.einsum("ri,ri->r", yk, sk)
            upd = ys > _MIN_CURVATURE
            u, sk, yk, ys = moved[upd], sk[upd], yk[upd], ys[upd]
            first = identity[u]
            Hinv[u[first]] *= (ys[first] / np.einsum("ri,ri->r", yk[first], yk[first])
                               )[:, None, None]
            identity[u] = False
            rho = 1.0 / ys
            Hy = np.einsum("rij,rj->ri", Hinv[u], yk)
            yHy = np.einsum("ri,ri->r", yk, Hy)
            Hinv[u] += (-rho[:, None, None] * (sk[:, :, None] * Hy[:, None, :]
                                               + Hy[:, :, None] * sk[:, None, :])
                        + (rho * (1.0 + rho * yHy))[:, None, None]
                        * sk[:, :, None] * sk[:, None, :])
            converged[moved] |= np.max(np.abs(G_new), axis=1) <= config.tol_ev
        active = ~converged & (nit < max_iter)
    return [OptimizeResult(X[r].copy(), float(F[r]), int(nfev[r]), int(nit[r]),
                           bool(converged[r])) for r in range(R)]


def optimize_direct(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    config: OptimizerConfig,
) -> OptimizeResult:
    """COBYLA direct search: linear-approximation trust region, no gradients."""
    from scipy import optimize  # deferred: scipy costs every start-up ~0.6 s

    x0 = np.asarray(x0, dtype=float)
    max_iter = config.max_iter if config.max_iter is not None else 4000
    nfev = 0

    def f(xv):
        nonlocal nfev
        nfev += 1
        return float(objective(xv))

    res = optimize.minimize(
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


def _parameter_shift(f_batch, n_params: int):
    """Row-wise gradient of ``f_batch`` by the ±π/2 parameter-shift rule,
    exact when every angle drives one gate exp(-iθP/2) with P² = 1
    (Mitarai et al. 2018, arXiv:1803.00745).  Each row costs 2·n_params
    energy evaluations, in the order θ + π/2 e_j, θ - π/2 e_j for j = 1..d."""
    eye = np.eye(n_params)
    shifts = 0.5 * np.pi * np.stack([eye, -eye], axis=1)  # (j, +/-, param)

    def grad_batch(thetas):
        thetas = np.asarray(thetas, dtype=float)
        energies = f_batch((thetas[:, None, None, :] + shifts).reshape(-1, n_params))
        energies = energies.reshape(len(thetas), n_params, 2)
        return 0.5 * (energies[..., 0] - energies[..., 1])

    return grad_batch


class ExactBackend:
    """Analytic expectation values straight off the statevector."""

    def make_objective(self, decomp: SpectralDecomposition, ansatz: Ansatz):
        """(f, f_batch): Re<ψ|H|ψ> of every row of the ansatz's batched
        kernel, H the dense matrix of the decomposition."""
        _check_qubits(decomp, ansatz)
        dense = decomp.matrix

        def f_batch(thetas):
            psi = ansatz.prepare_batch(thetas)
            # A stacked matvec per row, not one (N, dim) @ (dim, dim) product:
            # BLAS rounds the latter differently for N = 1, and a restart
            # must not depend on how many others share its batch.
            hpsi = np.matmul(dense, psi[..., None])[..., 0]
            return np.real(np.einsum("bi,bi->b", psi.conj(), hpsi))

        return _with_scalar(f_batch)

    def make_gradient(self, decomp: SpectralDecomposition, ansatz: Ansatz):
        """(grad_batch, 1): the ansatz's adjoint-sweep gradient of every row,
        each row counted as one energy evaluation."""
        _check_qubits(decomp, ansatz)
        if ansatz.gradient_batch is None:
            raise ValueError(f"ansatz {ansatz.name!r} has no analytic gradient")
        dense = decomp.matrix

        def grad_batch(thetas):
            return ansatz.gradient_batch(thetas, dense)

        return grad_batch, 1

    def pauli_expectations(self, state: np.ndarray) -> dict[str, float]:
        return qsim.exact_pauli_expectations(state)


class ShotsBackend:
    """Measurement-sampled expectation values with optional readout noise.

    Every Pauli word is measured in its own circuit execution with the full
    shot budget.  When mitigation is on, transition rates are estimated from
    ``RATE_TRIALS`` readouts of prepared basis states; with a drifting noise
    model they are re-estimated before every energy evaluation, otherwise
    once and cached.  Each energy evaluation, one row of an objective batch,
    is measured under the law ``noise.at(trial)`` and advances the trial
    counter that drives the drift.
    """

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

    def _measure_words(
        self,
        words: list[str],
        state: np.ndarray,
        n_qubits: int,
    ) -> dict[str, float]:
        trial = self.trial
        self.trial += 1
        law = None if self.noise is None else self.noise.at(trial)
        # A drifting model's law differs at every trial, so its rates are
        # re-estimated each evaluation; a static law's rates are estimated once.
        if self.mitigate and (self._rates is None or law is not self.noise):
            rng = spawn_rng(self.seed, _STREAM_RATES, trial)
            self._rates = sampler.estimate_transition_rates(law, n_qubits, RATE_TRIALS, rng)
        rates = self._rates if self.mitigate else None
        # <I...I> = 1 needs no shots; the other words keep their stream index.
        identity = "I" * n_qubits
        out = {}
        for wi, word in enumerate(words):
            if word == identity:
                out[word] = 1.0
                continue
            rng = spawn_rng(self.seed, _STREAM_WORDS, trial, wi)
            out[word] = sampler.sampled_expectation(
                state, word, self.shots, law, rng, mitigation=rates,
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

    def make_gradient(self, decomp: SpectralDecomposition, ansatz: Ansatz):
        """(grad_batch, 2·n_params): parameter-shift gradients through the
        objective batch, every shifted row one measured energy evaluation."""
        _, f_batch = self.make_objective(decomp, ansatz)
        return _parameter_shift(f_batch, ansatz.n_params), 2 * ansatz.n_params

    def pauli_expectations(self, state: np.ndarray) -> dict[str, float]:
        n_qubits = qsim.num_qubits(state)
        return self._measure_words(pauli_words(n_qubits), state, n_qubits)


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
    shot backend).  ``evaluations`` counts every energy row evaluated: line
    searches, gradients at their per-row cost, and that final evaluation.
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

    Runs ``restarts`` optimisations from uniform random angles (BFGS: all
    in lock step; COBYLA: one after another) and keeps the lowest energy,
    ties broken by fewest evaluations, then by restart order.
    """
    restarts = config.restarts if config.restarts is not None else _default_restarts(ansatz)
    seed = config.seed if config.seed is not None else 0

    f, f_batch = backend.make_objective(decomp, ansatz)
    x0 = np.array([ansatz.random_parameters(spawn_rng(seed, _STREAM_RESTART, r))
                   for r in range(restarts)])
    if config.method == "cobyla":
        results = [optimize_direct(f, x, config) for x in x0]
    else:
        grad_batch, grad_evaluations = backend.make_gradient(decomp, ansatz)
        results = optimize_quasinewton(f_batch, grad_batch, x0, config, grad_evaluations)
    best = min(results, key=lambda res: (res.fun, res.evaluations))
    energy = f(best.x)
    return VQEResult(
        energy=float(energy),
        theta=np.asarray(best.x, dtype=float),
        evaluations=sum(res.evaluations for res in results) + 1,
        converged=best.converged,
        restarts=tuple(RestartTrace(res.fun, res.evaluations, res.iterations,
                                    res.converged) for res in results),
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
    minimisation finds the following eigenvalue.  Each level's state is
    prepared once and serves both its residual and its deflation (the
    backend's Pauli expectations of it).  A level converging near
    zero on the shifted axis raises ZeroCaptureError.  ``shift`` overrides
    the automatic bound (diagnostics only).
    """
    dim = 2**decomp.n_qubits
    if not 1 <= levels <= dim:
        raise ValueError(f"levels must be in [1, {dim}]")
    if shift is None:
        shift = gershgorin_upper_bound(decomp.matrix) + 1.0
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
        residuals.append(float(np.linalg.norm(work.matrix @ psi - res.energy * psi)))
        results.append(res)
        if level + 1 < levels:
            work = deflate(work, res.energy, backend.pauli_expectations(psi))
    energies = np.sort([r.energy + shift for r in results])
    return SpectrumResult(energies, tuple(results), tuple(residuals), float(shift))
