"""Variational driver: the lock-step BFGS optimiser, ground-state search,
parameter surface scans, and full-spectrum extraction via identity shift
plus iterative deflation.

Two backends evaluate the energy objective sum_w c_w <σ_w> and its
gradient: an exact statevector backend (adjoint-sweep gradients) and a
shot-sampling backend with optional readout noise and mitigation
(parameter-shift gradients).  The optimiser never sees which one it is
driving.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import qsim, sampler
from .pauli import (
    SpectralDecomposition,
    deflate,
    gershgorin_upper_bound,
    is_int,
    is_real,
    pauli_words,
    rowwise,
    shift_identity,
)
from .qsim import MEAN_FIELD, Ansatz
from .seeding import StreamFamily, spawn_rng, spawn_seed

# Sub-stream roles in the seed fan-out (master, role, ...).
_STREAM_RESTART = 0
_STREAM_WORDS = 1
_STREAM_RATES = 2
_STREAM_LEVEL = 3

# A converged level this close to zero (on the shifted axis, where genuine
# eigenvalues sit at or below -1) means the optimiser captured an already
# deflated state instead of a remaining eigenvalue.
ZERO_CAPTURE_TOL = 0.5

# An exact level whose eigenpair residual ||(H_l - E)ψ|| exceeds this (eV)
# is solved once more (see `full_spectrum`): a residual r puts an eigenvalue
# of H_l within r of E (Weinstein; Kato 1949).  At 1 restart on the
# three-qubit sweep sets, the two missed levels had residuals 0.07 and 0.2,
# and all but 3 of the 23,278 correct ones (median 1.1e-6) were below 1e-2.
RESIDUAL_TOL = 1e-2


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the lock-step BFGS optimiser (`optimize_quasinewton`).

    When None, ``max_iter`` and ``restarts`` default per ansatz and backend
    (see ``_with_defaults``).  The seed of the restarts is no setting: it is
    an argument of `minimize` and `full_spectrum`.
    """

    max_iter: int | None = None
    tol_ev: float = 1e-6
    restarts: int | None = None

    def __post_init__(self):
        tol = self.tol_ev
        if not (is_real(tol) and tol > 0):
            raise ValueError(f"tol_ev must be a positive finite real, got {tol!r}")
        for name in ("max_iter", "restarts"):
            value = getattr(self, name)
            if value is not None and not (is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


# Why a restart stopped: BFGS's gradient and noise tests, a line search
# failed from the identity, or the iteration cap.
STOPS = ("gradient", "noise", "precision", "max_iter")


@dataclass(frozen=True)
class OptimizeResult:
    """One restart's end point, its energy, what reaching it cost and why it
    stopped (one of ``STOPS``)."""

    x: np.ndarray
    energy: float
    evaluations: int
    iterations: int
    converged: bool
    stop: str


# Armijo sufficient-decrease constant and the halvings a line search may
# take before it counts as failed.
_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 8
# Curvature pairs with y.s at or below this fraction of |y||s| are not used
# for an update: the cut is scale-free, so a flat valley's small but
# well-measured curvature still updates H.
_MIN_CURVATURE = 1e-8


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(rows, axis=1)`` of a real (R, d) array, bit for bit,
    without its dispatch."""
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def optimize_quasinewton(
    objective_batch: Callable[[np.ndarray], np.ndarray],
    gradient_batch: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    config: OptimizerConfig,
    gradient_evaluations: int = 1,
    energy_noise: float = 0.0,
) -> list[OptimizeResult]:
    """BFGS from every row of the (R, d) ``x0`` at once, in lock step.

    Each row keeps its own point, energy, gradient and (d, d) inverse
    Hessian; the rows only share the calls: each backtracking round is one
    ``objective_batch`` call on the rows still searching, and each
    iteration's new gradients are one ``gradient_batch`` call on the rows
    that moved.  A row's path is the one it would take alone.  Per-row
    scalars (energy, slope, step, flags, counters) are Python numbers;
    numpy holds the points, gradients and inverse Hessians, so a round in
    which every row accepts its first trial gathers no rows.

    Line search: Armijo backtracking (Nocedal & Wright, Alg. 3.1) along
    -H g, halving up to 8 times; the first trial step is 1, or min(1, 1/|g|)
    while H is the identity.  The first accepted step from the identity
    scales H by y.s / y.y (N&W eq. 6.20) before its BFGS update; a pair
    with y.s <= 1e-8 |y| |s| leaves H unchanged.  A failed line search
    resets H to the identity and retries along -g.  A failure that starts
    from the identity is terminal "precision loss": the step fell below
    the resolution of the objective (round-off or shot noise), and the row
    counts as converged.  A row also converges when max|g| <= ``tol_ev``;
    hitting ``max_iter`` accepted steps returns it unconverged.

    ``energy_noise`` > 0 bounds the standard deviation of one energy row
    (σ̄_E) and adds two rules (cf. iCANS, arXiv:1909.09083): a row converges
    ("noise") once max|g| <= 2 σ̄_E/√2, twice the bound on a parameter-shift
    component's noise; and a line search takes no halving whose trial's
    predicted decrease step·|slope| is below σ̄_E/4, so it fails as above.

    ``evaluations`` counts energy rows: one per line-search trial and
    ``gradient_evaluations`` per gradient row.
    """
    X = np.array(x0, dtype=float, ndmin=2)
    R, d = X.shape
    max_iter = config.max_iter if config.max_iter is not None else 200
    F = np.asarray(objective_batch(X), dtype=float).tolist()
    G = np.asarray(gradient_batch(X), dtype=float)
    eye = np.eye(d)
    tol = config.tol_ev
    gtol = float(max(tol, 2 * energy_noise / np.sqrt(2)))
    floor = energy_noise / 4

    def gradient_stop(gmax):  # "max_iter" while above gtol
        return "gradient" if gmax <= tol else "noise" if gmax <= gtol else "max_iter"

    why = [gradient_stop(v) for v in np.max(np.abs(G), axis=1).tolist()]
    nit, lost, halvings = [0] * R, [0] * R, [0] * R
    # The rows still searching (their indices a) keep their point, gradient
    # and inverse Hessian in compact arrays, and in lists their energy and
    # whether H is the identity (start, or after a reset).  Every row takes
    # one trial per round, so after k rounds row i has made k - lost[i]
    # iterations (lost: failed searches).  A row writes its end state back
    # to X, F, nit and why when it stops.
    a = [r for r in range(R) if why[r] == "max_iter"]
    x, g, f = X[a], G[a], [F[r] for r in a]
    Hinv = np.tile(eye, (len(a), 1, 1))
    identity = [True] * len(a)
    k = 0
    while a:
        n = len(a)
        k += 1
        p = -np.einsum("rij,rj->ri", Hinv, g)
        slope = np.einsum("ri,ri->r", g, p).tolist()
        uphill = [r for r in range(n) if slope[r] >= 0]
        if uphill:  # H lost positive definiteness to round-off
            Hinv[uphill] = eye
            p[uphill] = -g[uphill]
            for r, gg in zip(uphill, np.einsum("ri,ri->r", g[uphill], g[uphill]).tolist()):
                slope[r], identity[r] = -gg, True
        step = [1.0] * n
        if True in identity:
            fresh = [r for r in range(n) if identity[r]]
            for r, st in zip(fresh, np.minimum(1.0, 1.0 / _row_norms(g[fresh])).tolist()):
                step[r] = st
        sk = np.array(step)[:, None] * p
        trial = x + sk
        f_new = np.asarray(objective_batch(trial), dtype=float).tolist()
        accepted = [fn <= fr + _ARMIJO_C1 * st * sl
                    for fn, fr, st, sl in zip(f_new, f, step, slope)]
        ends = {}  # position: stop, for the rows that stop this round
        moved, sel = range(n), slice(None)  # every row, without a gather
        if False in accepted:  # backtrack the rows whose first trial failed
            back = [r for r in range(n) if not accepted[r]]
            for _ in range(_MAX_HALVINGS):
                s = back
                if energy_noise:  # no trial whose decrease is lost in the noise
                    s = [r for r in back if 0.5 * step[r] * -slope[r] >= floor]
                    if not s:
                        break
                for r in s:
                    step[r] *= 0.5
                    halvings[a[r]] += 1
                sk[s] = np.array([step[r] for r in s])[:, None] * p[s]
                trial[s] = x[s] + sk[s]
                for r, fn in zip(s, np.asarray(objective_batch(trial[s]), dtype=float).tolist()):
                    f_new[r] = fn
                    accepted[r] = fn <= f[r] + _ARMIJO_C1 * step[r] * slope[r]
                back = [r for r in back if not accepted[r]]
                if not back:
                    break
            if back:  # failed searches: the row stays and H is reset
                Hinv[back] = eye
                trial[back] = x[back]
                for r in back:
                    f_new[r] = f[r]
                    lost[a[r]] += 1
                    if identity[r]:
                        ends[r] = "precision"
                    identity[r] = True
                moved = sel = [r for r in range(n) if accepted[r]]
        x, f = trial, f_new

        if moved:
            G_new = np.asarray(gradient_batch(x[sel]), dtype=float)
            yk = G_new - g[sel]
            g[sel] = G_new
            sk = sk[sel]
            for r, gmax in zip(moved, np.maximum.reduce(np.abs(G_new), axis=1).tolist()):
                if gmax <= gtol or k - lost[a[r]] >= max_iter:
                    ends[r] = gradient_stop(gmax)
            ys = np.einsum("ri,ri->r", yk, sk)
            cut = (_MIN_CURVATURE * _row_norms(yk) * _row_norms(sk)).tolist()
            upd = [i for i, (v, c) in enumerate(zip(ys.tolist(), cut)) if v > c]
            u = sel
            if len(upd) < len(moved):
                u = [moved[i] for i in upd]
                sk, yk, ys = sk[upd], yk[upd], ys[upd]
            Hu = Hinv[u]
            if True in identity:
                rows = moved if u is sel else u
                first = [i for i, r in enumerate(rows) if identity[r]]
                Hu[first] *= (ys[first] / np.einsum("ri,ri->r", yk[first], yk[first])
                              )[:, None, None]
                for r in rows:
                    identity[r] = False
            rho = 1.0 / ys
            Hy = np.einsum("rij,rj->ri", Hu, yk)
            yHy = np.einsum("ri,ri->r", yk, Hy)
            sHy = sk[:, :, None] * Hy[:, None, :]
            Hinv[u] = Hu + (-rho[:, None, None] * (sHy + sHy.transpose(0, 2, 1))
                            + (rho * (1.0 + rho * yHy))[:, None, None]
                            * sk[:, :, None] * sk[:, None, :])
        if ends:
            done = list(ends)
            X[[a[r] for r in done]] = x[done]
            for r, stop in ends.items():
                F[a[r]], nit[a[r]], why[a[r]] = f[r], k - lost[a[r]], stop
            keep = [r for r in range(n) if r not in ends]
            a, f, identity = ([v[r] for r in keep] for v in (a, f, identity))
            x, g, Hinv = x[keep], g[keep], Hinv[keep]
    # Evaluations: the start, one per round and halving, a gradient per iteration.
    nfev = [(1 + gradient_evaluations) * (1 + i) + lost[r] + halvings[r]
            for r, i in enumerate(nit)]
    return [OptimizeResult(X[r].copy(), F[r], nfev[r], nit[r], why[r] != "max_iter", why[r])
            for r in range(R)]


def optimize_direct(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    config: OptimizerConfig,
) -> OptimizeResult:
    """COBYLA direct search; its stop, "cobyla", is outside ``STOPS``.  Nothing
    calls it: it stays only because `bench/layers.py` wraps this name, and
    goes with scipy when the benchmark stops patching functions by name."""
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
    return OptimizeResult(res.x, float(res.fun), nfev, nfev, bool(res.success), "cobyla")


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
            return np.einsum("bi,bi->b", psi.conj(), rowwise(dense, psi)).real

        return _with_scalar(f_batch)

    def make_gradient(self, decomp: SpectralDecomposition, ansatz: Ansatz):
        """(grad_batch, 1): the ansatz's adjoint-sweep gradient of every row,
        each row counted as one energy evaluation."""
        _check_qubits(decomp, ansatz)
        dense = decomp.matrix

        def grad_batch(thetas):
            return ansatz.gradient_batch(thetas, dense)

        return grad_batch, 1

    def energy_noise(self, decomp: SpectralDecomposition) -> float:
        """An exact energy carries no noise."""
        return 0.0

    def pauli_expectations(self, state: np.ndarray) -> np.ndarray:
        """Every word's expectation at ``state``, (4**n,) in pauli_words order."""
        return qsim.exact_pauli_expectations(state)


class ShotsBackend:
    """Measurement-sampled expectation values with optional readout noise.

    Every Pauli word is measured in its own circuit execution with the full
    shot budget.  Each energy evaluation, one row of an objective batch,
    advances the trial counter that drives the drift and is measured under
    the law at its trial t.  Mitigation corrects it with transition rates
    estimated from ``RATE_TRIALS`` readouts of prepared basis states under
    that law, from stream (seed, _STREAM_RATES, t); a static law's
    confusion matrix and rates (t = 0) are built once.  A batch is one
    `sampler.sampled_expectation` call over all its rows and words, under
    one law or one per row; the row at trial t draws every word, in word
    order, from stream t of the backend's word-stream family
    ``seeding.StreamFamily(seed, _STREAM_WORDS)``, built once with the
    backend and re-keyed per row.  So every row gets the value it would get
    evaluated alone: its draws depend only on (seed, t), not on the batch
    around it.
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
        self._drifts = noise is not None and bool(noise.drift_amplitude)
        self._static_laws = None  # a static law's _row_laws, once built
        self._word_streams = StreamFamily(seed, _STREAM_WORDS)

    def _row_laws(self, first: int, rows: int, n_qubits: int):
        """(confusion, parity table) stacks of the rows at trials first, ...:
        one law per row if the noise drifts, else one (None: no noise, no
        mitigation).  All rows' rates come from one estimate call."""
        if self._static_laws is not None:
            return self._static_laws
        trials = np.arange(first, first + rows) if self._drifts else np.zeros(1, dtype=int)
        confusion = None if self.noise is None else sampler.confusion(self.noise.laws(trials))
        table = None
        if self.mitigate:
            rates = sampler.estimate_transition_rates(
                confusion, n_qubits, RATE_TRIALS,
                lambda b: spawn_rng(self.seed, _STREAM_RATES, trials[b]))
            table = sampler.parity_table(rates)
        if not self._drifts:
            self._static_laws = confusion, table
        return confusion, table

    def energy_noise(self, decomp: SpectralDecomposition) -> float:
        """σ̄_E, a bound on the standard deviation of one energy evaluation of
        ``decomp`` at any state: sqrt(Σ_w c_w² v_w / shots) over the measured
        words (drawn independently), v_w = max_z W_w(z)² of the word's parity
        weights, which bounds shots × Var(W_w·counts/shots); clipping only
        shrinks it.  The weights are those of the next trial's rates: a static
        law's one estimate, or a drifting law's estimate at that trial."""
        words = tuple(w for w in decomp.coeffs if w.strip("I"))
        if not words:
            return 0.0
        _, table = self._row_laws(self.trial, 1, decomp.n_qubits)
        weights = sampler.parity_weights(sampler.basis_change(words).diagonal, table)
        c2 = np.array([decomp.coeffs[w] for w in words]) ** 2
        return float(np.sqrt(c2 @ np.max(weights**2, axis=1) / self.shots))

    def _measure_words(
        self,
        words: tuple[str, ...],
        states: np.ndarray,
        n_qubits: int,
    ) -> np.ndarray:
        """(B, len(words)) estimates of every word on every row of a (B, 2**n)
        stack; the rows are the energy evaluations at the next B trials."""
        first = self.trial
        self.trial += len(states)
        confusion, table = self._row_laws(first, len(states), n_qubits)
        return sampler.sampled_expectation(
            states, words, self.shots, confusion,
            lambda b: self._word_streams.stream(first + b), mitigation=table)

    def make_objective(self, decomp: SpectralDecomposition, ansatz: Ansatz):
        """(f, f_batch): sum_w c_w <σ_w> of every row of the ansatz's batched
        kernel, each row one energy evaluation."""
        _check_qubits(decomp, ansatz)
        words = tuple(decomp.coeffs)
        coeffs = list(decomp.coeffs.values())

        def f_batch(thetas):
            measured = self._measure_words(words, ansatz.prepare_batch(thetas),
                                           decomp.n_qubits)
            # Word by word, in order: each row sums as it would alone.
            return sum((c * measured[:, wi] for wi, c in enumerate(coeffs)),
                       np.zeros(len(measured)))

        return _with_scalar(f_batch)

    def make_gradient(self, decomp: SpectralDecomposition, ansatz: Ansatz):
        """(grad_batch, 2·n_params): parameter-shift gradients through the
        objective batch, every shifted row one measured energy evaluation."""
        _, f_batch = self.make_objective(decomp, ansatz)
        return _parameter_shift(f_batch, ansatz.n_params), 2 * ansatz.n_params

    def pauli_expectations(self, state: np.ndarray) -> np.ndarray:
        """One evaluation's estimates of every word, (4**n,) in pauli_words order."""
        n_qubits = qsim.num_qubits(state)
        return self._measure_words(pauli_words(n_qubits), state[None], n_qubits)[0]


Backend = ExactBackend | ShotsBackend


# ---------------------------------------------------------------------------
# Driver


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
    restarts: tuple[OptimizeResult, ...] = field(default_factory=tuple)


def _with_defaults(config: OptimizerConfig, ansatz: Ansatz, backend: Backend
                   ) -> OptimizerConfig:
    """``config`` with unset ``restarts`` and ``max_iter`` filled in.

    BFGS restart counts come from the sweeps of ``scripts/restart_sweep.py``,
    which runs the `bands` command at each set's master seeds: the smallest
    count with no missed and no unconverged level, and at one restart also
    no restart stopped at the iteration cap.
    - Three-qubit circuit, exact backend: 1 restart of up to 1000
      iterations, with `full_spectrum`'s residual retry (the 41-point X,G,L
      path at 10 CLI seeds, L and Γ at 1200, 100 random 8x8 spectra; no
      level missed and no restart stopped at the cap).
    - Mean-field circuit, exact backend: 2 (the X,G,L:20 path at 100 CLI
      seeds and X,G,L:5 at 1000, where 1 restart left a level unconverged
      at the cap, a restart stalled at a pole, and 2 absorbed every stall).
    - Mean-field circuit, shots backend: 3 (the benchmark's 2-band shots
      command at 4000 seeds: 2 restarts failed 4 runs, where both restarts
      stopped at the noise floor next to a pole or short of the level; and
      that command on `X,X:1`, the X point twice, at 10,000 seeds, where no
      k-point failed at 2 or 3).
    Unswept: 20 restarts for the three-qubit circuit on the shots backend,
    and BFGS's own cap of 200 iterations.
    """
    if isinstance(backend, ExactBackend):
        restarts, max_iter = (2, None) if ansatz.n_params == 2 else (1, 1000)
    else:
        restarts, max_iter = (3 if ansatz.n_params == 2 else 20), None
    return replace(
        config,
        restarts=config.restarts if config.restarts is not None else restarts,
        max_iter=config.max_iter if config.max_iter is not None else max_iter,
    )


def minimize(
    decomp: SpectralDecomposition,
    ansatz: Ansatz,
    backend: Backend,
    config: OptimizerConfig = OptimizerConfig(),
    seed: int = 0,
) -> VQEResult:
    """Minimise the reconstructed <H> over the ansatz parameters.

    Runs ``restarts`` BFGS optimisations (unset: see ``_with_defaults``),
    all in lock step, from uniform random angles, restart r's drawn from
    ``spawn_rng(seed, _STREAM_RESTART, r)``, and keeps the lowest energy,
    ties broken by fewest evaluations, then by restart order.  A result
    whose energy is not finite is never converged.
    """
    config = _with_defaults(config, ansatz, backend)
    f, f_batch = backend.make_objective(decomp, ansatz)
    x0 = np.array([ansatz.random_parameters(spawn_rng(seed, _STREAM_RESTART, r))
                   for r in range(config.restarts)])
    grad_batch, grad_evaluations = backend.make_gradient(decomp, ansatz)
    results = optimize_quasinewton(f_batch, grad_batch, x0, config, grad_evaluations,
                                   energy_noise=backend.energy_noise(decomp))
    best = min(results, key=lambda res: (res.energy, res.evaluations))
    energy = f(best.x)
    return VQEResult(
        energy=float(energy),
        theta=np.asarray(best.x, dtype=float),
        evaluations=sum(res.evaluations for res in results) + 1,
        converged=best.converged and bool(np.isfinite(energy)),
        restarts=tuple(results),
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

    ``levels`` and ``residuals`` are in the order found.  The residual of a
    level is the eigenpair defect ||(H_level - ε)ψ|| of its converged state
    against the (shifted, deflated) operator it minimised.

    ``failure`` is None when every requested level was found.  Otherwise it
    says why the extraction stopped, ``levels`` holds the levels found
    before that, and ``rejected`` the failed level's captured minimisation
    (empty when the level has none, as for an ill-posed rate estimate).
    """

    levels: tuple[VQEResult, ...]
    residuals: tuple[float, ...]
    shift: float
    failure: str | None
    rejected: tuple[VQEResult, ...]

    @property
    def energies(self) -> np.ndarray:
        """The levels' energies, ascending, with the identity shift removed."""
        return np.sort([lv.energy + self.shift for lv in self.levels])

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
    seed: int = 0,
) -> SpectrumResult:
    """Extract ``levels`` eigenvalues by repeated minimise-and-deflate.

    The identity coefficient is first shifted down by the Gershgorin upper
    bound plus 1 eV so that every eigenvalue is negative; each converged
    state is then projected to zero via the coefficient update and the next
    minimisation finds the following eigenvalue.  Each level's state is
    prepared once per attempt and serves both its residual and its
    deflation (the backend's Pauli expectations of it).

    Level l (from 0) is minimised at the seed
    ``spawn_seed(seed, _STREAM_LEVEL, l)``, and solved once more from fresh
    restarts, at ``spawn_seed(seed, _STREAM_LEVEL, l, 1)``, when it
    converges near zero on the shifted axis (it captured a deflated state)
    or, on the exact backend, when it stops unconverged or its residual
    exceeds ``RESIDUAL_TOL``.  The retry replaces the first attempt and
    keeps the cost and restarts of both; there is at most one per level.
    An exact level whose retry still exceeds ``RESIDUAL_TOL`` is kept
    unconverged, so on the exact backend a converged level has an
    eigenvalue of its operator within ``RESIDUAL_TOL`` of its energy.
    ``shift`` overrides the automatic bound (diagnostics only).

    A failed level ends the extraction but raises nothing: the result then
    holds the levels found before it and sets ``failure`` (see
    `SpectrumResult`).  A level fails when its retry converges near zero
    too (``rejected`` holds that retry) or when a rate estimate turns out
    ill-posed while it is solved or deflated (`IllPosedMitigationError`).
    """
    dim = 2**decomp.n_qubits
    if not 1 <= levels <= dim:
        raise ValueError(f"levels must be in [1, {dim}]")
    if shift is None:
        shift = gershgorin_upper_bound(decomp.matrix) + 1.0
    work = shift_identity(decomp, shift)
    exact = isinstance(backend, ExactBackend)
    results = []
    residuals = []

    def solve(*path):
        res = minimize(work, ansatz, backend, config, spawn_seed(seed, _STREAM_LEVEL, *path))
        psi = ansatz.prepare(res.theta)
        return res, psi, float(np.linalg.norm(work.matrix @ psi - res.energy * psi))

    failure, rejected = None, ()
    try:
        for level in range(levels):
            res, psi, residual = solve(level)
            # A capture typically starts every restart on the flat cap around
            # the deflated state, where noise or round-off ends the search.
            captured = res.energy > -ZERO_CAPTURE_TOL
            if captured or exact and not (res.converged and residual <= RESIDUAL_TOL):
                first = res
                res, psi, residual = solve(level, 1)
                res = replace(res, evaluations=first.evaluations + res.evaluations,
                              restarts=first.restarts + res.restarts)
            if res.energy > -ZERO_CAPTURE_TOL:
                failure = (f"deflation level {level + 1} converged to {res.energy:.6g} on the "
                           "shifted axis, closer to the deflated zero than to any remaining "
                           "eigenvalue")
                rejected = (res,)
                break
            if exact and residual > RESIDUAL_TOL:
                res = replace(res, converged=False)
            residuals.append(residual)
            results.append(res)
            if level + 1 < levels:
                work = deflate(work, res.energy, backend.pauli_expectations(psi))
    except sampler.IllPosedMitigationError as exc:
        failure = str(exc)
    return SpectrumResult(tuple(results), tuple(residuals), float(shift), failure, rejected)
