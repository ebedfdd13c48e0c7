"""Spans around the public functions of each `qbands` module, and the
per-layer metrics derived from them.

Every wrapper is installed where its callers look the function up: at each
module-level binding (`from m import f` copies included), on the backend
classes for the objective callables that `make_objective` returns, and on
the `Ansatz` returned by `ansatz_for` for its `prepare`/`prepare_batch`.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np

from qbands import cli, pauli, qsim, sampler, seeding, tightbinding, vqe
from spans import Patches, Tracer

# (span name, module, function) wrapped at every binding site.
FUNCTIONS = [
    ("tightbinding.build", tightbinding, "build_s_block"),
    ("tightbinding.build", tightbinding, "build_full_hamiltonian"),
    ("tightbinding.diagonalize", tightbinding, "diagonalize_classical"),
    ("pauli.decompose", pauli, "decompose"),
    ("pauli.reconstruct", pauli, "reconstruct"),
    ("pauli.deflate", pauli, "deflate"),
    ("seeding.spawn_rng", seeding, "spawn_rng"),
    ("vqe.full_spectrum", vqe, "full_spectrum"),
    ("vqe.optimizer", vqe, "optimize_quasinewton"),
    ("vqe.optimizer", vqe, "optimize_direct"),
    ("qsim.pauli_expectations", qsim, "exact_pauli_expectations"),
    ("qsim.apply_circuit", qsim, "apply_circuit"),
    ("sampler.sampled_expectation", sampler, "sampled_expectation"),
    ("sampler.basis_change", sampler, "basis_change"),
    ("sampler.mitigate_counts", sampler, "mitigate_counts"),
    ("sampler.expectation_from_counts", sampler, "expectation_from_counts"),
    ("sampler.estimate_transition_rates", sampler, "estimate_transition_rates"),
]

SAMPLER_SPANS = (
    "sampler.sampled_expectation", "sampler.basis_change", "sampler.sample",
    "sampler.mitigate_counts", "sampler.expectation_from_counts",
    "sampler.estimate_transition_rates",
)

# Spans each workload must record (self-test).  The sampler spans must be
# absent on the exact workloads.  No workload measures unmitigated shots, so
# expectation_from_counts is never required.
_ALWAYS = (
    "tightbinding.build", "tightbinding.diagonalize", "pauli.decompose",
    "pauli.reconstruct", "pauli.deflate", "seeding.spawn_rng", "vqe.full_spectrum",
    "vqe.minimize", "vqe.optimizer", "vqe.objective", "qsim.prepare",
    "qsim.apply_circuit",
)
_EXACT = ("qsim.prepare_batch", "vqe.objective_batch", "qsim.pauli_expectations")
_SHOTS = ("sampler.sampled_expectation", "sampler.basis_change", "sampler.sample",
          "sampler.mitigate_counts", "sampler.estimate_transition_rates")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_eval"):
        return metric.rsplit(".", 1)[1].split("_per_")[0] + "/eval"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_ev"):
        return "eV"
    return "count"


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _rows(args, kwargs):
    return len(args[0])


def _shots(args, kwargs):
    return int(kwargs["shots"] if "shots" in kwargs else args[1])


class LayerTrace:
    """Installs the spans, and turns them into per-layer metrics."""

    def __init__(self):
        self.tracer = Tracer()
        self.levels: list[vqe.VQEResult] = []
        self._patches = Patches()
        self._sites: dict[str, int] = {}
        self._install_problems: list[str] = []

    def install(self) -> None:
        """Wrap every function at each of its binding sites.

        A function the program no longer has, or has at no module-level
        binding, is a self-test problem: its layer would otherwise read 0.
        """
        t, p = self.tracer, self._patches
        # (span name, module, function, original -> replacement)
        functions = [(name, module, attr, functools.partial(t.wrap, name))
                     for name, module, attr in FUNCTIONS] + [
            ("sampler.sample", sampler, "sample",
             lambda f: t.wrap("sampler.sample", f, work=_shots)),
            ("vqe.minimize", vqe, "minimize",
             lambda f: t.wrap("vqe.minimize", f, on_result=self.levels.append)),
            ("qsim.prepare", qsim, "ansatz_for", self._traced_ansatz_for),
        ]
        for name, module, attr, make_replacement in functions:
            original = getattr(module, attr, None)
            if original is None:
                self._install_problems.append(f"{module.__name__}.{attr}: missing")
                continue
            sites = p.everywhere("qbands", original, make_replacement(original))
            if not sites:
                self._install_problems.append(f"{module.__name__}.{attr}: no binding site")
            self._count_sites(name, sites)

        backends = (vqe.ExactBackend, vqe.ShotsBackend)
        for backend in backends:
            p.set(backend, "make_objective", self._traced_make_objective(backend.make_objective))
        self._sites["vqe.objective"] = len(backends)

    @property
    def sites(self) -> dict[str, int]:
        """Binding sites wrapped, per span name."""
        return dict(self._sites)

    def _traced_ansatz_for(self, original_ansatz_for):
        t = self.tracer

        def ansatz_for(n_qubits):
            a = original_ansatz_for(n_qubits)
            return dataclasses.replace(
                a,
                prepare=t.wrap("qsim.prepare", a.prepare),
                prepare_batch=t.wrap("qsim.prepare_batch", a.prepare_batch, work=_rows),
            )

        return ansatz_for

    def _traced_make_objective(self, make_objective):
        t = self.tracer

        def traced(backend, decomp, ansatz):
            f, f_batch = make_objective(backend, decomp, ansatz)
            f = t.wrap("vqe.objective", f)
            if f_batch is not None:
                f_batch = t.wrap("vqe.objective_batch", f_batch, work=_rows)
            return f, f_batch

        return traced

    def _count_sites(self, name: str, sites: int) -> None:
        self._sites[name] = self._sites.get(name, 0) + sites

    def restore(self) -> None:
        self._patches.restore()

    def run_main(self, argv: list[str]) -> None:
        """`qbands.cli.main` with every span installed."""
        main = self.tracer.wrap("cli", cli.main)
        try:
            self.install()
            main(argv)
        finally:
            self.restore()

    def metrics(self, workload, untraced_wall_s: float, traced_wall_s: float,
                max_abs_err_ev: float) -> dict[str, float]:
        t = self.tracer
        s = t.summary()

        def get(name, key):
            return s.get(name, {}).get(key, 0)

        m: dict[str, float] = {}
        for name, keys in (
            ("qsim.prepare", ("calls", "self_s")),
            ("qsim.prepare_batch", ("calls", "rows", "self_s")),
            ("qsim.pauli_expectations", ("self_s",)),
            ("qsim.apply_circuit", ("calls", "self_s")),
            ("vqe.minimize", ("calls", "self_s")),
            ("vqe.optimizer", ("self_s",)),
            ("vqe.objective", ("calls", "self_s")),
            ("vqe.objective_batch", ("calls", "rows", "self_s")),
            ("sampler.sampled_expectation", ("calls", "self_s")),
            ("sampler.basis_change", ("self_s",)),
            ("sampler.sample", ("calls", "shots", "self_s")),
            ("sampler.mitigate_counts", ("calls", "self_s")),
            ("sampler.expectation_from_counts", ("self_s",)),
            ("sampler.estimate_transition_rates", ("calls", "self_s")),
            ("seeding.spawn_rng", ("calls", "self_s")),
            ("pauli.decompose", ("self_s",)),
            ("pauli.reconstruct", ("calls", "self_s")),
            ("pauli.deflate", ("calls", "self_s")),
            ("tightbinding.build", ("calls", "self_s")),
            ("tightbinding.diagonalize", ("self_s",)),
        ):
            for key in keys:
                m[f"{name}.{key}"] = get(name, "work" if key in ("rows", "shots") else key)

        kpoint = t.durations("vqe.full_spectrum") or [0.0]
        m["vqe.kpoint_p50_s"] = float(np.percentile(kpoint, 50))
        m["vqe.kpoint_p90_s"] = float(np.percentile(kpoint, 90))
        restarts = [r for level in self.levels for r in level.restarts]
        useful = sum(
            abs(r.energy - min(x.energy for x in level.restarts)) <= workload.restart_tol_ev
            for level in self.levels for r in level.restarts
        )
        m["vqe.evaluations"] = sum(level.evaluations for level in self.levels)
        m["vqe.iterations"] = sum(r.iterations for r in restarts)
        m["vqe.restarts"] = len(restarts)
        m["vqe.restart_useful_frac"] = _ratio(useful, len(restarts))
        m["vqe.converged_frac"] = _ratio(sum(lv.converged for lv in self.levels),
                                         len(self.levels))
        m["vqe.max_abs_err_ev"] = max_abs_err_ev

        # Settings and shots measured inside an objective evaluation, per
        # objective evaluation; deflation and rate estimation are excluded.
        # A k-point's first minimize is its undeflated level.
        first_levels, kpoints_seen = set(), set()
        for i, n in enumerate(t.names):
            if n == "vqe.minimize" and t.parents[i] not in kpoints_seen:
                kpoints_seen.add(t.parents[i])
                first_levels.add(i)
        objectives = [i for i, n in enumerate(t.names) if n == "vqe.objective"]
        deflated = {i for i in objectives if t.ancestor(i, "vqe.minimize") not in first_levels}
        samples = {}  # objective span -> shots of each sample call inside it
        for i in self._word_samples("sampler.sample"):
            samples.setdefault(t.ancestor(i, "vqe.objective"), []).append(t.work[i])
        m["sampler.settings_per_eval"] = _ratio(
            sum(len(v) for v in samples.values()), len(objectives))
        m["sampler.shots_per_eval"] = _ratio(
            sum(sum(v) for v in samples.values()), len(objectives))
        m["sampler.shots_per_deflated_eval"] = _ratio(
            sum(sum(v) for j, v in samples.items() if j in deflated), len(deflated))
        m["cli.self_s"] = get("cli", "self_s")
        m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
        return m

    def _word_samples(self, name: str) -> list[int]:
        """Spans called ``name`` directly inside a word's
        `sampled_expectation` inside an objective evaluation: the energy
        measurements, without rate estimation or deflation."""
        t = self.tracer
        return [i for i, n in enumerate(t.names)
                if n == name and t.parents[i] >= 0
                and t.names[t.parents[i]] == "sampler.sampled_expectation"
                and t.ancestor(i, "vqe.objective") >= 0]

    def self_test(self, workload) -> list[str]:
        """Functions that could not be wrapped, wrapped names that recorded
        no call where they must or a call where they must not, and, on shots
        workloads, word samples in an objective evaluation that drew another
        shot count than the workload's or were left unmitigated."""
        t = self.tracer
        s = t.summary()
        required = _ALWAYS + (_EXACT if workload.exact else _SHOTS)
        problems = list(self._install_problems)
        problems += [f"{name}: no calls recorded" for name in required if name not in s]
        if workload.exact:
            return problems + [f"{name}: {s[name]['calls']} calls on an exact workload"
                               for name in SAMPLER_SPANS if name in s]
        samples = self._word_samples("sampler.sample")
        short = sum(t.work[i] != workload.shots for i in samples)
        if short:
            problems.append(f"sampler.sample: {short} of {len(samples)} objective samples"
                            f" did not draw {workload.shots} shots")
        mitigated = len(self._word_samples("sampler.mitigate_counts"))
        if mitigated != len(samples):
            problems.append(f"sampler.mitigate_counts: {mitigated} calls for"
                            f" {len(samples)} objective samples")
        return problems

    def call_counts(self) -> dict[str, int]:
        return {name: agg["calls"] for name, agg in sorted(self.tracer.summary().items())}
