"""sp3 nearest-neighbour tight-binding model of diamond-lattice silicon.

Builds the Bloch Hamiltonian at arbitrary k for the two-atom cell in the
ordered basis (atom A: s, px, py, pz; atom B: s, px, py, pz), generates
high-symmetry k-paths, and provides the dense classical diagonalisation
used as the reference for every hybrid-solver result.

Conventions
-----------
* k-points are fractional coordinates in units of 2π/a.
* Bond phases are atom-centred, e^{i k·d} on the four nearest-neighbour
  bond vectors d = (a/4)(±1, ±1, ±1) with an even number of minus signs.
* Each tabulated hopping V is the full four-neighbour matrix element at
  the zone centre, so the running phase sums are normalised by 1/4.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .pauli import from_json_object, is_real, require_hermitian

# Nearest-neighbour bond vectors in units of the lattice constant.
BOND_VECTORS = 0.25 * np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
)

# Sign patterns combining the four bond phases into the s/p structure factors.
_G_SIGNS = np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float
)

# The largest |energy| a parameter may take (eV).  The solve squares numbers
# of the spectrum's size (eigenpair residual norms, BFGS's |g|² and y·y, the
# shots noise bound's c_w²), and a float squares to inf above about 1.3e154.
# With silicon's energies scaled up, `bands` (2- and 8-band, exact and
# mitigated shots) wrote finite rows while the largest, |V_ss|, was 8.1e152;
# at 8.1e153 the shots noise bound overflowed, and at 2.4e154 rows were NaN.
# At the cap every parameter may sit at ±1e150 and no operation overflows.
MAX_ENERGY_EV = 1e150

HIGH_SYMMETRY_POINTS = {
    "G": (0.0, 0.0, 0.0),
    "X": (1.0, 0.0, 0.0),
    "L": (0.5, 0.5, 0.5),
    "W": (1.0, 0.5, 0.0),
    "K": (0.75, 0.75, 0.0),
    "U": (1.0, 0.25, 0.25),
}


@dataclass(frozen=True)
class TBParameters:
    """On-site energies and four-neighbour hopping integrals (eV, Å), every
    energy at most ``MAX_ENERGY_EV`` in magnitude."""

    lattice_constant: float
    E_s: float
    E_p: float
    V_ss: float
    V_sp: float
    V_xx: float
    V_xy: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_real(value):
                raise ValueError(f"{f.name} must be a finite real, got {value!r}")
            if f.name != "lattice_constant" and abs(value) > MAX_ENERGY_EV:
                raise ValueError(f"{f.name} = {value!r} exceeds the cap of "
                                 f"{MAX_ENERGY_EV:g} eV in magnitude")
            object.__setattr__(self, f.name, float(value))
        if not self.lattice_constant > 0:
            raise ValueError("lattice_constant must be positive")

    @classmethod
    def default_silicon(cls) -> "TBParameters":
        """Reference silicon values shipped with the package (data/silicon.json)."""
        text = resources.files("qbands.data").joinpath("silicon.json").read_text()
        return from_json_object(cls, json.loads(text))


@dataclass(frozen=True)
class KPoint:
    """Reciprocal-space point, components in units of 2π/a."""

    components: tuple[float, float, float]

    def __post_init__(self):
        comps = tuple(float(c) for c in self.components)
        if len(comps) != 3 or not all(math.isfinite(c) for c in comps):
            raise ValueError(f"bad k-point components: {self.components}")
        object.__setattr__(self, "components", comps)

    def as_array(self) -> np.ndarray:
        return np.array(self.components)

    @classmethod
    def high_symmetry(cls, label: str) -> "KPoint":
        key = {"GAMMA": "G", "Γ": "G"}.get(label.upper(), label.upper())
        if key not in HIGH_SYMMETRY_POINTS:
            raise ValueError(f"unknown high-symmetry label {label!r}")
        return cls(HIGH_SYMMETRY_POINTS[key])


@dataclass(frozen=True)
class KPath:
    """Sampled path through reciprocal space.

    ``coords`` is the cumulative Euclidean path length (units of 2π/a),
    starting at zero and non-decreasing.
    """

    points: tuple[KPoint, ...]
    coords: np.ndarray


def make_kpath(anchors: list[KPoint], points_per_segment: int) -> KPath:
    """Linear interpolation between consecutive anchors.

    Endpoints are included and junction points are not duplicated: a path
    over ``m`` anchors carries ``1 + (m-1) * points_per_segment`` points.
    """
    if len(anchors) < 2:
        raise ValueError("a k-path needs at least two anchors")
    if points_per_segment < 1:
        raise ValueError("points_per_segment must be >= 1")
    points = [anchors[0]]
    for a, b in zip(anchors[:-1], anchors[1:]):
        va, vb = a.as_array(), b.as_array()
        for j in range(1, points_per_segment + 1):
            frac = j / points_per_segment
            points.append(KPoint(tuple((1 - frac) * va + frac * vb)))
    coords = np.zeros(len(points))
    for i in range(1, len(points)):
        step = np.linalg.norm(points[i].as_array() - points[i - 1].as_array())
        coords[i] = coords[i - 1] + step
    return KPath(tuple(points), coords)


def structure_factors(k: KPoint) -> np.ndarray:
    """Four structure factors (g0, g1, g2, g3) at k, normalised by 1/4."""
    phases = np.exp(2j * np.pi * (BOND_VECTORS @ k.as_array()))
    return (_G_SIGNS @ phases) / 4.0


def _bloch_hamiltonian(params: TBParameters, k: KPoint) -> np.ndarray:
    """The 8x8 matrix of both builders below, so that neither calls the other."""
    g0, g1, g2, g3 = structure_factors(k)
    H = np.zeros((8, 8), dtype=complex)
    onsite = [params.E_s, params.E_p, params.E_p, params.E_p]
    for i, e in enumerate(onsite):
        H[i, i] = e
        H[4 + i, 4 + i] = e
    Vss, Vsp, Vxx, Vxy = params.V_ss, params.V_sp, params.V_xx, params.V_xy
    hop = np.array(
        [
            [Vss * g0, Vsp * g1, Vsp * g2, Vsp * g3],
            [-Vsp * g1, Vxx * g0, Vxy * g3, Vxy * g2],
            [-Vsp * g2, Vxy * g3, Vxx * g0, Vxy * g1],
            [-Vsp * g3, Vxy * g2, Vxy * g1, Vxx * g0],
        ]
    )
    H[0:4, 4:8] = hop
    H[4:8, 0:4] = hop.conj().T
    return H


def build_full_hamiltonian(params: TBParameters, k: KPoint) -> np.ndarray:
    """8x8 Bloch Hamiltonian in the basis (A: s,px,py,pz; B: s,px,py,pz)."""
    return _bloch_hamiltonian(params, k)


def build_s_block(params: TBParameters, k: KPoint) -> np.ndarray:
    """2x2 s-orbital block: the (A s, B s) rows and columns of the 8x8
    Hamiltonian, which drops the s-p hopping."""
    return _bloch_hamiltonian(params, k)[np.ix_([0, 4], [0, 4])]


def diagonalize_classical(H: np.ndarray) -> np.ndarray:
    """Ascending real spectrum of a Hermitian matrix (degeneracies repeated).

    This is the classical reference against which every hybrid result is
    judged.  Raises ValueError if the input deviates from Hermiticity by
    more than pauli.HERM_TOL entrywise.
    """
    H = np.asarray(H, dtype=complex)
    require_hermitian(H)
    return np.linalg.eigvalsh(H)

