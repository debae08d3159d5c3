"""Static Zeeman + quadrupole Hamiltonians, energy ladders and the secular
one-axis-twisting approximation.

The quadrupole interaction is built in its principal axis system (PAS) and
rotated into the lab frame by Euler angles (delta, mu, nu).  In the regime of
dominant Zeeman splitting, only the component of the quadrupole tensor
parallel to the static field survives, leaving an effective Iz^2 nonlinearity
whose strength is extracted here by a quadratic fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin import SpinQuantum, _require_finite, is_hermitian, spin_operators

__all__ = [
    "QuadrupoleSpec",
    "FieldSpec",
    "EnergyLadder",
    "principal_axis_operators",
    "quadrupole_hamiltonian",
    "static_hamiltonian",
    "energy_ladder",
    "effective_oat_strength",
]

#: Minimum squared overlap for labeling eigenvectors with m quantum numbers.
LABELING_MIN_OVERLAP = 0.7


@dataclass(frozen=True)
class QuadrupoleSpec:
    """Quadrupole coupling strength, EFG asymmetry and PAS orientation.

    ``omega_q`` is in rad/s, ``eta`` dimensionless in [0, 1], and ``euler``
    holds the (delta, mu, nu) angles of the principal axis system relative
    to the lab frame.
    """

    omega_q: float
    eta: float = 0.0
    euler: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        _require_finite(self, "omega_q", "eta")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if self.omega_q < 0:
            raise ValueError(f"omega_q must be >= 0, got {self.omega_q}")
        if len(self.euler) != 3:
            raise ValueError("euler must be a (delta, mu, nu) triple")
        object.__setattr__(self, "euler", tuple(float(x) for x in self.euler))
        _require_finite(self, "euler")


@dataclass(frozen=True)
class FieldSpec:
    """Static Zeeman coupling and drive amplitude, both as gamma*B in rad/s."""

    gamma_b0: float
    gamma_b1: float = 0.0
    drive_axis: str = "y"

    def __post_init__(self):
        _require_finite(self, "gamma_b0", "gamma_b1")
        if self.gamma_b0 < 0 or self.gamma_b1 < 0:
            raise ValueError("gamma_b0 and gamma_b1 must be >= 0")
        if self.drive_axis not in ("x", "y"):
            raise ValueError(f"drive_axis must be 'x' or 'y', got {self.drive_axis!r}")


@dataclass(frozen=True)
class EnergyLadder:
    """Level energies e_k (indexed like the basis, m = I..-I) and the 2I
    nearest-neighbor transition frequencies omega_{i,i-1}, ordered from the
    top of the ladder down (j = 1 connects m = I and m = I-1)."""

    spin: SpinQuantum
    energies: np.ndarray
    transition_freqs: np.ndarray


def _pas_rotation(delta: float, mu: float, nu: float) -> np.ndarray:
    """Rows are the PAS unit vectors x', y', z' in lab coordinates (z-x-z
    Euler convention: delta about z, mu about the new x, nu about the new z)."""
    cd, sd = math.cos(delta), math.sin(delta)
    cm, sm = math.cos(mu), math.sin(mu)
    cn, sn = math.cos(nu), math.sin(nu)
    return np.array(
        [
            [cn * cd - cm * sd * sn, cn * sd + cm * cd * sn, sn * sm],
            [-sn * cd - cm * sd * cn, -sn * sd + cm * cd * cn, cn * sm],
            [sm * sd, -sm * cd, cm],
        ]
    )


def principal_axis_operators(spin: SpinQuantum, euler) -> tuple:
    """Spin operators along the PAS axes, (I_x', I_y', I_z'), as lab-frame
    linear combinations fixed by the Euler angles."""
    ops = spin_operators(spin)
    rot = _pas_rotation(*euler)
    lab = (ops.Ix, ops.Iy, ops.Iz)
    primed = tuple(
        sum(rot[row, col] * lab[col] for col in range(3)) for row in range(3)
    )
    return primed


def quadrupole_hamiltonian(spec: QuadrupoleSpec, spin: SpinQuantum) -> np.ndarray:
    """Quadrupole interaction omega_q [Iz'^2 + (eta/3)(Ix'^2 - Iy'^2 - I^2)]."""
    ixp, iyp, izp = principal_axis_operators(spin, spec.euler)
    isq = spin_operators(spin).Isq
    h = spec.omega_q * (
        izp @ izp + (spec.eta / 3) * (ixp @ ixp - iyp @ iyp - isq)
    )
    # guard against rounding in the Euler combinations
    return (h + h.conj().T) / 2


def static_hamiltonian(
    fields: FieldSpec, quad: QuadrupoleSpec, spin: SpinQuantum
) -> np.ndarray:
    """Static part of the full Hamiltonian: gamma*B0*Iz + H_q."""
    ops = spin_operators(spin)
    return fields.gamma_b0 * ops.Iz + quadrupole_hamiltonian(quad, spin)


def energy_ladder(h_static: np.ndarray, spin: SpinQuantum) -> EnergyLadder:
    """Diagonalize the static Hamiltonian and label eigenstates by m.

    Labels are assigned by maximum overlap with the Iz eigenbasis, which is
    meaningful only in the Zeeman-dominant regime.  An eigenvector whose
    dominant-|m| weight falls below 0.7, or two eigenvectors claiming the
    same m, raise a ValueError (regime violation).
    """
    if not is_hermitian(h_static):
        raise ValueError("static Hamiltonian must be Hermitian")
    d = spin.dimension
    vals, vecs = np.linalg.eigh(h_static)
    energies = np.full(d, np.nan)
    claimed = np.full(d, -1)
    for col in range(d):
        weights = np.abs(vecs[:, col]) ** 2
        dominant = int(np.argmax(weights))
        if weights[dominant] < LABELING_MIN_OVERLAP:
            raise ValueError(
                f"eigenstate overlap {weights[dominant]:.3f} with |I,m> basis is "
                f"below {LABELING_MIN_OVERLAP}; not in the Zeeman-dominant regime"
            )
        if claimed[dominant] >= 0:
            raise ValueError(
                "ambiguous m-labeling: two eigenvectors share a dominant level; "
                "not in the Zeeman-dominant regime"
            )
        claimed[dominant] = col
        energies[dominant] = vals[col]
    transitions = energies[:-1] - energies[1:]
    return EnergyLadder(
        spin=spin, energies=energies, transition_freqs=transitions
    )


def effective_oat_strength(quad: QuadrupoleSpec, spin: SpinQuantum) -> float:
    """Effective Iz^2 coefficient of the quadrupole interaction.

    Defined operationally as the quadratic coefficient of a least-squares fit
    of diag(H_q) in the Iz basis to a + b*k + c*k^2.  For an aligned PAS with
    eta = 0 this returns omega_q exactly.
    """
    if spin.dimension < 3:
        # two levels: diag(H_q) is constant, no resolvable k^2 component
        return 0.0
    h = quadrupole_hamiltonian(quad, spin)
    k = spin.m_values
    diag = np.real(np.diag(h))
    design = np.vander(k, 3)  # columns k^2, k, 1
    coeffs, *_ = np.linalg.lstsq(design, diag, rcond=None)
    return float(coeffs[0])
