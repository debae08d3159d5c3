"""Spin operators, basis states and coherent states for arbitrary spin.

All operators are dense complex matrices in the Iz eigenbasis ordered
m = I, I-1, ..., -I (index 0 corresponds to m = I).  Energies and couplings
are angular frequencies in rad/s with hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpinQuantum",
    "SpinOperators",
    "spin_operators",
    "eigenstate",
    "coherent_state",
    "fidelity",
    "check_pure_state",
    "check_density_matrix",
    "is_hermitian",
]

#: Relative Frobenius-norm tolerance for Hermiticity of Hamiltonians.
HERMITICITY_TOL = 1e-12

#: Norm tolerance for pure states.
STATE_NORM_TOL = 1e-10

#: Tolerances for density matrices: Hermiticity, trace, smallest eigenvalue.
DM_HERMITICITY_TOL = 1e-10
DM_TRACE_TOL = 1e-10
DM_EIGENVALUE_FLOOR = -1e-8


@dataclass(frozen=True)
class SpinQuantum:
    """Spin magnitude I stored as the integer 2I.

    Keeping twice the spin as an integer makes all m-arithmetic exact:
    the basis index of the level |I, m> is (twice_i - 2*m)/2 = I - m.
    """

    twice_i: int

    def __post_init__(self):
        if not isinstance(self.twice_i, (int, np.integer)):
            raise TypeError(f"twice_i must be an integer, got {self.twice_i!r}")
        if self.twice_i < 1:
            raise ValueError(
                f"twice_i must be >= 1 (spin-0 has no dynamics), got {self.twice_i}"
            )

    @property
    def i(self) -> float:
        """Spin magnitude I."""
        return self.twice_i / 2

    @property
    def dimension(self) -> int:
        """Hilbert-space dimension d = 2I + 1."""
        return self.twice_i + 1

    @property
    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers ordered m = I, I-1, ..., -I."""
        return (self.twice_i - 2 * np.arange(self.dimension)) / 2

    def index_of_m(self, m: float) -> int:
        """Basis index of |I, m>, validating range and half-integer parity."""
        twice_m = int(round(2 * m))
        if abs(2 * m - twice_m) > 1e-9:
            raise ValueError(f"m = {m} is not an integer or half-integer")
        if (self.twice_i - twice_m) % 2 != 0:
            raise ValueError(
                f"m = {m} does not match the parity of spin I = {self.i}"
            )
        if abs(twice_m) > self.twice_i:
            raise ValueError(f"m = {m} out of range for I = {self.i}")
        return (self.twice_i - twice_m) // 2


@dataclass(frozen=True)
class SpinOperators:
    """The standard spin operator set for one spin, as dense matrices."""

    spin: SpinQuantum
    Ix: np.ndarray
    Iy: np.ndarray
    Iz: np.ndarray
    Iplus: np.ndarray
    Iminus: np.ndarray
    Isq: np.ndarray


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def spin_operators(spin: SpinQuantum) -> SpinOperators:
    """Construct Ix, Iy, Iz, I+, I- and I^2 for the given spin.

    Iz is diagonal with entries m = I..-I; I+ carries the ladder elements
    sqrt(I(I+1) - m(m+1)) on the superdiagonal of that ordering;
    Ix = (I+ + I-)/2 and Iy = (I+ - I-)/2i; I^2 = I(I+1) * identity.
    """
    d = spin.dimension
    m = spin.m_values
    i = spin.i
    iz = np.diag(m).astype(complex)
    iplus = np.zeros((d, d), dtype=complex)
    for idx in range(1, d):
        mm = m[idx]
        iplus[idx - 1, idx] = math.sqrt(i * (i + 1) - mm * (mm + 1))
    iminus = iplus.conj().T.copy()
    ix = (iplus + iminus) / 2
    iy = (iplus - iminus) / 2j
    isq = i * (i + 1) * np.eye(d, dtype=complex)
    return SpinOperators(
        spin=spin,
        Ix=_frozen(ix),
        Iy=_frozen(iy),
        Iz=_frozen(iz),
        Iplus=_frozen(iplus),
        Iminus=_frozen(iminus),
        Isq=_frozen(isq),
    )


def eigenstate(spin: SpinQuantum, m: float) -> np.ndarray:
    """Return |I, m> as a unit vector (single nonzero amplitude at index I - m)."""
    psi = np.zeros(spin.dimension, dtype=complex)
    psi[spin.index_of_m(m)] = 1.0
    return _frozen(psi)


def coherent_state(spin: SpinQuantum, theta: float, phi: float) -> np.ndarray:
    """Spin coherent state exp(-i phi Iz) exp(-i theta Iy) |I, I>.

    This is the minimum-uncertainty state pointing along the Bloch-sphere
    direction (theta, phi).  Amplitudes are computed in closed form,

        c_m = sqrt(C(2I, I-m)) cos(theta/2)^(I+m) sin(theta/2)^(I-m) e^(-i phi m),

    which is fast enough to evaluate on dense spherical grids.
    """
    d = spin.dimension
    twice_i = spin.twice_i
    m = spin.m_values
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    idx = np.arange(d)  # equals I - m
    binom = np.array([math.comb(twice_i, int(k)) for k in idx], dtype=float)
    amps = np.sqrt(binom) * c ** (twice_i - idx) * s ** idx
    psi = amps * np.exp(-1j * phi * m)
    return _frozen(psi.astype(complex))


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL):
    """Check Hermiticity to relative Frobenius-norm tolerance.

    A (d, d) matrix gives one bool; a stack of shape (..., d, d) gives a
    boolean array with one verdict per matrix.
    """
    a = np.asarray(a)
    scale = np.maximum(np.linalg.norm(a, axis=(-2, -1)), 1.0)
    ok = np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1)) <= tol * scale
    return bool(ok) if ok.ndim == 0 else ok


def _require_finite(spec, *names) -> None:
    """Reject a spec whose field (a number or a tuple of numbers) among
    ``names`` is NaN or infinite, naming the field."""
    for name in names:
        value = getattr(spec, name)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")


def check_pure_state(psi: np.ndarray, tol: float = STATE_NORM_TOL) -> np.ndarray:
    """Validate a pure-state vector (unit two-norm); returns the input."""
    psi = np.asarray(psi)
    if psi.ndim != 1:
        raise ValueError(f"pure state must be a vector, got shape {psi.shape}")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > tol:
        raise ValueError(f"pure state norm {norm} deviates from 1 beyond {tol}")
    return psi


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix (Hermitian, unit trace, near-positive)."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not is_hermitian(rho, DM_HERMITICITY_TOL):
        raise ValueError("density matrix is not Hermitian within 1e-10")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > DM_TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} deviates from 1 beyond 1e-10")
    lo = np.linalg.eigvalsh(rho).min()
    if lo < DM_EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has eigenvalue {lo} below {DM_EIGENVALUE_FLOOR}")
    return rho


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(a)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Fidelity between two states, each a vector or a density matrix.

    Pure/pure pairs give |<a|b>|^2, pure/mixed give <psi|rho|psi>, and
    mixed/mixed pairs the Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.ndim == 1 and b.ndim == 1:
        f = abs(np.vdot(a, b)) ** 2
    elif a.ndim == 1:
        f = np.vdot(a, b @ a).real
    elif b.ndim == 1:
        f = np.vdot(b, a @ b).real
    else:
        sqrt_a = _psd_sqrt(a)
        f = _psd_sqrt(sqrt_a @ b @ sqrt_a).trace().real ** 2
    return float(min(max(f, 0.0), 1.0))
