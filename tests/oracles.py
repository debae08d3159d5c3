"""Independent references and measurements that only the tests use.

The oracles take ``scipy.linalg.expm`` as their exponential, so they stay
independent of the package's own propagation paths: the dense dt/100
unitary reference, the RK4 Lindblad reference, the dense-Liouvillian
Lindblad step and the rotation operator.
The measurements are the off-resonant flip probability, which bounds what
the rotating-wave model drops, the revival peaks of a sampled series and
the gap sweep measured on its states.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from spincat.control import rotation_duration
from spincat.dynamics import (
    DecoherenceSpec,
    Drive,
    TimeGrid,
    _chunk_steps,
    _drive_terms,
    evolve_lindblad,
)
from spincat.observables import SizeSeries, effective_sizes
from spincat.scenarios import _dephased, _ladder, _pulse_pair
from spincat.spin import (
    SpinQuantum,
    _frozen,
    check_density_matrix,
    check_pure_state,
    eigenstate,
    spin_operators,
)


def reference_final_state(h, psi0, grid: TimeGrid, refine: int = 100) -> np.ndarray:
    """Dense brute-force unitary oracle: plain midpoint stepping at dt/refine.

    Serves as the independent check on production runs: every step of a
    :class:`Drive` gets its own ``scipy.linalg.expm`` of h0 + f(t_mid) x,
    never the constant-Hamiltonian shortcut or the step-map polynomial, and
    only the final state is returned.  A constant ``h`` has one step map,
    applied at every step.
    """
    psi = np.array(check_pure_state(psi0), dtype=complex)
    d = psi.size
    n = grid.n_steps * refine
    dt = grid.span / n
    if not isinstance(h, Drive):
        u = scipy.linalg.expm(-1j * np.asarray(h, dtype=complex) * dt)
        for _ in range(n):
            psi = u @ psi
        return psi
    h0, x = _drive_terms(h, d)
    chunk = _chunk_steps(d)
    for k0 in range(0, n, chunk):
        t_mid = grid.t_start + (np.arange(k0, min(k0 + chunk, n)) + 0.5) * dt
        for c in h.pulse.envelope(t_mid).tolist():
            psi = scipy.linalg.expm(-1j * (h0 + c * x) * dt) @ psi
    return psi


def reference_lindblad_state(h, rho0, dec: DecoherenceSpec, grid: TimeGrid) -> np.ndarray:
    """Classical RK4 oracle for :func:`evolve_lindblad`: plain fixed steps of
    ``grid.step`` on d rho/dt = -i[H, rho] - R * rho / 2 (R from
    :meth:`DecoherenceSpec.rates`); returns the final state only."""
    rho = np.array(check_density_matrix(rho0), dtype=complex)
    h = np.asarray(h, dtype=complex)
    d = rho.shape[0]
    half_rates = 0.5 * dec.rates((d - 1 - 2 * np.arange(d)) / 2)

    def rhs(r):
        return -1j * (h @ r - r @ h) - half_rates * r

    dt = grid.step
    for _ in range(grid.n_steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def reference_lindblad_step(h, rho0, dec: DecoherenceSpec, t: float) -> np.ndarray:
    """One-step oracle for :func:`evolve_lindblad`: exp(L t) rho0 from the
    dense d^2 x d^2 Liouvillian and ``scipy.linalg.expm``.  On the row-major
    vec(rho), vec(A X B) = (A (x) B^T) vec(X), so
    L = -i(H (x) 1 - 1 (x) H^T) - diag(vec R) / 2 (R from
    :meth:`DecoherenceSpec.rates`)."""
    rho = np.array(check_density_matrix(rho0), dtype=complex)
    h = np.asarray(h, dtype=complex)
    d = rho.shape[0]
    one = np.eye(d)
    liouvillian = -1j * (np.kron(h, one) - np.kron(one, h.T))
    liouvillian -= 0.5 * np.diag(dec.rates((d - 1 - 2 * np.arange(d)) / 2).ravel())
    return (scipy.linalg.expm(liouvillian * t) @ rho.ravel()).reshape(d, d)


def rotation_operator(spin: SpinQuantum, axis, angle: float) -> np.ndarray:
    """Rotation exp(-i angle (n . I)) about the unit vector ``axis``."""
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"axis must be a 3-vector, got shape {n.shape}")
    norm = np.linalg.norm(n)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(
            f"axis must be a unit vector (norm within 1e-10), got norm {norm}"
        )
    ops = spin_operators(spin)
    generator = n[0] * ops.Ix + n[1] * ops.Iy + n[2] * ops.Iz
    return _frozen(scipy.linalg.expm(-1j * angle * generator))


def revival_peaks(series: SizeSeries, min_height: float | None = None) -> SizeSeries:
    """Interior local maxima of a sampled series (the revival peaks)."""
    t = np.asarray(series.times)
    v = np.asarray(series.values)
    mask = (v[1:-1] >= v[:-2]) & (v[1:-1] > v[2:])
    idx = np.where(mask)[0] + 1
    if min_height is not None:
        idx = idx[v[idx] >= min_height]
    return SizeSeries(times=t[idx], values=v[idx], operator_tag=series.operator_tag)


def flip_probability(gamma_b1: float, delta_omega: float, t: float) -> float:
    """Off-resonant Rabi flip probability (gamma_B1/Omega)^2 sin^2(Omega t)
    with Omega^2 = (gamma_B1)^2 + (delta_omega)^2 / 4."""
    omega_sq = gamma_b1 ** 2 + delta_omega ** 2 / 4
    if omega_sq == 0.0:
        return 0.0
    return float(gamma_b1 ** 2 / omega_sq * np.sin(np.sqrt(omega_sq) * t) ** 2)


def flip_probability_peak(gamma_b1: float, delta_omega: float) -> float:
    """Envelope maximum of the off-resonant flip probability."""
    omega_sq = gamma_b1 ** 2 + delta_omega ** 2 / 4
    if omega_sq == 0.0:
        return 0.0
    return float(gamma_b1 ** 2 / omega_sq)


def gap_sweep_on_states(cfg, dec: DecoherenceSpec, omega_ref: float, t_values) -> np.ndarray:
    """N_eff(Iz) of the cat protocol for each gap in ``t_values``, measured
    on the states: every gap's state U2 sigma(T) U2^dagger is built, with
    sigma(T) from ``_dephased``, in one (k, d, d) stack, and measured by
    ``effective_sizes``.  The reference for the sweep that measures in the
    Heisenberg picture and never builds the states."""
    spin = cfg.spin
    t_half = rotation_duration(spin, cfg.fields.gamma_b1, np.pi / 2)
    h1, u2, nu = _pulse_pair(cfg, _ladder(cfg), t_half, omega_ref)
    psi0 = eigenstate(spin, spin.i)
    rho0 = np.outer(psi0, psi0.conj())
    rho1 = evolve_lindblad(h1, rho0, dec, TimeGrid(0.0, t_half, dt=t_half)).final_state
    states = u2 @ _dephased(rho1, dec, nu, np.asarray(t_values, dtype=float), spin) @ u2.conj().T
    return effective_sizes(states, spin_operators(spin).Iz, spin)
