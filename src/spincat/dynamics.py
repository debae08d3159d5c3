"""Fixed-step integrators for the Schroedinger and Lindblad equations.

Unitary dynamics use a piecewise-constant midpoint rule: each step applies
exp(-i H(t_mid) dt).  A constant H is exponentiated once; a time-dependent H
is built, checked and exponentiated (by one batched Hermitian eigensolve)
for a chunk of consecutive step midpoints at a time.  Open dynamics use
classical RK4 on the Lindblad right-hand side with a constant Hamiltonian.
Both integrators are deterministic and validate their conservation laws
(norm, trace, positivity) as they run.

A unitary Hamiltonian source is either a constant (d, d) matrix or a
callable that maps a 1-D array of k midpoint times to a (k, d, d) stack of
matrices, one per time; any other shape is rejected.  The Lindblad
integrator takes only a constant (d, d) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .spin import _require_finite, check_density_matrix, check_pure_state, is_hermitian

__all__ = [
    "IntegrationError",
    "DecoherenceSpec",
    "TimeGrid",
    "Trajectory",
    "propagator",
    "evolve_unitary",
    "evolve_lindblad",
    "reference_final_state",
]

#: Default integrator steps: lab-frame runs must resolve the Larmor scale and
#: match the 1 ns waveform-generator resolution; rotating/effective-frame runs
#: have the fast scale removed and may step much coarser.
LAB_FRAME_DT = 1e-9
ROTATING_FRAME_DT = 1e-7

NORM_ABORT_TOL = 1e-6
TRACE_ABORT_TOL = 1e-8
POSITIVITY_FLOOR = -1e-7

#: Size of one chunk's stack of complex step Hamiltonians in evolve_unitary:
#: 256 steps at d = 8, 1024 at d = 4.  Larger chunks buy little speed and
#: grow the peak memory of long lab-frame runs.
CHUNK_BYTES = 256 * 1024


class IntegrationError(RuntimeError):
    """Raised when an integration violates a conservation-law tolerance."""


@dataclass(frozen=True)
class DecoherenceSpec:
    """Dephasing rates in 1/s: magnetic (jump operator Iz) and electric
    (jump operator Iz^2) field fluctuations."""

    gamma_m: float = 0.0
    gamma_e: float = 0.0

    def __post_init__(self):
        _require_finite(self, "gamma_m", "gamma_e")
        if self.gamma_m < 0 or self.gamma_e < 0:
            raise ValueError("decoherence rates must be >= 0")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid on [t_start, t_end] with step ~dt.

    The span is divided into an integer number of equal steps no longer than
    ``dt``; every ``output_stride``-th state (plus the final one) is stored.
    """

    t_start: float
    t_end: float
    dt: float
    output_stride: int = 1

    def __post_init__(self):
        _require_finite(self, "t_start", "t_end", "dt")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end <= self.t_start:
            raise ValueError("need t_end > t_start")
        if self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    @property
    def n_steps(self) -> int:
        return max(1, int(np.ceil(self.span / self.dt - 1e-9)))

    @property
    def step(self) -> float:
        return self.span / self.n_steps


@dataclass
class Trajectory:
    """Sampled states on a time grid: ``states`` stacks one state per entry
    of ``times`` along its first axis, (n, d) pure states or (n, d, d)
    density matrices."""

    times: np.ndarray
    states: np.ndarray

    @property
    def final_state(self):
        return self.states[-1]


def propagator(h: np.ndarray, dt: float) -> np.ndarray:
    """Unitary short-time propagator exp(-i H dt) for Hermitian H."""
    h = np.asarray(h)
    if not is_hermitian(h):
        raise ValueError("propagator requires a Hermitian generator")
    return scipy.linalg.expm(-1j * h * dt)


def _chunk_steps(d: int) -> int:
    """Steps per chunk of time-dependent unitary stepping at dimension d."""
    return max(1, CHUNK_BYTES // (16 * d * d))


def _hamiltonian_stack(h_of_t, t: np.ndarray, d: int) -> np.ndarray:
    """Evaluate a callable Hamiltonian source at the midpoint times ``t``."""
    h = np.asarray(h_of_t(t))
    shape = (t.size, d, d)
    if h.shape != shape:
        raise ValueError(
            f"h_of_t must map {t.size} times to an array of shape {shape}, "
            f"got shape {h.shape}"
        )
    return h


def _step_propagators(h: np.ndarray, t: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H_k dt) for a stack of Hamiltonians sampled at times ``t``,
    as V diag(exp(-i lambda dt)) V^dagger from one batched eigensolve."""
    ok = is_hermitian(h)
    if not ok.all():
        bad = float(t[np.argmin(ok)])
        raise ValueError(f"Hamiltonian is not Hermitian at t = {bad}")
    lam, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * dt * lam)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    # eigh's eigenvectors are orthonormal only up to a biased rounding error:
    # over 1e5 steps the norm drifts ~100x further than with per-step expm,
    # and printed infidelities carry twice that drift.  One Newton-Schulz step
    # toward the nearest unitary removes most of it; the form
    # 1.5 U - 0.5 U U^dagger U matters (U (3 - U^dagger U) / 2 rounds with a
    # bias of its own).
    corr = u @ (u.conj().swapaxes(-1, -2) @ u)
    corr *= 0.5
    u *= 1.5
    u -= corr
    return u


def evolve_unitary(h_of_t, psi0, grid: TimeGrid) -> Trajectory:
    """Integrate the Schroedinger equation over the grid.

    ``h_of_t`` is either a constant (d, d) matrix or a callable that maps a
    1-D array of k step-midpoint times to a (k, d, d) stack of Hermitian
    matrices.  A callable is evaluated for chunks of consecutive steps at
    once (``CHUNK_BYTES`` per stack).  The state norm is monitored at every
    output sample and a drift beyond 1e-6 aborts with a step-size diagnostic.
    """
    psi = np.array(check_pure_state(psi0), dtype=complex)
    dt = grid.step
    n = grid.n_steps
    stride = grid.output_stride

    times = [grid.t_start]
    states = [psi]

    def record(k, psi):
        # k steps have been taken
        t = grid.t_start + k * dt
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > NORM_ABORT_TOL:
            raise IntegrationError(
                f"norm drifted to {norm} at t = {t}; reduce dt (currently {dt})"
            )
        times.append(t)
        states.append(psi)

    if callable(h_of_t):
        d = psi.size
        chunk = _chunk_steps(d)
        for k0 in range(0, n, chunk):
            t_mid = grid.t_start + (np.arange(k0, min(k0 + chunk, n)) + 0.5) * dt
            u_chunk = _step_propagators(_hamiltonian_stack(h_of_t, t_mid, d), t_mid, dt)
            for k, u in enumerate(u_chunk, start=k0 + 1):
                psi = u @ psi
                if k % stride == 0 or k == n:
                    record(k, psi)
    else:
        u_const = propagator(np.asarray(h_of_t, dtype=complex), dt)
        for k in range(1, n + 1):
            psi = u_const @ psi
            if k % stride == 0 or k == n:
                record(k, psi)

    return Trajectory(times=np.array(times), states=np.array(states))


def _lindblad_rhs(h, rho, jumps):
    """Right-hand side of the Lindblad master equation (hbar = 1)."""
    out = -1j * (h @ rho - rho @ h)
    for gamma, l_op, l2 in jumps:
        out += gamma * (l_op @ rho @ l_op.conj().T - 0.5 * (l2 @ rho + rho @ l2))
    return out


def evolve_lindblad(h, rho0, dec: DecoherenceSpec, grid: TimeGrid) -> Trajectory:
    """Integrate the Lindblad master equation with dephasing jump operators
    L_m = Iz (rate gamma_m) and L_e = Iz^2 (rate gamma_e).

    RK4 with the constant (d, d) Hamiltonian ``h``.  Sampled states are
    symmetrized; trace drift beyond 1e-8 or an eigenvalue below -1e-7 aborts
    with a step-size diagnostic.
    """
    rho = np.array(check_density_matrix(rho0), dtype=complex)
    d = rho.shape[0]
    if np.shape(h) != (d, d):
        got = "a callable" if callable(h) else f"shape {np.shape(h)}"
        raise ValueError(f"h must be a constant array of shape {(d, d)}, got {got}")
    h = np.asarray(h, dtype=complex)
    m = (d - 1 - 2 * np.arange(d)) / 2  # m ladder inferred from dimension
    jumps = []
    if dec.gamma_m > 0:
        l_m = np.diag(m).astype(complex)
        jumps.append((dec.gamma_m, l_m, l_m @ l_m))
    if dec.gamma_e > 0:
        l_e = np.diag(m ** 2).astype(complex)
        jumps.append((dec.gamma_e, l_e, l_e @ l_e))

    dt = grid.step
    n = grid.n_steps

    times = [grid.t_start]
    states = [rho]

    def record(t, rho):
        rho_s = (rho + rho.conj().T) / 2
        tr = np.trace(rho_s).real
        if abs(tr - 1.0) > TRACE_ABORT_TOL:
            raise IntegrationError(
                f"trace drifted to {tr} at t = {t}; reduce dt (currently {dt})"
            )
        lo = np.linalg.eigvalsh(rho_s).min()
        if lo < POSITIVITY_FLOOR:
            raise IntegrationError(
                f"eigenvalue {lo} below {POSITIVITY_FLOOR} at t = {t}; "
                f"reduce dt (currently {dt})"
            )
        times.append(t)
        states.append(rho_s)
        return rho  # integration continues on the unsymmetrized state

    for k in range(n):
        k1 = _lindblad_rhs(h, rho, jumps)
        k2 = _lindblad_rhs(h, rho + 0.5 * dt * k1, jumps)
        k3 = _lindblad_rhs(h, rho + 0.5 * dt * k2, jumps)
        k4 = _lindblad_rhs(h, rho + dt * k3, jumps)
        rho = rho + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if (k + 1) % grid.output_stride == 0 or k == n - 1:
            record(grid.t_start + (k + 1) * dt, rho)

    return Trajectory(times=np.array(times), states=np.array(states))


def reference_final_state(h_of_t, psi0, grid: TimeGrid, refine: int = 100) -> np.ndarray:
    """Dense brute-force unitary oracle: plain midpoint stepping at dt/refine.

    Serves as the independent check on production runs: every step gets its
    own ``scipy.linalg.expm``, never the constant-Hamiltonian shortcut or the
    batched eigensolve, and only the final state is returned.  A callable
    ``h_of_t`` is evaluated for chunks of consecutive midpoints.
    """
    psi = np.array(check_pure_state(psi0), dtype=complex)
    d = psi.size
    if not callable(h_of_t):
        h_const = np.asarray(h_of_t, dtype=complex)

        def h_of_t(t):
            return np.broadcast_to(h_const, (t.size, d, d))

    n = grid.n_steps * refine
    dt = grid.span / n
    chunk = _chunk_steps(d)
    for k0 in range(0, n, chunk):
        t_mid = grid.t_start + (np.arange(k0, min(k0 + chunk, n)) + 0.5) * dt
        for h in _hamiltonian_stack(h_of_t, t_mid, d):
            psi = scipy.linalg.expm(-1j * h * dt) @ psi
    return psi
