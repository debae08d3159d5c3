"""Evolvers for the Schroedinger and Lindblad equations.

A constant generator (-iH, or the Lindblad Liouvillian) is propagated
exactly from one stored sample to the next, one matrix exponential per
distinct gap.  A time-dependent H uses a piecewise-constant midpoint rule,
exp(-i H(t_mid) dt) per step, built and exponentiated (one batched
Hermitian eigensolve) a chunk of steps at a time.  Both evolvers check
their conservation laws (norm, trace, positivity) at every stored sample.

A unitary Hamiltonian source is either a constant (d, d) matrix or a
callable that maps a 1-D array of k midpoint times to a (k, d, d) stack of
matrices, one per time; any other shape is rejected.  The Lindblad evolver
takes only a constant (d, d) matrix.  The dense oracles are for tests.
"""

from __future__ import annotations

import numbers
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
    "reference_lindblad_state",
]

#: Default step of time-dependent (lab-frame) runs: it resolves the Larmor
#: scale and matches the 1 ns waveform-generator resolution.
LAB_FRAME_DT = 1e-9

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

    def rates(self, m: np.ndarray) -> np.ndarray:
        """R with d rho_jk/dt = -R_jk rho_jk / 2 on the ladder ``m``:
        R_jk = gamma_m (m_j - m_k)^2 + gamma_e (m_j^2 - m_k^2)^2."""
        return (
            self.gamma_m * np.subtract.outer(m, m) ** 2
            + self.gamma_e * np.subtract.outer(m ** 2, m ** 2) ** 2
        )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid on [t_start, t_end] with step ~dt.

    The span is divided into an integer number of equal steps no longer than
    ``dt``; the first, every ``output_stride``-th and the last state are
    stored (the default ``None``: the first and last only).
    """

    t_start: float
    t_end: float
    dt: float
    output_stride: int | None = None

    def __post_init__(self):
        _require_finite(self, "t_start", "t_end", "dt")
        if self.t_end <= self.t_start:
            raise ValueError("need t_end > t_start")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        stride = self.output_stride
        if stride is not None and (
            isinstance(stride, bool) or not isinstance(stride, numbers.Integral) or stride < 1
        ):
            raise ValueError(f"output_stride must be None or an integer >= 1, got {stride!r}")

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    @property
    def n_steps(self) -> int:
        return max(1, int(np.ceil(self.span / self.dt - 1e-9)))

    @property
    def step(self) -> float:
        return self.span / self.n_steps

    @property
    def sample_steps(self) -> np.ndarray:
        """Step counts of the stored states, ascending from 0 to n_steps."""
        n = self.n_steps
        return np.append(np.arange(0, n, self.output_stride or n), n)


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


def _sample_exact(g: np.ndarray, x0: np.ndarray, steps: np.ndarray, dt: float) -> list:
    """exp(G k dt) x0 for each step count k in ``steps`` (ascending, from
    0), with one ``scipy.linalg.expm`` per distinct gap between entries."""
    gaps = np.diff(steps).tolist()
    maps = {gap: scipy.linalg.expm(g * (gap * dt)) for gap in set(gaps)}
    xs = [x0]
    for gap in gaps:
        xs.append(maps[gap] @ xs[-1])
    return xs


def evolve_unitary(h_of_t, psi0, grid: TimeGrid) -> Trajectory:
    """Integrate the Schroedinger equation over the grid.

    ``h_of_t`` is either a constant (d, d) Hermitian matrix, propagated
    exactly from one stored sample to the next, or a callable that maps a
    1-D array of k step-midpoint times to a (k, d, d) stack of Hermitian
    matrices.  A callable is evaluated for chunks of consecutive steps at
    once (``CHUNK_BYTES`` per stack).  The state norm is checked at every
    stored sample; a drift beyond 1e-6 aborts.
    """
    psi = np.array(check_pure_state(psi0), dtype=complex)
    dt = grid.step
    steps = grid.sample_steps

    if callable(h_of_t):
        d = psi.size
        n = grid.n_steps
        chunk = _chunk_steps(d)
        stored = set(steps.tolist())
        states = [psi]
        for k0 in range(0, n, chunk):
            t_mid = grid.t_start + (np.arange(k0, min(k0 + chunk, n)) + 0.5) * dt
            u_chunk = _step_propagators(_hamiltonian_stack(h_of_t, t_mid, d), t_mid, dt)
            for k, u in enumerate(u_chunk, start=k0 + 1):
                psi = u @ psi
                if k in stored:
                    states.append(psi)
        hint = f"; reduce dt (currently {dt})"
    else:
        h = np.asarray(h_of_t, dtype=complex)
        if not is_hermitian(h):
            raise ValueError("evolve_unitary requires a Hermitian Hamiltonian")
        states = _sample_exact(-1j * h, psi, steps, dt)
        hint = ""

    traj = Trajectory(times=grid.t_start + steps * dt, states=np.array(states))
    norms = np.linalg.norm(traj.states[1:], axis=1)
    for t, norm in zip(traj.times[1:], norms):
        if abs(norm - 1.0) > NORM_ABORT_TOL:
            raise IntegrationError(f"norm drifted to {norm} at t = {t}{hint}")
    return traj


def evolve_lindblad(h, rho0, dec: DecoherenceSpec, grid: TimeGrid) -> Trajectory:
    """Propagate the Lindblad master equation with dephasing jump operators
    L_m = Iz (rate gamma_m) and L_e = Iz^2 (rate gamma_e) exactly, with the
    Liouvillian -i(H (x) 1 - 1 (x) H^T) - diag(vec R)/2 on row-major vec(rho)
    (R from :meth:`DecoherenceSpec.rates`, H constant).  Stored states are
    symmetrized; trace drift beyond 1e-8 or an eigenvalue below -1e-7 aborts.
    """
    rho = np.array(check_density_matrix(rho0), dtype=complex)
    d = rho.shape[0]
    if np.shape(h) != (d, d):
        got = "a callable" if callable(h) else f"shape {np.shape(h)}"
        raise ValueError(f"h must be a constant array of shape {(d, d)}, got {got}")
    h = np.asarray(h, dtype=complex)
    m = (d - 1 - 2 * np.arange(d)) / 2  # m ladder inferred from dimension
    one = np.eye(d)
    liouvillian = -1j * (np.kron(h, one) - np.kron(one, h.T))
    liouvillian[np.diag_indices(d * d)] -= 0.5 * dec.rates(m).ravel()

    steps = grid.sample_steps
    states = np.reshape(_sample_exact(liouvillian, rho.ravel(), steps, grid.step), (-1, d, d))
    states[1:] = (states[1:] + states[1:].conj().swapaxes(-1, -2)) / 2
    times = grid.t_start + steps * grid.step
    traces = np.trace(states[1:], axis1=1, axis2=2).real
    lows = np.linalg.eigvalsh(states[1:]).min(axis=1)
    for t, tr, lo in zip(times[1:], traces, lows):
        if abs(tr - 1.0) > TRACE_ABORT_TOL:
            raise IntegrationError(f"trace drifted to {tr} at t = {t}")
        if lo < POSITIVITY_FLOOR:
            raise IntegrationError(f"eigenvalue {lo} below {POSITIVITY_FLOOR} at t = {t}")
    return Trajectory(times=times, states=states)


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
