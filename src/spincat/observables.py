"""Measured quantities: degree of superposition, Husimi Q distributions,
cat coherence and off-resonant flip probability."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin import SpinQuantum, is_hermitian

__all__ = [
    "HusimiGrid",
    "SizeSeries",
    "expectation_and_variance",
    "effective_size",
    "effective_sizes",
    "husimi_q",
    "cat_coherence",
    "flip_probability",
    "flip_probability_peak",
    "revival_peaks",
    "save_size_series",
    "save_husimi",
]

HUSIMI_CONVENTION = "Q = (2I+1)/(4*pi) * <coherent|rho|coherent>; sphere integral 1"


@dataclass(frozen=True)
class HusimiGrid:
    """Husimi Q function sampled on a uniform theta x phi grid."""

    spin: SpinQuantum
    thetas: np.ndarray
    phis: np.ndarray
    values: np.ndarray
    convention: str = HUSIMI_CONVENTION

    def integral(self) -> float:
        """Quadrature-weighted sphere integral of Q (should be 1)."""
        weighted = self.values * np.sin(self.thetas)[:, None]
        return float(np.trapezoid(np.trapezoid(weighted, self.phis, axis=1), self.thetas))

    def to_table(self) -> np.ndarray:
        """(n_theta * n_phi, 3) array of rows (theta, phi, Q)."""
        tt, pp = np.meshgrid(self.thetas, self.phis, indexing="ij")
        return np.column_stack([tt.ravel(), pp.ravel(), self.values.ravel()])


@dataclass(frozen=True)
class SizeSeries:
    """Degree of superposition N_eff sampled over time (or a sweep axis)."""

    times: np.ndarray
    values: np.ndarray
    operator_tag: str = "Iz"

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")

    @property
    def peak(self) -> float:
        return float(np.max(self.values))

    @property
    def peak_time(self) -> float:
        return float(self.times[int(np.argmax(self.values))])


def _moments(states: np.ndarray, op: np.ndarray) -> tuple:
    """(<O>, Var O) for each state of a stack: (n, d) pure states or (n, d, d)
    density matrices.  The observable is checked once for the whole stack,
    and the variance clamp of :func:`expectation_and_variance` applies to
    each state."""
    op = np.asarray(op)
    if not is_hermitian(op, 1e-12):
        raise ValueError("observable must be Hermitian")
    states = np.asarray(states)
    d = op.shape[0]
    if states.shape[1:] not in ((d,), (d, d)):
        raise ValueError("state and observable dimensions do not match")
    if states.ndim == 2:
        ostates = states @ op.T
        e = np.vecdot(states, ostates).real
        e2 = np.vecdot(ostates, ostates).real
    else:
        e = np.einsum("nij,ji->n", states, op).real
        e2 = np.einsum("nij,ji->n", states, op @ op).real
    var = e2 - e * e
    if var.size and var.min() < -1e-12:
        raise ValueError(f"variance {var.min()} is negative beyond rounding tolerance")
    return e, np.maximum(var, 0.0)


def expectation_and_variance(state: np.ndarray, op: np.ndarray) -> tuple:
    """Return (<O>, Var O) for a pure state or density matrix.

    Variance is clamped to zero within -1e-12 to absorb rounding; a more
    negative value indicates an inconsistent input and raises.
    """
    e, var = _moments(np.asarray(state)[None], op)
    return float(e[0]), float(var[0])


def effective_size(state: np.ndarray, op: np.ndarray, spin: SpinQuantum) -> float:
    """Degree of superposition (2/I) Var(O): 1 for a coherent state, 2I for
    an ideal cat measured along its separation axis."""
    _, var = expectation_and_variance(state, op)
    return 2.0 * var / spin.i


def effective_sizes(states: np.ndarray, op: np.ndarray, spin: SpinQuantum) -> np.ndarray:
    """:func:`effective_size` of every state of a stack, one array dimension
    above a single state: (n, d) pure states or (n, d, d) density matrices."""
    _, var = _moments(states, op)
    return 2.0 * var / spin.i


def _coherent_grid(spin: SpinQuantum, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Coherent-state amplitudes on the grid, shape (d, n_theta, n_phi)."""
    d = spin.dimension
    twice_i = spin.twice_i
    idx = np.arange(d)  # I - m
    m = spin.m_values
    binom = np.array([math.comb(twice_i, int(k)) for k in idx])
    half = thetas / 2
    amp_theta = (
        np.sqrt(binom)[:, None]
        * np.cos(half)[None, :] ** (twice_i - idx[:, None])
        * np.sin(half)[None, :] ** idx[:, None]
    )
    phase = np.exp(-1j * np.multiply.outer(m, phis))
    return amp_theta[:, :, None] * phase[:, None, :]


def husimi_q(
    state: np.ndarray,
    spin: SpinQuantum,
    n_theta: int = 181,
    n_phi: int = 361,
) -> HusimiGrid:
    """Husimi Q(theta, phi) = (2I+1)/(4 pi) <coh(theta,phi)| rho |coh(theta,phi)>.

    Each axis needs at least 2 points, or the grid spans no area and its
    sphere integral is meaningless."""
    for name, n in (("n_theta", n_theta), ("n_phi", n_phi)):
        if n < 2:
            raise ValueError(f"husimi grid size {name} must be >= 2, got {n}")
    state = np.asarray(state)
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi)
    coh = _coherent_grid(spin, thetas, phis)
    norm = (spin.dimension) / (4 * np.pi)
    if state.ndim == 1:
        proj = np.einsum("dtp,d->tp", coh, state.conj())  # conj(<coh|psi>)
        values = norm * np.abs(proj) ** 2
    else:
        values = norm * np.einsum("dtp,de,etp->tp", coh.conj(), state, coh).real
    return HusimiGrid(spin=spin, thetas=thetas, phis=phis, values=np.clip(values, 0.0, None))


def cat_coherence(state: np.ndarray, spin: SpinQuantum) -> float:
    """Magnitude of the extreme off-diagonal element |rho_{m=I, m'=-I}|."""
    state = np.asarray(state)
    d = spin.dimension
    if state.shape[0] != d:
        raise ValueError("state dimension does not match spin")
    if state.ndim == 1:
        return float(abs(state[0] * np.conj(state[d - 1])))
    return float(abs(state[0, d - 1]))


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


def save_size_series(series: SizeSeries, path, header_extra: str = "") -> None:
    """Write a two-column (t, N_eff) table with a commented header."""
    with open(path, "w") as fh:
        fh.write(f"# operator: {series.operator_tag}\n")
        if header_extra:
            fh.write(f"# {header_extra}\n")
        fh.write("# t,N_eff\n")
        for t, v in zip(series.times, series.values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def save_husimi(grid: HusimiGrid, path, header_extra: str = "") -> None:
    """Write a three-column (theta, phi, Q) table with spin and convention."""
    with open(path, "w") as fh:
        fh.write(f"# twice_i: {grid.spin.twice_i}\n")
        fh.write(f"# convention: {grid.convention}\n")
        if header_extra:
            fh.write(f"# {header_extra}\n")
        fh.write("# theta_rad,phi_rad,Q\n")
        for theta, phi, q in grid.to_table():
            fh.write(f"{float(theta)!r},{float(phi)!r},{float(q)!r}\n")
