"""Evolvers for the Schroedinger and Lindblad equations.

A constant generator (-iH, or the Lindblad Liouvillian) is propagated
exactly from one stored sample to the next: the samples are equally spaced,
so a run takes one matrix exponential, ``scipy.linalg.expm``, the package's
only use of scipy (imported by :func:`_sample_exact` alone).  The other
exponentials use their structure: :func:`propagator` takes exp(-i H t)
from the eigendecomposition of the Hermitian H.  A time-dependent H is a
:class:`Drive`, H(t) = h0 + f(t) x with f the envelope of a multi-tone
pulse, |f| <= 1, stepped by the midpoint rule exp(-i H(t_mid) dt).  The
amplitudes c = f(t_mid) come from tone phasors, one small product per
chunk of steps.  Every step map is one polynomial in c, sum_j c^j M_j; its
coefficients come once per run from the exponential of a block-bidiagonal
matrix, a Taylor sum on its first block row.  Two consecutive steps a, b
are one polynomial in both amplitudes, sum_ji c_b^j c_a^i (M_j M_i), so
the steps of a chunk become one such map per pair (and one single-step map
for an odd last step), multiplied pairwise and taken one Newton-Schulz
step toward unitarity.  Both evolvers check their conservation laws (norm,
trace, positivity) at every stored sample.

A unitary Hamiltonian source is either a constant (d, d) matrix or a
:class:`Drive`, whose run stores its first and last states only.  The
Lindblad evolver takes only a constant (d, d) matrix.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .control import PulseSegment
from .spin import _require_finite, check_density_matrix, check_pure_state, is_hermitian

__all__ = [
    "IntegrationError",
    "DecoherenceSpec",
    "TimeGrid",
    "Trajectory",
    "Drive",
    "propagator",
    "evolve_unitary",
    "evolve_lindblad",
]

#: Default step of time-dependent (lab-frame) runs: it resolves the Larmor
#: scale and matches the 1 ns waveform-generator resolution.
LAB_FRAME_DT = 1e-9

NORM_ABORT_TOL = 1e-6
TRACE_ABORT_TOL = 1e-8
POSITIVITY_FLOOR = -1e-7

#: Size of one chunk's stack of complex step maps in evolve_unitary: 256
#: maps of two steps each at d = 8, 1024 at d = 4.  Larger chunks buy little
#: speed and grow the peak memory of long lab-frame runs.
CHUNK_BYTES = 256 * 1024

#: Bound on the truncated tail of the step-map polynomial in the drive
#: amplitude and of the Taylor sum that gives its coefficients; each degree
#: is the smallest that meets it (see evolve_unitary).
TAYLOR_TAIL_TOL = 1e-18

#: Largest 1-norm whose exponential is summed as a Taylor series unscaled;
#: a larger matrix is halved until it is not, and the sum squared back.
TAYLOR_SCALE_NORM = 2.0


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

    The span is divided into the fewest equal steps no longer than ``dt``
    whose count is a multiple of ``output_stride``; the first and every
    ``output_stride``-th state are stored (the default ``None``: the first
    and last only), so the stored samples are equally spaced and the last
    falls on ``t_end``.  Only a constant generator takes a stride.
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
        stride = self.output_stride or 1
        n = max(1, int(np.ceil(self.span / self.dt - 1e-9)))
        return -(-n // stride) * stride

    @property
    def step(self) -> float:
        return self.span / self.n_steps

    @property
    def sample_steps(self) -> np.ndarray:
        """Step counts of the stored states, ascending from 0 to n_steps."""
        n = self.n_steps
        return np.arange(0, n + 1, self.output_stride or n)


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


@dataclass(frozen=True, eq=False)
class Drive:
    """Time-dependent Hamiltonian H(t) = h0 + f(t) x, f = pulse.envelope.

    ``h0`` and ``x`` are Hermitian (d, d) matrices; ``pulse`` is a
    :class:`PulseSegment`, whose tones are finite with summed amplitudes at
    most 1 (+1e-12 rounding), so |f| <= 1 at every time.
    """

    h0: np.ndarray
    x: np.ndarray
    pulse: PulseSegment

    def __post_init__(self):
        if not isinstance(self.pulse, PulseSegment):
            got = type(self.pulse).__name__
            raise TypeError(f"drive.pulse must be a PulseSegment, got {got}")


def propagator(h: np.ndarray, dt: float) -> np.ndarray:
    """Unitary propagator exp(-i H dt) for Hermitian H, for any dt:
    V exp(-i Lambda dt) V^dagger from the eigendecomposition H = V Lambda V^dagger."""
    h = np.asarray(h)
    if not is_hermitian(h):
        raise ValueError("propagator requires a Hermitian generator")
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * dt * lam)) @ v.conj().T


def _chunk_steps(d: int) -> int:
    """Steps per chunk of time-dependent unitary stepping at dimension d:
    two per map, so that the chunk's maps take ``CHUNK_BYTES``."""
    return 2 * max(1, CHUNK_BYTES // (16 * d * d))


def _drive_terms(drive: Drive, d: int) -> tuple:
    """h0 and x of a drive as complex (d, d) arrays, each checked Hermitian."""
    terms = []
    for name in ("h0", "x"):
        a = np.asarray(getattr(drive, name), dtype=complex)
        if a.shape != (d, d):
            raise ValueError(f"drive.{name} must have shape {(d, d)}, got shape {a.shape}")
        if not is_hermitian(a):
            raise ValueError(f"drive.{name} is not Hermitian")
        terms.append(a)
    return tuple(terms)


def _tail_degree(a: float) -> int:
    """The smallest degree p with a^(p+1) / (p+1)! e^a <= ``TAYLOR_TAIL_TOL``:
    the bound on the tail past degree p of a series whose terms are at most
    a^j / j!."""
    p, term = 0, a
    while term * np.exp(a) > TAYLOR_TAIL_TOL:
        p += 1
        term *= a / (p + 1)
    return p


def _bidiagonal_expm(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """E_0 ... E_p as a (p + 1, d, d) stack: the first block row of exp(T),
    T the (p + 1)-block upper bidiagonal matrix with ``a`` on its diagonal
    and ``b`` above it.

    T's powers, and so exp(T), are block upper triangular Toeplitz, each
    given by its first block row; the product of two is the convolution
    (XY)_j = sum_i X_i Y_(j-i), and (TY)_j = a Y_j + b Y_(j-1).  T is
    halved s times, until theta = ||T / 2^s||_1 <= ``TAYLOR_SCALE_NORM``;
    the Taylor sum I + T(I + T/2 (I + ... (I + T/q))) in Horner form stops
    at q = :func:`_tail_degree` (theta) and is squared s times.  For an
    upper triangular ``a`` (a diagonal h0), T is upper triangular and the
    diagonal of E_0 is set to the exponentials of a's scaled diagonal after
    the sum and after every square, as exp(T) has it exactly (Al-Mohy &
    Higham 2009, sec. 2).
    """
    theta = float((np.abs(a) + np.abs(b)).sum(axis=0).max())
    s = int(np.ceil(np.log2(theta / TAYLOR_SCALE_NORM))) if theta > TAYLOR_SCALE_NORM else 0
    a, b = a / 2.0 ** s, b / 2.0 ** s
    eye = np.zeros((p + 1,) + a.shape, dtype=complex)
    eye[0] = np.eye(len(a))
    e = eye
    for k in range(_tail_degree(theta / 2.0 ** s), 0, -1):
        te = a @ e
        te[1:] += b @ e[:-1]
        e = eye + te / k
    triangular = not np.tril(a, -1).any()
    for k in range(s + 1):
        if k:
            square = e[0] @ e
            for i in range(1, p + 1):
                square[i:] += e[i] @ e[: p + 1 - i]
            e = square
        if triangular:
            np.fill_diagonal(e[0], np.exp(np.diagonal(a) * 2.0 ** k))
    return e


def _step_map_coefficients(h0: np.ndarray, x: np.ndarray, dt: float) -> np.ndarray:
    """M_0 ... M_p, flattened to (p + 1, d*d), with
    exp(-i (h0 + c x) dt) = sum_j c^j M_j + O(tail) for |c| <= 1.

    With a = ||x||_2 dt, ||M_j|| <= a^j / j! (the Dyson series of a unitary
    flow), so the tail past degree p is at most a^(p+1) / (p+1)! e^a; p is
    the smallest degree for which that is <= ``TAYLOR_TAIL_TOL``.  The M_j
    are the first block row of the exponential of the (p+1)-block
    bidiagonal matrix with A = -i h0 dt on the diagonal and B = -i x dt
    above it (Van Loan 1978; Najfeld & Havel 1995), from
    :func:`_bidiagonal_expm`.  That matrix's 1-norm is below 1 at 1 ns
    steps (0.09 at 2I = 3, 0.26 at 2I = 7), so its Taylor sum is not scaled
    there.
    """
    a = float(np.linalg.norm(x, 2)) * dt
    if a > 1.0:
        raise ValueError(
            f"drive step ||x||_2 dt = {a:.3g} > 1: the step-map series grows "
            f"before it converges; reduce dt (currently {dt})"
        )
    p = _tail_degree(a)
    return _bidiagonal_expm(-1j * dt * h0, -1j * dt * x, p).reshape(p + 1, -1)


def _pair_coefficients(m: np.ndarray, d: int) -> np.ndarray:
    """N_ji = M_j @ M_i in row j (p + 1) + i of a ((p + 1)^2, d*d) array,
    from the (p + 1, d*d) step-map coefficients M_j: the map of two steps,
    c_a then c_b, is sum_ji c_b^j c_a^i N_ji, the product of their two
    truncated polynomials."""
    m = m.reshape(-1, d, d)
    return (m[:, None] @ m[None, :]).reshape(len(m) ** 2, d * d)


def _pair_maps(
    c: np.ndarray, coeffs: np.ndarray, pair_coeffs: np.ndarray, d: int, out: np.ndarray
) -> np.ndarray:
    """The maps of a run of steps with amplitudes ``c``, as a (k, d, d)
    stack in time order: sum_ji c_b^j c_a^i N_ji for each pair of steps
    a, b, then sum_j c^j M_j for the last step of an odd run.

    ``coeffs`` holds the M_j and ``pair_coeffs`` the N_ji of
    :func:`_pair_coefficients`, both with real and imaginary parts
    interleaved, so the real monomials multiply them in one real product.
    The maps are written to the first k rows of ``out``, a float array of
    2 d^2 columns, and returned as a complex view of them.
    """
    n = len(coeffs)
    # c^0 ... c^p by repeated multiplication: np.power takes libm's slow
    # path on negative bases
    powers = np.empty((n, c.size))
    powers[0] = 1.0
    for j in range(1, n):
        np.multiply(powers[j - 1], c, out=powers[j])
    half = c.size // 2
    # monomials[j, i, k] = c_b^j c_a^i for pair k, steps a = 2k and b = 2k + 1;
    # einsum, unlike a broadcast product, takes no scratch buffer beside ``out``
    monomials = np.einsum("jk,ik->jik", powers[:, 1 : 2 * half : 2], powers[:, 0 : 2 * half : 2])
    maps = out[: half + c.size % 2]
    np.matmul(monomials.reshape(n * n, half).T, pair_coeffs, out=maps[:half])
    if c.size % 2:
        np.matmul(powers[:, -1], coeffs, out=maps[half])
    return maps.view(complex).reshape(-1, d, d)


def _run_map(u: np.ndarray) -> np.ndarray:
    """u[-1] @ ... @ u[0] for a (k, d, d) stack of step maps, multiplied
    pairwise in ceil(log2 k) batched matmuls, then taken one Newton-Schulz
    step toward the nearest unitary.  The levels of products go back and
    forth between one new array of half u's length and u itself, which they
    overwrite."""
    k, work = len(u), np.empty_like(u[: (len(u) + 1) // 2])
    while k > 1:
        np.matmul(u[1:k:2], u[0 : k - 1 : 2], out=work[: k // 2])
        if k % 2:
            work[k // 2] = u[k - 1]
        u, work, k = work, u, (k + 1) // 2
    u = u[0]
    # Every map carries the same rounded M_0 (M_0 M_0 in a pair map), whose
    # fixed unitarity defect adds up coherently: over lab-check's 175 000
    # steps the norm drifts by -3.4e-13, its sign set by how M_0 happens to
    # round.  The Newton-Schulz step 1.5 U - 0.5 U U^dagger U cancels the
    # accumulated defect once per run and leaves ~1e-15.
    return 1.5 * u - 0.5 * (u @ (u.conj().T @ u))


def _sample_exact(g: np.ndarray, x0: np.ndarray, n: int) -> np.ndarray:
    """exp(g k) x0 for k = 0 ... n - 1, stacked along the first axis, where
    ``g`` is the generator times the one gap between samples: -i H times
    the gap, or the Lindblad Liouvillian times it.

    One ``scipy.linalg.expm`` gives U = exp(g); the samples are filled by
    doubling: the known states times U, then U^2, U^4, ..., one batched
    product each, so ceil(log2 n) products instead of n - 1.  This is the
    package's only use of scipy, imported here, so the commands that take
    no sampled run (all but ``tact``, ``ramsey`` and ``decoherence``) do
    not load it.
    """
    import scipy.linalg  # here, not at module level: only sampled runs pay its import

    xs = np.empty((n,) + x0.shape, dtype=complex)
    xs[0] = x0
    power, done = scipy.linalg.expm(g).T, 1  # xs[k] @ power is xs[k + done]
    while done < n:
        k = min(done, n - done)
        np.matmul(xs[:k], power, out=xs[done : done + k])
        done += k
        if done < n:
            power = power @ power
    return xs


def evolve_unitary(h, psi0, grid: TimeGrid) -> Trajectory:
    """Integrate the Schroedinger equation over the grid.

    ``h`` is either a constant (d, d) Hermitian matrix, propagated exactly
    from one stored sample to the next by one exponential over the grid's
    one gap between samples (see :func:`_sample_exact`), or a :class:`Drive`
    H(t) = h0 + f(t) x, stepped by the midpoint rule exp(-i H(t_mid) dt).

    For a drive, h0 and x are checked Hermitian once, and the step map is
    the polynomial sum_j c^j M_j in c = f(t_mid): its coefficients come from
    one matrix exponential per call, and its degree p is the smallest with
    a^(p+1) / (p+1)! e^a <= 1e-18, a = ||x||_2 dt (4 for lab-check at
    1 ns; more at coarser steps).  A step with a > 1 is refused.  The map
    of two consecutive steps a, b is the product of their polynomials,
    sum_ji c_b^j c_a^i N_ji with N_ji = M_j @ M_i: its (p + 1)^2
    coefficients come from one batched product per call, and it adds no
    truncation of its own.  The amplitudes come a chunk of steps at a time
    (``CHUNK_BYTES`` of pair maps) from
    :meth:`PulseSegment.midpoint_amplitudes`: per chunk one complex
    exponential per tone and one small product with a phasor table built
    once per call, |c| <= 1 by the segment's own checks.  In a chunk each
    pair of steps takes one pair map and an odd last step one single-step
    map, all written to one buffer allocated per call; the maps are
    multiplied pairwise in place, and their product is taken one
    Newton-Schulz step toward unitarity before it acts on the state, so the
    state takes one matrix-vector product per chunk.  A drive run stores
    its first and last states only: a grid with an ``output_stride`` is
    refused.

    The state norm is checked at every stored sample; a drift beyond 1e-6
    aborts.
    """
    psi = np.array(check_pure_state(psi0), dtype=complex)
    dt = grid.step
    steps = grid.sample_steps

    if isinstance(h, Drive):
        if grid.output_stride is not None:
            raise ValueError(
                "a Drive run stores its first and last states only; "
                f"output_stride must be None, got {grid.output_stride!r}"
            )
        d = psi.size
        h0, x = _drive_terms(h, d)
        m = _step_map_coefficients(h0, x, dt)
        coeffs, pair_coeffs = m.view(float), _pair_coefficients(m, d).view(float)
        chunk = _chunk_steps(d)
        # one buffer takes every chunk's maps: a new CHUNK_BYTES array per
        # chunk costs fresh pages whenever the allocator has returned the
        # last one to the system (~2900 page faults per lab_pulses pass)
        maps = np.empty((chunk // 2, 2 * d * d))
        states = [psi]
        for c in h.pulse.midpoint_amplitudes(grid.t_start, dt, grid.n_steps, chunk):
            psi = _run_map(_pair_maps(c, coeffs, pair_coeffs, d, maps)) @ psi
        states.append(psi)
        hint = f"; reduce dt (currently {dt})"
    else:
        h = np.asarray(h, dtype=complex)
        if not is_hermitian(h):
            raise ValueError("evolve_unitary requires a Hermitian Hamiltonian")
        states = _sample_exact(-1j * h * (steps[1] * dt), psi, len(steps))
        hint = ""

    traj = Trajectory(times=grid.t_start + steps * dt, states=np.asarray(states))
    norms = np.linalg.norm(traj.states[1:], axis=1)
    bad = ~(np.abs(norms - 1.0) <= NORM_ABORT_TOL)  # True for NaN
    if bad.any():
        i = int(np.argmax(bad))
        raise IntegrationError(f"norm drifted to {norms[i]} at t = {traj.times[i + 1]}{hint}")
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
    gap = steps[1] * grid.step
    states = np.reshape(_sample_exact(liouvillian * gap, rho.ravel(), len(steps)), (-1, d, d))
    states[1:] = (states[1:] + states[1:].conj().swapaxes(-1, -2)) / 2
    times = grid.t_start + steps * grid.step
    traces = np.trace(states[1:], axis1=1, axis2=2).real
    lows = np.linalg.eigvalsh(states[1:]).min(axis=1)
    bad_trace = ~(np.abs(traces - 1.0) <= TRACE_ABORT_TOL)  # True for NaN
    bad = bad_trace | ~(lows >= POSITIVITY_FLOOR)
    if bad.any():
        i = int(np.argmax(bad))
        t = times[i + 1]
        if bad_trace[i]:
            raise IntegrationError(f"trace drifted to {traces[i]} at t = {t}")
        raise IntegrationError(f"eigenvalue {lows[i]} below {POSITIVITY_FLOOR} at t = {t}")
    return Trajectory(times=times, states=states)
