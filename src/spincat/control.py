"""Multi-tone pulse schedules, the generalized rotating frame and the
Givens-rotation baseline.

A multi-tone pulse drives all 2I nearest-neighbor transitions at once with
per-tone amplitudes eps_j and phases phi_j; tone phases are phase-locked to
the segment's own start time.  In the generalized rotating frame (referenced
to absolute t = 0) a resonant segment becomes a time-independent tridiagonal
Hamiltonian whose couplings are (gamma_B1/2) * h_j * eps_j * exp(-i phi_j),
with h_j the Ix matrix element of transition j.  The factor 1/2 is the
rotating-wave reduction of a cosine drive; with uniform amplitudes 1/2I the
generator is gamma_B1/(4I) times a spin component, so a pi/2 rotation takes
(pi/2) * 4I / gamma_B1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import EnergyLadder
from .spin import SpinQuantum, _require_finite, spin_operators

__all__ = [
    "ToneSpec",
    "PulseSegment",
    "PulseSchedule",
    "wrap_phase",
    "rotation_duration",
    "cat_schedule",
    "rotating_frame_hamiltonian",
    "segment_rotating_hamiltonian",
    "drive_phase_offset",
    "oat_equivalent_phase_shifts",
    "givens_schedule",
]

#: A tone is treated as resonant with a ladder transition when the frequency
#: mismatch is below this fraction of the largest transition frequency.
RESONANCE_RTOL = 1e-6


def wrap_phase(x):
    """Wrap phases to the interval (-pi, pi]."""
    w = np.mod(np.asarray(x, dtype=float), 2 * np.pi)
    if w.ndim == 0:
        return float(w - 2 * np.pi) if w > np.pi else float(w)
    w = w.copy()
    w[w > np.pi] -= 2 * np.pi
    return w


@dataclass(frozen=True)
class ToneSpec:
    """One component of a multi-tone drive: frequency (rad/s), relative
    amplitude in [0, 1] and phase (rad)."""

    omega: float
    eps: float
    phi: float = 0.0

    def __post_init__(self):
        _require_finite(self, "omega", "eps", "phi")
        if not 0.0 <= self.eps <= 1.0 + 1e-12:
            raise ValueError(f"tone amplitude must lie in [0, 1], got {self.eps}")


@dataclass(frozen=True)
class PulseSegment:
    """A windowed multi-tone pulse on [t_start, t_end).

    Tone phases are locked to ``t_start``.  The summed tone amplitudes must
    not exceed 1 so the physical envelope obeys |eps(t)| <= 1.
    """

    tones: tuple
    t_start: float
    t_end: float

    def __post_init__(self):
        object.__setattr__(self, "tones", tuple(self.tones))
        if not self.tones:
            raise ValueError("segment must contain at least one tone")
        _require_finite(self, "t_start", "t_end")
        if not self.t_end > self.t_start:
            raise ValueError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")
        total = sum(t.eps for t in self.tones)
        if total > 1.0 + 1e-12:
            raise ValueError(f"summed tone amplitudes {total} exceed 1")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def envelope(self, t):
        """Drive amplitude sum_j eps_j cos(omega_j (t - t_start) + phi_j) at
        time(s) ``t``; zero outside [t_start, t_end)."""
        t = np.asarray(t, dtype=float)
        val = np.zeros_like(t)
        for tone in self.tones:
            val += tone.eps * np.cos(tone.omega * (t - self.t_start) + tone.phi)
        return np.where((t >= self.t_start) & (t < self.t_end), val, 0.0)

    def midpoint_amplitudes(self, t0: float, dt: float, n: int, chunk: int):
        """Yield :meth:`envelope` at the midpoints t0 + (k + 1/2) dt,
        k = 0 ... n - 1, ``chunk`` of them at a time.

        Each tone is a phasor: at a chunk's first midpoint t_c it is
        a_j = eps_j exp(i (omega_j (t_c - t_start) + phi_j)), and r steps
        later a_j W[j, r] with W[j, r] = exp(i omega_j r dt), a (tones, chunk)
        table built once per call.  A chunk's amplitudes are Re(a W), zero
        outside [t_start, t_end): one complex exponential per tone and one
        small real product per chunk instead of one cosine per tone and
        step.  They differ from :meth:`envelope`'s direct cosines by the
        rounding of float64 phases only (2e-12 over lab-check's 175 000
        steps at 2I = 7).
        """
        omega = np.array([tone.omega for tone in self.tones])
        eps = np.array([tone.eps for tone in self.tones])
        phi = np.array([tone.phi for tone in self.tones])
        phase = np.multiply.outer(omega, np.arange(chunk) * dt)
        # rows Re W_j and -Im W_j, so Re(a W) = [Re a_j, Im a_j] . rows: the
        # interleaved view of a times this table, one real product
        table = np.stack((np.cos(phase), -np.sin(phase)), axis=1).reshape(-1, chunk)
        del phase  # the generator's frame would keep it alive while stepping
        for k0 in range(0, n, chunk):
            t = t0 + (np.arange(k0, min(k0 + chunk, n)) + 0.5) * dt
            a = eps * np.exp(1j * (omega * (t[0] - self.t_start) + phi))
            val = a.view(float) @ table[:, : t.size]
            yield np.where((t >= self.t_start) & (t < self.t_end), val, 0.0)


@dataclass(frozen=True)
class PulseSchedule:
    """Time-ordered, non-overlapping multi-tone segments."""

    segments: tuple

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        for prev, nxt in zip(self.segments, self.segments[1:]):
            if nxt.t_start < prev.t_end:
                raise ValueError(
                    f"segments overlap: [{prev.t_start}, {prev.t_end}) and "
                    f"[{nxt.t_start}, {nxt.t_end})"
                )

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end if self.segments else 0.0

    def envelope(self, t):
        """Drive amplitude at time(s) ``t``: the sum of the segments' envelopes."""
        t = np.asarray(t, dtype=float)
        val = np.zeros_like(t)
        for seg in self.segments:
            val += seg.envelope(t)
        return val


def rotation_duration(spin: SpinQuantum, gamma_b1: float, theta: float) -> float:
    """Duration of a global rotation by ``theta`` under uniform multi-tone drive.

    The two-level Rabi frequency gamma_B1/2 is shared among the 2I tones,
    giving Omega = gamma_B1 / 4I (gamma_B1/2 for I = 1/2) and the duration
    theta / Omega.
    """
    if gamma_b1 <= 0:
        raise ValueError(f"gamma_b1 must be positive, got {gamma_b1}")
    return theta / (gamma_b1 / (2 * spin.twice_i))


def cat_schedule(freqs, delta_phi: float, t_wait: float, t_half_pi: float) -> PulseSchedule:
    """Two-pulse Ramsey-like schedule for creating and probing a cat state.

    A uniform multi-tone pi/2 segment on [0, t_half_pi] with per-tone phase 0
    is followed, after a gap ``t_wait``, by a second segment on
    [t_wait + t_half_pi, t_wait + 2 t_half_pi] with per-tone phase
    ``delta_phi`` referenced to its own start.
    """
    if t_wait < 0:
        raise ValueError(f"wait time must be >= 0, got {t_wait}")
    if t_half_pi <= 0:
        raise ValueError(f"pulse duration must be positive, got {t_half_pi}")
    freqs = np.asarray(freqs, dtype=float)
    if freqs.size == 0:
        raise ValueError("frequency vector must not be empty")
    eps = 1.0 / freqs.size
    phi2 = wrap_phase(delta_phi)
    t2 = t_wait + t_half_pi
    seg1 = PulseSegment(
        tones=tuple(ToneSpec(w, eps, 0.0) for w in freqs),
        t_start=0.0,
        t_end=t_half_pi,
    )
    seg2 = PulseSegment(
        tones=tuple(ToneSpec(w, eps, phi2) for w in freqs),
        t_start=t2,
        t_end=t2 + t_half_pi,
    )
    return PulseSchedule(segments=(seg1, seg2))


def _transition_elements(spin: SpinQuantum) -> np.ndarray:
    """Ix matrix elements h_j = <I, I-(j-1)| Ix |I, I-j> for j = 1..2I."""
    ix = spin_operators(spin).Ix
    n = spin.twice_i
    return np.array([ix[j - 1, j].real for j in range(1, n + 1)])


def rotating_frame_hamiltonian(
    tones, spin: SpinQuantum, gamma_b1: float, ladder: EnergyLadder
) -> np.ndarray:
    """Time-independent drive Hamiltonian in the generalized rotating frame.

    Each tone must be resonant with one ladder transition; its contribution
    is (gamma_B1/2) * h_j * eps * exp(-i phi) on the (j-1, j) element plus the
    conjugate below.  Counter-rotating and cross-resonant terms are dropped
    (the off-resonant flip probability in ``tests/oracles.py`` bounds their
    effect).
    """
    d = spin.dimension
    transitions = ladder.transition_freqs
    tol = RESONANCE_RTOL * np.max(np.abs(transitions))
    h_elems = _transition_elements(spin)
    h = np.zeros((d, d), dtype=complex)
    for tone in tones:
        mismatch = np.abs(transitions - tone.omega)
        j = int(np.argmin(mismatch))
        if mismatch[j] > tol:
            raise ValueError(
                f"tone at {tone.omega} rad/s matches no ladder transition "
                f"(closest off by {mismatch[j]} rad/s)"
            )
        h[j, j + 1] += 0.5 * gamma_b1 * h_elems[j] * tone.eps * np.exp(-1j * tone.phi)
    return h + h.conj().T


def drive_phase_offset(drive_axis: str) -> float:
    """Uniform tone-phase offset mapping a lab drive along the given axis onto
    the Ix-referenced rotating-frame convention (y drive leads by pi/2)."""
    if drive_axis == "x":
        return 0.0
    if drive_axis == "y":
        return np.pi / 2
    raise ValueError(f"drive_axis must be 'x' or 'y', got {drive_axis!r}")


def segment_rotating_hamiltonian(
    segment: PulseSegment,
    spin: SpinQuantum,
    gamma_b1: float,
    ladder: EnergyLadder,
    drive_axis: str = "x",
) -> np.ndarray:
    """Rotating-frame Hamiltonian of one segment, including frame bookkeeping.

    With tone phases locked to the segment's start and the rotating frame
    referenced to absolute t = 0, each tone appears in the frame with the
    effective phase phi - omega * t_start (plus the drive-axis offset).
    """
    offset = drive_phase_offset(drive_axis)
    effective = tuple(
        ToneSpec(t.omega, t.eps, wrap_phase(t.phi - t.omega * segment.t_start + offset))
        for t in segment.tones
    )
    return rotating_frame_hamiltonian(effective, spin, gamma_b1, ladder)


def oat_equivalent_phase_shifts(
    t_wait: float, omega_q_eff: float, spin: SpinQuantum
) -> np.ndarray:
    """Exact per-tone shifts realizing exp(-i t_wait omega_q_eff Iz^2) as a
    pulse-phase gauge.

    Conjugating the rotating-frame drive by the twisting diagonal shifts each
    tone by the twisting-phase difference across the two levels it connects,

        delta_j = t_wait * omega_q_eff * ((I-j+1)^2 - (I-j)^2),

    linear in the lower level I-j.  Adding these shifts to a pulse applied to
    a twisting eigenstate (e.g. |I,I>) reproduces pulse-after-free-evolution
    exactly; subtracting them from later pulses is what physically waiting
    ``t_wait`` does to their phases in the generalized rotating frame.
    """
    n = spin.twice_i
    j = np.arange(1, n + 1)
    k = spin.i - j
    return t_wait * omega_q_eff * (2 * k + 1)


def givens_schedule(
    spin: SpinQuantum, gamma_b1: float, ladder: EnergyLadder, mode: str = "create"
) -> PulseSchedule:
    """Sequential single-tone (Givens) pulse schedule for cat creation/collapse.

    Create mode: one pi/2 pulse on the top transition followed by 2I-1 pi
    pulses stepping down the ladder, leaving (|I,I> + e^{i chi} |I,-I>)/sqrt2.
    Collapse mode appends the mirrored sequence (2I-1 pi pulses from the top
    transition down, then a pi/2 pulse on the bottom transition), 4I pulses
    in total, ending in |I,-I>.

    Each segment drives one transition with amplitude min(1, 1/h_j), so the
    pair Rabi frequency is gamma_B1 wherever the matrix element allows, and
    the pulse duration is theta / (gamma_B1 * h_j * eps_j).
    """
    if gamma_b1 <= 0:
        raise ValueError(f"gamma_b1 must be positive, got {gamma_b1}")
    if mode not in ("create", "collapse"):
        raise ValueError(f"mode must be 'create' or 'collapse', got {mode!r}")
    n = spin.twice_i
    h_elems = _transition_elements(spin)
    transitions = ladder.transition_freqs

    pulses = [(1, np.pi / 2)]
    pulses += [(j, np.pi) for j in range(2, n + 1)]
    if mode == "collapse":
        pulses += [(j, np.pi) for j in range(1, n)]
        pulses += [(n, np.pi / 2)]

    segments = []
    t = 0.0
    for j, theta in pulses:
        eps = min(1.0, 1.0 / h_elems[j - 1])
        rabi = gamma_b1 * h_elems[j - 1] * eps
        duration = theta / rabi
        tone = ToneSpec(float(transitions[j - 1]), eps, 0.0)
        segments.append(PulseSegment(tones=(tone,), t_start=t, t_end=t + duration))
        t += duration
    return PulseSchedule(segments=tuple(segments))
