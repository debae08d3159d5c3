import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from spincat.control import (
    PulseSegment,
    PulseSchedule,
    ToneSpec,
    cat_schedule,
    givens_schedule,
    oat_equivalent_phase_shifts,
    rotating_frame_hamiltonian,
    rotation_duration,
    segment_rotating_hamiltonian,
    wrap_phase,
)
from spincat.hamiltonian import FieldSpec, QuadrupoleSpec, energy_ladder, static_hamiltonian
from spincat.spin import SpinQuantum, coherent_state, eigenstate, fidelity, spin_operators

TWO_PI = 2 * np.pi
GB0 = TWO_PI * 8.25e6
GB1 = TWO_PI * 800.0
WQ = TWO_PI * 40e3


def paper_ladder(twice_i=7):
    spin = SpinQuantum(twice_i)
    h = static_hamiltonian(FieldSpec(GB0, GB1), QuadrupoleSpec(WQ), spin)
    return spin, energy_ladder(h, spin)


def test_wrap_phase_interval():
    assert wrap_phase(np.pi) == pytest.approx(np.pi)
    assert wrap_phase(-np.pi) == pytest.approx(np.pi)
    assert wrap_phase(-3 * np.pi) == pytest.approx(np.pi)
    assert wrap_phase(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    arr = wrap_phase(np.array([0.0, 2 * np.pi, -0.1]))
    assert_allclose(arr, [0.0, 0.0, -0.1], atol=1e-14)


def test_multitone_envelope_extremes():
    freqs = np.linspace(1e6, 2e6, 7)

    def segment(phi):
        return PulseSegment(tuple(ToneSpec(w, 1 / 7, phi) for w in freqs), 0.0, 1.0)

    assert segment(0.0).envelope(0.0) == pytest.approx(1.0)
    assert segment(np.pi / 2).envelope(0.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        PulseSegment((), 0.0, 1.0)


def test_multitone_envelope_brute_force():
    # the first pulse of the cat schedule: equal amplitudes 1/2I, phase 0
    spin, ladder = paper_ladder()
    freqs = ladder.transition_freqs
    t = 1e-6
    first = cat_schedule(freqs, 0.0, 7.5e-6, 4.375e-3).segments[0]
    expected = sum(math.cos(w * t) for w in freqs) / len(freqs)
    assert first.envelope(t) == pytest.approx(expected, rel=1e-12)


def test_rotation_duration_paper_values():
    spin = SpinQuantum(7)
    assert rotation_duration(spin, GB1, np.pi / 2) == pytest.approx(4.375e-3, rel=1e-12)
    assert rotation_duration(spin, GB1, np.pi) == pytest.approx(8.75e-3, rel=1e-12)
    # two-level limit recovers the bare Rabi frequency gamma_B1 / 2
    assert rotation_duration(SpinQuantum(1), GB1, np.pi) == pytest.approx(np.pi / (GB1 / 2))
    with pytest.raises(ValueError):
        rotation_duration(spin, 0.0, np.pi)


def test_cat_schedule_layout():
    spin, ladder = paper_ladder()
    freqs = ladder.transition_freqs
    t_half = rotation_duration(spin, GB1, np.pi / 2)
    sched = cat_schedule(freqs, np.pi / 2, 0.0, t_half)
    assert len(sched.segments) == 2
    assert sched.segments[0].t_start == 0.0
    assert sched.segments[0].t_end == pytest.approx(t_half)
    assert sched.segments[1].t_start == pytest.approx(t_half)
    assert sched.t_end == pytest.approx(2 * t_half)
    with pytest.raises(ValueError):
        cat_schedule(freqs, 0.0, -1e-6, t_half)


def test_cat_schedule_phase_arithmetic():
    # delta_phi = pi/2 + gamma*B0*T at T = 12.5 us wraps to 3 pi / 4
    spin, ladder = paper_ladder()
    delta_phi = np.pi / 2 + GB0 * 12.5e-6
    sched = cat_schedule(ladder.transition_freqs, delta_phi, 12.5e-6, 4.375e-3)
    stored = sched.segments[1].tones[0].phi
    assert stored == pytest.approx(3 * np.pi / 4, abs=1e-6)
    assert -np.pi < stored <= np.pi


def test_cat_schedule_envelope_budget():
    rng = np.random.default_rng(2)
    spin, ladder = paper_ladder()
    freqs = ladder.transition_freqs
    sched = cat_schedule(freqs, rng.uniform(-np.pi, np.pi), 3e-6, 1e-3)
    ts = rng.uniform(0, sched.t_end, size=4000)
    env = sched.envelope(ts)
    assert np.max(np.abs(env)) <= 1.0 + 1e-12
    # a scalar time, inside a segment, in the gap and past the end, takes
    # the array path: same value as that time inside an array
    seg = sched.segments[1]
    for t in (0.5e-3, seg.t_start + 0.25e-3, 1.0e-3 + 1e-6, sched.t_end + 1e-6):
        for source in (sched, seg):
            assert source.envelope(t) == source.envelope(np.array([t, 0.0]))[0]
    assert sched.envelope(1.0e-3 + 1e-6) == 0.0


def test_rotating_frame_uniform_phases_collective_generator():
    spin, ladder = paper_ladder()
    ops = spin_operators(spin)
    n = spin.twice_i
    tones_x = tuple(ToneSpec(w, 1 / n, 0.0) for w in ladder.transition_freqs)
    h_x = rotating_frame_hamiltonian(tones_x, spin, GB1, ladder)
    assert_allclose(h_x, GB1 * ops.Ix / (2 * n), atol=1e-12 * GB1)
    # the collective generator is gamma_B1/(4I) Ix: a pi/2 pulse of the
    # published duration rotates |I,I> onto the equator with unit fidelity
    t_half = rotation_duration(spin, GB1, np.pi / 2)
    u = scipy.linalg.expm(-1j * h_x * t_half)
    out = u @ eigenstate(spin, spin.i)
    assert fidelity(out, coherent_state(spin, np.pi / 2, -np.pi / 2)) > 1 - 1e-9

    tones_y = tuple(ToneSpec(w, 1 / n, np.pi / 2) for w in ladder.transition_freqs)
    h_y = rotating_frame_hamiltonian(tones_y, spin, GB1, ladder)
    assert_allclose(h_y, GB1 * ops.Iy / (2 * n), atol=1e-12 * GB1)
    u = scipy.linalg.expm(-1j * h_y * t_half)
    out = u @ eigenstate(spin, spin.i)
    assert fidelity(out, coherent_state(spin, np.pi / 2, 0.0)) > 1 - 1e-9


def test_rotating_frame_top_matrix_element():
    spin, ladder = paper_ladder()
    tone = (ToneSpec(ladder.transition_freqs[0], 1.0, 0.0),)
    h = rotating_frame_hamiltonian(tone, spin, GB1, ladder)
    assert h[0, 1] == pytest.approx(0.5 * GB1 * math.sqrt(7) / 2, rel=1e-12)


def test_rotating_frame_rejects_off_resonant_tone():
    spin, ladder = paper_ladder()
    bad = (ToneSpec(ladder.transition_freqs[0] + 10 * WQ, 0.5, 0.0),)
    with pytest.raises(ValueError):
        rotating_frame_hamiltonian(bad, spin, GB1, ladder)


def test_segment_frame_bookkeeping():
    # a segment starting at t0, its tones locked to t0, appears in the rotating
    # frame with phases shifted by -omega * t0 (plus the drive-axis offset)
    spin, ladder = paper_ladder()
    n = spin.twice_i
    t0 = 1.25e-6
    seg = PulseSegment(
        tones=tuple(ToneSpec(w, 1 / n, 0.3) for w in ladder.transition_freqs),
        t_start=t0,
        t_end=t0 + 1e-3,
    )
    h = segment_rotating_hamiltonian(seg, spin, GB1, ladder, drive_axis="x")
    expected_tones = tuple(
        ToneSpec(w, 1 / n, wrap_phase(0.3 - w * t0))
        for w in ladder.transition_freqs
    )
    assert_allclose(
        h, rotating_frame_hamiltonian(expected_tones, spin, GB1, ladder), atol=1e-12 * GB1
    )


@pytest.mark.parametrize("t_wait", [0.3e-6, 6.25e-6])
@pytest.mark.parametrize("twice_i", [3, 7])
def test_oat_phase_shifts_are_minus_the_steps_of_the_published_level_phases(twice_i, t_wait):
    # the paper's rule phases level I - j by T w_eff ((I - j)^2 - I^2), the
    # top level (j = 0) by 0; tone j connects levels j - 1 and j.  At 0.3 us
    # the sign of the difference matters, at the cat time 6.25 us it does not.
    spin = SpinQuantum(twice_i)
    j = np.arange(twice_i + 1)
    level_phases = t_wait * WQ * ((spin.i - j) ** 2 - spin.i ** 2)
    residual = wrap_phase(oat_equivalent_phase_shifts(t_wait, WQ, spin) + np.diff(level_phases))
    assert np.max(np.abs(residual)) <= 1e-12


@pytest.mark.parametrize("twice_i", [3, 5, 7])
def test_oat_phase_shift_equivalence_random_waits(twice_i):
    # pulse/free-twist/pulse equals pulse-with-shifts/pulse exactly when the
    # shifted pulse acts on the twisting eigenstate |I,I>
    spin = SpinQuantum(twice_i)
    h_static = static_hamiltonian(FieldSpec(GB0, GB1), QuadrupoleSpec(WQ), spin)
    ladder = energy_ladder(h_static, spin)
    n = spin.twice_i
    t_half = rotation_duration(spin, GB1, np.pi / 2)
    psi0 = eigenstate(spin, spin.i)
    omega_eff = WQ
    rng = np.random.default_rng(twice_i)

    def pulse(phases):
        tones = tuple(
            ToneSpec(w, 1 / n, p) for w, p in zip(ladder.transition_freqs, phases)
        )
        h = rotating_frame_hamiltonian(tones, spin, GB1, ladder)
        return scipy.linalg.expm(-1j * h * t_half)

    u_base = pulse(np.zeros(n))
    for t_wait in rng.uniform(0.0, 4 * np.pi / omega_eff, size=5):
        twist = np.exp(-1j * t_wait * omega_eff * spin.m_values ** 2)
        reference = u_base @ (twist * (u_base @ psi0))
        shifts = oat_equivalent_phase_shifts(t_wait, omega_eff, spin)
        virtual = u_base @ (pulse(shifts) @ psi0)
        assert fidelity(virtual, reference) > 1 - 1e-9
        # the conjugate form: shifting the later pulse by -shifts equals the
        # reference up to the twisting diagonal itself
        undone = twist * (pulse(-shifts) @ (u_base @ psi0))
        assert fidelity(undone, reference) > 1 - 1e-9


def test_givens_schedule_shapes():
    spin_half = SpinQuantum(1)
    h = static_hamiltonian(FieldSpec(GB0, GB1), QuadrupoleSpec(0.0), spin_half)
    ladder_half = energy_ladder(h, spin_half)
    create = givens_schedule(spin_half, GB1, ladder_half, "create")
    assert len(create.segments) == 1  # single pi/2 pulse

    spin, ladder = paper_ladder()
    create = givens_schedule(spin, GB1, ladder, "create")
    collapse = givens_schedule(spin, GB1, ladder, "collapse")
    assert len(create.segments) == 7  # 1 + (2I - 1)
    assert len(collapse.segments) == 14  # 4I
    # every pulse drives a single transition at unit pair-Rabi frequency,
    # so pi pulses last pi/gamma_B1 = 0.625 ms and the total sits near 9 ms
    assert collapse.t_end == pytest.approx(8.125e-3, rel=1e-12)
    for seg in collapse.segments:
        assert len(seg.tones) == 1
    with pytest.raises(ValueError):
        givens_schedule(spin, GB1, ladder, "reverse")


def test_midpoint_amplitudes_follow_the_envelope_and_its_half_open_window():
    # midpoints -0.25, 0.0, 0.25, ..., 1.25 are exact binary fractions, so
    # two fall exactly on t_start = 0 (inside) and t_end = 1 (outside);
    # chunks of 3 over 7 steps end with a short one; the phases phi_j +
    # 0.3 omega_j are those of tones locked to 0.3 before t_start
    seg = PulseSegment(
        (ToneSpec(3.0, 0.5, 0.4 + 0.3 * 3.0), ToneSpec(-7.5, 0.25, -1.0 + 0.3 * -7.5)), 0.0, 1.0
    )
    t_mid = -0.25 + 0.25 * np.arange(7)
    chunks = list(seg.midpoint_amplitudes(-0.375, 0.25, 7, 3))
    assert [c.size for c in chunks] == [3, 3, 1]
    amplitudes = np.concatenate(chunks)
    direct = seg.envelope(t_mid)
    assert np.max(np.abs(amplitudes - direct)) <= 4 * np.spacing(1.0)
    assert amplitudes[1] != 0.0 and direct[1] != 0.0  # t = t_start
    assert amplitudes[[0, 5, 6]].tolist() == [0.0, 0.0, 0.0]  # t < t_start, t = t_end, t > t_end


def test_segment_validation():
    tone = ToneSpec(1e6, 0.6)
    with pytest.raises(ValueError):
        PulseSegment(tones=(tone, tone), t_start=0.0, t_end=1.0)  # eps sum > 1
    with pytest.raises(ValueError):
        PulseSegment(tones=(tone,), t_start=1.0, t_end=1.0)
    with pytest.raises(ValueError):
        ToneSpec(1e6, 1.5)
    for field, args in (
        ("omega", (np.inf, 0.5)), ("eps", (1e6, np.nan)), ("phi", (1e6, 0.5, np.nan))
    ):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ToneSpec(*args)
    # the window must be finite too, so every envelope value is a finite
    # sum of tones, |f| <= summed amplitudes <= 1
    for field, kwargs in (
        ("t_start", dict(t_start=-np.inf)),
        ("t_end", dict(t_end=np.inf)),
        ("t_start", dict(t_start=np.nan)),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            PulseSegment(**{"tones": (tone,), "t_start": 0.0, "t_end": 1.0, **kwargs})
    assert PulseSegment((tone, ToneSpec(2e6, 0.4 + 1e-13)), 0.0, 1.0).duration == 1.0
    seg1 = PulseSegment(tones=(tone,), t_start=0.0, t_end=2.0)
    seg2 = PulseSegment(tones=(tone,), t_start=1.0, t_end=3.0)
    with pytest.raises(ValueError):
        PulseSchedule(segments=(seg1, seg2))
