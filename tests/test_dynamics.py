import re

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from spincat.control import PulseSegment, ToneSpec, cat_schedule, rotation_duration
from spincat.dynamics import (
    CHUNK_BYTES,
    TAYLOR_SCALE_NORM,
    TAYLOR_TAIL_TOL,
    DecoherenceSpec,
    Drive,
    IntegrationError,
    TimeGrid,
    _chunk_steps,
    _pair_coefficients,
    _pair_maps,
    _sample_exact,
    _step_map_coefficients,
    evolve_lindblad,
    evolve_unitary,
    propagator,
)
from spincat.hamiltonian import FieldSpec, QuadrupoleSpec, energy_ladder, static_hamiltonian
from spincat.scenarios import _ladder, _pulse_pair, paper_config
from spincat.spin import SpinQuantum, coherent_state, eigenstate, fidelity, spin_operators

from oracles import reference_final_state, reference_lindblad_state, reference_lindblad_step

TWO_PI = 2 * np.pi
GB0 = TWO_PI * 8.25e6
WQ = TWO_PI * 40e3


def random_hermitian(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, dt=-1e-3)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, dt=1e-3)
    for stride in (0, 2.5, True, "3"):
        with pytest.raises(ValueError, match="output_stride must be None or an integer >= 1"):
            TimeGrid(0.0, 1.0, dt=1e-3, output_stride=stride)
    for field, kwargs in (
        ("dt", dict(dt=np.nan)),
        ("dt", dict(dt=np.inf)),
        ("t_start", dict(t_start=np.nan)),
        ("t_end", dict(t_end=np.inf)),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TimeGrid(**{"t_start": 0.0, "t_end": 1.0, "dt": 1e-3, **kwargs})
    grid = TimeGrid(0.0, 1.0, dt=0.3)
    assert grid.n_steps == 4
    assert grid.step == pytest.approx(0.25)
    assert grid.sample_steps.tolist() == [0, 4]
    # a stride rounds the step count up to a multiple of it: 12 steps, not 10
    strided = TimeGrid(0.0, 1.0, dt=0.1, output_stride=4)
    assert strided.sample_steps.tolist() == [0, 4, 8, 12]
    assert strided.step <= strided.dt
    assert TimeGrid(0.0, 1.0, dt=0.1, output_stride=1).sample_steps.tolist() == list(range(11))


def test_propagator_identity_and_diagonal():
    spin = SpinQuantum(7)
    ops = spin_operators(spin)
    assert_allclose(propagator(ops.Ix, 0.0), np.eye(8), atol=1e-15)
    u = propagator(np.asarray(ops.Iz) * np.pi, 1.0)
    assert_allclose(np.diag(u), np.exp(-1j * np.pi * spin.m_values), atol=1e-12)


def test_propagator_semigroup_and_unitarity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        h = random_hermitian(8, rng)
        dt = rng.uniform(0.01, 0.5)
        u1 = propagator(h, dt)
        u2 = propagator(h, 2 * dt)
        assert np.linalg.norm(u1 @ u1 - u2) < 1e-12 * np.linalg.norm(u2)
        assert np.linalg.norm(u1.conj().T @ u1 - np.eye(8)) < 1e-12


def test_propagator_rejects_non_hermitian():
    with pytest.raises(ValueError):
        propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)


def tilted_static_hamiltonian(spin, omega_q=WQ):
    """The static Hamiltonian with an asymmetric, tilted quadrupole: not
    diagonal in the m basis."""
    quad = QuadrupoleSpec(omega_q=omega_q, eta=0.4, euler=(0.3, 0.7, 0.2))
    return np.asarray(static_hamiltonian(FieldSpec(gamma_b0=GB0), quad, spin), dtype=complex)


def mp_expm(a):
    """exp(a) of a complex numpy matrix by 30-digit mpmath, rounded back to complex."""
    import mpmath

    with mpmath.workdps(30):
        e = mpmath.expm(mpmath.matrix(a.tolist()))
        return np.array([[complex(e[r, s]) for s in range(e.cols)] for r in range(e.rows)])


def propagator_cases(twice_i):
    """(H, t) pairs: the first cat pulse over its duration and over 200 of
    them (50 rotations), and the tilted lab-frame static Hamiltonian over one
    revival period, 12.5 us, ~100 Larmor periods."""
    spin, h1, t_half = first_cat_pulse(twice_i)
    return [(h1, t_half), (h1, 200 * t_half), (tilted_static_hamiltonian(spin), 12.5e-6)]


@pytest.mark.parametrize("twice_i", [1, 3, 7, 25])
def test_propagator_matches_scipy_expm_over_many_periods(twice_i):
    # exp(-i H t) from eigh against the oracles' exponential.  A phase error
    # grows as eps ||H t||: measured <= 2.8 eps max(1, ||H t||), the largest
    # 5.1e-12 at 2I = 25 over 12.5 us (||H t|| = 8.3e3); unitarity 2.9e-15
    for h, t in propagator_cases(twice_i):
        u = propagator(h, t)
        scale = max(1.0, np.linalg.norm(h, 2) * t)
        assert np.max(np.abs(u - scipy.linalg.expm(-1j * h * t))) <= 8 * np.spacing(1.0) * scale
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= 1e-14


def test_propagator_matches_mpmath_expm():
    # 30-digit oracle at 2I = 3: 8.6e-16 on the cat pulse (scipy 2.8e-16),
    # 5.5e-14 over 200 of them and 1.1e-13 over 12.5 us (scipy 1.9e-14 and
    # 8.2e-14), each <= 1.7 eps max(1, ||H t||)
    for h, t in propagator_cases(3):
        exact = mp_expm(-1j * h * t)
        scale = max(1.0, np.linalg.norm(h, 2) * t)
        assert np.max(np.abs(propagator(h, t) - exact)) <= 4 * np.spacing(1.0) * scale


def test_free_particle_is_static():
    spin = SpinQuantum(5)
    psi0 = coherent_state(spin, 1.0, 0.5)
    traj = evolve_unitary(np.zeros((6, 6)), psi0, TimeGrid(0.0, 1e-3, dt=1e-5))
    assert_allclose(traj.final_state, psi0, atol=1e-12)


def test_larmor_precession_half_turn():
    spin = SpinQuantum(7)
    ops = spin_operators(spin)
    psi0 = coherent_state(spin, np.pi / 2, 0.0)
    t = np.pi / GB0
    traj = evolve_unitary(GB0 * np.asarray(ops.Iz), psi0, TimeGrid(0.0, t, dt=t / 400))
    target = coherent_state(spin, np.pi / 2, np.pi)
    assert fidelity(traj.final_state, target) > 1 - 1e-9


def test_twisting_forms_maximal_cat():
    spin = SpinQuantum(7)
    ops = spin_operators(spin)
    h = WQ * np.asarray(ops.Iz @ ops.Iz)
    psi0 = coherent_state(spin, np.pi / 2, 0.0)
    t = np.pi / (2 * WQ)
    traj = evolve_unitary(h, psi0, TimeGrid(0.0, t, dt=t / 500))
    psi = traj.final_state
    var = np.vdot(psi, ops.Iy @ ops.Iy @ psi).real - np.vdot(psi, ops.Iy @ psi).real ** 2
    assert 2 * var / spin.i == pytest.approx(2 * spin.i, rel=1e-9)


def test_unitary_norm_preservation_long_run():
    rng = np.random.default_rng(1)
    h = random_hermitian(6, rng)
    psi0 = np.zeros(6, dtype=complex)
    psi0[0] = 1.0
    traj = evolve_unitary(h, psi0, TimeGrid(0.0, 10.0, dt=1e-3, output_stride=1000))
    norms = [abs(np.linalg.norm(s) - 1.0) for s in traj.states]
    assert max(norms) < 1e-9


def larmor_tone(t_end):
    """One full-amplitude tone cos(gamma*B0 t) on [0, t_end)."""
    return PulseSegment((ToneSpec(GB0, 1.0, 0.0),), 0.0, t_end)


def test_unitary_self_convergence_time_dependent():
    # halving dt changes the final state by far less than the oracle budget
    spin = SpinQuantum(3)
    ops = spin_operators(spin)
    t_end = 2e-6
    drive = Drive(GB0 * np.asarray(ops.Iz), TWO_PI * 50e3 * np.asarray(ops.Ix), larmor_tone(t_end))
    psi0 = eigenstate(spin, 1.5)
    final_a = evolve_unitary(drive, psi0, TimeGrid(0.0, t_end, dt=1e-9)).final_state
    final_b = evolve_unitary(drive, psi0, TimeGrid(0.0, t_end, dt=5e-10)).final_state
    assert 1 - fidelity(final_a, final_b) < 1e-8


def test_unitary_reference_oracle_agreement():
    spin = SpinQuantum(3)
    ops = spin_operators(spin)
    drive = Drive(GB0 * np.asarray(ops.Iz), TWO_PI * 100e3 * np.asarray(ops.Ix), larmor_tone(1e-6))
    psi0 = eigenstate(spin, 1.5)
    grid = TimeGrid(0.0, 1e-6, dt=1e-9)
    main = evolve_unitary(drive, psi0, grid).final_state
    oracle = reference_final_state(drive, psi0, grid, refine=100)
    assert 1 - fidelity(main, oracle) < 1e-7


def test_unitary_rejects_non_hermitian_drive():
    psi0 = np.array([1.0, 0.0], dtype=complex)
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    pulse = PulseSegment((ToneSpec(1.0, 1.0),), 0.0, 1.0)
    for term, drive in (
        ("h0", Drive(skew, np.eye(2), pulse)),
        ("x", Drive(np.eye(2), skew, pulse)),
    ):
        with pytest.raises(ValueError, match=f"drive.{term} is not Hermitian"):
            evolve_unitary(drive, psi0, TimeGrid(0.0, 1.0, dt=0.5))


def lab_check_drive(twice_i=7, scale=25.0):
    """The lab-check drive: paper fields with gamma*B1 and omega_q scaled
    together, one equal-amplitude tone per transition, driven along y."""
    spin = SpinQuantum(twice_i)
    fields = FieldSpec(gamma_b0=GB0, gamma_b1=TWO_PI * 800.0 * scale)
    h_static = static_hamiltonian(fields, QuadrupoleSpec(omega_q=WQ * scale), spin)
    ladder = energy_ladder(h_static, spin)
    t_half = rotation_duration(spin, fields.gamma_b1, np.pi / 2)
    seg = PulseSegment(
        tones=tuple(ToneSpec(float(w), 1.0 / twice_i, 0.0) for w in ladder.transition_freqs),
        t_start=0.0,
        t_end=t_half,
    )
    x = fields.gamma_b1 * np.asarray(spin_operators(spin).Iy)
    return spin, Drive(h_static, x, seg), t_half


@pytest.mark.parametrize(
    "pulse, dt, before, after",
    [("first", 1e-9, 0.0, 0.0), ("first", 1e-7, 0.0, 0.0), ("first", 1e-9, 0.0, 1.75e-6),
     ("second", 1e-9, 2e-6, 2e-6)],
)
def test_phasor_amplitudes_match_direct_cosines(pulse, dt, before, after):
    # the chunked phasor amplitudes against PulseSegment.envelope's direct
    # cosines at every midpoint, at 2I = 7, scale 25: the whole first pulse
    # at 1 ns and 100 ns, a grid that runs 1750 steps past t_end, and the
    # cat protocol's second pulse (locked to its own start, phase 1.3) on a grid
    # that starts 2000 steps before it and ends 2000 after.  The two differ
    # by the rounding of float64 phases of ~1e4 rad: 1.7e-12, 6.1e-13,
    # 1.9e-12 and 4.2e-12 measured.  Outside [t_start, t_end) both are 0.
    spin, drive, t_half = lab_check_drive()
    seg = drive.pulse
    if pulse == "second":
        freqs = [tone.omega for tone in seg.tones]
        seg = cat_schedule(freqs, 1.3, 3e-5, t_half).segments[1]
    grid = TimeGrid(seg.t_start - before, seg.t_end + after, dt=dt)
    n, chunk = grid.n_steps, _chunk_steps(spin.dimension)
    chunks = list(seg.midpoint_amplitudes(grid.t_start, grid.step, n, chunk))
    assert [c.size for c in chunks] == [min(chunk, n - k0) for k0 in range(0, n, chunk)]
    amplitudes = np.concatenate(chunks)
    t_mid = grid.t_start + (np.arange(n) + 0.5) * grid.step
    direct = seg.envelope(t_mid)
    assert np.max(np.abs(amplitudes - direct)) <= 1e-11
    outside = (t_mid < seg.t_start) | (t_mid >= seg.t_end)
    assert outside.sum() == round((before + after) / dt)
    assert np.all(amplitudes[outside] == 0.0)


def test_chunked_unitary_matches_per_step_oracle():
    # reference_final_state(refine=1) is the same midpoint rule with one
    # scipy expm per step; the step-map polynomial must reproduce it
    spin, drive, _ = lab_check_drive()
    n_steps = 20003
    assert n_steps % _chunk_steps(spin.dimension)
    grid = TimeGrid(0.0, n_steps * 1e-9, dt=1e-9)
    assert grid.n_steps == n_steps
    psi0 = eigenstate(spin, spin.i)
    traj = evolve_unitary(drive, psi0, grid)
    oracle = reference_final_state(drive, psi0, grid, refine=1)
    assert np.linalg.norm(traj.final_state - oracle) <= 1e-10
    # per-step expm drifts ~3e-14 here; the products without their
    # Newton-Schulz step drift -1.2e-13, which moves printed infidelities
    assert abs(np.linalg.norm(traj.final_state) - 1.0) <= 3e-13
    assert traj.times.tolist() == [grid.t_start, grid.t_start + n_steps * grid.step]
    assert len(traj.states) == 2


def test_lab_check_drive_run_keeps_its_norm_to_rounding():
    # lab-check's 175 000 steps at 2I = 7 in one run: 1.1e-15 measured;
    # without the run's Newton-Schulz step the norm drifts by -3.4e-13
    spin, drive, t_half = lab_check_drive()
    grid = TimeGrid(0.0, t_half, dt=1e-9)
    assert grid.n_steps == 175000
    psi = evolve_unitary(drive, eigenstate(spin, spin.i), grid).final_state
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-14


def test_unitary_rejects_wrong_drive_shape():
    # a bad amplitude cannot reach the stepper: the pulse is a PulseSegment,
    # whose tones are checked finite with summed amplitudes <= 1 when built
    # (test_control.py::test_segment_validation)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    pulse = PulseSegment((ToneSpec(1.0, 1.0),), 0.0, 1.0)
    for h0, x, message in (
        (np.eye(3), np.eye(2), "drive.h0 must have shape (2, 2), got shape (3, 3)"),
        (np.eye(2), np.eye(2)[None], "drive.x must have shape (2, 2), got shape (1, 2, 2)"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            evolve_unitary(Drive(h0, x, pulse), psi0, TimeGrid(0.0, 1.0, dt=0.5))
    with pytest.raises(TypeError, match="drive.pulse must be a PulseSegment, got ufunc"):
        Drive(np.eye(2), np.eye(2), np.cos)


def test_unitary_allows_envelope_rounding_beyond_one():
    # two constant tones whose amplitudes sum to 1 + 1e-13
    spin = SpinQuantum(1)
    ops = spin_operators(spin)
    pulse = PulseSegment((ToneSpec(0.0, 0.5), ToneSpec(0.0, 0.5 + 1e-13)), 0.0, 1.0)
    drive = Drive(np.zeros((2, 2)), np.asarray(ops.Ix), pulse)
    psi = evolve_unitary(drive, eigenstate(spin, 0.5), TimeGrid(0.0, 1.0, dt=0.5)).final_state
    assert abs(psi[1]) ** 2 == pytest.approx(np.sin(0.5 * (1 + 1e-13)) ** 2, rel=1e-12)


def test_unitary_refuses_a_drive_step_beyond_the_series_radius():
    # ||x||_2 dt = 1.2 > 1: the Taylor terms in the drive grow before they shrink
    spin = SpinQuantum(1)
    pulse = PulseSegment((ToneSpec(1.0, 1.0),), 0.0, 2.0)
    drive = Drive(np.zeros((2, 2)), 2.4 * np.asarray(spin_operators(spin).Ix), pulse)
    with pytest.raises(ValueError, match=re.escape("reduce dt (currently 1.0)")):
        evolve_unitary(drive, eigenstate(spin, 0.5), TimeGrid(0.0, 2.0, dt=1.0))


def test_coarse_drive_grid_takes_a_higher_degree_and_matches_the_oracle():
    # 100 ns steps: ||x||_2 dt = 0.044, so the tail bound needs p = 9
    spin, drive, t_half = lab_check_drive()
    grid = TimeGrid(0.0, t_half, dt=1e-7)
    h0, x = np.asarray(drive.h0, dtype=complex), np.asarray(drive.x, dtype=complex)
    assert len(_step_map_coefficients(h0, x, grid.step)) - 1 == 9
    assert len(_step_map_coefficients(h0, x, 1e-9)) - 1 == 4
    psi0 = eigenstate(spin, spin.i)
    main = evolve_unitary(drive, psi0, grid).final_state
    oracle = reference_final_state(drive, psi0, grid, refine=1)
    assert np.linalg.norm(main - oracle) <= 2e-12  # 5.2e-13 measured


@pytest.mark.parametrize("n_steps", [1, 2, 511, 512, 513, 1024, 1101])
def test_drive_final_state_matches_per_step_expm(n_steps):
    # chunks of 512 steps (256 maps of two steps each): runs of one step and
    # of one pair, one step short of a chunk edge, on it and one past it,
    # two whole chunks, and an odd tail after two chunks; odd runs end in a
    # single-step map
    spin, drive, _ = lab_check_drive()
    assert _chunk_steps(spin.dimension) == 512
    psi0 = eigenstate(spin, spin.i)
    grid = TimeGrid(0.0, n_steps * 1e-9, dt=1e-9)
    assert grid.n_steps == n_steps
    traj = evolve_unitary(drive, psi0, grid)
    assert traj.times.tolist() == [grid.t_start, grid.t_start + n_steps * grid.step]
    assert np.array_equal(traj.states[0], psi0)
    oracle = reference_final_state(drive, psi0, grid, refine=1)  # one expm per step
    assert np.linalg.norm(traj.final_state - oracle) <= 1e-12


@pytest.mark.parametrize("stride", [1, 7, 100, 255, 256, 511, 512, 513, 700])
def test_drive_samples_match_per_step_expm_at_every_stride(stride):
    # a drive run stores its end states only, so mid-run samples come from
    # chained runs, each grid starting where the last one ended: mid-pulse
    # and mid-chunk of the whole span.  Over 700 and 1101 steps the run
    # boundaries, every stride-th step and the last, land inside chunks, on
    # chunk edges, on both, and only at the end; odd strides and the odd 1101
    # leave runs that end in a single-step map
    spin, drive, _ = lab_check_drive()
    h0, x = np.asarray(drive.h0), np.asarray(drive.x)
    psi0 = eigenstate(spin, spin.i)
    for n_steps in (700, 1101):
        grid = TimeGrid(0.0, n_steps * 1e-9, dt=1e-9)
        assert grid.n_steps == n_steps
        t_mid = grid.t_start + (np.arange(grid.n_steps) + 0.5) * grid.step
        psis = [psi0.astype(complex)]
        for c in drive.pulse.envelope(t_mid):
            psis.append(scipy.linalg.expm(-1j * (h0 + c * x) * grid.step) @ psis[-1])
        steps = list(range(0, n_steps, stride)) + [n_steps]
        state = psi0
        for k0, k1 in zip(steps[:-1], steps[1:]):
            run = TimeGrid(k0 * 1e-9, k1 * 1e-9, dt=1e-9)
            assert run.n_steps == k1 - k0
            state = evolve_unitary(drive, state, run).final_state
            assert np.linalg.norm(state - psis[k1]) <= 1e-12


def test_drive_run_refuses_an_output_stride():
    spin, drive, t_half = lab_check_drive()
    grid = TimeGrid(0.0, t_half, dt=1e-9, output_stride=1000)
    with pytest.raises(ValueError, match="output_stride must be None, got 1000"):
        evolve_unitary(drive, eigenstate(spin, spin.i), grid)


def test_drive_stepping_peak_memory_stays_below_two_chunks_of_maps():
    # a chunk's stack of 256 pair maps takes CHUNK_BYTES and its first
    # product level half that, and the pulse's phasor table 0.22: 1.91
    # CHUNK_BYTES measured (1.66 without the table); chunks of 256
    # single-step maps peak at 2.08
    import tracemalloc

    spin, drive, _ = lab_check_drive()
    grid = TimeGrid(0.0, 20003e-9, dt=1e-9)
    assert grid.n_steps == 20003
    psi0 = eigenstate(spin, spin.i)
    evolve_unitary(drive, psi0, grid)  # warm caches outside the trace
    tracemalloc.start()
    try:
        evolve_unitary(drive, psi0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * CHUNK_BYTES


def test_step_map_coefficients_match_mpmath_expm():
    # 30-digit oracle independent of scipy and LAPACK, at 2I = 3
    import mpmath

    spin, drive, _ = lab_check_drive(twice_i=3)
    d, dt = spin.dimension, 1e-9
    h0, x = np.asarray(drive.h0, dtype=complex), np.asarray(drive.x, dtype=complex)
    coeffs = _step_map_coefficients(h0, x, dt)
    p = len(coeffs) - 1
    assert p == 4
    with mpmath.workdps(30):
        a = mpmath.matrix((-1j * dt * h0).tolist())
        b = mpmath.matrix((-1j * dt * x).tolist())
        block = mpmath.zeros((p + 1) * d)
        for j in range(p + 1):
            for r in range(d):
                for s in range(d):
                    block[j * d + r, j * d + s] = a[r, s]
                    if j < p:
                        block[j * d + r, (j + 1) * d + s] = b[r, s]
        e = mpmath.expm(block)
        exact = np.array(
            [[complex(e[r, j * d + s]) for r in range(d) for s in range(d)] for j in range(p + 1)]
        )
        # the truncated polynomial against exp(-i (h0 + c x) dt) itself
        for c in (-1.0, 0.37, 1.0):
            u = mpmath.expm(a + c * b)
            u = np.array([[complex(u[r, s]) for s in range(d)] for r in range(d)])
            poly = (np.power.outer(c, np.arange(p + 1)) @ coeffs).reshape(d, d)
            # one ulp at |u_rs| ~ 1, plus the 1e-18 tail bound
            assert np.max(np.abs(poly - u)) <= 2.3e-16
    assert np.max(np.abs(coeffs - exact)) <= 2.3e-16


@pytest.mark.parametrize("h0_kind", ["diagonal", "tilted"])
def test_coarse_step_map_coefficients_scale_and_square_and_match_mpmath(h0_kind):
    # 100 ns steps at 2I = 3: the block matrix has 1-norm 9.2, so the Taylor
    # sum is scaled by 2^-3 and squared back.  With lab-check's diagonal h0
    # the block is upper triangular and its diagonal is set exactly: 8.9e-19
    # measured (scipy 9.7e-19, 6.0e-16 without that).  A tilted h0 takes
    # plain squaring: 1.6e-15 (scipy 8.7e-16)
    spin, drive, _ = lab_check_drive(twice_i=3)
    d, dt = spin.dimension, 1e-7
    x = np.asarray(drive.x, dtype=complex)
    h0 = np.asarray(drive.h0, dtype=complex)
    if h0_kind == "tilted":
        h0 = tilted_static_hamiltonian(spin, omega_q=25 * WQ)
    coeffs = _step_map_coefficients(h0, x, dt)
    p = len(coeffs) - 1
    assert p == 7
    block = np.zeros((p + 1, d, p + 1, d), dtype=complex)
    for j in range(p + 1):
        block[j, :, j] = -1j * dt * h0
        if j < p:
            block[j, :, j + 1] = -1j * dt * x
    block = block.reshape((p + 1) * d, (p + 1) * d)
    assert np.abs(block).sum(axis=0).max() > 4 * TAYLOR_SCALE_NORM
    exact = mp_expm(block)[:d].reshape(d, p + 1, d).transpose(1, 0, 2).reshape(p + 1, d * d)
    bound = 1e-17 if h0_kind == "diagonal" else 4e-15
    assert np.max(np.abs(coeffs - exact)) <= bound


def test_pair_map_matches_mpmath_product_of_two_steps():
    # 30-digit oracle for the map of two 1 ns steps at 2I = 3: the pair
    # polynomial sum_ji c_b^j c_a^i N_ji against expm(A + c_b B) expm(A + c_a B)
    import mpmath

    spin, drive, _ = lab_check_drive(twice_i=3)
    d, dt = spin.dimension, 1e-9
    h0, x = np.asarray(drive.h0, dtype=complex), np.asarray(drive.x, dtype=complex)
    m = _step_map_coefficients(h0, x, dt)
    coeffs, pair_coeffs = m.view(float), _pair_coefficients(m, d).view(float)
    assert pair_coeffs.shape == (25, 2 * d * d)
    with mpmath.workdps(30):
        a = mpmath.matrix((-1j * dt * h0).tolist())
        b = mpmath.matrix((-1j * dt * x).tolist())
        for c_a, c_b in ((-1.0, 1.0), (0.37, -0.81), (1.0, 1.0)):
            u = mpmath.expm(a + c_b * b) * mpmath.expm(a + c_a * b)
            u = np.array([[complex(u[r, s]) for s in range(d)] for r in range(d)])
            out = np.empty((1, 2 * d * d))
            maps = _pair_maps(np.array([c_a, c_b]), coeffs, pair_coeffs, d, out)
            assert maps.shape == (1, d, d)
            # 2.2e-16 measured: two ulp at |u_rs| ~ 1, plus twice the tail bound
            assert np.max(np.abs(maps[0] - u)) <= 2 * np.spacing(1.0) + 2 * TAYLOR_TAIL_TOL


def test_lindblad_closed_system_matches_unitary():
    spin = SpinQuantum(5)
    rng = np.random.default_rng(2)
    h = random_hermitian(6, rng) * 1e4
    psi0 = coherent_state(spin, 0.7, 0.3)
    rho0 = np.outer(psi0, psi0.conj())
    grid = TimeGrid(0.0, 1e-4, dt=1e-7)
    rho = evolve_lindblad(h, rho0, DecoherenceSpec(), grid).final_state
    psi = evolve_unitary(h, psi0, grid).final_state
    diff = rho - np.outer(psi, psi.conj())
    trace_distance = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
    assert trace_distance < 1e-8


@pytest.mark.parametrize(
    "h, got",
    [
        (lambda t: np.zeros((t.size, 4, 4)), "got shape ()"),
        (np.zeros((3, 3)), "got shape (3, 3)"),
        (np.zeros((1, 4, 4)), "got shape (1, 4, 4)"),
    ],
)
def test_lindblad_takes_only_a_constant_hamiltonian(h, got):
    rho0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    grid = TimeGrid(0.0, 1e-6, dt=1e-7)
    with pytest.raises(ValueError, match=re.escape(f"shape (4, 4), {got}")):
        evolve_lindblad(h, rho0, DecoherenceSpec(gamma_m=1.0), grid)


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


def first_cat_pulse(twice_i):
    """The cat protocol's first multi-tone pi/2 pulse in the generalized
    rotating frame at the paper parameters: the spin, the pulse Hamiltonian
    and its duration."""
    cfg = paper_config(twice_i=twice_i)
    t_half = rotation_duration(cfg.spin, cfg.fields.gamma_b1, np.pi / 2)
    h1, _, _ = _pulse_pair(cfg, _ladder(cfg), t_half, cfg.fields.gamma_b0)
    return cfg.spin, h1, t_half


@pytest.mark.parametrize("case", ["cat-pulse-3", "cat-pulse-7", "random-5"])
def test_lindblad_matches_rk4_reference(case):
    # RK4's own error at these steps is <= 1e-11 (it falls 16x per halving)
    dec = DecoherenceSpec(gamma_m=500.0, gamma_e=100.0)
    if case == "random-5":
        spin = SpinQuantum(5)
        h = random_hermitian(6, np.random.default_rng(4)) * 1e4
        psi0 = coherent_state(spin, 0.7, 0.3)
        t_end, dt = 1e-4, 1e-7
    else:
        spin, h, t_end = first_cat_pulse(int(case[-1]))
        psi0 = eigenstate(spin, spin.i)
        dt = 2e-6
    rho0 = np.outer(psi0, psi0.conj())
    exact = evolve_lindblad(h, rho0, dec, TimeGrid(0.0, t_end, dt=t_end)).final_state
    rk4 = reference_lindblad_state(h, rho0, dec, TimeGrid(0.0, t_end, dt=dt))
    assert trace_distance(exact, rk4) <= 1e-10


@pytest.mark.parametrize("rates", ["zero", "paper"])
@pytest.mark.parametrize("twice_i", [3, 7, 25])
def test_lindblad_step_matches_the_dense_liouvillian(twice_i, rates):
    # the first cat pulse from |I, I>, one step, against scipy's exponential
    # of the d^2 x d^2 Liouvillian: measured <= 8.3e-16, the largest at
    # 2I = 3 with the paper rates
    spin, h, t_half = first_cat_pulse(twice_i)
    dec = paper_config().decoherence if rates == "paper" else DecoherenceSpec()
    psi0 = eigenstate(spin, spin.i)
    rho0 = np.outer(psi0, psi0.conj())
    rho = evolve_lindblad(h, rho0, dec, TimeGrid(0.0, t_half, dt=t_half)).final_state
    want = reference_lindblad_step(h, rho0, dec, t_half)
    assert np.max(np.abs(rho - want)) <= 8 * np.spacing(1.0)


@pytest.mark.parametrize("gain", [1.0, 20.0])
def test_lindblad_step_matches_mpmath(gain):
    # one step of the first cat pulse at 2I = 3 against a 30-digit mpmath
    # exponential of the Liouvillian built entry by entry, at the paper
    # rates and at the 20-fold rates of the benchmark's decoherence job:
    # measured 6.7e-16 and 4.4e-16 (the dense scipy oracle 2.8e-16 and 1.1e-16)
    import mpmath

    spin, h, t_half = first_cat_pulse(3)
    paper = paper_config().decoherence
    dec = DecoherenceSpec(gamma_m=gain * paper.gamma_m, gamma_e=gain * paper.gamma_e)
    d = spin.dimension
    psi0 = eigenstate(spin, spin.i)
    rho0 = np.outer(psi0, psi0.conj())
    rates = dec.rates((d - 1 - 2 * np.arange(d)) / 2)
    with mpmath.workdps(30):
        hm = mpmath.matrix(np.asarray(h, dtype=complex).tolist())
        lv = mpmath.zeros(d * d)
        # row j d + k of L vec(rho) is (-i(H rho - rho H) - R o rho / 2)_jk
        for j in range(d):
            for k in range(d):
                for a in range(d):
                    lv[j * d + k, a * d + k] += -1j * hm[j, a]
                    lv[j * d + k, j * d + a] += 1j * hm[a, k]
                lv[j * d + k, j * d + k] -= mpmath.mpf(rates[j, k]) / 2
        v = mpmath.expm(lv * mpmath.mpf(t_half)) * mpmath.matrix(rho0.ravel().tolist())
        want = np.array([complex(v[i]) for i in range(d * d)]).reshape(d, d)
    rho = evolve_lindblad(h, rho0, dec, TimeGrid(0.0, t_half, dt=t_half)).final_state
    assert np.max(np.abs(rho - want)) <= 4 * np.spacing(1.0)


def test_lindblad_step_peak_memory_stays_below_a_quarter_of_the_liouvillian():
    # at 2I = 25 the complex 676 x 676 Liouvillian alone is 7.3 MB; the
    # action keeps a few d x d arrays: 0.12 MB measured at the paper rates
    import tracemalloc

    spin, h, t_half = first_cat_pulse(25)
    psi0 = eigenstate(spin, spin.i)
    rho0 = np.outer(psi0, psi0.conj())
    grid, dec = TimeGrid(0.0, t_half, dt=t_half), paper_config().decoherence
    evolve_lindblad(h, rho0, dec, grid)  # warm caches outside the trace
    tracemalloc.start()
    try:
        evolve_lindblad(h, rho0, dec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < spin.dimension ** 4 * 16 / 4


def test_lindblad_requires_a_hermitian_hamiltonian():
    # the action takes the commutator term as P + P^dagger, which holds
    # for a Hermitian H only
    rho0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    h = np.triu(np.ones((4, 4)))
    grid = TimeGrid(0.0, 1e-6, dt=1e-7)
    with pytest.raises(ValueError, match="^evolve_lindblad requires a Hermitian Hamiltonian$"):
        evolve_lindblad(h, rho0, DecoherenceSpec(), grid)


def test_exact_sampling_rounds_to_the_stride_and_matches_repeated_one_step_propagators():
    # a span of 1003 steps of dt at stride 10 becomes 1010 shorter steps, so
    # the 101 samples are equally spaced and the last is at the span's end
    spin = SpinQuantum(3)
    rng = np.random.default_rng(5)
    h = random_hermitian(4, rng) * 1e4
    dec = DecoherenceSpec(gamma_m=300.0, gamma_e=40.0)
    psi0 = coherent_state(spin, 0.7, 0.3)
    rho0 = np.outer(psi0, psi0.conj())
    dt = 1e-6
    grid = TimeGrid(0.0, 1003 * dt, dt=dt, output_stride=10)
    assert grid.n_steps == 1010
    assert grid.step <= dt
    stored = list(range(0, 1011, 10))
    # one-step maps built independently of the evolvers
    u1 = scipy.linalg.expm(-1j * h * grid.step)
    psi, rho = psi0.astype(complex), rho0
    psis, rhos = [psi], [rho0]
    for k in range(1, grid.n_steps + 1):
        psi, rho = u1 @ psi, reference_lindblad_step(h, rho, dec, grid.step)
        if k in stored:
            psis.append(psi)
            rhos.append(rho)

    unitary = evolve_unitary(h, psi0, grid)
    lindblad = evolve_lindblad(h, rho0, dec, grid)
    expected_times = [grid.t_start + k * grid.step for k in stored]
    for traj, ref in ((unitary, psis), (lindblad, rhos)):
        assert traj.times.tolist() == expected_times
        assert len(traj.states) == len(stored)
        for state, oracle in zip(traj.states, ref):
            assert np.max(np.abs(state - oracle)) <= 1e-12

    # the default grid stores the initial and the final state only
    final_only = TimeGrid(0.0, 1003 * dt, dt=dt)
    for traj, ref in (
        (evolve_unitary(h, psi0, final_only), psis),
        (evolve_lindblad(h, rho0, dec, final_only), rhos),
    ):
        assert traj.times.tolist() == [0.0, expected_times[-1]]
        assert len(traj.states) == 2
        assert np.max(np.abs(traj.final_state - ref[-1])) <= 1e-12


def test_exact_sampling_by_doubling_matches_sequential_application():
    # tact's field grid at 2I = 25: 28 000 steps stored every 7th, one run
    # of 4000 equal gaps, doubled up to U^2048.  Against one matrix-vector
    # product per sample with the same expm'd map the doubled powers differ
    # by rounding only, 4.2e-14 measured
    size, n_steps, stride = 26, 28000, 7
    rng = np.random.default_rng(6)
    g = -1j * random_hermitian(size, rng) * 1e7
    x0 = rng.normal(size=size) + 1j * rng.normal(size=size)
    x0 /= np.linalg.norm(x0)
    grid = TimeGrid(0.0, 25e-6, dt=25e-6 / n_steps, output_stride=stride)
    assert grid.n_steps == n_steps
    steps = grid.sample_steps
    assert len(steps) == 4001
    gap = g * (stride * grid.step)
    xs = _sample_exact(gap, x0, len(steps))
    u = scipy.linalg.expm(gap)
    expected = [x0]
    for _ in steps[1:]:
        expected.append(u @ expected[-1])
    assert xs.shape == (len(steps), size)
    assert np.max(np.abs(xs - np.array(expected))) <= 2e-13


def test_evolvers_name_the_first_sample_that_breaks_a_conservation_law(monkeypatch):
    import spincat.dynamics as dynamics

    spin = SpinQuantum(3)
    grid = TimeGrid(0.0, 6e-6, dt=1e-6, output_stride=1)
    psi0 = eigenstate(spin, 1.5)
    rho0 = np.outer(psi0, psi0.conj())
    scale = np.ones(7)
    scale[[3, 5]] = 1.1
    monkeypatch.setattr(dynamics, "_sample_exact", lambda g, x0, n: scale[:, None] * x0)
    with pytest.raises(IntegrationError, match=re.escape(f"norm drifted to 1.1 at t = {3e-6}")):
        evolve_unitary(np.zeros((4, 4)), psi0, grid)

    # the Lindblad evolver takes one action per stored sample, 1 ... 6
    def actions(sample):
        calls = iter(range(1, 7))
        return lambda h, half_rates, rho, t: sample(next(calls))

    monkeypatch.setattr(dynamics, "_lindblad_action", actions(lambda k: scale[k] * rho0))
    with pytest.raises(IntegrationError, match=re.escape(f"trace drifted to 1.1 at t = {3e-6}")):
        evolve_lindblad(np.zeros((4, 4)), rho0, DecoherenceSpec(), grid)

    def negative_at_2(k):
        return np.diag([1.1, 0.0, 0.0, -0.1]) if k == 2 else scale[k] * rho0

    monkeypatch.setattr(dynamics, "_lindblad_action", actions(negative_at_2))
    message = f"eigenvalue -0.1 below -1e-07 at t = {2e-6}"
    with pytest.raises(IntegrationError, match=re.escape(message)):
        evolve_lindblad(np.zeros((4, 4)), rho0, DecoherenceSpec(), grid)


def test_lindblad_elementwise_dephasing_oracle():
    # with H = 0 and diagonal jumps the master equation decouples:
    # rho_ab(t) = rho_ab(0) exp(-[Gm (ma-mb)^2 + Ge (ma^2-mb^2)^2] t / 2)
    spin = SpinQuantum(5)
    m = spin.m_values
    rng = np.random.default_rng(3)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    gm, ge, t = 300.0, 40.0, 1e-3
    grid = TimeGrid(0.0, t, dt=1e-6)
    rho = evolve_lindblad(
        np.zeros((6, 6)), rho0, DecoherenceSpec(gamma_m=gm, gamma_e=ge), grid
    ).final_state
    ma, mb = np.meshgrid(m, m, indexing="ij")
    decay = np.exp(-(gm * (ma - mb) ** 2 + ge * (ma ** 2 - mb ** 2) ** 2) * t / 2)
    assert_allclose(rho, rho0 * decay, atol=1e-10)


def test_lindblad_cat_dephasing_and_populations():
    spin = SpinQuantum(7)
    up, down = eigenstate(spin, 3.5), eigenstate(spin, -3.5)
    cat = (up + down) / np.sqrt(2)
    rho0 = np.outer(cat, cat.conj())
    gm, t = 1000.0, 1e-4
    grid = TimeGrid(0.0, t, dt=5e-7)
    rho = evolve_lindblad(np.zeros((8, 8)), rho0, DecoherenceSpec(gamma_m=gm), grid).final_state
    expected = 0.5 * np.exp(-gm * 7 ** 2 * t / 2)
    assert abs(rho[0, 7]) == pytest.approx(expected, rel=1e-7)
    assert rho[0, 0].real == pytest.approx(0.5, abs=1e-10)
    assert rho[7, 7].real == pytest.approx(0.5, abs=1e-10)


def test_lindblad_paper_rates_conservations():
    spin = SpinQuantum(7)
    ops = spin_operators(spin)
    h = WQ * np.asarray(ops.Iz @ ops.Iz)
    psi0 = coherent_state(spin, np.pi / 2, 0.0)
    rho0 = np.outer(psi0, psi0.conj())
    # 21 stored samples, 2.5 us apart, each checked in-run as well
    grid = TimeGrid(0.0, 50e-6, dt=5e-9, output_stride=500)
    traj = evolve_lindblad(h, rho0, DecoherenceSpec(gamma_m=10.0, gamma_e=0.1), grid)
    for rho in traj.states:
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.linalg.norm(rho - rho.conj().T) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-7


def test_decoherence_spec_validation():
    with pytest.raises(ValueError):
        DecoherenceSpec(gamma_m=-1.0)
    with pytest.raises(ValueError, match="^gamma_m must be finite"):
        DecoherenceSpec(gamma_m=np.nan)
    with pytest.raises(ValueError, match="^gamma_e must be finite"):
        DecoherenceSpec(gamma_e=np.inf)
