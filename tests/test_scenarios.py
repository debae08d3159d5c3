import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import spincat.observables

from spincat.control import (
    ToneSpec,
    cat_schedule,
    drive_phase_offset,
    rotating_frame_hamiltonian,
    rotation_duration,
    segment_rotating_hamiltonian,
)
from spincat.dynamics import (
    CHUNK_BYTES,
    DecoherenceSpec,
    TimeGrid,
    evolve_lindblad,
    evolve_unitary,
    propagator,
)
from spincat.hamiltonian import (
    QuadrupoleSpec,
    effective_oat_strength,
    energy_ladder,
    static_hamiltonian,
)
from spincat.observables import cat_coherence, effective_size
from spincat.scenarios import (
    _cat_signal,
    _dephased,
    _lab_hamiltonian,
    _ladder,
    _pulse_pair,
    _twisted,
    coherence_scaling,
    config_from_dict,
    config_to_dict,
    decoherence_sweep,
    givens_baseline,
    oat_free_evolution,
    paper_config,
    ramsey_cat_protocol,
    tact_oat_comparison,
    virtual_phase_cat,
    write_manifest,
)
from spincat.spin import SpinQuantum, coherent_state, eigenstate, fidelity, spin_operators

from oracles import revival_peaks

TWO_PI = 2 * np.pi


@pytest.mark.parametrize("twice_i", [3, 5, 7, 9])
def test_oat_free_evolution_peak_and_revival(twice_i):
    cfg = paper_config(twice_i=twice_i)
    series = oat_free_evolution(cfg)
    assert series.peak == pytest.approx(twice_i, rel=0.01)
    wq = cfg.quad.omega_q
    assert series.peak_time == pytest.approx(np.pi / (2 * wq), rel=0.01)
    assert series.values[-1] == pytest.approx(1.0, rel=0.01)  # revival at pi/wq
    assert series.values[0] == pytest.approx(1.0, rel=1e-6)  # coherent start


def test_oat_kitten_lacks_hill_on_mesa():
    # I = 3/2 reaches its 2I ceiling but without the pronounced hill of
    # higher spins: the mesa level (quarter period) sits much closer to the
    # peak than for I = 7/2
    mesa_ratio = {}
    for twice_i in (3, 7):
        cfg = paper_config(twice_i=twice_i)
        series = oat_free_evolution(cfg)
        quarter = np.argmin(np.abs(series.times - series.peak_time / 2))
        mesa_ratio[twice_i] = series.values[quarter] / series.peak
    assert mesa_ratio[3] > mesa_ratio[7]


def test_oat_requires_twisting():
    cfg = paper_config(quad=QuadrupoleSpec(omega_q=0.0))
    with pytest.raises(ValueError):
        oat_free_evolution(cfg)


@pytest.mark.parametrize("twice_i", [7, 25])
def test_oat_closed_form_matches_stepped_evolution(twice_i):
    # the closed form psi0 exp(-i omega t m^2) against exact propagation of
    # H = omega Iz^2 on the grid the scenario used to step
    cfg = paper_config(twice_i=twice_i, params={"n_points": 401})
    spin = cfg.spin
    omega = effective_oat_strength(cfg.quad, spin)
    t_max = np.pi / abs(omega)
    iz = spin_operators(spin).Iz
    grid = TimeGrid(0.0, t_max, dt=t_max / 400, output_stride=1)
    stepped = evolve_unitary(omega * iz @ iz, coherent_state(spin, np.pi / 2, 0.0), grid)
    times = np.linspace(0.0, t_max, 401)
    closed = _twisted(coherent_state(spin, np.pi / 2, 0.0), omega, times, spin)
    assert np.max(np.abs(times - stepped.times)) <= 1e-18
    assert np.max(np.abs(closed - stepped.states)) <= 1e-12
    series = oat_free_evolution(cfg)
    assert np.array_equal(series.times, times)
    iy = spin_operators(spin).Iy
    expected = [effective_size(psi, iy, spin) for psi in stepped.states]
    assert np.max(np.abs(series.values - expected)) <= 1e-12


def test_ramsey_rotating_rule_revivals():
    wq = paper_config().quad.omega_q
    cfg = paper_config(params={"t_max": 2.5 * np.pi / wq, "n_points": 1251})
    series = ramsey_cat_protocol(cfg, phase_rule="rotating")
    t_vals = np.linspace(0.0, 2.5 * np.pi / wq, 1251)  # 25 ns steps
    assert np.array_equal(series.times, t_vals)
    peaks = revival_peaks(series, min_height=0.9 * 7)
    assert len(peaks.times) >= 2
    assert np.all(peaks.values >= 0.95 * 7)
    spacing = np.diff(peaks.times)
    step = t_vals[1] - t_vals[0]
    assert np.all(np.abs(spacing - np.pi / wq) <= step + 1e-12)


def test_ramsey_fixed_rule_oscillates_at_larmor_scale():
    cfg = paper_config()
    gb0 = cfg.fields.gamma_b0
    period = np.pi / gb0
    t_vals = 6.25e-6 + np.linspace(0.0, 4 * period, 321)
    series = _cat_signal(cfg, DecoherenceSpec(), 0.0, t_vals)  # the fixed rule
    swing = series.values.max() - series.values.min()
    assert swing > 1.0  # large fast variation
    peaks = revival_peaks(series)
    spacings = np.diff(peaks.times)
    step = t_vals[1] - t_vals[0]
    assert np.all(np.abs(spacings - period) < 2 * step)


def test_ramsey_rejects_unknown_rule():
    with pytest.raises(ValueError):
        ramsey_cat_protocol(paper_config(), phase_rule="sideways")


def _per_sample_second_pulses(cfg, t_values, omega_ref):
    """The second pulse built afresh for every gap T: cat_schedule, then
    segment_rotating_hamiltonian, then expm (the sweeps' former path)."""
    spin = cfg.spin
    ladder = energy_ladder(static_hamiltonian(cfg.fields, cfg.quad, spin), spin)
    t_half = rotation_duration(spin, cfg.fields.gamma_b1, np.pi / 2)
    for t in t_values:
        delta_phi = np.pi / 2 + omega_ref * (t + t_half)
        seg = cat_schedule(ladder.transition_freqs, delta_phi, t, t_half).segments[1]
        h = segment_rotating_hamiltonian(
            seg, spin, cfg.fields.gamma_b1, ladder, cfg.fields.drive_axis
        )
        yield scipy.linalg.expm(-1j * h * t_half)


def _first_pulse_hamiltonian(cfg):
    spin = cfg.spin
    ladder = energy_ladder(static_hamiltonian(cfg.fields, cfg.quad, spin), spin)
    phase = drive_phase_offset(cfg.fields.drive_axis)
    tones = [ToneSpec(float(w), 1.0 / spin.twice_i, phase) for w in ladder.transition_freqs]
    return rotating_frame_hamiltonian(tones, spin, cfg.fields.gamma_b1, ladder)


@pytest.mark.parametrize("twice_i", [3, 7])
@pytest.mark.parametrize("phase_rule", ["rotating", "fixed"])
def test_ramsey_matches_per_sample_pulse_construction(twice_i, phase_rule):
    cfg = paper_config(twice_i=twice_i)
    spin = cfg.spin
    revival = np.pi / cfg.quad.omega_q
    rng = np.random.default_rng(twice_i)
    t_values = np.concatenate(
        [[0.0], np.sort(rng.uniform(0.0, 2.5 * revival, 17)), [1.7e-3, 4.3e-3]]
    )
    omega_ref = cfg.fields.gamma_b0 if phase_rule == "rotating" else 0.0
    t_half = rotation_duration(spin, cfg.fields.gamma_b1, np.pi / 2)
    psi1 = scipy.linalg.expm(-1j * _first_pulse_hamiltonian(cfg) * t_half) @ eigenstate(
        spin, spin.i
    )
    iz = spin_operators(spin).Iz
    expected = [
        effective_size(u2 @ psi1, iz, spin)
        for u2 in _per_sample_second_pulses(cfg, t_values, omega_ref)
    ]
    series = _cat_signal(cfg, DecoherenceSpec(), omega_ref, t_values)
    assert np.max(np.abs(series.values - expected)) <= 1e-8
    # the protocol takes its reference frequency from the rule
    protocol = ramsey_cat_protocol(replace(cfg, params={"t_max": 4.3e-3, "n_points": 5}), phase_rule)
    signal = _cat_signal(cfg, DecoherenceSpec(), omega_ref, protocol.times)
    assert np.array_equal(protocol.values, signal.values)


def test_decoherence_matches_dense_lindblad_gap():
    cfg = paper_config(twice_i=3, params={"t_max": 400e-6, "n_points": 51})
    spin = cfg.spin
    dec = DecoherenceSpec(gamma_m=500.0, gamma_e=100.0)
    t_half = rotation_duration(spin, cfg.fields.gamma_b1, np.pi / 2)
    psi0 = eigenstate(spin, spin.i)
    rho1 = evolve_lindblad(
        _first_pulse_hamiltonian(cfg), np.outer(psi0, psi0.conj()), dec,
        TimeGrid(0.0, t_half, dt=1e-6),
    ).final_state
    # the dense Liouvillian gap, stored on the sweep's 8 us sampling
    gap = evolve_lindblad(
        np.zeros((4, 4)), rho1, dec, TimeGrid(0.0, 400e-6, dt=2e-6, output_stride=4)
    )
    iz = spin_operators(spin).Iz
    pulses = _per_sample_second_pulses(cfg, gap.times, cfg.fields.gamma_b0)
    expected = [
        effective_size(u2 @ rho @ u2.conj().T, iz, spin)
        for u2, rho in zip(pulses, gap.states)
    ]
    res = decoherence_sweep(cfg, [dec.gamma_m], [dec.gamma_e])[0]
    assert_allclose(res.series.times, gap.times, rtol=1e-12, atol=0)
    assert np.max(np.abs(res.series.values - expected)) <= 1e-8
    assert res.series.values[-1] < 0.9 * res.series.values.max()  # visibly dephased


def test_gap_sweep_chunks_match_per_sample_sweeps():
    # 601 irregular gaps at d = 8: two full chunks of 256 and a partial one;
    # a dropped or repeated gap at a chunk boundary shifts every later value
    cfg = paper_config()
    chunk = CHUNK_BYTES // (16 * cfg.spin.dimension ** 2)
    t_values = np.sort(np.random.default_rng(5).uniform(0.0, 30e-6, 601))
    assert t_values.size > 2 * chunk and t_values.size % chunk
    omega_ref = cfg.fields.gamma_b0
    series = _cat_signal(cfg, DecoherenceSpec(), omega_ref, t_values)
    per_sample = [_cat_signal(cfg, DecoherenceSpec(), omega_ref, [t]).values[0] for t in t_values]
    assert np.array_equal(series.times, t_values)
    assert np.max(np.abs(series.values - per_sample)) <= 1e-12


def test_gap_rule_matches_lab_frame_protocol():
    # the full protocol in the lab frame at 2I = 3, gamma*B1 and omega_q
    # scaled by 25: one shared first lab pulse, each gap propagated exactly
    # under H_static, then the second lab pulse (1 ns steps) with the
    # rotating phase rule.  The rotating-frame state must be D U2(0) D^dagger
    # psi_1 with D = diag(exp(i nu T)); at these gaps the flipped rule
    # D^dagger U2(0) D is 0.1-0.9 away in infidelity, while N_eff(Iz) cannot
    # tell the two apart.
    base = paper_config(twice_i=3)
    cfg = replace(
        base,
        fields=replace(base.fields, gamma_b1=25 * base.fields.gamma_b1),
        quad=replace(base.quad, omega_q=25 * base.quad.omega_q),
    )
    spin, fields = cfg.spin, cfg.fields
    ladder = _ladder(cfg)
    h_static = static_hamiltonian(fields, cfg.quad, spin)
    energies, basis = np.linalg.eigh(h_static)
    t_half = rotation_duration(spin, fields.gamma_b1, np.pi / 2)
    omega_ref = fields.gamma_b0
    revival = np.pi / abs(effective_oat_strength(cfg.quad, spin))
    gaps = np.array([0.13, 0.62, 3.37]) * revival

    psi0 = eigenstate(spin, spin.i)
    first = cat_schedule(ladder.transition_freqs, 0.0, 0.0, t_half).segments[0]
    drive = _lab_hamiltonian(h_static, fields, spin, first)
    psi1 = evolve_unitary(drive, psi0, TimeGrid(0.0, t_half, dt=1e-9)).final_state
    h1, u2, nu = _pulse_pair(cfg, ladder, t_half, omega_ref)
    model1 = propagator(h1, t_half) @ psi0
    signal = _cat_signal(cfg, DecoherenceSpec(), omega_ref, gaps)
    iz = spin_operators(spin).Iz
    for gap, neff in zip(gaps, signal.values):
        delta_phi = np.pi / 2 + omega_ref * (gap + t_half)
        second = cat_schedule(ladder.transition_freqs, delta_phi, gap, t_half).segments[1]
        psi = basis @ (np.exp(-1j * energies * gap) * (basis.conj().T @ psi1))
        grid = TimeGrid(second.t_start, second.t_end, dt=1e-9)
        drive = _lab_hamiltonian(h_static, fields, spin, second)
        psi = evolve_unitary(drive, psi, grid).final_state
        psi_rot = np.exp(1j * ladder.energies * grid.t_end) * psi
        phase = np.exp(1j * nu * gap)  # the diagonal of D
        model = phase * (u2 @ (phase.conj() * model1))
        flipped = phase.conj() * (u2 @ (phase * model1))
        assert 1 - fidelity(psi_rot, model) <= 5e-5
        assert 1 - fidelity(psi_rot, flipped) >= 0.1
        assert effective_size(psi_rot, iz, spin) == pytest.approx(neff, abs=1e-2)
        assert effective_size(flipped, iz, spin) == pytest.approx(neff, abs=1e-9)


def test_gap_sweeps_reject_bad_gap_times():
    cfg = paper_config(twice_i=3)
    with pytest.raises(ValueError, match="gap time"):
        _cat_signal(cfg, DecoherenceSpec(), 0.0, [0.0, -1e-6])
    with pytest.raises(ValueError, match="'params.t_max' must be > 0"):
        decoherence_sweep(replace(cfg, params={"t_max": -1e-3}))
    with pytest.raises(ValueError, match="'params.n_points' must be an integer >= 2"):
        decoherence_sweep(replace(cfg, params={"n_points": 0}))


@pytest.mark.parametrize("twice_i", [3, 5, 7])
def test_virtual_phase_cat_matches_free_evolution(twice_i):
    result = virtual_phase_cat(paper_config(twice_i=twice_i))
    assert result.fidelity >= 0.99
    # the cat is maximal along some equatorial axis: check total variance
    spin = SpinQuantum(twice_i)
    pops = np.abs(result.final_state) ** 2
    assert pops.sum() == pytest.approx(1.0, abs=1e-9)


def test_virtual_phase_zero_wait_is_pi_rotation():
    cfg = paper_config(params={"t_wait": 0.0})
    result = virtual_phase_cat(cfg)
    spin = cfg.spin
    assert fidelity(result.final_state, eigenstate(spin, -spin.i)) > 1 - 1e-9


def test_givens_create_and_collapse():
    cfg = paper_config()
    spin = cfg.spin
    create = givens_baseline(cfg, mode="create")
    assert create.edge_populations[0] == pytest.approx(0.5, abs=1e-6)
    assert create.edge_populations[1] == pytest.approx(0.5, abs=1e-6)
    middle = 1 - sum(create.edge_populations)
    assert abs(middle) < 1e-6
    assert len(create.schedule.segments) == spin.twice_i  # 1 + (2I - 1)

    collapse = givens_baseline(cfg, mode="collapse")
    assert collapse.end_fidelity >= 1 - 1e-6
    assert len(collapse.schedule.segments) == 2 * spin.twice_i
    assert 8e-3 <= collapse.schedule.t_end <= 10e-3
    # twisting does the same collapse-and-revival three orders faster
    assert collapse.schedule.t_end / collapse.oat_period > 100


def test_givens_spin_half_degenerate_ladder():
    cfg = paper_config(twice_i=1, quad=QuadrupoleSpec(omega_q=0.0))
    create = givens_baseline(cfg, mode="create")
    assert len(create.schedule.segments) == 1
    assert create.edge_populations[0] == pytest.approx(0.5, abs=1e-9)
    assert create.edge_populations[1] == pytest.approx(0.5, abs=1e-9)


def test_decoherence_sweep_closed_system_keeps_peaks():
    cfg = paper_config(params={"t_max": 30e-6, "n_points": 1201})
    res = decoherence_sweep(cfg, [0.0], [0.0])[0]
    peaks = revival_peaks(res.series, min_height=5.0)
    assert len(peaks.values) >= 2
    assert_allclose(peaks.values, 7.0, rtol=1e-6)


def test_decoherence_sweep_peak_decay_and_rate_ordering():
    cfg = paper_config(params={"t_max": 1.5e-3, "n_points": 1501})
    weak, strong = decoherence_sweep(cfg, [50.0, 200.0], [0.0])
    for res in (weak, strong):
        peaks = revival_peaks(res.series, min_height=1.5)
        drops = np.diff(peaks.values)
        assert np.all(drops < 0)  # monotone revival decay
    peaks_weak = revival_peaks(weak.series, min_height=1.5)
    peaks_strong = revival_peaks(strong.series, min_height=1.5)
    assert peaks_strong.values[0] < peaks_weak.values[0]

    gentle, harsh = decoherence_sweep(cfg, [0.0], [5.0, 50.0])
    assert harsh.series.peak < gentle.series.peak


def test_coherence_scaling_matches_analytic():
    # at 1 kHz the 2I = 25 coherence is 0.5 exp(-312.5) ~ 1e-136, so the
    # comparison is relative only (abs=0)
    rows = coherence_scaling(
        paper_config(decoherence=DecoherenceSpec(gamma_m=1000.0)), [1, 3, 5, 7, 9, 25]
    )
    values = [row.coherence for row in rows]
    assert all(a > b for a, b in zip(values, values[1:]))  # strictly decreasing
    for row in rows:
        assert row.coherence == pytest.approx(row.analytic, rel=1e-6, abs=0)


@pytest.mark.parametrize("twice_i", [1, 3, 7, 9])
def test_coherence_scaling_matches_the_lindblad_evolver(twice_i):
    # rates and time chosen so that the 2I = 9 coherence is still ~0.3
    gamma_m, t_final = 100.0, 1e-4
    cfg = paper_config(decoherence=DecoherenceSpec(gamma_m=gamma_m), params={"t_final": t_final})
    (row,) = coherence_scaling(cfg, [twice_i])
    spin = SpinQuantum(twice_i)
    d = spin.dimension
    cat = (eigenstate(spin, spin.i) + eigenstate(spin, -spin.i)) / np.sqrt(2)
    rho = evolve_lindblad(
        np.zeros((d, d)), np.outer(cat, cat.conj()), DecoherenceSpec(gamma_m=gamma_m),
        TimeGrid(0.0, t_final, dt=t_final),
    ).final_state
    assert row.coherence > 0.1
    assert abs(row.coherence - cat_coherence(rho, spin)) <= 1e-13


@pytest.mark.parametrize("twice_i", [1, 3, 7, 9])
def test_dephased_matches_the_lindblad_evolver(twice_i):
    # the closed form shared by coherence_scaling and the gap sweeps, on a
    # full-rank state with both jump operators and a diagonal Hamiltonian
    spin = SpinQuantum(twice_i)
    d = spin.dimension
    rng = np.random.default_rng(twice_i)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0).real
    nu = rng.uniform(-5e4, 5e4, d)
    dec, t = DecoherenceSpec(gamma_m=300.0, gamma_e=20.0), 2e-4
    want = evolve_lindblad(np.diag(nu), rho0, dec, TimeGrid(0.0, t, dt=t)).final_state
    assert np.max(np.abs(_dephased(rho0, dec, nu, t, spin) - want)) <= 1e-13
    stack = _dephased(rho0, dec, nu, np.array([0.0, t]), spin)
    assert stack.shape == (2, d, d)
    assert np.array_equal(stack[0], rho0)
    assert np.max(np.abs(stack[1] - want)) <= 1e-13


def test_coherence_scaling_peak_memory_stays_below_one_liouvillian():
    # the closed form needs d x d arrays; the d^2 x d^2 complex Liouvillian
    # of the Lindblad evolver at 2I = 25 alone is 7.3 MB
    d = 26
    liouvillian_bytes = d ** 4 * 16
    cfg = paper_config()
    tracemalloc.start()
    try:
        (row,) = coherence_scaling(cfg, [25])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.coherence == pytest.approx(row.analytic, rel=1e-6, abs=0)
    assert peak < liouvillian_bytes


def test_tact_corner_case_forms_cat_without_field():
    cfg = paper_config(params={"n_steps": 4000})
    results = tact_oat_comparison(cfg, eta_list=[0.0], b0_list=[0.0], include_corner=True)
    corner = results[-1]
    assert corner.euler[1] == pytest.approx(np.pi / 2)
    assert corner.series.operator_tag == "z"
    assert corner.series.peak >= 0.99 * 7
    assert corner.series.peak_time == pytest.approx(np.pi / (2 * cfg.quad.omega_q), rel=0.01)


def test_tact_aligned_oat_cat():
    cfg = paper_config(params={"n_steps": 4000})
    res = tact_oat_comparison(cfg, eta_list=[0.0], b0_list=[0.0])[0]
    assert res.series.peak >= 0.99 * 7
    husimi_run = tact_oat_comparison(
        cfg, eta_list=[0.0], b0_list=[0.0], with_husimi=True
    )[0]
    assert husimi_run.husimi is not None
    assert abs(husimi_run.husimi.integral() - 1.0) < 1e-3


def test_tact_corotating_frame_removes_larmor_precession():
    # aligned symmetric EFG: H = gamma*B0 Iz + f(Iz) is diagonal, so in the
    # frame co-rotating at gamma*B0 the state is the field-free one
    # 3000 steps of 1 ns with and without the field, every step stored: the
    # 3001 states are corotated and measured in two CHUNK_BYTES slices
    cfg = paper_config(params={"t_max": 3e-6, "n_steps": 3000, "n_output": 3000})
    assert CHUNK_BYTES // (16 * cfg.spin.dimension) < 3001
    free, field = tact_oat_comparison(cfg, eta_list=[0.0], b0_list=[0.0, cfg.fields.gamma_b0])
    assert np.array_equal(field.series.times, free.series.times)
    assert np.max(np.abs(field.series.values - free.series.values)) <= 1e-9
    # and the field-free state is exp(-i E t) psi0, H diagonal (6.4e-13 measured)
    spin = cfg.spin
    energies = np.diag(static_hamiltonian(replace(cfg.fields, gamma_b0=0.0), cfg.quad, spin))
    states = np.exp(-1j * np.multiply.outer(free.series.times, energies)) * coherent_state(
        spin, np.pi / 2, 0.0
    )
    iy = spin_operators(spin).Iy
    expected = [effective_size(state, iy, spin) for state in states]
    assert np.max(np.abs(field.series.values - expected)) <= 1e-9


def test_sweeps_check_their_observable_once_per_case(monkeypatch):
    # tact and the decoherence sweep measure one constant observable a
    # CHUNK_BYTES slice of states at a time, and check it once per case
    checks = []
    original = spincat.observables.is_hermitian

    def counting(a, tol):
        checks.append(tol)
        return original(a, tol)

    monkeypatch.setattr(spincat.observables, "is_hermitian", counting)
    cfg = paper_config(params={"t_max": 3e-6, "n_steps": 3000, "n_output": 3000})
    assert CHUNK_BYTES // (16 * cfg.spin.dimension) < 3001  # two slices a case
    tact_oat_comparison(cfg, eta_list=[0.0], b0_list=[0.0, cfg.fields.gamma_b0])
    assert len(checks) == 2
    cfg = paper_config(params={"t_max": 1e-3, "n_points": 600})
    assert CHUNK_BYTES // (16 * cfg.spin.dimension**2) < 600  # three slices a case
    decoherence_sweep(cfg, gamma_m_list=[10.0, 20.0], gamma_e_list=[0.1])
    assert len(checks) == 4
    # a measurement of its own still checks its observable
    with pytest.raises(ValueError, match="observable must be Hermitian"):
        effective_size(coherent_state(cfg.spin, 0.3, 0.0), np.triu(np.ones((8, 8))), cfg.spin)
    assert len(checks) == 5


def test_config_round_trip_and_manifest(tmp_path):
    cfg = paper_config(params={"t_max": 1e-3})
    doc = config_to_dict(cfg)
    back = config_from_dict(json.loads(json.dumps(doc)))
    assert back.spin == cfg.spin
    assert back.fields == cfg.fields
    assert back.quad == cfg.quad
    assert back.decoherence == cfg.decoherence
    assert back.params == cfg.params
    path = write_manifest(tmp_path, "demo", cfg, 1.25, extras={"note": "test"})
    with open(path) as fh:
        manifest = json.load(fh)
    assert manifest["scenario"] == "demo"
    assert manifest["config"]["spin"]["twice_i"] == 7
    assert manifest["extras"]["note"] == "test"
    assert manifest["wall_time_s"] == 1.25


def test_scenarios_are_deterministic():
    cfg = paper_config()
    a = oat_free_evolution(cfg)
    b = oat_free_evolution(cfg)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.times, b.times)
