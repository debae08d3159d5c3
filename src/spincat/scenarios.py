"""Config-driven scenario runs: one-axis-twisting free evolution, the
Ramsey-like cat protocol, virtual-phase cat generation, the Givens-rotation
baseline, decoherence sweeps, coherence-vs-dimension scaling and the
twisting-conversion comparison.

Every scenario is deterministic given its config.  Collapse-and-revival
reproductions run in the generalized rotating frame, where free evolution is
the identity, and one-axis twisting, whose Hamiltonian is diagonal, evolves in
closed form.  :func:`multitone_lab_validation` (``spincat lab-check``)
integrates the full time-dependent Hamiltonian over one pulse and checks the
rotating-wave model against it.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ._version import __version__
from .control import (
    RESONANCE_RTOL,
    PulseSchedule,
    PulseSegment,
    ToneSpec,
    cat_schedule,
    givens_schedule,
    oat_equivalent_phase_shifts,
    rotating_frame_hamiltonian,
    rotation_duration,
    segment_rotating_hamiltonian,
)
from .dynamics import (
    CHUNK_BYTES,
    LAB_FRAME_DT,
    DecoherenceSpec,
    Drive,
    TimeGrid,
    evolve_lindblad,
    evolve_unitary,
    propagator,
)
from .hamiltonian import (
    EnergyLadder,
    FieldSpec,
    QuadrupoleSpec,
    effective_oat_strength,
    energy_ladder,
    static_hamiltonian,
)
from .observables import (
    SizeSeries,
    _checked_observable,
    _effective_sizes,
    _variance,
    cat_coherence,
    effective_sizes,
    husimi_q,
)
from .spin import SpinQuantum, coherent_state, eigenstate, fidelity, spin_operators

__all__ = [
    "ScenarioConfig",
    "paper_config",
    "config_to_dict",
    "config_from_dict",
    "oat_free_evolution",
    "ramsey_cat_protocol",
    "virtual_phase_cat",
    "givens_baseline",
    "decoherence_sweep",
    "coherence_scaling",
    "tact_oat_comparison",
    "multitone_lab_validation",
    "VirtualPhaseResult",
    "GivensResult",
    "SweepResult",
    "CoherenceRow",
    "TactResult",
    "LabValidationResult",
    "write_manifest",
]

_TWO_PI = 2 * np.pi


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameter set for a scenario run.

    ``params`` carries scenario-specific knobs (sweep ranges, sample counts,
    phase-rule reference frequency, ...); ``_PARAMS`` holds the rule of each
    key, and every scenario documents the keys it reads.  Run settings are
    not part of it: the output directory is ``spincat --out`` and the
    lab-frame step ``spincat lab-check --dt``.
    """

    spin: SpinQuantum
    fields: FieldSpec
    quad: QuadrupoleSpec
    decoherence: DecoherenceSpec = DecoherenceSpec()
    params: dict = field(default_factory=dict)


def paper_config(twice_i: int = 7, **overrides) -> ScenarioConfig:
    """Default parameter set: gamma*B0 = 2pi x 8.25 MHz, omega_q = 2pi x 40 kHz,
    gamma*B1 = 2pi x 800 Hz, aligned symmetric EFG, drive along y."""
    base = dict(
        spin=SpinQuantum(twice_i),
        fields=FieldSpec(
            gamma_b0=_TWO_PI * 8.25e6, gamma_b1=_TWO_PI * 800.0, drive_axis="y"
        ),
        quad=QuadrupoleSpec(omega_q=_TWO_PI * 40e3, eta=0.0, euler=(0.0, 0.0, 0.0)),
        decoherence=DecoherenceSpec(gamma_m=10.0, gamma_e=0.1),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """JSON-ready mapping; gamma*B and omega_q appear in Hz (the 2pi lives at
    this boundary), decoherence rates in 1/s."""
    return {
        "spin": {"twice_i": cfg.spin.twice_i},
        "fields": {
            "gamma_b0_hz": cfg.fields.gamma_b0 / _TWO_PI,
            "gamma_b1_hz": cfg.fields.gamma_b1 / _TWO_PI,
            "drive_axis": cfg.fields.drive_axis,
        },
        "quadrupole": {
            "omega_q_hz": cfg.quad.omega_q / _TWO_PI,
            "eta": cfg.quad.eta,
            "euler_rad": list(cfg.quad.euler),
        },
        "decoherence": {
            "gamma_m_per_s": cfg.decoherence.gamma_m,
            "gamma_e_per_s": cfg.decoherence.gamma_e,
        },
        "params": cfg.params,
    }


def _checked(value, key: str, kind: str = "real", bound=None):
    """``value`` of the dotted config key ``key`` under a rule, else an error
    naming the key: ``"real"`` a finite real, as a float, and ``bound``
    ("> 0" or ">= 0") if given; ``"count"`` an integer >= ``bound``;
    ``"choice"`` one of ``bound``.  A bool is neither a real nor a count."""
    if kind == "choice":
        if value not in bound:
            names = ", ".join(map(repr, bound[:-1]))
            raise ValueError(f"config key {key!r} must be {names} or {bound[-1]!r}, got {value!r}")
        return value
    if kind == "count":
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < bound:
            raise ValueError(f"config key {key!r} must be an integer >= {bound}, got {value!r}")
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"config key {key!r} must be a finite number, got {value!r}")
    value = float(value)
    if bound is not None and not (value > 0 if bound == "> 0" else value >= 0):
        raise ValueError(f"config key {key!r} must be {bound}, got {value!r}")
    return value


#: The rule of each ``params`` key: the ``kind`` and ``bound`` of :func:`_checked`.
_PARAMS = {
    "n_points": ("count", 2),
    "n_steps": ("count", 1),
    "n_output": ("count", 1),
    "operator": ("choice", ("x", "y", "z")),
    "t_max": ("real", "> 0"),
    "t_final": ("real", "> 0"),
    "t_wait": ("real", ">= 0"),
    "phase_reference_omega": ("real", None),
    "base_phase": ("real", None),
}


def _param(cfg: ScenarioConfig, key: str, default):
    """``cfg.params[key]``, else ``default`` (called if callable, so that a
    computed default costs nothing when the key is set), under the key's
    rule in ``_PARAMS``; a bad value is an error naming ``params.<key>``."""
    if key not in cfg.params and callable(default):
        default = default()
    return _checked(cfg.params.get(key, default), f"params.{key}", *_PARAMS[key])


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Inverse of :func:`config_to_dict`; missing sections fall back to the
    default parameter set.  A key that :func:`config_to_dict` does not write
    is an error naming its dotted path; ``params`` is free-form.  Numbers
    must be finite reals, the two field strengths, ``omega_q_hz`` and the two
    rates also >= 0 (checked in the config's own units), ``spin.twice_i`` an
    integer >= 1 and ``quadrupole.euler_rad`` a list of three numbers."""
    base = paper_config()
    known = config_to_dict(base)
    if not isinstance(doc, dict):
        raise ValueError("a config must be a JSON object")
    for key, section in doc.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        if not isinstance(known[key], dict):
            continue
        if not isinstance(section, dict):
            raise ValueError(f"config section {key!r} must be an object")
        if key == "params":
            continue
        for sub in section:
            if sub not in known[key]:
                raise ValueError(f"unknown config key '{key}.{sub}'")

    def value(key: str):
        section, sub = key.split(".")
        return doc.get(section, {}).get(sub, known[section][sub])

    def number(key: str, bound=None) -> float:
        return _checked(value(key), key, "real", bound)

    twice_i = _checked(value("spin.twice_i"), "spin.twice_i", "count", 1)
    euler = value("quadrupole.euler_rad")
    if not isinstance(euler, (list, tuple)) or len(euler) != 3:
        raise ValueError(f"config key 'quadrupole.euler_rad' must hold 3 numbers, got {euler!r}")
    fields = FieldSpec(
        gamma_b0=number("fields.gamma_b0_hz", ">= 0") * _TWO_PI,
        gamma_b1=number("fields.gamma_b1_hz", ">= 0") * _TWO_PI,
        drive_axis=value("fields.drive_axis"),
    )
    quad = QuadrupoleSpec(
        omega_q=number("quadrupole.omega_q_hz", ">= 0") * _TWO_PI,
        eta=number("quadrupole.eta"),
        euler=tuple(_checked(x, "quadrupole.euler_rad") for x in euler),
    )
    dec = DecoherenceSpec(
        gamma_m=number("decoherence.gamma_m_per_s", ">= 0"),
        gamma_e=number("decoherence.gamma_e_per_s", ">= 0"),
    )
    return ScenarioConfig(
        spin=SpinQuantum(twice_i),
        fields=fields,
        quad=quad,
        decoherence=dec,
        params=doc.get("params", {}),
    )


# ---------------------------------------------------------------------------
# shared machinery


def _measure_operator(spin: SpinQuantum, tag: str) -> np.ndarray:
    ops = spin_operators(spin)
    return {"x": ops.Ix, "y": ops.Iy, "z": ops.Iz}[tag]


def _ladder(cfg: ScenarioConfig) -> EnergyLadder:
    """The static ladder of ``cfg``.  A tone is mapped to the nearest
    transition, so two transitions at one frequency (within
    ``RESONANCE_RTOL``) is an error naming ``quadrupole.omega_q_hz``: no tone
    could address one of them alone."""
    ladder = energy_ladder(static_hamiltonian(cfg.fields, cfg.quad, cfg.spin), cfg.spin)
    freqs = np.sort(ladder.transition_freqs)
    if np.any(np.diff(freqs) <= RESONANCE_RTOL * np.max(np.abs(freqs))):
        raise ValueError(
            f"config key 'quadrupole.omega_q_hz' = {cfg.quad.omega_q / _TWO_PI:g} "
            "leaves two transition frequencies equal within RESONANCE_RTOL, so a "
            "selective pulse cannot address one transition"
        )
    return ladder


def _twisting(cfg: ScenarioConfig) -> float:
    """The effective twisting strength omega_q_eff of ``cfg``; zero is an
    error naming the config key that removes the Iz^2 term."""
    omega = effective_oat_strength(cfg.quad, cfg.spin)
    if omega == 0:
        key, value = (
            ("spin.twice_i", cfg.spin.twice_i) if cfg.spin.twice_i < 2
            else ("quadrupole.omega_q_hz", f"{cfg.quad.omega_q / _TWO_PI:g}")
        )
        raise ValueError(
            f"config key '{key}' is {value}, so the effective twisting strength is zero"
        )
    return omega


def _uniform_tones(freqs, eps, phi):
    return tuple(ToneSpec(float(w), eps, float(p)) for w, p in zip(freqs, np.broadcast_to(phi, len(freqs))))


def _twisted(psi: np.ndarray, omega: float, t, spin: SpinQuantum) -> np.ndarray:
    """``psi`` after one-axis twisting H = omega Iz^2 for time ``t``.  H is
    diagonal, so each amplitude gains the phase exp(-i omega t m^2) exactly;
    an array of k times gives a (k, d) stack of states."""
    return np.exp(-1j * np.multiply.outer(np.multiply(t, omega), spin.m_values ** 2)) * psi


def _dephasing_generator(dec: DecoherenceSpec, nu, spin: SpinQuantum) -> np.ndarray:
    """G with d rho_jk/dt = G_jk rho_jk under the Lindblad equation with the
    diagonal Hamiltonian diag(nu) and the dephasing ``dec``:
    G_jk = -R_jk / 2 - i (nu_j - nu_k), R the rates of
    :meth:`DecoherenceSpec.rates`."""
    return -0.5 * dec.rates(spin.m_values) - 1j * np.subtract.outer(nu, nu)


def _dephased(rho: np.ndarray, dec: DecoherenceSpec, nu, t, spin: SpinQuantum) -> np.ndarray:
    """``rho`` after time ``t`` under the Lindblad equation with the diagonal
    Hamiltonian diag(nu) and the dephasing ``dec``, in closed form: both act
    element by element, rho_jk exp(G_jk t) with G from
    :func:`_dephasing_generator`.  An array of k times gives a (k, d, d)
    stack of states."""
    return rho * np.exp(np.multiply.outer(t, _dephasing_generator(dec, nu, spin)))


# ---------------------------------------------------------------------------
# scenarios


def oat_free_evolution(cfg: ScenarioConfig) -> SizeSeries:
    """Degree of superposition under free evolution of the effective
    one-axis-twisting Hamiltonian, starting from a coherent state on x.

    N_eff (measured with Iy by default; ``params["operator"]`` overrides)
    peaks at 2I at t = pi/(2 omega_q_eff) and returns to 1 at the revival
    t = pi/omega_q_eff.  H = omega_q_eff Iz^2 is diagonal, so every sample
    is the closed form psi(t) = psi(0) exp(-i omega_q_eff t m^2), with no
    time stepping.  Params: ``t_max`` (default one revival period),
    ``n_points`` (default 1001), ``operator`` (default "y").
    """
    spin = cfg.spin
    omega = _twisting(cfg)
    t_max = _param(cfg, "t_max", np.pi / abs(omega))
    times = np.linspace(0.0, t_max, _param(cfg, "n_points", 1001))
    states = _twisted(coherent_state(spin, np.pi / 2, 0.0), omega, times, spin)
    tag = _param(cfg, "operator", "y")
    values = effective_sizes(states, _measure_operator(spin, tag), spin)
    return SizeSeries(times=times, values=values, operator_tag=tag)


def ramsey_cat_protocol(cfg: ScenarioConfig, phase_rule: str = "rotating") -> SizeSeries:
    """N_eff(Iz) after the two-pulse multi-tone protocol, versus the gap T.

    ``phase_rule = "fixed"`` keeps the second pulse phase at pi/2, producing
    the fast oscillation at gamma*B0/pi; ``"rotating"`` advances it by the
    frame phase accumulated up to the second pulse's start, exposing the
    clean collapse-and-revival of period pi/omega_q_eff.  The signal is the
    zero-rate case of :func:`decoherence_sweep`: the same protocol, run in
    the generalized rotating frame.  Params: ``phase_reference_omega``
    (default gamma*B0; read by the rotating rule only), ``t_max`` (default
    2.5 revival periods), ``n_points`` (default 1251).
    """
    if phase_rule not in ("fixed", "rotating"):
        raise ValueError(f"phase_rule must be 'fixed' or 'rotating', got {phase_rule!r}")
    omega_ref = 0.0
    if phase_rule == "rotating":
        omega_ref = _param(cfg, "phase_reference_omega", cfg.fields.gamma_b0)
    t_max = _param(cfg, "t_max", lambda: 2.5 * np.pi / abs(_twisting(cfg)))
    t_values = np.linspace(0.0, t_max, _param(cfg, "n_points", 1251))
    return _cat_signal(cfg, DecoherenceSpec(), omega_ref, t_values)


def _pulse_pair(cfg, ladder, t_half: float, omega_ref: float) -> tuple:
    """The cat protocol's pulses in the generalized rotating frame, where
    free evolution is the identity: the first pulse's Hamiltonian, the
    second pulse's propagator U2(0) at zero gap, and the rates
    nu_k = omega_ref * k + E_k (k the basis index) that give the second
    pulse at gap T as U2(T) = D U2(0) D^dagger with D = diag(exp(i nu T)).
    """
    delta_phi = np.pi / 2 + omega_ref * t_half
    sched = cat_schedule(ladder.transition_freqs, delta_phi, 0.0, t_half)
    h1, h2 = (
        segment_rotating_hamiltonian(
            seg, cfg.spin, cfg.fields.gamma_b1, ladder, cfg.fields.drive_axis
        )
        for seg in sched.segments
    )
    nu = omega_ref * np.arange(cfg.spin.dimension) + ladder.energies
    return h1, propagator(h2, t_half), nu


def _cat_signal(cfg, dec: DecoherenceSpec, omega_ref: float, t_values) -> SizeSeries:
    """N_eff(Iz) of the cat protocol under the dephasing ``dec``, for each
    gap T in ``t_values``, with the pulses of :func:`_pulse_pair`.

    |I,I> passes the first pulse under the Lindblad equation, propagated
    exactly in one step, to rho1.  Over the gap the jump operators dephase
    the state in closed form, and D commutes with Iz, so the measured state
    is U2(0) sigma(T) U2(0)^dagger with sigma(T) = D^dagger rho(T) D, the
    state :func:`_dephased` gives with H = diag(nu):
    sigma_jk(T) = rho1_jk exp(G_jk T), G from :func:`_dephasing_generator`.

    The states are never built.  The sweep measures in the Heisenberg
    picture: with A = U2(0)^dagger O U2(0) for O = Iz and Iz^2, once per
    case, <O>(T) = sum_jk c_jk exp(G_jk T) with c = A^T o rho1.  G_jj = 0,
    and the (k, j) term is the conjugate of the (j, k) one, so
    <O>(T) = sum_j c_jj + 2 Re sum_{j<k} c_jk exp(G_jk T): d(d-1)/2
    exponentials a gap, formed ``CHUNK_BYTES`` of (gaps x pairs) at a time,
    and one (gaps x pairs) x (pairs x 2) product gives both moments.
    """
    t_values = np.asarray(t_values, dtype=float)
    if t_values.size == 0 or not np.all(np.isfinite(t_values) & (t_values >= 0)):
        raise ValueError("need at least one gap time, each finite and >= 0")
    spin = cfg.spin
    t_half = rotation_duration(spin, cfg.fields.gamma_b1, np.pi / 2)
    h1, u2, nu = _pulse_pair(cfg, _ladder(cfg), t_half, omega_ref)
    psi0 = eigenstate(spin, spin.i)
    rho0 = np.outer(psi0, psi0.conj())
    rho1 = evolve_lindblad(h1, rho0, dec, TimeGrid(0.0, t_half, dt=t_half)).final_state
    iz = _checked_observable(spin_operators(spin).Iz)
    # c = A^T o rho1 for A = U2^dagger O U2, O = Iz and Iz^2 on the last axis
    c = np.stack([(u2.conj().T @ op @ u2).T * rho1 for op in (iz, iz @ iz)], axis=-1)
    upper = np.triu_indices(spin.dimension, 1)
    pairs = 2 * c[upper]
    generator = _dephasing_generator(dec, nu, spin)[upper]
    constant = np.trace(c).real
    chunk = max(1, CHUNK_BYTES // (16 * generator.size))
    moments = np.concatenate([
        constant + (np.exp(np.multiply.outer(t, generator)) @ pairs).real
        for t in np.split(t_values, range(chunk, t_values.size, chunk))
    ])
    values = 2.0 * _variance(moments[:, 0], moments[:, 1]) / spin.i
    return SizeSeries(times=t_values, values=values, operator_tag="Iz")


def _lab_hamiltonian(
    h_static, fields: FieldSpec, spin: SpinQuantum, pulse: PulseSegment
) -> Drive:
    """The lab-frame drive H_static + gamma_B1 f(t) I_axis, with f the
    envelope of the multi-tone ``pulse``."""
    axis_op = _measure_operator(spin, fields.drive_axis)
    return Drive(h_static, fields.gamma_b1 * np.asarray(axis_op), pulse)


@dataclass
class VirtualPhaseResult:
    fidelity: float
    final_state: np.ndarray
    reference_state: np.ndarray
    phase_increments: np.ndarray


def virtual_phase_cat(cfg: ScenarioConfig) -> VirtualPhaseResult:
    """Cat generation by phase modulation alone, in the rotating frame.

    Two back-to-back pi/2 pulses replace the pulse / free-twisting / pulse
    protocol: the pulse acting on the twisting eigenstate |I,I> carries the
    exact per-tone gauge shifts for the wait T, so the pair of pulses
    reproduces the free-evolution protocol including global phase.  The
    reference state runs the nonlinear evolution exp(-i T omega_q_eff Iz^2)
    for real between uniform-phase pulses.  Params: ``t_wait`` (T, default
    the cat time pi/(2 |omega_q_eff|)), ``base_phase`` (the uniform tone
    phase, default 0).
    """
    spin = cfg.spin
    ladder = _ladder(cfg)
    omega_eff = _twisting(cfg)
    t_wait = _param(cfg, "t_wait", np.pi / (2 * abs(omega_eff)))
    base_phase = _param(cfg, "base_phase", 0.0)
    n = spin.twice_i
    freqs = ladder.transition_freqs
    eps = 1.0 / n
    t_half = rotation_duration(spin, cfg.fields.gamma_b1, np.pi / 2)

    shifts = oat_equivalent_phase_shifts(t_wait, omega_eff, spin)
    phases_base = np.full(n, base_phase)
    u_base = propagator(
        rotating_frame_hamiltonian(
            _uniform_tones(freqs, eps, phases_base), spin, cfg.fields.gamma_b1, ladder
        ),
        t_half,
    )
    u_shifted = propagator(
        rotating_frame_hamiltonian(
            _uniform_tones(freqs, eps, phases_base + shifts),
            spin, cfg.fields.gamma_b1, ladder,
        ),
        t_half,
    )
    psi0 = eigenstate(spin, spin.i)
    final = u_base @ (u_shifted @ psi0)

    # reference: uniform-phase pulses with the twisting applied for real
    reference = u_base @ _twisted(u_base @ psi0, omega_eff, t_wait, spin)

    return VirtualPhaseResult(
        fidelity=fidelity(final, reference),
        final_state=final,
        reference_state=reference,
        phase_increments=shifts,
    )


@dataclass
class GivensResult:
    mode: str
    schedule: PulseSchedule
    edge_populations: tuple
    end_fidelity: float
    oat_period: float


def givens_baseline(cfg: ScenarioConfig, mode: str = "collapse") -> GivensResult:
    """Cat creation (and collapse) by sequential selective Givens rotations.

    Pulses are ideal rotating-frame gates: each segment drives exactly one
    ladder transition with the phase given by its tone.  The report compares
    the total gate-sequence duration with the one-axis-twisting period.
    """
    spin = cfg.spin
    ladder = _ladder(cfg)
    sched = givens_schedule(spin, cfg.fields.gamma_b1, ladder, mode)
    psi = eigenstate(spin, spin.i).astype(complex)
    for seg in sched.segments:
        h_rot = rotating_frame_hamiltonian(seg.tones, spin, cfg.fields.gamma_b1, ladder)
        psi = propagator(h_rot, seg.duration) @ psi
    pop_top = abs(psi[0]) ** 2
    pop_bottom = abs(psi[-1]) ** 2
    target = eigenstate(spin, -spin.i)
    omega_eff = effective_oat_strength(cfg.quad, spin)
    return GivensResult(
        mode=mode,
        schedule=sched,
        edge_populations=(pop_top, pop_bottom),
        end_fidelity=fidelity(psi, target),
        oat_period=np.pi / abs(omega_eff) if omega_eff else np.inf,
    )


@dataclass
class SweepResult:
    gamma_m: float
    gamma_e: float
    series: SizeSeries


def decoherence_sweep(
    cfg: ScenarioConfig, gamma_m_list=None, gamma_e_list=None
) -> list:
    """Collapse-and-revival signal N_eff(Iz)(T) under dephasing.

    Cycle structure: the first multi-tone pi/2 pulse evolves under the full
    Lindblad equation, propagated exactly over the pulse in one step.  Over
    the gap T the Hamiltonian is zero in the generalized rotating frame and
    the diagonal jump operators dephase the state in closed form; the second
    pulse follows the rotating phase rule of :func:`ramsey_cat_protocol` and
    is the zero-gap pulse conjugated by a diagonal phase.  Each case
    measures every gap in the Heisenberg picture (:func:`_cat_signal`):
    <Iz> and <Iz^2> at gap T are sums of damped exponentials, so no state
    after the gap is built.  Params: ``t_max``
    (default 40 ms), ``n_points`` (default 40001, i.e. 1 us sampling so
    revivals are resolved), ``phase_reference_omega`` (default gamma*B0).
    """
    if gamma_m_list is None:
        gamma_m_list = [cfg.decoherence.gamma_m]
    if gamma_e_list is None:
        gamma_e_list = [cfg.decoherence.gamma_e]
    t_values = np.linspace(
        0.0, _param(cfg, "t_max", 40e-3), _param(cfg, "n_points", 40001)
    )
    omega_ref = _param(cfg, "phase_reference_omega", cfg.fields.gamma_b0)
    return [
        SweepResult(gm, ge, _cat_signal(cfg, DecoherenceSpec(gm, ge), omega_ref, t_values))
        for gm, ge in itertools.product(gamma_m_list, gamma_e_list)
    ]


@dataclass
class CoherenceRow:
    twice_i: int
    dimension: int
    coherence: float
    analytic: float


def coherence_scaling(cfg: ScenarioConfig, twice_i_list=None) -> list:
    """Cat coherence |rho_{I,-I}| after amplified dephasing, versus dimension.

    For each spin the ideal cat (|I,I> + |I,-I>)/sqrt2 dephases for
    ``t_final`` (a param, default 1 ms) under ``cfg.decoherence`` with
    H = 0.  The jump operators are diagonal, so the Lindblad solution is the
    element-by-element closed form of :func:`_dephased`, with no d^2 x d^2
    Liouvillian.  Gamma_e leaves rho_{I,-I} alone (m^2 is the same at
    m = +-I), so the coherence is compared against the law
    (1/2) exp(-Gamma_m (2I)^2 t / 2).
    """
    if twice_i_list is None:
        twice_i_list = [1, 3, 5, 7, 9]
    dec = cfg.decoherence
    t_final = _param(cfg, "t_final", 1e-3)
    rows = []
    for twice_i in twice_i_list:
        spin = SpinQuantum(twice_i)
        cat = (eigenstate(spin, spin.i) + eigenstate(spin, -spin.i)) / np.sqrt(2)
        rho = _dephased(np.outer(cat, cat.conj()), dec, np.zeros(spin.dimension), t_final, spin)
        rows.append(
            CoherenceRow(
                twice_i=twice_i,
                dimension=spin.dimension,
                coherence=cat_coherence(rho, spin),
                analytic=0.5 * float(np.exp(-dec.gamma_m * twice_i ** 2 * t_final / 2)),
            )
        )
    return rows


@dataclass
class TactResult:
    """One tact case.  The peak N_eff, its time and the measured component
    are ``series.peak``, ``series.peak_time`` and ``series.operator_tag``;
    ``husimi`` is the Q function of the state at that peak, if asked for;
    ``corner`` marks the case that ``include_corner`` adds."""

    eta: float
    gamma_b0: float
    euler: tuple
    series: SizeSeries
    husimi: object
    corner: bool


def tact_oat_comparison(
    cfg: ScenarioConfig,
    eta_list=None,
    b0_list=None,
    include_corner: bool = False,
    with_husimi: bool = False,
) -> list:
    """Free quadrupolar evolution for combinations of asymmetry and Zeeman
    strength, from a coherent state on x.

    Pure twisting with eta = 1 and no field squeezes but never forms a cat;
    adding a dominant Zeeman term converts the dynamics to one-axis twisting
    and the cat reappears.  By default eta is 0 and 1 and gamma*B0 is 0 and
    the configured field, once if that is 0.  With ``include_corner`` the
    no-field corner case (eta = 0, mu = pi/2) is added, measured along z.
    N_eff is evaluated in the frame co-rotating at gamma*B0; params:
    ``t_max`` (default one full nonlinear window 2 pi / omega_q),
    ``n_steps``, ``n_output``, ``operator`` (default "y").  H is constant
    and propagated exactly, so the grid only sets where samples fall.  A
    base step of ``LAB_FRAME_DT`` with a field, which resolves the Larmor
    precession, else ``t_max / n_steps`` (default 20000 steps), gives a step
    count; the samples, min(``n_output``, that count) of them (default
    4000), fall at k t_max / samples, each a whole number of steps no longer
    than the base step apart.  At the defaults the field case takes 28 000
    steps, stored every 7th, so its samples are 6.25 ns apart and land on
    the cat at pi / (2 omega_q).
    """
    if eta_list is None:
        eta_list = [0.0, 1.0]
    if b0_list is None:
        b0_list = [0.0] if cfg.fields.gamma_b0 == 0 else [0.0, cfg.fields.gamma_b0]
    tag = _param(cfg, "operator", "y")
    cases = [
        (eta, b0, cfg.quad.euler, tag, False)
        for eta, b0 in itertools.product(eta_list, b0_list)
    ]
    if include_corner:
        cases.append((0.0, 0.0, (0.0, np.pi / 2, 0.0), "z", True))
    return [_tact_single(cfg, *c, with_husimi=with_husimi) for c in cases]


def _tact_single(
    cfg: ScenarioConfig, eta, gamma_b0, euler, tag, corner, with_husimi=False
) -> TactResult:
    spin = cfg.spin
    quad = replace(cfg.quad, eta=float(eta), euler=tuple(euler))
    fields = replace(cfg.fields, gamma_b0=float(gamma_b0))
    h = static_hamiltonian(fields, quad, spin)

    def window() -> float:
        if quad.omega_q > 0:
            return 2 * np.pi / quad.omega_q
        raise ValueError(
            "config key 'quadrupole.omega_q_hz' is 0, so the default "
            "params.t_max = 1 / omega_q_hz is undefined; set params.t_max"
        )
    t_max = _param(cfg, "t_max", window)
    dt = LAB_FRAME_DT if gamma_b0 > 0 else t_max / _param(cfg, "n_steps", 20000)
    steps = TimeGrid(0.0, t_max, dt=dt).n_steps
    samples = min(_param(cfg, "n_output", 4000), steps)
    stride = -(-steps // samples)
    grid = TimeGrid(0.0, t_max, dt=t_max / (samples * stride), output_stride=stride)
    psi0 = coherent_state(spin, np.pi / 2, 0.0)
    traj = evolve_unitary(h, psi0, grid)

    # undo the Larmor precession only (frame co-rotating at gamma*B0), in
    # place, and measure a CHUNK_BYTES slice of the states at a time
    op = _checked_observable(_measure_operator(spin, tag))
    vals = np.empty(len(traj.times))
    chunk = max(1, CHUNK_BYTES // traj.states[0].nbytes)
    for k in range(0, len(vals), chunk):
        part = slice(k, k + chunk)
        states = traj.states[part]
        corotate = np.exp(1j * np.multiply.outer(fields.gamma_b0 * traj.times[part], spin.m_values))
        # corotate first: numpy's complex product can round differently in
        # the last bit with its operands swapped
        np.multiply(corotate, states, out=states)
        vals[part] = _effective_sizes(states, op, spin)
    series = SizeSeries(times=traj.times, values=vals, operator_tag=tag)
    hus = husimi_q(traj.states[series.peak_index], spin) if with_husimi else None
    return TactResult(
        eta=float(eta),
        gamma_b0=float(gamma_b0),
        euler=tuple(euler),
        series=series,
        husimi=hus,
        corner=corner,
    )


@dataclass
class LabValidationResult:
    scale: float
    dt: float
    duration: float
    n_steps: int
    infidelity_vs_model: float
    infidelity_vs_ideal: float


def multitone_lab_validation(cfg: ScenarioConfig, scale: float, dt: float) -> LabValidationResult:
    """Full-model check of the rotating-wave multi-tone pi/2 rotation.

    gamma*B1 and omega_q are scaled up together (preserving their ratio, so
    the rotating-wave error budget is unchanged) to shorten the pulse to a
    desk-scale lab-frame run at the given step.  The final lab state is
    transformed to the generalized rotating frame and compared against the
    rotating-frame model and against the ideal equatorial coherent state.
    """
    spin = cfg.spin
    fields = replace(cfg.fields, gamma_b1=cfg.fields.gamma_b1 * scale)
    quad = replace(cfg.quad, omega_q=cfg.quad.omega_q * scale)
    ladder = _ladder(replace(cfg, fields=fields, quad=quad))
    h_static = static_hamiltonian(fields, quad, spin)
    t_half = rotation_duration(spin, fields.gamma_b1, np.pi / 2)
    seg = cat_schedule(ladder.transition_freqs, 0.0, 0.0, t_half).segments[0]
    gamma_b1 = fields.gamma_b1
    drive = _lab_hamiltonian(h_static, fields, spin, seg)
    grid = TimeGrid(0.0, t_half, dt=dt)
    psi0 = eigenstate(spin, spin.i)
    traj = evolve_unitary(drive, psi0, grid)
    psi_rot = np.exp(1j * ladder.energies * grid.t_end) * traj.final_state

    h_rot = segment_rotating_hamiltonian(seg, spin, gamma_b1, ladder, fields.drive_axis)
    psi_model = propagator(h_rot, t_half) @ psi0
    azimuth = 0.0 if fields.drive_axis == "y" else -np.pi / 2
    psi_ideal = coherent_state(spin, np.pi / 2, azimuth)
    return LabValidationResult(
        scale=scale,
        dt=grid.step,
        duration=t_half,
        n_steps=grid.n_steps,
        infidelity_vs_model=1.0 - fidelity(psi_model, psi_rot),
        infidelity_vs_ideal=1.0 - fidelity(psi_ideal, psi_rot),
    )


#: Environment variables that set the BLAS thread count; a manifest records
#: each (null when unset), since a second thread on these small matrices
#: can make a run several times slower.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_manifest(out_dir, scenario: str, cfg: ScenarioConfig, wall_time_s: float, extras=None):
    """Drop a replayable run manifest (config echo, tool and numpy versions,
    BLAS thread settings, wall time)."""
    doc = {
        "tool": "spincat",
        "version": __version__,
        "numpy_version": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
        "scenario": scenario,
        "config": config_to_dict(cfg),
        "wall_time_s": wall_time_s,
    }
    if extras:
        doc["extras"] = extras
    path = os.path.join(out_dir, f"{scenario}_manifest.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
    return path
