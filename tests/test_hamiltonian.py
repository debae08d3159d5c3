import numpy as np
import pytest
from numpy.testing import assert_allclose

from spincat.hamiltonian import (
    FieldSpec,
    QuadrupoleSpec,
    effective_oat_strength,
    energy_ladder,
    principal_axis_operators,
    quadrupole_hamiltonian,
    static_hamiltonian,
)
from spincat.spin import SpinQuantum, spin_operators

TWO_PI = 2 * np.pi
GB0 = TWO_PI * 8.25e6
WQ = TWO_PI * 40e3


def test_quadrupole_spec_validation():
    with pytest.raises(ValueError):
        QuadrupoleSpec(omega_q=1.0, eta=1.5)
    with pytest.raises(ValueError):
        QuadrupoleSpec(omega_q=-1.0)
    for field, kwargs in (
        ("omega_q", dict(omega_q=np.inf)),
        ("eta", dict(eta=np.nan)),
        ("euler", dict(euler=(0.0, np.nan, 0.0))),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            QuadrupoleSpec(**{"omega_q": 1.0, **kwargs})


def test_aligned_symmetric_quadrupole_is_diagonal():
    spin = SpinQuantum(7)
    h = quadrupole_hamiltonian(QuadrupoleSpec(omega_q=WQ, eta=0.0), spin)
    assert_allclose(h, WQ * np.diag(spin.m_values ** 2), atol=1e-9)


def test_eta_one_equals_counter_twisting_form():
    # omega_q [Iz^2 + (Ix^2 - Iy^2 - I^2)/3] = omega_q (1 - eta/3)[Iz^2 - a Iy^2]
    # with a = 2 eta / (3 - eta); at eta = 1, a = 1
    spin = SpinQuantum(7)
    ops = spin_operators(spin)
    h = quadrupole_hamiltonian(QuadrupoleSpec(omega_q=WQ, eta=1.0), spin)
    tact = WQ * (2 / 3) * (ops.Iz @ ops.Iz - ops.Iy @ ops.Iy)
    assert_allclose(h, tact, atol=1e-9 * WQ)


@pytest.mark.parametrize("eta", [0.0, 0.2, 0.5, 0.8, 1.0])
def test_counter_twisting_identity_all_eta(eta):
    spin = SpinQuantum(5)
    quad = QuadrupoleSpec(omega_q=WQ, eta=eta, euler=(0.4, 0.9, -0.7))
    h = quadrupole_hamiltonian(quad, spin)
    ixp, iyp, izp = principal_axis_operators(spin, quad.euler)
    a = 2 * eta / (3 - eta)
    tact = WQ * (1 - eta / 3) * (izp @ izp - a * (iyp @ iyp))
    assert_allclose(h, tact, atol=1e-9 * WQ)


def test_tilted_symmetric_axis_gives_iy_squared():
    # mu = pi/2, delta = 0 puts the principal axis along -y: H_q = omega_q Iy^2
    spin = SpinQuantum(7)
    ops = spin_operators(spin)
    h = quadrupole_hamiltonian(
        QuadrupoleSpec(omega_q=WQ, eta=0.0, euler=(0.0, np.pi / 2, 0.0)), spin
    )
    assert_allclose(h, WQ * ops.Iy @ ops.Iy, atol=1e-9 * WQ)


def test_quadrupole_hermitian_on_random_orientations():
    rng = np.random.default_rng(5)
    spin = SpinQuantum(7)
    for _ in range(10):
        eta = rng.uniform(0, 1)
        euler = rng.uniform(-np.pi, np.pi, size=3)
        h = quadrupole_hamiltonian(QuadrupoleSpec(WQ, eta, tuple(euler)), spin)
        assert np.linalg.norm(h - h.conj().T) < 1e-12 * np.linalg.norm(h)


def test_primed_operators_preserve_casimir():
    rng = np.random.default_rng(6)
    spin = SpinQuantum(9)
    for _ in range(6):
        euler = tuple(rng.uniform(-np.pi, np.pi, size=3))
        ixp, iyp, izp = principal_axis_operators(spin, euler)
        total = ixp @ ixp + iyp @ iyp + izp @ izp
        assert_allclose(total, spin_operators(spin).Isq, atol=1e-10)


def test_quadrupole_spectrum_invariant_under_orientation():
    spin = SpinQuantum(7)
    rng = np.random.default_rng(8)
    base = np.linalg.eigvalsh(
        quadrupole_hamiltonian(QuadrupoleSpec(WQ, 0.37), spin)
    )
    for _ in range(6):
        euler = tuple(rng.uniform(-np.pi, np.pi, size=3))
        rotated = np.linalg.eigvalsh(
            quadrupole_hamiltonian(QuadrupoleSpec(WQ, 0.37, euler), spin)
        )
        assert_allclose(rotated, base, rtol=1e-9, atol=1e-9 * WQ)


def test_static_hamiltonian_pure_zeeman():
    spin = SpinQuantum(7)
    h = static_hamiltonian(FieldSpec(GB0, 0.0), QuadrupoleSpec(0.0), spin)
    assert_allclose(np.diag(h), GB0 * spin.m_values, rtol=1e-14)


def test_static_hamiltonian_paper_values():
    spin = SpinQuantum(7)
    h = static_hamiltonian(FieldSpec(GB0, 0.0), QuadrupoleSpec(WQ), spin)
    m = spin.m_values
    assert_allclose(np.diag(h).real, GB0 * m + WQ * m ** 2, rtol=1e-12)
    # top-gap example: e_{7/2} - e_{5/2} = gamma*B0 + 6 omega_q
    assert h[0, 0].real - h[1, 1].real == pytest.approx(GB0 + 6 * WQ, rel=1e-12)


def test_energy_ladder_zeeman_only():
    spin = SpinQuantum(7)
    ladder = energy_ladder(
        static_hamiltonian(FieldSpec(GB0, 0.0), QuadrupoleSpec(0.0), spin), spin
    )
    assert_allclose(ladder.transition_freqs, np.full(7, GB0), rtol=1e-12)


def test_energy_ladder_aligned_quadrupole():
    # omega_{i,i-1} = gamma*B0 + (2i - 1) omega_q, i = I down to -I+1
    spin = SpinQuantum(7)
    ladder = energy_ladder(
        static_hamiltonian(FieldSpec(GB0, 0.0), QuadrupoleSpec(WQ), spin), spin
    )
    i_vals = spin.m_values[:-1]  # upper level of each transition
    assert_allclose(ladder.transition_freqs, GB0 + (2 * i_vals - 1) * WQ, rtol=1e-12)
    spacings = ladder.transition_freqs[:-1] - ladder.transition_freqs[1:]
    assert_allclose(spacings, np.full(6, 2 * WQ), rtol=1e-9)


def test_energy_ladder_transitions_pairwise_distinct():
    spin = SpinQuantum(7)
    ladder = energy_ladder(
        static_hamiltonian(FieldSpec(GB0, 0.0), QuadrupoleSpec(WQ), spin), spin
    )
    freqs = ladder.transition_freqs
    gaps = np.abs(freqs[:, None] - freqs[None, :])[np.triu_indices(len(freqs), k=1)]
    assert gaps.min() > WQ  # all 2I transitions individually addressable


def test_energy_ladder_zeeman_dominant_regression():
    # eigenvalues of the full Hamiltonian track e_k = gB0 k + wq_eff k^2 + const
    # to the second-order scale (wq / gB0)^2 at the operating ratio ~206
    spin = SpinQuantum(7)
    quad = QuadrupoleSpec(WQ, eta=0.6, euler=(0.3, 0.5, 0.1))
    h = static_hamiltonian(FieldSpec(GB0, 0.0), quad, spin)
    ladder = energy_ladder(h, spin)
    wq_eff = effective_oat_strength(quad, spin)
    k = spin.m_values
    model = GB0 * k + wq_eff * k ** 2
    residual = ladder.energies - model
    residual -= residual.mean()
    bound = (WQ / GB0) ** 2 * GB0 * 50  # generous second-order scale
    assert np.max(np.abs(residual)) < bound


def test_energy_ladder_rejects_mixed_regime():
    spin = SpinQuantum(7)
    ops = spin_operators(spin)
    h = WQ * (ops.Iy @ ops.Iy)  # no Zeeman term: eigenvectors delocalized in m
    with pytest.raises(ValueError):
        energy_ladder(h, spin)


def test_effective_oat_strength_cases():
    spin = SpinQuantum(7)
    assert effective_oat_strength(QuadrupoleSpec(WQ, 0.0), spin) == pytest.approx(
        WQ, rel=1e-12
    )
    # axis along -y: diag(Iy^2) = (I(I+1) - m^2)/2, so the k^2 coefficient
    # is -omega_q / 2
    tilted = QuadrupoleSpec(WQ, 0.0, euler=(0.0, np.pi / 2, 0.0))
    assert effective_oat_strength(tilted, spin) == pytest.approx(-WQ / 2, rel=1e-12)
    # eta = 1 aligned: Ix^2 - Iy^2 has zero diagonal, leaving omega_q
    assert effective_oat_strength(QuadrupoleSpec(WQ, 1.0), spin) == pytest.approx(
        WQ, rel=1e-12
    )


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(gamma_b0=-1.0)
    with pytest.raises(ValueError):
        FieldSpec(gamma_b0=1.0, drive_axis="z")
    with pytest.raises(ValueError, match="^gamma_b0 must be finite"):
        FieldSpec(gamma_b0=np.nan)
    with pytest.raises(ValueError, match="^gamma_b1 must be finite"):
        FieldSpec(gamma_b0=1.0, gamma_b1=np.inf)
