import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spincat.spin import (
    SpinQuantum,
    check_density_matrix,
    check_pure_state,
    coherent_state,
    eigenstate,
    fidelity,
    is_hermitian,
    spin_operators,
)

from oracles import rotation_operator

ALL_SPINS = [1, 2, 3, 5, 7, 9, 12, 19]  # twice_i up to I = 19/2


def test_spin_quantum_basics():
    spin = SpinQuantum(7)
    assert spin.i == 3.5
    assert spin.dimension == 8
    assert_allclose(spin.m_values, np.arange(3.5, -4.0, -1.0))


def test_spin_quantum_rejects_spin_zero():
    with pytest.raises(ValueError):
        SpinQuantum(0)
    with pytest.raises(TypeError):
        SpinQuantum(1.5)


def test_index_of_m_and_parity_errors():
    spin = SpinQuantum(7)
    assert spin.index_of_m(3.5) == 0
    assert spin.index_of_m(-3.5) == 7
    assert spin.index_of_m(0.5) == 3
    with pytest.raises(ValueError):
        spin.index_of_m(1.0)  # wrong parity for half-integer spin
    with pytest.raises(ValueError):
        spin.index_of_m(4.5)  # out of range


def test_spin_half_is_half_pauli():
    ops = spin_operators(SpinQuantum(1))
    assert_allclose(ops.Iz, np.diag([0.5, -0.5]), atol=1e-15)
    assert_allclose(ops.Ix, np.array([[0, 0.5], [0.5, 0]]), atol=1e-15)
    assert_allclose(ops.Iy, np.array([[0, -0.5j], [0.5j, 0]]), atol=1e-15)


def test_casimir_is_i_i_plus_one_identity():
    for twice_i in ALL_SPINS:
        spin = SpinQuantum(twice_i)
        ops = spin_operators(spin)
        i = spin.i
        assert_allclose(ops.Isq, i * (i + 1) * np.eye(spin.dimension), atol=1e-12)
        built = ops.Ix @ ops.Ix + ops.Iy @ ops.Iy + ops.Iz @ ops.Iz
        assert_allclose(built, ops.Isq, atol=1e-12)


def test_ladder_matrix_element_spin_7_2():
    # <7/2,7/2| Ix |7/2,5/2> = sqrt(7)/2, evaluated by hand from the ladder
    # formula sqrt(I(I+1) - m(m+1)) / 2 with I = 7/2, m = 5/2
    ops = spin_operators(SpinQuantum(7))
    assert_allclose(ops.Ix[0, 1], math.sqrt(7) / 2, rtol=1e-14)
    assert abs(ops.Ix[0, 1] - 1.32288) < 1e-5


def test_ladder_action_on_eigenstates():
    # I+|I,m> = sqrt(I(I+1) - m(m+1)) |I,m+1>, the defining relation
    for twice_i in (3, 7):
        spin = SpinQuantum(twice_i)
        ops = spin_operators(spin)
        i = spin.i
        for m in spin.m_values[1:]:  # all but the top state
            lifted = ops.Iplus @ eigenstate(spin, m)
            coeff = math.sqrt(i * (i + 1) - m * (m + 1))
            assert_allclose(lifted, coeff * eigenstate(spin, m + 1), atol=1e-12)


def test_commutation_relations_all_spins():
    for twice_i in ALL_SPINS:
        ops = spin_operators(SpinQuantum(twice_i))
        scale = np.linalg.norm(ops.Iz)
        for a, b, c in ((ops.Ix, ops.Iy, ops.Iz),
                        (ops.Iy, ops.Iz, ops.Ix),
                        (ops.Iz, ops.Ix, ops.Iy)):
            residual = a @ b - b @ a - 1j * c
            assert np.linalg.norm(residual) < 1e-12 * max(scale, 1.0)


def test_eigenstate_positions():
    spin = SpinQuantum(7)
    assert_allclose(eigenstate(spin, 3.5)[0], 1.0)
    assert_allclose(eigenstate(spin, -3.5)[7], 1.0)
    assert_allclose(eigenstate(spin, 0.5)[3], 1.0)
    for m in spin.m_values:
        assert np.count_nonzero(eigenstate(spin, m)) == 1


def test_coherent_state_poles():
    spin = SpinQuantum(7)
    assert_allclose(coherent_state(spin, 0.0, 0.0), eigenstate(spin, 3.5), atol=1e-15)
    south = coherent_state(spin, np.pi, 0.0)
    assert fidelity(south, eigenstate(spin, -3.5)) == pytest.approx(1.0, abs=1e-12)


def test_coherent_state_equator_moments():
    spin = SpinQuantum(7)
    ops = spin_operators(spin)
    psi = coherent_state(spin, np.pi / 2, 0.0)
    ix = np.vdot(psi, ops.Ix @ psi).real
    assert abs(ix - 3.5) < 1e-10
    iy2 = np.vdot(psi, ops.Iy @ ops.Iy @ psi).real
    iy = np.vdot(psi, ops.Iy @ psi).real
    assert abs((iy2 - iy ** 2) - spin.i / 2) < 1e-10


def test_coherent_state_matches_rotation_route():
    # closed-form amplitudes against the independent matrix-exponential path
    rng = np.random.default_rng(7)
    for twice_i in (1, 4, 7):
        spin = SpinQuantum(twice_i)
        for theta, phi in rng.uniform([0, -np.pi], [np.pi, np.pi], size=(5, 2)):
            via_rotations = (
                rotation_operator(spin, (0, 0, 1), phi)
                @ rotation_operator(spin, (0, 1, 0), theta)
                @ eigenstate(spin, spin.i)
            )
            assert_allclose(coherent_state(spin, theta, phi), via_rotations, atol=1e-12)


def test_coherent_state_transverse_variance():
    # variance I/2 along any axis perpendicular to the pointing direction
    spin = SpinQuantum(9)
    ops = spin_operators(spin)
    rng = np.random.default_rng(3)
    for theta, phi in rng.uniform([0, 0], [np.pi, 2 * np.pi], size=(6, 2)):
        psi = coherent_state(spin, theta, phi)
        point = np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        seed = np.array([1.0, 0.0, 0.0])
        if abs(point @ seed) > 0.9:
            seed = np.array([0.0, 1.0, 0.0])
        perp1 = np.cross(point, seed)
        perp1 /= np.linalg.norm(perp1)
        perp2 = np.cross(point, perp1)
        for alpha in np.linspace(0, np.pi, 5):
            n = np.cos(alpha) * perp1 + np.sin(alpha) * perp2
            op = n[0] * ops.Ix + n[1] * ops.Iy + n[2] * ops.Iz
            mean = np.vdot(psi, op @ psi).real
            second = np.vdot(psi, op @ op @ psi).real
            assert abs((second - mean ** 2) - spin.i / 2) < 1e-10


def test_rotation_operator_identity_and_spinor_sign():
    spin = SpinQuantum(1)
    assert_allclose(rotation_operator(spin, (0, 0, 1), 0.0), np.eye(2), atol=1e-14)
    assert_allclose(
        rotation_operator(spin, (0, 0, 1), 2 * np.pi), -np.eye(2), atol=1e-12
    )


def test_rotation_operator_builds_coherent_state():
    spin = SpinQuantum(7)
    rotated = rotation_operator(spin, (0, 1, 0), np.pi / 2) @ eigenstate(spin, 3.5)
    assert_allclose(rotated, coherent_state(spin, np.pi / 2, 0.0), atol=1e-12)


def test_rotation_operator_unitarity():
    rng = np.random.default_rng(11)
    spin = SpinQuantum(9)
    for _ in range(5):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        u = rotation_operator(spin, axis, rng.uniform(0, 4 * np.pi))
        assert np.linalg.norm(u.conj().T @ u - np.eye(spin.dimension)) < 1e-10


def test_rotation_operator_rejects_bad_axis():
    spin = SpinQuantum(3)
    with pytest.raises(ValueError):
        rotation_operator(spin, (0, 0, 0), 1.0)
    with pytest.raises(ValueError):
        rotation_operator(spin, (0, 0, 2), 1.0)


def test_fidelity_pure_cases():
    spin = SpinQuantum(7)
    up = eigenstate(spin, 3.5)
    down = eigenstate(spin, -3.5)
    assert fidelity(up, up) == pytest.approx(1.0)
    assert fidelity(up, down) == pytest.approx(0.0, abs=1e-15)
    # overlap formula cos^{2I}(theta/2): brute-force inner product agrees
    equator = coherent_state(spin, np.pi / 2, 0.0)
    brute = abs(np.vdot(up, equator)) ** 2
    assert fidelity(up, equator) == pytest.approx(brute, rel=1e-12)
    assert fidelity(up, equator) == pytest.approx(2.0 ** -7, rel=1e-10)


def test_fidelity_mixed_cases():
    spin = SpinQuantum(3)
    a = coherent_state(spin, 0.3, 0.4)
    b = coherent_state(spin, 1.0, -0.2)
    rho_a = np.outer(a, a.conj())
    rho_b = np.outer(b, b.conj())
    pure = fidelity(a, b)
    assert fidelity(rho_a, b) == pytest.approx(pure, rel=1e-10)
    assert fidelity(rho_a, rho_b) == pytest.approx(pure, rel=1e-8)
    mixed = 0.5 * rho_a + 0.5 * rho_b
    assert fidelity(mixed, mixed) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(eigenstate(SpinQuantum(3), 1.5), eigenstate(SpinQuantum(5), 2.5))


def test_state_validation():
    spin = SpinQuantum(3)
    check_pure_state(eigenstate(spin, 1.5))
    with pytest.raises(ValueError):
        check_pure_state(np.array([1.0, 1.0]))
    good = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    check_density_matrix(good)
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([0.9, 0.3, -0.2, 0.0]))
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([0.7, 0.7, 0.0, 0.0]))


def test_is_hermitian_stack_gives_one_verdict_per_matrix():
    ops = spin_operators(SpinQuantum(3))
    skew = np.zeros((4, 4))
    skew[0, 1] = 1e-9  # relative Frobenius error ~1e-10, above the 1e-12 rule
    stack = np.array([ops.Ix, ops.Iy + skew, ops.Iz, ops.Iz + 1e-14 * skew])
    verdicts = is_hermitian(stack)
    assert verdicts.tolist() == [True, False, True, True]
    assert verdicts.tolist() == [is_hermitian(m) for m in stack]
    assert is_hermitian(stack.reshape(2, 2, 4, 4)).shape == (2, 2)
