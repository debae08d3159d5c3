"""Property tests: each claim is checked on cases that hypothesis draws,
under the deterministic profile set in the root ``conftest.py``."""

import math

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spincat._floattext import float_words
from spincat.observables import _BLOCK_ROWS
from spincat.control import wrap_phase
from spincat.dynamics import DecoherenceSpec, TimeGrid, evolve_lindblad
from spincat.observables import effective_sizes
from spincat.scenarios import config_from_dict, config_to_dict
from spincat.spin import SpinQuantum, spin_operators

from oracles import rotation_operator

_UNIT = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _state_stacks(draw):
    """A spin and a stack of 1-4 pure states (k, d) or density matrices
    (k, d, d), the latter A A^dagger / tr for a random A of rank up to 3."""
    spin = SpinQuantum(draw(st.integers(1, 9)))
    d, k = spin.dimension, draw(st.integers(1, 4))
    mixed = draw(st.booleans())
    shape = (k, d, draw(st.integers(1, 3))) if mixed else (k, d)
    amps = draw(arrays(float, shape, elements=_UNIT)) + 1j * draw(arrays(float, shape, elements=_UNIT))
    if mixed:
        rho = amps @ amps.conj().transpose(0, 2, 1)
        trace = np.trace(rho, axis1=1, axis2=2).real
        assume(np.all(trace > 1e-3))
        return spin, rho / trace[:, None, None]
    norms = np.linalg.norm(amps, axis=1)
    assume(np.all(norms > 1e-3))
    return spin, amps / norms[:, None]


@given(_state_stacks(), st.sampled_from(["Ix", "Iy", "Iz"]))
def test_effective_size_lies_in_zero_to_2i(stack, axis):
    spin, states = stack
    neff = effective_sizes(states, getattr(spin_operators(spin), axis), spin)
    assert neff.shape == (states.shape[0],)
    assert np.all(neff >= -1e-9) and np.all(neff <= spin.twice_i + 1e-9)


@given(st.floats(-1e6, 1e6, allow_nan=False))
@example(math.pi)
@example(-math.pi)
@example(-3 * math.pi)
def test_wrap_phase_lands_in_the_half_open_interval_and_keeps_the_angle(x):
    for w in (wrap_phase(x), float(wrap_phase(np.array([x]))[0])):
        assert -math.pi < w <= math.pi
        turns = (x - w) / (2 * math.pi)
        assert abs(turns - round(turns)) <= 1e-9


_NONNEGATIVE = st.floats(0.0, 1e12, allow_nan=False)
_ANGLE = st.floats(-10.0, 10.0, allow_nan=False)
_CONFIG_DOCS = st.fixed_dictionaries({
    "spin": st.fixed_dictionaries({"twice_i": st.integers(1, 40)}),
    "fields": st.fixed_dictionaries({
        "gamma_b0_hz": _NONNEGATIVE,
        "gamma_b1_hz": _NONNEGATIVE,
        "drive_axis": st.sampled_from(["x", "y"]),
    }),
    "quadrupole": st.fixed_dictionaries({
        "omega_q_hz": _NONNEGATIVE,
        "eta": st.floats(0.0, 1.0),
        "euler_rad": st.lists(_ANGLE, min_size=3, max_size=3),
    }),
    "decoherence": st.fixed_dictionaries({
        "gamma_m_per_s": _NONNEGATIVE,
        "gamma_e_per_s": _NONNEGATIVE,
    }),
    "params": st.dictionaries(
        st.sampled_from(["t_max", "n_points", "operator"]),
        st.floats(1e-9, 1.0) | st.integers(2, 10**6) | st.sampled_from(["x", "y", "z"]),
    ),
})


def _same(a, b) -> bool:
    """Equal, nested, with floats within the rounding of the 2 pi at the
    Hz boundary."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return math.isclose(a, b, rel_tol=1e-15, abs_tol=0.0)
    return a == b


@given(_CONFIG_DOCS)
def test_config_survives_its_json_round_trip(doc):
    cfg = config_from_dict(doc)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert _same(doc, config_to_dict(cfg))


@given(
    st.integers(1, 9),
    arrays(float, 3, elements=_UNIT),
    st.floats(-20.0, 20.0, allow_nan=False),
)
def test_rotation_operator_is_unitary(twice_i, axis, angle):
    norm = np.linalg.norm(axis)
    assume(norm > 1e-3)
    spin = SpinQuantum(twice_i)
    u = rotation_operator(spin, axis / norm, angle)
    eye = np.eye(spin.dimension)
    assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-12
    assert np.max(np.abs(u @ u.conj().T - eye)) <= 1e-12


@st.composite
def _lindblad_cases(draw):
    """A spin with 2I <= 5, a random Hermitian H (entries up to 1e4 rad/s),
    rates up to 1e4 per s, a random density matrix of rank 1-d and a span
    of up to 1 ms cut into 1-5 steps."""
    spin = SpinQuantum(draw(st.integers(1, 5)))
    d = spin.dimension
    g = draw(arrays(float, (d, d), elements=_UNIT)) + 1j * draw(arrays(float, (d, d), elements=_UNIT))
    h = 1e4 * (g + g.conj().T) / 2
    rates = DecoherenceSpec(draw(st.floats(0.0, 1e4)), draw(st.floats(0.0, 1e4)))
    rank = draw(st.integers(1, d))
    shape = (d, rank)
    a = draw(arrays(float, shape, elements=_UNIT)) + 1j * draw(arrays(float, shape, elements=_UNIT))
    rho = a @ a.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-3)
    t_end = draw(st.floats(1e-6, 1e-3))
    n = draw(st.integers(1, 5))
    return h, rho / trace, rates, TimeGrid(0.0, t_end, dt=t_end / n)


@given(_lindblad_cases())
def test_lindblad_states_keep_unit_trace_and_stay_positive(case):
    h, rho0, rates, grid = case
    states = evolve_lindblad(h, rho0, rates, grid).states
    assert len(states) == grid.n_steps + 1
    assert np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)) <= 1e-10
    assert np.array_equal(states[1:], states[1:].conj().swapaxes(1, 2))
    assert np.linalg.eigvalsh(states).min() >= -1e-10


def float_text(x) -> np.ndarray:
    """(n, 32) uint8 rows, one per value of x (flattened): each row
    without its NUL bytes is ``repr(float(value))``."""
    x = np.ravel(np.asarray(x, dtype=np.float64))
    out = np.empty((len(x), 4), dtype="<u8")
    for i in range(0, len(x), _BLOCK_ROWS):  # as many at a time as the table writer
        float_words(x[i : i + _BLOCK_ROWS], out[i : i + _BLOCK_ROWS])
    return out.view(np.uint8)


def _lines(x: np.ndarray) -> list:
    """The text of float_text for each value of x, as strings."""
    rows = np.concatenate([float_text(x), np.full((x.size, 1), ord("\n"), np.uint8)], axis=1)
    return rows.tobytes().translate(None, b"\0").decode().splitlines()


@given(st.integers(0, 2**64 - 1))
@example(0x7FF8000000000001)  # a NaN with a payload
@example(0xFFF0000000000000)  # -inf
@example(0x0000000000000001)  # the least subnormal
def test_float_text_is_repr_of_any_bit_pattern(bits):
    x = np.array([bits], dtype=np.uint64).view(np.float64)
    assert _lines(x) == [repr(float(x[0]))]


def test_float_text_is_repr_at_the_edges_of_the_format():
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    # powers of two at both ends of the exponent range: subnormal, normal,
    # and the largest, where the lower neighbour is half as far
    edges += [2.0**e for e in range(-1074, -1000)] + [2.0**e for e in range(950, 1024)]
    # either side of repr's switches to and from the exponent form
    for switch in (1e-4, 1e16):
        edges += [np.nextafter(switch, 0.0), switch, np.nextafter(switch, np.inf)]
    edges += [9.999999999999999e22, 1e23, np.nan, np.inf]
    x = np.array(edges + [-e for e in edges])
    assert _lines(x) == [repr(v) for v in x.tolist()]


def test_float_text_is_repr_of_short_long_and_special_values_in_one_block():
    # values whose shortest digits end in zeros, among 17-digit values and
    # specials, all in one block of the kernel
    rng = np.random.default_rng(18)
    short = [0.5, 1e22, 1.25e-7, 123456789012345680.0, 100.0, 1e16, 2e-5]
    special = [0.0, -0.0, np.nan, np.inf, -np.inf]
    x = rng.uniform(-1, 1, _BLOCK_ROWS) * 10.0 ** rng.integers(-30, 30, _BLOCK_ROWS)
    x[rng.choice(x.size, 600, replace=False)] = rng.choice(short + special, 600)
    assert x.size == _BLOCK_ROWS
    assert _lines(x) == [repr(v) for v in x.tolist()]


def test_float_text_is_repr_on_a_sweep_of_random_bit_patterns():
    rng = np.random.default_rng(14)
    bits = rng.integers(0, 2**64 - 1, 200_000, dtype=np.uint64, endpoint=True)
    x = bits.view(np.float64)
    assert _lines(x) == [repr(v) for v in x.tolist()]
