"""Property tests: each claim is checked on cases that hypothesis draws,
under the deterministic profile set in the root ``conftest.py``."""

import math

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spincat.control import wrap_phase
from spincat.observables import effective_sizes
from spincat.scenarios import config_from_dict, config_to_dict
from spincat.spin import SpinQuantum, spin_operators

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
    "dt": st.none() | st.floats(1e-12, 1e-3),
    "params": st.dictionaries(
        st.sampled_from(["t_max", "n_points", "operator"]),
        st.floats(1e-9, 1.0) | st.integers(2, 10**6) | st.sampled_from(["x", "y", "z"]),
    ),
    "output_dir": st.none() | st.text(min_size=1, max_size=8),
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
