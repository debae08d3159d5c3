import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spincat.observables
from spincat.dynamics import DecoherenceSpec, TimeGrid, evolve_lindblad
from spincat.observables import (
    HUSIMI_CONVENTION,
    SizeSeries,
    cat_coherence,
    effective_size,
    effective_sizes,
    husimi_q,
    VARIANCE_RTOL,
    _BLOCK_ROWS,
    _checked_observable,
    _moments,
    _variance,
    save_coherence_table,
    save_husimi,
    save_report,
    save_size_series,
)
from spincat.scenarios import coherence_scaling, paper_config
from spincat.spin import (
    SpinQuantum,
    coherent_state,
    eigenstate,
    spin_operators,
)

from oracles import flip_probability, flip_probability_peak, revival_peaks, rotation_operator

TWO_PI = 2 * np.pi


def zcat(spin):
    return (eigenstate(spin, spin.i) + eigenstate(spin, -spin.i)) / np.sqrt(2)


def _expectation_and_variance(state, op):
    e, v = _moments(np.asarray(state)[None], _checked_observable(op))
    return float(e[0]), float(v[0])


def test_expectation_and_variance_examples():
    spin = SpinQuantum(7)
    ops = spin_operators(spin)
    e, v = _expectation_and_variance(eigenstate(spin, 3.5), ops.Iz)
    assert (e, v) == (pytest.approx(3.5), pytest.approx(0.0, abs=1e-12))
    e, v = _expectation_and_variance(coherent_state(spin, np.pi / 2, 0.0), ops.Ix)
    assert e == pytest.approx(3.5, abs=1e-10)
    assert v == pytest.approx(0.0, abs=1e-10)
    e, v = _expectation_and_variance(zcat(spin), ops.Iz)
    assert e == pytest.approx(0.0, abs=1e-12)
    assert v == pytest.approx(3.5 ** 2, rel=1e-12)


def test_variance_clamp_scales_with_the_second_moment():
    # |3.5> of 2I = 7 with norm^2 1 + delta has <Iz^2> = 12.25 (1 + delta)
    # and Var Iz = -12.25 delta (1 + delta): the allowance is
    # 1e-12 * 12.25, so delta = 1e-13 (Var -1.2e-12, past an absolute
    # -1e-12) is rounding, and delta = 1e-11 is not
    spin = SpinQuantum(7)
    iz = spin_operators(spin).Iz
    assert effective_size(np.sqrt(1 + 1e-13) * eigenstate(spin, 3.5), iz, spin) == 0.0
    with pytest.raises(ValueError, match=r"variance -1\.2\d*e-10 is negative beyond rounding"):
        effective_size(np.sqrt(1 + 1e-11) * eigenstate(spin, 3.5), iz, spin)
    # below <O^2> = 1 the allowance stays 1e-12: at 2I = 1, <Iz^2> = 0.25,
    # so Var -5e-13 passes and -2.5e-12 raises
    half = SpinQuantum(1)
    iz, up = spin_operators(half).Iz, eigenstate(half, 0.5)
    assert effective_size(np.sqrt(1 + 2e-12) * up, iz, half) == 0.0
    with pytest.raises(ValueError, match="negative beyond rounding"):
        effective_size(np.sqrt(1 + 1e-11) * up, iz, half)


@pytest.mark.parametrize("e", [2.0, 0.5])
def test_variance_clamps_up_to_its_bound_and_raises_past_it(e):
    # <O> = 2 and 0.5 square exactly, and <O^2> - <O>^2 subtracts exactly,
    # so Var is -f * bound to within one rounding of <O^2>, on both sides of
    # <O^2> = 1, where the bound VARIANCE_RTOL max(1, <O^2>) stops scaling
    bound = VARIANCE_RTOL * max(1.0, e * e)
    for f in (0.0, 0.5, 0.99):
        assert _variance(e, e * e - f * bound) == 0.0
    assert _variance(e, e * e + 3 * bound) == pytest.approx(3 * bound, rel=1e-3)
    with pytest.raises(ValueError, match="negative beyond rounding"):
        _variance(e, e * e - 1.01 * bound)
    # a stack clamps each sample and raises on the first one past the bound
    var = _variance(np.full(3, e), e * e - np.array([-1.0, 0.99, 0.0]) * bound)
    assert var[0] == pytest.approx(bound, rel=1e-3) and np.array_equal(var[1:], [0.0, 0.0])
    with pytest.raises(ValueError, match="negative beyond rounding"):
        _variance(np.full(3, e), e * e - np.array([0.0, 1.01, 0.5]) * bound)


def test_peak_time_takes_the_earliest_of_peaks_equal_to_rounding():
    # the tact corner case's cat and its revival: 7.000000000000177 at
    # 6.25 us and 7.0000000000005285 at 18.75 us
    times = np.array([0.0, 6.25e-6, 12.5e-6, 18.75e-6, 25e-6])
    series = SizeSeries(times, np.array([1.0, 7.000000000000177, 1.0, 7.0000000000005285, 1.0]))
    assert series.peak == 7.0000000000005285
    assert series.peak_index == 1
    assert series.peak_time == 6.25e-6
    # a later peak higher by more than 1e-9 (relative) is the peak
    later = SizeSeries(times, np.array([1.0, 7.0, 1.0, 7.0 + 1e-8, 1.0]))
    assert later.peak_index == 3
    assert later.peak_time == 18.75e-6


def test_expectation_rejects_non_hermitian():
    spin = SpinQuantum(3)
    with pytest.raises(ValueError):
        effective_size(eigenstate(spin, 1.5), np.triu(np.ones((4, 4))), spin)


def test_effective_size_reference_points():
    spin = SpinQuantum(7)
    ops = spin_operators(spin)
    coh = coherent_state(spin, np.pi / 2, 0.0)
    assert effective_size(coh, ops.Iy, spin) == pytest.approx(1.0, rel=1e-10)
    assert effective_size(zcat(spin), ops.Iz, spin) == pytest.approx(7.0, rel=1e-12)
    assert effective_size(eigenstate(spin, 3.5), ops.Iz, spin) == pytest.approx(
        0.0, abs=1e-12
    )
    # density-matrix route agrees with the pure route
    rho = np.outer(zcat(spin), zcat(spin).conj())
    assert effective_size(rho, ops.Iz, spin) == pytest.approx(7.0, rel=1e-10)


def test_effective_size_rotation_invariance():
    rng = np.random.default_rng(4)
    spin = SpinQuantum(7)
    ops = spin_operators(spin)
    psi = zcat(spin)
    for _ in range(5):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        u = rotation_operator(spin, axis, rng.uniform(0, TWO_PI))
        rotated_size = effective_size(u @ psi, u @ ops.Iz @ u.conj().T, spin)
        assert rotated_size == pytest.approx(
            effective_size(psi, ops.Iz, spin), rel=1e-10
        )


def test_effective_size_bounded_by_2i():
    rng = np.random.default_rng(9)
    for twice_i in (3, 7, 9):
        spin = SpinQuantum(twice_i)
        ops = spin_operators(spin)
        for _ in range(20):
            psi = rng.normal(size=spin.dimension) + 1j * rng.normal(size=spin.dimension)
            psi /= np.linalg.norm(psi)
            for op in (ops.Ix, ops.Iy, ops.Iz):
                assert effective_size(psi, op, spin) <= 2 * spin.i + 1e-9


def random_states(rng, spin, n):
    psi = rng.normal(size=(n, spin.dimension)) + 1j * rng.normal(size=(n, spin.dimension))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def per_state_size(state, op, spin):
    """N_eff of one state from one matrix-vector (pure) or matrix-matrix
    (mixed) product, independent of the stacked kernel."""
    if state.ndim == 1:
        ostate = op @ state
        e, e2 = np.vdot(state, ostate).real, np.vdot(ostate, ostate).real
    else:
        e, e2 = np.trace(state @ op).real, np.trace(state @ op @ op).real
    return 2 * max(e2 - e * e, 0.0) / spin.i


@pytest.mark.parametrize("twice_i", [1, 7, 25])
def test_effective_sizes_match_per_state_loop(twice_i):
    rng = np.random.default_rng(twice_i)
    spin = SpinQuantum(twice_i)
    ops = spin_operators(spin)
    pure = random_states(rng, spin, 40)
    square = random_states(rng, spin, spin.dimension)  # n == d: still pure states
    # mixtures of three random pure states with random weights
    weights = rng.dirichlet(np.ones(3), size=30)
    comps = random_states(rng, spin, 90).reshape(30, 3, spin.dimension)
    mixed = np.einsum("nk,nki,nkj->nij", weights, comps, comps.conj())
    # a complex Hermitian observable: Ix, Iy and Iz would not notice a transpose
    g = rng.normal(size=(spin.dimension,) * 2) + 1j * rng.normal(size=(spin.dimension,) * 2)
    for op in (ops.Ix, ops.Iz, (g + g.conj().T) / np.sqrt(spin.dimension)):
        for stack in (pure, square, mixed):
            sizes = effective_sizes(stack, op, spin)
            loop = [effective_size(s, op, spin) for s in stack]
            assert np.max(np.abs(sizes - loop)) <= 1e-12
            reference = [per_state_size(s, op, spin) for s in stack]
            assert np.max(np.abs(sizes - reference)) <= 1e-12


def test_effective_sizes_check_once_and_reject_bad_input(monkeypatch):
    spin = SpinQuantum(7)
    ops = spin_operators(spin)
    calls = []
    original = spincat.observables.is_hermitian

    def counting(a, tol):
        calls.append(tol)
        return original(a, tol)

    monkeypatch.setattr(spincat.observables, "is_hermitian", counting)
    stack = random_states(np.random.default_rng(0), spin, 50)
    effective_sizes(stack, ops.Iz, spin)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="observable must be Hermitian"):
        effective_sizes(stack, np.triu(np.ones((8, 8))), spin)
    assert len(calls) == 2
    # an unnormalized sample makes its variance negative: the stack raises
    bad = stack.copy()
    bad[17] = 2 * eigenstate(spin, 3.5)
    with pytest.raises(ValueError, match="negative beyond rounding"):
        effective_sizes(bad, ops.Iz, spin)
    with pytest.raises(ValueError, match="dimensions do not match"):
        effective_sizes(stack[:, :7], ops.Iz, spin)
    with pytest.raises(ValueError, match="dimensions do not match"):
        effective_sizes(stack[0], ops.Iz, spin)  # one state is not a stack


def test_husimi_stretched_state():
    spin = SpinQuantum(7)
    grid = husimi_q(eigenstate(spin, 3.5), spin)
    peak_idx = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert grid.thetas[peak_idx[0]] == pytest.approx(0.0)
    assert_allclose(grid.values[0, :], spin.dimension / (4 * np.pi), rtol=1e-12)


def test_husimi_cat_bimodality_and_suppression():
    spin = SpinQuantum(7)
    grid = husimi_q(zcat(spin), spin)
    pole_val = grid.values[0, 0]
    south_val = grid.values[-1, 0]
    assert pole_val == pytest.approx(south_val, rel=1e-9)
    equator = grid.values[grid.values.shape[0] // 2, :]
    # equator overlap (1/2)|cos^{2I} + e^{i chi} sin^{2I}|^2 at theta/2 = pi/4
    # is suppressed by 2^{-2I} up to the cross-term factor <= 4 and the pole
    # weight 1/2, i.e. max ratio = 2^{-2I+2}
    ratio = np.max(equator) / pole_val
    assert ratio <= 2.0 ** (-2 * spin.i + 2) * (1 + 1e-9)
    assert ratio >= 2.0 ** (-2 * spin.i)


def test_husimi_bimodality_grows_with_spin():
    ratios = []
    for twice_i in (2, 3, 5, 7):
        spin = SpinQuantum(twice_i)
        grid = husimi_q(zcat(spin), spin, n_theta=91, n_phi=181)
        equator_max = grid.values[45, :].max()
        ratios.append(equator_max / grid.values[0, 0])
    # spin-1 lobes overlap strongly; higher spins suppress the equator
    assert ratios[0] > 0.2
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_husimi_normalization_and_refinement():
    for twice_i in (3, 7, 9):
        spin = SpinQuantum(twice_i)
        psi = zcat(spin)
        fine = husimi_q(psi, spin, n_theta=181, n_phi=361)
        assert abs(fine.integral() - 1.0) < 1e-3
        coarse = husimi_q(psi, spin, n_theta=61, n_phi=121)
        assert abs(fine.integral() - 1.0) <= abs(coarse.integral() - 1.0)


def test_husimi_pure_state_peak_memory_stays_below_one_and_a_half_grids():
    # the pure path conjugates the d-vector, not a second copy of the grid
    spin = SpinQuantum(25)
    n_theta, n_phi = 181, 361
    grid_bytes = spin.dimension * n_theta * n_phi * 16
    tracemalloc.start()
    try:
        husimi_q(zcat(spin), spin, n_theta=n_theta, n_phi=n_phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * grid_bytes


def _coherent_grid_husimi(state, spin, n_theta, n_phi):
    """Q from the full (d, n_theta, n_phi) tensor of coherent amplitudes,
    contracted with the state: the formula husimi_q had before it factored
    the tensor."""
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi)
    idx = np.arange(spin.dimension)
    binom = np.array([math.comb(spin.twice_i, int(k)) for k in idx])
    half = thetas / 2
    amp = (
        np.sqrt(binom)[:, None]
        * np.cos(half)[None, :] ** (spin.twice_i - idx[:, None])
        * np.sin(half)[None, :] ** idx[:, None]
    )
    coh = amp[:, :, None] * np.exp(-1j * np.multiply.outer(spin.m_values, phis))[:, None, :]
    return spin.dimension / (4 * np.pi) * np.abs(np.einsum("dtp,d->tp", coh, state.conj())) ** 2


def _husimi_test_states(spin, rng):
    """A random and two structured pure states."""
    d = spin.dimension
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return [psi, zcat(spin), coherent_state(spin, 1.1, 0.4)]


@pytest.mark.parametrize("twice_i", [1, 2, 7, 25])
@pytest.mark.parametrize("n_theta, n_phi", [(37, 53), (60, 17)])
def test_husimi_matches_the_coherent_grid_oracle(twice_i, n_theta, n_phi):
    spin = SpinQuantum(twice_i)
    for state in _husimi_test_states(spin, np.random.default_rng(twice_i)):
        want = _coherent_grid_husimi(state, spin, n_theta, n_phi)
        grid = husimi_q(state, spin, n_theta=n_theta, n_phi=n_phi)
        assert grid.values.shape == (n_theta, n_phi)
        assert np.max(np.abs(grid.values - want)) <= 1e-13 * want.max()


@pytest.mark.parametrize(
    "state, shape",
    [(np.eye(4) / 4, (4, 4)), (np.ones(5) / np.sqrt(5), (5,)), (np.ones((1, 4)) / 2, (1, 4))],
)
def test_husimi_takes_a_state_vector_of_the_spin_only(state, shape):
    # a density matrix, a vector of another spin and a stack of one state
    # are all refused, naming the shape they have
    message = re.escape(f"state vector of shape (4,), got shape {shape}")
    with pytest.raises(ValueError, match=message):
        husimi_q(state, SpinQuantum(3))


def test_husimi_peak_memory_stays_below_a_quarter_of_the_coherent_grid():
    # the (d, n_theta, n_phi) complex tensor of coherent amplitudes is never
    # built: the peak is a few grids of the output's size
    spin = SpinQuantum(25)
    n_theta, n_phi = 181, 361
    grid_bytes = spin.dimension * n_theta * n_phi * 16
    tracemalloc.start()
    try:
        grid = husimi_q(zcat(spin), spin, n_theta=n_theta, n_phi=n_phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(grid.integral() - 1.0) < 1e-3
    assert peak < 0.25 * grid_bytes


def test_cat_coherence_values():
    spin = SpinQuantum(7)
    rho = np.outer(zcat(spin), zcat(spin).conj())
    assert cat_coherence(rho, spin) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError, match=r"shape \(8, 8\), got shape \(8,\)"):
        cat_coherence(zcat(spin), spin)


def test_cat_coherence_dephasing_decay():
    spin = SpinQuantum(5)
    rho0 = np.outer(zcat(spin), zcat(spin).conj())
    gm, t = 1000.0, 5e-4
    grid = TimeGrid(0.0, t, dt=t)
    rho = evolve_lindblad(np.zeros((6, 6)), rho0, DecoherenceSpec(gamma_m=gm), grid).final_state
    expected = 0.5 * np.exp(-gm * 5 ** 2 * t / 2)
    assert cat_coherence(rho, spin) == pytest.approx(expected, rel=1e-6)


def test_flip_probability_reference_points():
    gb1 = TWO_PI * 0.8e3
    assert flip_probability(gb1, 0.0, np.pi / (2 * gb1)) == pytest.approx(1.0)
    assert flip_probability(gb1, TWO_PI * 80e3, 0.0) == 0.0
    peak = flip_probability_peak(gb1, 2 * TWO_PI * 40e3)
    assert peak == pytest.approx(0.64 / 1600.64, rel=1e-12)
    assert peak < 0.0004
    assert flip_probability_peak(0.0, 0.0) == 0.0


def test_flip_probability_bounded_by_peak():
    gb1 = TWO_PI * 0.8e3
    dw = TWO_PI * 30e3
    peak = flip_probability_peak(gb1, dw)
    ts = np.linspace(0, 1e-3, 500)
    vals = [flip_probability(gb1, dw, t) for t in ts]
    assert max(vals) <= peak * (1 + 1e-12)


def test_revival_peaks_extraction():
    t = np.linspace(0, 3 * np.pi, 2001)
    series = SizeSeries(times=t, values=np.sin(t) + 2, operator_tag="Iz")
    peaks = revival_peaks(series)
    assert_allclose(peaks.times, [np.pi / 2, 5 * np.pi / 2], atol=0.01)
    tall_only = revival_peaks(series, min_height=3.5)
    assert len(tall_only.times) == 0


def test_size_series_validation():
    with pytest.raises(ValueError):
        SizeSeries(times=np.arange(3), values=np.arange(4))


def test_serialization_round_trips(tmp_path):
    series = SizeSeries(
        times=np.array([0.0, 1.25e-8, 2.5e-8]),
        values=np.array([1.0, 1.0002960754691597, 7.0]),
        operator_tag="Iy",
    )
    path = tmp_path / "series.csv"
    save_size_series(series, path, header_extra="demo run")
    rows = [
        line.split(",") for line in path.read_text().splitlines()
        if not line.startswith("#")
    ]
    assert [float(r[0]) for r in rows] == series.times.tolist()
    assert [float(r[1]) for r in rows] == series.values.tolist()

    spin = SpinQuantum(5)
    grid = husimi_q(eigenstate(spin, 2.5), spin, n_theta=11, n_phi=21)
    hpath = tmp_path / "husimi.csv"
    save_husimi(grid, hpath)
    text = hpath.read_text().splitlines()
    assert text[0] == "# twice_i: 5"
    data = np.array(
        [[float(x) for x in line.split(",")] for line in text if not line.startswith("#")]
    )
    assert data.shape == (11 * 21, 3)
    assert_allclose(data[:, 2].reshape(11, 21), grid.values, rtol=0, atol=0)


def test_save_report_writes_strict_json_indented_by_two(tmp_path):
    doc = {"mode": "create", "edge_populations": [0.25, 0.75], "oat_period_s": None}
    save_report(doc, tmp_path / "report.json")
    assert (tmp_path / "report.json").read_text() == json.dumps(doc, indent=2)
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_report({"fidelity": float("nan")}, tmp_path / "bad.json")


def _row_by_row_size_series(series, path, header_extra=""):
    # the writer save_size_series had before the shared table writer
    with open(path, "w") as fh:
        fh.write(f"# operator: {series.operator_tag}\n")
        if header_extra:
            fh.write(f"# {header_extra}\n")
        fh.write("# t,N_eff\n")
        for t, v in zip(series.times, series.values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def _row_by_row_husimi(grid, path, header_extra=""):
    with open(path, "w") as fh:
        fh.write(f"# twice_i: {grid.spin.twice_i}\n")
        fh.write(f"# convention: {HUSIMI_CONVENTION}\n")
        if header_extra:
            fh.write(f"# {header_extra}\n")
        fh.write("# theta_rad,phi_rad,Q\n")
        for theta, row in zip(grid.thetas, grid.values):
            for phi, q in zip(grid.phis, row):
                fh.write(f"{float(theta)!r},{float(phi)!r},{float(q)!r}\n")


def _coherence_table(rows, path, header_extra=""):
    # the coherence table has no extra header line
    save_coherence_table(rows, path)


def _row_by_row_coherence(rows, path, header_extra=""):
    # the writer `spincat coherence-scaling` had before the shared table writer
    with open(path, "w") as fh:
        fh.write("# twice_i,dimension,coherence,analytic\n")
        for row in rows:
            fh.write(f"{row.twice_i},{row.dimension},{row.coherence!r},{row.analytic!r}\n")


def _writer_cases():
    """(writer, row-by-row oracle, table) for every kind of table written."""
    rng = np.random.default_rng(7)
    # values that repr differently: integers, tiny and huge magnitudes, 0.1
    times = np.concatenate([[0.0, 0.1, 1e-300, 3], rng.uniform(0, 1e-3, 200)])
    series = SizeSeries(times=times, values=rng.normal(size=times.size) * 1e12, operator_tag="Iy")
    # more lines than one block, with NaN, +-inf, -0.0 and subnormals in both columns
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-5]
    n = 5000
    times = np.concatenate([special, np.linspace(0.0, 1e-2, n - len(special))])
    values = np.concatenate([rng.normal(size=n - len(special)) * 1e-3, special])
    odd_series = SizeSeries(times=times, values=values, operator_tag="Iz")
    spin = SpinQuantum(7)
    grid = husimi_q(coherent_state(spin, 1.1, 0.4), spin, n_theta=19, n_phi=37)
    # the default grid at 2I = 25 of |I,I>: 65 341 lines, Q = (d/4pi) cos(theta/2)^50
    # down to 2.3e-103 next to the south pole and 0.0 on it
    spin = SpinQuantum(25)
    full_grid = husimi_q(eigenstate(spin, spin.i), spin)
    # blocks hold whole phi cycles: one cycle longer than a block, and a last
    # block of 1 cycle after one of 11
    cat = coherent_state(spin, 1.1, 0.4)
    long_cycle = husimi_q(cat, spin, n_theta=3, n_phi=4099)
    partial = husimi_q(cat, spin, n_theta=12, n_phi=361)
    rows = coherence_scaling(paper_config(), list(range(1, 26)))
    return {
        "size series": (save_size_series, _row_by_row_size_series, series),
        "size series, non-finite": (save_size_series, _row_by_row_size_series, odd_series),
        "husimi": (save_husimi, _row_by_row_husimi, grid),
        "husimi, 2I=25 default grid": (save_husimi, _row_by_row_husimi, full_grid),
        "husimi, phi cycle longer than a block": (save_husimi, _row_by_row_husimi, long_cycle),
        "husimi, partial last block": (save_husimi, _row_by_row_husimi, partial),
        "coherence": (_coherence_table, _row_by_row_coherence, rows),
    }


def test_writer_cases_reach_the_edges_of_the_format():
    cases = _writer_cases()
    q = cases["husimi, 2I=25 default grid"][2].values
    assert q.size == 181 * 361 and q.size > 4 * _BLOCK_ROWS
    assert repr(float(q[q > 0].min())).endswith("e-103")
    assert np.any(q == 0)
    assert len(cases["size series, non-finite"][2].times) > _BLOCK_ROWS
    assert len(cases["husimi, phi cycle longer than a block"][2].phis) > _BLOCK_ROWS
    partial = cases["husimi, partial last block"][2]
    cycles_per_block = _BLOCK_ROWS // len(partial.phis)
    assert cycles_per_block < len(partial.thetas) and len(partial.thetas) % cycles_per_block


@pytest.mark.parametrize("header_extra", ["", "gamma_m_per_s: 10.0, gamma_e_per_s: 0.1"])
def test_table_writers_match_the_row_by_row_bytes(tmp_path, header_extra):
    for case, (write, oracle, table) in _writer_cases().items():
        write(table, tmp_path / "new.csv", header_extra=header_extra)
        oracle(table, tmp_path / "old.csv", header_extra=header_extra)
        new, old = (tmp_path / "new.csv").read_bytes(), (tmp_path / "old.csv").read_bytes()
        assert new == old, case


def test_table_writer_memory_is_that_of_one_block_of_lines(tmp_path):
    # 11 x 361 = 3971 lines fit in one block; 181 x 361 = 65 341 take 16
    spin = SpinQuantum(25)
    state = coherent_state(spin, 1.1, 0.4)
    peaks = []
    for n_theta in (11, 181):
        grid = husimi_q(state, spin, n_theta=n_theta)
        tracemalloc.start()
        try:
            save_husimi(grid, tmp_path / "q.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert 11 * 361 <= _BLOCK_ROWS < 181 * 361
    # measured 1.56 and 1.58 MB: the 17 blocks cost what one does
    assert peaks[1] < 1.25 * peaks[0]
    # and less than the bytes of the full grid's text (3.8 MB)
    assert peaks[1] < (tmp_path / "q.csv").stat().st_size / 1.5
