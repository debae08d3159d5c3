"""Measured quantities: degree of superposition, Husimi Q distributions and
cat coherence, and the writers of every table and report a command writes."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _floattext
from .spin import SpinQuantum, _coherent_amplitudes, is_hermitian

__all__ = [
    "HusimiGrid",
    "SizeSeries",
    "effective_size",
    "effective_sizes",
    "husimi_q",
    "cat_coherence",
    "save_size_series",
    "save_husimi",
    "save_coherence_table",
    "save_report",
]

#: Lines of a table formatted and written at a time, rounded down to whole
#: cycles of its keys (11 x 361 = 3971 lines of a default Husimi grid), and
#: so the most values :func:`_floattext.float_words` formats in one call.
#: A call costs ~120 us of numpy call overhead at any size (timed on 16
#: values).  On a 2-vCPU VM the 65 341 values of a 2I = 25 Husimi grid take
#: ~10 ms at 4096 a call, ~12 ms at 2048 and ~9.4 ms at 8192, but a call's
#: temporaries (a traced peak of ~1.4 MB at 4096, mostly (3, n) and
#: (2, 3, n) uint64 arrays) grow with it.
_BLOCK_ROWS = 4096

#: Rounding allowance on a negative variance, relative to max(1, <O^2>).
VARIANCE_RTOL = 1e-12

#: Samples within this fraction of a series' largest value count as its peak.
PEAK_RTOL = 1e-9

HUSIMI_CONVENTION = "Q = (2I+1)/(4*pi) * <coherent|rho|coherent>; sphere integral 1"


@dataclass(frozen=True)
class HusimiGrid:
    """Husimi Q function sampled on a uniform theta x phi grid."""

    spin: SpinQuantum
    thetas: np.ndarray
    phis: np.ndarray
    values: np.ndarray

    def integral(self) -> float:
        """Quadrature-weighted sphere integral of Q (should be 1)."""
        weighted = self.values * np.sin(self.thetas)[:, None]
        return float(np.trapezoid(np.trapezoid(weighted, self.phis, axis=1), self.thetas))


@dataclass(frozen=True)
class SizeSeries:
    """Degree of superposition N_eff sampled over time (or a sweep axis)."""

    times: np.ndarray
    values: np.ndarray
    operator_tag: str = "Iz"

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")

    @property
    def peak(self) -> float:
        return float(np.max(self.values))

    @property
    def peak_index(self) -> int:
        """Index of the earliest sample within ``PEAK_RTOL`` (relative) of
        the maximum, so that of two peaks equal to rounding (a cat and its
        revival) the first is reported, whichever rounds higher."""
        values = np.asarray(self.values)
        peak = values.max()
        return int(np.argmax(values >= peak - PEAK_RTOL * abs(peak)))

    @property
    def peak_time(self) -> float:
        return float(self.times[self.peak_index])


def _checked_observable(op) -> np.ndarray:
    """``op`` as an array, after checking that it is Hermitian within 1e-12.
    A caller that measures one observable over many stacks checks it once
    here and then calls :func:`_effective_sizes` for each stack."""
    op = np.asarray(op)
    if not is_hermitian(op, 1e-12):
        raise ValueError("observable must be Hermitian")
    return op


def _variance(e, e2) -> np.ndarray:
    """Var O = <O^2> - <O>^2 from the moments ``e`` = <O> and ``e2`` = <O^2>.

    The difference cancels two numbers of size <O^2>, so it is clamped to
    zero within -``VARIANCE_RTOL`` max(1, <O^2>) to absorb rounding; a more
    negative value indicates an inconsistent input (an unnormalized state,
    for one) and raises.
    """
    e, e2 = np.asarray(e), np.asarray(e2)
    var = e2 - e * e
    bad = var < -VARIANCE_RTOL * np.maximum(1.0, e2)
    if bad.any():
        raise ValueError(f"variance {var[bad][0]} is negative beyond rounding tolerance")
    return np.maximum(var, 0.0)


def _moments(states: np.ndarray, op: np.ndarray) -> tuple:
    """(<O>, Var O) for each state of a stack: (n, d) pure states or (n, d, d)
    density matrices, for an observable from :func:`_checked_observable`,
    with the variance clamped by :func:`_variance`.
    """
    states = np.asarray(states)
    d = op.shape[0]
    if states.shape[1:] not in ((d,), (d, d)):
        raise ValueError("state and observable dimensions do not match")
    if states.ndim == 2:
        ostates = states @ op.T
        e = np.vecdot(states, ostates).real
        e2 = np.vecdot(ostates, ostates).real
    else:
        e = np.einsum("nij,ji->n", states, op).real
        e2 = np.einsum("nij,ji->n", states, op @ op).real
    return e, _variance(e, e2)


def effective_size(state: np.ndarray, op: np.ndarray, spin: SpinQuantum) -> float:
    """Degree of superposition (2/I) Var(O): 1 for a coherent state, 2I for
    an ideal cat measured along its separation axis."""
    _, var = _moments(np.asarray(state)[None], _checked_observable(op))
    return 2.0 * float(var[0]) / spin.i


def effective_sizes(states: np.ndarray, op: np.ndarray, spin: SpinQuantum) -> np.ndarray:
    """:func:`effective_size` of every state of a stack, one array dimension
    above a single state: (n, d) pure states or (n, d, d) density matrices."""
    return _effective_sizes(states, _checked_observable(op), spin)


def _effective_sizes(states: np.ndarray, op: np.ndarray, spin: SpinQuantum) -> np.ndarray:
    """:func:`effective_sizes` for an observable from :func:`_checked_observable`."""
    _, var = _moments(states, op)
    return 2.0 * var / spin.i


def husimi_q(
    state: np.ndarray,
    spin: SpinQuantum,
    n_theta: int = 181,
    n_phi: int = 361,
) -> HusimiGrid:
    """Husimi Q(theta, phi) = (2I+1)/(4 pi) |<coh(theta,phi)|psi>|^2 of the
    state vector psi = ``state``, the squared overlap with the coherent state.

    The coherent amplitudes factor into a real theta part and a phase,
    <m|coh> = A[theta, I-m] exp(-i m phi) with A from
    :func:`spin._coherent_amplitudes`, so the overlaps on the whole grid are
    one (n_theta, d) x (d, n_phi) product of A psi with exp(i m phi), and
    memory scales with the output grid, not with d x grid.

    Each axis needs at least 2 points, or the grid spans no area and its
    sphere integral is meaningless."""
    for name, n in (("n_theta", n_theta), ("n_phi", n_phi)):
        if n < 2:
            raise ValueError(f"husimi grid size {name} must be >= 2, got {n}")
    psi = np.asarray(state)
    if psi.shape != (spin.dimension,):
        raise ValueError(
            f"husimi_q takes a state vector of shape {(spin.dimension,)}, got shape {psi.shape}"
        )
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi)
    overlaps = (_coherent_amplitudes(spin, thetas) * psi) @ np.exp(
        1j * np.multiply.outer(spin.m_values, phis)
    )
    values = overlaps.real ** 2 + overlaps.imag ** 2
    values *= spin.dimension / (4 * np.pi)
    return HusimiGrid(spin=spin, thetas=thetas, phis=phis, values=values)


def cat_coherence(rho: np.ndarray, spin: SpinQuantum) -> float:
    """Magnitude of the extreme off-diagonal element |rho_{m=I, m'=-I}| of
    the density matrix ``rho``."""
    rho = np.asarray(rho)
    d = spin.dimension
    if rho.shape != (d, d):
        raise ValueError(f"density matrix must have shape {(d, d)}, got shape {rho.shape}")
    return float(abs(rho[0, d - 1]))


def _cell_text(cells) -> np.ndarray:
    """(n, w) uint8 rows, one per cell: a string as it is, a number as
    ``repr(float(cell))``, each NUL-padded to the longest."""
    text = np.array([c if isinstance(c, str) else repr(float(c)) for c in cells], dtype="S")
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _write_table(path, header, values, keys=(), outer=()) -> None:
    """Write a CSV table under a commented header.

    ``header`` lines are written after "# ".  ``values`` is an (n, c) array;
    line r is ``outer[r // len(keys)],keys[r % len(keys)],values[r, 0],...``,
    without the ``outer`` or ``keys`` cell when that sequence is empty.  So
    ``keys`` repeat in every block of lines and each ``outer`` value leads one
    block.  A ``keys`` or ``outer`` cell is a number or a preformatted
    string (see :func:`_cell_text`).  Every float is
    written as Python's shortest round-trip ``repr``, so the table reads back
    to the same float64 values.

    The text is built in one block of NUL-padded lines of uint64 words,
    reused for every run of lines, and written with its NULs deleted.  A
    block holds a whole number of ``keys`` cycles, as many as fit in
    ``_BLOCK_ROWS`` lines (at least one), so the ``keys`` cells and the
    commas after them are laid out once per table; each block then takes its
    ``outer`` cells, from the same once-formatted text, and the value cells,
    32 bytes each with the comma or
    newline in the last, from :func:`_floattext.float_words`.  A 181 x 361
    Husimi grid is 17 blocks of up to 11 x 361 lines of 80 bytes, of which
    ~58 are text.  Only ``keys`` and ``outer`` are formatted once for the
    whole table, so its temporaries are those of one block plus the text of
    those two sequences (a traced peak of ~1.6 MB for that grid, as for one
    block).
    """
    values = np.asarray(values, dtype=float)
    key_text, outer_text = _cell_text(keys), _cell_text(outer)
    cycle = max(len(key_text), 1)
    cycles = max(min(_BLOCK_ROWS // cycle, -(-len(values) // cycle)), 1)
    # the outer cell, a comma, the key cell and a comma, if there are any
    outer_end = len(outer_text) and outer_text.shape[1] + 1
    key_end = outer_end + (len(key_text) and key_text.shape[1] + 1)
    first = -(-key_end // 8)  # the word of the first value cell
    block = np.zeros((cycles * cycle, first + 4 * values.shape[1]), dtype="<u8")
    lines = block.view(np.uint8).reshape(cycles, cycle, -1)
    if outer_end:
        lines[:, :, outer_end - 1] = ord(",")
    if key_end > outer_end:
        lines[:, :, outer_end : key_end - 1] = key_text
        lines[:, :, key_end - 1] = ord(",")
    seps = [ord(",")] * (values.shape[1] - 1) + [ord("\n")]
    with open(path, "wb") as fh:
        fh.write("".join(f"# {line}\n" for line in header).encode())
        for start in range(0, len(values), len(block)):
            n = min(len(block), len(values) - start)
            if len(outer_text):
                outer_at = start // cycle
                count = -(-n // cycle)
                lines[:count, :, : outer_text.shape[1]] = outer_text[outer_at : outer_at + count, None]
            for j, sep in enumerate(seps):
                cells = block[:n, first + 4 * j : first + 4 * j + 4]
                _floattext.float_words(values[start : start + n, j], cells, sep)
            fh.write(bytearray(block[:n]).translate(None, b"\0"))


def save_size_series(series: SizeSeries, path, header_extra: str = "") -> None:
    """Write a two-column (t, N_eff) table with a commented header."""
    header = [f"operator: {series.operator_tag}", header_extra, "t,N_eff"]
    _write_table(path, filter(None, header), np.column_stack([series.times, series.values]))


def save_husimi(grid: HusimiGrid, path, header_extra: str = "") -> None:
    """Write a three-column (theta, phi, Q) table with spin and convention."""
    header = [f"twice_i: {grid.spin.twice_i}", f"convention: {HUSIMI_CONVENTION}",
              header_extra, "theta_rad,phi_rad,Q"]
    _write_table(path, filter(None, header), grid.values.reshape(-1, 1), grid.phis, grid.thetas)


def save_coherence_table(rows, path) -> None:
    """Write the (twice_i, dimension, coherence, analytic) table of
    ``spincat coherence-scaling``, one line per row of
    :func:`scenarios.coherence_scaling`."""
    _write_table(
        path,
        ["twice_i,dimension,coherence,analytic"],
        [[row.coherence, row.analytic] for row in rows],
        [f"{row.twice_i},{row.dimension}" for row in rows],
    )


def save_report(doc: dict, path) -> None:
    """Write a JSON report, strict JSON (no NaN or infinity) indented by 2."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
